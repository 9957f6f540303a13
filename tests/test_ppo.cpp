/**
 * @file
 * PPO trainer tests on closed-form environments: a contextual bandit
 * (immediate observation-conditioned reward) and a probe-then-guess
 * memory task that mirrors the structure of the guessing game. Also
 * covers the episode runner every evaluation plays through.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config_parser.hpp"
#include "env/batch_env_pool.hpp"
#include "env/env_registry.hpp"
#include "rl/checkpoint.hpp"
#include "rl/episodes.hpp"
#include "rl/inference_memo.hpp"
#include "rl/mat.hpp"
#include "rl/ppo.hpp"
#include "rl/vec_env.hpp"
#include "util/rng.hpp"

namespace autocat {
namespace {

/** Contextual bandit: the action must match the observed bit. */
class BanditEnv : public Environment
{
  public:
    explicit BanditEnv(std::uint64_t seed = 42) : rng_(seed) {}

    std::size_t observationSize() const override { return 2; }
    std::size_t numActions() const override { return 2; }

    std::vector<float>
    reset() override
    {
        bit_ = rng_.uniformInt(2);
        return obs();
    }

    StepResult
    step(std::size_t action) override
    {
        StepResult r;
        r.reward = action == bit_ ? 1.0 : -1.0;
        r.info.guessMade = true;
        r.info.guessCorrect = action == bit_;
        r.done = true;
        r.obs = obs();
        return r;
    }

  private:
    std::vector<float>
    obs() const
    {
        std::vector<float> o(2, 0.0f);
        o[bit_] = 1.0f;
        return o;
    }

    Rng rng_;
    std::size_t bit_ = 0;
};

/** A VecEnv of @p n independently-seeded bandits. */
template <typename Adapter>
std::unique_ptr<Adapter>
makeBanditVec(std::size_t n, std::uint64_t base_seed)
{
    std::vector<std::unique_ptr<Environment>> envs;
    for (std::size_t i = 0; i < n; ++i)
        envs.push_back(std::make_unique<BanditEnv>(base_seed + i));
    return std::make_unique<Adapter>(std::move(envs));
}

/**
 * Probe-then-guess: the hidden bit is only visible after taking the
 * probe action; guessing blind is a coin flip, probing then guessing
 * is a sure win minus a small probe cost.
 */
class ProbeEnv : public Environment
{
  public:
    std::size_t observationSize() const override { return 3; }
    std::size_t numActions() const override { return 3; }

    std::vector<float>
    reset() override
    {
        bit_ = rng_.uniformInt(2);
        probed_ = false;
        steps_ = 0;
        return obs();
    }

    StepResult
    step(std::size_t action) override
    {
        StepResult r;
        ++steps_;
        if (action == 0) {
            probed_ = true;
            r.reward = -0.01;
        } else {
            const bool correct = probed_ && action - 1 == bit_;
            r.reward = correct ? 1.0 : -1.0;
            r.info.guessMade = true;
            r.info.guessCorrect = correct;
            r.done = true;
        }
        if (steps_ >= 6 && !r.done) {
            r.done = true;
            r.reward = -1.0;
        }
        r.obs = obs();
        return r;
    }

  private:
    std::vector<float>
    obs() const
    {
        std::vector<float> o(3, 0.0f);
        o[0] = probed_ ? 1.0f : 0.0f;
        if (probed_)
            o[1 + bit_] = 1.0f;
        return o;
    }

    Rng rng_{43};
    std::size_t bit_ = 0;
    bool probed_ = false;
    int steps_ = 0;
};

/**
 * Train until the greedy policy reaches @p target accuracy with at
 * least one guess per episode on average (a campaign phase's stop
 * rule), or @p max_epochs elapse.
 *
 * @return the 1-based converging epoch, or -1
 */
int
trainToAccuracy(PpoTrainer &trainer, double target, int max_epochs,
                int eval_episodes)
{
    for (int e = 1; e <= max_epochs; ++e) {
        trainer.runEpoch();
        const EvalStats ev = trainer.evaluate(eval_episodes);
        if (ev.guesses >= ev.episodes && ev.guessAccuracy >= target)
            return e;
    }
    return -1;
}

TEST(Ppo, SolvesContextualBandit)
{
    BanditEnv env;
    SyncVecEnv vec(env);
    PpoConfig cfg;
    cfg.seed = 3;
    cfg.stepsPerEpoch = 2000;
    PpoTrainer trainer(vec, cfg);
    const int epoch = trainToAccuracy(trainer, 0.99, 10, 200);
    EXPECT_GT(epoch, 0) << "bandit did not converge";
}

TEST(Ppo, SolvesProbeThenGuess)
{
    ProbeEnv env;
    SyncVecEnv vec(env);
    PpoConfig cfg;
    cfg.seed = 5;
    cfg.stepsPerEpoch = 2000;
    PpoTrainer trainer(vec, cfg);
    const int epoch = trainToAccuracy(trainer, 0.99, 20, 200);
    ASSERT_GT(epoch, 0) << "probe env did not converge";
    // The converged policy must actually probe (2-step episodes).
    const EvalStats ev = trainer.evaluate(100);
    EXPECT_NEAR(ev.meanEpisodeLength, 2.0, 0.3);
    EXPECT_GE(ev.meanReturn, 0.9);
}

TEST(Ppo, EvaluateReportsBitRate)
{
    BanditEnv env;
    SyncVecEnv vec(env);
    PpoConfig cfg;
    cfg.seed = 7;
    cfg.stepsPerEpoch = 500;
    PpoTrainer trainer(vec, cfg);
    trainer.runEpoch();
    const EvalStats ev = trainer.evaluate(50);
    // One guess per 1-step episode.
    EXPECT_DOUBLE_EQ(ev.bitRate, 1.0);
    EXPECT_EQ(ev.guesses, 50u);
}

TEST(Ppo, EpochStatsArePopulated)
{
    BanditEnv env;
    SyncVecEnv vec(env);
    PpoConfig cfg;
    cfg.seed = 9;
    cfg.stepsPerEpoch = 500;
    PpoTrainer trainer(vec, cfg);
    const EpochStats stats = trainer.runEpoch();
    EXPECT_EQ(stats.epoch, 1);
    EXPECT_GT(stats.entropy, 0.0);
    EXPECT_NE(stats.meanReturn, 0.0);
    EXPECT_EQ(trainer.totalEnvSteps(), 500);
}

TEST(Ppo, DeterministicAcrossIdenticalRuns)
{
    BanditEnv env1, env2;
    SyncVecEnv vec1(env1), vec2(env2);
    PpoConfig cfg;
    cfg.seed = 11;
    cfg.stepsPerEpoch = 500;
    PpoTrainer t1(vec1, cfg), t2(vec2, cfg);
    const EpochStats s1 = t1.runEpoch();
    const EpochStats s2 = t2.runEpoch();
    EXPECT_DOUBLE_EQ(s1.meanReturn, s2.meanReturn);
    EXPECT_DOUBLE_EQ(s1.policyLoss, s2.policyLoss);
}

TEST(Ppo, TrainsThroughFourStreamVecEnv)
{
    auto vec = makeBanditVec<SyncVecEnv>(4, 100);
    PpoConfig cfg;
    cfg.seed = 13;
    cfg.stepsPerEpoch = 2000;
    PpoTrainer trainer(*vec, cfg);
    EXPECT_EQ(trainer.numStreams(), 4u);
    const int epoch = trainToAccuracy(trainer, 0.99, 10, 200);
    EXPECT_GT(epoch, 0) << "4-stream bandit did not converge";
    // One epoch splits its 2000 steps across the 4 streams.
    EXPECT_EQ(trainer.totalEnvSteps() % 2000, 0);
}

/** Logits and values of both policies on a shared probe batch. */
void
expectPoliciesBitwiseEqual(PpoTrainer &a, PpoTrainer &b)
{
    Matrix probe(4, 2);
    Rng rng(99);
    for (std::size_t i = 0; i < probe.size(); ++i)
        probe.data()[i] = static_cast<float>(rng.gaussian());
    AcOutput oa, ob;
    a.policy().forwardNoGrad(probe, oa);
    b.policy().forwardNoGrad(probe, ob);
    ASSERT_EQ(oa.logits.size(), ob.logits.size());
    EXPECT_EQ(0, std::memcmp(oa.logits.data(), ob.logits.data(),
                             oa.logits.size() * sizeof(float)));
    ASSERT_EQ(oa.values.size(), ob.values.size());
    EXPECT_EQ(0, std::memcmp(oa.values.data(), ob.values.data(),
                             oa.values.size() * sizeof(float)));
}

/**
 * Collection through ThreadedVecEnv (via the step-all wrapper) and
 * BatchVecEnv (via its own surface, here over generic non-game
 * streams) reproduces SyncVecEnv bitwise: same stats, same weights.
 */
TEST(Ppo, ThreadedCollectionMatchesSync)
{
    PpoConfig cfg;
    cfg.seed = 15;
    cfg.stepsPerEpoch = 800;

    auto sync_vec = makeBanditVec<SyncVecEnv>(4, 300);
    auto threaded_vec = makeBanditVec<ThreadedVecEnv>(4, 300);
    auto batch_vec = makeBanditVec<BatchVecEnv>(4, 300);
    PpoTrainer sync_trainer(*sync_vec, cfg);
    PpoTrainer threaded_trainer(*threaded_vec, cfg);
    PpoTrainer batch_trainer(*batch_vec, cfg);

    for (int e = 0; e < 3; ++e) {
        const EpochStats a = sync_trainer.runEpoch();
        for (PpoTrainer *other : {&threaded_trainer, &batch_trainer}) {
            const EpochStats b = other->runEpoch();
            EXPECT_DOUBLE_EQ(a.meanReturn, b.meanReturn) << "epoch " << e;
            EXPECT_DOUBLE_EQ(a.meanEpisodeLength, b.meanEpisodeLength);
            EXPECT_DOUBLE_EQ(a.policyLoss, b.policyLoss) << "epoch " << e;
            EXPECT_DOUBLE_EQ(a.valueLoss, b.valueLoss) << "epoch " << e;
            EXPECT_DOUBLE_EQ(a.entropy, b.entropy) << "epoch " << e;
        }
    }
    for (PpoTrainer *other : {&threaded_trainer, &batch_trainer}) {
        EXPECT_EQ(sync_trainer.totalEnvSteps(), other->totalEnvSteps());
        expectPoliciesBitwiseEqual(sync_trainer, *other);
    }
}

TEST(Ppo, CurriculumAcrossVecEnvs)
{
    auto stage1 = makeBanditVec<SyncVecEnv>(2, 500);
    auto stage2 = makeBanditVec<SyncVecEnv>(4, 600);
    PpoConfig cfg;
    cfg.seed = 17;
    cfg.stepsPerEpoch = 400;
    PpoTrainer trainer(*stage1, cfg);
    trainer.runEpoch();
    trainer.setVecEnv(*stage2);
    EXPECT_EQ(trainer.numStreams(), 4u);
    const EpochStats stats = trainer.runEpoch();
    EXPECT_GT(stats.entropy, 0.0);

    // Dimension mismatches are rejected.
    ProbeEnv probe;
    SyncVecEnv probe_vec(probe);
    EXPECT_THROW(trainer.setVecEnv(probe_vec), std::invalid_argument);
}

// ---------------------------------------------------- episode runner --

/**
 * Fixed-length episodes with a constant observation; action 1 is a
 * correct guess. Records what the runner did to it.
 */
class CountingEnv : public Environment
{
  public:
    explicit CountingEnv(int length = 3) : length_(length) {}

    std::size_t observationSize() const override { return 2; }
    std::size_t numActions() const override { return 4; }

    std::vector<float>
    reset() override
    {
        ++resets;
        steps = 0;
        return obs();
    }

    StepResult
    step(std::size_t action) override
    {
        actions.push_back(action);
        StepResult r;
        ++steps;
        r.reward = 0.5;
        r.info.guessMade = action == 1;
        r.info.guessCorrect = action == 1;
        r.done = steps >= length_;
        r.obs = obs();
        return r;
    }

    const std::uint8_t *
    actionMask() const override
    {
        return mask.empty() ? nullptr : mask.data();
    }

    int resets = 0;
    int steps = 0;
    std::vector<std::size_t> actions;
    std::vector<std::uint8_t> mask;  ///< empty: no masking

  private:
    static std::vector<float> obs() { return {0.25f, -0.75f}; }

    int length_;
};

TEST(RunEpisodes, HooksRunAroundEachEpisodeRoundRobin)
{
    CountingEnv a, b, c;
    SyncVecEnv vec(std::vector<Environment *>{&a, &b, &c});
    std::vector<Environment *> started, ended;
    int first_steps = 0;
    EpisodeHooks hooks;
    hooks.onStart = [&](Environment &env) {
        // After reset(): the episode is fresh and was just reset.
        auto &counting = static_cast<CountingEnv &>(env);
        EXPECT_EQ(counting.steps, 0);
        EXPECT_EQ(counting.resets,
                  std::count(started.begin(), started.end(), &env) + 1);
        started.push_back(&env);
    };
    hooks.onEnd = [&](Environment &env) {
        EXPECT_EQ(static_cast<CountingEnv &>(env).steps, 3);
        ended.push_back(&env);
    };
    const EpisodePolicy act = [&](Environment &, const std::vector<float> &,
                                  const StepInfo *last) {
        first_steps += last ? 0 : 1;
        return std::size_t{0};
    };

    const EvalStats stats = runEpisodes(vec, 7, act, hooks);
    const std::vector<Environment *> order{&a, &b, &c, &a, &b, &c, &a};
    EXPECT_EQ(started, order);
    EXPECT_EQ(ended, order);
    EXPECT_EQ(first_steps, 7);
    EXPECT_EQ(a.resets, 3);
    EXPECT_EQ(c.resets, 2);
    EXPECT_EQ(stats.episodes, 7u);
    EXPECT_EQ(stats.guesses, 0u);
    EXPECT_DOUBLE_EQ(stats.meanEpisodeLength, 3.0);
    EXPECT_DOUBLE_EQ(stats.meanReturn, 1.5);
}

TEST(RunEpisodes, OnStepFalseEndsTheEpisodeEarly)
{
    CountingEnv env(10);
    SyncVecEnv vec(env);
    int ends = 0;
    EpisodeHooks hooks;
    hooks.onStep = [](Environment &, std::size_t action,
                      const StepResult &sr) {
        EXPECT_FALSE(sr.done);
        return action != 1;  // stop at the first guess
    };
    hooks.onEnd = [&](Environment &) { ++ends; };
    // Probe twice, then guess.
    const EpisodePolicy act = [](Environment &e, const std::vector<float> &,
                                 const StepInfo *) {
        return static_cast<CountingEnv &>(e).steps == 2 ? std::size_t{1}
                                                        : std::size_t{0};
    };

    const EvalStats stats = runEpisodes(vec, 4, act, hooks);
    EXPECT_EQ(ends, 4);
    EXPECT_EQ(env.actions.size(), 12u);
    EXPECT_DOUBLE_EQ(stats.meanEpisodeLength, 3.0);
    EXPECT_EQ(stats.guesses, 4u);
    EXPECT_DOUBLE_EQ(stats.guessAccuracy, 1.0);
    EXPECT_DOUBLE_EQ(stats.bitRate, 1.0 / 3.0);
}

TEST(RunEpisodes, GreedyPolicyNeverPlaysAMaskedArgmax)
{
    Rng rng(21);
    ActorCritic net(2, 4, 16, 1, rng);
    CountingEnv env;
    SyncVecEnv vec(env);

    // Unmasked, greedy plays the raw-logit argmax every step.
    runEpisodes(vec, 2, greedyPolicy(net));
    const std::size_t best = env.actions.front();
    for (std::size_t action : env.actions)
        EXPECT_EQ(action, best);
    const Matrix logits = net.forwardOne({0.25f, -0.75f}).logits;
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_LE(logits(0, k), logits(0, best));

    // Mask the argmax out: greedy falls back to the best valid action.
    env.mask.assign(4, 1);
    env.mask[best] = 0;
    env.actions.clear();
    runEpisodes(vec, 2, greedyPolicy(net));
    const std::size_t fallback = net.argmaxMasked(logits, 0, env.mask.data());
    EXPECT_NE(fallback, best);
    ASSERT_EQ(env.actions.size(), 6u);
    for (std::size_t action : env.actions)
        EXPECT_EQ(action, fallback);
}

/** A CountingEnv whose episode i returns returns[i % size], all on
 *  its first step. */
class ScriptedReturnEnv : public CountingEnv
{
  public:
    explicit ScriptedReturnEnv(std::vector<double> r) : returns(std::move(r))
    {
    }

    StepResult
    step(std::size_t action) override
    {
        StepResult r = CountingEnv::step(action);
        r.reward = steps == 1 ? returns[(resets - 1) % returns.size()] : 0.0;
        return r;
    }

    std::vector<double> returns;
};

TEST(RunEpisodes, PerStreamPoliciesPlayTheInterleavedEpisodes)
{
    // Each stream's policy plays a constant of its own, so every
    // stream's action log shows which episodes it played. Stream 0's
    // episode returns cancel only when summed in episode order: 1e16,
    // then 1 three times (absorbed), then -1e16.
    for (const int episodes : {7, 2}) {
        for (const std::size_t threads : {1, 4}) {
            const MatThreadScope budget(threads);
            ScriptedReturnEnv a({1e16, -1e16}), b({1.0}), c({1.0}), d({1.0});
            CountingEnv *envs[] = {&a, &b, &c, &d};
            SyncVecEnv vec(std::vector<Environment *>{&a, &b, &c, &d});
            std::vector<EpisodePolicy> acts;
            for (std::size_t s = 0; s < 4; ++s)
                acts.push_back([s](Environment &, const std::vector<float> &,
                                   const StepInfo *) { return s; });

            const EvalStats stats = runEpisodes(vec, episodes, acts);
            for (std::size_t s = 0; s < 4; ++s) {
                // Episode e runs on stream e % 4: the one-policy order.
                const int played = (episodes + 3 - static_cast<int>(s)) / 4;
                EXPECT_EQ(envs[s]->resets, played) << "stream " << s;
                EXPECT_EQ(envs[s]->actions,
                          std::vector<std::size_t>(3 * played, s));
            }
            EXPECT_EQ(stats.episodes, static_cast<std::size_t>(episodes));
            // Stream 1 guesses right on every step of its episodes.
            const std::size_t guesses = 3 * ((episodes + 2) / 4);
            EXPECT_EQ(stats.guesses, guesses);
            EXPECT_DOUBLE_EQ(stats.guessAccuracy, 1.0);
            EXPECT_DOUBLE_EQ(stats.meanEpisodeLength, 3.0);
            EXPECT_EQ(stats.meanReturn, episodes == 7 ? 2.0 / 7 : 0.5e16);
        }
    }
}

/** One-step episodes on a fixed observation; records the actions. */
class FixedObsEnv : public Environment
{
  public:
    explicit FixedObsEnv(std::vector<float> x) : x_(std::move(x)) {}

    std::size_t observationSize() const override { return x_.size(); }
    std::size_t numActions() const override { return 2; }
    std::vector<float> reset() override { return x_; }

    StepResult
    step(std::size_t action) override
    {
        actions.push_back(action);
        StepResult r;
        r.done = true;
        r.obs = x_;
        return r;
    }

    std::vector<std::size_t> actions;

  private:
    std::vector<float> x_;
};

/**
 * The per-stream greedy policies run with the kernel tier of the thread
 * that built them, also on pool executors, whose own tier is the
 * host's: logit 1 is pinned between the portable and the SIMD value of
 * logit 0, so the two tiers pick different actions.
 */
TEST(RunEpisodes, GreedyPoliciesUseTheCallersTierOnExecutors)
{
    if (detail::hostMatTier() == detail::MatTier::Portable)
        GTEST_SKIP() << "needs a SIMD tier next to the portable one";
    Rng rng(23);
    ActorCritic net(24, 2, 16, 1, rng);
    std::vector<float> x(24);
    for (float &v : x)
        v = static_cast<float>(rng.gaussian());
    const auto logit0 = [&](detail::MatTier tier) {
        const detail::MatTierScope cap(tier);
        return net.forwardOne(x).logits(0, 0);
    };
    // The policy head's blocks: row 0 random, row 1 zero, so logit 1 is
    // its bias exactly.
    float portable = 0.0f, simd = 0.0f;
    for (int attempt = 0; attempt < 64 && portable == simd; ++attempt) {
        std::vector<ParamBlock> blocks = net.paramBlocks();
        for (std::size_t i = 0; i < blocks[2].size; ++i)
            blocks[2].params[i] =
                i < 16 ? static_cast<float>(rng.gaussian()) : 0.0f;
        std::fill(blocks[3].params, blocks[3].params + 2, 0.0f);
        portable = logit0(detail::MatTier::Portable);
        simd = logit0(detail::hostMatTier());
    }
    ASSERT_NE(portable, simd) << "no rounding difference between the tiers";
    net.paramBlocks()[3].params[1] = std::max(portable, simd);

    const detail::MatTierScope cap(detail::MatTier::Portable);
    const std::size_t want = net.argmax(net.forwardOne(x).logits, 0);
    {
        const detail::MatTierScope host(detail::hostMatTier());
        ASSERT_NE(net.argmax(net.forwardOne(x).logits, 0), want);
    }
    // Enough episodes per stream that the pool's workers, not only the
    // caller, play some of the streams.
    const MatThreadScope budget(4);
    FixedObsEnv a(x), b(x), c(x), d(x);
    SyncVecEnv vec(std::vector<Environment *>{&a, &b, &c, &d});
    runEpisodes(vec, 8000, greedyPolicies(net, 4));
    for (FixedObsEnv *env : {&a, &b, &c, &d})
        EXPECT_EQ(env->actions, std::vector<std::size_t>(2000, want));
}

/**
 * A bandit that can be made to throw from its step at a given count of
 * its own steps, once, and that records whether the first call made
 * after a mark was a reset().
 */
class FailingEnv : public Environment
{
  public:
    std::size_t observationSize() const override { return 2; }
    std::size_t numActions() const override { return 2; }

    std::vector<float>
    reset() override
    {
        observe(true);
        steps_ = 0;
        return {1.0f, 0.0f};
    }

    StepResult
    step(std::size_t action) override
    {
        observe(false);
        if (totalSteps == throwAt) {
            throwAt = -1;
            throw std::runtime_error("stream failed");
        }
        ++totalSteps;
        StepResult r;
        r.reward = action == 0 ? 1.0 : -1.0;
        r.done = ++steps_ >= 4;
        episodesDone += r.done ? 1 : 0;
        r.obs = {1.0f, 0.0f};
        return r;
    }

    /** Record the kind of the next call in resumedWithReset. */
    void mark() { marked_ = true; }

    long totalSteps = 0;
    long throwAt = -1;
    int episodesDone = 0;
    bool resumedWithReset = false;

  private:
    void
    observe(bool is_reset)
    {
        if (marked_)
            resumedWithReset = is_reset;
        marked_ = false;
    }

    int steps_ = 0;
    bool marked_ = false;
};

TEST(PpoEvaluate, ThrowingStreamLetsTheOthersFinishAndCollectionRestarts)
{
    for (const std::size_t threads : {1, 2, 4}) {
        const MatThreadScope budget(threads);
        FailingEnv envs[4];
        SyncVecEnv vec(
            std::vector<Environment *>{&envs[0], &envs[1], &envs[2], &envs[3]});
        PpoConfig cfg;
        cfg.seed = 19;
        cfg.stepsPerEpoch = 202;  // streams stop mid-episode
        cfg.minibatchSize = 101;
        PpoTrainer trainer(vec, cfg);
        trainer.runEpoch();

        // 8 episodes of 4 steps: two per stream. Stream 2 throws in the
        // middle of its second one.
        envs[2].throwAt = envs[2].totalSteps + 6;
        int before[4];
        for (int s = 0; s < 4; ++s)
            before[s] = envs[s].episodesDone;
        int caught = 0;
        try {
            trainer.evaluate(8);
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "stream failed");
            ++caught;
        }
        EXPECT_EQ(caught, 1) << threads << " threads";
        for (int s = 0; s < 4; ++s) {
            EXPECT_EQ(envs[s].episodesDone - before[s], s == 2 ? 1 : 2)
                << threads << " threads, stream " << s;
            envs[s].mark();
        }

        // The trainer does not resume the streams evaluation moved.
        trainer.runEpoch();
        for (int s = 0; s < 4; ++s)
            EXPECT_TRUE(envs[s].resumedWithReset)
                << threads << " threads, stream " << s;
    }
}

// ------------------------------------------------ memoized inference --

/** mask_bakeoff.cfg's game (examples/configs): a 2-way cache, attacker
 *  0-2, victim 0 or no access, a 10-step window and 600-step epochs,
 *  where collection and greedy evaluation revisit most rows. */
const char *const kTwoWay = R"(num_sets = 1
num_ways = 2
attack_addr_s = 0
attack_addr_e = 2
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 10
seed = 7
ppo_seed = 21
steps_per_epoch = 600
minibatch_size = 100
)";

std::string
hexEpoch(const EpochStats &s)
{
    std::ostringstream os;
    os << std::hexfloat << "epoch " << s.epoch << " return "
       << s.meanReturn << " length " << s.meanEpisodeLength << " pi "
       << s.policyLoss << " v " << s.valueLoss << " entropy "
       << s.entropy;
    return os.str();
}

std::string
hexEval(const EvalStats &s)
{
    std::ostringstream os;
    os << std::hexfloat << "eval return " << s.meanReturn << " length "
       << s.meanEpisodeLength << " accuracy " << s.guessAccuracy
       << " bit rate " << s.bitRate << " detection " << s.detectionRate
       << " episodes " << s.episodes << " guesses " << s.guesses;
    return os.str();
}

/** FNV-1a 64 of @p trainer's checkpoint: weights, Adam and RNG. */
std::uint64_t
checkpointHash(PpoTrainer &trainer)
{
    std::ostringstream os(std::ios::binary);
    writePpoCheckpoint(os, trainer);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : os.str()) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct MemoGolden
{
    std::vector<std::string> epochs;  ///< per epoch: its stats, then
                                      ///< the evaluation after it
    std::uint64_t checkpoint;
};

/** Eight epochs, each followed by a 40-episode greedy evaluation, on
 *  the two-way game at the calling thread's budget and tier: one
 *  stream unmasked, or four batch-engine streams with both action
 *  masks. */
MemoGolden
trainTwoWay(bool four_masked)
{
    std::string text = kTwoWay;
    if (four_masked)
        text += "mask_actions = true\nmask_useless_actions = true\n";
    const ExplorationConfig cfg = parseExplorationConfig(text);
    auto envs = makeVecEnv(cfg.scenario, cfg.env, four_masked ? 4 : 1,
                           four_masked ? VecEnvKind::Batch
                                       : VecEnvKind::Sync);
    PpoTrainer trainer(*envs, cfg.ppo);
    MemoGolden run;
    for (int e = 0; e < 8; ++e) {
        run.epochs.push_back(hexEpoch(trainer.runEpoch()));
        run.epochs.push_back(hexEval(trainer.evaluate(40)));
    }
    run.checkpoint = checkpointHash(trainer);
    return run;
}

/*
 * Captured before collection and greedy evaluation memoized inference:
 * a memo hit must return the bits the forward computes, so these do not
 * move. The SIMD tiers share one set, the portable backend has its own.
 */
const MemoGolden kTwoWaySimdGolden[2] = {
    // one stream
    {{
         "epoch 1 return -0x1.5f7be60d304e5p-1 length"
         " 0x1.916c90c101572p+1 pi -0x1.783d863803597p-6 v"
         " 0x1.110913728ba36p-1 entropy 0x1.c95c191c165b1p+0",
         "eval return -0x1.199999999999dp+0 length 0x1.4p+3 accuracy"
         " 0x0p+0 bit rate 0x0p+0 detection 0x0p+0 episodes 40"
         " guesses 0",
         "epoch 2 return -0x1.49ebf67ac4f0cp-1 length"
         " 0x1.9e717863a1e71p+1 pi -0x1.6d15a4929611ep-6 v"
         " 0x1.12f5c129552d5p-1 entropy 0x1.c29d9d9fcd2e6p+0",
         "eval return -0x1.199999999999dp+0 length 0x1.4p+3 accuracy"
         " 0x0p+0 bit rate 0x0p+0 detection 0x0p+0 episodes 40"
         " guesses 0",
         "epoch 3 return -0x1.a371909d7f702p-2 length"
         " 0x1.eea876ea876ebp+1 pi -0x1.aca63db4d9871p-6 v"
         " 0x1.484a657f8f6c9p-1 entropy 0x1.b714b9dc939dcp+0",
         "eval return 0x1.9a9fbe76c8b46p-2 length"
         " 0x1.799999999999ap+2 accuracy 0x1.7333333333333p-1 bit"
         " rate 0x1.5b1e5f75270dp-3 detection 0x0p+0 episodes 40"
         " guesses 40",
         "epoch 4 return -0x1.c432ca57a7872p-2 length"
         " 0x1.b6202ecfb9c87p+1 pi -0x1.f4dbf369acbe4p-6 v"
         " 0x1.62c6f2badbb6ep-1 entropy 0x1.aa8d636d630aap+0",
         "eval return -0x1.1eb851eb851eap-4 length 0x1.8p+1 accuracy"
         " 0x1.e666666666666p-2 bit rate 0x1.5555555555555p-2"
         " detection 0x0p+0 episodes 40 guesses 40",
         "epoch 5 return -0x1.cbe5fb3bf5703p-2 length"
         " 0x1.e236bdfcc7a5dp+1 pi -0x1.a4914fe7f4394p-6 v"
         " 0x1.62f03dea3e22ap-1 entropy 0x1.9f6d6544e020fp+0",
         "eval return -0x1.47ae147ae144dp-6 length 0x1.8p+1 accuracy"
         " 0x1p-1 bit rate 0x1.5555555555555p-2 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 6 return -0x1.e1594607d5aa5p-4 length"
         " 0x1.0149e112e63a7p+2 pi -0x1.5f24a5370aa8ap-6 v"
         " 0x1.7d87154bc6e0fp-1 entropy 0x1.94ec81bcde47ep+0",
         "eval return 0x1.47ae147ae147ap-4 length 0x1.8p+1 accuracy"
         " 0x1.199999999999ap-1 bit rate 0x1.5555555555555p-2"
         " detection 0x0p+0 episodes 40 guesses 40",
         "epoch 7 return -0x1.1eb851eb851ecp-3 length"
         " 0x1.df33333333333p+1 pi -0x1.6a4be4a5b4822p-6 v"
         " 0x1.a41dbea589bf9p-1 entropy 0x1.7c3d65e50aac4p+0",
         "eval return -0x1.5c28f5c28f5bap-3 length 0x1.8p+1 accuracy"
         " 0x1.b333333333333p-2 bit rate 0x1.5555555555555p-2"
         " detection 0x0p+0 episodes 40 guesses 40",
         "epoch 8 return -0x1.dbcf2f45b75bap-9 length"
         " 0x1.06231188c4623p+2 pi -0x1.368faa0ab186p-6 v"
         " 0x1.8afc81285159ep-1 entropy 0x1.7d89dec60eef5p+0",
         "eval return -0x1.eb851eb851eb8p-4 length 0x1.8p+1 accuracy"
         " 0x1.ccccccccccccdp-2 bit rate 0x1.5555555555555p-2"
         " detection 0x0p+0 episodes 40 guesses 40"},
     0x72a9d1e8cb494099ull},
    // four batch-engine streams, mask_actions + mask_useless_actions
    {{
         "epoch 1 return -0x1.1b45dae4863c3p-3 length"
         " 0x1.73f5dc83cd4e9p+2 pi -0x1.942a72f5b07c4p-7 v"
         " 0x1.36ab8316e5142p-1 entropy 0x1.593367346b626p+0",
         "eval return 0x1.851eb851eb855p-3 length 0x1p+1 accuracy"
         " 0x1.3333333333333p-1 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 2 return -0x1.b0cf87d9c54a7p-4 length 0x1.38p+2 pi"
         " -0x1.ec12ec73bbed1p-8 v 0x1.66dcc17bd1c9p-1 entropy"
         " 0x1.5fadfa2ae0198p+0",
         "eval return 0x1.eb851eb851ebdp-3 length 0x1p+1 accuracy"
         " 0x1.4p-1 bit rate 0x1p-1 detection 0x0p+0 episodes 40"
         " guesses 40",
         "epoch 3 return 0x1.3216b3dfee37bp-6 length"
         " 0x1.23398ce63398dp+2 pi -0x1.87046302be914p-7 v"
         " 0x1.742699a69c33fp-1 entropy 0x1.57c63046ae05p+0",
         "eval return 0x1.1eb851eb851f2p-3 length 0x1p+1 accuracy"
         " 0x1.2666666666666p-1 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 4 return -0x1.5c04cd5d6e62ep-7 length"
         " 0x1.07f1e0387f1ep+2 pi -0x1.fe162fcc5d42cp-7 v"
         " 0x1.8a8e4cfe9d133p-1 entropy 0x1.56b0dceb9456dp+0",
         "eval return 0x1.1eb851eb851eep-3 length 0x1p+1 accuracy"
         " 0x1.2666666666666p-1 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 5 return -0x1.30a81f970e85ap-4 length"
         " 0x1.ee6e6e6e6e6e7p+1 pi -0x1.6bf9305ca427dp-7 v"
         " 0x1.8e47c7b39c6d4p-1 entropy 0x1.5201ab7b20ac7p+0",
         "eval return -0x1.3d70a3d70a3d4p-2 length 0x1p+1 accuracy"
         " 0x1.6666666666666p-2 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 6 return -0x1.2cda36bbac659p-6 length"
         " 0x1.b5256d495b525p+1 pi -0x1.2da3393f9d65dp-7 v"
         " 0x1.9ced12bac0c01p-1 entropy 0x1.4c5578aa5964ap+0",
         "eval return 0x1.eb851eb851ebdp-3 length 0x1p+1 accuracy"
         " 0x1.4p-1 bit rate 0x1p-1 detection 0x0p+0 episodes 40"
         " guesses 40",
         "epoch 7 return 0x1.90a5a16f12bfcp-5 length"
         " 0x1.9b47582192e2ap+1 pi -0x1.24f54593bb479p-7 v"
         " 0x1.a7567e236e86cp-1 entropy 0x1.383a4d0cdb0c9p+0",
         "eval return -0x1.eb851eb851ebap-5 length 0x1p+1 accuracy"
         " 0x1.e666666666666p-2 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 8 return -0x1.93a8598f69befp-4 length"
         " 0x1.8a9c84a47a07fp+1 pi -0x1.c11dd1e7f1705p-8 v"
         " 0x1.af5811ab50b8ep-1 entropy 0x1.2de2aecafd5c6p+0",
         "eval return 0x1.1eb851eb851fp-3 length 0x1p+1 accuracy"
         " 0x1.2666666666666p-1 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40"},
     0x81812e9e453f6646ull},
};

const MemoGolden kTwoWayPortableGolden[2] = {
    // one stream
    {{
         "epoch 1 return -0x1.5f7be60d304e5p-1 length"
         " 0x1.916c90c101572p+1 pi -0x1.783d869b1f611p-6 v"
         " 0x1.11091383075abp-1 entropy 0x1.c95c191c3fa81p+0",
         "eval return -0x1.199999999999dp+0 length 0x1.4p+3 accuracy"
         " 0x0p+0 bit rate 0x0p+0 detection 0x0p+0 episodes 40"
         " guesses 0",
         "epoch 2 return -0x1.49ebf67ac4f0cp-1 length"
         " 0x1.9e717863a1e71p+1 pi -0x1.6d15a496fdd56p-6 v"
         " 0x1.12f5c145216ecp-1 entropy 0x1.c29d9da08ba21p+0",
         "eval return -0x1.199999999999dp+0 length 0x1.4p+3 accuracy"
         " 0x0p+0 bit rate 0x0p+0 detection 0x0p+0 episodes 40"
         " guesses 0",
         "epoch 3 return -0x1.a371909d7f702p-2 length"
         " 0x1.eea876ea876ebp+1 pi -0x1.aca63c674c764p-6 v"
         " 0x1.484a6580b6718p-1 entropy 0x1.b714b9dcdd833p+0",
         "eval return 0x1.9a9fbe76c8b46p-2 length"
         " 0x1.799999999999ap+2 accuracy 0x1.7333333333333p-1 bit"
         " rate 0x1.5b1e5f75270dp-3 detection 0x0p+0 episodes 40"
         " guesses 40",
         "epoch 4 return -0x1.c432ca57a7872p-2 length"
         " 0x1.b6202ecfb9c87p+1 pi -0x1.f4dbf5986bfb7p-6 v"
         " 0x1.62c6f2d6d3c6ep-1 entropy 0x1.aa8d6393586fbp+0",
         "eval return -0x1.1eb851eb851eap-4 length 0x1.8p+1 accuracy"
         " 0x1.e666666666666p-2 bit rate 0x1.5555555555555p-2"
         " detection 0x0p+0 episodes 40 guesses 40",
         "epoch 5 return -0x1.cbe5fb3bf5703p-2 length"
         " 0x1.e236bdfcc7a5dp+1 pi -0x1.a4914f677231fp-6 v"
         " 0x1.62f03dd06879fp-1 entropy 0x1.9f6d656373bbep+0",
         "eval return -0x1.47ae147ae144dp-6 length 0x1.8p+1 accuracy"
         " 0x1p-1 bit rate 0x1.5555555555555p-2 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 6 return -0x1.e1594607d5aa5p-4 length"
         " 0x1.0149e112e63a7p+2 pi -0x1.5f24a7b5f87b4p-6 v"
         " 0x1.7d8715492821bp-1 entropy 0x1.94ec818cac142p+0",
         "eval return 0x1.47ae147ae147ap-4 length 0x1.8p+1 accuracy"
         " 0x1.199999999999ap-1 bit rate 0x1.5555555555555p-2"
         " detection 0x0p+0 episodes 40 guesses 40",
         "epoch 7 return -0x1.1eb851eb851ecp-3 length"
         " 0x1.df33333333333p+1 pi -0x1.6a4be9842e8dcp-6 v"
         " 0x1.a41dbec781ecp-1 entropy 0x1.7c3d65a6c2b4cp+0",
         "eval return -0x1.5c28f5c28f5bap-3 length 0x1.8p+1 accuracy"
         " 0x1.b333333333333p-2 bit rate 0x1.5555555555555p-2"
         " detection 0x0p+0 episodes 40 guesses 40",
         "epoch 8 return -0x1.dbcf2f45b75bap-9 length"
         " 0x1.06231188c4623p+2 pi -0x1.368faa98a25a3p-6 v"
         " 0x1.8afc813a0ee2bp-1 entropy 0x1.7d89dea70f3c8p+0",
         "eval return -0x1.eb851eb851eb8p-4 length 0x1.8p+1 accuracy"
         " 0x1.ccccccccccccdp-2 bit rate 0x1.5555555555555p-2"
         " detection 0x0p+0 episodes 40 guesses 40"},
     0xf930e4d44ff76f7cull},
    // four batch-engine streams, mask_actions + mask_useless_actions
    {{
         "epoch 1 return -0x1.1b45dae4863c3p-3 length"
         " 0x1.73f5dc83cd4e9p+2 pi -0x1.942a734172de5p-7 v"
         " 0x1.36ab8312008fp-1 entropy 0x1.593367346417ep+0",
         "eval return 0x1.851eb851eb855p-3 length 0x1p+1 accuracy"
         " 0x1.3333333333333p-1 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 2 return -0x1.b0cf87d9c54a7p-4 length 0x1.38p+2 pi"
         " -0x1.ec12ea59ad448p-8 v 0x1.66dcc16ab09fdp-1 entropy"
         " 0x1.5fadfa2d25d85p+0",
         "eval return 0x1.eb851eb851ebdp-3 length 0x1p+1 accuracy"
         " 0x1.4p-1 bit rate 0x1p-1 detection 0x0p+0 episodes 40"
         " guesses 40",
         "epoch 3 return 0x1.3216b3dfee37bp-6 length"
         " 0x1.23398ce63398dp+2 pi -0x1.87045fc52a447p-7 v"
         " 0x1.742699b66deeap-1 entropy 0x1.57c6305d041f1p+0",
         "eval return 0x1.1eb851eb851f2p-3 length 0x1p+1 accuracy"
         " 0x1.2666666666666p-1 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 4 return -0x1.5c04cd5d6e62ep-7 length"
         " 0x1.07f1e0387f1ep+2 pi -0x1.fe16356269af3p-7 v"
         " 0x1.8a8e4d219a3b8p-1 entropy 0x1.56b0dd338057cp+0",
         "eval return 0x1.1eb851eb851eep-3 length 0x1p+1 accuracy"
         " 0x1.2666666666666p-1 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 5 return -0x1.30a81f970e85ap-4 length"
         " 0x1.ee6e6e6e6e6e7p+1 pi -0x1.6bf9377efaf34p-7 v"
         " 0x1.8e47c79989666p-1 entropy 0x1.5201abbd9fb07p+0",
         "eval return -0x1.3d70a3d70a3d4p-2 length 0x1p+1 accuracy"
         " 0x1.6666666666666p-2 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 6 return -0x1.2cda36bbac659p-6 length"
         " 0x1.b5256d495b525p+1 pi -0x1.2da33c0a0faf9p-7 v"
         " 0x1.9ced12bbdb4f5p-1 entropy 0x1.4c5579277308ap+0",
         "eval return 0x1.eb851eb851ebdp-3 length 0x1p+1 accuracy"
         " 0x1.4p-1 bit rate 0x1p-1 detection 0x0p+0 episodes 40"
         " guesses 40",
         "epoch 7 return 0x1.90a5a16f12bfcp-5 length"
         " 0x1.9b47582192e2ap+1 pi -0x1.24f54634de2cp-7 v"
         " 0x1.a7567df838b5cp-1 entropy 0x1.383a4d5a0b66ap+0",
         "eval return -0x1.eb851eb851ebap-5 length 0x1p+1 accuracy"
         " 0x1.e666666666666p-2 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40",
         "epoch 8 return -0x1.93a8598f69befp-4 length"
         " 0x1.8a9c84a47a07fp+1 pi -0x1.c11dd1dd8ab8bp-8 v"
         " 0x1.af5811c1d8c5dp-1 entropy 0x1.2de2af2b5b9ddp+0",
         "eval return 0x1.1eb851eb851fp-3 length 0x1p+1 accuracy"
         " 0x1.2666666666666p-1 bit rate 0x1p-1 detection 0x0p+0"
         " episodes 40 guesses 40"},
     0x1d2af6c57566df17ull},
};

/** The goldens above at budgets 1 and 4, and on the AVX2 tier. */
TEST(InferenceMemo, TwoWayEpochsAndEvaluationsMatchGoldenBits)
{
    const bool portable =
        detail::hostMatTier() == detail::MatTier::Portable;
    for (const bool four_masked : {false, true}) {
        const MemoGolden &golden = (portable ? kTwoWayPortableGolden
                                             : kTwoWaySimdGolden)[four_masked];
        const std::string name =
            four_masked ? "four masked streams" : "one stream";
        const auto check = [&](const MemoGolden &run, const char *where) {
            EXPECT_EQ(run.epochs, golden.epochs) << name << ", " << where;
            EXPECT_EQ(run.checkpoint, golden.checkpoint)
                << name << ", " << where
                << ": weights, Adam moments or RNG differ";
        };
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            const MatThreadScope budget(threads);
            check(trainTwoWay(four_masked),
                  threads == 1 ? "budget 1" : "budget 4");
        }
        const detail::MatTierScope cap(detail::MatTier::Avx2);
        check(trainTwoWay(four_masked), "AVX2 tier");
    }
}

/** A row of @p width floats drawn from @p rng, about one in ten
 *  nonzero, like an observation. */
std::vector<float>
sparseRow(Rng &rng, std::size_t width)
{
    std::vector<float> row(width, 0.0f);
    for (float &v : row)
        v = rng.uniformInt(10) == 0 ? 1.0f : 0.0f;
    return row;
}

/** Logits and value that tell rows apart: entry k of row @p i. */
std::vector<float>
outputsOf(std::size_t i, std::size_t num_actions)
{
    std::vector<float> out(num_actions + 1);
    for (std::size_t k = 0; k < out.size(); ++k)
        out[k] = static_cast<float>(i) + 0.125f * static_cast<float>(k);
    return out;
}

/** Stores outputsOf(@p i) for @p row. */
void
insertRow(InferenceMemo &memo, const std::vector<float> &row, std::size_t i)
{
    const std::vector<float> out = outputsOf(i, memo.numActions());
    memo.insert(row.data(), InferenceMemo::hashRow(row.data(), row.size()),
                out.data(), out.back());
}

/** True when @p memo holds outputsOf(@p i) for @p row. */
::testing::AssertionResult
holds(const InferenceMemo &memo, const std::vector<float> &row,
      std::size_t i)
{
    const float *got = memo.find(
        row.data(), InferenceMemo::hashRow(row.data(), row.size()));
    if (!got)
        return ::testing::AssertionFailure() << "row " << i << " missed";
    const std::vector<float> want = outputsOf(i, memo.numActions());
    if (std::memcmp(got, want.data(), want.size() * sizeof(float)) != 0)
        return ::testing::AssertionFailure()
               << "row " << i << " returned other outputs";
    return ::testing::AssertionSuccess();
}

bool
misses(const InferenceMemo &memo, const std::vector<float> &row)
{
    return memo.find(row.data(),
                     InferenceMemo::hashRow(row.data(), row.size())) ==
           nullptr;
}

constexpr InferenceMemo::Keys kBothKeys[] = {InferenceMemo::Keys::Copied,
                                             InferenceMemo::Keys::Borrowed};

TEST(InferenceMemo, LookupInAnEmptyMemoMisses)
{
    for (const InferenceMemo::Keys keys : kBothKeys) {
        const InferenceMemo memo(259, 9, keys);
        Rng rng(1);
        EXPECT_TRUE(misses(memo, sparseRow(rng, 259)));
        EXPECT_EQ(memo.size(), 0u);
    }
}

TEST(InferenceMemo, LookupReturnsTheInsertedOutputs)
{
    for (const InferenceMemo::Keys keys : kBothKeys) {
        InferenceMemo memo(251, 8, keys);
        Rng rng(2);
        const std::vector<float> a = sparseRow(rng, 251);
        std::vector<float> b = a;
        b[250] = 0.5f;
        insertRow(memo, a, 1);
        EXPECT_TRUE(holds(memo, a, 1));
        EXPECT_TRUE(misses(memo, b));
        // The same row again leaves the first outputs in place.
        insertRow(memo, a, 2);
        EXPECT_TRUE(holds(memo, a, 1));
        EXPECT_EQ(memo.size(), 1u);
    }
}

/** The float whose bits are @p bits. */
float
fromBits(std::uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

TEST(InferenceMemo, RowsThatDifferInAnyBitAreDifferentKeys)
{
    for (const InferenceMemo::Keys keys : kBothKeys) {
        InferenceMemo memo(7, 3, keys);
        const std::vector<float> base = {1.0f, 0.0f, 0.0f, 2.0f,
                                         0.0f, 0.0f, 1.0f};
        std::vector<std::vector<float>> rows = {base};
        // Each bit of each float flipped on its own.
        for (std::size_t i = 0; i < base.size(); ++i) {
            for (int bit = 0; bit < 32; ++bit) {
                std::vector<float> r = base;
                std::uint32_t u;
                std::memcpy(&u, &r[i], sizeof u);
                r[i] = fromBits(u ^ (std::uint32_t{1} << bit));
                rows.push_back(r);
            }
        }
        for (std::size_t i = 0; i < rows.size(); ++i) {
            EXPECT_TRUE(misses(memo, rows[i])) << "row " << i;
            insertRow(memo, rows[i], i);
        }
        ASSERT_EQ(memo.size(), rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i)
            EXPECT_TRUE(holds(memo, rows[i], i));
    }
    // +0.0 and -0.0 compare equal as floats, and a NaN equals nothing;
    // as keys, each is the row its bytes say.
    const std::pair<float, float> pairs[] = {
        {0.0f, -0.0f}, {fromBits(0x7fc00000u), fromBits(0x7fc00001u)}};
    for (const InferenceMemo::Keys keys : kBothKeys) {
        for (const auto &[x, y] : pairs) {
            InferenceMemo memo(3, 2, keys);
            const std::vector<float> rx = {1.0f, x, 0.0f};
            const std::vector<float> ry = {1.0f, y, 0.0f};
            insertRow(memo, rx, 0);
            EXPECT_TRUE(holds(memo, rx, 0));
            EXPECT_TRUE(misses(memo, ry));
            insertRow(memo, ry, 1);
            EXPECT_TRUE(holds(memo, rx, 0));
            EXPECT_TRUE(holds(memo, ry, 1));
        }
    }
}

TEST(InferenceMemo, RowsThatShareASlotAreBothFound)
{
    // The first table has 64 slots, indexed by the hash's low bits:
    // search for two rows whose hashes agree there.
    Rng rng(3);
    const std::vector<float> a = sparseRow(rng, 303);
    const std::uint64_t slot = InferenceMemo::hashRow(a.data(), 303) & 63;
    std::vector<float> b;
    for (int tries = 0; tries < 10000; ++tries) {
        std::vector<float> r = sparseRow(rng, 303);
        if (r != a && (InferenceMemo::hashRow(r.data(), 303) & 63) == slot) {
            b = r;
            break;
        }
    }
    ASSERT_FALSE(b.empty()) << "no second row in the first row's slot";
    for (const InferenceMemo::Keys keys : kBothKeys) {
        for (const bool a_first : {true, false}) {
            InferenceMemo memo(303, 12, keys);
            insertRow(memo, a_first ? a : b, a_first ? 0 : 1);
            insertRow(memo, a_first ? b : a, a_first ? 1 : 0);
            EXPECT_TRUE(holds(memo, a, 0));
            EXPECT_TRUE(holds(memo, b, 1));
        }
    }
}

TEST(InferenceMemo, TenThousandRowsAreFoundAfterTheTableGrows)
{
    Rng rng(4);
    std::vector<std::vector<float>> rows;
    while (rows.size() < 10000) {
        std::vector<float> r = sparseRow(rng, 64);
        r[0] = static_cast<float>(rows.size());  // distinct
        rows.push_back(std::move(r));
    }
    for (const InferenceMemo::Keys keys : kBothKeys) {
        InferenceMemo memo(64, 5, keys);
        for (std::size_t i = 0; i < rows.size(); ++i)
            insertRow(memo, rows[i], i);
        EXPECT_EQ(memo.size(), rows.size());
        std::size_t found = 0;
        for (std::size_t i = 0; i < rows.size(); ++i)
            found += holds(memo, rows[i], i) ? 1 : 0;
        EXPECT_EQ(found, rows.size());
    }
}

TEST(InferenceMemo, ResetForgetsEveryRow)
{
    Rng rng(5);
    std::vector<std::vector<float>> rows;
    for (int i = 0; i < 100; ++i)
        rows.push_back(sparseRow(rng, 40));
    for (const InferenceMemo::Keys keys : kBothKeys) {
        InferenceMemo memo(40, 4, keys);
        for (std::size_t i = 0; i < rows.size(); ++i)
            insertRow(memo, rows[i], i);
        memo.reset();
        EXPECT_EQ(memo.size(), 0u);
        for (const std::vector<float> &r : rows)
            EXPECT_TRUE(misses(memo, r));
        // It fills again with other outputs.
        insertRow(memo, rows[7], 70);
        EXPECT_TRUE(holds(memo, rows[7], 70));
    }
}

TEST(InferenceMemo, FullMemoStopsInsertingAndKeepsFinding)
{
    Rng rng(6);
    std::vector<std::vector<float>> rows;
    for (int i = 0; i < 12; ++i) {
        std::vector<float> r = sparseRow(rng, 30);
        r[0] = static_cast<float>(i);
        rows.push_back(r);
    }
    InferenceMemo memo(30, 6, InferenceMemo::Keys::Copied, 8);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(memo.full(), i >= 8);
        insertRow(memo, rows[i], i);
    }
    EXPECT_EQ(memo.size(), 8u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i < 8)
            EXPECT_TRUE(holds(memo, rows[i], i));
        else
            EXPECT_TRUE(misses(memo, rows[i])) << "row " << i;
    }
}

/**
 * A trainer on the two-way game, one stream, or four batch-engine
 * streams with both action masks.
 */
struct TwoWayTrainer
{
    explicit TwoWayTrainer(bool four_masked, std::uint64_t ppo_seed = 21)
        : cfg(parseExplorationConfig(
              std::string(kTwoWay) +
              (four_masked ? "mask_actions = true\n"
                             "mask_useless_actions = true\n"
                           : ""))),
          envs(makeVecEnv(cfg.scenario, cfg.env, four_masked ? 4 : 1,
                          four_masked ? VecEnvKind::Batch
                                      : VecEnvKind::Sync)),
          trainer(*envs, withSeed(cfg.ppo, ppo_seed))
    {
    }

    static PpoConfig
    withSeed(PpoConfig ppo, std::uint64_t seed)
    {
        ppo.seed = seed;
        return ppo;
    }

    /** @p episodes greedy episodes: through evaluate(), or through the
     *  one-policy runEpisodes() with a greedy lambda that runs the
     *  network's own forwardOne() on every step. */
    std::string
    evaluate(int episodes, bool oracle)
    {
        if (!oracle)
            return hexEval(trainer.evaluate(episodes));
        ActorCritic &net = trainer.policy();
        const EpisodePolicy greedy = [&net](Environment &env,
                                            const std::vector<float> &obs,
                                            const StepInfo *) {
            const AcOutput &out = net.forwardOne(obs);
            const std::uint8_t *m = env.actionMask();
            return m ? net.argmaxMasked(out.logits, 0, m)
                     : net.argmax(out.logits, 0);
        };
        const EvalStats stats = runEpisodes(*envs, episodes, greedy);
        trainer.restartCollection();
        return hexEval(stats);
    }

    ExplorationConfig cfg;
    std::unique_ptr<VecEnv> envs;
    PpoTrainer trainer;
};

/**
 * Evaluations on either side of a weight change — the Adam steps of an
 * epoch, or a checkpoint of another run loaded in — equal an oracle
 * that runs the forward on every step, so no memo outlives the weights
 * it was filled under.
 */
TEST(InferenceMemo, EvaluationsAcrossAWeightChangeMatchTheOracle)
{
    std::string donor_state;
    {
        TwoWayTrainer donor(false, 5);
        for (int e = 0; e < 3; ++e)
            donor.trainer.runEpoch();
        std::ostringstream os(std::ios::binary);
        writePpoCheckpoint(os, donor.trainer);
        donor_state = os.str();
    }
    for (const bool four_masked : {false, true}) {
        for (const bool load : {false, true}) {
            std::vector<std::string> runs[2];
            for (const bool oracle : {false, true}) {
                TwoWayTrainer t(four_masked);
                std::vector<std::string> &run = runs[oracle];
                t.trainer.runEpoch();
                run.push_back(t.evaluate(40, oracle));
                if (load) {
                    std::istringstream is(donor_state, std::ios::binary);
                    readPpoCheckpoint(is, t.trainer);
                } else {
                    run.push_back(hexEpoch(t.trainer.runEpoch()));
                }
                run.push_back(t.evaluate(40, oracle));
                run.push_back(hexEpoch(t.trainer.runEpoch()));
                run.push_back(t.evaluate(40, oracle));
            }
            EXPECT_EQ(runs[0], runs[1])
                << (four_masked ? "four masked streams" : "one stream")
                << (load ? ", checkpoint loaded" : ", Adam steps");
        }
    }
}

} // namespace
} // namespace autocat
