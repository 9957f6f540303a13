/**
 * @file
 * PPO trainer tests on closed-form environments: a contextual bandit
 * (immediate observation-conditioned reward) and a probe-then-guess
 * memory task that mirrors the structure of the guessing game. Also
 * covers the episode runner every evaluation plays through.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "env/batch_env_pool.hpp"
#include "rl/episodes.hpp"
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

} // namespace
} // namespace autocat
