/**
 * @file
 * PPO trainer tests on closed-form environments: a contextual bandit
 * (immediate observation-conditioned reward) and a probe-then-guess
 * memory task that mirrors the structure of the guessing game.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "env/batch_env_pool.hpp"
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

} // namespace
} // namespace autocat
