/**
 * @file
 * VecEnv semantics and scenario-registry tests.
 *
 * The load-bearing guarantees: an N-stream VecEnv over seeds
 * {s..s+N-1} reproduces N sequential single-env runs bitwise;
 * ThreadedVecEnv is indistinguishable from SyncVecEnv; a stream
 * auto-resets and hands back the fresh observation on the step its
 * episode ends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "env/batch_env_pool.hpp"
#include "env/env_registry.hpp"
#include "env/guessing_game.hpp"
#include "rl/vec_env.hpp"

namespace autocat {
namespace {

/**
 * Deterministic scripted environment: observation is
 * [100 * episode + step]; episodes last exactly 3 steps.
 */
class CountingEnv : public Environment
{
  public:
    std::size_t observationSize() const override { return 1; }
    std::size_t numActions() const override { return 2; }

    std::vector<float>
    reset() override
    {
        ++episode_;
        step_ = 0;
        return obs();
    }

    StepResult
    step(std::size_t action) override
    {
        ++step_;
        StepResult r;
        r.reward = static_cast<double>(action);
        r.done = step_ >= 3;
        r.obs = obs();
        return r;
    }

  private:
    std::vector<float>
    obs() const
    {
        return {static_cast<float>(100 * episode_ + step_)};
    }

    int episode_ = 0;
    int step_ = 0;
};

/**
 * CountingEnv with an action mask that admits action 1 on odd steps,
 * or on even steps when @p phase is 1.
 */
class MaskedCountingEnv : public CountingEnv
{
  public:
    explicit MaskedCountingEnv(int phase = 0) : phase_(phase) {}

    std::vector<float>
    reset() override
    {
        setStep(0);
        return CountingEnv::reset();
    }

    StepResult
    step(std::size_t action) override
    {
        setStep(t_ + 1);
        return CountingEnv::step(action);
    }

    const std::uint8_t *actionMask() const override { return mask_; }

  private:
    void
    setStep(int t)
    {
        t_ = t;
        mask_[1] = static_cast<std::uint8_t>((t_ + phase_) % 2);
    }

    int phase_;
    int t_ = 0;
    std::uint8_t mask_[2] = {1, 0};
};

EnvConfig
tinyEnvConfig(std::uint64_t seed = 21)
{
    EnvConfig cfg;
    cfg.cache.numSets = 1;
    cfg.cache.numWays = 2;
    cfg.cache.addressSpaceSize = 6;
    cfg.attackAddrS = 0;
    cfg.attackAddrE = 2;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 0;
    cfg.victimNoAccessEnable = true;
    cfg.windowSize = 8;
    cfg.seed = seed;
    return cfg;
}

/** Trajectory record for bitwise comparison. */
struct Trace
{
    std::vector<float> obs;
    std::vector<double> rewards;
    std::vector<std::uint8_t> dones;
};

bool
operator==(const Trace &a, const Trace &b)
{
    return a.obs == b.obs && a.rewards == b.rewards && a.dones == b.dones;
}

/** Deterministic per-stream action schedule. */
std::size_t
scheduledAction(std::size_t stream, int t, std::size_t num_actions)
{
    return (stream * 7 + static_cast<std::size_t>(t) * 3) % num_actions;
}

/** Roll @p steps steps of one single env, with auto-reset, seed s. */
Trace
runSequential(std::uint64_t seed, std::size_t stream, int steps)
{
    auto env = makeEnv("guessing_game", tinyEnvConfig(seed));
    Trace trace;
    std::vector<float> obs = env->reset();
    for (int t = 0; t < steps; ++t) {
        StepResult sr =
            env->step(scheduledAction(stream, t, env->numActions()));
        trace.rewards.push_back(sr.reward);
        trace.dones.push_back(sr.done ? 1 : 0);
        const std::vector<float> next = sr.done ? env->reset() : sr.obs;
        trace.obs.insert(trace.obs.end(), next.begin(), next.end());
    }
    return trace;
}

/** Roll @p steps batched steps of one VecEnv, splitting per stream. */
std::vector<Trace>
runVectorized(VecEnv &vec, int steps)
{
    const std::size_t n = vec.numEnvs();
    const std::size_t dim = vec.observationSize();
    std::vector<Trace> traces(n);
    vec.resetAll();
    std::vector<std::size_t> actions(n);
    for (int t = 0; t < steps; ++t) {
        for (std::size_t s = 0; s < n; ++s)
            actions[s] = scheduledAction(s, t, vec.numActions());
        const VecStepResult vr = vec.stepAll(actions);
        for (std::size_t s = 0; s < n; ++s) {
            traces[s].rewards.push_back(vr.rewards[s]);
            traces[s].dones.push_back(vr.dones[s]);
            traces[s].obs.insert(traces[s].obs.end(), vr.obs.rowPtr(s),
                                 vr.obs.rowPtr(s) + dim);
        }
    }
    return traces;
}

TEST(VecEnv, SyncMatchesSequentialRunsBitwise)
{
    constexpr std::uint64_t kBaseSeed = 21;
    constexpr std::size_t kStreams = 4;
    constexpr int kSteps = 200;

    auto vec =
        makeVecEnv("guessing_game", tinyEnvConfig(kBaseSeed), kStreams);
    const std::vector<Trace> vec_traces = runVectorized(*vec, kSteps);

    for (std::size_t s = 0; s < kStreams; ++s) {
        const Trace seq = runSequential(kBaseSeed + s, s, kSteps);
        EXPECT_TRUE(vec_traces[s] == seq)
            << "stream " << s << " diverged from the sequential run";
    }
}

TEST(VecEnv, ThreadedMatchesSyncBitwise)
{
    constexpr std::uint64_t kBaseSeed = 33;
    constexpr std::size_t kStreams = 4;
    constexpr int kSteps = 150;

    auto sync = makeVecEnv("guessing_game", tinyEnvConfig(kBaseSeed),
                           kStreams, VecEnvKind::Sync);
    auto threaded = makeVecEnv("guessing_game", tinyEnvConfig(kBaseSeed),
                               kStreams, VecEnvKind::Threaded);

    const std::vector<Trace> a = runVectorized(*sync, kSteps);
    const std::vector<Trace> b = runVectorized(*threaded, kSteps);
    for (std::size_t s = 0; s < kStreams; ++s)
        EXPECT_TRUE(a[s] == b[s]) << "stream " << s;
}

TEST(VecEnv, AutoResetReturnsFreshObservation)
{
    std::vector<std::unique_ptr<Environment>> envs;
    envs.push_back(std::make_unique<CountingEnv>());
    envs.push_back(std::make_unique<CountingEnv>());
    SyncVecEnv vec(std::move(envs));

    const Matrix first = vec.resetAll();
    EXPECT_FLOAT_EQ(first(0, 0), 100.0f);  // episode 1, step 0

    // Episodes last 3 steps: the 3rd stepAll ends episode 1 and must
    // hand back episode 2's first observation in the same batch.
    VecStepResult vr = vec.stepAll({1, 0});
    EXPECT_EQ(vr.dones[0], 0);
    EXPECT_FLOAT_EQ(vr.obs(0, 0), 101.0f);
    vr = vec.stepAll({1, 0});
    vr = vec.stepAll({1, 0});
    EXPECT_EQ(vr.dones[0], 1);
    EXPECT_EQ(vr.dones[1], 1);
    EXPECT_FLOAT_EQ(vr.obs(0, 0), 200.0f);  // episode 2, step 0
    EXPECT_FLOAT_EQ(vr.obs(1, 0), 200.0f);
    EXPECT_DOUBLE_EQ(vr.rewards[0], 1.0);
    EXPECT_DOUBLE_EQ(vr.rewards[1], 0.0);

    // The stream keeps running in the new episode without reset().
    vr = vec.stepAll({0, 0});
    EXPECT_EQ(vr.dones[0], 0);
    EXPECT_FLOAT_EQ(vr.obs(0, 0), 201.0f);
}

TEST(VecEnv, ThreadedPropagatesEnvExceptions)
{
    struct ThrowingEnv : CountingEnv
    {
        StepResult
        step(std::size_t action) override
        {
            if (++calls >= 5)
                throw std::runtime_error("env blew up");
            return CountingEnv::step(action);
        }
        int calls = 0;
    };

    std::vector<std::unique_ptr<Environment>> envs;
    envs.push_back(std::make_unique<ThrowingEnv>());
    envs.push_back(std::make_unique<CountingEnv>());
    ThreadedVecEnv vec(std::move(envs));
    vec.resetAll();
    for (int t = 0; t < 4; ++t)
        vec.stepAll({0, 0});
    // The 5th step throws inside a worker; the exception must reach
    // the caller (same semantics as SyncVecEnv), not std::terminate.
    EXPECT_THROW(vec.stepAll({0, 0}), std::runtime_error);
}

TEST(VecEnv, RejectsMismatchedStreams)
{
    EnvConfig small = tinyEnvConfig();
    EnvConfig large = tinyEnvConfig();
    large.attackAddrE = 4;
    large.cache.addressSpaceSize = 8;

    std::vector<std::unique_ptr<Environment>> envs;
    envs.push_back(makeEnv("guessing_game", small));
    envs.push_back(makeEnv("guessing_game", large));
    EXPECT_THROW(SyncVecEnv{std::move(envs)}, std::invalid_argument);
}

/**
 * A stream that masks next to one that does not must be rejected at
 * construction, whichever comes first: the trainer decides masking from
 * stream 0 and then reads every stream's mask.
 */
template <typename Adapter>
void
expectMixedMaskingRejected()
{
    for (const bool masked_first : {true, false}) {
        std::unique_ptr<Environment> masked =
            std::make_unique<MaskedCountingEnv>();
        std::unique_ptr<Environment> plain =
            std::make_unique<CountingEnv>();
        std::vector<std::unique_ptr<Environment>> envs;
        envs.push_back(masked_first ? std::move(masked) : std::move(plain));
        envs.push_back(masked_first ? std::move(plain) : std::move(masked));
        EXPECT_THROW(Adapter{std::move(envs)}, std::invalid_argument)
            << "masked stream first: " << masked_first;
    }
}

TEST(VecEnv, SyncRejectsStreamsThatDisagreeOnMasking)
{
    expectMixedMaskingRejected<SyncVecEnv>();
}

TEST(VecEnv, ThreadedRejectsStreamsThatDisagreeOnMasking)
{
    expectMixedMaskingRejected<ThreadedVecEnv>();
}

/**
 * makeStepAllSurface() over an adapter without a surface of its own:
 * its observation rows match stepAll() on an identical twin, and its
 * mask rows are each stream's current mask, after the reset and after
 * every step (including auto-resets).
 */
TEST(VecEnv, StepAllSurfaceTracksObservationsAndMasks)
{
    constexpr std::size_t kStreams = 3;
    const auto make = [] {
        std::vector<std::unique_ptr<Environment>> envs;
        for (std::size_t i = 0; i < kStreams; ++i)
            envs.push_back(
                std::make_unique<MaskedCountingEnv>(static_cast<int>(i % 2)));
        return std::make_unique<SyncVecEnv>(std::move(envs));
    };
    auto twin = make();
    auto vec = make();
    ASSERT_EQ(vec->batchSurface(), nullptr);
    auto surface = makeStepAllSurface(*vec);

    const auto expect_rows = [&](const Matrix &want, int t) {
        const Matrix &obs = surface->obsMatrix();
        ASSERT_EQ(obs.rows(), kStreams);
        const std::uint8_t *masks = surface->maskMatrix();
        ASSERT_NE(masks, nullptr);
        for (std::size_t s = 0; s < kStreams; ++s) {
            EXPECT_EQ(obs(s, 0), want(s, 0)) << "t=" << t << " s=" << s;
            EXPECT_EQ(0, std::memcmp(masks + s * 2,
                                     twin->env(s).actionMask(), 2))
                << "t=" << t << " s=" << s;
        }
    };

    const Matrix first = twin->resetAll();
    surface->resetAllInPlace();
    expect_rows(first, -1);

    std::vector<double> rewards(kStreams);
    std::vector<std::uint8_t> dones(kStreams);
    std::vector<StepInfo> infos(kStreams);
    for (int t = 0; t < 7; ++t) {
        const std::vector<std::size_t> actions{1, 0, 1};
        const VecStepResult want = twin->stepAll(actions);
        surface->stepBatchInPlace(actions.data(), rewards.data(),
                                  dones.data(), infos.data());
        EXPECT_EQ(rewards, want.rewards) << "t=" << t;
        EXPECT_EQ(dones, want.dones) << "t=" << t;
        expect_rows(want.obs, t);
    }
}

TEST(VecEnv, StepAllSurfaceHasNoMaskMatrixForUnmaskedStreams)
{
    std::vector<std::unique_ptr<Environment>> envs;
    envs.push_back(std::make_unique<CountingEnv>());
    envs.push_back(std::make_unique<CountingEnv>());
    SyncVecEnv vec(std::move(envs));
    auto surface = makeStepAllSurface(vec);
    surface->resetAllInPlace();
    EXPECT_EQ(surface->maskMatrix(), nullptr);
    EXPECT_EQ(surface->obsMatrix().rows(), 2u);
}

TEST(Registry, BuiltinGuessingGameIsRegistered)
{
    EXPECT_TRUE(hasScenario("guessing_game"));
    const auto names = scenarioNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "guessing_game"),
              names.end());

    auto env = makeEnv("guessing_game", tinyEnvConfig());
    EXPECT_NE(dynamic_cast<CacheGuessingGame *>(env.get()), nullptr);
}

TEST(Registry, UnknownScenarioThrows)
{
    EXPECT_THROW(makeEnv("no_such_scenario", tinyEnvConfig()),
                 std::out_of_range);
}

TEST(Registry, HierarchyScenariosAreRegistered)
{
    for (const char *name :
         {"l1l2_private", "l1l2_shared", "l2_exclusive", "three_level"}) {
        EXPECT_TRUE(hasScenario(name)) << name;
    }
}

TEST(Registry, HierarchyScenariosBuildHierarchyBackedGames)
{
    const struct
    {
        const char *name;
        unsigned depth;
        InclusionPolicy outer;
        bool sharedL1;
    } expected[] = {
        {"l1l2_private", 2, InclusionPolicy::Inclusive, false},
        {"l1l2_shared", 2, InclusionPolicy::Inclusive, true},
        {"l2_exclusive", 2, InclusionPolicy::Exclusive, false},
        {"three_level", 3, InclusionPolicy::Inclusive, false},
    };

    for (const auto &e : expected) {
        auto env = makeEnv(e.name, tinyEnvConfig());
        auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
        ASSERT_NE(game, nullptr) << e.name;
        auto *hier = dynamic_cast<CacheHierarchy *>(&game->memory());
        ASSERT_NE(hier, nullptr) << e.name;
        EXPECT_EQ(hier->depth(), e.depth) << e.name;
        EXPECT_EQ(hier->config().levels.back().inclusion, e.outer)
            << e.name;
        EXPECT_EQ(hier->config().levels.front().shared, e.sharedL1)
            << e.name;
        // The outermost (attacked) level is the EnvConfig cache, so
        // window sizing keys off the same block count.
        EXPECT_EQ(hier->numBlocks(), tinyEnvConfig().cache.numBlocks())
            << e.name;
    }
}

TEST(Registry, HierarchyScenarioRespectsExplicitLevels)
{
    EnvConfig cfg = tinyEnvConfig();
    CacheConfig lvl;
    lvl.numSets = 2;
    lvl.numWays = 2;
    lvl.addressSpaceSize = 16;
    cfg.hierarchy = HierarchyConfig::twoLevel(lvl, lvl,
                                              InclusionPolicy::Nine);
    auto env = makeEnv("l1l2_private", cfg);
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    ASSERT_NE(game, nullptr);
    auto *hier = dynamic_cast<CacheHierarchy *>(&game->memory());
    ASSERT_NE(hier, nullptr);
    EXPECT_EQ(hier->config().levels.back().inclusion,
              InclusionPolicy::Nine);
    EXPECT_EQ(hier->config().levels.back().cache.numSets, 2u);
}

TEST(Registry, HierarchyScenariosWorkThroughMakeVecEnv)
{
    auto vec = makeVecEnv("l1l2_private", tinyEnvConfig(), 2);
    const Matrix obs = vec->resetAll();
    EXPECT_EQ(obs.rows(), 2u);
    const VecStepResult r = vec->stepAll({0, 0});
    EXPECT_EQ(r.obs.rows(), 2u);
}

/**
 * stepRange edge cases on every adapter: an empty range is a no-op
 * (no env stepped, no output slot touched), a single-stream range
 * advances exactly that stream, a mid-batch range plus the two
 * remainders equals one stepAll(), and the full range reproduces
 * stepAll() bitwise.
 */
template <typename Adapter>
void
runStepRangeEdgeCases()
{
    constexpr std::size_t kStreams = 4;
    const auto make = [] {
        std::vector<std::unique_ptr<Environment>> envs;
        for (std::size_t i = 0; i < kStreams; ++i)
            envs.push_back(std::make_unique<CountingEnv>());
        return std::make_unique<Adapter>(std::move(envs));
    };
    const auto sentinel_out = [](VecEnv &vec) {
        VecStepResult out;
        out.obs.resize(kStreams, vec.observationSize());
        for (std::size_t i = 0; i < out.obs.size(); ++i)
            out.obs.data()[i] = -5.0f;
        out.rewards.assign(kStreams, -123.0);
        out.dones.assign(kStreams, 77);
        out.infos.assign(kStreams, StepInfo{});
        return out;
    };
    const std::vector<std::size_t> actions{1, 0, 1, 0};

    // Empty ranges — start, middle, end — must not step any stream or
    // touch any output slot.
    {
        auto vec = make();
        vec->resetAll();
        VecStepResult out = sentinel_out(*vec);
        for (const std::size_t at : {std::size_t{0}, std::size_t{2},
                                     kStreams}) {
            vec->stepRange(at, at, actions, out);
        }
        for (std::size_t s = 0; s < kStreams; ++s) {
            EXPECT_DOUBLE_EQ(out.rewards[s], -123.0) << s;
            EXPECT_EQ(out.dones[s], 77) << s;
            EXPECT_FLOAT_EQ(out.obs(s, 0), -5.0f) << s;
        }
        // No stream advanced: the next stepAll is the episodes' first
        // step (CountingEnv observations are 100*episode + step).
        const VecStepResult step = vec->stepAll(actions);
        for (std::size_t s = 0; s < kStreams; ++s)
            EXPECT_FLOAT_EQ(step.obs(s, 0), 101.0f) << s;
    }

    // Single-stream range: exactly that stream advances.
    {
        auto vec = make();
        vec->resetAll();
        VecStepResult out = sentinel_out(*vec);
        vec->stepRange(2, 3, actions, out);
        EXPECT_DOUBLE_EQ(out.rewards[2], 1.0);
        EXPECT_EQ(out.dones[2], 0);
        EXPECT_FLOAT_EQ(out.obs(2, 0), 101.0f);
        for (const std::size_t s : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}}) {
            EXPECT_DOUBLE_EQ(out.rewards[s], -123.0) << s;
            EXPECT_EQ(out.dones[s], 77) << s;
        }
        // Stream 2 is now one step ahead of the others.
        const VecStepResult step = vec->stepAll(actions);
        EXPECT_FLOAT_EQ(step.obs(2, 0), 102.0f);
        EXPECT_FLOAT_EQ(step.obs(0, 0), 101.0f);
    }

    // Mid-batch range [1, 3), then the remainders: each call fills
    // only its own slots, and together they equal one stepAll().
    {
        auto range_vec = make();
        auto full_vec = make();
        range_vec->resetAll();
        full_vec->resetAll();
        const VecStepResult want = full_vec->stepAll(actions);
        VecStepResult out = sentinel_out(*range_vec);
        range_vec->stepRange(1, 3, actions, out);
        for (const std::size_t s : {std::size_t{0}, std::size_t{3}}) {
            EXPECT_DOUBLE_EQ(out.rewards[s], -123.0) << s;
            EXPECT_EQ(out.dones[s], 77) << s;
        }
        range_vec->stepRange(0, 1, actions, out);
        range_vec->stepRange(3, kStreams, actions, out);
        for (std::size_t s = 0; s < kStreams; ++s) {
            EXPECT_DOUBLE_EQ(out.rewards[s], want.rewards[s]) << s;
            EXPECT_EQ(out.dones[s], want.dones[s]) << s;
            EXPECT_FLOAT_EQ(out.obs(s, 0), want.obs(s, 0)) << s;
        }
    }

    // Full range == stepAll, bitwise, including across an auto-reset
    // boundary (episodes last 3 steps).
    {
        auto range_vec = make();
        auto full_vec = make();
        range_vec->resetAll();
        full_vec->resetAll();
        for (int t = 0; t < 4; ++t) {
            VecStepResult out = sentinel_out(*range_vec);
            range_vec->stepRange(0, kStreams, actions, out);
            const VecStepResult want = full_vec->stepAll(actions);
            for (std::size_t s = 0; s < kStreams; ++s) {
                EXPECT_DOUBLE_EQ(out.rewards[s], want.rewards[s])
                    << "t=" << t << " s=" << s;
                EXPECT_EQ(out.dones[s], want.dones[s]);
                EXPECT_FLOAT_EQ(out.obs(s, 0), want.obs(s, 0));
            }
        }
    }
}

TEST(VecEnvStepRange, EdgeCasesOnSyncAdapter)
{
    runStepRangeEdgeCases<SyncVecEnv>();
}

TEST(VecEnvStepRange, EdgeCasesOnThreadedAdapter)
{
    runStepRangeEdgeCases<ThreadedVecEnv>();
}

TEST(VecEnvStepRange, EdgeCasesOnBatchAdapter)
{
    // CountingEnv is not a CacheGuessingGame, so this also pins the
    // pool's generic (non-devirtualized) fallback path.
    runStepRangeEdgeCases<BatchVecEnv>();
}

TEST(VecEnv, BatchMatchesSequentialRunsBitwise)
{
    constexpr std::uint64_t kBaseSeed = 27;
    constexpr std::size_t kStreams = 4;
    constexpr int kSteps = 200;

    auto vec = makeVecEnv("guessing_game", tinyEnvConfig(kBaseSeed),
                          kStreams, VecEnvKind::Batch);
    EXPECT_NE(vec->batchSurface(), nullptr);
    const std::vector<Trace> vec_traces = runVectorized(*vec, kSteps);

    for (std::size_t s = 0; s < kStreams; ++s) {
        const Trace seq = runSequential(kBaseSeed + s, s, kSteps);
        EXPECT_TRUE(vec_traces[s] == seq)
            << "stream " << s << " diverged from the sequential run";
    }
}

TEST(Registry, CustomScenarioPlugsIn)
{
    struct SeedProbe : CountingEnv
    {
        explicit SeedProbe(std::uint64_t seed) : seed(seed) {}
        std::uint64_t seed;
    };

    const bool fresh = registerScenario(
        "test_counting",
        [](const ScenarioContext &ctx) {
            return std::make_unique<SeedProbe>(ctx.env.seed);
        });
    EXPECT_TRUE(fresh);
    EXPECT_TRUE(hasScenario("test_counting"));

    // makeVecEnv seeds stream i with config.seed + i.
    EnvConfig cfg = tinyEnvConfig(/*seed=*/40);
    auto vec = makeVecEnv("test_counting", cfg, 3);
    for (std::size_t i = 0; i < 3; ++i) {
        auto *probe = dynamic_cast<SeedProbe *>(&vec->env(i));
        ASSERT_NE(probe, nullptr);
        EXPECT_EQ(probe->seed, 40u + i);
    }
}

} // namespace
} // namespace autocat
