/**
 * @file
 * Integration tests of the full AutoCAT pipeline: PPO on the guessing
 * game, convergence, sequence extraction, and classification. Uses a
 * deliberately tiny configuration so the whole test stays fast.
 */

#include <gtest/gtest.h>

#include "core/autocat.hpp"

namespace autocat {
namespace {

/** Tiny 2-way FA LRU set, victim 0/E, attacker 0-2, cold start. */
ExplorationConfig
tinyConfig()
{
    ExplorationConfig cfg;
    cfg.env.cache.numSets = 1;
    cfg.env.cache.numWays = 2;
    cfg.env.cache.policy = ReplPolicy::Lru;
    cfg.env.cache.addressSpaceSize = 6;
    cfg.env.attackAddrS = 0;
    cfg.env.attackAddrE = 2;
    cfg.env.victimAddrS = 0;
    cfg.env.victimAddrE = 0;
    cfg.env.victimNoAccessEnable = true;
    cfg.env.windowSize = 10;
    cfg.env.randomInit = false;
    cfg.env.seed = 13;
    cfg.ppo.seed = 17;
    cfg.ppo.stepsPerEpoch = 1500;
    cfg.maxEpochs = 40;
    cfg.evalEpisodes = 60;
    return cfg;
}

TEST(Explore, TinyConfigConvergesAndClassifies)
{
    const ExplorationResult result = explore(tinyConfig());
    ASSERT_TRUE(result.converged)
        << "accuracy " << result.finalAccuracy;
    EXPECT_GE(result.finalAccuracy, 0.97);
    EXPECT_GT(result.envSteps, 0);
    EXPECT_FALSE(result.sequence.empty());
    EXPECT_FALSE(result.finalGuess.empty());
    // The extracted trajectory must include the victim trigger.
    EXPECT_GE(result.sequence.countKind(ActionKind::TriggerVictim), 1u);
    // Cold cache: trigger + probe + guess suffices; the step penalty
    // pushes toward short sequences.
    EXPECT_LE(result.sequence.size(), 8u);
    EXPECT_LE(result.finalEpisodeLength, 9.0);
}

TEST(Explore, ConvergesWithFourThreadedStreams)
{
    ExplorationConfig cfg = tinyConfig();
    cfg.numStreams = 4;
    cfg.threadedEnvs = true;
    const ExplorationResult result = explore(cfg);
    ASSERT_TRUE(result.converged)
        << "accuracy " << result.finalAccuracy;
    EXPECT_GE(result.finalAccuracy, 0.97);
    EXPECT_FALSE(result.sequence.empty());
}

TEST(Explore, UnknownScenarioIsRejected)
{
    ExplorationConfig cfg = tinyConfig();
    cfg.scenario = "definitely_not_registered";
    EXPECT_THROW(explore(cfg), std::out_of_range);
}

TEST(Explore, HierarchyScenariosRunUnderExplore)
{
    // Every hierarchy scenario must train end to end through the
    // standard pipeline (one epoch suffices — this is a smoke test of
    // construction + stepping + evaluation, not convergence).
    for (const char *scenario :
         {"l1l2_private", "l1l2_shared", "l2_exclusive", "three_level"}) {
        ExplorationConfig cfg = tinyConfig();
        cfg.scenario = scenario;
        cfg.ppo.stepsPerEpoch = 400;
        cfg.maxEpochs = 1;
        cfg.evalEpisodes = 10;
        const ExplorationResult result = explore(cfg);
        EXPECT_GT(result.envSteps, 0) << scenario;
        EXPECT_GE(result.finalAccuracy, 0.0) << scenario;
    }
}

TEST(Explore, VersionStringMentionsLibrary)
{
    EXPECT_NE(std::string(versionString()).find("autocat"),
              std::string::npos);
}

/**
 * Bits of a tiny run with a 2-epoch budget. They were captured when
 * explore() still took an externally-built memory system and a
 * detector decorator; the registered scenarios that replaced those
 * hooks reproduce them exactly.
 */
struct RunGolden
{
    int epochsToConverge;
    long long stepsToDiscovery, envSteps;
    double acc, len, detectionRate;
    const char *seq;
    const char *guess;
};

void
expectRunGolden(const ExplorationResult &r, const RunGolden &g)
{
    EXPECT_EQ(r.epochsToConverge, g.epochsToConverge);
    EXPECT_EQ(r.stepsToDiscovery, g.stepsToDiscovery);
    EXPECT_EQ(r.envSteps, g.envSteps);
    EXPECT_EQ(r.finalAccuracy, g.acc);
    EXPECT_EQ(r.finalEpisodeLength, g.len);
    EXPECT_EQ(r.detectionRate, g.detectionRate);
    EXPECT_EQ(r.sequence.toString(), g.seq);
    EXPECT_EQ(r.finalGuess, g.guess);
}

/** A 2-way LRU target with both noise processes well above zero. */
HardwareTargetPreset
noisyTargetPreset()
{
    HardwareTargetPreset preset;
    preset.ways = 2;
    preset.policy = ReplPolicy::Lru;
    preset.attackAddrE = 2;
    preset.obsNoise = 0.05;
    preset.interference = 0.05;
    return preset;
}

TEST(Explore, HardwareTargetMemoryPlugsIn)
{
    registerScenario("test_noisy_target", [](const ScenarioContext &ctx) {
        return std::make_unique<CacheGuessingGame>(
            ctx.env,
            std::make_unique<SimulatedHardwareTarget>(noisyTargetPreset(),
                                                      3));
    });
    ExplorationConfig cfg = tinyConfig();
    cfg.scenario = "test_noisy_target";
    cfg.maxEpochs = 2;
    cfg.ppo.minibatchSize = 100;
    cfg.targetAccuracy = 0.45;
    expectRunGolden(explore(cfg),
                    {1, 1500, 1500, 0x1.4444444444444p-2,
                     0x1.4111111111111p+2, 0.0, "v -> 2 -> 2 -> 0",
                     "gE"});
}

TEST(Explore, MissDetectorRunMatchesGolden)
{
    ExplorationConfig cfg = tinyConfig();
    cfg.scenario = "miss_detect_terminate";
    cfg.maxEpochs = 2;
    cfg.ppo.minibatchSize = 100;
    expectRunGolden(explore(cfg),
                    {-1, -1, 3000, 1.0, 0x1.8888888888889p+0,
                     0x1.ddddddddddddep-2, "v", ""});
}

TEST(BenchMode, DefaultsWithoutEnvVars)
{
    // The test runner does not set AUTOCAT_FAST / AUTOCAT_FULL.
    EXPECT_EQ(benchMode(), BenchMode::Default);
    EXPECT_EQ(byMode(1, 2, 3), 2);
    EXPECT_STREQ(benchModeName(BenchMode::Fast), "fast");
}

} // namespace
} // namespace autocat
