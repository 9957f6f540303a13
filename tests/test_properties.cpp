/**
 * @file
 * Cross-configuration property tests.
 *
 * Sweeps the guessing game, the oracle, and the covert channels over
 * a grid of cache geometries and policies, asserting structural
 * invariants rather than exact values:
 *
 *  - observations are well-formed one-hot/flag vectors of the
 *    advertised size, for every config and at every step;
 *  - episodes always terminate within the configured bounds and
 *    episode return never exceeds the maximum achievable reward;
 *  - the textbook prime+probe attack is a distinguishing sequence on
 *    every conflict-observable geometry;
 *  - a correctly primed set always reveals the victim's set via a
 *    probe miss, for every deterministic policy;
 *  - StealthyStreamline's calibration patterns are pairwise distinct
 *    (the channel is decodable) for every supported geometry.
 */

#include <gtest/gtest.h>

#include <set>

#include "attacks/textbook.hpp"
#include "env/guessing_game.hpp"
#include "env/sequence_oracle.hpp"
#include "hw/covert_channel.hpp"

namespace autocat {
namespace {

struct GameGrid
{
    unsigned sets;
    unsigned ways;
    ReplPolicy policy;
    bool flush;
    bool noAccess;
};

class GameProperties : public ::testing::TestWithParam<GameGrid>
{
  protected:
    EnvConfig
    makeConfig() const
    {
        const GameGrid g = GetParam();
        EnvConfig cfg;
        cfg.cache.numSets = g.sets;
        cfg.cache.numWays = g.ways;
        cfg.cache.policy = g.policy;
        cfg.cache.addressSpaceSize = 4 * g.sets * g.ways + 4;
        cfg.attackAddrS = 0;
        cfg.attackAddrE = g.sets * g.ways + 1;
        cfg.victimAddrS = 0;
        cfg.victimAddrE = g.sets - 1 + (g.sets == 1 ? 1 : 0);
        cfg.flushEnable = g.flush;
        cfg.victimNoAccessEnable = g.noAccess;
        cfg.windowSize = 12;
        cfg.seed = 11;
        return cfg;
    }
};

TEST_P(GameProperties, ObservationsAreWellFormed)
{
    const EnvConfig cfg = makeConfig();
    CacheGuessingGame env(cfg);
    Rng rng(5);

    for (int episode = 0; episode < 6; ++episode) {
        std::vector<float> obs = env.reset();
        ASSERT_EQ(obs.size(), env.observationSize());
        bool done = false;
        while (!done) {
            const StepResult sr =
                env.step(rng.uniformInt(env.numActions()));
            ASSERT_EQ(sr.obs.size(), env.observationSize());
            // Every feature is a probability-like value in [0, 1].
            for (float v : sr.obs) {
                ASSERT_GE(v, 0.0f);
                ASSERT_LE(v, 1.0f);
            }
            done = sr.done;
        }
    }
}

TEST_P(GameProperties, EpisodesTerminateWithinBounds)
{
    const EnvConfig cfg = makeConfig();
    CacheGuessingGame env(cfg);
    Rng rng(6);

    for (int episode = 0; episode < 10; ++episode) {
        env.reset();
        unsigned steps = 0;
        bool done = false;
        double ep_return = 0.0;
        while (!done) {
            const StepResult sr =
                env.step(rng.uniformInt(env.numActions()));
            ++steps;
            ep_return += sr.reward;
            done = sr.done;
            ASSERT_LE(steps, cfg.resolvedLengthLimit());
        }
        // Return can never beat a perfect immediate guess.
        EXPECT_LE(ep_return, cfg.correctGuessReward);
    }
}

TEST_P(GameProperties, TriggerAlwaysPrecedesCorrectGuess)
{
    const EnvConfig cfg = makeConfig();
    CacheGuessingGame env(cfg);
    Rng rng(7);
    for (int episode = 0; episode < 20; ++episode) {
        env.reset();
        bool triggered = false;
        bool done = false;
        while (!done) {
            const std::size_t a = rng.uniformInt(env.numActions());
            const Action decoded = env.actionSpace().decode(a);
            const StepResult sr = env.step(a);
            if (decoded.kind == ActionKind::TriggerVictim)
                triggered = true;
            if (sr.info.guessCorrect) {
                EXPECT_TRUE(triggered);
            }
            done = sr.done;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GameProperties,
    ::testing::Values(
        GameGrid{1, 2, ReplPolicy::Lru, false, true},
        GameGrid{1, 4, ReplPolicy::Lru, true, true},
        GameGrid{1, 4, ReplPolicy::TreePlru, false, true},
        GameGrid{1, 4, ReplPolicy::Rrip, false, true},
        GameGrid{1, 4, ReplPolicy::Random, false, true},
        GameGrid{4, 1, ReplPolicy::Lru, false, false},
        GameGrid{4, 2, ReplPolicy::Lru, true, false},
        GameGrid{8, 1, ReplPolicy::Lru, false, false},
        GameGrid{2, 4, ReplPolicy::TreePlru, false, false}));

// ----------------------------------------------------------- oracle --

class PrimeProbeAcrossGeometries
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(PrimeProbeAcrossGeometries, TextbookPrimeProbeDistinguishes)
{
    const auto [sets, ways] = GetParam();
    EnvConfig cfg;
    cfg.cache.numSets = sets;
    cfg.cache.numWays = ways;
    cfg.cache.policy = ReplPolicy::Lru;
    const unsigned blocks = sets * ways;
    cfg.cache.addressSpaceSize = 4 * blocks;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = sets - 1;
    cfg.attackAddrS = blocks;
    cfg.attackAddrE = 2 * blocks - 1;
    cfg.windowSize = 4 * blocks + 8;
    cfg.randomInit = false;
    if (sets < 2)
        GTEST_SKIP() << "needs at least two victim addresses";

    ScenarioOracle oracle("guessing_game", cfg);
    const AttackSequence seq = textbookPrimeProbe(cfg);
    EXPECT_TRUE(
        oracle.isDistinguishing(seq.toIndices(oracle.actionSpace())));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PrimeProbeAcrossGeometries,
    ::testing::Values(std::make_pair(2u, 1u), std::make_pair(4u, 1u),
                      std::make_pair(8u, 1u), std::make_pair(4u, 2u),
                      std::make_pair(2u, 4u)));

// ------------------------------------------------- deterministic PP --

class ProbeSignal : public ::testing::TestWithParam<ReplPolicy>
{
};

TEST_P(ProbeSignal, PrimedSetRevealsVictimSet)
{
    // For every deterministic policy: prime a DM cache, let the
    // victim touch set s, probe — exactly set s misses.
    EnvConfig cfg;
    cfg.cache.numSets = 4;
    cfg.cache.numWays = 1;
    cfg.cache.policy = GetParam();
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 4;
    cfg.attackAddrE = 7;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 3;
    cfg.windowSize = 24;
    cfg.randomInit = false;

    for (std::uint64_t secret = 0; secret < 4; ++secret) {
        CacheGuessingGame env(cfg);
        env.reset();
        env.forceSecret(secret);
        const auto &as = env.actionSpace();
        for (std::uint64_t a = 4; a <= 7; ++a)
            env.step(as.accessIndex(a));
        env.step(as.triggerIndex());
        std::set<std::uint64_t> missed;
        for (std::uint64_t a = 4; a <= 7; ++a) {
            if (env.step(as.accessIndex(a)).info.observedLatency ==
                LatMiss) {
                missed.insert(a - 4);
            }
        }
        EXPECT_EQ(missed, std::set<std::uint64_t>{secret});
    }
}

INSTANTIATE_TEST_SUITE_P(DeterministicPolicies, ProbeSignal,
                         ::testing::Values(ReplPolicy::Lru,
                                           ReplPolicy::TreePlru,
                                           ReplPolicy::Rrip));

// ---------------------------------------------------- covert channel --

class SsGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(SsGeometry, TransmissionIsLosslessWithoutNoise)
{
    const auto [ways, bits] = GetParam();
    CovertChannelConfig cfg;
    cfg.protocol = CovertProtocol::StealthyStreamline;
    cfg.ways = ways;
    cfg.bitsPerSymbol = bits;
    cfg.policy = ReplPolicy::Lru;
    cfg.seed = 3;
    CovertChannel channel(cfg);
    Rng rng(ways * 31 + bits);
    const BitString msg = randomBits(rng, 240);
    const CovertResult res = channel.transmit(msg);
    EXPECT_EQ(res.errorRate, 0.0)
        << ways << "-way, " << bits << " bits/symbol";
    EXPECT_EQ(res.victimMisses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SsGeometry,
    ::testing::Values(std::make_pair(4u, 2u), std::make_pair(8u, 2u),
                      std::make_pair(8u, 3u), std::make_pair(12u, 2u),
                      std::make_pair(12u, 3u), std::make_pair(16u, 2u)));

} // namespace
} // namespace autocat
