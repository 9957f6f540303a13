/**
 * @file
 * Tests for the guessing-game environment: action-space layout,
 * observation encoding, reward semantics, episode modes (single and
 * multi secret, masked-latency reveal), PL-cache locking, detector
 * hooks, and the distinguishing-sequence oracle.
 */

#include <gtest/gtest.h>

#include <memory>

#include "detect/autocorr_detector.hpp"
#include "detect/miss_detector.hpp"
#include "env/guessing_game.hpp"
#include "env/sequence_oracle.hpp"

namespace autocat {
namespace {

/** 4-way FA LRU set, victim 0/E, attacker 0-4, deterministic init. */
EnvConfig
tableVConfig()
{
    EnvConfig cfg;
    cfg.cache.numSets = 1;
    cfg.cache.numWays = 4;
    cfg.cache.policy = ReplPolicy::Lru;
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 0;
    cfg.attackAddrE = 4;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 0;
    cfg.victimNoAccessEnable = true;
    cfg.windowSize = 16;
    cfg.randomInit = false;
    cfg.seed = 5;
    return cfg;
}

/** 4-set DM cache, disjoint ranges (prime+probe setting). */
EnvConfig
ppConfig()
{
    EnvConfig cfg;
    cfg.cache.numSets = 4;
    cfg.cache.numWays = 1;
    cfg.cache.policy = ReplPolicy::Lru;
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 4;
    cfg.attackAddrE = 7;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 3;
    cfg.windowSize = 24;
    cfg.randomInit = false;
    cfg.seed = 5;
    return cfg;
}

// ------------------------------------------------------ action space --

TEST(ActionSpaceLayout, SizesWithoutFlush)
{
    const EnvConfig cfg = tableVConfig();
    ActionSpace as(cfg);
    // 5 accesses + 1 trigger + 1 guess(addr 0) + 1 guess-E.
    EXPECT_EQ(as.size(), 8u);
    EXPECT_EQ(as.numPrimitives(), 6u);
}

TEST(ActionSpaceLayout, SizesWithFlush)
{
    EnvConfig cfg = tableVConfig();
    cfg.flushEnable = true;
    ActionSpace as(cfg);
    EXPECT_EQ(as.size(), 13u);
    EXPECT_EQ(as.numPrimitives(), 11u);
}

TEST(ActionSpaceLayout, EncodeDecodeBijection)
{
    for (bool flush : {false, true}) {
        for (bool noacc : {false, true}) {
            EnvConfig cfg = ppConfig();
            cfg.flushEnable = flush;
            cfg.victimNoAccessEnable = noacc;
            ActionSpace as(cfg);
            for (std::size_t i = 0; i < as.size(); ++i) {
                const Action a = as.decode(i);
                EXPECT_EQ(as.encode(a), i);
            }
        }
    }
}

TEST(ActionSpaceLayout, GuessDetection)
{
    const EnvConfig cfg = tableVConfig();
    ActionSpace as(cfg);
    for (std::size_t i = 0; i < as.size(); ++i) {
        const Action a = as.decode(i);
        EXPECT_EQ(as.isGuess(i), a.isGuess());
    }
}

TEST(ActionSpaceLayout, PaperNotationStrings)
{
    EnvConfig cfg = tableVConfig();
    cfg.flushEnable = true;
    ActionSpace as(cfg);
    EXPECT_EQ(as.toString(as.accessIndex(3)), "3");
    EXPECT_EQ(as.toString(as.flushIndex(2)), "f2");
    EXPECT_EQ(as.toString(as.triggerIndex()), "v");
    EXPECT_EQ(as.toString(as.guessIndex(0)), "g0");
    EXPECT_EQ(as.toString(as.guessNoAccessIndex()), "gE");
}

TEST(ActionSpaceLayout, RangeChecks)
{
    const EnvConfig cfg = ppConfig();
    ActionSpace as(cfg);
    EXPECT_THROW(as.accessIndex(3), std::out_of_range);   // below range
    EXPECT_THROW(as.accessIndex(8), std::out_of_range);   // above range
    EXPECT_THROW(as.flushIndex(4), std::logic_error);     // disabled
    EXPECT_THROW(as.guessNoAccessIndex(), std::logic_error);
}

// ------------------------------------------------------- observation --

TEST(Observation, SizeFormula)
{
    const EnvConfig cfg = tableVConfig();
    CacheGuessingGame env(cfg);
    const std::size_t slot = 3 + env.numActions() + 2;
    const std::size_t summary = 8 * 5;  // two 4-state blocks, 5 addrs
    EXPECT_EQ(env.observationSize(), 16 * slot + summary + 3);
    EXPECT_EQ(env.reset().size(), env.observationSize());
}

TEST(Observation, WindowDefaultsScaleWithBlocks)
{
    EnvConfig cfg = tableVConfig();
    cfg.windowSize = 0;
    EXPECT_EQ(cfg.resolvedWindowSize(), 6u * 4u);
    EXPECT_EQ(cfg.resolvedLengthLimit(), 24u);
}

TEST(Observation, LatencyAppearsInNewestSlot)
{
    const EnvConfig cfg = tableVConfig();
    CacheGuessingGame env(cfg);
    env.reset();
    const StepResult sr = env.step(env.actionSpace().accessIndex(1));
    // Cold cache: access misses.
    EXPECT_EQ(sr.info.observedLatency, LatMiss);
    const std::size_t slot = 3 + env.numActions() + 2;
    const float *newest = sr.obs.data() + (16 - 1) * slot;
    EXPECT_EQ(newest[LatMiss], 1.0f);
    EXPECT_EQ(newest[LatHit], 0.0f);
    // The action one-hot marks the access action.
    EXPECT_EQ(newest[3 + env.actionSpace().accessIndex(1)], 1.0f);
}

TEST(Observation, TriggeredFlagIsVisible)
{
    const EnvConfig cfg = tableVConfig();
    CacheGuessingGame env(cfg);
    std::vector<float> obs = env.reset();
    const std::size_t slot = 3 + env.numActions() + 2;
    const std::size_t trig_flag = 16 * slot + 8 * 5 + 1;
    EXPECT_EQ(obs[trig_flag], 0.0f);
    obs = env.step(env.actionSpace().triggerIndex()).obs;
    EXPECT_EQ(obs[trig_flag], 1.0f);
}

// ------------------------------------------------ episode semantics --

TEST(Episode, StepRewardAndGuessRewards)
{
    EnvConfig cfg = tableVConfig();
    CacheGuessingGame env(cfg);
    env.reset();
    env.forceSecret(std::uint64_t{0});

    StepResult sr = env.step(env.actionSpace().accessIndex(1));
    EXPECT_DOUBLE_EQ(sr.reward, cfg.stepReward);
    EXPECT_FALSE(sr.done);

    sr = env.step(env.actionSpace().triggerIndex());
    EXPECT_DOUBLE_EQ(sr.reward, cfg.stepReward);

    sr = env.step(env.actionSpace().guessIndex(0));
    EXPECT_DOUBLE_EQ(sr.reward, cfg.correctGuessReward);
    EXPECT_TRUE(sr.done);
    EXPECT_TRUE(sr.info.guessMade);
    EXPECT_TRUE(sr.info.guessCorrect);
}

TEST(Episode, WrongGuessReward)
{
    EnvConfig cfg = tableVConfig();
    CacheGuessingGame env(cfg);
    env.reset();
    env.forceSecret(std::nullopt);
    env.step(env.actionSpace().triggerIndex());
    const StepResult sr = env.step(env.actionSpace().guessIndex(0));
    EXPECT_DOUBLE_EQ(sr.reward, cfg.wrongGuessReward);
    EXPECT_FALSE(sr.info.guessCorrect);
    EXPECT_TRUE(sr.done);
}

TEST(Episode, GuessBeforeTriggerIsAlwaysWrong)
{
    EnvConfig cfg = tableVConfig();
    CacheGuessingGame env(cfg);
    env.reset();
    env.forceSecret(std::uint64_t{0});
    const StepResult sr = env.step(env.actionSpace().guessIndex(0));
    EXPECT_TRUE(sr.info.guessMade);
    EXPECT_FALSE(sr.info.guessCorrect) << "official-env semantics";
}

TEST(Episode, GuessBeforeTriggerAllowedWhenDisabled)
{
    EnvConfig cfg = tableVConfig();
    cfg.requireTriggerBeforeGuess = false;
    CacheGuessingGame env(cfg);
    env.reset();
    env.forceSecret(std::uint64_t{0});
    const StepResult sr = env.step(env.actionSpace().guessIndex(0));
    EXPECT_TRUE(sr.info.guessCorrect);
}

TEST(Episode, LengthViolation)
{
    EnvConfig cfg = tableVConfig();
    cfg.windowSize = 4;
    CacheGuessingGame env(cfg);
    env.reset();
    StepResult sr;
    for (int i = 0; i < 4; ++i)
        sr = env.step(env.actionSpace().accessIndex(0));
    EXPECT_TRUE(sr.done);
    EXPECT_TRUE(sr.info.lengthViolation);
    EXPECT_DOUBLE_EQ(sr.reward,
                     cfg.stepReward + cfg.lengthViolationReward);
}

TEST(Episode, StepAfterDoneThrows)
{
    EnvConfig cfg = tableVConfig();
    cfg.windowSize = 2;
    CacheGuessingGame env(cfg);
    env.reset();
    env.step(0);
    env.step(0);  // length violation ends the episode
    EXPECT_THROW(env.step(0), std::logic_error);
}

TEST(Episode, ForceSecretValidation)
{
    EnvConfig cfg = tableVConfig();
    CacheGuessingGame env(cfg);
    env.reset();
    EXPECT_THROW(env.forceSecret(std::uint64_t{3}), std::out_of_range);
    EXPECT_NO_THROW(env.forceSecret(std::nullopt));

    EnvConfig cfg2 = ppConfig();  // no-access disabled
    CacheGuessingGame env2(cfg2);
    env2.reset();
    EXPECT_THROW(env2.forceSecret(std::nullopt), std::logic_error);
}

TEST(Episode, SecretSpaceContents)
{
    CacheGuessingGame env(tableVConfig());
    const auto secrets = env.secretSpace();
    ASSERT_EQ(secrets.size(), 2u);
    EXPECT_EQ(secrets[0], std::optional<std::uint64_t>{0});
    EXPECT_FALSE(secrets[1].has_value());
}

TEST(Episode, SecretsAreSampledUniformly)
{
    CacheGuessingGame env(ppConfig());
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 2000; ++i) {
        env.reset();
        ++counts[*env.secret()];
    }
    for (int c : counts)
        EXPECT_NEAR(c, 500, 120);
}

TEST(Episode, PrimeProbeManualPlaythrough)
{
    // Execute the textbook prime+probe by hand and decode the secret.
    CacheGuessingGame env(ppConfig());
    env.reset();
    env.forceSecret(std::uint64_t{2});
    const auto &as = env.actionSpace();
    for (std::uint64_t a = 4; a <= 7; ++a)
        env.step(as.accessIndex(a));
    env.step(as.triggerIndex());
    long missed = -1;
    for (std::uint64_t a = 4; a <= 7; ++a) {
        const StepResult sr = env.step(as.accessIndex(a));
        if (sr.info.observedLatency == LatMiss)
            missed = static_cast<long>(a - 4);
    }
    EXPECT_EQ(missed, 2);
    const StepResult sr = env.step(as.guessIndex(2));
    EXPECT_TRUE(sr.info.guessCorrect);
}

// ------------------------------------------------------- multi secret --

TEST(MultiSecret, EpisodeRunsFixedLengthAndResamples)
{
    EnvConfig cfg = ppConfig();
    cfg.multiSecret = true;
    cfg.multiSecretEpisodeSteps = 30;
    cfg.windowSize = 16;
    CacheGuessingGame env(cfg);
    env.reset();
    const auto &as = env.actionSpace();

    int steps = 0;
    int guesses = 0;
    bool done = false;
    while (!done) {
        StepResult sr;
        if (steps % 3 == 0) {
            sr = env.step(as.triggerIndex());
        } else if (steps % 3 == 1) {
            sr = env.step(as.accessIndex(4));
        } else {
            sr = env.step(as.guessIndex(0));
            EXPECT_TRUE(sr.info.guessMade);
            ++guesses;
        }
        ++steps;
        done = sr.done;
    }
    EXPECT_EQ(steps, 30);
    EXPECT_EQ(guesses, 10);
}

TEST(MultiSecret, NoGuessPenaltyAtEpisodeEnd)
{
    EnvConfig cfg = ppConfig();
    cfg.multiSecret = true;
    cfg.multiSecretEpisodeSteps = 5;
    CacheGuessingGame env(cfg);
    env.reset();
    double total = 0.0;
    StepResult sr;
    for (int i = 0; i < 5; ++i) {
        sr = env.step(env.actionSpace().accessIndex(4));
        total += sr.reward;
    }
    EXPECT_TRUE(sr.done);
    EXPECT_NEAR(total, 5 * cfg.stepReward + cfg.noGuessReward, 1e-9);
}

// ------------------------------------------------------- reveal mode --

TEST(RevealMode, LatenciesMaskedUntilFirstGuess)
{
    EnvConfig cfg = tableVConfig();
    cfg.revealOnGuess = true;
    CacheGuessingGame env(cfg);
    env.reset();
    const auto &as = env.actionSpace();

    StepResult sr = env.step(as.accessIndex(1));
    EXPECT_EQ(sr.info.observedLatency, LatNa) << "masked in blind phase";

    sr = env.step(as.triggerIndex());
    sr = env.step(as.accessIndex(1));
    EXPECT_EQ(sr.info.observedLatency, LatNa);

    // First guess reveals instead of scoring.
    sr = env.step(as.guessIndex(0));
    EXPECT_FALSE(sr.info.guessMade);
    EXPECT_FALSE(sr.done);

    // The revealed history now contains real latencies: the newest
    // access slot (access of 1, which hit) is visible.
    const std::size_t slot = 3 + env.numActions() + 2;
    bool any_hit_visible = false;
    for (unsigned i = 0; i < 16; ++i)
        any_hit_visible |= sr.obs[i * slot + LatHit] == 1.0f;
    EXPECT_TRUE(any_hit_visible);

    // Second guess scores and ends the episode.
    env.forceSecret(std::uint64_t{0});
    sr = env.step(as.guessIndex(0));
    EXPECT_TRUE(sr.info.guessMade);
    EXPECT_TRUE(sr.done);
}

// ---------------------------------------------------------- PL cache --

TEST(PlCache, VictimLinesLockedAtEpisodeStart)
{
    EnvConfig cfg = tableVConfig();
    cfg.plCacheLockVictim = true;
    cfg.attackAddrS = 1;
    cfg.attackAddrE = 5;
    CacheGuessingGame env(cfg);
    env.reset();
    auto &mem = dynamic_cast<SingleLevelMemory &>(env.memory());
    EXPECT_TRUE(mem.cache().contains(0));
    EXPECT_TRUE(mem.cache().isLocked(0));

    // Attack accesses can never evict the locked victim line.
    const auto &as = env.actionSpace();
    for (std::uint64_t a = 1; a <= 5; ++a)
        env.step(as.accessIndex(a));
    EXPECT_TRUE(mem.cache().contains(0));
}

// --------------------------------------------------------- detectors --

TEST(Detectors, MissBasedTerminatesEpisode)
{
    EnvConfig cfg = ppConfig();
    cfg.detectionEnable = true;
    cfg.randomInit = false;
    CacheGuessingGame env(cfg);
    env.attachDetector(std::make_shared<MissBasedDetector>(),
                       DetectorMode::Terminate);
    env.reset();
    env.forceSecret(std::uint64_t{1});
    // Victim's first access misses on the cold cache -> detection.
    const StepResult sr = env.step(env.actionSpace().triggerIndex());
    EXPECT_TRUE(sr.done);
    EXPECT_TRUE(sr.info.detected);
    EXPECT_NEAR(sr.reward, cfg.stepReward + cfg.detectionReward, 1e-9);
}

TEST(Detectors, AttachResetsPerEpisodeState)
{
    // Campaign phases attach detectors mid-session — possibly after
    // reset(), when nothing delivers onEpisodeReset() until the next
    // episode. attachDetector must clear per-episode state itself, so
    // a detector carrying stale state never flags the current episode.
    EnvConfig cfg = ppConfig();
    cfg.detectionEnable = true;
    CacheGuessingGame env(cfg);
    env.reset();

    auto detector = std::make_shared<MissBasedDetector>();
    // Pre-flag the detector with a victim demand miss observed
    // elsewhere (e.g. a previous environment).
    CacheEvent miss;
    miss.op = CacheOp::DemandAccess;
    miss.domain = Domain::Victim;
    miss.hit = false;
    detector->onEvent(miss);
    ASSERT_TRUE(detector->flagged());

    env.attachDetector(detector, DetectorMode::Terminate);
    EXPECT_FALSE(detector->flagged());
    EXPECT_EQ(detector->victimMisses(), 0u);

    // The stale flag must not end the episode on the next step.
    const StepResult sr = env.step(env.actionSpace().accessIndex(4));
    EXPECT_FALSE(sr.info.detected);
}

TEST(Detectors, MissBasedSilentWhenVictimHits)
{
    EnvConfig cfg = ppConfig();
    cfg.detectionEnable = true;
    auto detector = std::make_shared<MissBasedDetector>();
    CacheGuessingGame env(cfg);
    env.attachDetector(detector, DetectorMode::Terminate);
    env.reset();
    env.forceSecret(std::uint64_t{1});
    // Pre-load the victim's line so its access hits; the pre-load
    // itself is warm-up traffic the detector must not count.
    env.memory().access(1, Domain::Victim);
    detector->onEpisodeReset();
    const StepResult sr = env.step(env.actionSpace().triggerIndex());
    EXPECT_FALSE(sr.done);
    EXPECT_FALSE(sr.info.detected);
    EXPECT_EQ(detector->victimMisses(), 0u);
}

TEST(Detectors, AutocorrPenaltyAppliedAtEpisodeEnd)
{
    EnvConfig cfg = ppConfig();
    cfg.multiSecret = true;
    cfg.multiSecretEpisodeSteps = 40;
    auto detector =
        std::make_shared<AutocorrDetector>(10, 0.75, -2.0, 4);
    CacheGuessingGame env(cfg);
    env.attachDetector(detector, DetectorMode::Penalize);
    env.reset();
    const auto &as = env.actionSpace();

    // Periodic prime/trigger pattern produces conflict misses.
    double total = 0.0;
    StepResult sr;
    for (int i = 0; i < 40; ++i) {
        const int phase = i % 5;
        if (phase == 4)
            sr = env.step(as.triggerIndex());
        else
            sr = env.step(as.accessIndex(4 + phase));
        total += sr.reward;
    }
    EXPECT_TRUE(sr.done);
    // The L2 penalty must have made the return substantially more
    // negative than the pure step cost.
    EXPECT_LT(total, 40 * cfg.stepReward + cfg.noGuessReward - 0.05);
    EXPECT_GT(detector->eventTrain().size(), 4u);
}

// ------------------------------------------------------------ oracle --

TEST(Oracle, TextbookPrimeProbeIsDistinguishing)
{
    ScenarioOracle oracle("guessing_game", ppConfig());
    const auto &as = oracle.actionSpace();
    std::vector<std::size_t> seq;
    for (std::uint64_t a = 4; a <= 7; ++a)
        seq.push_back(as.accessIndex(a));
    seq.push_back(as.triggerIndex());
    for (std::uint64_t a = 4; a <= 7; ++a)
        seq.push_back(as.accessIndex(a));
    EXPECT_TRUE(oracle.isDistinguishing(seq));
}

TEST(Oracle, SequenceWithoutTriggerNeverDistinguishes)
{
    ScenarioOracle oracle("guessing_game", ppConfig());
    const auto &as = oracle.actionSpace();
    std::vector<std::size_t> seq{as.accessIndex(4), as.accessIndex(5),
                                 as.accessIndex(4)};
    EXPECT_FALSE(oracle.isDistinguishing(seq));
}

TEST(Oracle, PrimeWithoutProbeDoesNotDistinguish)
{
    ScenarioOracle oracle("guessing_game", ppConfig());
    const auto &as = oracle.actionSpace();
    std::vector<std::size_t> seq;
    for (std::uint64_t a = 4; a <= 7; ++a)
        seq.push_back(as.accessIndex(a));
    seq.push_back(as.triggerIndex());
    EXPECT_FALSE(oracle.isDistinguishing(seq));
}

TEST(Oracle, StepsPerTrialCountsSecrets)
{
    ScenarioOracle oracle("guessing_game", ppConfig());
    const std::vector<std::size_t> seq{0, 1, 2};
    EXPECT_EQ(oracle.stepsPerTrial(seq), 3 * 4);
}

TEST(Oracle, RandomSearchFindsPrimeProbe)
{
    EnvConfig cfg = ppConfig();
    cfg.cache.numSets = 2;  // tiny space so the search is fast
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 2;
    cfg.attackAddrE = 3;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 1;
    ScenarioOracle oracle("guessing_game", cfg);
    Rng rng(3);
    const SearchResult r = randomSearch(oracle, 6, 200000, rng);
    ASSERT_TRUE(r.found);
    EXPECT_TRUE(oracle.isDistinguishing(r.sequence));
}

} // namespace
} // namespace autocat
