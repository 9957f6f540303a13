/**
 * @file
 * Tests for the attack library: sequence rendering, textbook
 * generators (validated through the distinguishing oracle and the
 * replayer), the category classifier, and the scripted agents.
 */

#include <gtest/gtest.h>

#include "attacks/agents.hpp"
#include "attacks/classifier.hpp"
#include "attacks/replay.hpp"
#include "attacks/sequence.hpp"
#include "attacks/textbook.hpp"
#include "env/sequence_oracle.hpp"

namespace autocat {
namespace {

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

EnvConfig
frConfig()
{
    EnvConfig cfg;
    cfg.cache.numSets = 4;
    cfg.cache.numWays = 1;
    cfg.cache.policy = ReplPolicy::Lru;
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 0;
    cfg.attackAddrE = 3;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 3;
    cfg.flushEnable = true;
    cfg.windowSize = 24;
    cfg.randomInit = false;
    cfg.seed = 5;
    return cfg;
}

EnvConfig
erConfig()
{
    EnvConfig cfg;
    cfg.cache.numSets = 4;
    cfg.cache.numWays = 1;
    cfg.cache.policy = ReplPolicy::Lru;
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 0;
    cfg.attackAddrE = 7;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 3;
    cfg.windowSize = 24;
    cfg.randomInit = false;
    cfg.seed = 5;
    return cfg;
}

// ---------------------------------------------------------- sequence --

TEST(Sequence, ToStringUsesPaperNotation)
{
    AttackSequence seq({AttackStep::access(3), AttackStep::flush(1),
                        AttackStep::trigger(), AttackStep::access(0)});
    EXPECT_EQ(seq.toString(), "3 -> f1 -> v -> 0");
    EXPECT_EQ(attackString(seq, "g0"), "3 -> f1 -> v -> 0 -> g0");
}

TEST(Sequence, AttackStringOmitsWhatIsMissing)
{
    const AttackSequence seq({AttackStep::trigger()});
    // No guess (a terminating detector ended the episode): no arrow.
    EXPECT_EQ(attackString(seq, ""), "v");
    // A guess with no primitive steps before it.
    EXPECT_EQ(attackString(AttackSequence(), "gE"), "-> gE");
    EXPECT_EQ(attackString(AttackSequence(), ""), "");
}

TEST(Sequence, CountKind)
{
    AttackSequence seq({AttackStep::access(3), AttackStep::flush(1),
                        AttackStep::trigger(), AttackStep::access(0)});
    EXPECT_EQ(seq.countKind(ActionKind::Access), 2u);
    EXPECT_EQ(seq.countKind(ActionKind::Flush), 1u);
    EXPECT_EQ(seq.countKind(ActionKind::TriggerVictim), 1u);
}

TEST(Sequence, IndicesRoundTrip)
{
    const EnvConfig cfg = frConfig();
    ActionSpace as(cfg);
    AttackSequence seq({AttackStep::flush(0), AttackStep::trigger(),
                        AttackStep::access(0)});
    const auto idx = seq.toIndices(as);
    const AttackSequence back = AttackSequence::fromIndices(as, idx);
    EXPECT_EQ(back.toString(), seq.toString());
}

TEST(Sequence, FromIndicesRejectsGuesses)
{
    const EnvConfig cfg = frConfig();
    ActionSpace as(cfg);
    EXPECT_THROW(
        AttackSequence::fromIndices(as, {as.guessIndex(0)}),
        std::invalid_argument);
}

// ---------------------------------------------- textbook generators --

TEST(Textbook, PrimeProbeDistinguishes)
{
    const EnvConfig cfg = ppConfig();
    ScenarioOracle oracle("guessing_game", cfg);
    const AttackSequence seq = textbookPrimeProbe(cfg);
    EXPECT_TRUE(
        oracle.isDistinguishing(seq.toIndices(oracle.actionSpace())));
}

TEST(Textbook, FlushReloadDistinguishes)
{
    const EnvConfig cfg = frConfig();
    ScenarioOracle oracle("guessing_game", cfg);
    const AttackSequence seq = textbookFlushReload(cfg);
    EXPECT_TRUE(
        oracle.isDistinguishing(seq.toIndices(oracle.actionSpace())));
}

TEST(Textbook, EvictReloadDistinguishes)
{
    const EnvConfig cfg = erConfig();
    ScenarioOracle oracle("guessing_game", cfg);
    const AttackSequence seq = textbookEvictReload(cfg);
    EXPECT_TRUE(
        oracle.isDistinguishing(seq.toIndices(oracle.actionSpace())));
}

TEST(Textbook, LruSetBasedDistinguishesVictimActivity)
{
    // 0/E victim on a fully-associative LRU set.
    EnvConfig cfg;
    cfg.cache.numSets = 1;
    cfg.cache.numWays = 4;
    cfg.cache.policy = ReplPolicy::Lru;
    cfg.cache.addressSpaceSize = 16;
    cfg.attackAddrS = 1;
    cfg.attackAddrE = 6;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 0;
    cfg.victimNoAccessEnable = true;
    cfg.windowSize = 32;
    cfg.randomInit = false;
    ScenarioOracle oracle("guessing_game", cfg);
    const AttackSequence seq = textbookLruSetBased(cfg);
    EXPECT_TRUE(
        oracle.isDistinguishing(seq.toIndices(oracle.actionSpace())));
}

TEST(Textbook, PrimeProbeReplaysAtFullAccuracy)
{
    const EnvConfig cfg = ppConfig();
    CacheGuessingGame env(cfg);
    SequenceReplayer replayer(env);
    ASSERT_TRUE(replayer.calibrate(textbookPrimeProbe(cfg), 4));
    EXPECT_DOUBLE_EQ(replayer.evaluateAccuracy(100), 1.0);
}

TEST(Textbook, FlushReloadReplaysAtFullAccuracy)
{
    const EnvConfig cfg = frConfig();
    CacheGuessingGame env(cfg);
    SequenceReplayer replayer(env);
    ASSERT_TRUE(replayer.calibrate(textbookFlushReload(cfg), 4));
    EXPECT_DOUBLE_EQ(replayer.evaluateAccuracy(100), 1.0);
}

TEST(Textbook, ReplayerSurvivesRandomInit)
{
    EnvConfig cfg = ppConfig();
    cfg.randomInit = true;
    CacheGuessingGame env(cfg);
    SequenceReplayer replayer(env);
    // Prime+probe re-establishes the state, so random init must not
    // break it.
    ASSERT_TRUE(replayer.calibrate(textbookPrimeProbe(cfg), 16));
    EXPECT_GT(replayer.evaluateAccuracy(200), 0.95);
}

TEST(Textbook, ReplayerRejectsUselessSequence)
{
    const EnvConfig cfg = ppConfig();
    CacheGuessingGame env(cfg);
    SequenceReplayer replayer(env);
    AttackSequence useless({AttackStep::access(4), AttackStep::trigger()});
    EXPECT_FALSE(replayer.calibrate(useless, 4));
}

// -------------------------------------------------------- classifier --

TEST(Classifier, LabelsTextbookGenerators)
{
    EXPECT_EQ(classifyAttack(textbookPrimeProbe(ppConfig()), ppConfig()),
              AttackCategory::PrimeProbe);
    EXPECT_EQ(classifyAttack(textbookFlushReload(frConfig()), frConfig()),
              AttackCategory::FlushReload);
    EXPECT_EQ(classifyAttack(textbookEvictReload(erConfig()), erConfig()),
              AttackCategory::EvictReload);
}

TEST(Classifier, LruLabelForShortStateAttack)
{
    // The paper's Table IV configs 5/7: shorter-than-prime sequences
    // leaking through replacement state.
    EnvConfig cfg;
    cfg.cache.numSets = 1;
    cfg.cache.numWays = 4;
    cfg.attackAddrS = 4;
    cfg.attackAddrE = 7;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 0;
    cfg.victimNoAccessEnable = true;
    AttackSequence seq({AttackStep::access(4), AttackStep::access(5),
                        AttackStep::trigger(), AttackStep::access(6)});
    EXPECT_EQ(classifyAttack(seq, cfg), AttackCategory::LruState);
}

TEST(Classifier, NoTriggerIsUnknown)
{
    AttackSequence seq({AttackStep::access(4)});
    EXPECT_EQ(classifyAttack(seq, ppConfig()), AttackCategory::Unknown);
}

TEST(Classifier, CombinationLabel)
{
    // Filled cache + shared reload + disjoint probe after the trigger
    // (Table IV config 4 found an ER+PP combination).
    const EnvConfig cfg = erConfig();
    AttackSequence seq;
    for (std::uint64_t a = 4; a <= 7; ++a)
        seq.push(AttackStep::access(a));
    seq.push(AttackStep::trigger());
    seq.push(AttackStep::access(1));  // shared reload
    seq.push(AttackStep::access(6));  // disjoint probe
    EXPECT_EQ(classifyAttack(seq, cfg),
              AttackCategory::EvictReloadAndPrimeProbe);
}

TEST(Classifier, LabelsAreStable)
{
    EXPECT_STREQ(categoryLabel(AttackCategory::PrimeProbe), "PP");
    EXPECT_STREQ(categoryLabel(AttackCategory::FlushReload), "FR");
    EXPECT_STREQ(categoryLabel(AttackCategory::EvictReload), "ER");
    EXPECT_STREQ(categoryLabel(AttackCategory::LruState), "LRU");
}

// ------------------------------------------------------------ agents --

TEST(Agents, TextbookPrimeProbeAgentIsAccurate)
{
    EnvConfig cfg = ppConfig();
    cfg.multiSecret = true;
    cfg.multiSecretEpisodeSteps = 160;
    cfg.windowSize = 16;
    cfg.randomInit = true;
    CacheGuessingGame env(cfg);
    TextbookPrimeProbeAgent agent(env);
    SyncVecEnv vec(env);
    const EvalStats stats = runEpisodes(vec, 20, scriptedPolicy(agent));
    EXPECT_GT(stats.guessAccuracy, 0.97);
    EXPECT_GT(stats.guesses, 20u * 10u);
    // Prime(4) once, then rounds of trigger+probe(4)+guess: the bit
    // rate approaches 1/6 guesses per step.
    EXPECT_NEAR(stats.bitRate, 1.0 / 6.0, 0.04);
}

} // namespace
} // namespace autocat
