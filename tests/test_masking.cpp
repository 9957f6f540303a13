/**
 * @file
 * Sample-efficiency layer tests: the masked softmax/entropy kernel,
 * masked policy ops (sample/argmax/logProb), per-step env masks and
 * useless-action penalties, batch-pool mask rows, rollout mask
 * storage, the ScenarioOracle search baseline, wire/report coverage
 * of the new fields, and the two oracles of this layer —
 *
 *  1. mask off (the default) is BITWISE identical to the pre-PR
 *     pipeline (golden hexfloat fixture over the sync and batch
 *     adapters),
 *  2. masked + penalized PPO discovers the attack in fewer env steps
 *     than the unmasked baseline (the Sec. VI-A bakeoff).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/explore.hpp"
#include "env/batch_env_pool.hpp"
#include "env/env_registry.hpp"
#include "env/guessing_game.hpp"
#include "env/sequence_oracle.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "rl/actor_critic.hpp"
#include "rl/mat.hpp"
#include "rl/rollout.hpp"
#include "rl/search.hpp"
#include "serve/wire.hpp"
#include "util/rng.hpp"

namespace autocat {
namespace {

Matrix
randomLogits(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.gaussian() * 3.0);
    return m;
}

/** Tiny 2-way FA LRU set, victim 0/E, attacker 0-2, cold start. */
EnvConfig
tinyEnv()
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
    cfg.randomInit = false;
    cfg.seed = 5;
    return cfg;
}

// ------------------------------------------------------ masked kernel

TEST(MaskedSoftmax, AllOnesMaskIsBitwiseIdenticalToUnmasked)
{
    const Matrix logits = randomLogits(7, 5, 101);
    const std::vector<std::uint8_t> ones(7 * 5, 1);

    std::vector<double> p_ref, e_ref, p_masked, e_masked;
    softmaxEntropyRowsInto(p_ref, e_ref, logits);
    softmaxEntropyRowsMaskedInto(p_masked, e_masked, logits, ones.data());

    ASSERT_EQ(p_masked.size(), p_ref.size());
    ASSERT_EQ(e_masked.size(), e_ref.size());
    for (std::size_t i = 0; i < p_ref.size(); ++i)
        EXPECT_EQ(p_masked[i], p_ref[i]) << "prob at flat index " << i;
    for (std::size_t r = 0; r < e_ref.size(); ++r)
        EXPECT_EQ(e_masked[r], e_ref[r]) << "entropy row " << r;
}

TEST(MaskedSoftmax, MaskedEntriesGetExactlyZeroProbability)
{
    const Matrix logits = randomLogits(4, 6, 102);
    std::vector<std::uint8_t> mask(4 * 6, 1);
    mask[0 * 6 + 2] = 0;
    mask[1 * 6 + 0] = 0;
    mask[1 * 6 + 5] = 0;
    mask[3 * 6 + 4] = 0;

    std::vector<double> p, e;
    softmaxEntropyRowsMaskedInto(p, e, logits, mask.data());

    for (std::size_t r = 0; r < 4; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 6; ++c) {
            if (!mask[r * 6 + c]) {
                EXPECT_EQ(p[r * 6 + c], 0.0) << r << "," << c;
            }
            sum += p[r * 6 + c];
        }
        EXPECT_NEAR(sum, 1.0, 1e-12) << "row " << r;
        EXPECT_TRUE(std::isfinite(e[r])) << "row " << r;
        EXPECT_GE(e[r], 0.0) << "row " << r;
    }
}

TEST(MaskedSoftmax, HugeMaskedLogitCannotOverflow)
{
    // The max is taken over VALID entries only: a masked +1000 logit
    // must not drag exp() into overflow or the probabilities into NaN.
    Matrix logits(1, 3);
    logits(0, 0) = 1000.0f;  // masked
    logits(0, 1) = 1.0f;
    logits(0, 2) = -2.0f;
    const std::uint8_t mask[3] = {0, 1, 1};

    std::vector<double> p, e;
    softmaxEntropyRowsMaskedInto(p, e, logits, mask);
    EXPECT_EQ(p[0], 0.0);
    EXPECT_TRUE(std::isfinite(p[1]) && std::isfinite(p[2]));
    EXPECT_NEAR(p[1] + p[2], 1.0, 1e-12);
    EXPECT_GT(p[1], p[2]);
    EXPECT_TRUE(std::isfinite(e[0]));
}

TEST(MaskedSoftmax, AllInvalidRowFailsLoudly)
{
    const Matrix logits = randomLogits(3, 4, 103);
    std::vector<std::uint8_t> mask(3 * 4, 1);
    for (std::size_t c = 0; c < 4; ++c)
        mask[1 * 4 + c] = 0;  // row 1 masks out everything

    std::vector<double> p, e;
    EXPECT_THROW(softmaxEntropyRowsMaskedInto(p, e, logits, mask.data()),
                 std::domain_error);
}

// ------------------------------------------------- masked policy ops

TEST(MaskedPolicyOps, AllOnesMaskMatchesUnmaskedOpsBitwise)
{
    Rng net_rng(7);
    const ActorCritic net(4, 5, 8, 1, net_rng);
    const Matrix logits = randomLogits(6, 5, 104);
    const std::vector<std::uint8_t> ones(5, 1);

    for (std::size_t r = 0; r < logits.rows(); ++r) {
        EXPECT_EQ(net.argmaxMasked(logits, r, ones.data()),
                  net.argmax(logits, r));
        Rng a(900 + r), b(900 + r);
        EXPECT_EQ(net.sampleMasked(logits, r, ones.data(), a),
                  net.sample(logits, r, b));
        for (std::size_t act = 0; act < 5; ++act) {
            EXPECT_EQ(
                ActorCritic::logProbMasked(logits, r, act, ones.data()),
                ActorCritic::logProb(logits, r, act));
        }
    }
}

TEST(MaskedPolicyOps, ArgmaxNeverSelectsMaskedAndBreaksTiesLow)
{
    Rng net_rng(8);
    const ActorCritic net(4, 4, 8, 1, net_rng);

    Matrix logits(1, 4);
    logits(0, 0) = 5.0f;
    logits(0, 1) = 5.0f;  // exact tie with 0
    logits(0, 2) = 9.0f;  // global max
    logits(0, 3) = 1.0f;

    const std::uint8_t no_two[4] = {1, 1, 0, 1};
    // The masked global max must be skipped; the 5.0/5.0 tie breaks
    // toward the lowest index.
    EXPECT_EQ(net.argmaxMasked(logits, 0, no_two), 0u);

    const std::uint8_t no_zero_two[4] = {0, 1, 0, 1};
    EXPECT_EQ(net.argmaxMasked(logits, 0, no_zero_two), 1u);

    const std::uint8_t only_three[4] = {0, 0, 0, 1};
    EXPECT_EQ(net.argmaxMasked(logits, 0, only_three), 3u);

    // Unmasked argmax also breaks exact ties low (pinned here because
    // sequence extraction's determinism rests on it).
    Matrix tied(1, 4);
    for (std::size_t c = 0; c < 4; ++c)
        tied(0, c) = 2.0f;
    EXPECT_EQ(net.argmax(tied, 0), 0u);
}

TEST(MaskedPolicyOps, SampleNeverDrawsMaskedAction)
{
    Rng net_rng(9);
    const ActorCritic net(4, 6, 8, 1, net_rng);
    const Matrix logits = randomLogits(1, 6, 105);
    const std::uint8_t mask[6] = {1, 0, 1, 0, 0, 1};

    Rng rng(42);
    for (int i = 0; i < 500; ++i) {
        const std::size_t a = net.sampleMasked(logits, 0, mask, rng);
        ASSERT_LT(a, 6u);
        EXPECT_TRUE(mask[a]) << "drew masked action " << a;
    }
}

TEST(MaskedPolicyOps, LogProbMaskedRenormalizesOverValidSupport)
{
    const Matrix logits = randomLogits(1, 5, 106);
    const std::uint8_t mask[5] = {1, 1, 0, 1, 0};

    double sum = 0.0;
    for (std::size_t a = 0; a < 5; ++a) {
        if (!mask[a])
            continue;
        sum += std::exp(ActorCritic::logProbMasked(logits, 0, a, mask));
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

// ----------------------------------------------------- env-layer mask

TEST(EnvMask, DisabledConfigExposesNoMask)
{
    CacheGuessingGame game(tinyEnv());
    game.reset();
    EXPECT_EQ(game.actionMask(), nullptr);
}

TEST(EnvMask, GuessesMaskedUntilVictimTriggered)
{
    EnvConfig cfg = tinyEnv();
    cfg.maskActions = true;
    CacheGuessingGame game(cfg);
    game.reset();

    const ActionSpace &as = game.actionSpace();
    const std::uint8_t *mask = game.actionMask();
    ASSERT_NE(mask, nullptr);

    // Fresh episode, victim not yet triggered: all primitives valid,
    // every guess masked (it can only score as a wrong guess).
    for (std::size_t i = 0; i < as.size(); ++i)
        EXPECT_EQ(mask[i] != 0, i < as.guessBase()) << "index " << i;

    game.stepFast(as.triggerIndex());
    for (std::size_t i = 0; i < as.size(); ++i)
        EXPECT_EQ(mask[i], 1) << "index " << i;

    // A guess ends the episode; the auto-reset mask is back to the
    // fresh-episode shape.
    game.stepFast(as.guessIndex(0));
    game.resetRow();
    for (std::size_t i = 0; i < as.size(); ++i)
        EXPECT_EQ(mask[i] != 0, i < as.guessBase()) << "index " << i;
}

TEST(EnvMask, UselessRepeatMaskTracksLastPrimitive)
{
    EnvConfig cfg = tinyEnv();
    cfg.maskActions = true;
    cfg.maskUselessActions = true;
    CacheGuessingGame game(cfg);
    game.reset();

    const ActionSpace &as = game.actionSpace();
    const std::uint8_t *mask = game.actionMask();
    ASSERT_NE(mask, nullptr);

    const std::size_t a0 = as.accessIndex(0);
    const std::size_t a1 = as.accessIndex(1);
    game.stepFast(a0);
    EXPECT_EQ(mask[a0], 0);  // immediate repeat masked
    EXPECT_EQ(mask[a1], 1);
    EXPECT_EQ(mask[as.triggerIndex()], 1);

    game.stepFast(a1);
    EXPECT_EQ(mask[a0], 1);  // no longer the previous action
    EXPECT_EQ(mask[a1], 0);

    // The trigger is repeat-maskable like any primitive.
    game.stepFast(as.triggerIndex());
    EXPECT_EQ(mask[as.triggerIndex()], 0);
    // ... and guesses became valid at the same time.
    EXPECT_EQ(mask[as.guessIndex(0)], 1);
}

TEST(EnvMask, UselessActionPenaltySubtractsExactlyOnRepeats)
{
    EnvConfig plain_cfg = tinyEnv();
    EnvConfig shaped_cfg = tinyEnv();
    shaped_cfg.uselessActionPenalty = 0.125;

    CacheGuessingGame plain(plain_cfg);
    CacheGuessingGame shaped(shaped_cfg);
    plain.reset();
    plain.forceSecret(std::nullopt);
    shaped.reset();
    shaped.forceSecret(std::nullopt);

    const ActionSpace &as = plain.actionSpace();
    const std::size_t a0 = as.accessIndex(0);

    // First access: not a repeat, identical reward.
    const auto p1 = plain.stepFast(a0);
    const auto s1 = shaped.stepFast(a0);
    EXPECT_EQ(s1.reward, p1.reward);

    // Immediate repeat: exactly the penalty difference, nothing else.
    const auto p2 = plain.stepFast(a0);
    const auto s2 = shaped.stepFast(a0);
    EXPECT_EQ(s2.reward, p2.reward - 0.125);

    // Breaking the repeat chain restores identical rewards.
    const auto p3 = plain.stepFast(as.triggerIndex());
    const auto s3 = shaped.stepFast(as.triggerIndex());
    EXPECT_EQ(s3.reward, p3.reward);
}

TEST(EnvMask, NegativePenaltyIsRejected)
{
    EnvConfig cfg = tinyEnv();
    cfg.uselessActionPenalty = -0.5;
    EXPECT_THROW(CacheGuessingGame game(cfg), std::invalid_argument);
}

// ------------------------------------------------- batch-engine masks

TEST(BatchMask, PoolMaskRowsAreZeroCopyViews)
{
    EnvConfig cfg = tinyEnv();
    cfg.maskActions = true;
    cfg.maskUselessActions = true;

    std::vector<std::unique_ptr<Environment>> envs;
    for (int i = 0; i < 3; ++i) {
        EnvConfig c = cfg;
        c.seed = cfg.seed + i;
        envs.push_back(std::make_unique<CacheGuessingGame>(c));
    }
    BatchEnvPool pool(std::move(envs));
    pool.resetAll();

    const std::uint8_t *mm = pool.masks();
    ASSERT_NE(mm, nullptr);
    const std::size_t na = pool.numActions();
    // Each stream's live mask IS its row of the pool matrix.
    for (std::size_t s = 0; s < pool.numStreams(); ++s)
        EXPECT_EQ(pool.env(s).actionMask(), mm + s * na) << "stream " << s;

    // Stepping one stream updates only its row, in place.
    std::vector<std::size_t> actions(3, 0);
    std::vector<double> rewards(3);
    std::vector<std::uint8_t> dones(3);
    std::vector<StepInfo> infos(3);
    actions[1] = 1;
    pool.stepBatch(actions.data(), nullptr, rewards.data(), dones.data(),
                   infos.data());
    EXPECT_EQ(mm[0 * na + 0], 0);  // stream 0 repeated access 0
    EXPECT_EQ(mm[1 * na + 1], 0);  // stream 1 repeated access 1
    EXPECT_EQ(mm[1 * na + 0], 1);
}

TEST(BatchMask, UnmaskedStreamsExposeNoMaskMatrix)
{
    std::vector<std::unique_ptr<Environment>> envs;
    for (int i = 0; i < 2; ++i)
        envs.push_back(std::make_unique<CacheGuessingGame>(tinyEnv()));
    BatchEnvPool pool(std::move(envs));
    EXPECT_EQ(pool.masks(), nullptr);
}

TEST(BatchMask, MixedMaskingStreamsAreRejected)
{
    EnvConfig masked = tinyEnv();
    masked.maskActions = true;
    std::vector<std::unique_ptr<Environment>> envs;
    envs.push_back(std::make_unique<CacheGuessingGame>(tinyEnv()));
    envs.push_back(std::make_unique<CacheGuessingGame>(masked));
    EXPECT_THROW(BatchEnvPool pool(std::move(envs)),
                 std::invalid_argument);
}

// ------------------------------------------------ rollout mask store

TEST(RolloutMasks, StageGatherRoundTrip)
{
    const std::size_t steps = 2, streams = 2, obs_dim = 3, na = 4;
    RolloutBuffer buf(steps, streams, obs_dim);
    buf.enableMasks(na);
    ASSERT_TRUE(buf.masksEnabled());

    const std::vector<std::size_t> actions(streams, 0);
    const std::vector<double> rewards(streams, 0.0);
    const std::vector<std::uint8_t> dones(streams, 0);
    const std::vector<double> values(streams, 0.0);
    const std::vector<double> logps(streams, 0.0);

    std::vector<std::uint8_t> all;
    for (std::size_t t = 0; t < steps; ++t) {
        std::vector<std::uint8_t> m(streams * na);
        for (std::size_t i = 0; i < m.size(); ++i)
            m[i] = static_cast<std::uint8_t>((t + i) % 2);
        all.insert(all.end(), m.begin(), m.end());
        buf.stageMasks(m.data());
        buf.stageObs(Matrix(streams, obs_dim));
        buf.commitStep(actions, rewards, dones, values, logps);
    }
    EXPECT_EQ(buf.masks(), all);

    // Gather flat transitions 3 and 0 (time-major: t * streams + s).
    std::vector<std::uint8_t> got;
    buf.gatherMasksInto(got, {3, 0});
    ASSERT_EQ(got.size(), 2 * na);
    EXPECT_EQ(0, std::memcmp(got.data(), all.data() + 3 * na, na));
    EXPECT_EQ(0, std::memcmp(got.data() + na, all.data(), na));

    // clear() drops contents but keeps mask storage enabled.
    buf.clear();
    EXPECT_TRUE(buf.masksEnabled());
    EXPECT_TRUE(buf.masks().empty());
}

// ------------------------------------------------- golden mask-off fixture

/** The exact pre-PR capture config (tools/golden_capture). */
ExplorationConfig
goldenConfig()
{
    ExplorationConfig cfg;
    cfg.env.cache.numSets = 1;
    cfg.env.cache.numWays = 2;
    cfg.env.cache.addressSpaceSize = 6;
    cfg.env.attackAddrS = 0;
    cfg.env.attackAddrE = 2;
    cfg.env.victimAddrS = 0;
    cfg.env.victimAddrE = 0;
    cfg.env.victimNoAccessEnable = true;
    cfg.env.windowSize = 8;
    cfg.env.seed = 9;
    cfg.ppo.seed = 33;
    cfg.ppo.stepsPerEpoch = 600;
    cfg.ppo.minibatchSize = 100;
    cfg.maxEpochs = 3;
    cfg.evalEpisodes = 20;
    return cfg;
}

struct Golden
{
    double acc, len, bitRate;
    const char *seq;
    const char *guess;
};

void
expectGolden(const ExplorationResult &r, const Golden &g)
{
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.epochsToConverge, -1);
    EXPECT_EQ(r.envSteps, 1800);
    EXPECT_EQ(r.stepsToDiscovery, -1);
    // Hexfloat golden values captured at the pre-masking HEAD: the
    // sample-efficiency layer must be invisible — bit for bit — when
    // mask_actions/mask_useless_actions/useless_action_penalty are at
    // their defaults.
    EXPECT_EQ(r.finalAccuracy, g.acc);
    EXPECT_EQ(r.finalEpisodeLength, g.len);
    EXPECT_EQ(r.bitRate, g.bitRate);
    EXPECT_EQ(r.detectionRate, 0.0);
    EXPECT_EQ(r.sequence.toString(), g.seq);
    EXPECT_EQ(r.finalGuess, g.guess);
    EXPECT_EQ(static_cast<int>(r.category), 5);
}

TEST(MaskOffGolden, SerialCollectionMatchesPrePrBytes)
{
    const Golden golden{0x1.ccccccccccccdp-2, 0x1.cp+2,
                        0x1.2492492492492p-3,
                        "v -> v -> v -> v -> v -> v", "gE"};
    expectGolden(explore(goldenConfig()), golden);
}

TEST(MaskOffGolden, BatchCollectionMatchesPrePrBytes)
{
    const Golden golden{0x1.4cccccccccccdp-1, 0x1.4p+2,
                        0x1.999999999999ap-3, "v -> v -> v -> v",
                        "g0"};
    ExplorationConfig cfg = goldenConfig();
    cfg.numStreams = 4;
    cfg.batchEnv = true;
    expectGolden(explore(cfg), golden);
}

// --------------------------------------- masked path self-consistency

/**
 * With masking ON, collection over a SyncVecEnv (the step-all wrapper
 * copies every stream's mask) and over a BatchVecEnv (the pool's
 * zero-copy mask rows) must still produce identical trajectories: the
 * mask rows the loop snapshots are the same per-step masks whichever
 * surface steps.
 */
TEST(MaskedCollection, SyncAndBatchSurfacesAgree)
{
    ExplorationConfig base = goldenConfig();
    base.env.maskActions = true;
    base.env.maskUselessActions = true;
    base.env.uselessActionPenalty = 0.01;
    base.numStreams = 4;

    ExplorationConfig batch_cfg = base;
    batch_cfg.batchEnv = true;

    const ExplorationResult a = explore(base);
    const ExplorationResult b = explore(batch_cfg);

    EXPECT_EQ(a.finalAccuracy, b.finalAccuracy);
    EXPECT_EQ(a.finalEpisodeLength, b.finalEpisodeLength);
    EXPECT_EQ(a.bitRate, b.bitRate);
    EXPECT_EQ(a.sequence.toString(), b.sequence.toString());
    EXPECT_EQ(a.finalGuess, b.finalGuess);
}

// ------------------------------------------------------ ScenarioOracle

TEST(ScenarioOracle, JudgesDistinguishingSequences)
{
    ScenarioOracle oracle("guessing_game", tinyEnv());
    // 3 accesses + trigger; guesses are not primitives.
    EXPECT_EQ(oracle.numPrimitives(), 4u);

    const std::size_t trigger = oracle.actionSpace().triggerIndex();
    const std::size_t a0 = oracle.actionSpace().accessIndex(0);
    const std::size_t a2 = oracle.actionSpace().accessIndex(2);

    // Trigger then probe the victim's line: hit iff the victim ran.
    EXPECT_TRUE(oracle.isDistinguishing({trigger, a0}));
    // No trigger: the pattern cannot depend on the secret.
    EXPECT_FALSE(oracle.isDistinguishing({a0, a0}));
    // Probing an unrelated line observes nothing secret-dependent.
    EXPECT_FALSE(oracle.isDistinguishing({trigger, a2}));

    // One trial replays the sequence once per secret (0 and no-access).
    EXPECT_EQ(oracle.stepsPerTrial({trigger, a0}), 4);
}

TEST(ScenarioOracle, RejectsNonGuessingGameUse)
{
    // Every current registry scenario builds a guessing game, so the
    // throw path is pinned via the unknown-scenario route instead.
    EXPECT_THROW(ScenarioOracle("no_such_scenario", tinyEnv()),
                 std::out_of_range);
}

TEST(ScenarioOracle, RandomSearchFindsAnAttack)
{
    ScenarioOracle oracle("guessing_game", tinyEnv());
    Rng rng(3);
    const SearchResult r = randomSearch(oracle, 2, 200, rng);
    ASSERT_TRUE(r.found);
    EXPECT_TRUE(oracle.isDistinguishing(r.sequence));
    EXPECT_GT(r.stepsTaken, 0);
}

// ------------------------------------------------ bakeoff sweep rows

SweepConfig
bakeoffSweep()
{
    SweepConfig cfg;
    cfg.name = "bakeoff";
    cfg.base.env = tinyEnv();
    cfg.base.env.randomInit = true;  // mask_bakeoff.cfg default
    cfg.base.env.windowSize = 10;
    cfg.base.ppo.seed = 21;
    cfg.base.ppo.stepsPerEpoch = 600;
    cfg.base.ppo.minibatchSize = 100;
    cfg.base.maxEpochs = 120;
    cfg.base.targetAccuracy = 0.9;
    cfg.base.evalEpisodes = 100;
    cfg.base.env.seed = 7;
    cfg.grid.seeds = {7};
    return cfg;
}

TEST(BakeoffExpansion, AppendsOneRowPerAgentScenarioSeed)
{
    SweepConfig cfg = bakeoffSweep();
    cfg.bakeoffAgents = {"ppo", "ppo_masked", "random_search"};
    cfg.maskedPenalty = 0.02;

    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 4u);  // 1 main grid cell + 3 bakeoff rows

    EXPECT_EQ(cells[0].agent, "ppo");
    EXPECT_EQ(cells[1].label, "guessing_game/lru/s7/ppo");
    EXPECT_EQ(cells[2].label, "guessing_game/lru/s7/ppo_masked");
    EXPECT_EQ(cells[3].label, "guessing_game/lru/s7/random_search");

    // ppo_masked is plain ppo whose config enables the masking layer.
    EXPECT_FALSE(cells[1].config.env.maskActions);
    EXPECT_TRUE(cells[2].config.env.maskActions);
    EXPECT_TRUE(cells[2].config.env.maskUselessActions);
    EXPECT_EQ(cells[2].config.env.uselessActionPenalty, 0.02);
    EXPECT_EQ(cells[3].agent, "random_search");

    cfg.bakeoffAgents = {"dqn"};
    EXPECT_THROW(expandSweepGrid(cfg), std::invalid_argument);
    cfg.bakeoffAgents = {"ppo"};
    cfg.bakeoffScenarios = {"no_such_scenario"};
    EXPECT_THROW(expandSweepGrid(cfg), std::invalid_argument);
}

/**
 * THE bakeoff acceptance oracle (mirrors
 * examples/configs/mask_bakeoff.cfg and the committed report
 * docs/reports/mask_bakeoff_report.json): on the same scenario and
 * seeds, masked + penalized PPO must reach the 0.9-accuracy target in
 * strictly fewer environment steps than the unmasked baseline, and
 * random search must report its (tiny) simulated-step count.
 */
TEST(Bakeoff, MaskedPpoDiscoversInFewerStepsThanUnmasked)
{
    SweepConfig cfg = bakeoffSweep();
    cfg.bakeoffAgents = {"ppo", "ppo_masked", "random_search"};
    cfg.maskedPenalty = 0.02;

    std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 4u);
    // Drop the duplicate main-grid cell; the bakeoff rows carry the
    // comparison.
    cells.erase(cells.begin());
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].index = i;

    const SweepReport report =
        runSweepCells("bakeoff", std::move(cells), /*workers=*/1);
    ASSERT_EQ(report.cells.size(), 3u);

    const SweepCellResult &ppo = report.cells[0];
    const SweepCellResult &masked = report.cells[1];
    const SweepCellResult &search = report.cells[2];
    ASSERT_TRUE(ppo.completed) << ppo.error;
    ASSERT_TRUE(masked.completed) << masked.error;
    ASSERT_TRUE(search.completed) << search.error;

    ASSERT_TRUE(ppo.result.converged);
    ASSERT_TRUE(masked.result.converged);
    ASSERT_TRUE(search.result.converged);

    EXPECT_GE(masked.result.finalAccuracy, 0.9);
    ASSERT_GT(ppo.result.stepsToDiscovery, 0);
    ASSERT_GT(masked.result.stepsToDiscovery, 0);
    EXPECT_LT(masked.result.stepsToDiscovery,
              ppo.result.stepsToDiscovery)
        << "masking did not improve sample efficiency";

    // The committed docs/reports/mask_bakeoff_report.json values.
    EXPECT_EQ(ppo.result.stepsToDiscovery, 32400);
    EXPECT_EQ(masked.result.stepsToDiscovery, 18600);
    EXPECT_GT(search.result.stepsToDiscovery, 0);
}

// ----------------------------------------------- wire/report coverage

TEST(WireV2, AgentAndStepsToDiscoverySurviveTheWire)
{
    SweepCell cell;
    cell.index = 11;
    cell.label = "guessing_game/lru/s7/ppo_masked";
    cell.scenario = "guessing_game";
    cell.policy = "lru";
    cell.agent = "ppo_masked";
    cell.seed = 7;
    cell.config.env = tinyEnv();
    cell.config.env.maskActions = true;
    cell.config.env.uselessActionPenalty = 0.25;

    const SweepCell back = deserializeCellJob(serializeCellJob(cell));
    EXPECT_EQ(back.agent, "ppo_masked");
    EXPECT_TRUE(back.config.env.maskActions);
    EXPECT_EQ(back.config.env.uselessActionPenalty, 0.25);

    SweepCellResult row;
    row.cell.index = 11;
    row.completed = true;
    row.result.converged = true;
    row.result.stepsToDiscovery = 18600;
    row.result.envSteps = 18600;
    const SweepCellResult rback =
        deserializeCellRow(serializeCellRow(row));
    EXPECT_EQ(rback.result.stepsToDiscovery, 18600);
    EXPECT_EQ(rback.result.envSteps, 18600);
}

TEST(ReportColumns, AgentAndStepsToDiscoveryAreRendered)
{
    SweepReport report;
    report.name = "cols";
    report.cells.resize(1);
    SweepCellResult &c = report.cells[0];
    c.cell.label = "x/ppo_masked";
    c.cell.scenario = "guessing_game";
    c.cell.policy = "lru";
    c.cell.agent = "ppo_masked";
    c.completed = true;
    c.result.converged = true;
    c.result.stepsToDiscovery = 1234;

    const std::string json = sweepReportJson(report);
    EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"agent\": \"ppo_masked\""), std::string::npos);
    EXPECT_NE(json.find("\"steps_to_discovery\": 1234"),
              std::string::npos);

    std::ostringstream csv;
    writeSweepReportCsv(csv, report);
    EXPECT_NE(csv.str().find(",agent,"), std::string::npos);
    EXPECT_NE(csv.str().find("steps_to_discovery"), std::string::npos);
    EXPECT_NE(csv.str().find("\"ppo_masked\""), std::string::npos);
    EXPECT_NE(csv.str().find(",1234,"), std::string::npos);
}

} // namespace
} // namespace autocat
