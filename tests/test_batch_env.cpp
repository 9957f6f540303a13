/**
 * @file
 * Batch environment engine tests.
 *
 * Two oracles pin the SoA engine:
 *  1. The guessing game's incrementally-maintained observation row must
 *     equal a from-scratch rebuild after every reset and step, across
 *     every feature that touches the layout (flush actions, detectors,
 *     multi-secret episodes, reveal-on-guess unmasking).
 *  2. BatchVecEnv must produce bitwise-identical trajectories to
 *     SyncVecEnv over the same per-stream seeds for EVERY registry
 *     scenario, through auto-resets and mid-run resetAll().
 *
 * The BatchEnvGuard suite is the cheap CI guard: PPO trained through
 * the in-place batch collection path must match PPO trained through
 * the allocating sync path bitwise (stats and weights).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "env/batch_env_pool.hpp"
#include "env/env_registry.hpp"
#include "env/guessing_game.hpp"
#include "rl/checkpoint.hpp"
#include "rl/episodes.hpp"
#include "rl/mat.hpp"
#include "rl/ppo.hpp"
#include "rl/vec_env.hpp"
#include "util/rng.hpp"

namespace autocat {
namespace {

EnvConfig
tinyEnvConfig(std::uint64_t seed = 77)
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

/**
 * Drive one game with pseudo-random actions and assert the persistent
 * row matches a from-scratch rebuild after every transition.
 */
void
expectRowStaysFaithful(CacheGuessingGame &game, int steps,
                       std::uint64_t action_seed)
{
    Rng rng(action_seed);
    std::vector<float> obs = game.reset();
    EXPECT_EQ(obs, game.rebuildObservation()) << "after reset";
    for (int t = 0; t < steps; ++t) {
        const std::size_t a = rng.uniformInt(game.numActions());
        const StepResult sr = game.step(a);
        ASSERT_EQ(sr.obs, game.rebuildObservation())
            << "incremental row diverged at step " << t << " (action "
            << a << ")";
        if (sr.done) {
            obs = game.reset();
            ASSERT_EQ(obs, game.rebuildObservation())
                << "row stale after reset at step " << t;
        }
    }
}

TEST(BatchEnv, IncrementalRowMatchesRebuildBaseConfig)
{
    auto env = makeEnv("guessing_game", tinyEnvConfig(10));
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    ASSERT_NE(game, nullptr);
    expectRowStaysFaithful(*game, 600, 1);
}

TEST(BatchEnv, IncrementalRowMatchesRebuildWithFlush)
{
    EnvConfig cfg = tinyEnvConfig(11);
    cfg.flushEnable = true;
    auto env = makeEnv("guessing_game", cfg);
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    ASSERT_NE(game, nullptr);
    expectRowStaysFaithful(*game, 600, 2);
}

TEST(BatchEnv, IncrementalRowMatchesRebuildMultiSecret)
{
    // Symbol boundaries re-sample the secret and restart both summary
    // regions — one of the rare full-rebuild events.
    EnvConfig cfg = tinyEnvConfig(12);
    cfg.multiSecret = true;
    cfg.multiSecretEpisodeSteps = 24;
    auto env = makeEnv("guessing_game", cfg);
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    ASSERT_NE(game, nullptr);
    expectRowStaysFaithful(*game, 600, 3);
}

TEST(BatchEnv, IncrementalRowMatchesRebuildRevealOnGuess)
{
    // The reveal transition unmasks every window slot's latency at
    // once — the other full-rebuild event.
    EnvConfig cfg = tinyEnvConfig(13);
    cfg.revealOnGuess = true;
    auto env = makeEnv("guessing_game", cfg);
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    ASSERT_NE(game, nullptr);
    expectRowStaysFaithful(*game, 600, 4);
}

TEST(BatchEnv, IncrementalRowMatchesRebuildDetectorScenarios)
{
    for (const char *name :
         {"miss_detect_terminate", "cchunter_bypass", "cyclone_bypass"}) {
        auto env = makeEnv(name, tinyEnvConfig(14));
        auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
        ASSERT_NE(game, nullptr) << name;
        expectRowStaysFaithful(*game, 400, 5);
    }
}

TEST(BatchEnv, IncrementalRowMatchesRebuildHierarchyScenarios)
{
    for (const char *name :
         {"l1l2_private", "l1l2_shared", "l2_exclusive", "three_level"}) {
        auto env = makeEnv(name, tinyEnvConfig(15));
        auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
        ASSERT_NE(game, nullptr) << name;
        expectRowStaysFaithful(*game, 400, 6);
    }
}

TEST(BatchEnv, IncrementalRowMatchesRebuildChannelScenarios)
{
    // The non-cache channels (TLB, prefetcher side channel) route
    // victim transmits and flushes through paths the cache scenarios
    // never take; the row invariant must survive them too.
    for (const char *name : {"tlb_evict", "prefetch_probe"}) {
        EnvConfig cfg = tinyEnvConfig(17);
        auto env = makeEnv(name, cfg);
        auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
        ASSERT_NE(game, nullptr) << name;
        expectRowStaysFaithful(*game, 400, 7);
    }
}

TEST(BatchEnv, IncrementalRowMatchesRebuildTlbWithFlush)
{
    // flush on the TLB channel is an invlpg (leaf translation only);
    // the observation must track its latency effects faithfully.
    EnvConfig cfg = tinyEnvConfig(18);
    cfg.flushEnable = true;
    auto env = makeEnv("tlb_evict", cfg);
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    ASSERT_NE(game, nullptr);
    expectRowStaysFaithful(*game, 400, 8);
}

TEST(BatchEnv, ChannelScenarioRowsSurviveResetAllAndRebind)
{
    // Batch pool over the channel scenarios: fuzz random actions with a
    // mid-run resetAll, checking row == rebuildObservation() for every
    // stream after every batched step, then rebind a stream's row out
    // of the pool and verify the invariant follows the new location.
    for (const char *name : {"tlb_evict", "prefetch_probe"}) {
        auto vec =
            makeVecEnv(name, tinyEnvConfig(19), 3, VecEnvKind::Batch);
        auto *batch = dynamic_cast<BatchVecEnv *>(vec.get());
        ASSERT_NE(batch, nullptr) << name;
        const std::size_t n = vec->numEnvs();
        const std::size_t dim = vec->observationSize();

        vec->resetAll();
        Rng rng(20);
        std::vector<std::size_t> actions(n);
        for (int t = 0; t < 150; ++t) {
            if (t == 70)
                vec->resetAll();
            for (std::size_t s = 0; s < n; ++s)
                actions[s] = rng.uniformInt(vec->numActions());
            vec->stepAll(actions);
            for (std::size_t s = 0; s < n; ++s) {
                auto *game =
                    dynamic_cast<CacheGuessingGame *>(&vec->env(s));
                ASSERT_NE(game, nullptr) << name;
                const std::vector<float> want =
                    game->rebuildObservation();
                ASSERT_EQ(0,
                          std::memcmp(batch->pool().obs().rowPtr(s),
                                      want.data(),
                                      dim * sizeof(float)))
                    << name << ": stream " << s << " row stale at step "
                    << t;
            }
        }

        // Re-home stream 0's row outside the pool matrix.
        auto *game = dynamic_cast<CacheGuessingGame *>(&vec->env(0));
        ASSERT_NE(game, nullptr) << name;
        std::vector<float> external(dim, -1.0f);
        game->bindObservationRow(external.data());
        game->step(0);
        game->step(1 % game->numActions());
        EXPECT_EQ(std::vector<float>(external.begin(), external.end()),
                  game->rebuildObservation())
            << name << ": rebound row diverged";
    }
}

TEST(BatchEnv, BoundRowSurvivesRebind)
{
    auto env = makeEnv("guessing_game", tinyEnvConfig(16));
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    ASSERT_NE(game, nullptr);
    const std::size_t d = game->observationSize();

    game->reset();
    game->step(0);
    const std::vector<float> before = game->rebuildObservation();

    // Rebinding moves the live row contents to the new location...
    std::vector<float> external(d, -1.0f);
    game->bindObservationRow(external.data());
    EXPECT_EQ(0, std::memcmp(external.data(), before.data(),
                             d * sizeof(float)));

    // ...subsequent steps maintain the external row...
    game->step(1);
    EXPECT_EQ(std::vector<float>(external.begin(), external.end()),
              game->rebuildObservation());

    // ...and rebinding back to internal storage detaches it.
    game->bindObservationRow(nullptr);
    const std::vector<float> snapshot(external);
    game->step(0);
    EXPECT_EQ(std::vector<float>(external.begin(), external.end()),
              snapshot);
    EXPECT_EQ(std::vector<float>(game->observationRow(),
                                 game->observationRow() + d),
              game->rebuildObservation());
}

/** Trajectory record for bitwise comparison. */
struct Trace
{
    std::vector<float> obs;
    std::vector<double> rewards;
    std::vector<std::uint8_t> dones;

    bool
    operator==(const Trace &o) const
    {
        return obs == o.obs && rewards == o.rewards && dones == o.dones;
    }
};

std::size_t
scheduledAction(std::size_t stream, int t, std::size_t num_actions)
{
    return (stream * 5 + static_cast<std::size_t>(t) * 3) % num_actions;
}

/**
 * Roll @p steps batched steps, resetting all streams at
 * @p reset_at (-1: never) to exercise mid-run resetAll coherence.
 */
std::vector<Trace>
runVectorized(VecEnv &vec, int steps, int reset_at)
{
    const std::size_t n = vec.numEnvs();
    const std::size_t dim = vec.observationSize();
    std::vector<Trace> traces(n);
    vec.resetAll();
    std::vector<std::size_t> actions(n);
    for (int t = 0; t < steps; ++t) {
        if (t == reset_at)
            vec.resetAll();
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

TEST(BatchEnv, MatchesSyncBitwiseOnEveryRegistryScenario)
{
    constexpr std::size_t kStreams = 3;
    constexpr int kSteps = 250;
    constexpr int kResetAt = 120;

    for (const std::string &name : scenarioNames()) {
        const EnvConfig cfg = tinyEnvConfig(500);
        auto sync = makeVecEnv(name, cfg, kStreams, VecEnvKind::Sync);
        auto batch = makeVecEnv(name, cfg, kStreams, VecEnvKind::Batch);
        ASSERT_EQ(sync->observationSize(), batch->observationSize())
            << name;

        const std::vector<Trace> a =
            runVectorized(*sync, kSteps, kResetAt);
        const std::vector<Trace> b =
            runVectorized(*batch, kSteps, kResetAt);
        for (std::size_t s = 0; s < kStreams; ++s) {
            EXPECT_TRUE(a[s] == b[s])
                << "scenario " << name << " stream " << s
                << ": batch trajectory diverged from sync";
        }
    }
}

TEST(BatchEnv, PoolMatrixRowsStayCoherentWithDirectEnvAccess)
{
    // evaluate()-style direct stepping through env(i) must keep the
    // pool's matrix rows in sync with the game state.
    auto vec = makeVecEnv("guessing_game", tinyEnvConfig(600), 2,
                          VecEnvKind::Batch);
    auto *batch = dynamic_cast<BatchVecEnv *>(vec.get());
    ASSERT_NE(batch, nullptr);
    vec->resetAll();

    Environment &e0 = vec->env(0);
    e0.reset();
    e0.step(0);
    e0.step(1);

    auto *game = dynamic_cast<CacheGuessingGame *>(&e0);
    ASSERT_NE(game, nullptr);
    const std::vector<float> want = game->rebuildObservation();
    const Matrix &obs = batch->pool().obs();
    EXPECT_EQ(0, std::memcmp(obs.rowPtr(0), want.data(),
                             want.size() * sizeof(float)));
}

TEST(BatchEnvGuard, PpoRolloutsMatchSyncBitwise)
{
    // CI smoke guard: two epochs of PPO through the batch engine must
    // be indistinguishable from the sync path — identical telemetry
    // and identical weights.
    PpoConfig cfg;
    cfg.seed = 51;
    cfg.stepsPerEpoch = 400;
    cfg.minibatchSize = 200;

    const EnvConfig env_cfg = tinyEnvConfig(700);
    auto sync = makeVecEnv("guessing_game", env_cfg, 4, VecEnvKind::Sync);
    auto batch =
        makeVecEnv("guessing_game", env_cfg, 4, VecEnvKind::Batch);
    PpoTrainer sync_trainer(*sync, cfg);
    PpoTrainer batch_trainer(*batch, cfg);

    for (int e = 0; e < 2; ++e) {
        const EpochStats a = sync_trainer.runEpoch();
        const EpochStats b = batch_trainer.runEpoch();
        EXPECT_DOUBLE_EQ(a.meanReturn, b.meanReturn) << "epoch " << e;
        EXPECT_DOUBLE_EQ(a.meanEpisodeLength, b.meanEpisodeLength);
        EXPECT_DOUBLE_EQ(a.policyLoss, b.policyLoss) << "epoch " << e;
        EXPECT_DOUBLE_EQ(a.valueLoss, b.valueLoss) << "epoch " << e;
        EXPECT_DOUBLE_EQ(a.entropy, b.entropy) << "epoch " << e;
    }

    Matrix probe(4, static_cast<std::size_t>(sync->observationSize()));
    Rng rng(99);
    for (std::size_t i = 0; i < probe.size(); ++i)
        probe.data()[i] = static_cast<float>(rng.gaussian());
    AcOutput oa, ob;
    sync_trainer.policy().forwardNoGrad(probe, oa);
    batch_trainer.policy().forwardNoGrad(probe, ob);
    ASSERT_EQ(oa.logits.size(), ob.logits.size());
    EXPECT_EQ(0, std::memcmp(oa.logits.data(), ob.logits.data(),
                             oa.logits.size() * sizeof(float)));
}

TEST(BatchEnvGuard, EvaluationDoesNotDesyncLaterEpochs)
{
    // evaluate() steps the pool envs directly between epochs; the next
    // collect must restart cleanly and keep matching the sync path.
    PpoConfig cfg;
    cfg.seed = 53;
    cfg.stepsPerEpoch = 300;
    cfg.minibatchSize = 150;

    const EnvConfig env_cfg = tinyEnvConfig(800);
    auto sync = makeVecEnv("guessing_game", env_cfg, 3, VecEnvKind::Sync);
    auto batch =
        makeVecEnv("guessing_game", env_cfg, 3, VecEnvKind::Batch);
    PpoTrainer sync_trainer(*sync, cfg);
    PpoTrainer batch_trainer(*batch, cfg);

    sync_trainer.runEpoch();
    batch_trainer.runEpoch();
    const EvalStats ea = sync_trainer.evaluate(6);
    const EvalStats eb = batch_trainer.evaluate(6);
    EXPECT_DOUBLE_EQ(ea.meanReturn, eb.meanReturn);
    EXPECT_EQ(ea.guesses, eb.guesses);

    const EpochStats a = sync_trainer.runEpoch();
    const EpochStats b = batch_trainer.runEpoch();
    EXPECT_DOUBLE_EQ(a.meanReturn, b.meanReturn);
    EXPECT_DOUBLE_EQ(a.policyLoss, b.policyLoss);
    EXPECT_DOUBLE_EQ(a.valueLoss, b.valueLoss);
}

// ------------------------------------- concurrent greedy evaluation --

std::string
hexEval(const EvalStats &s)
{
    std::ostringstream os;
    os << std::hexfloat << "return " << s.meanReturn << " length "
       << s.meanEpisodeLength << " accuracy " << s.guessAccuracy
       << " bit rate " << s.bitRate << " detection " << s.detectionRate
       << " episodes " << s.episodes << " guesses " << s.guesses;
    return os.str();
}

std::string
hexEpoch(const EpochStats &s)
{
    std::ostringstream os;
    os << std::hexfloat << "epoch " << s.epoch << " return " << s.meanReturn
       << " length " << s.meanEpisodeLength << " pi " << s.policyLoss
       << " v " << s.valueLoss << " entropy " << s.entropy;
    return os.str();
}

std::string
checkpointBytes(PpoTrainer &trainer)
{
    std::ostringstream os(std::ios::binary);
    writePpoCheckpoint(os, trainer);
    return os.str();
}

/** What one trainer did: its evaluation, then the epoch after it. */
struct EvalRun
{
    std::string eval;
    std::string epoch;
    std::string state;  ///< checkpoint bytes after that epoch
};

/**
 * One epoch, then @p episodes greedy episodes and one more epoch, on a
 * fresh trainer over @p streams streams of @p scenario. Before the
 * episodes the weights are redrawn at unit scale, so that the greedy
 * policy guesses, right and wrong, and trips detectors within a few
 * episodes. The subject evaluates through PpoTrainer::evaluate(), the
 * streams at once; the oracle plays the same episodes one at a time
 * through the one-policy runEpisodes() with a plain greedy lambda.
 */
EvalRun
evaluateOnce(const std::string &scenario, const EnvConfig &env_cfg,
             std::size_t streams, VecEnvKind kind, int episodes,
             bool oracle)
{
    PpoConfig cfg;
    cfg.seed = 61;
    cfg.stepsPerEpoch = 240;
    cfg.minibatchSize = 120;
    cfg.hidden = 32;
    auto vec = makeVecEnv(scenario, env_cfg, streams, kind);
    PpoTrainer trainer(*vec, cfg);
    trainer.runEpoch();
    Rng rng(6);
    for (const ParamBlock &b : trainer.policy().paramBlocks())
        for (std::size_t i = 0; i < b.size; ++i)
            b.params[i] = static_cast<float>(rng.gaussian());

    EvalRun run;
    if (oracle) {
        ActorCritic &net = trainer.policy();
        const EpisodePolicy greedy = [&net](Environment &env,
                                            const std::vector<float> &obs,
                                            const StepInfo *) {
            const AcOutput &out = net.forwardOne(obs);
            const std::uint8_t *m = env.actionMask();
            return m ? net.argmaxMasked(out.logits, 0, m)
                     : net.argmax(out.logits, 0);
        };
        run.eval = hexEval(runEpisodes(*vec, episodes, greedy));
        trainer.restartCollection();
    } else {
        run.eval = hexEval(trainer.evaluate(episodes));
    }
    run.epoch = hexEpoch(trainer.runEpoch());
    run.state = checkpointBytes(trainer);
    return run;
}

/**
 * Greedy evaluate() equals the serial oracle field by field at budgets
 * 1, 2 and 4 and on the AVX2 and portable tiers, and the epoch after it
 * leaves the same stats and checkpoint, so every stream's environment
 * and RNG end where the one-at-a-time order leaves them.
 */
void
expectEvaluateMatchesSerialOracle(const std::string &scenario,
                                  const EnvConfig &env_cfg)
{
    struct Layout
    {
        std::size_t streams;
        int episodes;
    };
    for (const VecEnvKind kind : {VecEnvKind::Sync, VecEnvKind::Batch}) {
        for (const Layout layout : {Layout{4, 7}, Layout{4, 2}, Layout{1, 3}}) {
            const auto at = [&](std::size_t threads, bool oracle) {
                const MatThreadScope budget(threads);
                return evaluateOnce(scenario, env_cfg, layout.streams, kind,
                                    layout.episodes, oracle);
            };
            const std::string where =
                scenario + (kind == VecEnvKind::Batch ? " batch " : " sync ") +
                std::to_string(layout.episodes) + " episodes on " +
                std::to_string(layout.streams) + " streams";
            const EvalRun want = at(1, true);
            for (const std::size_t threads : {1, 2, 4}) {
                const EvalRun got = at(threads, false);
                EXPECT_EQ(got.eval, want.eval) << where << ", " << threads;
                EXPECT_EQ(got.epoch, want.epoch) << where << ", " << threads;
                EXPECT_TRUE(got.state == want.state)
                    << where << ", " << threads << " threads: checkpoint";
            }
            for (const detail::MatTier tier :
                 {detail::MatTier::Avx2, detail::MatTier::Portable}) {
                const detail::MatTierScope cap(tier);
                const EvalRun oracle = at(1, true);
                const EvalRun got = at(4, false);
                const char *name =
                    tier == detail::MatTier::Avx2 ? "avx2" : "portable";
                EXPECT_EQ(got.eval, oracle.eval) << where << ", " << name;
                EXPECT_EQ(got.epoch, oracle.epoch) << where << ", " << name;
                EXPECT_TRUE(got.state == oracle.state)
                    << where << ", " << name << ": checkpoint";
            }
        }
    }
}

TEST(ConcurrentEvaluate, MultiSecretDetectorMatchesSerialOracle)
{
    // CC-Hunter in the loop over multi-secret episodes on the Table VIII
    // cache (4-set direct-mapped, victim 0-3, attacker 4-7): the
    // detection rate is part of the tally.
    EnvConfig cfg = tinyEnvConfig(900);
    cfg.cache.numSets = 4;
    cfg.cache.numWays = 1;
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 4;
    cfg.attackAddrE = 7;
    cfg.victimAddrE = 3;
    cfg.victimNoAccessEnable = false;
    cfg.windowSize = 16;
    cfg.multiSecret = true;
    cfg.multiSecretEpisodeSteps = 64;
    expectEvaluateMatchesSerialOracle("cchunter_bypass", cfg);
}

TEST(ConcurrentEvaluate, MaskedGuessingGameMatchesSerialOracle)
{
    EnvConfig cfg = tinyEnvConfig(910);
    cfg.maskActions = true;
    cfg.maskUselessActions = true;
    expectEvaluateMatchesSerialOracle("guessing_game", cfg);
}

} // namespace
} // namespace autocat
