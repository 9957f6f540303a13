/**
 * @file
 * Tests of the campaign subsystem (core/campaign.hpp): curriculum
 * phases, detector-in-the-loop registry scenarios, mid-campaign
 * checkpoint/resume bit-identity, campaign config keys, and campaign
 * sweep cells.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/campaign.hpp"
#include "core/campaign_config.hpp"
#include "env/env_registry.hpp"
#include "env/guessing_game.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "eval/sweep_config.hpp"
#include "rl/checkpoint.hpp"

namespace autocat {
namespace {

ExplorationConfig
tinyBase(std::uint64_t seed = 13)
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
    cfg.env.seed = seed;
    cfg.ppo.seed = 17;
    cfg.ppo.stepsPerEpoch = 300;
    cfg.ppo.hidden = 16;
    cfg.evalEpisodes = 20;
    return cfg;
}

// ------------------------------------------------------ scenarios --

TEST(BypassScenarios, AreRegisteredByName)
{
    for (const char *name : {"miss_detect_terminate", "cchunter_bypass",
                             "cyclone_bypass"}) {
        EXPECT_TRUE(hasScenario(name)) << name;
    }
}

TEST(BypassScenarios, MissDetectTerminateForcesDetectionEnable)
{
    EnvConfig cfg = tinyBase().env;
    cfg.detectionEnable = false;  // the scenario must force it on
    auto env = makeEnv("miss_detect_terminate", cfg);
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    ASSERT_NE(game, nullptr);
    EXPECT_TRUE(game->config().detectionEnable);

    // Cold cache: triggering the victim misses -> detection ends the
    // episode (the default miss detector is live).
    game->reset();
    game->forceSecret(std::uint64_t{0});
    const StepResult sr =
        game->step(game->actionSpace().triggerIndex());
    EXPECT_TRUE(sr.done);
    EXPECT_TRUE(sr.info.detected);
}

TEST(BypassScenarios, TrainEndToEndThroughExplore)
{
    for (const char *scenario : {"miss_detect_terminate",
                                 "cchunter_bypass", "cyclone_bypass"}) {
        ExplorationConfig cfg = tinyBase();
        cfg.scenario = scenario;
        cfg.maxEpochs = 1;
        cfg.evalEpisodes = 10;
        const ExplorationResult result = explore(cfg);
        EXPECT_GT(result.envSteps, 0) << scenario;
        EXPECT_GE(result.detectionRate, 0.0) << scenario;
    }
}

TEST(BypassScenarios, ContextDetectorsReplaceTheDefault)
{
    // An explicit spec list replaces cyclone_bypass's built-in
    // detector; a miss detector in Terminate mode fires on the first
    // victim miss, which the default (Penalize-mode Cyclone) never
    // does.
    ScenarioContext ctx(tinyBase().env);
    ctx.env.detectionEnable = true;
    DetectorSpec miss;
    miss.kind = "miss";
    miss.mode = DetectorMode::Terminate;
    ctx.detectors.push_back(miss);

    auto env = makeEnv("cyclone_bypass", ctx);
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    ASSERT_NE(game, nullptr);
    game->reset();
    game->forceSecret(std::uint64_t{0});
    const StepResult sr =
        game->step(game->actionSpace().triggerIndex());
    EXPECT_TRUE(sr.info.detected);
}

TEST(BypassScenarios, DetectorsRejectedOnNonGameScenario)
{
    struct Dummy : Environment
    {
        std::size_t observationSize() const override { return 1; }
        std::size_t numActions() const override { return 1; }
        std::vector<float> reset() override { return {0.0f}; }
        StepResult step(std::size_t) override { return {}; }
    };
    registerScenario("test_non_game", [](const ScenarioContext &) {
        return std::make_unique<Dummy>();
    });
    ScenarioContext ctx(tinyBase().env);
    DetectorSpec miss;
    miss.kind = "miss";
    ctx.detectors.push_back(miss);
    EXPECT_THROW(makeEnv("test_non_game", ctx), std::invalid_argument);
}

// ------------------------------------------------------- campaigns --

TEST(Campaign, TwoPhaseCurriculumRunsEndToEnd)
{
    CampaignConfig campaign;
    campaign.base = tinyBase();

    CurriculumPhase clean;
    clean.name = "warmup";
    clean.maxEpochs = 2;
    CurriculumPhase bypass;
    bypass.name = "bypass";
    bypass.scenario = "miss_detect_terminate";
    bypass.maxEpochs = 2;
    DetectorSpec miss;
    miss.kind = "miss";
    miss.mode = DetectorMode::Penalize;
    bypass.detectors.push_back(miss);
    campaign.phases = {clean, bypass};

    std::vector<std::string> seen;
    const CampaignResult result = runCampaign(
        campaign, {},
        [&](std::size_t index, const PhaseResult &phase) {
            seen.push_back(std::to_string(index) + ":" + phase.name);
        });

    ASSERT_EQ(result.phases.size(), 2u);
    EXPECT_EQ(result.phases[0].name, "warmup");
    EXPECT_EQ(result.phases[1].name, "bypass");
    EXPECT_EQ(result.phases[0].epochsRun, 2);
    EXPECT_EQ(result.phases[1].epochsRun, 2);
    EXPECT_GT(result.phases[1].envStepsEnd,
              result.phases[0].envStepsEnd);
    EXPECT_EQ(result.final.envSteps, result.phases[1].envStepsEnd);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], "0:warmup");
    EXPECT_EQ(seen[1], "1:bypass");
    EXPECT_FALSE(result.resumed);
}

TEST(Campaign, RewardOverridesApplyPerPhase)
{
    CurriculumPhase phase;
    phase.rewards.stepReward = -0.5;
    phase.rewards.correctGuessReward = 3.0;
    EnvConfig env = tinyBase().env;
    phase.rewards.apply(env);
    EXPECT_DOUBLE_EQ(env.stepReward, -0.5);
    EXPECT_DOUBLE_EQ(env.correctGuessReward, 3.0);
    // Unset fields keep the base values.
    EXPECT_DOUBLE_EQ(env.wrongGuessReward, -1.0);
}

TEST(Campaign, LegacySinglePhaseMatchesExploreBitForBit)
{
    ExplorationConfig cfg = tinyBase();
    cfg.maxEpochs = 3;
    cfg.targetAccuracy = 2.0;  // unreachable: run all 3 epochs

    const ExplorationResult via_explore = explore(cfg);

    CampaignConfig campaign;
    campaign.base = cfg;
    const CampaignResult via_campaign = runCampaign(campaign);

    EXPECT_EQ(via_explore.converged, via_campaign.final.converged);
    EXPECT_EQ(via_explore.envSteps, via_campaign.final.envSteps);
    EXPECT_DOUBLE_EQ(via_explore.finalAccuracy,
                     via_campaign.final.finalAccuracy);
    EXPECT_DOUBLE_EQ(via_explore.finalEpisodeLength,
                     via_campaign.final.finalEpisodeLength);
    EXPECT_EQ(via_explore.sequence.toString(),
              via_campaign.final.sequence.toString());
    EXPECT_EQ(via_explore.finalGuess, via_campaign.final.finalGuess);
}

TEST(Campaign, ResumeFromMidCampaignCheckpointIsBitIdentical)
{
    const std::string path_a =
        ::testing::TempDir() + "autocat_campaign_a.ckpt";
    const std::string path_b =
        ::testing::TempDir() + "autocat_campaign_b.ckpt";
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());

    const auto make_campaign = [&](const std::string &path) {
        CampaignConfig campaign;
        campaign.base = tinyBase();
        CurriculumPhase clean;
        clean.name = "warmup";
        clean.maxEpochs = 2;
        CurriculumPhase bypass;
        bypass.name = "bypass";
        bypass.scenario = "miss_detect_terminate";
        bypass.maxEpochs = 2;
        campaign.phases = {clean, bypass};
        campaign.checkpointPath = path;
        campaign.checkpointEvery = 1;
        campaign.resume = true;
        return campaign;
    };

    // Run A: uninterrupted.
    TrainingSession session_a(make_campaign(path_a));
    const CampaignResult result_a = session_a.run();
    std::ostringstream final_a(std::ios::binary);
    writePpoCheckpoint(final_a, session_a.trainer());

    // Run B1: abort right after the mid-phase-1 checkpoint (global
    // epoch 3 = phase "bypass", epoch 1).
    struct Abort
    {
    };
    TrainingSession session_b1(make_campaign(path_b));
    try {
        session_b1.run({}, {},
                       [&](const std::string &, std::size_t phase,
                           int epochs_done) {
                           if (phase == 1 && epochs_done == 1)
                               throw Abort{};
                       });
        FAIL() << "expected the abort to propagate";
    } catch (const Abort &) {
    }

    // Run B2: resume from the interrupted file and finish.
    TrainingSession session_b2(make_campaign(path_b));
    const CampaignResult result_b = session_b2.run();
    EXPECT_TRUE(result_b.resumed);

    // Bit-identical continuation: same final trainer state, same final
    // metrics, same phase bookkeeping, same on-disk final checkpoint.
    std::ostringstream final_b(std::ios::binary);
    writePpoCheckpoint(final_b, session_b2.trainer());
    EXPECT_EQ(final_a.str(), final_b.str());
    EXPECT_EQ(result_a.final.envSteps, result_b.final.envSteps);
    EXPECT_DOUBLE_EQ(result_a.final.finalAccuracy,
                     result_b.final.finalAccuracy);
    EXPECT_DOUBLE_EQ(result_a.final.detectionRate,
                     result_b.final.detectionRate);
    EXPECT_EQ(result_a.final.sequence.toString(),
              result_b.final.sequence.toString());
    ASSERT_EQ(result_a.phases.size(), result_b.phases.size());
    for (std::size_t i = 0; i < result_a.phases.size(); ++i) {
        EXPECT_EQ(result_a.phases[i].epochsRun,
                  result_b.phases[i].epochsRun);
        EXPECT_DOUBLE_EQ(result_a.phases[i].finalEval.guessAccuracy,
                         result_b.phases[i].finalEval.guessAccuracy);
    }

    // The final checkpoint files themselves must agree byte-for-byte.
    std::ifstream fa(path_a, std::ios::binary);
    std::ifstream fb(path_b, std::ios::binary);
    std::stringstream ca, cb;
    ca << fa.rdbuf();
    cb << fb.rdbuf();
    EXPECT_EQ(ca.str(), cb.str());

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Campaign, ResumeFromPhaseEndCheckpointIsBitIdentical)
{
    // Phase-end checkpoints (checkpointEvery = 0, the default) are the
    // other resume entry point: the campaign position is (next phase,
    // epoch 0), and both runs must enter the new phase in the same
    // boundary-synced state.
    const std::string path_a =
        ::testing::TempDir() + "autocat_phase_end_a.ckpt";
    const std::string path_b =
        ::testing::TempDir() + "autocat_phase_end_b.ckpt";
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());

    const auto make_campaign = [&](const std::string &path) {
        CampaignConfig campaign;
        campaign.base = tinyBase();
        CurriculumPhase clean;
        clean.name = "warmup";
        clean.maxEpochs = 2;
        CurriculumPhase bypass;
        bypass.name = "bypass";
        bypass.scenario = "miss_detect_terminate";
        bypass.maxEpochs = 2;
        campaign.phases = {clean, bypass};
        campaign.checkpointPath = path;
        campaign.resume = true;
        return campaign;
    };

    TrainingSession session_a(make_campaign(path_a));
    const CampaignResult result_a = session_a.run();
    std::ostringstream final_a(std::ios::binary);
    writePpoCheckpoint(final_a, session_a.trainer());

    // Abort exactly at the end-of-phase-0 checkpoint (position 1, 0).
    struct Abort
    {
    };
    TrainingSession session_b1(make_campaign(path_b));
    try {
        session_b1.run({}, {},
                       [&](const std::string &, std::size_t phase,
                           int epochs_done) {
                           if (phase == 1 && epochs_done == 0)
                               throw Abort{};
                       });
        FAIL() << "expected the abort to propagate";
    } catch (const Abort &) {
    }

    TrainingSession session_b2(make_campaign(path_b));
    const CampaignResult result_b = session_b2.run();
    EXPECT_TRUE(result_b.resumed);

    std::ostringstream final_b(std::ios::binary);
    writePpoCheckpoint(final_b, session_b2.trainer());
    EXPECT_EQ(final_a.str(), final_b.str());
    EXPECT_DOUBLE_EQ(result_a.final.finalAccuracy,
                     result_b.final.finalAccuracy);
    EXPECT_DOUBLE_EQ(result_a.final.detectionRate,
                     result_b.final.detectionRate);
    EXPECT_EQ(result_a.final.sequence.toString(),
              result_b.final.sequence.toString());

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

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

/** The Tables VIII/IX curriculum (bench/bench_common.hpp's
 *  channelCampaign) at a tiny budget, CC-Hunter in the channel
 *  phases. */
CampaignConfig
tinyChannelCampaign()
{
    CampaignConfig campaign;
    EnvConfig &env = campaign.base.env;
    env.cache.numSets = 4;
    env.cache.numWays = 1;
    env.cache.policy = ReplPolicy::Lru;
    env.cache.addressSpaceSize = 8;
    env.attackAddrS = 4;
    env.attackAddrE = 7;
    env.victimAddrS = 0;
    env.victimAddrE = 3;
    env.multiSecret = true;
    env.multiSecretEpisodeSteps = 160;
    env.windowSize = 16;
    env.seed = 7;
    campaign.base.ppo.seed = 57;
    campaign.base.ppo.stepsPerEpoch = 320;
    campaign.base.ppo.hidden = 16;
    campaign.base.evalEpisodes = 4;

    DetectorSpec cchunter;
    cchunter.kind = "cchunter";
    cchunter.penalty = -30.0;

    CurriculumPhase one_shot;
    one_shot.name = "one-shot";
    one_shot.multiSecret = false;
    one_shot.maxEpochs = 2;
    one_shot.targetAccuracy = 0.98;
    CurriculumPhase short_channel;
    short_channel.name = "short-channel";
    short_channel.multiSecretEpisodeSteps = 32;
    short_channel.maxEpochs = 1;
    short_channel.detectors = {cchunter};
    CurriculumPhase channel;
    channel.name = "channel";
    channel.maxEpochs = 1;
    channel.detectors = {cchunter};
    campaign.phases = {one_shot, short_channel, channel};
    return campaign;
}

TEST(Campaign, ChannelCurriculumSwitchesEpisodeModes)
{
    const CampaignResult a = runCampaign(tinyChannelCampaign());
    const CampaignResult b = runCampaign(tinyChannelCampaign());

    ASSERT_EQ(a.phases.size(), 3u);
    EXPECT_EQ(a.phases[0].name, "one-shot");
    EXPECT_EQ(a.phases[1].name, "short-channel");
    EXPECT_EQ(a.phases[2].name, "channel");
    // Multi-secret episodes run their fixed length whatever the policy
    // does, so the phase overrides show in the greedy eval.
    EXPECT_EQ(a.phases[1].finalEval.meanEpisodeLength, 32.0);
    EXPECT_EQ(a.phases[2].finalEval.meanEpisodeLength, 160.0);
    EXPECT_GT(a.phases[1].envStepsEnd, a.phases[0].envStepsEnd);
    EXPECT_GT(a.phases[2].envStepsEnd, a.phases[1].envStepsEnd);

    ASSERT_EQ(b.phases.size(), a.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].epochsRun, b.phases[i].epochsRun) << i;
        EXPECT_EQ(a.phases[i].envStepsEnd, b.phases[i].envStepsEnd) << i;
        EXPECT_EQ(hexEval(a.phases[i].finalEval),
                  hexEval(b.phases[i].finalEval))
            << a.phases[i].name;
    }
}

TEST(Campaign, NoGuessReplayIsUnclassified)
{
    // e2ebench's multisecret_detector cell (Table VIII cache, 160-step
    // multi-secret episodes, CC-Hunter, a fixed 10-epoch budget) at
    // grid seed 1 ends with a greedy policy that never guesses: its
    // replay is no attack.
    const SweepConfig sweep = parseSweepConfig(std::string(R"(
        num_sets = 4
        num_ways = 1
        rep_policy = lru
        address_space = 8
        attack_addr_s = 4
        attack_addr_e = 7
        victim_addr_s = 0
        victim_addr_e = 3
        victim_no_access_enable = false
        multi_secret = true
        multi_secret_episode_steps = 160
        window_size = 16
        num_streams = 4
        batch_env = true
        steps_per_epoch = 3000
        eval_episodes = 100
        sweep.name = multisecret_detector
        sweep.scenarios = cchunter_bypass
        sweep.seeds = 1
        phase[0].max_epochs = 10
    )"));
    const std::vector<SweepCell> cells = expandSweepGrid(sweep);
    ASSERT_EQ(cells.size(), 1u);
    CampaignConfig campaign;
    campaign.base = cells[0].config;
    campaign.phases = cells[0].phases;

    const ExplorationResult result = runCampaign(campaign).final;
    EXPECT_EQ(result.finalAccuracy, 0.0);
    EXPECT_TRUE(result.finalGuess.empty());
    EXPECT_FALSE(result.sequence.toString().empty());
    EXPECT_STREQ(categoryLabel(result.category), "?");
}

TEST(Campaign, ResumeWithMissingFileStartsFresh)
{
    CampaignConfig campaign;
    campaign.base = tinyBase();
    CurriculumPhase only;
    only.maxEpochs = 1;
    campaign.phases = {only};
    campaign.checkpointPath =
        ::testing::TempDir() + "autocat_campaign_fresh.ckpt";
    std::remove(campaign.checkpointPath.c_str());
    campaign.resume = true;
    const CampaignResult result = runCampaign(campaign);
    EXPECT_FALSE(result.resumed);
    EXPECT_EQ(result.phases.size(), 1u);
    std::remove(campaign.checkpointPath.c_str());
}

// --------------------------------------------------- config keys --

TEST(CampaignConfig, ParsesCampaignAndPhaseKeys)
{
    const CampaignConfig cfg = parseCampaignConfig(std::string(R"(
        num_ways = 2
        campaign.checkpoint_path = run.ckpt
        campaign.checkpoint_every = 5
        campaign.resume = true
        phase[0].name = warmup
        phase[0].max_epochs = 30
        phase[0].target_accuracy = 0.95
        phase[1].name = bypass
        phase[1].scenario = cyclone_bypass
        phase[1].max_epochs = 40
        phase[1].max_detection_rate = 0.05
        phase[1].detector = cyclone
        phase[1].detector_mode = penalize
        phase[1].detector_penalty = -6.0
        phase[1].detector_interval = 32
        phase[1].multi_secret = true
        phase[1].multi_secret_episode_steps = 64
        phase[1].step_reward = -0.02
    )"));

    EXPECT_EQ(cfg.checkpointPath, "run.ckpt");
    EXPECT_EQ(cfg.checkpointEvery, 5);
    EXPECT_TRUE(cfg.resume);
    ASSERT_EQ(cfg.phases.size(), 2u);
    EXPECT_EQ(cfg.phases[0].name, "warmup");
    EXPECT_EQ(cfg.phases[0].maxEpochs, 30);
    EXPECT_DOUBLE_EQ(cfg.phases[0].targetAccuracy, 0.95);
    EXPECT_TRUE(cfg.phases[0].detectors.empty());
    EXPECT_EQ(cfg.phases[1].scenario, "cyclone_bypass");
    EXPECT_DOUBLE_EQ(cfg.phases[1].maxDetectionRate, 0.05);
    ASSERT_EQ(cfg.phases[1].detectors.size(), 1u);
    EXPECT_EQ(cfg.phases[1].detectors[0].kind, "cyclone");
    EXPECT_EQ(cfg.phases[1].detectors[0].mode, DetectorMode::Penalize);
    EXPECT_DOUBLE_EQ(cfg.phases[1].detectors[0].penalty, -6.0);
    EXPECT_EQ(cfg.phases[1].detectors[0].cycloneInterval, 32u);
    ASSERT_TRUE(cfg.phases[1].multiSecret.has_value());
    EXPECT_TRUE(*cfg.phases[1].multiSecret);
    ASSERT_TRUE(cfg.phases[1].rewards.stepReward.has_value());
    EXPECT_DOUBLE_EQ(*cfg.phases[1].rewards.stepReward, -0.02);
}

TEST(CampaignConfig, BadKeysFailLoudly)
{
    EXPECT_THROW(
        parseCampaignConfig(std::string("campaign.bogus = 1")),
        std::invalid_argument);
    EXPECT_THROW(
        parseCampaignConfig(std::string("phase[0].bogus = 1")),
        std::invalid_argument);
    EXPECT_THROW(
        parseCampaignConfig(std::string("phase[0z].max_epochs = 1")),
        std::invalid_argument);
    EXPECT_THROW(
        parseCampaignConfig(std::string("phase[99].max_epochs = 1")),
        std::invalid_argument);
    EXPECT_THROW(
        parseCampaignConfig(
            std::string("phase[0].detector = warp_field")),
        std::invalid_argument);
    EXPECT_THROW(
        parseCampaignConfig(
            std::string("phase[0].detector_mode = sometimes")),
        std::invalid_argument);
    // Detector parameters without a detector kind must fail at parse
    // time (order-independent, so checked after the whole file), not
    // deep inside a campaign run.
    EXPECT_THROW(
        parseCampaignConfig(
            std::string("phase[0].detector_penalty = -2")),
        std::invalid_argument);
    EXPECT_THROW(
        parseSweepConfig(
            std::string("phase[0].detector_mode = penalize")),
        std::invalid_argument);
    // ...while the same parameters WITH a kind parse fine in any order.
    const CampaignConfig ok = parseCampaignConfig(std::string(
        "phase[0].detector_penalty = -2\nphase[0].detector = miss"));
    ASSERT_EQ(ok.phases[0].detectors.size(), 1u);
    EXPECT_EQ(ok.phases[0].detectors[0].kind, "miss");
}

TEST(CampaignConfig, RenderParseRenderIsAFixedPoint)
{
    CampaignConfig cfg;
    cfg.base = tinyBase();
    cfg.checkpointPath = "bypass.ckpt";
    cfg.checkpointEvery = 3;
    CurriculumPhase warm;
    warm.name = "warmup";
    warm.maxEpochs = 12;
    warm.targetAccuracy = 0.9;
    CurriculumPhase bypass;
    bypass.scenario = "cchunter_bypass";
    bypass.maxEpochs = 20;
    bypass.maxDetectionRate = 0.1;
    DetectorSpec cchunter;
    cchunter.kind = "cchunter";
    cchunter.penalty = -4.0;
    bypass.detectors.push_back(cchunter);
    bypass.rewards.stepReward = -0.05;
    bypass.multiSecret = true;
    cfg.phases = {warm, bypass};

    const std::string once = renderCampaignConfig(cfg);
    const CampaignConfig reparsed = parseCampaignConfig(once);
    const std::string twice = renderCampaignConfig(reparsed);
    EXPECT_EQ(once, twice);
    ASSERT_EQ(reparsed.phases.size(), 2u);
    EXPECT_EQ(reparsed.phases[1].scenario, "cchunter_bypass");
}

// ------------------------------------------------- campaign sweeps --

TEST(CampaignSweep, BypassCellsRunThroughRunSweepCells)
{
    SweepConfig sweep;
    sweep.name = "bypass-cells";
    sweep.base = tinyBase();
    sweep.base.maxEpochs = 1;
    sweep.base.evalEpisodes = 10;
    sweep.grid.scenarios = {"miss_detect_terminate", "cchunter_bypass"};
    sweep.grid.seeds = {7};

    CurriculumPhase clean;
    clean.name = "warmup";
    clean.scenario = "guessing_game";
    clean.maxEpochs = 1;
    CurriculumPhase bypass;
    bypass.name = "bypass";  // scenario empty: inherits the cell's
    bypass.maxEpochs = 1;
    sweep.phases = {clean, bypass};

    SweepRunner runner(sweep);
    ASSERT_EQ(runner.cells().size(), 2u);
    EXPECT_EQ(runner.cells()[0].phases.size(), 2u);

    const SweepReport report = runner.run();
    ASSERT_EQ(report.cells.size(), 2u);
    for (const SweepCellResult &cell : report.cells) {
        EXPECT_TRUE(cell.completed) << cell.error;
        EXPECT_GT(cell.result.envSteps, 0);
    }

    // Detection-rate columns are part of the deterministic report.
    const std::string json = sweepReportJson(report);
    EXPECT_NE(json.find("\"detection_rate\""), std::string::npos);

    // Campaign cells keep the worker-count byte-determinism contract.
    SweepReport rerun = runSweepCells("bypass-cells",
                                      runner.cells(), /*workers=*/2);
    rerun.name = report.name;
    EXPECT_EQ(sweepReportJson(report), sweepReportJson(rerun));
}

TEST(CampaignSweep, SweepConfigCarriesPhaseKeys)
{
    SweepConfig cfg = parseSweepConfig(std::string(R"(
        num_ways = 2
        sweep.scenarios = miss_detect_terminate
        sweep.seeds = 7
        phase[0].name = warmup
        phase[0].scenario = guessing_game
        phase[0].max_epochs = 1
        phase[1].max_epochs = 1
    )"));
    ASSERT_EQ(cfg.phases.size(), 2u);
    EXPECT_EQ(cfg.phases[0].scenario, "guessing_game");

    const std::string once = renderSweepConfig(cfg);
    const SweepConfig reparsed = parseSweepConfig(once);
    EXPECT_EQ(renderSweepConfig(reparsed), once);
    ASSERT_EQ(reparsed.phases.size(), 2u);
}

} // namespace
} // namespace autocat
