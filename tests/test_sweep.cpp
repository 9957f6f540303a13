/**
 * @file
 * Sweep subsystem tests: grid expansion (scenario x policy x seed +
 * hardware-target rows), campaign execution on the worker pool with
 * per-cell failure capture, report rendering determinism (the JSON
 * byte-identity contract, independent of worker count), and the
 * sweep.* config round trip.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "eval/sweep_config.hpp"
#include "hw/machines.hpp"

namespace autocat {
namespace {

/** Cheapest possible real campaign: one epoch over a 2-block cache. */
SweepConfig
tinySweep()
{
    SweepConfig cfg;
    cfg.name = "tiny";
    cfg.base.env.cache.numSets = 1;
    cfg.base.env.cache.numWays = 2;
    cfg.base.env.cache.addressSpaceSize = 6;
    cfg.base.env.attackAddrS = 0;
    cfg.base.env.attackAddrE = 2;
    cfg.base.env.victimAddrS = 0;
    cfg.base.env.victimAddrE = 0;
    cfg.base.env.victimNoAccessEnable = true;
    cfg.base.env.windowSize = 8;
    cfg.base.ppo.stepsPerEpoch = 200;
    cfg.base.ppo.minibatchSize = 100;
    cfg.base.maxEpochs = 1;
    cfg.base.evalEpisodes = 5;
    return cfg;
}

TEST(SweepGridExpansion, CrossesScenarioPolicySeed)
{
    SweepConfig cfg = tinySweep();
    cfg.grid.scenarios = {"guessing_game", "l1l2_private"};
    cfg.grid.policies = {ReplPolicy::Lru, ReplPolicy::Rrip};
    cfg.grid.seeds = {3, 4};

    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 8u);

    // Expansion order: scenario-major, then policy, then seed.
    EXPECT_EQ(cells[0].label, "guessing_game/lru/s3");
    EXPECT_EQ(cells[1].label, "guessing_game/lru/s4");
    EXPECT_EQ(cells[2].label, "guessing_game/rrip/s3");
    EXPECT_EQ(cells[4].label, "l1l2_private/lru/s3");
    EXPECT_EQ(cells[7].label, "l1l2_private/rrip/s4");

    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].index, i);
        EXPECT_EQ(cells[i].config.env.seed, cells[i].seed);
        // PPO seeds must be decorrelated across grid seeds but fully
        // derived from them (campaign determinism).
        EXPECT_EQ(cells[i].config.ppo.seed,
                  cfg.base.ppo.seed + 1000003ull * cells[i].seed);
    }
    EXPECT_EQ(cells[2].config.env.cache.policy, ReplPolicy::Rrip);
    EXPECT_EQ(cells[0].config.env.cache.policy, ReplPolicy::Lru);
}

TEST(SweepGridExpansion, EmptyDimensionsFallBackToBase)
{
    SweepConfig cfg = tinySweep();
    cfg.base.scenario = "l2_exclusive";
    cfg.base.env.seed = 11;
    cfg.base.env.cache.policy = ReplPolicy::TreePlru;

    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].scenario, "l2_exclusive");
    EXPECT_EQ(cells[0].seed, 11u);
    EXPECT_EQ(cells[0].policy, "plru");
    EXPECT_EQ(cells[0].config.env.cache.policy, ReplPolicy::TreePlru);
}

TEST(SweepGridExpansion, AppliesPolicyToExplicitHierarchyOuterLevel)
{
    SweepConfig cfg = tinySweep();
    CacheConfig lvl = cfg.base.env.cache;
    cfg.base.env.hierarchy = HierarchyConfig::twoLevel(lvl, lvl);
    cfg.grid.policies = {ReplPolicy::Rrip};

    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].config.env.hierarchy.levels.back().cache.policy,
              ReplPolicy::Rrip);
    // The inner level keeps its own policy: the grid dimension targets
    // the attacked (outermost) level only.
    EXPECT_EQ(cells[0].config.env.hierarchy.levels.front().cache.policy,
              lvl.policy);
}

TEST(SweepGridExpansion, ExplicitHierarchyRejectsMultiScenarioGrids)
{
    // Explicit hierarchy.levels[*] override every scenario's level
    // synthesis, so a multi-scenario grid would train identical cells
    // under different labels — that must fail, not silently waste the
    // campaign.
    SweepConfig cfg = tinySweep();
    CacheConfig lvl = cfg.base.env.cache;
    cfg.base.env.hierarchy = HierarchyConfig::twoLevel(lvl, lvl);
    cfg.grid.scenarios = {"l1l2_private", "l2_exclusive"};
    EXPECT_THROW(expandSweepGrid(cfg), std::invalid_argument);

    // A single scenario over the explicit hierarchy stays valid.
    cfg.grid.scenarios = {"guessing_game"};
    EXPECT_EQ(expandSweepGrid(cfg).size(), 1u);
}

TEST(SweepGridExpansion, PolicyLabelReflectsExplicitHierarchyOuterLevel)
{
    // Without a policy grid, the label must report the attacked
    // (outermost) level's real policy, not the unused top-level key.
    SweepConfig cfg = tinySweep();
    CacheConfig lvl = cfg.base.env.cache;
    lvl.policy = ReplPolicy::Rrip;
    cfg.base.env.hierarchy =
        HierarchyConfig::twoLevel(cfg.base.env.cache, lvl);

    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].policy, "rrip");
}

TEST(SweepGridExpansion, UnknownScenarioFailsListingRegistry)
{
    SweepConfig cfg = tinySweep();
    cfg.grid.scenarios = {"no_such_scenario"};
    try {
        expandSweepGrid(cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no_such_scenario"), std::string::npos);
        // The error teaches the valid names.
        EXPECT_NE(msg.find("guessing_game"), std::string::npos);
        EXPECT_NE(msg.find("three_level"), std::string::npos);
    }
}

TEST(SweepGridExpansion, HardwareTargetRowsAppend)
{
    SweepConfig cfg = tinySweep();
    cfg.grid.scenarios = {"guessing_game"};
    cfg.grid.seeds = {5};
    cfg.grid.hardwareTargets = true;

    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    const auto presets = tableIIITargets();
    ASSERT_EQ(cells.size(), 1u + presets.size());

    for (std::size_t i = 0; i < presets.size(); ++i) {
        const SweepCell &cell = cells[1 + i];
        EXPECT_EQ(cell.scenario, "guessing_game");
        EXPECT_NE(cell.hierarchy.find(presets[i].cpu), std::string::npos);
        // The cell trains over the preset's hierarchy description.
        ASSERT_EQ(cell.config.env.hierarchy.depth(), 1u);
        EXPECT_EQ(cell.config.env.hierarchy.levels[0].cache.numWays,
                  presets[i].ways);
        EXPECT_EQ(cell.config.env.attackAddrE, presets[i].attackAddrE);
        // Undocumented policies are labeled, not leaked.
        EXPECT_EQ(cell.policy, presets[i].documented
                                   ? replPolicyName(presets[i].policy)
                                   : "n.o.d.");
    }
}

TEST(SweepRun, CapturesPerCellFailuresAndKeepsGoing)
{
    SweepConfig cfg = tinySweep();
    std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 1u);

    SweepCell broken = cells[0];
    broken.index = 1;
    broken.label = "broken";
    broken.config.scenario = "scenario_that_does_not_exist";
    cells.push_back(broken);

    const SweepReport report =
        runSweepCells("failures", std::move(cells), /*workers=*/2);
    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_TRUE(report.cells[0].completed);
    EXPECT_FALSE(report.cells[1].completed);
    EXPECT_NE(report.cells[1].error.find("scenario_that_does_not_exist"),
              std::string::npos);
    EXPECT_EQ(report.numFailed(), 1u);
}

TEST(SweepRun, ReportJsonIsByteIdenticalAcrossWorkerCounts)
{
    // The acceptance contract: the same sweep at the same seeds renders
    // the same bytes, no matter how the cells were scheduled.
    SweepConfig cfg = tinySweep();
    cfg.grid.scenarios = {"guessing_game", "l1l2_private"};
    cfg.grid.policies = {ReplPolicy::Lru, ReplPolicy::TreePlru};
    cfg.grid.seeds = {5};
    // Bakeoff rows (agent column, steps_to_discovery) are part of the
    // byte-identity contract too.
    cfg.bakeoffAgents = {"ppo_masked", "random_search"};
    cfg.maskedPenalty = 0.02;

    cfg.workers = 1;
    SweepRunner serial(cfg);
    cfg.workers = 4;
    SweepRunner pooled(cfg);

    const std::string a = sweepReportJson(serial.run());
    const std::string b = sweepReportJson(pooled.run());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"schema_version\": 2"), std::string::npos);
    EXPECT_NE(a.find("\"agent\": \"random_search\""), std::string::npos);
    EXPECT_NE(a.find("\"steps_to_discovery\""), std::string::npos);

    // Timing fields are opt-in precisely because they break identity.
    ReportOptions timing;
    timing.includeTiming = true;
    const std::string timed = sweepReportJson(serial.run(), timing);
    EXPECT_NE(timed.find("\"wall_s\""), std::string::npos);
    EXPECT_EQ(a.find("\"wall_s\""), std::string::npos);
}

TEST(SweepRun, ChannelScenarioReportBytesIdenticalAcrossWorkerCounts)
{
    // The byte-identity contract extends to the non-cache channels:
    // tlb_evict and prefetch_probe cells scheduled across different
    // worker counts must render the exact same report bytes. The
    // policy grid dimension lands on channel.tlb.policy for TLB cells.
    SweepConfig cfg = tinySweep();
    cfg.grid.scenarios = {"tlb_evict", "prefetch_probe"};
    cfg.grid.policies = {ReplPolicy::Lru, ReplPolicy::TreePlru};
    cfg.grid.seeds = {5};

    cfg.workers = 1;
    SweepRunner serial(cfg);
    cfg.workers = 3;
    SweepRunner pooled(cfg);

    const SweepReport serial_report = serial.run();
    const std::string a = sweepReportJson(serial_report);
    const std::string b = sweepReportJson(pooled.run());
    EXPECT_EQ(a, b);

    ASSERT_EQ(serial_report.cells.size(), 4u);
    for (const SweepCellResult &cell : serial_report.cells)
        EXPECT_TRUE(cell.completed) << cell.cell.label << ": " << cell.error;
    EXPECT_EQ(serial_report.cells[0].cell.label, "tlb_evict/lru/s5");
    EXPECT_EQ(serial_report.cells[3].cell.label, "prefetch_probe/plru/s5");
}

TEST(SweepRun, ChannelScenarioDistShardsMatchLocalBytes)
{
    // Same contract through the distributed service: channel-scenario
    // cells sharded over local runner_daemons (the --dist path through
    // SweepRunner) must reproduce the local workers=1 bytes. Spawns
    // the real runner_daemon, located via AUTOCAT_RUNNER_DAEMON (set
    // by CTest); skips when absent.
    const char *daemon = std::getenv("AUTOCAT_RUNNER_DAEMON");
    if (daemon == nullptr || *daemon == '\0')
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";

    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() /
        ("autocat_sweep_channel_dist_" + std::to_string(::getpid()));
    fs::remove_all(root);
    fs::create_directories(root);

    SweepConfig cfg = tinySweep();
    cfg.base.maxEpochs = 2;
    cfg.grid.scenarios = {"tlb_evict", "prefetch_probe"};
    cfg.grid.policies = {ReplPolicy::Lru};
    cfg.grid.seeds = {5};
    // A masked cell and a search cell ride along so the agent and
    // steps_to_discovery fields cross the worker wire (job/row v2)
    // and still reproduce the local bytes.
    cfg.bakeoffAgents = {"ppo_masked", "random_search"};
    cfg.maskedPenalty = 0.02;
    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 4u);

    // Matching checkpoint cadence on both sides keeps the epoch
    // boundaries (and so the trained bytes) identical.
    const SweepReport local = runSweepCells(
        cfg.name, cells, /*workers=*/1, {},
        (root / "local_ckpt").string(), /*checkpoint_every=*/1);

    SweepConfig dist_cfg = cfg;
    dist_cfg.distProcesses = 3;
    dist_cfg.daemonPath = daemon;
    dist_cfg.distWorkDir = (root / "work").string();
    dist_cfg.checkpointDir = (root / "ckpt").string();
    dist_cfg.checkpointInterval = 1;
    const SweepReport dist = SweepRunner(dist_cfg).run();

    EXPECT_EQ(dist.workersUsed, 3);
    ASSERT_EQ(dist.cells.size(), local.cells.size());
    for (const SweepCellResult &cell : dist.cells)
        EXPECT_TRUE(cell.completed) << cell.cell.label << ": " << cell.error;
    EXPECT_EQ(sweepReportJson(dist, {}), sweepReportJson(local, {}));
    fs::remove_all(root);
}

TEST(SweepRun, CsvAndSummaryTableCoverEveryCell)
{
    SweepConfig cfg = tinySweep();
    cfg.grid.policies = {ReplPolicy::Lru, ReplPolicy::TreePlru};
    SweepRunner runner(cfg);
    const SweepReport report = runner.run();

    std::ostringstream csv;
    writeSweepReportCsv(csv, report);
    std::size_t lines = 0;
    for (const char c : csv.str())
        lines += c == '\n';
    EXPECT_EQ(lines, 1u + report.cells.size());  // header + rows

    EXPECT_EQ(sweepSummaryTable(report).numRows(), report.cells.size());
}

TEST(SweepConfigFile, RoundTripIsAFixedPoint)
{
    const std::string text = R"(
        num_sets = 4
        num_ways = 2
        rep_policy = rrip
        window_size = 24
        hierarchy.num_cores = 2
        hierarchy.levels[0].num_sets = 4
        hierarchy.levels[0].num_ways = 1
        hierarchy.levels[0].shared = false
        hierarchy.levels[1].num_sets = 4
        hierarchy.levels[1].num_ways = 2
        hierarchy.levels[1].inclusion = exclusive
        sweep.name = fixture
        sweep.scenarios = l1l2_private, three_level
        sweep.policies = lru, rrip
        sweep.seeds = 1, 2, 3
        sweep.hardware_targets = true
        sweep.workers = 3
        sweep.include_timing = true
        sweep.report_json = out.json
        sweep.bakeoff_agents = ppo_masked, random_search
        sweep.bakeoff_scenarios = guessing_game
        sweep.masked_penalty = 0.02
    )";

    const SweepConfig parsed = parseSweepConfig(text);
    EXPECT_EQ(parsed.name, "fixture");
    ASSERT_EQ(parsed.grid.scenarios.size(), 2u);
    ASSERT_EQ(parsed.grid.policies.size(), 2u);
    EXPECT_EQ(parsed.grid.policies[1], ReplPolicy::Rrip);
    ASSERT_EQ(parsed.grid.seeds.size(), 3u);
    EXPECT_TRUE(parsed.grid.hardwareTargets);
    EXPECT_EQ(parsed.workers, 3);
    ASSERT_EQ(parsed.bakeoffAgents.size(), 2u);
    EXPECT_EQ(parsed.bakeoffAgents[0], "ppo_masked");
    ASSERT_EQ(parsed.bakeoffScenarios.size(), 1u);
    EXPECT_EQ(parsed.bakeoffScenarios[0], "guessing_game");
    EXPECT_EQ(parsed.maskedPenalty, 0.02);
    EXPECT_TRUE(parsed.includeTiming);
    EXPECT_EQ(parsed.reportJsonPath, "out.json");
    EXPECT_EQ(parsed.base.env.hierarchy.depth(), 2u);

    // serialize -> parse -> serialize must be a fixed point.
    const std::string once = renderSweepConfig(parsed);
    const std::string twice = renderSweepConfig(parseSweepConfig(once));
    EXPECT_EQ(once, twice);
}

TEST(SweepConfigFile, MalformedSweepKeysFailLoudly)
{
    EXPECT_THROW(parseSweepConfig(std::string("sweep.bogus = 1")),
                 std::invalid_argument);
    EXPECT_THROW(parseSweepConfig(std::string("sweep.policies = lru,,")),
                 std::invalid_argument);
    EXPECT_THROW(
        parseSweepConfig(std::string("sweep.policies = not_a_policy")),
        std::invalid_argument);
    EXPECT_THROW(parseSweepConfig(std::string("sweep.workers = 0")),
                 std::invalid_argument);
    // Numeric values are strict: no silent truncation or wrapping.
    EXPECT_THROW(parseSweepConfig(std::string("sweep.seeds = -1")),
                 std::invalid_argument);
    EXPECT_THROW(parseSweepConfig(std::string("sweep.seeds = 3abc")),
                 std::invalid_argument);
    EXPECT_THROW(parseSweepConfig(std::string("sweep.seeds = 7; 8")),
                 std::invalid_argument);
    EXPECT_THROW(
        parseSweepConfig(std::string(
            "sweep.seeds = 123456789012345678901234567890")),
        std::invalid_argument);
    EXPECT_THROW(parseSweepConfig(std::string("sweep.workers = 2x")),
                 std::invalid_argument);
    // A trailing comma is a dangling (empty) item, not a no-op.
    EXPECT_THROW(parseSweepConfig(std::string("sweep.seeds = 1, 2,")),
                 std::invalid_argument);
    EXPECT_THROW(
        parseSweepConfig(std::string("sweep.scenarios = a, b,")),
        std::invalid_argument);
    EXPECT_THROW(
        parseSweepConfig(std::string("sweep.hardware_targets = maybe")),
        std::invalid_argument);
    EXPECT_THROW(parseSweepConfig(std::string("sweep.scenarios =")),
                 std::invalid_argument);
    // Errors carry line numbers like the core parser's.
    try {
        parseSweepConfig(std::string("\n\nsweep.bogus = 1\n"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    }
}

TEST(SweepConfigFile, RenderRejectsUnrepresentableValues)
{
    // '#' begins a comment mid-line, so values containing it would
    // silently truncate on re-parse instead of round-tripping.
    SweepConfig cfg;
    cfg.name = "grid #3";
    EXPECT_THROW(renderSweepConfig(cfg), std::invalid_argument);
    cfg.name = "grid";
    cfg.reportJsonPath = "out#1.json";
    EXPECT_THROW(renderSweepConfig(cfg), std::invalid_argument);
    // Whitespace is trimmed on parse, and ',' splits list items.
    cfg.reportJsonPath.clear();
    cfg.name = "grid ";
    EXPECT_THROW(renderSweepConfig(cfg), std::invalid_argument);
    cfg.name = "grid";
    cfg.grid.scenarios = {"a,b"};
    EXPECT_THROW(renderSweepConfig(cfg), std::invalid_argument);
}

TEST(SweepConfigFile, HighPrecisionDoublesRoundTripExactly)
{
    SweepConfig cfg;
    cfg.base.ppo.lr = 1.0 / 3.0;
    cfg.base.env.stepReward = -0.012345678901234567;
    const SweepConfig reparsed =
        parseSweepConfig(renderSweepConfig(cfg));
    EXPECT_EQ(reparsed.base.ppo.lr, cfg.base.ppo.lr);
    EXPECT_EQ(reparsed.base.env.stepReward, cfg.base.env.stepReward);
}

TEST(SweepConfigFile, BaseKeysStillRejectTypos)
{
    EXPECT_THROW(parseSweepConfig(std::string("num_waysss = 4")),
                 std::invalid_argument);
}

} // namespace
} // namespace autocat
