/**
 * @file
 * Distributed sweep service tests: the cell job/row wire format
 * (round trips + corruption rejection), crash-safe checkpoint writes,
 * checkpointed in-process sweeps, and the scheduler's grid-level
 * checks on local daemon slots. Worker deaths, hangs and retry
 * budgets are tested in test_net, where the chaos and fake daemons
 * live.
 *
 * Scheduler tests spawn the real runner_daemon executable, located
 * via the AUTOCAT_RUNNER_DAEMON environment variable (set by CTest);
 * they skip when it is absent (e.g. running the binary by hand).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <unistd.h>

#include "core/config_parser.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "eval/sweep_config.hpp"
#include "serve/dist_scheduler.hpp"
#include "serve/wire.hpp"
#include "util/atomic_file.hpp"

namespace autocat {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory under the system temp root. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("autocat_dist_" + name + "_" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Cheapest real grid that exercises multiple cells: 2 scenarios x 2
 *  policies over a 2-block cache, two epochs per cell. */
SweepConfig
tinyDistSweep()
{
    SweepConfig cfg;
    cfg.name = "tiny-dist";
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
    cfg.base.maxEpochs = 2;
    cfg.base.evalEpisodes = 5;
    cfg.grid.scenarios = {"guessing_game", "l1l2_private"};
    cfg.grid.policies = {ReplPolicy::Lru, ReplPolicy::TreePlru};
    cfg.grid.seeds = {5};
    return cfg;
}

/** runner_daemon executable, or empty when the env var is unset. */
std::string
daemonPath()
{
    const char *p = std::getenv("AUTOCAT_RUNNER_DAEMON");
    return p ? p : "";
}

/** Run @p cells as one checkpointed grid on @p local_slots local
 *  daemons spawned from @p daemon, with scratch under @p root. */
SweepReport
runOnLocalDaemons(std::vector<SweepCell> cells, int local_slots,
                  const std::string &daemon, const fs::path &root)
{
    std::vector<ScheduledGrid> grids(1);
    grids[0].name = "tiny-dist";
    grids[0].cells = std::move(cells);
    grids[0].workDir = (root / "work").string();
    grids[0].checkpointDir = (root / "ckpt").string();
    grids[0].checkpointEvery = 1;
    FleetOptions fleet;
    fleet.localProcesses = local_slots;
    fleet.daemonPath = daemon;
    return std::move(runSweepGridsFleet(std::move(grids), fleet)[0]);
}

// --------------------------------------------------------------- wire

TEST(CellWire, JobRoundTripPreservesTheCell)
{
    std::vector<SweepCell> cells = expandSweepGrid(tinyDistSweep());
    ASSERT_GE(cells.size(), 2u);
    SweepCell &cell = cells[1];
    CurriculumPhase phase;
    phase.name = "clean";
    phase.maxEpochs = 2;
    phase.targetAccuracy = 0.9;
    cell.phases.push_back(phase);

    const SweepCell back = deserializeCellJob(serializeCellJob(cell));

    EXPECT_EQ(back.index, cell.index);
    EXPECT_EQ(back.label, cell.label);
    EXPECT_EQ(back.scenario, cell.scenario);
    EXPECT_EQ(back.hierarchy, cell.hierarchy);
    EXPECT_EQ(back.policy, cell.policy);
    EXPECT_EQ(back.seed, cell.seed);
    ASSERT_EQ(back.phases.size(), 1u);
    EXPECT_EQ(back.phases[0].name, "clean");
    EXPECT_EQ(back.phases[0].maxEpochs, 2);
    EXPECT_DOUBLE_EQ(back.phases[0].targetAccuracy, 0.9);
    // Renderer coverage IS wire coverage: whatever config state
    // survives render->parse must be exactly what came in. Comparing
    // rendered text covers every field the renderer knows about —
    // including the cell-critical ones (seeds, minibatch size, lambda,
    // layers) that a lossy wire would silently reset.
    EXPECT_EQ(renderExplorationConfig(back.config),
              renderExplorationConfig(cell.config));
}

TEST(CellWire, RowRoundTripPreservesTheOutcome)
{
    SweepCellResult row;
    row.cell.index = 7;
    row.completed = true;
    row.wallSeconds = 1.25;
    row.result.converged = true;
    row.result.epochsToConverge = 3;
    row.result.finalAccuracy = 0.975;
    row.result.finalEpisodeLength = 9.5;
    row.result.bitRate = 0.42;
    row.result.detectionRate = 0.01;
    row.result.envSteps = 123456;
    row.result.sequence.push({ActionKind::Access, 3});
    row.result.sequence.push({ActionKind::TriggerVictim, 0});
    row.result.sequence.push({ActionKind::Guess, 1});
    row.result.finalGuess = "guess 1";
    row.result.category = AttackCategory::EvictReload;

    const SweepCellResult back =
        deserializeCellRow(serializeCellRow(row));

    EXPECT_EQ(back.cell.index, 7u);
    EXPECT_TRUE(back.completed);
    EXPECT_TRUE(back.error.empty());
    EXPECT_DOUBLE_EQ(back.wallSeconds, 1.25);
    EXPECT_TRUE(back.result.converged);
    EXPECT_EQ(back.result.epochsToConverge, 3);
    EXPECT_DOUBLE_EQ(back.result.finalAccuracy, 0.975);
    EXPECT_DOUBLE_EQ(back.result.finalEpisodeLength, 9.5);
    EXPECT_DOUBLE_EQ(back.result.bitRate, 0.42);
    EXPECT_DOUBLE_EQ(back.result.detectionRate, 0.01);
    EXPECT_EQ(back.result.envSteps, 123456);
    ASSERT_EQ(back.result.sequence.size(), 3u);
    EXPECT_EQ(back.result.sequence.steps()[0].kind, ActionKind::Access);
    EXPECT_EQ(back.result.sequence.steps()[1].kind,
              ActionKind::TriggerVictim);
    EXPECT_EQ(back.result.sequence.steps()[2].addr, 1u);
    EXPECT_EQ(back.result.finalGuess, "guess 1");
    EXPECT_EQ(back.result.category, AttackCategory::EvictReload);
}

TEST(CellWire, FailureRowCarriesTheError)
{
    SweepCellResult row;
    row.cell.index = 2;
    row.completed = false;
    row.error = "env: unknown scenario \"nope\"";

    const SweepCellResult back =
        deserializeCellRow(serializeCellRow(row));
    EXPECT_FALSE(back.completed);
    EXPECT_EQ(back.error, "env: unknown scenario \"nope\"");
}

TEST(CellWire, RejectsCorruptBlobs)
{
    const std::vector<SweepCell> cells =
        expandSweepGrid(tinyDistSweep());
    const std::string blob = serializeCellJob(cells[0]);

    // Bit flip in the payload: the trailing checksum catches it.
    {
        std::string bad = blob;
        bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x10);
        EXPECT_THROW(deserializeCellJob(bad), std::runtime_error);
    }
    // Truncation (a partially-written file without the atomic rename).
    EXPECT_THROW(deserializeCellJob(blob.substr(0, blob.size() - 3)),
                 std::runtime_error);
    EXPECT_THROW(deserializeCellJob(blob.substr(0, 10)),
                 std::runtime_error);
    EXPECT_THROW(deserializeCellJob(std::string()), std::runtime_error);
    // Wrong kind: a row blob handed to the job parser (magic check).
    SweepCellResult row;
    row.cell.index = 0;
    EXPECT_THROW(deserializeCellJob(serializeCellRow(row)),
                 std::runtime_error);
    EXPECT_THROW(deserializeCellRow(blob), std::runtime_error);
    // Wrong version byte: future formats must be rejected, not guessed.
    {
        std::string bad = blob;
        bad[8] = static_cast<char>(bad[8] + 1); // u32 version LSB
        EXPECT_THROW(deserializeCellJob(bad), std::runtime_error);
    }
    // Trailing garbage after an otherwise-valid section.
    EXPECT_THROW(deserializeCellJob(blob + "x"), std::runtime_error);
}

// ------------------------------------------------------- atomic writes

TEST(AtomicFile, WriteReadRoundTripAndOverwrite)
{
    const fs::path root = scratchDir("atomic");
    const std::string path = (root / "f.bin").string();

    constexpr char kBinary[] = "\x00\x01garbage\xff\n binary";
    const std::string payload(kBinary, sizeof kBinary - 1);
    atomicWriteFile(path, payload, "test file");
    EXPECT_EQ(readWholeFile(path, "test file"), payload);

    atomicWriteFile(path, "second", "test file");
    EXPECT_EQ(readWholeFile(path, "test file"), "second");
    fs::remove_all(root);
}

TEST(AtomicFile, StaleTempFilesDoNotShadowTheRealFile)
{
    // A crash between temp-write and rename leaves `<path>.tmp.<pid>`
    // behind; the real path must stay readable and a later save must
    // still land.
    const fs::path root = scratchDir("atomic_stale");
    const std::string path = (root / "ckpt").string();
    atomicWriteFile(path, "good", "test file");
    {
        std::ofstream stale(path + ".tmp.99999", std::ios::binary);
        stale << "half-writ";
    }
    EXPECT_EQ(readWholeFile(path, "test file"), "good");
    atomicWriteFile(path, "newer", "test file");
    EXPECT_EQ(readWholeFile(path, "test file"), "newer");
    fs::remove_all(root);
}

// ---------------------------------------------------------- scheduler

TEST(DistScheduler, RejectsMissingRunner)
{
    const fs::path root = scratchDir("norunner");
    EXPECT_THROW(runOnLocalDaemons(expandSweepGrid(tinyDistSweep()), 3,
                                   (root / "no_such_daemon").string(),
                                   root),
                 std::invalid_argument);
    fs::remove_all(root);
}

TEST(DistScheduler, DeterministicCellFailureIsARowNotARetry)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("cellfail");

    std::vector<SweepCell> cells = expandSweepGrid(tinyDistSweep());
    cells.resize(2);
    // An unknown scenario throws inside the campaign on every attempt
    // identically; the daemon must return it as a failure ROW so the
    // scheduler records it without burning retries, and the rest of
    // the grid still runs.
    cells[1].scenario = "no_such_scenario";
    cells[1].config.scenario = "no_such_scenario";

    const SweepReport report =
        runOnLocalDaemons(cells, 3, daemonPath(), root);

    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_TRUE(report.cells[0].completed);
    EXPECT_FALSE(report.cells[1].completed);
    EXPECT_EQ(report.cells[1].attempts, 1);
    EXPECT_NE(report.cells[1].error.find("no_such_scenario"),
              std::string::npos)
        << report.cells[1].error;
    // Failure rows keep their cell identity for the report.
    EXPECT_EQ(report.cells[1].cell.scenario, "no_such_scenario");
    EXPECT_EQ(report.numFailed(), 1u);
    fs::remove_all(root);
}

// ------------------------------------------------ local checkpointing

TEST(SweepCheckpointing, ReportIndependentOfWorkerCount)
{
    const fs::path root = scratchDir("workers");
    const SweepConfig cfg = tinyDistSweep();
    const std::vector<SweepCell> cells = expandSweepGrid(cfg);

    const SweepReport one = runSweepCells(
        cfg.name, cells, 1, {}, (root / "ck1").string(), 1);
    const SweepReport three = runSweepCells(
        cfg.name, cells, 3, {}, (root / "ck3").string(), 1);

    EXPECT_EQ(sweepReportJson(one, {}), sweepReportJson(three, {}));
    fs::remove_all(root);
}

TEST(SweepCheckpointing, ConfigKeysRoundTrip)
{
    SweepConfig cfg = tinyDistSweep();
    cfg.checkpointDir = "ckpt/cells";
    cfg.checkpointInterval = 5;
    cfg.distProcesses = 3;
    cfg.distRetries = 2;
    cfg.heartbeatTimeoutS = 30.0;
    cfg.distWorkDir = "scratch/dist";

    const SweepConfig back =
        parseSweepConfig(renderSweepConfig(cfg));
    EXPECT_EQ(back.checkpointDir, "ckpt/cells");
    EXPECT_EQ(back.checkpointInterval, 5);
    EXPECT_EQ(back.distProcesses, 3);
    EXPECT_EQ(back.distRetries, 2);
    EXPECT_DOUBLE_EQ(back.heartbeatTimeoutS, 30.0);
    EXPECT_EQ(back.distWorkDir, "scratch/dist");
    // Render->parse->render is a fixed point for the new keys too.
    EXPECT_EQ(renderSweepConfig(back), renderSweepConfig(cfg));
    // The daemon path is CLI-only and chaos lives on the daemon's own
    // command line: neither is a config key.
    EXPECT_THROW(parseSweepConfig(std::string("sweep.runner = x\n")),
                 std::invalid_argument);
    EXPECT_THROW(
        parseSweepConfig(std::string("sweep.chaos_kill_cell = 1\n")),
        std::invalid_argument);
}

} // namespace
} // namespace autocat
