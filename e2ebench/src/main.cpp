/**
 * @file
 * e2ebench: the end-to-end benchmark binary behind e2ebench/run.py.
 *
 *     e2ebench --workload W --config FILE --seconds S --trace 0|1
 *              --seed N --work-dir DIR [--daemon PATH]
 *
 * Workloads (configs are generated from the seed by run.py):
 *  - tablev_discovery:     explore() on the Table V config until it
 *                          reaches its accuracy target.
 *  - multisecret_detector: a fixed-budget campaign cell on
 *                          cchunter_bypass (Table VIII cache).
 *  - fleet_grid:           a sweep grid on 3 local runner_daemons.
 *
 * With --trace 0 the run repeats the workload for --seconds and prints
 * the end-to-end metrics; with --trace 1 it runs the workload's cell
 * untraced and through the traced PpoTrainer loop in alternation, and
 * times each layer's public calls at the workload's shapes. Human-readable lines
 * start with '#'; the last stdout line is the JSON result. Exit 0 when
 * every check passed, 1 when one failed, 2 on a usage or set-up error
 * (no result printed).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "bench.hpp"
#include "core/config_parser.hpp"
#include "eval/report.hpp"
#include "eval/sweep_config.hpp"
#include "rl/mat.hpp"

namespace {

namespace fs = std::filesystem;
using namespace autocat;
using e2e::Clock;
using e2e::median;
using e2e::secondsSince;

/** Daemons (= fleet slots) of the fleet_grid workload: one per core
 *  but one of a 4-core box, leaving the scheduler its own core. */
constexpr int kFleetSlots = 3;

/** Set-up repetitions whose median is setup_s. An in-process set-up
 *  takes a fraction of a millisecond, mostly first-touch page faults
 *  whose cost follows the host's load, so it repeats for half a second
 *  to sample that load; a daemon fleet takes ~10 ms plus the reap
 *  before the next one. */
constexpr double kSetupSecondsInProcess = 0.5;
constexpr int kSetupRepsFleet = 9;

struct Args
{
    std::string workload;
    std::string config;
    std::string daemon;
    fs::path workDir;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t seed = 1;
};

struct Metric
{
    double value;
    std::string unit;
};

/** One run's result: the contract's JSON object plus '#' notes. */
struct Outcome
{
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::pair<std::string, Metric>> metrics;
    std::vector<std::string> notes;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }
    void note(const std::string &line) { notes.push_back(line); }
    void fail(const std::string &why)
    {
        ++failed;
        note("CHECK FAILED: " + why);
    }
};

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** CPUs this process may run on (what `nproc` prints). */
int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    return ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

/** Peak resident set of this process and of its largest reaped child
 *  (the fleet's daemons), in MiB. */
double
peakRssMb()
{
    struct rusage self = {}, children = {};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

/** Median wall seconds of @p fn over at least @p reps calls, calling
 *  it for at least @p seconds. */
template <typename Fn>
double
medianSetup(int reps, double seconds, Fn &&fn)
{
    std::vector<double> s;
    const auto t_start = Clock::now();
    for (int i = 0; i < reps || secondsSince(t_start) < seconds; ++i) {
        const auto t0 = Clock::now();
        fn(i);
        s.push_back(secondsSince(t0));
    }
    return median(s);
}

/** Run @p unit back to back until @p seconds have passed (the last
 *  unit finishes); returns each unit's wall seconds. */
template <typename Fn>
std::vector<double>
repeatFor(double seconds, Fn &&unit)
{
    std::vector<double> walls;
    const auto t_start = Clock::now();
    do {
        const auto t0 = Clock::now();
        unit(walls.size());
        walls.push_back(secondsSince(t0));
    } while (secondsSince(t_start) < seconds);
    return walls;
}

double
maxOf(const std::vector<double> &v)
{
    return *std::max_element(v.begin(), v.end());
}

/** The end-to-end metrics every workload reports (see README.md for
 *  what a "cell" is per workload). */
void
addEndToEnd(Outcome &out, const std::vector<double> &cell_wall,
            const std::vector<double> &steps_per_s, double steps_per_cell,
            double setup_s)
{
    std::string samples = "cell walls (s):";
    for (double w : cell_wall) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.4f", w);
        samples += buf;
    }
    out.note(samples);
    out.add("cell_wall_s", median(cell_wall), "s");
    out.add("train_env_steps_per_s", median(steps_per_s), "1/s");
    out.add("train_steps_per_cell", steps_per_cell, "count");
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
}

SweepCell
singleCell(const ExplorationConfig &config)
{
    SweepCell cell;
    cell.label = config.scenario;
    cell.scenario = config.scenario;
    cell.policy = replPolicyName(config.env.cache.policy);
    cell.config = config;
    return cell;
}

/** The campaign a sweep cell runs (serve/cell_exec without the
 *  report row): the untraced twin of e2e::runTraced. */
ExplorationResult
runSession(const SweepCell &cell)
{
    CampaignConfig campaign;
    campaign.base = cell.config;
    campaign.phases = cell.phases;
    TrainingSession session(std::move(campaign));
    return session.run().final;
}

const CurriculumPhase &
onlyPhase(const SweepCell &cell)
{
    if (cell.phases.size() != 1)
        throw std::invalid_argument(
            "e2ebench: campaign cells must have exactly one phase");
    return cell.phases.front();
}

/** Layer fleet counters of one traced run. */
struct FleetStats
{
    double slotBusyShare = 0.0;
    double dispatchGapMs = 0.0;
    long long attempts = 0;
    long long retries = 0;
};

FleetStats
fleetStats(const SweepReport &report, int slots, double grid_wall)
{
    FleetStats f;
    double busy = 0.0;
    for (const SweepCellResult &row : report.cells) {
        busy += row.wallSeconds;
        f.attempts += row.attempts;
        f.retries += row.attempts - 1;
    }
    const double capacity = slots * grid_wall;
    f.slotBusyShare = busy / capacity;
    f.dispatchGapMs =
        (capacity - busy) * 1e3 / static_cast<double>(report.cells.size());
    return f;
}

/**
 * Per-layer metrics of a traced run. Shares are of the traced run's
 * wall time and add up to 1: update estimate + collection inference
 * estimate + env stepping + unattributed remainder of the runEpoch
 * spans, evaluation, and the set-up/extraction outside both.
 */
void
addLayers(Outcome &out, const e2e::TracedRun &tr,
          const std::vector<double> &traced_walls, double untraced_wall,
          const e2e::NnProbe &nn, const e2e::CodecProbe &codec,
          const PpoConfig &ppo, const FleetStats &fleet)
{
    double epoch_total = 0.0;
    for (double s : tr.epochS)
        epoch_total += s;
    const double wall = tr.wallS;
    const double epochs = static_cast<double>(tr.epochS.size());
    const double update_est =
        epochs * static_cast<double>(e2e::minibatchesPerEpoch(ppo)) *
        (nn.forwardTrainUs + nn.backwardUs + nn.adamUs) * 1e-6;
    // Collection runs one forwardNoGrad over all streams per step call.
    const double infer_est =
        static_cast<double>(tr.vecCalls) * nn.forwardInferUs * 1e-6;
    const double unattributed =
        epoch_total - update_est - infer_est - tr.vecStepS;

    out.add("ppo.epoch_s", median(tr.epochS), "s");
    out.add("ppo.epochs", epochs, "count");
    out.add("ppo.epoch_share", epoch_total / wall, "share");
    out.add("ppo.update_est_share", update_est / wall, "share");
    out.add("ppo.collect_infer_est_share", infer_est / wall, "share");
    out.add("ppo.unattributed_share", unattributed / wall, "share");
    out.add("vec_env.step_ns",
            tr.vecCalls ? tr.vecStepS * 1e9 / static_cast<double>(tr.vecCalls)
                        : 0.0,
            "ns");
    out.add("vec_env.steps", static_cast<double>(tr.vecSteps), "count");
    out.add("vec_env.share", tr.vecStepS / wall, "share");
    out.add("eval.s", tr.evalS, "s");
    out.add("eval.steps", static_cast<double>(tr.evalSteps), "count");
    out.add("eval.share", tr.evalS / wall, "share");
    out.add("trace.outside_share", (wall - epoch_total - tr.evalS) / wall,
            "share");
    out.add("trace.overhead_share",
            (median(traced_walls) - untraced_wall) / untraced_wall, "share");

    out.add("nn.forward_train_us", nn.forwardTrainUs, "us");
    out.add("nn.backward_us", nn.backwardUs, "us");
    out.add("adam.step_us", nn.adamUs, "us");
    out.add("nn.forward_infer_us", nn.forwardInferUs, "us");
    out.add("nn.forward_one_us", nn.forwardOneUs, "us");

    out.add("checkpoint.write_ms", tr.checkpointWriteMs, "ms");
    out.add("checkpoint.read_ms", tr.checkpointReadMs, "ms");
    out.add("checkpoint.bytes", static_cast<double>(tr.checkpointBytes.size()),
            "bytes");
    out.add("wire.job_encode_us", codec.jobEncodeUs, "us");
    out.add("wire.job_decode_us", codec.jobDecodeUs, "us");
    out.add("wire.row_encode_us", codec.rowEncodeUs, "us");
    out.add("wire.row_decode_us", codec.rowDecodeUs, "us");
    out.add("net.frame_encode_us", codec.frameEncodeUs, "us");
    out.add("net.frame_decode_us", codec.frameDecodeUs, "us");

    out.add("fleet.slot_busy_share", fleet.slotBusyShare, "share");
    out.add("fleet.dispatch_gap_ms", fleet.dispatchGapMs, "ms");
    out.add("fleet.attempts", static_cast<double>(fleet.attempts), "count");
    out.add("fleet.retries", static_cast<double>(fleet.retries), "count");

    out.note("layer split of " + fmt(wall) + " s traced wall: update(est) " +
             fmt(update_est / wall) + ", collection inference(est) " +
             fmt(infer_est / wall) + ", env step " +
             fmt(tr.vecStepS / wall) + ", unattributed epoch " +
             fmt(unattributed / wall) +
             ", eval " + fmt(tr.evalS / wall) + ", outside " +
             fmt((wall - epoch_total - tr.evalS) / wall));
}

/** A single in-process cell is one fleet slot with one attempt. */
FleetStats
singleSlot(const e2e::TracedRun &tr)
{
    double busy = tr.evalS;
    for (double s : tr.epochS)
        busy += s;
    FleetStats f;
    f.slotBusyShare = busy / tr.wallS;
    f.dispatchGapMs = (tr.wallS - busy) * 1e3;
    f.attempts = 1;
    return f;
}

volatile long long clock_sink = 0;

/**
 * Traced run + probes for one cell. @p untraced runs the same cell
 * untraced. Untraced and traced runs alternate, starting and ending
 * untraced (U T U, or U T U T ... U for cells shorter than a second),
 * and trace.overhead_share compares their medians, so a drift in
 * machine speed does not read as tracing cost. The layer metrics come
 * from the last traced run.
 */
e2e::TracedRun
traceCell(Outcome &out, const Args &args, const SweepCell &cell,
          const CurriculumPhase &phase, const std::function<void()> &untraced,
          const FleetStats *fleet)
{
    const auto timed = [](const std::function<void()> &fn) {
        const auto t0 = Clock::now();
        fn();
        return secondsSince(t0);
    };
    std::vector<double> plain{timed(untraced)}, traced;
    const int pairs = std::clamp(static_cast<int>(1.0 / plain[0]), 1, 9);
    e2e::TracedRun tr;
    for (int i = 0; i < pairs; ++i) {
        tr = e2e::runTraced(cell.config, phase, args.workDir);
        traced.push_back(tr.wallS);
        plain.push_back(timed(untraced));
    }
    const double untraced_wall = median(plain);
    // The tracing itself is two steady_clock reads per stepping call,
    // runEpoch and evaluate; their cost bounds the true overhead, which
    // the wall-time comparison above cannot resolve below the machine's
    // run-to-run noise.
    const auto c0 = Clock::now();
    for (int i = 0; i < 100000; ++i)
        clock_sink += Clock::now().time_since_epoch().count();
    const double read_s = secondsSince(c0) / 100000.0;
    const double reads = 2.0 * static_cast<double>(
        tr.vecCalls + 2 * static_cast<long long>(tr.epochS.size()) + 1);
    out.note("trace overhead: traced median " + fmt(median(traced)) +
             " s vs untraced median " + fmt(untraced_wall) + " s over " +
             std::to_string(pairs) + " pair(s); timer reads cost " +
             fmt(reads * read_s / tr.wallS) + " of traced wall");
    const e2e::NnProbe nn = e2e::probeNn(tr.obsDim, tr.numActions,
                                         cell.config.ppo, tr.streams,
                                         args.seed);
    const e2e::CodecProbe codec =
        e2e::probeCodecs(cell, tr.result, tr.checkpointBytes);
    addLayers(out, tr, traced, untraced_wall, nn, codec, cell.config.ppo,
              fleet ? *fleet : singleSlot(tr));
    return tr;
}

// ----------------------------------------------------- tablev_discovery

Outcome
tablevDiscovery(const Args &args)
{
    Outcome out;
    const ExplorationConfig cfg = loadExplorationConfig(args.config);
    const CurriculumPhase phase = e2e::explorePhase(cfg);
    const double setup_s = medianSetup(1, kSetupSecondsInProcess, [&](int) {
        auto vec = e2e::buildPhaseVecEnv(cfg, phase);
        PpoTrainer trainer(*vec, cfg.ppo);
    });

    long long steps = -2;
    const auto check = [&](const ExplorationResult &r, const char *what) {
        ++out.attempted;
        if (!r.converged)
            out.fail(std::string(what) + " did not converge");
        else if (r.finalAccuracy < cfg.targetAccuracy)
            out.fail(std::string(what) + " final accuracy " +
                     fmt(r.finalAccuracy) + " below the target");
        else if (steps != -2 && r.stepsToDiscovery != steps)
            out.fail(std::string(what) + " steps_to_discovery " +
                     std::to_string(r.stepsToDiscovery) + " != " +
                     std::to_string(steps));
        if (steps == -2)
            steps = r.stepsToDiscovery;
    };

    if (!args.trace) {
        std::vector<double> rates;
        const std::vector<double> walls =
            repeatFor(args.seconds, [&](std::size_t) {
                const auto t0 = Clock::now();
                const ExplorationResult r = explore(cfg);
                rates.push_back(static_cast<double>(r.envSteps) /
                                secondsSince(t0));
                check(r, "explore()");
            });
        addEndToEnd(out, walls, rates, static_cast<double>(steps), setup_s);
        out.note("time_to_discovery_s median " + fmt(median(walls)) +
                 " max " + fmt(maxOf(walls)) + " n " +
                 std::to_string(walls.size()));
        out.note("steps_to_discovery " + std::to_string(steps));
        return out;
    }

    ExplorationResult plain;
    const e2e::TracedRun tr = traceCell(
        out, args, singleCell(cfg), phase,
        [&] {
            plain = explore(cfg);
            check(plain, "untraced explore()");
        },
        nullptr);
    check(tr.result, "traced run");
    if (tr.result.finalAccuracy != plain.finalAccuracy ||
        tr.result.envSteps != plain.envSteps)
        out.fail("traced run diverged from explore()");
    out.note("steps_to_discovery untraced " +
             std::to_string(plain.stepsToDiscovery) + " traced " +
             std::to_string(tr.result.stepsToDiscovery));
    return out;
}

// -------------------------------------------------- multisecret_detector

Outcome
multisecretDetector(const Args &args)
{
    Outcome out;
    const SweepConfig sweep = loadSweepConfig(args.config);
    const std::vector<SweepCell> cells = expandSweepGrid(sweep);
    if (cells.size() != 1)
        throw std::invalid_argument("multisecret_detector: expected one cell");
    const SweepCell &cell = cells.front();
    const CurriculumPhase &phase = onlyPhase(cell);
    const double setup_s = medianSetup(1, kSetupSecondsInProcess, [&](int) {
        auto vec = e2e::buildPhaseVecEnv(cell.config, phase);
        PpoTrainer trainer(*vec, cell.config.ppo);
    });

    std::string first_json;
    double steps = 0.0;
    const auto campaign = [&]() {
        const SweepReport report = runSweepCells(sweep.name, cells, 1);
        ++out.attempted;
        const SweepCellResult &row = report.cells.front();
        const std::string json = sweepReportJson(report);
        if (!row.completed)
            out.fail("campaign threw: " + row.error);
        else if (first_json.empty())
            first_json = json;
        else if (json != first_json)
            out.fail("campaign report differs from the first run");
        steps = static_cast<double>(row.result.envSteps);
    };

    if (!args.trace) {
        std::vector<double> rates;
        const std::vector<double> walls =
            repeatFor(args.seconds, [&](std::size_t) {
                const auto t0 = Clock::now();
                campaign();
                rates.push_back(steps / secondsSince(t0));
            });
        addEndToEnd(out, walls, rates, steps, setup_s);
        out.note("campaign_s median " + fmt(median(walls)) + " max " +
                 fmt(maxOf(walls)) + " n " + std::to_string(walls.size()));
        return out;
    }

    ExplorationResult plain;
    const e2e::TracedRun tr = traceCell(
        out, args, cell, phase, [&] { plain = runSession(cell); }, nullptr);
    ++out.attempted;
    if (tr.result.finalAccuracy != plain.finalAccuracy ||
        tr.result.envSteps != plain.envSteps ||
        tr.result.detectionRate != plain.detectionRate)
        out.fail("traced run diverged from the campaign cell");
    return out;
}

// ----------------------------------------------------------- fleet_grid

Outcome
fleetGrid(const Args &args)
{
    Outcome out;
    const SweepConfig sweep = loadSweepConfig(args.config);
    std::vector<SweepCell> cells;
    std::unique_ptr<e2e::DaemonFleet> fleet;
    const double setup_s = medianSetup(kSetupRepsFleet, 0.0, [&](int rep) {
        if (fleet)
            fleet->reap();
        cells = expandSweepGrid(sweep);
        fleet = std::make_unique<e2e::DaemonFleet>(
            args.daemon, args.workDir / ("daemons" + std::to_string(rep)),
            kFleetSlots);
    });

    std::string first_json;
    double steps = 0.0;
    const auto grid = [&](std::size_t rep) {
        SweepReport report = e2e::runFleetGrid(
            sweep, cells, fleet->endpoints(),
            args.workDir / ("grid" + std::to_string(rep)));
        const std::string json = sweepReportJson(report);
        steps = 0.0;
        for (const SweepCellResult &row : report.cells) {
            out.attempted += row.attempts;
            out.failed += row.attempts - 1;
            if (row.attempts != 1)
                out.note("cell " + row.cell.label + " took " +
                         std::to_string(row.attempts) + " attempts");
            if (!row.completed)
                out.fail("cell " + row.cell.label + " failed: " + row.error);
            steps += static_cast<double>(row.result.envSteps);
        }
        if (first_json.empty())
            first_json = json;
        else if (json != first_json)
            out.fail("grid report differs from the first run");
        return report;
    };

    const double n_cells = static_cast<double>(cells.size());
    if (!args.trace) {
        std::vector<double> rates;
        std::vector<double> walls =
            repeatFor(args.seconds, [&](std::size_t rep) {
                const auto t0 = Clock::now();
                grid(rep);
                rates.push_back(steps / secondsSince(t0));
            });
        fleet->reap();
        for (double &w : walls)
            w /= n_cells;
        addEndToEnd(out, walls, rates, steps / n_cells, setup_s);
        out.note("cells_per_hour median " + fmt(3600.0 / median(walls)) +
                 " over " + std::to_string(walls.size()) + " grids of " +
                 std::to_string(cells.size()) + " cells on " +
                 std::to_string(kFleetSlots) + " daemons");
        return out;
    }

    const auto t0 = Clock::now();
    const SweepReport report = grid(0);
    const FleetStats fs = fleetStats(report, kFleetSlots, secondsSince(t0));
    fleet->reap();

    // The layer trace of a fleet cell: its first cell, in-process,
    // without the grid's checkpoint cadence (timed separately).
    const SweepCell &cell = cells.front();
    const CurriculumPhase &phase = onlyPhase(cell);
    ExplorationResult plain;
    const e2e::TracedRun tr = traceCell(
        out, args, cell, phase, [&] { plain = runSession(cell); }, &fs);
    if (tr.result.finalAccuracy != plain.finalAccuracy ||
        tr.result.envSteps != plain.envSteps)
        out.fail("traced run diverged from the in-process cell");
    return out;
}

int
usage()
{
    std::cerr << "usage: e2ebench --workload W --config FILE --seconds S "
                 "--trace 0|1 --seed N --work-dir DIR [--daemon PATH]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string key = argv[i], value = argv[i + 1];
            if (key == "--workload")
                args.workload = value;
            else if (key == "--config")
                args.config = value;
            else if (key == "--daemon")
                args.daemon = value;
            else if (key == "--work-dir")
                args.workDir = value;
            else if (key == "--seconds")
                args.seconds = std::stod(value);
            else if (key == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (key == "--seed")
                args.seed = std::stoull(value);
            else
                return usage();
        }
    } catch (const std::exception &) {
        return usage();
    }
    if (argc % 2 == 0 || args.config.empty() || args.workDir.empty())
        return usage();

    Outcome out;
    try {
        fs::create_directories(args.workDir);
        if (args.workload == "tablev_discovery")
            out = tablevDiscovery(args);
        else if (args.workload == "multisecret_detector")
            out = multisecretDetector(args);
        else if (args.workload == "fleet_grid")
            out = fleetGrid(args);
        else
            return usage();
    } catch (const std::exception &e) {
        std::cerr << "e2ebench: " << args.workload << ": " << e.what()
                  << "\n";
        return 2;
    }

    std::cout << "# e2ebench workload=" << args.workload
              << " seed=" << args.seed << " trace=" << args.trace
              << " nproc=" << nproc()
              << " matmul=" << matmulBackend()
              << " build=" << E2EBENCH_BUILD_TYPE << "\n";
    for (const std::string &line : out.notes)
        std::cout << "# " << line << "\n";

    bool finite = true;
    std::ostringstream json;
    json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const auto &[name, m] = out.metrics[i];
        finite = finite && std::isfinite(m.value);
        json << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
             << (std::isfinite(m.value) ? fmt(m.value) : "0")
             << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    if (!finite) {
        std::cerr << "e2ebench: a metric is not finite\n";
        return 2;
    }
    std::cout << json.str() << std::endl;
    return out.failed == 0 ? 0 : 1;
}
