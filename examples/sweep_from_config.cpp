/**
 * @file
 * CLI sweep driver: run a multi-cell attack-discovery campaign from a
 * config file (exploration base keys + `sweep.*` grid keys) and emit
 * JSON/CSV reports plus a terminal summary table.
 *
 *   $ ./examples/sweep_from_config my_sweep.cfg
 *   $ ./examples/sweep_from_config my_sweep.cfg --json out.json
 *   $ ./examples/sweep_from_config --print-default > sweep.cfg
 *   $ ./examples/sweep_from_config my_sweep.cfg --dist 3 \
 *         --checkpoint-dir ckpt --workdir work
 *
 * With no config argument, runs a built-in 2x2 smoke grid (two
 * hierarchy scenarios x two replacement policies). Reports are byte-
 * deterministic for fixed seeds unless sweep.include_timing is set
 * (docs/EVALUATION.md documents the schema) — including across
 * --dist process counts, provided the checkpoint settings match.
 *
 * Distributed flags: --dist N shards cells across N runner_daemon
 * processes this driver spawns (resolved via --runner,
 * $AUTOCAT_RUNNER_DAEMON, or a runner_daemon next to this binary);
 * --endpoints H:P[,H:P...] adds remote runner_daemon slots to the
 * fleet (mixed fleets are fine); --checkpoint-dir/--workdir place the
 * per-cell checkpoints and the local daemons' scratch; --manifest-dir
 * DIR records finished cells in a crash-safe grid manifest so a
 * restarted run re-enters instead of recomputing (--manifest-reset
 * wipes a manifest recorded for a different grid); --stop-after-cells
 * N aborts the scheduler after N cells finish (the simulated
 * scheduler death the net-smoke CI job restarts from). Worker deaths
 * are injected on the daemon side: start a runner_daemon with
 * --chaos-kill-after N and pass it as an endpoint.
 *
 * Flags that mirror a sweep.* key (--json, --csv, --workers, --dist,
 * --workdir, --checkpoint-dir, --endpoints, --manifest-dir,
 * --manifest-reset) are applied through the key, so they are validated
 * like the key in a config file.
 *
 * Exit status: 0 when every cell completed, 1 when any cell failed
 * (including cells whose worker died beyond the retry budget), 2 on
 * config, flag or report-I/O errors, 3 when --stop-after-cells
 * injected a scheduler stop (the run is intentionally unfinished).
 */

#include <fstream>
#include <functional>
#include <iostream>
#include <utility>
#include <vector>

#include "core/config_parser.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "eval/sweep_config.hpp"
#include "serve/dist_scheduler.hpp"

namespace {

const char *kBuiltinSmokeGrid = R"(
    # 2x2 smoke grid: hierarchy scenarios x replacement policies.
    num_sets = 1
    num_ways = 4
    attack_addr_s = 0
    attack_addr_e = 4
    victim_addr_s = 0
    victim_addr_e = 0
    victim_no_access_enable = true
    window_size = 20
    max_epochs = 30
    seed = 7

    sweep.name = builtin-smoke
    sweep.scenarios = l1l2_private, l2_exclusive
    sweep.policies = lru, plru
    sweep.seeds = 7
    sweep.workers = 2
)";

bool
writeReportFile(const std::string &path,
                const std::function<void(std::ostream &)> &write)
{
    std::ofstream out(path);
    if (out)
        write(out);
    out.flush();
    // A truncated report (disk full, write error) must not be
    // announced as written under exit status 0.
    if (!out) {
        std::cerr << "error: cannot write " << path << "\n";
        return false;
    }
    std::cout << "wrote " << path << "\n";
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace autocat;

    SweepConfig cfg;
    std::string config_path, runner_flag, stop_after_cells;
    // Flags that mirror a sweep.* key, as (key, value): applied through
    // the key once the config is read, so a flag is validated exactly
    // like the key in a file.
    std::vector<std::pair<std::string, std::string>> key_flags;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-default") {
            std::cout << renderSweepConfig(
                parseSweepConfig(std::string(kBuiltinSmokeGrid)));
            return 0;
        }
        if (arg == "--json" && i + 1 < argc) {
            key_flags.emplace_back("sweep.report_json", argv[++i]);
        } else if (arg == "--csv" && i + 1 < argc) {
            key_flags.emplace_back("sweep.report_csv", argv[++i]);
        } else if (arg == "--workers" && i + 1 < argc) {
            key_flags.emplace_back("sweep.workers", argv[++i]);
        } else if (arg == "--dist" && i + 1 < argc) {
            key_flags.emplace_back("sweep.dist_processes", argv[++i]);
        } else if (arg == "--runner" && i + 1 < argc) {
            runner_flag = argv[++i];
        } else if (arg == "--workdir" && i + 1 < argc) {
            key_flags.emplace_back("sweep.dist_work_dir", argv[++i]);
        } else if (arg == "--checkpoint-dir" && i + 1 < argc) {
            key_flags.emplace_back("sweep.checkpoint_dir", argv[++i]);
        } else if (arg == "--endpoints" && i + 1 < argc) {
            key_flags.emplace_back("sweep.dist_endpoints", argv[++i]);
        } else if (arg == "--manifest-dir" && i + 1 < argc) {
            key_flags.emplace_back("sweep.manifest_dir", argv[++i]);
        } else if (arg == "--manifest-reset") {
            key_flags.emplace_back("sweep.manifest_reset", "true");
        } else if (arg == "--stop-after-cells" && i + 1 < argc) {
            stop_after_cells = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "usage: sweep_from_config [config.cfg] "
                         "[--json out.json] [--csv out.csv] "
                         "[--print-default] [--workers N] [--dist N] "
                         "[--runner PATH] [--workdir DIR] "
                         "[--checkpoint-dir DIR] "
                         "[--endpoints H:P[,H:P...]] "
                         "[--manifest-dir DIR] [--manifest-reset] "
                         "[--stop-after-cells N]\n";
            return 2;
        } else {
            config_path = arg;
        }
    }

    try {
        if (!config_path.empty()) {
            cfg = loadSweepConfig(config_path);
            std::cout << "Loaded " << config_path << "\n";
        } else {
            cfg = parseSweepConfig(std::string(kBuiltinSmokeGrid));
            std::cout << "No config given; running the built-in 2x2 "
                         "smoke grid.\n";
        }
        for (const auto &[key, value] : key_flags)
            applySweepConfigKey(cfg, key, value);
        if (!stop_after_cells.empty()) {
            cfg.stopAfterCells =
                parseConfigUint(stop_after_cells, "--stop-after-cells");
        }
        if (cfg.distProcesses > 0)
            cfg.daemonPath = resolveRunnerDaemon(runner_flag, argv[0]);

        SweepRunner runner(std::move(cfg));
        std::cout << "Sweep expands to " << runner.cells().size()
                  << " cells.\n";

        const SweepReport report =
            runner.run([](const SweepCellResult &cell) {
                std::cout << "  [" << cell.cell.index << "] "
                          << cell.cell.label << ": "
                          << (!cell.completed
                                  ? "FAILED: " + cell.error
                                  : cell.result.converged ? "converged"
                                                          : "timeout")
                          << "  (" << cell.wallSeconds << " s)\n";
            });

        std::cout << "\n";
        sweepSummaryTable(report).print(std::cout);
        std::cout << report.numConverged() << "/" << report.cells.size()
                  << " cells converged, " << report.numFailed()
                  << " failed, " << report.wallSeconds << " s total\n";

        // cfg was moved into the runner; re-read the paths/options from
        // the runner's view of the world via the report options below.
        const SweepConfig &final_cfg = runner.config();
        ReportOptions opts;
        opts.includeTiming = final_cfg.includeTiming;
        bool io_ok = true;
        if (!final_cfg.reportJsonPath.empty()) {
            io_ok &= writeReportFile(
                final_cfg.reportJsonPath, [&](std::ostream &os) {
                    writeSweepReportJson(os, report, opts);
                });
        }
        if (!final_cfg.reportCsvPath.empty()) {
            io_ok &= writeReportFile(
                final_cfg.reportCsvPath, [&](std::ostream &os) {
                    writeSweepReportCsv(os, report, opts);
                });
        }
        if (!io_ok)
            return 2;
        return report.numFailed() == 0 ? 0 : 1;
    } catch (const DistStopInjected &e) {
        // Intentional (fault-injected) scheduler death: the manifest
        // holds the finished cells; a restarted run completes the
        // grid. Distinct exit code so harnesses can assert the stop.
        std::cerr << "stopped: " << e.what() << "\n";
        return 3;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
