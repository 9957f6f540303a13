/**
 * @file
 * cell_runner: execute ONE sweep cell from a job blob and write the
 * result row blob. Spawned by serve/dist_scheduler.cpp; runnable by
 * hand for debugging a single cell:
 *
 *     cell_runner job_3.blob row_3.blob \
 *         [--checkpoint cell_3.ckpt] [--checkpoint-every N] \
 *         [--heartbeat hb_3] [--attempt K] \
 *         [--chaos-kill-after N | --chaos-sigterm-after N | --chaos-hang]
 *
 * Exit codes:
 *   0  a row blob was written — including rows that record a
 *      *deterministic* cell failure (bad scenario, shape mismatch):
 *      those would fail identically on every retry, so the scheduler
 *      must treat them as results, not worker deaths
 *   3  usage error / unreadable or corrupt job blob
 *   4  the row blob could not be written
 *   5  graceful SIGTERM exit (kRunnerExitSigterm): heartbeat flushed,
 *      checkpoints durable, no row — the scheduler retries the cell
 *
 * Any other termination (signal, OOM kill, chaos injection) is a
 * worker death; the scheduler requeues the cell, and the retry resumes
 * from the cell's campaign checkpoint when one was configured.
 *
 * SIGTERM is handled gracefully: the handler only raises a flag, which
 * the epoch/checkpoint callbacks observe at the next boundary — so the
 * runner never dies inside a checkpoint write (writes are atomic and
 * fsynced; the flag is checked between them), flushes its heartbeat a
 * last time, and exits with the retryable code above.
 *
 * The heartbeat file is touched at every epoch and checkpoint write;
 * the scheduler's hang detector kills runners whose heartbeat goes
 * stale. Chaos flags deterministically fault-inject for tests and the
 * dist-smoke/net-smoke CI jobs: --chaos-kill-after N raises SIGKILL
 * right after the Nth checkpoint write (the checkpoint is on disk —
 * the retry has something to resume from), --chaos-sigterm-after N
 * raises SIGTERM there instead (exercising the graceful path above),
 * --chaos-hang sleeps forever without ever heartbeating.
 */

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "rl/mat.hpp"
#include "serve/cell_exec.hpp"
#include "serve/wire.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"

namespace {

using namespace autocat;

volatile std::sig_atomic_t g_sigterm = 0;

void
onSigterm(int)
{
    g_sigterm = 1;
}

/** Create/refresh @p path so its mtime is "now". Best-effort: a failed
 *  heartbeat must not kill a healthy cell. */
void
touchFile(const std::string &path)
{
    if (path.empty())
        return;
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0)
        ::close(fd);
}

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " <job.blob> <row.blob> [--checkpoint PATH]"
                 " [--checkpoint-every N] [--heartbeat PATH]"
                 " [--attempt K] [--chaos-kill-after N]"
                 " [--chaos-sigterm-after N] [--chaos-hang]\n";
    return 3;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string job_path;
    std::string row_path;
    std::string heartbeat;
    CellExecOptions options;
    int chaos_kill_after = 0;    // 0 = disabled
    int chaos_sigterm_after = 0; // 0 = disabled
    bool chaos_hang = false;

    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(3);
            }
            return argv[++i];
        };
        if (arg == "--checkpoint")
            options.checkpointPath = value();
        else if (arg == "--checkpoint-every")
            options.checkpointEvery = std::atoi(value().c_str());
        else if (arg == "--heartbeat")
            heartbeat = value();
        else if (arg == "--attempt")
            value(); // informational (ps/logs); semantics live in the scheduler
        else if (arg == "--chaos-kill-after")
            chaos_kill_after = std::atoi(value().c_str());
        else if (arg == "--chaos-sigterm-after")
            chaos_sigterm_after = std::atoi(value().c_str());
        else if (arg == "--chaos-hang")
            chaos_hang = true;
        else if (!arg.empty() && arg[0] == '-')
            return usage(argv[0]);
        else
            positional.push_back(arg);
    }
    if (positional.size() != 2)
        return usage(argv[0]);
    job_path = positional[0];
    row_path = positional[1];

    if (chaos_hang) {
        // Simulate a wedged worker: no heartbeat, no work, no exit.
        for (;;)
            ::pause();
    }

    SweepCell cell;
    try {
        cell = deserializeCellJob(readWholeFile(job_path, "cell job"));
    } catch (const std::exception &e) {
        std::cerr << "cell_runner: " << e.what() << "\n";
        return 3;
    }

    touchFile(heartbeat);

    {
        struct sigaction sa = {};
        sa.sa_handler = onSigterm;
        ::sigaction(SIGTERM, &sa, nullptr);
    }

    // Graceful shutdown, observed only at epoch/checkpoint boundaries:
    // the checkpoint on disk (if any) is complete and fsynced, so the
    // retry resumes exactly where this attempt stopped.
    const auto exitIfTermed = [&] {
        if (!g_sigterm)
            return;
        touchFile(heartbeat);
        ::_exit(kRunnerExitSigterm);
    };

    int checkpoints_written = 0;
    options.checkpointCb = [&](const std::string &, std::size_t, int) {
        touchFile(heartbeat);
        if (++checkpoints_written >= chaos_kill_after &&
            chaos_kill_after > 0) {
            // Die the hard way AFTER the checkpoint landed: the
            // scheduler sees a signal death and the retry resumes from
            // this exact boundary.
            ::raise(SIGKILL);
        }
        if (checkpoints_written >= chaos_sigterm_after &&
            chaos_sigterm_after > 0) {
            ::raise(SIGTERM); // handled: sets g_sigterm
        }
        exitIfTermed();
    };
    options.epochCb = [&](const EpochStats &) {
        touchFile(heartbeat);
        exitIfTermed();
    };

    // One runner process is one fleet slot (the scheduler runs one per
    // core), so a cell's kernels stay on this thread.
    const MatThreadScope one_slot(1);
    const SweepCellResult row = runSweepCell(std::move(cell), options);

    try {
        atomicWriteFile(row_path, serializeCellRow(row), "cell row");
    } catch (const std::exception &e) {
        std::cerr << "cell_runner: " << e.what() << "\n";
        return 4;
    }
    return 0;
}
