/**
 * @file
 * DistScheduler: shard expanded sweep grids across a *fleet* of
 * runner_daemon workers — local daemons the scheduler spawns and/or
 * remote TCP endpoints, all spoken to through the same transport
 * (serve/net/transport.hpp).
 *
 * Execution model — the process-boundary analogue of util/TaskPool's
 * claiming discipline:
 *
 *  - Every cell is serialized to a job blob (serve/wire.hpp) before
 *    any attempt starts; the scheduler keeps the blobs in memory and
 *    sends one with every attempt.
 *  - Each transport is one worker slot holding at most one cell
 *    attempt. A slot that frees up dynamically claims the next
 *    pending cell (grid submission order first, then the retry
 *    queue), so unequal cell costs balance across workers exactly
 *    like TaskPool's atomic cursor — work stealing without a central
 *    lock because the scheduler loop is the only claimer.
 *  - An attempt that produces a row blob has it validated here
 *    (magic/version/checksum + cell-index match) before it fills the
 *    cell's report slot. An attempt that dies (daemon death,
 *    connection drop, malformed frame, corrupt row) or hangs (stale
 *    heartbeat -> kill) consumes one attempt; the cell is requeued
 *    until maxRetries are exhausted, then recorded as a per-cell
 *    failure — the rest of the grid keeps running either way. An
 *    attempt that never *started* (unreachable endpoint, dead local
 *    daemon) costs nothing: the cell requeues for free, a remote
 *    transport retires itself, a local slot replaces its daemon.
 *  - Retried cells resume from their campaign checkpoint — every
 *    attempt uploads each checkpoint write back to the scheduler, so
 *    a daemon death costs at most checkpointEvery epochs even when
 *    the retry lands on a different machine.
 *  - With a manifest directory set, every finished cell's row blob is
 *    also recorded in a crash-safe grid manifest
 *    (serve/manifest/manifest.hpp); a fresh scheduler process pointed
 *    at the same directory adopts the finished cells and computes
 *    only the rest.
 *
 * Determinism: cells are bit-reproducible campaigns writing disjoint,
 * index-addressed report slots, so the report content is identical to
 * an in-process `runSweepCells(..., workers=1, ...)` run with the
 * same checkpoint cadence — including runs where workers were killed,
 * daemons died, or the scheduler itself was restarted over the
 * manifest. That identity is the test oracle (test_dist, test_net,
 * the dist-smoke and net-smoke CI jobs).
 */

#ifndef AUTOCAT_SERVE_DIST_SCHEDULER_HPP
#define AUTOCAT_SERVE_DIST_SCHEDULER_HPP

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/sweep.hpp"

namespace autocat {

/** Thrown when FleetOptions::stopAfterCells aborts the scheduler
 *  mid-grid (fault-injection: a simulated scheduler death, after
 *  local daemons are reaped and connections dropped). The manifest
 *  keeps the finished cells; a re-entered run completes the grid. */
struct DistStopInjected : std::runtime_error
{
    explicit DistStopInjected(std::size_t cells_done)
        : std::runtime_error(
              "dist sweep: stop injected after " +
              std::to_string(cells_done) + " cell(s)"),
          cellsDone(cells_done)
    {
    }
    std::size_t cellsDone;
};

/** The worker fleet and its failure policy (shared by every grid the
 *  fleet runs). Slots are ordered local first, then endpoints, and a
 *  free slot claims the next pending cell in that order. */
struct FleetOptions
{
    /** Local slots: runner_daemons this process spawns on loopback
     *  ephemeral ports, with their scratch under the first grid's
     *  work directory (clamped to the total cell count; 0 =
     *  remote-only fleet). */
    int localProcesses = 0;

    /** runner_daemon executable the local slots spawn (required when
     *  localProcesses > 0). */
    std::string daemonPath;

    /** runner_daemon endpoints, "host:port" each; one slot per
     *  daemon. */
    std::vector<std::string> endpoints;

    /** Re-spawns allowed per cell after a death or hang. */
    int maxRetries = 1;

    /** Kill an attempt whose liveness signal (received frames) is
     *  older than this many seconds; 0 disables hang detection. */
    double heartbeatTimeoutS = 0.0;

    /** Throw DistStopInjected after this many cells finish in this
     *  run (adopted manifest cells do not count); 0 disables. */
    std::size_t stopAfterCells = 0;
};

/** One grid submitted to the fleet (the gateway submits several). */
struct ScheduledGrid
{
    std::string name;
    std::vector<SweepCell> cells;

    /** Work directory, created on demand (required, one per grid);
     *  the first grid's holds the local daemons' scratch. */
    std::string workDir;

    /** Per-cell campaign checkpoint directory; empty disables
     *  mid-cell checkpoints (a retried cell then restarts — still
     *  deterministic, just slower). */
    std::string checkpointDir;

    /** Mid-cell checkpoint cadence in epochs. */
    int checkpointEvery = 0;

    /** Grid manifest directory (crash-safe re-entry); empty runs
     *  without a manifest. */
    std::string manifestDir;

    /** Wipe a manifest recorded for a different grid identity instead
     *  of refusing (GridManifest reset semantics). */
    bool manifestReset = false;

    /** Per-finished-cell observer for THIS grid (adopted manifest
     *  cells are announced too). */
    SweepProgress progress;
};

/**
 * Run every grid's cells across one shared transport fleet and return
 * one report per grid (input order). Cells are claimed in grid
 * submission order, so earlier grids effectively have priority while
 * stragglers overlap with the next grid's cells. Blocks until every
 * cell has completed, failed deterministically, or exhausted its
 * retry budget.
 *
 * @throws std::invalid_argument for fleet/grid misconfiguration (no
 *         slots, missing daemon binary, unusable work or manifest dir, a
 *         manifest bound to a different grid without reset);
 *         std::runtime_error when every transport retired with cells
 *         still pending; DistStopInjected for stopAfterCells
 */
std::vector<SweepReport>
runSweepGridsFleet(std::vector<ScheduledGrid> grids,
                   const FleetOptions &fleet);

/**
 * The runner_daemon executable a driver's local slots spawn: @p flag
 * when set, else $AUTOCAT_RUNNER_DAEMON, else a runner_daemon next to
 * @p argv0 (the layout CMake produces).
 */
std::string resolveRunnerDaemon(const std::string &flag,
                                const char *argv0);

} // namespace autocat

#endif // AUTOCAT_SERVE_DIST_SCHEDULER_HPP
