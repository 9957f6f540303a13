/**
 * @file
 * RunnerTransport: the seam between the sweep scheduler and *where a
 * cell attempt physically runs*. The scheduler owns a fleet of
 * transports — each one worker slot — and speaks one vocabulary to
 * all of them: start an attempt, poll for its outcome, kill it when
 * its heartbeat goes stale. Every slot runs the same protocol against
 * the same worker binary, runner_daemon; mixed fleets (local slots
 * plus remote daemons) fall out for free.
 *
 *  - TcpRunnerTransport: one runner_daemon endpoint. A connection is
 *    one attempt: handshake Hello (protocol + job/row wire versions),
 *    ship the job blob (and the last uploaded checkpoint, so a retry
 *    resumes from the previous attempt's progress even on a different
 *    machine), then consume Heartbeat/Checkpoint/Row frames until the
 *    row lands or the stream dies. Checkpoint uploads are written
 *    (atomically) to the cell's scheduler-side checkpoint path — the
 *    scheduler's disk is the durable home; daemons are disposable.
 *
 *  - LocalDaemonTransport: a runner_daemon this process spawns on a
 *    loopback ephemeral port (discovered through its --port-file) and
 *    talks to through a TcpRunnerTransport. The daemon dies with the
 *    scheduler (PR_SET_PDEATHSIG), is SIGKILLed when its attempt's
 *    heartbeat goes stale, is replaced at the next start() when it
 *    has died, and is reaped on every exit path.
 *
 * Failure vocabulary, shared by both:
 *
 *  - Outcome::Row — the attempt produced row-blob bytes; the
 *    scheduler validates them (checksum, version, index).
 *  - Outcome::Died with consumesAttempt=true — the attempt was
 *    running and was lost (process death, connection drop, malformed
 *    frame, stale heartbeat). Costs one retry.
 *  - start() returning false, or Died with consumesAttempt=false —
 *    the attempt never actually started (unreachable endpoint,
 *    version-mismatched daemon). A remote transport retires itself
 *    (alive() goes false) and the cell requeues without burning its
 *    budget: a dead machine must not eat a cell's retries. A local
 *    slot replaces its daemon instead, and retires only when a
 *    freshly spawned daemon cannot take an attempt.
 */

#ifndef AUTOCAT_SERVE_NET_TRANSPORT_HPP
#define AUTOCAT_SERVE_NET_TRANSPORT_HPP

#include <memory>
#include <string>

namespace autocat {

/** Everything one attempt needs, resolved by the scheduler. */
struct AttemptSpec
{
    std::string jobBlob;        ///< serialized cell job (serve/wire.hpp)
    std::string checkpointPath; ///< scheduler-side ckpt; "" = disabled
    int checkpointEvery = 0;    ///< cadence when checkpointing is on
};

/** Result of polling a busy transport. */
struct AttemptOutcome
{
    enum class Kind
    {
        Running, ///< still working
        Row,     ///< rowBytes holds the attempt's row blob
        Died,    ///< reason says why; consumesAttempt says who pays
    };

    Kind kind = Kind::Running;
    std::string rowBytes;
    std::string reason;
    bool consumesAttempt = true;
};

/** One worker slot the scheduler can run attempts on. */
class RunnerTransport
{
  public:
    virtual ~RunnerTransport() = default;

    /** Stable display name ("local[2]", "tcp:127.0.0.1:4417"). */
    virtual const std::string &name() const = 0;

    /** False once permanently retired (unreachable endpoint). */
    virtual bool alive() const = 0;

    /** True while an attempt is in flight. */
    virtual bool busy() const = 0;

    /**
     * Begin an attempt. Returns false when it could not start — the
     * transport has retired itself and the caller requeues the cell
     * without consuming an attempt. Must only be called when idle.
     */
    virtual bool start(const AttemptSpec &spec) = 0;

    /** Non-blocking progress check; only meaningful while busy. A
     *  terminal outcome (Row/Died) frees the slot. */
    virtual AttemptOutcome poll() = 0;

    /** Forcibly end the in-flight attempt (stale heartbeat); a local
     *  slot also SIGKILLs its daemon. The next poll() reports the
     *  death as "timed out (stale heartbeat)". */
    virtual void kill() = 0;

    /** Seconds since the attempt last showed life (spawn, heartbeat,
     *  any received frame). */
    virtual double idleSeconds() const = 0;

    /** Scheduler is going down mid-run (stop injection): drop the
     *  connection and reap a local daemon without reporting an
     *  outcome. */
    virtual void abandon() = 0;
};

/**
 * Local slot @p slot: spawns `daemon_path --host 127.0.0.1 --port 0
 * --port-file <work_dir>/local_<slot>.port --work-dir
 * <work_dir>/local_<slot>` right away (so a fleet's daemons start in
 * parallel) and waits for the port at the first start().
 */
std::unique_ptr<RunnerTransport>
makeLocalDaemonTransport(std::string daemon_path,
                         const std::string &work_dir, int slot);

/** TCP slot speaking the serve/net frame protocol to a runner_daemon
 *  at @p endpoint ("host:port"; parsed eagerly — throws
 *  std::invalid_argument for a malformed endpoint). */
std::unique_ptr<RunnerTransport>
makeTcpRunnerTransport(const std::string &endpoint);

} // namespace autocat

#endif // AUTOCAT_SERVE_NET_TRANSPORT_HPP
