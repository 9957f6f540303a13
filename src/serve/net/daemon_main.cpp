/**
 * @file
 * runner_daemon: the one worker executable of the sweep service. It
 * listens on one endpoint, accepts one connection at a time (the
 * scheduler treats each daemon as exactly one fleet slot), and
 * executes each delivered cell through the shared cell-execution path
 * (serve/cell_exec.hpp) — so daemon cells are byte-identical to
 * in-process cells by construction. The scheduler spawns one daemon
 * per local slot (`--dist N`) on a loopback ephemeral port; remote
 * slots are daemons started by hand and passed as endpoints.
 *
 *     runner_daemon [--host H] [--port N] [--port-file PATH]
 *                   [--work-dir DIR]
 *                   [--chaos-kill-after N | --chaos-sigterm-after N]
 *
 * --port 0 (the default) binds a kernel-assigned ephemeral port, and
 * --port-file publishes the bound port atomically — the CI-parallel-
 * safe discovery handshake (parallel jobs cannot collide on a port
 * they never chose). A --port that is not a whole decimal in 0..65535,
 * or a chaos count that is not a non-negative decimal, is a usage
 * error (exit 2), and no port file is written.
 *
 * Per connection (see serve/net/frame.hpp for the session shape): the
 * daemon expects Hello [Checkpoint] Job, replies with its own Hello
 * (version skew closes the connection; the scheduler retires the
 * endpoint), then streams Heartbeat per epoch and a Checkpoint upload
 * after every checkpoint write, finishing with the Row. The
 * scheduler's disk is the durable checkpoint home: a delivered
 * Checkpoint frame seeds this attempt, a missing one clears any stale
 * local file, so a retried cell resumes correctly on ANY machine.
 *
 * Failure behavior:
 *  - a malformed frame stream closes the connection (the scheduler
 *    requeues the cell) and the daemon keeps serving;
 *  - a dead scheduler surfaces as a send failure mid-cell; the daemon
 *    abandons the orphaned attempt and goes back to accepting;
 *  - SIGTERM is graceful: observed at epoch/checkpoint boundaries
 *    (checkpoints are atomic + fsynced, never torn), a final
 *    Heartbeat is flushed, and the daemon exits with the retryable
 *    code kRunnerExitSigterm; while idle it exits 0.
 *
 * Chaos flags (tests, dist-smoke and net-smoke CI): kill or SIGTERM
 * the daemon right after its Nth checkpoint *upload* — the scheduler
 * provably holds the bytes the retry will resume from.
 */

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include <signal.h>
#include <unistd.h>

#include "core/config_parser.hpp"
#include "rl/mat.hpp"
#include "serve/cell_exec.hpp"
#include "serve/net/frame.hpp"
#include "serve/wire.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"
#include "util/socket.hpp"

namespace {

using namespace autocat;

volatile std::sig_atomic_t g_sigterm = 0;

void
onSigterm(int)
{
    g_sigterm = 1;
}

/** Thrown out of cell callbacks to abandon an attempt whose scheduler
 *  vanished (send failure). runSweepCell captures it into a row the
 *  daemon then discards — nobody is listening. */
struct SchedulerGone : std::runtime_error
{
    SchedulerGone() : std::runtime_error("scheduler connection lost") {}
};

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--host H] [--port N] [--port-file PATH]"
                 " [--work-dir DIR] [--chaos-kill-after N]"
                 " [--chaos-sigterm-after N]\n";
    return 2;
}

/** Parse a whole decimal port number in 0..65535; throws
 *  std::invalid_argument for anything else. */
std::uint16_t
parsePort(const std::string &text)
{
    if (text.empty() || text.size() > 5 ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        std::stoul(text) > 65535)
        throw std::invalid_argument("not a port number");
    return static_cast<std::uint16_t>(std::stoul(text));
}

struct DaemonOptions
{
    TcpEndpoint bind;          // port 0 = ephemeral
    std::string portFile;      // publish the bound port here
    std::string workDir = "."; // local checkpoint scratch
    int chaosKillAfter = 0;    // 0 = disabled
    int chaosSigtermAfter = 0; // 0 = disabled
};

/** Outcome of reading the connection preamble (Hello [Checkpoint]
 *  Job). */
struct Preamble
{
    bool ok = false;
    HelloPayload hello;
    bool haveCheckpoint = false;
    std::string checkpointBytes;
    std::string jobBytes;
};

/**
 * Read frames until the Job arrives, replying to the scheduler's
 * Hello with ours. Returns ok=false (connection must close) on
 * malformed input, version skew, EOF, or SIGTERM while waiting.
 */
Preamble
readPreamble(int fd)
{
    Preamble pre;
    FrameReader reader;
    bool saidHello = false;
    int idle_polls = 0;
    constexpr int kIdleLimitPolls = 240; // 240 x 250ms = 60s

    char buf[64 * 1024];
    for (;;) {
        if (g_sigterm)
            return pre;
        Frame frame;
        while (reader.next(frame)) {
            if (!saidHello) {
                if (frame.type != FrameType::Hello) {
                    AUTOCAT_LOG_WARN
                        << "runner_daemon: peer spoke before Hello";
                    return pre;
                }
                try {
                    pre.hello = decodeHello(frame.payload);
                } catch (const std::exception &e) {
                    AUTOCAT_LOG_WARN
                        << "runner_daemon: malformed hello: "
                        << e.what();
                    return pre;
                }
                // Always answer with our versions — on a mismatch the
                // scheduler learns exactly what is running here before
                // the connection closes.
                HelloPayload mine;
                mine.protocolVersion = kNetProtocolVersion;
                mine.jobWireVersion = kCellJobVersion;
                mine.rowWireVersion = kCellRowVersion;
                mine.checkpointEvery = -1;
                const std::string reply =
                    encodeFrame(FrameType::Hello, encodeHello(mine));
                if (!sendAll(fd, reply.data(), reply.size()))
                    return pre;
                if (pre.hello.protocolVersion != kNetProtocolVersion ||
                    pre.hello.jobWireVersion != kCellJobVersion ||
                    pre.hello.rowWireVersion != kCellRowVersion) {
                    AUTOCAT_LOG_WARN
                        << "runner_daemon: version mismatch with "
                           "scheduler; closing";
                    return pre;
                }
                saidHello = true;
                continue;
            }
            if (frame.type == FrameType::Checkpoint &&
                !pre.haveCheckpoint && pre.jobBytes.empty()) {
                pre.haveCheckpoint = true;
                pre.checkpointBytes = std::move(frame.payload);
                continue;
            }
            if (frame.type == FrameType::Job) {
                pre.jobBytes = std::move(frame.payload);
                pre.ok = true;
                return pre;
            }
            AUTOCAT_LOG_WARN << "runner_daemon: unexpected frame in "
                                "preamble; closing";
            return pre;
        }
        if (!reader.error().empty()) {
            AUTOCAT_LOG_WARN << "runner_daemon: " << reader.error()
                             << "; closing connection";
            return pre;
        }

        if (!waitReadable(fd, 250)) {
            if (++idle_polls >= kIdleLimitPolls) {
                AUTOCAT_LOG_WARN << "runner_daemon: preamble timed "
                                    "out; closing connection";
                return pre;
            }
            continue;
        }
        idle_polls = 0;
        const long n = recvSome(fd, buf, sizeof(buf));
        if (n > 0) {
            reader.feed(buf, static_cast<std::size_t>(n));
        } else if (n == 0) {
            return pre; // peer closed before delivering a job
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
            return pre;
        }
    }
}

/** Serve one connection: preamble, cell execution with streamed
 *  heartbeats/checkpoint uploads, then the row. */
void
serveConnection(int fd, const DaemonOptions &options)
{
    const Preamble pre = readPreamble(fd);
    if (!pre.ok)
        return;

    SweepCell cell;
    try {
        cell = deserializeCellJob(pre.jobBytes);
    } catch (const std::exception &e) {
        AUTOCAT_LOG_WARN << "runner_daemon: bad job blob ("
                         << e.what() << "); closing connection";
        return;
    }
    AUTOCAT_LOG_INFO << "runner_daemon: cell " << cell.index << " ("
                     << cell.label << ") attempt starting"
                     << (pre.haveCheckpoint ? " from checkpoint" : "");

    CellExecOptions exec;
    if (pre.hello.checkpointEvery >= 0) {
        // The scheduler's checkpoint bytes (not any stale local file)
        // decide what this attempt resumes from.
        exec.checkpointPath = options.workDir + "/cell_" +
                              std::to_string(cell.index) + ".ckpt";
        exec.checkpointEvery = pre.hello.checkpointEvery;
        if (pre.haveCheckpoint) {
            atomicWriteFile(exec.checkpointPath, pre.checkpointBytes,
                            "daemon checkpoint");
        } else {
            ::unlink(exec.checkpointPath.c_str());
        }
    }

    const auto send = [fd](FrameType type, const std::string &payload) {
        const std::string wire = encodeFrame(type, payload);
        if (!sendAll(fd, wire.data(), wire.size()))
            throw SchedulerGone();
    };
    const auto exitIfTermed = [&] {
        if (!g_sigterm)
            return;
        // Graceful: the last checkpoint upload is already on the
        // scheduler's disk; flush one final liveness signal and exit
        // with the retryable code.
        try {
            send(FrameType::Heartbeat, "");
        } catch (const SchedulerGone &) {
        }
        ::_exit(kRunnerExitSigterm);
    };

    int uploads = 0;
    exec.checkpointCb = [&](const std::string &path, std::size_t, int) {
        send(FrameType::Checkpoint,
             readWholeFile(path, "daemon checkpoint"));
        ++uploads;
        if (options.chaosKillAfter > 0 &&
            uploads >= options.chaosKillAfter) {
            // The upload above completed: the scheduler provably holds
            // the bytes the retry resumes from.
            ::raise(SIGKILL);
        }
        if (options.chaosSigtermAfter > 0 &&
            uploads >= options.chaosSigtermAfter) {
            ::raise(SIGTERM); // handled: sets g_sigterm
        }
        exitIfTermed();
    };
    exec.epochCb = [&](const EpochStats &) {
        send(FrameType::Heartbeat, "");
        exitIfTermed();
    };

    SweepCellResult row = runSweepCell(std::move(cell), exec);
    if (!row.completed && !row.error.empty() && g_sigterm == 0) {
        // Distinguish an abandoned attempt (SchedulerGone captured by
        // runSweepCell) from a deterministic cell failure: the former
        // has nobody to report to.
        if (row.error.find("scheduler connection lost") !=
            std::string::npos) {
            AUTOCAT_LOG_WARN << "runner_daemon: scheduler vanished "
                                "mid-cell; abandoning attempt";
            return;
        }
    }
    try {
        send(FrameType::Row, serializeCellRow(row));
    } catch (const SchedulerGone &) {
        AUTOCAT_LOG_WARN << "runner_daemon: scheduler vanished before "
                            "the row was delivered";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonOptions options;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        try {
            if (arg == "--host")
                options.bind.host = value();
            else if (arg == "--port")
                options.bind.port = parsePort(value());
            else if (arg == "--port-file")
                options.portFile = value();
            else if (arg == "--work-dir")
                options.workDir = value();
            else if (arg == "--chaos-kill-after")
                options.chaosKillAfter = parseConfigInt(value(), arg);
            else if (arg == "--chaos-sigterm-after")
                options.chaosSigtermAfter = parseConfigInt(value(), arg);
            else
                return usage(argv[0]);
        } catch (const std::exception &) {
            std::cerr << arg << ": bad value\n";
            return 2;
        }
    }

    ignoreSigpipe();
    {
        struct sigaction sa = {};
        sa.sa_handler = onSigterm;
        ::sigaction(SIGTERM, &sa, nullptr);
    }

    // One daemon is one fleet slot: a box with C cores runs C daemons,
    // so a cell's kernels stay on this thread.
    const MatThreadScope one_slot(1);

    {
        // Local checkpoint scratch must exist before the first cell
        // tries to stage a checkpoint into it.
        std::error_code ec;
        std::filesystem::create_directories(options.workDir, ec);
        if (ec || !std::filesystem::is_directory(options.workDir)) {
            std::cerr << "runner_daemon: cannot create work dir "
                      << options.workDir << "\n";
            return 1;
        }
    }

    std::uint16_t bound = 0;
    OwnedFd listener = tcpListen(options.bind, bound);
    if (!listener.valid()) {
        std::cerr << "runner_daemon: cannot listen on "
                  << options.bind.toString() << ": "
                  << std::strerror(errno) << "\n";
        return 1;
    }
    if (!options.portFile.empty()) {
        try {
            atomicWriteFile(options.portFile, std::to_string(bound),
                            "daemon port file");
        } catch (const std::exception &e) {
            std::cerr << "runner_daemon: " << e.what() << "\n";
            return 1;
        }
    }
    AUTOCAT_LOG_INFO << "runner_daemon: listening on "
                     << options.bind.host << ":" << bound;

    // One connection at a time: the scheduler schedules each daemon as
    // exactly one fleet slot, so serial service IS the contract.
    while (!g_sigterm) {
        OwnedFd conn = tcpAccept(listener.fd(), 250);
        if (!conn.valid())
            continue; // timeout or EINTR: recheck the shutdown flag
        serveConnection(conn.fd(), options);
    }
    AUTOCAT_LOG_INFO << "runner_daemon: SIGTERM while idle; exiting";
    return 0;
}
