#include "serve/net/transport.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/net/frame.hpp"
#include "serve/wire.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"
#include "util/socket.hpp"

namespace autocat {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// TCP slot: one runner_daemon endpoint (remote, or a local slot's own
// daemon), one connection per attempt.

class TcpRunnerTransport final : public RunnerTransport
{
    using Clock = std::chrono::steady_clock;

  public:
    explicit TcpRunnerTransport(const std::string &endpoint)
        : endpoint_(parseTcpEndpoint(endpoint)),
          name_("tcp:" + endpoint_.toString())
    {
        ignoreSigpipe();
    }

    const std::string &name() const override { return name_; }
    bool alive() const override { return alive_; }
    bool busy() const override { return busy_; }

    bool
    start(const AttemptSpec &spec) override
    {
        bool refused = false;
        fd_ = tcpConnect(endpoint_, kConnectTimeoutMs, refused);
        if (!fd_.valid()) {
            retire(refused ? "connection refused"
                           : std::string("connect failed: ") +
                                 std::strerror(errno));
            return false;
        }

        HelloPayload hello;
        hello.protocolVersion = kNetProtocolVersion;
        hello.jobWireVersion = kCellJobVersion;
        hello.rowWireVersion = kCellRowVersion;
        hello.checkpointEvery =
            spec.checkpointPath.empty() ? -1 : spec.checkpointEvery;

        // Hello, then the previous attempt's uploaded checkpoint (so a
        // retry resumes even on a different machine), then the job.
        std::string wire =
            encodeFrame(FrameType::Hello, encodeHello(hello));
        if (!spec.checkpointPath.empty() &&
            fs::exists(spec.checkpointPath)) {
            wire += encodeFrame(
                FrameType::Checkpoint,
                readWholeFile(spec.checkpointPath, "cell checkpoint"));
        }
        wire += encodeFrame(FrameType::Job, spec.jobBlob);
        if (!sendAll(fd_.fd(), wire.data(), wire.size())) {
            fd_.reset();
            retire("dropped the connection during job upload");
            return false;
        }

        setNonBlocking(fd_.fd());
        reader_ = FrameReader{};
        checkpointPath_ = spec.checkpointPath;
        handshaken_ = false;
        timedOut_ = false;
        busy_ = true;
        lastActivity_ = Clock::now();
        return true;
    }

    AttemptOutcome
    poll() override
    {
        AttemptOutcome out;
        if (timedOut_)
            return finish(died("timed out (stale heartbeat)"));

        bool eof = false;
        std::string sockError;
        char buf[64 * 1024];
        for (;;) {
            const long n = recvSome(fd_.fd(), buf, sizeof(buf));
            if (n > 0) {
                reader_.feed(buf, static_cast<std::size_t>(n));
                lastActivity_ = Clock::now();
                continue;
            }
            if (n == 0) {
                eof = true;
            } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // drained for now
            } else {
                sockError = std::strerror(errno);
            }
            break;
        }

        Frame frame;
        while (reader_.next(frame)) {
            if (!handshaken_ && frame.type != FrameType::Hello) {
                // A daemon that skips the handshake is the wrong build
                // or the wrong service; do not burn cell retries on it.
                retire("spoke before the handshake");
                return finish(diedNoAttempt(
                    "daemon skipped the handshake; endpoint retired"));
            }
            switch (frame.type) {
            case FrameType::Hello: {
                HelloPayload hello;
                try {
                    hello = decodeHello(frame.payload);
                } catch (const std::exception &e) {
                    retire(std::string("malformed hello: ") + e.what());
                    return finish(diedNoAttempt(
                        "daemon sent a malformed hello; endpoint "
                        "retired"));
                }
                if (hello.protocolVersion != kNetProtocolVersion ||
                    hello.jobWireVersion != kCellJobVersion ||
                    hello.rowWireVersion != kCellRowVersion) {
                    retire("version mismatch (daemon proto " +
                           std::to_string(hello.protocolVersion) +
                           ", job v" +
                           std::to_string(hello.jobWireVersion) +
                           ", row v" +
                           std::to_string(hello.rowWireVersion) + ")");
                    return finish(diedNoAttempt(
                        "daemon version mismatch; endpoint retired"));
                }
                handshaken_ = true;
                break;
            }
            case FrameType::Heartbeat:
                break; // liveness is any received byte; nothing to do
            case FrameType::Checkpoint:
                // The scheduler's disk is the checkpoint's durable
                // home: land each upload atomically where a retry (on
                // any transport) will look for it.
                if (!checkpointPath_.empty())
                    atomicWriteFile(checkpointPath_, frame.payload,
                                    "cell checkpoint");
                break;
            case FrameType::Row:
                out.kind = AttemptOutcome::Kind::Row;
                out.rowBytes = std::move(frame.payload);
                return finish(std::move(out));
            case FrameType::Job:
                return finish(
                    died("sent an unexpected frame (job)"));
            }
        }

        if (!reader_.error().empty()) {
            if (!handshaken_) {
                retire("malformed handshake (" + reader_.error() + ")");
                return finish(diedNoAttempt(
                    "daemon handshake was malformed; endpoint retired"));
            }
            return finish(died("sent a malformed frame (" +
                               reader_.error() + ")"));
        }
        if (eof || !sockError.empty()) {
            const std::string what =
                eof ? "closed the connection mid-cell"
                    : "connection error (" + sockError + ")";
            if (!handshaken_) {
                retire(what);
                return finish(diedNoAttempt(
                    "daemon " + what + " before the handshake; "
                    "endpoint retired"));
            }
            return finish(died(what));
        }
        return out; // Running
    }

    void
    kill() override
    {
        timedOut_ = true;
        fd_.reset();
    }

    double
    idleSeconds() const override
    {
        return std::chrono::duration<double>(Clock::now() -
                                             lastActivity_)
            .count();
    }

    void
    abandon() override
    {
        fd_.reset();
        busy_ = false;
    }

  private:
    static constexpr int kConnectTimeoutMs = 5000;

    AttemptOutcome
    died(std::string reason)
    {
        AttemptOutcome out;
        out.kind = AttemptOutcome::Kind::Died;
        out.reason = std::move(reason);
        return out;
    }

    AttemptOutcome
    diedNoAttempt(std::string reason)
    {
        AttemptOutcome out = died(std::move(reason));
        out.consumesAttempt = false;
        return out;
    }

    AttemptOutcome
    finish(AttemptOutcome out)
    {
        fd_.reset();
        busy_ = false;
        return out;
    }

    void
    retire(const std::string &why)
    {
        alive_ = false;
        AUTOCAT_LOG_WARN << "dist sweep: retiring endpoint " << name_
                         << ": " << why;
    }

    TcpEndpoint endpoint_;
    std::string name_;
    bool alive_ = true;
    bool busy_ = false;
    bool handshaken_ = false;
    bool timedOut_ = false;
    OwnedFd fd_;
    FrameReader reader_;
    std::string checkpointPath_;
    Clock::time_point lastActivity_{};
};

// ---------------------------------------------------------------------
// Local slot: a runner_daemon this process spawns, spoken to over
// loopback TCP exactly like a remote endpoint.

class LocalDaemonTransport final : public RunnerTransport
{
  public:
    LocalDaemonTransport(std::string daemon_path,
                         const std::string &work_dir, int slot)
        : daemonPath_(std::move(daemon_path)),
          daemonDir_(work_dir + "/local_" + std::to_string(slot)),
          portFile_(daemonDir_ + ".port"),
          name_("local[" + std::to_string(slot) + "]")
    {
        spawn();
    }

    ~LocalDaemonTransport() override { killDaemon(); }
    LocalDaemonTransport(const LocalDaemonTransport &) = delete;
    LocalDaemonTransport &operator=(const LocalDaemonTransport &) = delete;

    const std::string &name() const override { return name_; }
    bool alive() const override { return alive_; }
    bool busy() const override { return tcp_ && tcp_->busy(); }

    bool
    start(const AttemptSpec &spec) override
    {
        // A daemon that died since its last attempt, or that cannot
        // take this one, is replaced once; only a freshly spawned
        // daemon's failure retires the slot.
        reapIfExited();
        if (tryStart(spec))
            return true;
        if (!startedFresh_) {
            killDaemon();
            if (tryStart(spec))
                return true;
        }
        killDaemon();
        alive_ = false;
        AUTOCAT_LOG_WARN << "dist sweep: retiring " << name_
                         << ": a freshly spawned runner_daemon could "
                            "not take an attempt";
        return false;
    }

    AttemptOutcome
    poll() override
    {
        AttemptOutcome out = tcp_->poll();
        if (out.kind == AttemptOutcome::Kind::Died &&
            !out.consumesAttempt) {
            // The daemon never took the attempt: replace it at the
            // next start(), unless it was fresh (then nothing will
            // do better).
            killDaemon();
            if (startedFresh_) {
                alive_ = false;
                AUTOCAT_LOG_WARN << "dist sweep: retiring " << name_
                                 << ": " << out.reason;
            }
        }
        return out;
    }

    void
    kill() override
    {
        // Closing the connection alone would leave a wedged daemon
        // holding its one-connection slot.
        tcp_->kill();
        killDaemon();
    }

    double idleSeconds() const override { return tcp_->idleSeconds(); }

    void
    abandon() override
    {
        if (tcp_)
            tcp_->abandon();
        killDaemon();
    }

  private:
    static constexpr double kPortWaitS = 30.0;

    /** fork/exec a daemon on an ephemeral loopback port. */
    void
    spawn()
    {
        std::error_code ec;
        fs::remove(portFile_, ec); // a stale file names a dead port
        std::vector<std::string> args = {
            daemonPath_,  "--host",     "127.0.0.1", "--port",
            "0",          "--port-file", portFile_,  "--work-dir",
            daemonDir_};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        const pid_t parent = ::getpid();
        const pid_t pid = ::fork();
        if (pid < 0)
            throw std::runtime_error(std::string("dist sweep: fork: ") +
                                     std::strerror(errno));
        if (pid == 0) {
            // Die with the scheduler, even when it is SIGKILLed; the
            // getppid() check covers a parent that died before prctl.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        pid_ = pid;
        tcp_.reset();
    }

    /** Start @p spec on the current daemon, spawning one if there is
     *  none and connecting once its port is published. */
    bool
    tryStart(const AttemptSpec &spec)
    {
        if (pid_ <= 0)
            spawn();
        startedFresh_ = !tcp_; // no connection yet: a fresh daemon
        if (!tcp_) {
            const int port = waitForPort();
            if (port <= 0)
                return false;
            tcp_ = std::make_unique<TcpRunnerTransport>(
                "127.0.0.1:" + std::to_string(port));
        }
        return tcp_->start(spec);
    }

    /** The daemon's published port, or 0 when it exited or timed out
     *  first. */
    int
    waitForPort()
    {
        const auto t0 = std::chrono::steady_clock::now();
        for (;;) {
            std::ifstream in(portFile_);
            int port = 0;
            if (in >> port && port > 0)
                return port;
            if (reapIfExited())
                return 0;
            if (std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count() > kPortWaitS)
                return 0;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    /** Reap the daemon if it has exited; true when it had. */
    bool
    reapIfExited()
    {
        int status = 0;
        if (pid_ <= 0 || ::waitpid(pid_, &status, WNOHANG) != pid_)
            return false;
        pid_ = -1;
        return true;
    }

    /** SIGKILL the daemon and wait for it. */
    void
    killDaemon()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
    }

    std::string daemonPath_;
    std::string daemonDir_;
    std::string portFile_;
    std::string name_;
    pid_t pid_ = -1;
    bool alive_ = true;
    bool startedFresh_ = false; ///< last attempt went to a fresh daemon
    std::unique_ptr<TcpRunnerTransport> tcp_; ///< null until connected
};

} // namespace

std::unique_ptr<RunnerTransport>
makeTcpRunnerTransport(const std::string &endpoint)
{
    return std::make_unique<TcpRunnerTransport>(endpoint);
}

std::unique_ptr<RunnerTransport>
makeLocalDaemonTransport(std::string daemon_path,
                         const std::string &work_dir, int slot)
{
    return std::make_unique<LocalDaemonTransport>(std::move(daemon_path),
                                                  work_dir, slot);
}

} // namespace autocat
