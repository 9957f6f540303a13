/**
 * @file
 * Networked campaign service tests: the ACNF frame layer (round
 * trips, partial reads, fuzzing truncation/corruption), the
 * crash-safe grid manifest (re-entry, identity keying, recovery from
 * torn state), the daemon's command line and graceful SIGTERM, and
 * the full fleet scheduler — local daemon slots, hand-started
 * endpoints and fake daemons — all pinned against the byte-identity
 * oracle: a grid sharded across 3 TCP runner daemons, with one daemon
 * SIGKILLed mid-cell AND the scheduler itself killed and restarted
 * from the manifest, must render the exact same report as `workers=1`
 * in-process. Worker deaths are injected with the daemon's own chaos
 * flags on hand-started daemons; slots are ordered local first, then
 * endpoints, and cells are claimed in order, so a test knows which
 * cell a chaos daemon takes.
 *
 * Fleet tests spawn the real runner_daemon executable, located via the
 * AUTOCAT_RUNNER_DAEMON environment variable (set by CTest); they skip
 * when it is absent.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "eval/sweep_config.hpp"
#include "serve/cell_exec.hpp"
#include "serve/dist_scheduler.hpp"
#include "serve/gateway/campaign_gateway.hpp"
#include "serve/manifest/manifest.hpp"
#include "serve/net/frame.hpp"
#include "serve/wire.hpp"
#include "util/atomic_file.hpp"
#include "util/binio.hpp"
#include "util/socket.hpp"

namespace autocat {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory under the system temp root. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("autocat_net_" + name + "_" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** The tiny 4-cell grid test_dist also runs: 2 scenarios x 2 policies
 *  over a 2-block cache, two epochs per cell so that, with
 *  checkpoint_every=1, a mid-cell checkpoint boundary exists to kill
 *  and resume across. */
SweepConfig
tinyNetSweep()
{
    SweepConfig cfg;
    cfg.name = "tiny-net";
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

/** tinyNetSweep() with quarter-size epochs, for tests that check
 *  scheduling rather than bytes: a healthy daemon's per-epoch
 *  heartbeats stay well inside a 1 s budget under sanitizers too. */
SweepConfig
quickNetSweep()
{
    SweepConfig cfg = tinyNetSweep();
    cfg.base.ppo.stepsPerEpoch = 50;
    cfg.base.ppo.minibatchSize = 50;
    return cfg;
}

std::string
daemonPath()
{
    const char *p = std::getenv("AUTOCAT_RUNNER_DAEMON");
    return p ? p : "";
}

/** A fleet of @p local_slots scheduler-spawned daemons. */
FleetOptions
localFleet(int local_slots)
{
    FleetOptions fleet;
    fleet.localProcesses = local_slots;
    fleet.daemonPath = daemonPath();
    return fleet;
}

/** @p cells as one grid with its scratch under @p root; checkpointed
 *  every epoch unless @p checkpointed is false. */
ScheduledGrid
gridAt(const fs::path &root, std::vector<SweepCell> cells,
       bool checkpointed = true)
{
    ScheduledGrid grid;
    grid.name = "tiny-net";
    grid.cells = std::move(cells);
    grid.workDir = (root / "work").string();
    if (checkpointed) {
        grid.checkpointDir = (root / "ckpt").string();
        grid.checkpointEvery = 1;
    }
    return grid;
}

/** Run one grid on @p fleet. */
SweepReport
runGrid(ScheduledGrid grid, const FleetOptions &fleet)
{
    std::vector<ScheduledGrid> grids;
    grids.push_back(std::move(grid));
    return std::move(runSweepGridsFleet(std::move(grids), fleet).front());
}

/** The byte oracle: tinyNetSweep() run in-process with workers=1,
 *  checkpointed every epoch like every fleet run here (checkpoint
 *  boundaries resync env streams). Computed once per process. */
const std::string &
localReferenceJson()
{
    static const std::string json = [] {
        const fs::path root = scratchDir("reference");
        const SweepConfig cfg = tinyNetSweep();
        std::string out = sweepReportJson(
            runSweepCells(cfg.name, expandSweepGrid(cfg), 1, {},
                          (root / "ckpt").string(), 1),
            {});
        fs::remove_all(root);
        return out;
    }();
    return json;
}

/** Every process whose parent is this one, zombies included: after
 *  the scheduler returns or throws, its local daemons must be gone
 *  and reaped. */
std::vector<pid_t>
childPids()
{
    std::vector<pid_t> pids;
    std::error_code ec;
    for (fs::directory_iterator it("/proc", ec), end; !ec && it != end;
         it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (name.find_first_not_of("0123456789") != std::string::npos)
            continue;
        std::ifstream in(it->path() / "stat");
        std::string stat;
        std::getline(in, stat);
        // "pid (comm) state ppid ...": comm may hold spaces or parens.
        const std::size_t close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(stat.substr(close + 1));
        char state = 0;
        pid_t ppid = 0;
        if (rest >> state >> ppid && ppid == ::getpid())
            pids.push_back(static_cast<pid_t>(std::stol(name)));
    }
    return pids;
}

/** fork/exec a child with argv @p args; returns its pid. */
pid_t
spawnChild(const std::vector<std::string> &args)
{
    std::vector<std::string> owned = args;
    std::vector<char *> argv;
    for (std::string &a : owned)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    return pid;
}

/** One spawned runner_daemon plus its discovered ephemeral port. */
struct DaemonProc
{
    pid_t pid = -1;
    std::uint16_t port = 0;

    std::string
    endpoint() const
    {
        return "127.0.0.1:" + std::to_string(port);
    }
};

/** Spawn a daemon on an ephemeral port and wait for the port file. */
DaemonProc
spawnDaemon(const fs::path &root, const std::string &name,
            const std::vector<std::string> &extra_args = {})
{
    const std::string port_file = (root / (name + ".port")).string();
    std::vector<std::string> args = {
        daemonPath(), "--port",      "0",
        "--port-file", port_file,    "--work-dir",
        (root / name).string(),
    };
    args.insert(args.end(), extra_args.begin(), extra_args.end());

    DaemonProc daemon;
    daemon.pid = spawnChild(args);
    for (int i = 0; i < 1000 && !fs::exists(port_file); ++i)
        ::usleep(10 * 1000);
    if (!fs::exists(port_file))
        throw std::runtime_error("daemon never published its port");
    daemon.port = static_cast<std::uint16_t>(
        std::stoi(readWholeFile(port_file, "port file")));
    return daemon;
}

void
reapDaemon(DaemonProc &daemon, int sig = SIGKILL)
{
    if (daemon.pid <= 0)
        return;
    ::kill(daemon.pid, sig);
    int status = 0;
    ::waitpid(daemon.pid, &status, 0);
    daemon.pid = -1;
}

/** Wait up to @p timeout_s for @p pid to exit and return its wait
 *  status; a child still running then is SIGKILLed and reported as
 *  -1, so a test fails instead of hanging. */
int
waitExit(pid_t pid, double timeout_s)
{
    const auto t0 = std::chrono::steady_clock::now();
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count() > timeout_s) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            return -1;
        }
        ::usleep(10 * 1000);
    }
    return status;
}

// -------------------------------------------------------------- frames

TEST(NetFrame, RoundTripsEveryTypeThroughChunkedFeeds)
{
    const std::string binary_payload("\x00\x01\xff""frame\n\x07", 9);
    std::string stream;
    stream += encodeFrame(FrameType::Hello, "hello-bytes");
    stream += encodeFrame(FrameType::Job, binary_payload);
    stream += encodeFrame(FrameType::Heartbeat, "");
    stream += encodeFrame(FrameType::Checkpoint,
                          std::string(10000, 'c'));
    stream += encodeFrame(FrameType::Row, "row");

    // Partial read() returns are the TCP norm: every chunking of the
    // same stream must yield the same frames.
    for (const std::size_t chunk : {1ul, 2ul, 3ul, 7ul, 4096ul}) {
        FrameReader reader;
        std::vector<Frame> frames;
        for (std::size_t off = 0; off < stream.size(); off += chunk) {
            reader.feed(stream.data() + off,
                        std::min(chunk, stream.size() - off));
            Frame f;
            while (reader.next(f))
                frames.push_back(f);
        }
        ASSERT_EQ(frames.size(), 5u) << "chunk " << chunk;
        EXPECT_TRUE(reader.error().empty());
        EXPECT_EQ(reader.buffered(), 0u);
        EXPECT_EQ(frames[0].type, FrameType::Hello);
        EXPECT_EQ(frames[0].payload, "hello-bytes");
        EXPECT_EQ(frames[1].type, FrameType::Job);
        EXPECT_EQ(frames[1].payload, binary_payload);
        EXPECT_EQ(frames[2].type, FrameType::Heartbeat);
        EXPECT_TRUE(frames[2].payload.empty());
        EXPECT_EQ(frames[3].payload.size(), 10000u);
        EXPECT_EQ(frames[4].type, FrameType::Row);
    }
}

TEST(NetFrame, HelloPayloadRoundTrips)
{
    HelloPayload hello;
    hello.protocolVersion = 1;
    hello.jobWireVersion = kCellJobVersion;
    hello.rowWireVersion = kCellRowVersion;
    hello.checkpointEvery = 3;
    const HelloPayload back = decodeHello(encodeHello(hello));
    EXPECT_EQ(back.protocolVersion, 1u);
    EXPECT_EQ(back.jobWireVersion, kCellJobVersion);
    EXPECT_EQ(back.rowWireVersion, kCellRowVersion);
    EXPECT_EQ(back.checkpointEvery, 3);
    EXPECT_THROW(decodeHello("short"), std::runtime_error);
    EXPECT_THROW(decodeHello(encodeHello(hello) + "x"),
                 std::runtime_error);
}

TEST(NetFrame, FuzzTruncationNeverYieldsAPhantomFrame)
{
    std::string stream;
    stream += encodeFrame(FrameType::Job, "abcdefg");
    stream += encodeFrame(FrameType::Row, "0123456789");

    // Every prefix decodes at most the frames whose bytes are fully
    // present, never errors, never fabricates.
    const std::size_t first_total = encodeFrame(FrameType::Job,
                                                "abcdefg")
                                        .size();
    for (std::size_t len = 0; len < stream.size(); ++len) {
        FrameReader reader;
        reader.feed(stream.data(), len);
        Frame f;
        std::size_t got = 0;
        while (reader.next(f))
            ++got;
        EXPECT_TRUE(reader.error().empty()) << "len " << len;
        EXPECT_EQ(got, len >= first_total ? 1u : 0u) << "len " << len;
    }
}

TEST(NetFrame, FuzzEveryCorruptByteIsRejectedNotCrashed)
{
    const std::string stream = encodeFrame(FrameType::Job, "payload!");
    for (std::size_t i = 0; i < stream.size(); ++i) {
        std::string bad = stream;
        bad[i] = static_cast<char>(bad[i] ^ 0x20);
        FrameReader reader;
        reader.feed(bad.data(), bad.size());
        Frame f;
        // No flip may ever yield a frame: every byte is covered by
        // magic, type range, size bound, or the payload checksum.
        ASSERT_FALSE(reader.next(f)) << "corrupt byte " << i;
        const bool in_size_field = i >= 8 && i < 16;
        if (!in_size_field) {
            EXPECT_FALSE(reader.error().empty()) << "byte " << i;
            // Sticky: feeding good bytes must not revive the stream
            // (frame boundaries are unrecoverable).
            reader.feed(stream.data(), stream.size());
            EXPECT_FALSE(reader.next(f));
        } else if (reader.error().empty()) {
            // A flipped length byte that stays under the cap leaves
            // the reader waiting for payload that never arrives; the
            // connection owner sees EOF mid-frame and treats it as a
            // death. The reader must be starving, not mis-framing.
            EXPECT_EQ(reader.buffered(), bad.size());
        }
    }
}

TEST(NetFrame, ImplausibleSizeFailsFastWithoutThePayload)
{
    // A corrupt length field must fail on the HEADER, not stall the
    // connection waiting for garbage bytes that never arrive.
    std::string header;
    binPut(header, 0x464e4341u); // 'ACNF'
    binPut(header, static_cast<std::uint32_t>(FrameType::Job));
    binPut(header, kMaxFramePayload + 1);
    FrameReader reader;
    reader.feed(header.data(), header.size());
    Frame f;
    EXPECT_FALSE(reader.next(f));
    EXPECT_NE(reader.error().find("implausible"), std::string::npos)
        << reader.error();

    // Unknown type and bad magic fail the same fast way.
    FrameReader r2;
    std::string bad_type;
    binPut(bad_type, 0x464e4341u);
    binPut(bad_type, 99u);
    binPut(bad_type, std::uint64_t{0});
    r2.feed(bad_type.data(), bad_type.size());
    EXPECT_FALSE(r2.next(f));
    EXPECT_NE(r2.error().find("unknown frame type"), std::string::npos);

    FrameReader r3;
    const std::string junk = "this is not a frame stream at all";
    r3.feed(junk.data(), junk.size());
    EXPECT_FALSE(r3.next(f));
    EXPECT_NE(r3.error().find("bad magic"), std::string::npos);
}

// ------------------------------------------------------------ manifest

TEST(GridManifest, RecordReenterAdoptsVerbatimRows)
{
    const fs::path root = scratchDir("manifest_reenter");
    const std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    std::vector<std::string> jobs;
    for (const SweepCell &cell : cells)
        jobs.push_back(serializeCellJob(cell));
    const std::uint64_t hash = gridManifestHash(jobs);

    SweepCellResult row;
    row.cell = cells[1];
    row.completed = true;
    row.result.converged = true;
    const std::string row_bytes = serializeCellRow(row);

    {
        GridManifest manifest((root / "m").string(), "tiny-net", hash,
                              cells.size(), false);
        EXPECT_EQ(manifest.numDone(), 0u);
        manifest.recordRow(1, row_bytes);
        manifest.recordFailedAttempt(3);
        manifest.recordFailedAttempt(3);
    }
    // A fresh process re-enters: the finished cell adopts (bytes
    // verbatim on disk), the failed-attempt budget persists.
    GridManifest manifest((root / "m").string(), "tiny-net", hash,
                          cells.size(), false);
    EXPECT_EQ(manifest.numDone(), 1u);
    EXPECT_TRUE(manifest.cells()[1].done);
    EXPECT_TRUE(manifest.cells()[1].row.completed);
    EXPECT_EQ(manifest.cells()[1].row.cell.index, 1u);
    EXPECT_EQ(readWholeFile(manifest.rowPath(1), "row"), row_bytes);
    EXPECT_EQ(manifest.cells()[3].failedAttempts, 2);
    EXPECT_FALSE(manifest.cells()[3].done);
    fs::remove_all(root);
}

TEST(GridManifest, RefusesAForeignGridUnlessReset)
{
    const fs::path root = scratchDir("manifest_foreign");
    const std::string dir = (root / "m").string();
    {
        GridManifest manifest(dir, "grid-a", 111, 4, false);
        SweepCellResult row;
        row.cell.index = 0;
        manifest.recordRow(0, serializeCellRow(row));
    }
    // Different grid hash: refuse (silent mixing of two experiments'
    // rows is the failure mode this guards).
    EXPECT_THROW(GridManifest(dir, "grid-b", 222, 4, false),
                 std::invalid_argument);
    // Different cell count, same refusal.
    EXPECT_THROW(GridManifest(dir, "grid-a", 111, 5, false),
                 std::invalid_argument);
    // reset wipes and starts fresh.
    GridManifest manifest(dir, "grid-b", 222, 4, true);
    EXPECT_EQ(manifest.numDone(), 0u);
    EXPECT_FALSE(fs::exists(manifest.rowPath(0)));
    fs::remove_all(root);
}

TEST(GridManifest, TornStateAndCorruptRowsDemoteNotCrash)
{
    const fs::path root = scratchDir("manifest_torn");
    const std::string dir = (root / "m").string();
    SweepCellResult row;
    row.cell.index = 2;
    const std::string row_bytes = serializeCellRow(row);
    {
        GridManifest manifest(dir, "g", 7, 4, false);
        manifest.recordRow(2, row_bytes);
    }
    // Corrupt the row blob: its cell must demote to pending on
    // re-entry (and the bad file must be cleared), not crash or adopt.
    atomicWriteFile(dir + "/row_2.blob", "garbage", "row");
    {
        GridManifest manifest(dir, "g", 7, 4, false);
        EXPECT_EQ(manifest.numDone(), 0u);
        EXPECT_FALSE(fs::exists(dir + "/row_2.blob"));
        manifest.recordRow(2, row_bytes);
    }
    // Torn state file: progress is discarded (rows cannot be trusted
    // without a grid identity), the manifest starts fresh.
    atomicWriteFile(dir + "/manifest.state", "half-writ", "state");
    GridManifest manifest(dir, "g", 7, 4, false);
    EXPECT_EQ(manifest.numDone(), 0u);
    fs::remove_all(root);
}

TEST(GridManifest, RowBlobAloneMarksDone)
{
    // Crash ordering contract: the row is written before the state.
    // A manifest whose state never recorded the row must still adopt
    // it (the row blob is authoritative).
    const fs::path root = scratchDir("manifest_roworder");
    const std::string dir = (root / "m").string();
    SweepCellResult row;
    row.cell.index = 1;
    {
        GridManifest manifest(dir, "g", 9, 3, false);
        // Simulate the crash window: row on disk, state not updated.
        atomicWriteFile(dir + "/row_1.blob", serializeCellRow(row),
                        "row");
    }
    GridManifest manifest(dir, "g", 9, 3, false);
    EXPECT_EQ(manifest.numDone(), 1u);
    EXPECT_TRUE(manifest.cells()[1].done);
    fs::remove_all(root);
}

// ------------------------------------------------------- config keys

TEST(NetConfig, NewKeysRoundTripAndValidate)
{
    SweepConfig cfg = tinyNetSweep();
    cfg.distEndpoints = {"127.0.0.1:7001", "localhost:7002"};
    cfg.manifestDir = "state/manifest";
    cfg.manifestReset = true;
    cfg.gatewayTenant = "alice";
    cfg.gatewayPriority = 7;

    const SweepConfig back = parseSweepConfig(renderSweepConfig(cfg));
    ASSERT_EQ(back.distEndpoints.size(), 2u);
    EXPECT_EQ(back.distEndpoints[0], "127.0.0.1:7001");
    EXPECT_EQ(back.distEndpoints[1], "localhost:7002");
    EXPECT_EQ(back.manifestDir, "state/manifest");
    EXPECT_TRUE(back.manifestReset);
    EXPECT_EQ(back.gatewayTenant, "alice");
    EXPECT_EQ(back.gatewayPriority, 7);
    // Render->parse->render is a fixed point for the new keys too.
    EXPECT_EQ(renderSweepConfig(back), renderSweepConfig(cfg));

    // Endpoints are validated at parse time, not first connect.
    EXPECT_THROW(parseSweepConfig(std::string(
                     "sweep.dist_endpoints = not-an-endpoint\n")),
                 std::invalid_argument);
    EXPECT_THROW(parseSweepConfig(std::string(
                     "sweep.dist_endpoints = 127.0.0.1:99999\n")),
                 std::invalid_argument);
    // stopAfterCells is CLI-only, never a config key.
    EXPECT_THROW(
        parseSweepConfig(std::string("sweep.stop_after_cells = 1\n")),
        std::invalid_argument);
}

TEST(NetConfig, EndpointParsing)
{
    const TcpEndpoint e = parseTcpEndpoint("127.0.0.1:4417");
    EXPECT_EQ(e.host, "127.0.0.1");
    EXPECT_EQ(e.port, 4417);
    EXPECT_EQ(e.toString(), "127.0.0.1:4417");
    EXPECT_EQ(parseTcpEndpoint("localhost:1").host, "localhost");
    EXPECT_THROW(parseTcpEndpoint("no-colon"), std::invalid_argument);
    EXPECT_THROW(parseTcpEndpoint("h:"), std::invalid_argument);
    EXPECT_THROW(parseTcpEndpoint(":80"), std::invalid_argument);
    EXPECT_THROW(parseTcpEndpoint("h:0x50"), std::invalid_argument);
    EXPECT_THROW(parseTcpEndpoint("h:70000"), std::invalid_argument);
}

TEST(NetSocket, EveryDescriptorIsCloseOnExec)
{
    // A local daemon the scheduler spawns must not inherit its
    // listeners or connections: a peer's connect would land in a
    // backlog the daemon holds open and never accepts.
    const auto cloexec = [](int fd) {
        const int flags = ::fcntl(fd, F_GETFD);
        return flags >= 0 && (flags & FD_CLOEXEC) != 0;
    };
    std::uint16_t port = 0;
    OwnedFd listener = tcpListen(TcpEndpoint{}, port);
    ASSERT_TRUE(listener.valid());
    bool refused = false;
    OwnedFd client =
        tcpConnect(TcpEndpoint{"127.0.0.1", port}, 5000, refused);
    ASSERT_TRUE(client.valid());
    OwnedFd server = tcpAccept(listener.fd(), 5000);
    ASSERT_TRUE(server.valid());
    EXPECT_TRUE(cloexec(listener.fd()));
    EXPECT_TRUE(cloexec(client.fd()));
    EXPECT_TRUE(cloexec(server.fd()));
}

// ------------------------------------------ daemon command line, SIGTERM

TEST(DaemonArgs, RejectsMalformedPortsWithoutAPortFile)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("daemon_port");
    const std::string port_file = (root / "d.port").string();
    const std::pair<std::string, std::string> bad_args[] = {
        {"--port", "70000"},
        {"--port", "-1"},
        {"--port", "40000x"},
        {"--chaos-kill-after", "abc"},
        {"--chaos-sigterm-after", "-3"},
    };
    for (const auto &[flag, value] : bad_args) {
        const pid_t pid =
            spawnChild({daemonPath(), flag, value, "--port-file", port_file,
                        "--work-dir", (root / "d").string()});
        const int status = waitExit(pid, 10.0);
        ASSERT_NE(status, -1) << flag << " " << value << " kept running";
        ASSERT_TRUE(WIFEXITED(status)) << flag << " " << value;
        EXPECT_EQ(WEXITSTATUS(status), 2) << flag << " " << value;
        EXPECT_FALSE(fs::exists(port_file)) << flag << " " << value;
    }
    fs::remove_all(root);
}

TEST(DaemonSigterm, IdleDaemonExitsCleanly)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("daemon_sigterm");
    DaemonProc daemon = spawnDaemon(root, "d");
    ::kill(daemon.pid, SIGTERM);
    int status = 0;
    ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
    daemon.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    fs::remove_all(root);
}

/**
 * Graceful SIGTERM mid-cell: a daemon started with
 * --chaos-sigterm-after 1 exits with the retryable kRunnerExitSigterm
 * right after its first checkpoint upload, by which point the
 * scheduler holds that checkpoint. The retry — in a re-entered
 * scheduler, on local slots — resumes from it to workers=1 bytes.
 */
TEST(DaemonSigterm, MidCellExitIsRetryableAndTheRetryResumes)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("sigterm");

    const std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());

    ScheduledGrid grid = gridAt(root, cells);
    grid.manifestDir = (root / "manifest").string();

    // Leg 1: the SIGTERMed daemon is the whole fleet. It takes cell 0,
    // exits after its first upload and refuses the retry: the fleet
    // has retired, which fails loudly.
    DaemonProc daemon =
        spawnDaemon(root, "d", {"--chaos-sigterm-after", "1"});
    FleetOptions fleet;
    fleet.endpoints = {daemon.endpoint()};
    EXPECT_THROW(runGrid(grid, fleet), std::runtime_error);
    const int status = waitExit(daemon.pid, 10.0);
    daemon.pid = -1;
    ASSERT_TRUE(status != -1 && WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), kRunnerExitSigterm);
    EXPECT_TRUE(fs::exists(cellCheckpointPath(grid.checkpointDir, 0)));

    // Leg 2: a fresh scheduler retries cell 0 from that checkpoint.
    const SweepReport dist = runGrid(grid, localFleet(2));
    ASSERT_EQ(dist.cells.size(), cells.size());
    EXPECT_TRUE(dist.cells[0].completed) << dist.cells[0].error;
    EXPECT_EQ(dist.cells[0].attempts, 2);
    for (const std::size_t i : {1u, 2u, 3u})
        EXPECT_EQ(dist.cells[i].attempts, 1) << "cell " << i;
    EXPECT_EQ(sweepReportJson(dist, {}), localReferenceJson());
    fs::remove_all(root);
}

// ------------------------------------------------- fleet scheduling

TEST(DistScheduler, RejectsMalformedEndpointsWithoutOrphans)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("bad_endpoint");
    // The local daemons are spawned before the endpoint is parsed; the
    // throw must still reap them.
    FleetOptions fleet = localFleet(2);
    fleet.endpoints = {"not-an-endpoint"};
    EXPECT_THROW(runGrid(gridAt(root, expandSweepGrid(tinyNetSweep())),
                         fleet),
                 std::invalid_argument);
    EXPECT_TRUE(childPids().empty());
    fs::remove_all(root);
}

/**
 * THE acceptance oracle for local slots: a grid sharded across 2
 * local daemon slots plus one hand-started daemon that SIGKILLs itself
 * right after its first checkpoint upload — the scheduler requeues the
 * cell and the retry resumes from that upload — renders byte-identical
 * default reports to the same grid run in-process with workers=1.
 * Checkpoint cadence must match between the runs (boundaries resync
 * env streams); directories must differ (no shared state).
 */
TEST(DistScheduler, KilledWorkerResumesByteIdentical)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("identical");

    const std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    ASSERT_EQ(cells.size(), 4u);

    // Local slots come first and claim cells 0 and 1; the chaos
    // daemon claims cell 2.
    DaemonProc chaos =
        spawnDaemon(root, "chaos", {"--chaos-kill-after", "1"});
    FleetOptions fleet = localFleet(2);
    fleet.endpoints = {chaos.endpoint()};
    ScheduledGrid grid = gridAt(root, cells);
    const SweepReport dist = runGrid(std::move(grid), fleet);
    reapDaemon(chaos);

    ASSERT_EQ(dist.cells.size(), cells.size());
    EXPECT_EQ(dist.workersUsed, 3);
    // The injected death consumed exactly one extra attempt, on the
    // targeted cell only, and its retry finished the cell.
    EXPECT_EQ(dist.cells[2].attempts, 2);
    EXPECT_TRUE(dist.cells[2].completed);
    for (const std::size_t i : {0u, 1u, 3u})
        EXPECT_EQ(dist.cells[i].attempts, 1) << "cell " << i;

    EXPECT_EQ(sweepReportJson(dist, {}), localReferenceJson());
    EXPECT_TRUE(childPids().empty());
    fs::remove_all(root);
}

TEST(DistScheduler, RetryBudgetExhaustionLandsAsPerCellError)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("budget");

    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(2);

    // The local slot claims cell 0; the chaos daemon claims cell 1 and
    // dies, which exhausts a zero budget.
    DaemonProc chaos =
        spawnDaemon(root, "chaos", {"--chaos-kill-after", "1"});
    FleetOptions fleet = localFleet(1);
    fleet.endpoints = {chaos.endpoint()};
    fleet.maxRetries = 0;

    const SweepReport report = runGrid(gridAt(root, cells), fleet);
    reapDaemon(chaos);

    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_FALSE(report.cells[1].completed);
    EXPECT_EQ(report.cells[1].attempts, 1);
    EXPECT_EQ(report.cells[1].error.rfind("worker ", 0), 0u)
        << report.cells[1].error;
    EXPECT_NE(report.cells[1].error.find("(after 1 attempt)"),
              std::string::npos)
        << report.cells[1].error;
    // The healthy cell is unaffected: worker failures never abort the
    // rest of the grid.
    EXPECT_TRUE(report.cells[0].completed);
    EXPECT_EQ(report.numFailed(), 1u);
    fs::remove_all(root);
}

TEST(NetScheduler, LocalDaemonsMatchInProcessBytes)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("local_daemons");

    const std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());

    ScheduledGrid grid = gridAt(root, cells);
    const SweepReport dist = runGrid(std::move(grid), localFleet(3));

    EXPECT_EQ(dist.workersUsed, 3);
    for (const SweepCellResult &cell : dist.cells) {
        EXPECT_TRUE(cell.completed) << cell.error;
        EXPECT_EQ(cell.attempts, 1);
    }
    EXPECT_EQ(sweepReportJson(dist, {}), localReferenceJson());
    // Daemon scratch lives under the grid's work dir, and no daemon
    // outlives the run.
    EXPECT_TRUE(fs::is_directory(root / "work" / "local_0"));
    EXPECT_TRUE(childPids().empty());
    fs::remove_all(root);
}

TEST(NetScheduler, DeadLocalDaemonIsRespawnedForFree)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("respawn");

    // One local slot: when a cell finishes its daemon is idle, and the
    // progress callback SIGKILLs it. The next attempt must land on a
    // replacement daemon without costing the cell anything — with
    // maxRetries = 0 any charged attempt would fail the cell.
    ScheduledGrid grid = gridAt(root, expandSweepGrid(quickNetSweep()));
    int killed = 0;
    grid.progress = [&](const SweepCellResult &) {
        for (const pid_t pid : childPids()) {
            ::kill(pid, SIGKILL);
            ++killed;
        }
    };
    FleetOptions fleet = localFleet(1);
    fleet.maxRetries = 0;
    const SweepReport dist = runGrid(std::move(grid), fleet);

    EXPECT_EQ(killed, 4);
    for (const SweepCellResult &cell : dist.cells) {
        EXPECT_TRUE(cell.completed) << cell.error;
        EXPECT_EQ(cell.attempts, 1);
    }
    EXPECT_TRUE(childPids().empty());
    fs::remove_all(root);
}

TEST(NetScheduler, WedgedLocalDaemonIsKilledAndReplaced)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("wedged");

    // One local slot whose daemon is SIGSTOPped once its first cell
    // lands: the kernel still queues the next connection, so only a
    // stale heartbeat ends that attempt. Closing the connection alone
    // would leave the wedged daemon behind to take the retry too; the
    // slot must SIGKILL it so the retry runs on a fresh daemon.
    ScheduledGrid grid = gridAt(root, expandSweepGrid(quickNetSweep()));
    grid.cells.resize(2);
    bool stopped = false;
    grid.progress = [&](const SweepCellResult &) {
        if (stopped)
            return;
        for (const pid_t pid : childPids())
            ::kill(pid, SIGSTOP);
        stopped = true;
    };
    FleetOptions fleet = localFleet(1);
    fleet.heartbeatTimeoutS = 1.0;
    fleet.maxRetries = 1;
    const SweepReport report = runGrid(std::move(grid), fleet);

    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_EQ(report.cells[0].attempts, 1);
    EXPECT_TRUE(report.cells[1].completed) << report.cells[1].error;
    EXPECT_EQ(report.cells[1].attempts, 2);
    EXPECT_TRUE(childPids().empty());
    fs::remove_all(root);
}

TEST(NetScheduler, StopInjectionReapsLocalDaemons)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("stop_local");

    // Two slots run both cells; the first to finish stops the
    // scheduler with the other one still in flight.
    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(2);
    FleetOptions fleet = localFleet(2);
    fleet.stopAfterCells = 1;
    EXPECT_THROW(runGrid(gridAt(root, cells), fleet), DistStopInjected);
    EXPECT_TRUE(childPids().empty());
    fs::remove_all(root);
}

TEST(NetScheduler, DeadEndpointRetiresWithoutBurningRetries)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("dead_endpoint");

    // Grab a port nothing listens on: bind an ephemeral listener and
    // close it again.
    std::uint16_t dead_port = 0;
    {
        OwnedFd listener = tcpListen(TcpEndpoint{}, dead_port);
        ASSERT_TRUE(listener.valid());
    }

    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(2);
    FleetOptions fleet = localFleet(1);
    fleet.endpoints = {"127.0.0.1:" + std::to_string(dead_port)};
    fleet.maxRetries = 0; // any burned attempt would fail the cell

    const SweepReport report =
        runGrid(gridAt(root, cells, /*checkpointed=*/false), fleet);
    ASSERT_EQ(report.cells.size(), 2u);
    for (const SweepCellResult &cell : report.cells) {
        EXPECT_TRUE(cell.completed) << cell.error;
        EXPECT_EQ(cell.attempts, 1);
    }
    EXPECT_EQ(report.workersUsed, 2); // 1 local + 1 (retired) endpoint
    fs::remove_all(root);
}

TEST(NetScheduler, AllEndpointsDeadFailsLoudly)
{
    const fs::path root = scratchDir("all_dead");
    std::uint16_t dead_port = 0;
    {
        OwnedFd listener = tcpListen(TcpEndpoint{}, dead_port);
        ASSERT_TRUE(listener.valid());
    }
    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(1);
    FleetOptions fleet; // endpoint-only fleet
    fleet.endpoints = {"127.0.0.1:" + std::to_string(dead_port)};
    EXPECT_THROW(runGrid(gridAt(root, cells, /*checkpointed=*/false),
                         fleet),
                 std::runtime_error);
    fs::remove_all(root);
}

/** Listen once, send @p payload to whoever connects first, and stop
 *  listening (a reconnect is refused). With @p hold_open the
 *  connection then stays open, silent, until the peer closes it. */
std::thread
evilDaemon(std::uint16_t &port, std::string payload,
           bool hold_open = false)
{
    OwnedFd listener = tcpListen(TcpEndpoint{}, port);
    EXPECT_TRUE(listener.valid());
    return std::thread([fd = listener.release(),
                        payload = std::move(payload), hold_open] {
        OwnedFd owned(fd);
        OwnedFd conn = tcpAccept(owned.fd(), 20000);
        owned.reset();
        if (!conn.valid())
            return;
        if (!payload.empty())
            sendAll(conn.fd(), payload.data(), payload.size());
        char buf[4096];
        for (int i = 0; hold_open && i < 200; ++i) {
            if (waitReadable(conn.fd(), 100) &&
                recvSome(conn.fd(), buf, sizeof(buf)) <= 0)
                break;
        }
    });
}

TEST(NetScheduler, GarbageBeforeHandshakeRetiresEndpointForFree)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("evil_prehello");

    std::uint16_t evil_port = 0;
    std::thread evil =
        evilDaemon(evil_port, "this is definitely not a frame stream");

    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(2);
    FleetOptions fleet = localFleet(1);
    fleet.endpoints = {"127.0.0.1:" + std::to_string(evil_port)};
    fleet.maxRetries = 0; // malformed-before-handshake must be free

    const SweepReport report =
        runGrid(gridAt(root, cells, /*checkpointed=*/false), fleet);
    evil.join();
    for (const SweepCellResult &cell : report.cells) {
        EXPECT_TRUE(cell.completed) << cell.error;
        EXPECT_EQ(cell.attempts, 1);
    }
    fs::remove_all(root);
}

TEST(NetScheduler, MalformedFramesMidCellConsumeOneAttemptAndRequeue)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("evil_midcell");

    // A protocol-correct handshake followed by stream corruption: the
    // scheduler must close, charge ONE attempt, requeue the cell to a
    // healthy slot, and keep the rest of the grid flowing.
    HelloPayload hello;
    hello.jobWireVersion = kCellJobVersion;
    hello.rowWireVersion = kCellRowVersion;
    std::string payload = encodeFrame(FrameType::Hello,
                                      encodeHello(hello));
    payload += "garbage garbage garbage garbage!";
    std::uint16_t evil_port = 0;
    std::thread evil = evilDaemon(evil_port, std::move(payload));

    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(2);
    FleetOptions fleet = localFleet(1);
    fleet.endpoints = {"127.0.0.1:" + std::to_string(evil_port)};
    fleet.maxRetries = 1;

    const SweepReport report =
        runGrid(gridAt(root, cells, /*checkpointed=*/false), fleet);
    evil.join();
    ASSERT_EQ(report.cells.size(), 2u);
    // Slot order is deterministic: local takes cell 0, evil takes
    // cell 1; the corrupted stream costs cell 1 exactly one attempt.
    EXPECT_TRUE(report.cells[1].completed) << report.cells[1].error;
    EXPECT_EQ(report.cells[1].attempts, 2);
    EXPECT_TRUE(report.cells[0].completed);
    EXPECT_EQ(report.cells[0].attempts, 1);
    fs::remove_all(root);
}

TEST(DistScheduler, HungWorkerIsKilledRequeuedAndFinishes)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("hang");

    // A fake daemon that answers the handshake and then goes silent:
    // only the stale-heartbeat kill can end its attempt.
    HelloPayload hello;
    hello.jobWireVersion = kCellJobVersion;
    hello.rowWireVersion = kCellRowVersion;
    std::uint16_t silent_port = 0;
    std::thread silent = evilDaemon(
        silent_port, encodeFrame(FrameType::Hello, encodeHello(hello)),
        /*hold_open=*/true);

    std::vector<SweepCell> cells = expandSweepGrid(quickNetSweep());
    cells.resize(2);
    FleetOptions fleet = localFleet(1);
    fleet.endpoints = {"127.0.0.1:" + std::to_string(silent_port)};
    fleet.heartbeatTimeoutS = 1.0;
    fleet.maxRetries = 1;

    const SweepReport report = runGrid(gridAt(root, cells), fleet);
    silent.join();

    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_TRUE(report.cells[1].completed) << report.cells[1].error;
    EXPECT_EQ(report.cells[1].attempts, 2);
    EXPECT_EQ(report.cells[0].attempts, 1);
    EXPECT_EQ(report.numFailed(), 0u);
    fs::remove_all(root);
}

TEST(NetScheduler, MixedFleetMatchesLocalBytes)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("mixed");

    const std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());

    DaemonProc d0 = spawnDaemon(root, "d0");
    DaemonProc d1 = spawnDaemon(root, "d1");
    FleetOptions fleet = localFleet(1); // 1 local slot + 2 daemons
    fleet.endpoints = {d0.endpoint(), d1.endpoint()};
    ScheduledGrid grid = gridAt(root, cells);

    const SweepReport dist = runGrid(std::move(grid), fleet);
    reapDaemon(d0);
    reapDaemon(d1);
    EXPECT_EQ(dist.workersUsed, 3);
    EXPECT_EQ(sweepReportJson(dist, {}), localReferenceJson());
    fs::remove_all(root);
}

/**
 * THE acceptance oracle: a grid sharded across 3 localhost runner
 * daemons — one of which SIGKILLs itself right after its first
 * checkpoint upload — with the scheduler itself stop-injected
 * mid-grid and a FRESH scheduler re-entering through the grid
 * manifest, renders byte-identical default reports to the same grid
 * run in-process with workers=1. Already-recorded rows are adopted,
 * not re-run.
 */
TEST(NetScheduler, DaemonKillPlusSchedulerRestartIsByteIdentical)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("oracle");

    const std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    ASSERT_EQ(cells.size(), 4u);

    DaemonProc d0 = spawnDaemon(root, "d0");
    DaemonProc d1 =
        spawnDaemon(root, "d1", {"--chaos-kill-after", "1"});
    DaemonProc d2 = spawnDaemon(root, "d2");

    ScheduledGrid grid = gridAt(root, cells);
    grid.manifestDir = (root / "manifest").string();
    FleetOptions fleet; // daemons only
    fleet.endpoints = {d0.endpoint(), d1.endpoint(), d2.endpoint()};
    fleet.maxRetries = 1;

    // Run 1: the scheduler "dies" (stop injection) after two cells
    // land; daemon d1 SIGKILLed itself mid-cell along the way.
    FleetOptions first = fleet;
    first.stopAfterCells = 2;
    bool stopped = false;
    try {
        runGrid(grid, first);
    } catch (const DistStopInjected &e) {
        stopped = true;
        EXPECT_EQ(e.cellsDone, 2u);
    }
    ASSERT_TRUE(stopped);

    // Snapshot what the manifest recorded: those rows must be adopted
    // by the re-entered run, never recomputed.
    std::vector<std::pair<std::string, fs::file_time_type>> recorded;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string p =
            grid.manifestDir + "/row_" + std::to_string(i) + ".blob";
        if (fs::exists(p))
            recorded.emplace_back(p, fs::last_write_time(p));
    }
    EXPECT_EQ(recorded.size(), 2u);

    // Run 2: a FRESH scheduler process (new call, same manifest dir)
    // re-enters and finishes the grid on the surviving daemons.
    const SweepReport dist = runGrid(grid, fleet);
    reapDaemon(d0);
    reapDaemon(d1);
    reapDaemon(d2);

    EXPECT_EQ(dist.cellsAdopted, recorded.size());
    for (const auto &[path, mtime] : recorded) {
        EXPECT_EQ(fs::last_write_time(path), mtime)
            << path << " was rewritten by the re-entered run";
    }
    ASSERT_EQ(dist.cells.size(), cells.size());
    for (const SweepCellResult &cell : dist.cells)
        EXPECT_TRUE(cell.completed) << cell.error;
    EXPECT_EQ(sweepReportJson(dist, {}), localReferenceJson());
    fs::remove_all(root);
}

// ------------------------------------------------------------ gateway

TEST(Gateway, MultiTenantCampaignsShareOneFleetByteIdentically)
{
    if (daemonPath().empty())
        GTEST_SKIP() << "AUTOCAT_RUNNER_DAEMON not set";
    const fs::path root = scratchDir("gateway");

    // Two tenants, different (sub)grids, one fleet. Bob's campaign
    // outranks Alice's, so it schedules first.
    SweepConfig alice = tinyNetSweep();
    alice.name = "alice-nightly";
    alice.gatewayTenant = "alice";
    alice.gatewayPriority = 0;
    alice.grid.scenarios = {"guessing_game"};

    SweepConfig bob = tinyNetSweep();
    bob.name = "bob-quick";
    bob.gatewayTenant = "bob";
    bob.gatewayPriority = 5;
    bob.grid.policies = {ReplPolicy::Lru};

    const SweepReport alice_solo = runSweepCells(
        alice.name, expandSweepGrid(alice), 1, {});
    const SweepReport bob_solo =
        runSweepCells(bob.name, expandSweepGrid(bob), 1, {});

    CampaignGateway gateway((root / "gw").string(), localFleet(2));
    gateway.submit(alice);
    gateway.submit(bob);
    // Same (tenant, campaign) pair: refused, not silently duplicated.
    EXPECT_THROW(gateway.submit(bob), std::invalid_argument);
    // A tenant name that is not a path-safe token is refused.
    SweepConfig evil = tinyNetSweep();
    evil.gatewayTenant = "../escape";
    EXPECT_THROW(gateway.submit(evil), std::invalid_argument);

    const std::vector<GatewayResult> results = gateway.run();
    ASSERT_EQ(results.size(), 2u);
    // Priority order: bob first.
    EXPECT_EQ(results[0].tenant, "bob");
    EXPECT_EQ(results[1].tenant, "alice");

    // Per-tenant trees, reports on disk, and — the contract — each
    // campaign's bytes identical to running it alone with workers=1.
    EXPECT_EQ(results[0].reportJson, sweepReportJson(bob_solo, {}));
    EXPECT_EQ(results[1].reportJson, sweepReportJson(alice_solo, {}));
    EXPECT_EQ(readWholeFile(results[0].reportPath, "report"),
              results[0].reportJson);
    EXPECT_TRUE(fs::is_directory(root / "gw" / "alice" /
                                 "alice-nightly" / "manifest"));
    EXPECT_TRUE(fs::is_directory(root / "gw" / "bob" / "bob-quick" /
                                 "work"));
    EXPECT_TRUE(childPids().empty());
    fs::remove_all(root);
}

} // namespace
} // namespace autocat
