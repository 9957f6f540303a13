#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "serve/dist_scheduler.hpp"

namespace e2e {

namespace fs = std::filesystem;
using namespace autocat;

namespace {

/** fork/exec @p args with stdout/stderr appended to @p log; the child
 *  is SIGKILLed by the kernel if this process dies first. */
pid_t
spawn(const std::vector<std::string> &args, const fs::path &log)
{
    std::vector<std::string> owned = args;
    std::vector<char *> argv;
    for (std::string &a : owned)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(126);
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    return pid;
}

/** Wait up to @p timeout_s for @p pid; true when it was reaped. */
bool
waitFor(pid_t pid, double timeout_s)
{
    const auto t0 = Clock::now();
    for (;;) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid || (r < 0 && errno == ECHILD))
            return true;
        if (secondsSince(t0) > timeout_s)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

} // namespace

DaemonFleet::DaemonFleet(const std::string &binary, const fs::path &dir,
                         int count)
{
    if (binary.empty() || ::access(binary.c_str(), X_OK) != 0)
        throw std::runtime_error(
            "runner_daemon binary not found or not executable: '" + binary +
            "' (the fleet workload never falls back to in-process cells)");
    fs::create_directories(dir);
    try {
        std::vector<fs::path> port_files;
        for (int i = 0; i < count; ++i) {
            const std::string name = "daemon" + std::to_string(i);
            port_files.push_back(dir / (name + ".port"));
            fs::remove(port_files.back());
            pids_.push_back(spawn({binary, "--host", "127.0.0.1", "--port",
                                   "0", "--port-file",
                                   port_files.back().string(), "--work-dir",
                                   (dir / name).string()},
                                  dir / (name + ".log")));
        }
        const auto t0 = Clock::now();
        for (int i = 0; i < count; ++i) {
            for (;;) {
                std::ifstream in(port_files[i]);
                int port = 0;
                if (in >> port && port > 0) {
                    endpoints_.push_back("127.0.0.1:" + std::to_string(port));
                    break;
                }
                int status = 0;
                if (::waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
                    pids_[i] = -1;
                    throw std::runtime_error(
                        "runner_daemon " + std::to_string(i) +
                        " exited during start-up (see " +
                        (dir / ("daemon" + std::to_string(i) + ".log"))
                            .string() + ")");
                }
                if (secondsSince(t0) > 20.0)
                    throw std::runtime_error(
                        "runner_daemon never published its port");
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
    } catch (...) {
        reap();
        throw;
    }
}

DaemonFleet::~DaemonFleet() { reap(); }

void
DaemonFleet::reap()
{
    // An idle daemon exits 0 on SIGTERM within one accept timeout.
    for (pid_t pid : pids_)
        if (pid > 0)
            ::kill(pid, SIGTERM);
    for (pid_t &pid : pids_) {
        if (pid <= 0)
            continue;
        if (!waitFor(pid, 5.0)) {
            ::kill(pid, SIGKILL);
            waitFor(pid, 60.0);
        }
        pid = -1;
    }
    pids_.clear();
    endpoints_.clear();
}

SweepReport
runFleetGrid(const SweepConfig &config, const std::vector<SweepCell> &cells,
             const std::vector<std::string> &endpoints, const fs::path &dir)
{
    fs::remove_all(dir);
    ScheduledGrid grid;
    grid.name = config.name;
    grid.cells = cells;
    grid.workDir = (dir / "work").string();
    grid.checkpointDir = (dir / "ckpt").string();
    grid.checkpointEvery = config.checkpointInterval;
    grid.manifestDir = (dir / "manifest").string();

    FleetOptions fleet;
    fleet.endpoints = endpoints;
    fleet.maxRetries = config.distRetries;
    fleet.heartbeatTimeoutS = config.heartbeatTimeoutS;
    std::vector<ScheduledGrid> grids;
    grids.push_back(std::move(grid));
    SweepReport report = runSweepGridsFleet(std::move(grids), fleet).front();
    fs::remove_all(dir);
    return report;
}

} // namespace e2e
