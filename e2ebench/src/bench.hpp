/**
 * @file
 * Shared pieces of the e2ebench binary: wall-clock timing, the traced
 * single-cell training loop, the per-layer probes and the runner_daemon
 * fleet. Everything here calls the library's public API only; nothing
 * inside src/ is instrumented.
 */

#ifndef E2EBENCH_BENCH_HPP
#define E2EBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "core/campaign.hpp"
#include "eval/sweep.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/** Wall seconds since @p t0 (steady_clock: never CPU time). */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (mean of the middle pair for even sizes). */
double median(std::vector<double> v);

// ------------------------------------------------------------ traced run

/**
 * Spans recorded around one single-phase campaign driven through
 * PpoTrainer's public runEpoch()/evaluate() loop — the loop
 * TrainingSession::run executes for a phase without checkpointing —
 * with a forwarding VecEnv that times every stepAll/stepBatchInPlace.
 */
struct TracedRun
{
    double wallS = 0.0;        ///< construction through extraction
    double setupS = 0.0;       ///< VecEnv + trainer construction
    std::vector<double> epochS;///< one runEpoch() span per epoch
    double evalS = 0.0;        ///< every evaluate() span, final included
    long long evalSteps = 0;   ///< env steps the evaluations took
    double vecStepS = 0.0;     ///< time inside VecEnv stepping calls
    long long vecSteps = 0;    ///< env steps taken through those calls
    long long vecCalls = 0;    ///< stepping calls
    autocat::ExplorationResult result;  ///< same fields TrainingSession fills
    std::size_t obsDim = 0;
    std::size_t numActions = 0;
    std::size_t streams = 0;

    // savePpoCheckpoint/loadPpoCheckpoint on the trained trainer,
    // timed after wallS closes.
    double checkpointWriteMs = 0.0;
    double checkpointReadMs = 0.0;
    std::string checkpointBytes;
};

/**
 * Run @p phase of a campaign over @p base with tracing, on the
 * environments buildPhaseVecEnv() makes. Checkpoint files of the probe
 * go under @p dir.
 */
TracedRun runTraced(const autocat::ExplorationConfig &base,
                    const autocat::CurriculumPhase &phase,
                    const std::filesystem::path &dir);

/**
 * Build @p phase's environments the way TrainingSession does (scenario
 * inheritance, reward and episode-mode overrides, detector specs,
 * adapter kind); the resolved context lands in @p ctx_out if given.
 */
std::unique_ptr<autocat::VecEnv>
buildPhaseVecEnv(const autocat::ExplorationConfig &base,
                 const autocat::CurriculumPhase &phase,
                 autocat::ScenarioContext *ctx_out = nullptr);

/** The single phase explore() runs for @p config. */
autocat::CurriculumPhase explorePhase(const autocat::ExplorationConfig &config);

// --------------------------------------------------------------- probes

/** Per-call timings of the update kernels at one workload's shapes. */
struct NnProbe
{
    double forwardTrainUs = 0.0;  ///< ActorCritic::forward, minibatch rows
    double backwardUs = 0.0;      ///< zeroGrad + backward, minibatch rows
    double adamUs = 0.0;          ///< clipGradNorm + Adam::step
    double forwardInferUs = 0.0;  ///< forwardNoGrad, one row per stream
    double forwardOneUs = 0.0;    ///< forwardOne
};

NnProbe probeNn(std::size_t obs_dim, std::size_t num_actions,
                const autocat::PpoConfig &ppo, std::size_t streams,
                std::uint64_t seed);

/** Minibatches one PPO epoch runs (updatePasses x ceil(steps / mb)). */
long long minibatchesPerEpoch(const autocat::PpoConfig &ppo);

/** Wire and frame codec timings. */
struct CodecProbe
{
    double jobEncodeUs = 0.0;
    double jobDecodeUs = 0.0;
    double rowEncodeUs = 0.0;
    double rowDecodeUs = 0.0;
    double frameEncodeUs = 0.0;  ///< checkpoint-sized payload
    double frameDecodeUs = 0.0;
};

/** Time the job/row blob codecs for @p cell and @p result, and one
 *  Checkpoint frame around @p checkpoint_bytes. */
CodecProbe probeCodecs(const autocat::SweepCell &cell,
                       const autocat::ExplorationResult &result,
                       const std::string &checkpoint_bytes);

// ---------------------------------------------------------------- fleet

/**
 * N runner_daemon processes on kernel-assigned ports, discovered
 * through --port-file. The destructor reaps every daemon (SIGTERM,
 * then SIGKILL after a grace period) so no daemon outlives the
 * benchmark on any path; each child also gets PR_SET_PDEATHSIG.
 */
class DaemonFleet
{
  public:
    /** @throws std::runtime_error when @p binary is missing, a daemon
     *  dies during start-up or never publishes its port. */
    DaemonFleet(const std::string &binary,
                const std::filesystem::path &dir, int count);
    ~DaemonFleet();
    DaemonFleet(const DaemonFleet &) = delete;
    DaemonFleet &operator=(const DaemonFleet &) = delete;

    const std::vector<std::string> &endpoints() const { return endpoints_; }

    /** Stop and wait for every daemon; idempotent. */
    void reap();

  private:
    std::vector<pid_t> pids_;
    std::vector<std::string> endpoints_;
};

/** Run @p cells on the fleet with checkpoints and a grid manifest
 *  under @p dir (fresh per call). */
autocat::SweepReport runFleetGrid(const autocat::SweepConfig &config,
                                  const std::vector<autocat::SweepCell> &cells,
                                  const std::vector<std::string> &endpoints,
                                  const std::filesystem::path &dir);

} // namespace e2e

#endif // E2EBENCH_BENCH_HPP
