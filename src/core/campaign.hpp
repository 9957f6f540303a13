/**
 * @file
 * Training campaigns: resumable multi-phase curriculum sessions.
 *
 * The paper's Section V-D results (Tables VIII/IX: agents that bypass
 * Cyclone, CC-Hunter, and miss-based detection) need more than a
 * one-shot explore() call: the agent first learns the attack in a
 * clean environment, then keeps training with a detector in the loop.
 * A TrainingSession owns one PPO trainer and runs an ordered list of
 * CurriculumPhases against it. Each phase carries
 *
 *  - environment mutations: a scenario swap, declarative detector
 *    attachments (DetectorSpec by name + DetectorMode), reward-weight
 *    overrides, and episode-mode switches,
 *  - its own stopping criterion: target accuracy and/or maximum
 *    detection rate (both evaluated greedily each epoch), bounded by
 *    maxEpochs,
 *  - checkpoint boundaries (see below).
 *
 * explore() (core/explore.hpp) is a thin one-phase campaign: a
 * CampaignConfig whose phase list is empty resolves to a single phase
 * built from the base ExplorationConfig's budget and accuracy target.
 *
 * ## Checkpointing and deterministic resume
 *
 * With CampaignConfig::checkpointPath set, the session writes a
 * checkpoint at every phase end and (optionally) every
 * checkpointEvery epochs. A checkpoint boundary is a *sync point*: the
 * session reseeds every environment stream with a seed derived from
 * (stream base seed, global epoch), restarts trainer collection, and
 * only then serializes the trainer (rl/checkpoint.hpp) together with
 * the campaign position and completed-phase results. Because the
 * uninterrupted run performs the same sync at the same boundary,
 * resuming from the file — which rebuilds the phase's environments
 * from scratch, loads the trainer, and applies the same reseed — is
 * bit-identical to never having stopped: same rollouts, same weights,
 * same reports.
 */

#ifndef AUTOCAT_CORE_CAMPAIGN_HPP
#define AUTOCAT_CORE_CAMPAIGN_HPP

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/explore.hpp"

namespace autocat {

/** Per-phase reward-weight overrides; unset fields keep the base. */
struct RewardOverrides
{
    std::optional<double> correctGuessReward;
    std::optional<double> wrongGuessReward;
    std::optional<double> stepReward;
    std::optional<double> lengthViolationReward;
    std::optional<double> detectionReward;
    std::optional<double> noGuessReward;

    /** Overwrite the set fields of @p env. */
    void apply(EnvConfig &env) const;
};

/** One curriculum phase of a campaign. */
struct CurriculumPhase
{
    /** Label for logs/results; empty selects "phase-<index>". */
    std::string name;

    /**
     * Scenario registry name this phase trains on; empty inherits the
     * campaign base's scenario. Swapping scenarios mid-campaign
     * requires identical observation/action dimensions (enforced by
     * PpoTrainer::setVecEnv).
     */
    std::string scenario;

    /**
     * Detectors attached to every stream at phase start. Non-empty
     * lists replace a detector scenario's built-in default attachment
     * (env/env_registry.hpp).
     */
    std::vector<DetectorSpec> detectors;

    RewardOverrides rewards;

    /** Episode-mode switches; unset fields keep the base. */
    std::optional<bool> detectionEnable;
    std::optional<bool> multiSecret;
    std::optional<unsigned> multiSecretEpisodeSteps;

    /** Hard epoch budget of the phase. */
    int maxEpochs = 50;

    /**
     * Stop early once the greedy eval reaches this accuracy (with at
     * least one guess per episode on average); negative disables the
     * accuracy criterion.
     */
    double targetAccuracy = -1.0;

    /**
     * Stop early only while the greedy eval detection rate is at or
     * below this bound (conjunctive with targetAccuracy when both are
     * set); negative disables the detection criterion.
     */
    double maxDetectionRate = -1.0;
};

/** A full campaign description. */
struct CampaignConfig
{
    /** Shared base: env/PPO config, scenario, streams, eval budget. */
    ExplorationConfig base;

    /**
     * Ordered phases; empty resolves to the single phase explore()
     * runs for the base config.
     */
    std::vector<CurriculumPhase> phases;

    /** Checkpoint file path; empty disables checkpointing. */
    std::string checkpointPath;

    /**
     * Mid-phase checkpoint cadence in epochs; 0 checkpoints at phase
     * ends only. Ignored without a checkpointPath.
     */
    int checkpointEvery = 0;

    /**
     * Resume from checkpointPath when the file exists (a missing file
     * starts fresh, so first runs and restarted runs share a config).
     */
    bool resume = false;
};

/** Outcome of one phase. */
struct PhaseResult
{
    std::string name;
    int epochsRun = 0;        ///< epochs executed in this phase
    bool converged = false;   ///< phase stop criterion was met
    int convergedEpoch = -1;  ///< 1-based within the phase; -1 if not
    long long envStepsEnd = 0;  ///< cumulative env steps at phase end
    EvalStats finalEval;        ///< greedy eval of the last epoch
};

/** Outcome of a whole campaign. */
struct CampaignResult
{
    std::vector<PhaseResult> phases;

    /**
     * Final-state summary in explore()'s result shape: convergence of
     * the *last* phase, final greedy evaluation, extracted attack
     * sequence and classification. Sweep campaign cells report this.
     */
    ExplorationResult final;

    /** True when this run continued from a checkpoint file. */
    bool resumed = false;
};

/**
 * A campaign execution: owns the trainer and the per-phase VecEnv,
 * which it builds from configuration alone (the scenario registry), so
 * any phase boundary can be rebuilt on resume.
 */
class TrainingSession
{
  public:
    using EpochCallback = PpoTrainer::EpochCallback;
    /** Invoked after each phase completes (0-based phase index). */
    using PhaseCallback =
        std::function<void(std::size_t index, const PhaseResult &)>;
    /** Invoked after each checkpoint write. */
    using CheckpointCallback = std::function<void(
        const std::string &path, std::size_t phase, int epochsDone)>;

    explicit TrainingSession(CampaignConfig config);
    ~TrainingSession();

    /** Execute (or resume) the campaign. One run() per session. */
    CampaignResult run(const EpochCallback &epoch_cb = {},
                       const PhaseCallback &phase_cb = {},
                       const CheckpointCallback &checkpoint_cb = {});

    /** The trainer (valid after run(); tests inspect/serialize it). */
    PpoTrainer &trainer();

    const CampaignConfig &config() const { return config_; }

    /** The phase list run() executes (explore()'s phase included). */
    std::vector<CurriculumPhase> resolvedPhases() const;

  private:
    ScenarioContext phaseContext(const CurriculumPhase &phase) const;
    std::string phaseScenario(const CurriculumPhase &phase) const;
    void buildPhaseEnv(const CurriculumPhase &phase,
                       const ScenarioContext &ctx);
    void boundarySync(const ScenarioContext &ctx);
    void writeCheckpoint(std::size_t next_phase, int epochs_done,
                         const std::vector<PhaseResult> &results);
    /** Open checkpointPath for resume; nullptr when the file does not
     *  exist. The returned stream is positioned at the embedded PPO
     *  section. */
    std::unique_ptr<std::ifstream>
    openResume(const std::vector<CurriculumPhase> &phases,
               std::size_t *start_phase, int *start_epoch,
               std::vector<PhaseResult> *results);

    CampaignConfig config_;
    std::unique_ptr<VecEnv> vec_;
    std::unique_ptr<PpoTrainer> trainer_;
    bool ran_ = false;
};

/**
 * Seed a stream's environment RNG is reset to at a checkpoint
 * boundary: a splitmix-style mix of the stream's construction seed and
 * the boundary's global epoch. Exposed for tests that reproduce
 * boundary state by hand.
 */
std::uint64_t checkpointBoundarySeed(std::uint64_t stream_seed,
                                     int global_epoch);

/**
 * Convenience: build and run a campaign in one call.
 */
CampaignResult
runCampaign(CampaignConfig config,
            const TrainingSession::EpochCallback &epoch_cb = {},
            const TrainingSession::PhaseCallback &phase_cb = {});

} // namespace autocat

#endif // AUTOCAT_CORE_CAMPAIGN_HPP
