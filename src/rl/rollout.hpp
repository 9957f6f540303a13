/**
 * @file
 * Rollout storage and generalized advantage estimation (GAE) for
 * vectorized collection.
 *
 * Transitions are stored time-major across N streams: flat index
 * t * numStreams + s addresses the step the trainer took at time t in
 * stream s. GAE runs independently per stream, so episode boundaries
 * in one stream never leak into another; each stream bootstraps from
 * its own final value.
 */

#ifndef AUTOCAT_RL_ROLLOUT_HPP
#define AUTOCAT_RL_ROLLOUT_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rl/mat.hpp"

namespace autocat {

/** Flat storage for one PPO collection phase. */
class RolloutBuffer
{
  public:
    /**
     * @param steps   timesteps per stream per epoch
     * @param streams stream count N
     * @param obs_dim observation size
     *
     * Allocates no observation storage: the flat observation matrix is
     * sized by the first stageObs().
     */
    RolloutBuffer(std::size_t steps, std::size_t streams,
                  std::size_t obs_dim);

    /**
     * Record one timestep across all streams in two phases: stageObs()
     * copies the N x obs_dim acting observations into the buffer
     * *before* the environments overwrite them, commitStep() records
     * the step's outcomes afterwards.
     */
    void stageObs(const Matrix &obs);
    void commitStep(const std::vector<std::size_t> &actions,
                    const std::vector<double> &rewards,
                    const std::vector<std::uint8_t> &dones,
                    const std::vector<double> &values,
                    const std::vector<double> &log_probs);

    /**
     * Turn on per-step action-mask storage (masked-policy training).
     * Must be called before the first transition is stored; once
     * enabled, every step must stage its N x @p num_actions mask
     * snapshot via stageMasks() before commitStep() (asserted), so the
     * update phase can replay exactly the masks the policy acted under.
     * Mask storage survives clear() — only the contents are dropped.
     */
    void enableMasks(std::size_t num_actions);

    /** True when enableMasks() was called. */
    bool masksEnabled() const { return num_actions_ > 0; }

    /**
     * Stage the acting masks for the pending step: @p masks is the
     * row-major N x numActions snapshot *before* the environments
     * advance (the masks the policy sampled under). May be called
     * before or after stageObs(), but must precede the step's commit;
     * masks must be enabled.
     */
    void stageMasks(const std::uint8_t *masks);

    /**
     * Masks restricted to flat @p indices, written row-major into
     * @p out (resized to indices.size() x numActions) — the mask
     * companion of gatherObsInto() for minibatch updates, destination-
     * passing so the update loop reuses one workspace.
     */
    void gatherMasksInto(std::vector<std::uint8_t> &out,
                         const std::vector<std::size_t> &indices) const;

    /** Rows [r0, r1) of gatherMasksInto(): mask rows indices[r0 ..
     *  r1 - 1] into the same rows of @p out, which already holds
     *  indices.size() rows; other rows are not touched. */
    void gatherMasksInto(std::vector<std::uint8_t> &out,
                         const std::vector<std::size_t> &indices,
                         std::size_t r0, std::size_t r1) const;

    /** Flat time-major mask bytes (size() x numActions). */
    const std::vector<std::uint8_t> &masks() const { return masks_; }

    /** Number of stored transitions (timesteps x streams). */
    std::size_t size() const { return steps_added_ * streams_; }

    /** Stream count N. */
    std::size_t numStreams() const { return streams_; }

    /** Timesteps per stream the buffer holds when full. */
    std::size_t capacitySteps() const { return steps_; }

    /** True when at capacity. */
    bool full() const { return steps_added_ == steps_; }

    /** Clear for the next epoch. */
    void clear();

    /**
     * Compute GAE advantages and returns, independently per stream.
     *
     * @param gamma       discount factor
     * @param lambda      GAE mixing factor
     * @param last_values per-stream bootstrap value of the state
     *                    following the final stored transition (0 for
     *                    streams whose final transition ended an
     *                    episode); size numStreams()
     */
    void computeAdvantages(double gamma, double lambda,
                           const std::vector<double> &last_values);

    /** Single-stream shorthand for computeAdvantages(). */
    void computeAdvantages(double gamma, double lambda, double last_value);

    /** Normalize advantages to zero mean / unit variance. */
    void normalizeAdvantages();

    /**
     * Observations restricted to flat @p indices, written into @p out
     * (resized to indices.size() x obs dim, every row overwritten).
     */
    void gatherObsInto(Matrix &out,
                       const std::vector<std::size_t> &indices) const;

    /**
     * Rows [r0, r1) of gatherObsInto(): observation rows indices[r0 ..
     * r1 - 1] into the same rows of @p out, which already has the
     * indices.size() x obs dim shape; other rows are not touched, so
     * disjoint ranges may be gathered concurrently (the training
     * step's row blocks gather straight into the torso's input).
     */
    void gatherObsInto(Matrix &out, const std::vector<std::size_t> &indices,
                       std::size_t r0, std::size_t r1) const;

    const std::vector<std::size_t> &actions() const { return actions_; }
    const std::vector<double> &rewards() const { return rewards_; }
    const std::vector<double> &logProbs() const { return log_probs_; }
    const std::vector<double> &values() const { return values_; }
    const std::vector<std::uint8_t> &dones() const { return dones_; }
    const std::vector<double> &advantages() const { return advantages_; }
    const std::vector<double> &returns() const { return returns_; }

  private:
    std::size_t steps_;        ///< timesteps per stream
    std::size_t streams_;      ///< stream count N
    std::size_t obs_dim_;
    std::size_t num_actions_ = 0;  ///< mask width; 0 = masks disabled
    std::size_t steps_added_ = 0;
    bool staged_ = false;       ///< stageObs() awaiting its commitStep()
    bool mask_staged_ = false;  ///< stageMasks() seen for pending step
    Matrix obs_;  ///< (steps * N) x obs_dim, row t * N + s; sized lazily
    std::vector<std::uint8_t> masks_;  ///< flat time-major N x A rows
    std::vector<std::size_t> actions_;
    std::vector<double> rewards_;
    std::vector<std::uint8_t> dones_;  ///< plain bytes: no bit-packed
                                       ///< proxy churn in the GAE loop
    std::vector<double> values_;
    std::vector<double> log_probs_;
    std::vector<double> advantages_;
    std::vector<double> returns_;
};

} // namespace autocat

#endif // AUTOCAT_RL_ROLLOUT_HPP
