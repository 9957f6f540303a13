/**
 * @file
 * Vectorized environment abstraction.
 *
 * A VecEnv steps N homogeneous environments ("streams") in lock-step
 * behind a batched interface: resetAll() yields an N x obs_dim
 * observation matrix and stepAll() advances every stream by one action.
 * Streams auto-reset: when a stream's episode ends, its row in the
 * returned observation batch is already the first observation of the
 * next episode (the done flag and step info still describe the step
 * that ended the episode).
 *
 * Two adapters are provided: SyncVecEnv steps the streams sequentially
 * on the calling thread, ThreadedVecEnv fans the per-stream work out to
 * a persistent worker pool. Both produce bitwise-identical trajectories
 * because each stream owns its state and RNG; thread scheduling cannot
 * reorder anything observable. Measured on 4 cores, ThreadedVecEnv is
 * slower on wall clock than SyncVecEnv at every stream count: a
 * guessing-game step costs less than the pool dispatch (numbers in
 * docs/BENCHMARKS.md).
 *
 * Streams must agree on observation size, action count, and whether
 * they mask actions; the adapters reject mixed streams at construction.
 *
 * The PPO trainer collects through a BatchStepSurface: the adapter's
 * own (BatchVecEnv, env/batch_env_pool.hpp) or, when batchSurface() is
 * null, makeStepAllSurface()'s wrapper over resetAll()/stepAll().
 *
 * Besides the full-batch stepAll(), stepRange() advances a contiguous
 * sub-batch of streams into caller-owned storage without allocating.
 */

#ifndef AUTOCAT_RL_VEC_ENV_HPP
#define AUTOCAT_RL_VEC_ENV_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "rl/env_interface.hpp"
#include "rl/mat.hpp"
#include "util/task_pool.hpp"

namespace autocat {

/** Result of stepping every stream once. */
struct VecStepResult
{
    /**
     * N x obs_dim next observations. For a stream whose episode ended
     * this step, the row is the fresh observation after auto-reset.
     */
    Matrix obs;
    std::vector<double> rewards;        ///< per-stream step reward
    std::vector<std::uint8_t> dones;    ///< 1 where the episode ended
    std::vector<StepInfo> infos;        ///< per-stream step metadata
};

/**
 * Optional in-place batch-stepping capability. An adapter that keeps a
 * persistent N x obs_dim observation matrix — each stream's row is
 * rewritten in place as the stream advances, with auto-reset semantics
 * identical to VecEnv::stepAll() — exposes this surface so the PPO
 * trainer can run the policy GEMM directly on the engine's matrix and
 * skip the per-step Matrix allocation + row copies of the generic
 * stepAll() path. Implemented by BatchVecEnv (env/batch_env_pool.hpp).
 */
class BatchStepSurface
{
  public:
    virtual ~BatchStepSurface() = default;

    /** The persistent observation matrix (valid after resetAllInPlace
     *  or VecEnv::resetAll on the same adapter). */
    virtual const Matrix &obsMatrix() const = 0;

    /**
     * Advance every stream one step, rewriting obsMatrix() rows in
     * place. @p actions, @p rewards, @p dones, @p infos all have one
     * slot per stream.
     */
    virtual void stepBatchInPlace(const std::size_t *actions,
                                  double *rewards, std::uint8_t *dones,
                                  StepInfo *infos) = 0;

    /** Reset every stream, refreshing obsMatrix() rows in place. */
    virtual void resetAllInPlace() = 0;

    /**
     * Row-major numEnvs x numActions action-validity mask matrix kept
     * current alongside obsMatrix() (each stream's row is rewritten in
     * place as the stream steps/resets), or nullptr when the streams do
     * not mask actions. Same zero-copy contract as the observation
     * matrix: the trainer reads rows straight out of the engine.
     */
    virtual const std::uint8_t *maskMatrix() const { return nullptr; }
};

/** Batched Gym-like interface over N environment streams. */
class VecEnv
{
  public:
    virtual ~VecEnv() = default;

    /**
     * The adapter's in-place batch-stepping surface, or nullptr when
     * it does not maintain a persistent observation matrix (the
     * generic adapters below).
     */
    virtual BatchStepSurface *batchSurface() { return nullptr; }

    /** Number of streams. */
    virtual std::size_t numEnvs() const = 0;

    /** Dimension of the flat observation vector (shared by streams). */
    virtual std::size_t observationSize() const = 0;

    /** Size of the discrete action space (shared by streams). */
    virtual std::size_t numActions() const = 0;

    /** Reset every stream; returns the N x obs_dim initial batch. */
    virtual Matrix resetAll() = 0;

    /**
     * Step every stream with its action (size numEnvs()). Streams whose
     * episodes end are reset automatically; see VecStepResult::obs.
     */
    virtual VecStepResult stepAll(const std::vector<std::size_t> &actions) = 0;

    /**
     * Step only the streams in [begin, end) into caller-owned storage,
     * without allocating. ThreadedVecEnv::stepAll() runs its full range
     * through it.
     *
     *  Pre:  begin <= end <= numEnvs(); @p actions has size numEnvs()
     *        (entries outside the range are ignored); @p out is
     *        pre-sized — obs numEnvs() x observationSize(), vectors
     *        numEnvs().
     *  Post: rows/slots [begin, end) of @p out hold the step results
     *        (auto-reset semantics identical to stepAll()); slots
     *        outside the range are untouched.
     *
     * The base implementation steps sequentially on the calling
     * thread; adapters may parallelize. Must not be called
     * concurrently with itself on an overlapping range, or with
     * resetAll()/stepAll().
     */
    virtual void stepRange(std::size_t begin, std::size_t end,
                           const std::vector<std::size_t> &actions,
                           VecStepResult &out);

    /**
     * Direct access to stream @p i — for decoration (detectors),
     * inspection, and sequential evaluation. Must not be used
     * concurrently with resetAll()/stepAll().
     */
    virtual Environment &env(std::size_t i) = 0;
};

/**
 * BatchStepSurface over a VecEnv without one of its own (batchSurface()
 * null): resetAllInPlace()/stepBatchInPlace() call resetAll()/stepAll()
 * and keep the returned observation matrix, and the mask matrix is
 * copied from every stream's actionMask() after each reset and step.
 * Its buffers are sized by the first reset, not here. @p envs must
 * outlive the surface.
 */
std::unique_ptr<BatchStepSurface> makeStepAllSurface(VecEnv &envs);

/** Sequential adapter: steps the streams one by one on the caller. */
class SyncVecEnv : public VecEnv
{
  public:
    /**
     * Own the given environments (all non-null, same dimensions, all
     * masking or none).
     */
    explicit SyncVecEnv(std::vector<std::unique_ptr<Environment>> envs);

    /** Borrow externally-owned environments (must outlive the adapter). */
    explicit SyncVecEnv(const std::vector<Environment *> &envs);

    /** Borrow a single environment (1-stream shorthand). */
    explicit SyncVecEnv(Environment &env);

    std::size_t numEnvs() const override { return envs_.size(); }
    std::size_t observationSize() const override;
    std::size_t numActions() const override;
    Matrix resetAll() override;
    VecStepResult stepAll(const std::vector<std::size_t> &actions) override;
    Environment &env(std::size_t i) override { return *envs_[i]; }

  private:
    std::vector<std::unique_ptr<Environment>> owned_;
    std::vector<Environment *> envs_;
};

/**
 * Worker-pool adapter: stepAll()/resetAll() dispatch each stream to a
 * persistent TaskPool (util/task_pool.hpp) and block until the batch
 * is complete. Trajectories are bitwise-identical to SyncVecEnv over
 * the same environments: each stream owns its state and writes only
 * its own output row, so the pool's claiming order is unobservable.
 */
class ThreadedVecEnv : public VecEnv
{
  public:
    /**
     * @param envs        owned streams (all non-null, same dimensions,
     *                    all masking or none)
     * @param num_threads worker count; 0 selects
     *                    min(numEnvs, hardware_concurrency)
     */
    explicit ThreadedVecEnv(std::vector<std::unique_ptr<Environment>> envs,
                            std::size_t num_threads = 0);

    ThreadedVecEnv(const ThreadedVecEnv &) = delete;
    ThreadedVecEnv &operator=(const ThreadedVecEnv &) = delete;

    std::size_t numEnvs() const override { return envs_.size(); }
    std::size_t observationSize() const override { return obs_dim_; }
    std::size_t numActions() const override { return num_actions_; }
    Matrix resetAll() override;
    VecStepResult stepAll(const std::vector<std::size_t> &actions) override;
    /** Parallel sub-batch step over [begin, end) on the pool. */
    void stepRange(std::size_t begin, std::size_t end,
                   const std::vector<std::size_t> &actions,
                   VecStepResult &out) override;
    Environment &env(std::size_t i) override { return *envs_[i]; }

    /** Worker threads actually running. */
    std::size_t numThreads() const { return pool_.numThreads(); }

  private:
    std::vector<std::unique_ptr<Environment>> envs_;
    std::size_t obs_dim_ = 0;
    std::size_t num_actions_ = 0;
    TaskPool pool_;
};

} // namespace autocat

#endif // AUTOCAT_RL_VEC_ENV_HPP
