/**
 * @file
 * Structure-of-arrays batch environment engine.
 *
 * BatchEnvPool owns N environment streams and a persistent N x obs_dim
 * observation matrix. Guessing-game streams have their observation row
 * bound *inside* that matrix (CacheGuessingGame::bindObservationRow),
 * so stepping a stream updates its row incrementally in place — no
 * per-env std::vector allocation, no copy into the batch. stepBatch()
 * advances every stream with one flat loop over devirtualized stream
 * pointers; an optional destination pointer copies the rows out in one
 * bulk memcpy when the caller's matrix is not the pool's own.
 *
 * Non-guessing-game Environment subclasses (custom registry scenarios,
 * scripted test envs) fall back to the generic step()/reset() calls
 * with a row memcpy, so the pool is a universal adapter; only the fast
 * path changes, never the semantics.
 *
 * BatchVecEnv wraps a pool behind the VecEnv interface (stepAll /
 * stepRange / env(i) with auto-reset), producing bitwise-identical
 * trajectories to SyncVecEnv over the same streams, and additionally
 * exposes its pool as the in-place BatchStepSurface the PPO trainer
 * collects through, with no row copies.
 */

#ifndef AUTOCAT_ENV_BATCH_ENV_POOL_HPP
#define AUTOCAT_ENV_BATCH_ENV_POOL_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "env/guessing_game.hpp"
#include "rl/env_interface.hpp"
#include "rl/mat.hpp"
#include "rl/vec_env.hpp"

namespace autocat {

/** SoA pool of N streams stepping into one observation matrix. */
class BatchEnvPool
{
  public:
    /** Own the given streams (all non-null, same dimensions). */
    explicit BatchEnvPool(std::vector<std::unique_ptr<Environment>> envs);

    // The bound observation rows point into obs_; moving the pool
    // would not dangle (Matrix storage is heap-backed), but copying
    // cannot clone the non-copyable environments anyway.
    BatchEnvPool(const BatchEnvPool &) = delete;
    BatchEnvPool &operator=(const BatchEnvPool &) = delete;

    std::size_t numStreams() const { return envs_.size(); }
    std::size_t observationSize() const { return obs_dim_; }
    std::size_t numActions() const { return num_actions_; }

    /** The persistent observation matrix (row i = stream i). */
    Matrix &obs() { return obs_; }
    const Matrix &obs() const { return obs_; }

    /**
     * Row-major N x numActions validity-mask matrix, maintained in
     * place by the streams (CacheGuessingGame::bindMaskRow) exactly
     * like the observation rows — or nullptr when the streams do not
     * mask actions, in which case no mask storage exists at all.
     */
    const std::uint8_t *masks() const
    {
        return masks_.empty() ? nullptr : masks_.data();
    }

    /** Reset every stream, rebuilding its observation row in place. */
    void resetAll();

    /**
     * Advance every stream one step (auto-reset: a finished stream's
     * row is already the next episode's first observation, while
     * rewards/dones/infos describe the step that ended it).
     *
     * @param actions    one action per stream
     * @param obs_matrix optional row-major N x obs_dim destination the
     *                   observation rows are copied into; pass nullptr
     *                   (or the pool's own obs().data()) for the pure
     *                   in-place mode with zero copies
     * @param rewards    per-stream step reward (size N)
     * @param dones      per-stream episode-end flags (size N)
     * @param infos      per-stream step metadata (size N)
     */
    void stepBatch(const std::size_t *actions, float *obs_matrix,
                   double *rewards, std::uint8_t *dones, StepInfo *infos);

    /**
     * stepBatch restricted to streams [begin, end), behind
     * BatchVecEnv::stepRange(). Slots and rows outside the range are
     * untouched.
     */
    void stepRange(std::size_t begin, std::size_t end,
                   const std::size_t *actions, float *obs_matrix,
                   double *rewards, std::uint8_t *dones, StepInfo *infos);

    /** Direct access to stream @p i (decoration, evaluation). Row i
     *  stays coherent: the game maintains it through every path. */
    Environment &env(std::size_t i) { return *envs_[i]; }

  private:
    void stepOne(std::size_t i, std::size_t action, double *rewards,
                 std::uint8_t *dones, StepInfo *infos);

    std::vector<std::unique_ptr<Environment>> envs_;
    /** Devirtualized fast-path pointers; null where stream i is not a
     *  CacheGuessingGame and steps through the generic interface. */
    std::vector<CacheGuessingGame *> fast_;
    Matrix obs_;
    /** N x numActions mask rows; empty when no stream masks actions. */
    std::vector<std::uint8_t> masks_;
    std::size_t obs_dim_ = 0;
    std::size_t num_actions_ = 0;
};

/**
 * VecEnv adapter over a BatchEnvPool. Bitwise-identical trajectories
 * to SyncVecEnv over the same streams; also implements
 * BatchStepSurface, so the trainer collects from the pool's rows
 * without copying them.
 */
class BatchVecEnv : public VecEnv, public BatchStepSurface
{
  public:
    /** Own the given environments (all non-null, same dimensions). */
    explicit BatchVecEnv(std::vector<std::unique_ptr<Environment>> envs);

    // VecEnv ----------------------------------------------------------
    std::size_t numEnvs() const override { return pool_.numStreams(); }
    std::size_t observationSize() const override
    {
        return pool_.observationSize();
    }
    std::size_t numActions() const override { return pool_.numActions(); }
    Matrix resetAll() override;
    VecStepResult stepAll(const std::vector<std::size_t> &actions) override;
    void stepRange(std::size_t begin, std::size_t end,
                   const std::vector<std::size_t> &actions,
                   VecStepResult &out) override;
    Environment &env(std::size_t i) override { return pool_.env(i); }
    BatchStepSurface *batchSurface() override { return this; }

    // BatchStepSurface ------------------------------------------------
    const Matrix &obsMatrix() const override { return pool_.obs(); }
    void stepBatchInPlace(const std::size_t *actions, double *rewards,
                          std::uint8_t *dones, StepInfo *infos) override
    {
        pool_.stepBatch(actions, nullptr, rewards, dones, infos);
    }
    void resetAllInPlace() override { pool_.resetAll(); }
    const std::uint8_t *maskMatrix() const override
    {
        return pool_.masks();
    }

    /** The underlying pool (benches, tests). */
    BatchEnvPool &pool() { return pool_; }

  private:
    BatchEnvPool pool_;
};

} // namespace autocat

#endif // AUTOCAT_ENV_BATCH_ENV_POOL_HPP
