/**
 * @file
 * Persistent worker pool for index-parallel batches.
 *
 * Extracted from ThreadedVecEnv so every subsystem that fans
 * independent, index-addressed work out to threads — env stream
 * stepping (rl/vec_env.hpp), sweep campaign cells (eval/sweep.hpp) —
 * shares one proven dispatch mechanism: a generation-counted batch
 * command, dynamic index claiming, first-exception capture, and a
 * blocking caller.
 *
 * Batches are claimed dynamically (an atomic cursor handing out
 * contiguous chunks), so unequal task costs balance across workers;
 * callers relying on determinism must make tasks write to disjoint,
 * index-addressed outputs, which keeps results independent of the
 * claiming order.
 */

#ifndef AUTOCAT_UTIL_TASK_POOL_HPP
#define AUTOCAT_UTIL_TASK_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace autocat {

/**
 * CPUs in this process's affinity mask (what `nproc` prints), falling
 * back to std::thread::hardware_concurrency(); always >= 1. Computed
 * once per process.
 */
std::size_t affinityCpuCount();

/** Persistent threads executing [begin, end) index batches. */
class TaskPool
{
  public:
    /**
     * @param num_threads worker count; 0 selects
     *                    std::thread::hardware_concurrency() (min 1)
     * @param max_useful  optional cap (0 = none), e.g. the number of
     *                    items a caller will ever dispatch at once —
     *                    keeps the sizing policy here instead of at
     *                    every call site
     */
    explicit TaskPool(std::size_t num_threads = 0,
                      std::size_t max_useful = 0);
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /** Worker threads actually running. */
    std::size_t numThreads() const { return workers_.size(); }

    /**
     * Run @p f(i) for every i in [begin, end) across the pool and
     * block until the batch completes. Tasks are claimed dynamically;
     * @p f must therefore tolerate any execution order and write only
     * to per-index state. A throwing task stops its own worker's
     * claiming (other workers keep draining the batch — with one
     * worker, or when every worker throws, unclaimed indices are
     * skipped); the first exception is rethrown here once the batch
     * settles. Must not be called concurrently with itself.
     */
    template <typename F>
    void
    parallelFor(std::size_t begin, std::size_t end, F &&f)
    {
        using Fn = std::remove_reference_t<F>;
        run(begin, end,
            [](void *ctx, std::size_t i) { (*static_cast<Fn *>(ctx))(i); },
            const_cast<void *>(static_cast<const void *>(&f)));
    }

  private:
    using BatchFn = void (*)(void *ctx, std::size_t index);

    void run(std::size_t begin, std::size_t end, BatchFn fn, void *ctx);
    void workerLoop();

    // Batch command state, published under mutex_ before each batch.
    std::mutex mutex_;
    std::condition_variable work_cv_;  ///< workers wait for a batch
    std::condition_variable done_cv_;  ///< caller waits for completion
    bool quit_ = false;
    std::uint64_t generation_ = 0;  ///< bumped per dispatched batch
    std::size_t remaining_ = 0;     ///< workers yet to finish
    BatchFn fn_ = nullptr;
    void *ctx_ = nullptr;
    std::size_t end_ = 0;
    std::size_t chunk_ = 1;               ///< indices claimed per RMW
    std::atomic<std::size_t> cursor_{0};  ///< next index to claim
    std::exception_ptr error_;  ///< first task exception of the batch;
                                ///< rethrown on the calling thread

    std::vector<std::thread> workers_;
};

} // namespace autocat

#endif // AUTOCAT_UTIL_TASK_POOL_HPP
