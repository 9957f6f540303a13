/**
 * @file
 * Persistent fork-join pool for index-parallel batches.
 *
 * Every subsystem that fans independent, index-addressed work out to
 * threads shares it: the PPO update's split GEMMs and Adam step
 * (rl/mat.hpp), env stream stepping (rl/vec_env.hpp) and sweep
 * campaign cells (eval/sweep.hpp).
 *
 * **Shape.** A pool of N executors is the calling thread plus N - 1
 * worker threads. parallelFor() publishes a batch, then the caller
 * claims indices like any worker. The batch completes when its last
 * index settles, not when every worker has checked in, so a worker
 * the OS has descheduled never holds the caller up once the others
 * have drained the batch. An executor reads a batch's function and
 * range only after it has claimed one of its indices; the batch cannot
 * settle before that index does, so a worker that wakes late finds
 * nothing to claim and never runs a newer batch's indices through a
 * stale function.
 *
 * **Spin window.** An idle worker polls for the next batch, and the
 * caller polls for its batch's last index, for a fixed 0.5 ms before
 * blocking on a condition variable. The window is set well above the
 * serial work between two fork-joins of a Table V PPO minibatch (the
 * longest, gradient clipping before Adam, has a median of 44 us and a
 * p99 of 82 us), so a pool driven back to back rarely sleeps. On a
 * virtual machine that matters: an idle vCPU halts, and a futex wake
 * of a halted vCPU waits for the host to reschedule it, which the
 * guest counts as steal. A spinning executor yields its CPU between
 * polls, so an oversubscribed host still runs the threads that have
 * work.
 *
 * Indices are claimed dynamically in contiguous chunks, so unequal
 * task costs balance across executors; callers relying on determinism
 * must make tasks write to disjoint, index-addressed outputs, which
 * keeps results independent of the claiming order.
 */

#ifndef AUTOCAT_UTIL_TASK_POOL_HPP
#define AUTOCAT_UTIL_TASK_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
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

/** The calling thread plus persistent workers executing [begin, end)
 *  index batches. */
class TaskPool
{
  public:
    /**
     * @param num_threads executor count, the caller included; 0
     *                    selects std::thread::hardware_concurrency()
     *                    (min 1). A pool of 1 runs every batch inline
     *                    and starts no thread.
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

    /** Executors: the calling thread plus the worker threads. */
    std::size_t numThreads() const { return workers_.size() + 1; }

    /**
     * Run @p f(i) for every i in [begin, end) on the calling thread and
     * the workers, and return once every index has finished. Tasks are
     * claimed dynamically; @p f must therefore tolerate any execution
     * order and write only to per-index state. An empty range returns
     * at once and wakes no worker.
     *
     * Exceptions: a throwing index does not stop the batch — every
     * other index still runs exactly once. The first exception caught
     * is rethrown here after the batch settles; later ones are
     * dropped. Must not be called concurrently with itself, nor from
     * inside @p f.
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
    /** Claim and run chunks of the current batch until none is left. */
    void drain();
    /** Notify every thread blocked on @p cv after a counter change. */
    void wake(std::condition_variable &cv);

    // The current batch. Written by the caller before it publishes the
    // batch through unclaimed_; read by an executor only after it has
    // claimed an index, which keeps the batch from settling (and these
    // fields from changing) until that index has run.
    BatchFn fn_ = nullptr;
    void *ctx_ = nullptr;
    std::size_t begin_ = 0;
    std::size_t count_ = 0;
    std::exception_ptr error_;  ///< first task exception of the batch
    std::atomic<bool> failed_{false};     ///< error_ has been taken
    std::atomic<std::size_t> chunk_{1};   ///< indices claimed per CAS

    // Each on its own cache line: idle workers poll the claiming
    // counter, the waiting caller polls the settling one, and every
    // batch takes the mutex (the blocking fallback once the spin
    // window has passed) to publish and to settle.
    alignas(64) std::atomic<std::size_t> unclaimed_{0};
    std::atomic<bool> quit_{false};
    alignas(64) std::atomic<std::size_t> unsettled_{0};
    alignas(64) std::mutex mutex_;
    std::condition_variable work_cv_;  ///< workers wait for a batch
    std::condition_variable done_cv_;  ///< caller waits for the last

    std::vector<std::thread> workers_;
};

} // namespace autocat

#endif // AUTOCAT_UTIL_TASK_POOL_HPP
