#include "util/task_pool.hpp"

#include <algorithm>
#include <chrono>

#include <sched.h>

namespace autocat {

namespace {

/** How long an idle executor polls before it blocks (see the header's
 *  file comment). A constant, not a setting: it has to outlast the
 *  gaps between one minibatch's fork-joins, not fit a host. */
constexpr std::chrono::microseconds kSpinWindow{500};

/** Tell the core this is a spin-wait (saves power, frees the sibling
 *  hyperthread). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/**
 * Poll @p ready until it holds or kSpinWindow has passed;
 * returns its last value. The clock is read, and the CPU yielded to
 * any other runnable thread, once per kPollsPerCheck polls.
 */
template <typename Ready>
bool
spinUntil(Ready ready)
{
    constexpr int kPollsPerCheck = 64;
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + kSpinWindow;
    for (;;) {
        for (int i = 0; i < kPollsPerCheck; ++i) {
            if (ready())
                return true;
            cpuRelax();
        }
        if (Clock::now() >= deadline)
            return ready();
        std::this_thread::yield();
    }
}

} // namespace

std::size_t
affinityCpuCount()
{
    static const std::size_t count = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (::sched_getaffinity(0, sizeof set, &set) == 0 &&
            CPU_COUNT(&set) > 0)
            return static_cast<std::size_t>(CPU_COUNT(&set));
        return std::max<std::size_t>(std::thread::hardware_concurrency(),
                                     1);
    }();
    return count;
}

TaskPool::TaskPool(std::size_t num_threads, std::size_t max_useful)
{
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    std::size_t threads = num_threads ? num_threads : hw;
    if (max_useful)
        threads = std::min(threads, max_useful);
    threads = std::max<std::size_t>(threads, 1);

    workers_.reserve(threads - 1);
    for (std::size_t w = 1; w < threads; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    quit_.store(true);
    wake(work_cv_);
    for (auto &t : workers_)
        t.join();
}

void
TaskPool::drain()
{
    std::size_t left = unclaimed_.load(std::memory_order_relaxed);
    while (left != 0) {
        // A stale chunk_ (from an earlier batch) only sizes the claim;
        // the CAS decides what is claimed. Claims count down, so the
        // first one takes the batch's first indices.
        const std::size_t take =
            std::min(chunk_.load(std::memory_order_relaxed), left);
        if (!unclaimed_.compare_exchange_weak(left, left - take,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed))
            continue;
        const std::size_t lo = begin_ + (count_ - left);
        for (std::size_t i = lo; i < lo + take; ++i) {
            try {
                fn_(ctx_, i);
            } catch (...) {
                if (!failed_.exchange(true))
                    error_ = std::current_exception();
            }
        }
        // The batch's fields may change as soon as this settles.
        if (unsettled_.fetch_sub(take) == take)
            wake(done_cv_);
        left = unclaimed_.load(std::memory_order_relaxed);
    }
}

void
TaskPool::wake(std::condition_variable &cv)
{
    // The counters a waiter's predicate reads change outside mutex_,
    // before this call. A waiter holds mutex_ from its predicate check
    // until it blocks, so taking mutex_ here keeps the notify from
    // falling in between.
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv.notify_all();
}

void
TaskPool::workerLoop()
{
    const auto has_work = [this] {
        return unclaimed_.load() != 0 || quit_.load();
    };
    for (;;) {
        drain();
        if (!spinUntil(has_work)) {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, has_work);
        }
        if (quit_.load())
            return;
    }
}

void
TaskPool::run(std::size_t begin, std::size_t end, BatchFn fn, void *ctx)
{
    if (begin >= end)
        return;
    const std::size_t count = end - begin;
    fn_ = fn;
    ctx_ = ctx;
    begin_ = begin;
    count_ = count;
    error_ = nullptr;
    failed_.store(false, std::memory_order_relaxed);
    // ~4 chunks per executor balances load without shredding
    // contiguity (neighboring indices often share output cache lines,
    // e.g. VecEnv reward/done arrays).
    chunk_.store(std::max<std::size_t>(count / (4 * numThreads()), 1),
                 std::memory_order_relaxed);
    unsettled_.store(count, std::memory_order_relaxed);
    unclaimed_.store(count);  // publishes the batch
    wake(work_cv_);

    drain();
    const auto settled = [this] { return unsettled_.load() == 0; };
    if (!spinUntil(settled)) {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, settled);
    }
    if (failed_.load(std::memory_order_relaxed)) {
        // Task exceptions reach the caller instead of terminating a
        // worker thread.
        std::exception_ptr e = std::move(error_);
        error_ = nullptr;
        std::rethrow_exception(e);
    }
}

} // namespace autocat
