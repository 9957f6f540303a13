#include "util/task_pool.hpp"

#include <algorithm>

#include <sched.h>

namespace autocat {

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

    workers_.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        quit_ = true;
        ++generation_;
    }
    work_cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
TaskPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        BatchFn fn;
        void *ctx;
        std::size_t end;
        std::size_t chunk;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock,
                          [&] { return quit_ || generation_ != seen; });
            if (quit_)
                return;
            seen = generation_;
            fn = fn_;
            ctx = ctx_;
            end = end_;
            chunk = chunk_;
        }

        try {
            // Claim contiguous chunks until the batch is exhausted —
            // one atomic RMW per chunk instead of per index, and
            // neighboring indices (whose outputs often share cache
            // lines, e.g. VecEnv reward/done arrays) stay on one
            // worker. A throwing task stops only this worker's
            // claiming; the others drain the rest so the caller is
            // never left waiting.
            for (;;) {
                const std::size_t lo =
                    cursor_.fetch_add(chunk, std::memory_order_relaxed);
                if (lo >= end)
                    break;
                const std::size_t hi = std::min(lo + chunk, end);
                for (std::size_t i = lo; i < hi; ++i)
                    fn(ctx, i);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }

        bool last = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            last = --remaining_ == 0;
        }
        if (last)
            done_cv_.notify_one();
    }
}

void
TaskPool::run(std::size_t begin, std::size_t end, BatchFn fn, void *ctx)
{
    if (begin >= end)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fn_ = fn;
        ctx_ = ctx;
        end_ = end;
        // ~4 chunks per worker balances load without shredding
        // contiguity.
        chunk_ = std::max<std::size_t>(
            (end - begin) / (4 * workers_.size()), 1);
        cursor_.store(begin, std::memory_order_relaxed);
        error_ = nullptr;
        remaining_ = workers_.size();
        ++generation_;
    }
    work_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    if (error_) {
        // Task exceptions reach the caller instead of terminating a
        // worker thread.
        std::exception_ptr e = std::move(error_);
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(e);
    }
}

} // namespace autocat
