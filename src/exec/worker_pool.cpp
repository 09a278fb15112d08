#include "exec/worker_pool.hpp"

#include <algorithm>

#include "netbase/error.hpp"

namespace aio::exec {

int WorkerPool::defaultThreadCount() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

WorkerPool::WorkerPool(int threads, obs::MetricsRegistry* metrics)
    : threads_(threads), metrics_(metrics) {
    AIO_EXPECTS(threads >= 1, "worker pool needs at least one thread");
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int lane = 1; lane < threads_; ++lane) {
        workers_.emplace_back(
            [this, lane] { workerLoop(static_cast<std::size_t>(lane)); });
    }
}

WorkerPool::~WorkerPool() {
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void WorkerPool::workerLoop(std::size_t lane) {
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock{mutex_};
            wake_.wait(lock,
                       [&] { return stopping_ || generation_ != seen; });
            if (stopping_) {
                return;
            }
            seen = generation_;
        }
        runChunks(lane);
        {
            const std::lock_guard<std::mutex> lock{mutex_};
            if (--active_ == 0) {
                done_.notify_all();
            }
        }
    }
}

void WorkerPool::runChunks(std::size_t lane) {
    // Per-lane busy time accumulates into the loop-wide atomic; the
    // caller folds it into the busy/idle counters once the loop drains.
    // Only an observed pool reads the clock or touches the atomic.
    const std::uint64_t laneStart =
        metrics_ ? metrics_.clock().nowNanos() : 0;
    const auto settleBusy = [&] {
        if (metrics_) {
            loopBusyNanos_.fetch_add(metrics_.clock().nowNanos() -
                                         laneStart,
                                     std::memory_order_relaxed);
        }
    };
    for (;;) {
        // Cancellation is polled at chunk granularity: a fired token
        // parks as the loop's first error (unless a real exception got
        // there first) and the barrier drains exactly as it does for a
        // throwing task.
        if (cancel_ != nullptr && cancel_->stopRequested()) {
            {
                const std::lock_guard<std::mutex> lock{mutex_};
                if (!error_) {
                    try {
                        cancel_->checkpoint();
                    } catch (...) {
                        error_ = std::current_exception();
                    }
                }
            }
            next_.store(count_);
            settleBusy();
            return;
        }
        const std::size_t begin = next_.fetch_add(chunk_);
        if (begin >= count_) {
            settleBusy();
            return;
        }
        const std::size_t end = std::min(begin + chunk_, count_);
        try {
            for (std::size_t i = begin; i < end; ++i) {
                (*fn_)(i, lane);
            }
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock{mutex_};
                if (!error_) {
                    error_ = std::current_exception();
                }
            }
            // Abandon the remaining chunks: nobody will see partial
            // output because parallelFor rethrows.
            next_.store(count_);
            settleBusy();
            return;
        }
    }
}

void WorkerPool::parallelFor(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn,
    const CancelToken* cancel) {
    if (count == 0) {
        return;
    }
    // Dispatch accounting is schedule-invariant: one loop, `count`
    // indices, a queue depth of `count` — the same at any thread count,
    // which is what keeps instrumented runs byte-comparable across pools.
    metrics_.add("exec.pool.loops");
    metrics_.add("exec.pool.indices", count);
    metrics_.record("exec.pool.queue_depth", static_cast<double>(count));
    loopBusyNanos_.store(0, std::memory_order_relaxed);
    const std::uint64_t loopStart =
        metrics_ ? metrics_.clock().nowNanos() : 0;
    const auto settleLoop = [&] {
        if (!metrics_) {
            return; // the wall-time clock read is the skipped work
        }
        const std::uint64_t wall = metrics_.clock().nowNanos() - loopStart;
        // The 1-thread loop runs inline: its one lane is busy throughout.
        const std::uint64_t busy =
            threads_ == 1 ? wall
                          : loopBusyNanos_.load(std::memory_order_relaxed);
        const std::uint64_t offered =
            wall * static_cast<std::uint64_t>(threads_);
        metrics_.record("exec.pool.loop_seconds",
                        static_cast<double>(wall) * 1e-9);
        metrics_.add("exec.pool.busy_nanos", busy);
        metrics_.add("exec.pool.idle_nanos",
                     offered > busy ? offered - busy : 0);
    };
    if (threads_ == 1) {
        try {
            // Poll the token on the same granularity the chunked path
            // uses, so a cancelled 1-thread loop stops within one
            // chunk's work rather than one clock read per index.
            const std::size_t stride = std::max<std::size_t>(1, count / 64);
            for (std::size_t i = 0; i < count; ++i) {
                if (cancel != nullptr && i % stride == 0) {
                    cancel->checkpoint();
                }
                fn(i, 0);
            }
        } catch (...) {
            settleLoop();
            throw;
        }
        settleLoop();
        return;
    }
    // A nested or concurrent loop would wedge the drained-lane barrier
    // (helper lanes are single-generation) or tear the shared job slots;
    // fail typed and immediately instead. exchange() makes the guard
    // race-free between caller threads sharing one pool. The 1-thread
    // inline path above is exempt: it is a plain for loop with no
    // barrier to wedge, and nesting it was always legal.
    AIO_EXPECTS(!loopActive_.exchange(true, std::memory_order_acquire),
                "parallelFor is not reentrant: one loop at a time per pool");
    struct LoopGuard {
        std::atomic<bool>* active;
        ~LoopGuard() { active->store(false, std::memory_order_release); }
    } loopGuard{&loopActive_};
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        fn_ = &fn;
        cancel_ = cancel;
        count_ = count;
        // Chunks several times smaller than a fair share keep lanes busy
        // when per-index cost is skewed, without contending on the atomic.
        chunk_ = std::max<std::size_t>(
            1, count / (static_cast<std::size_t>(threads_) * 8));
        next_.store(0);
        error_ = nullptr;
        active_ = threads_ - 1;
        ++generation_;
    }
    wake_.notify_all();
    runChunks(0);
    std::unique_lock<std::mutex> lock{mutex_};
    done_.wait(lock, [&] { return active_ == 0; });
    fn_ = nullptr;
    cancel_ = nullptr;
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    settleLoop();
    if (error) {
        std::rethrow_exception(error);
    }
}

} // namespace aio::exec
