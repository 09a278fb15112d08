#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"
#include "obs/metrics.hpp"

namespace aio::exec {

/// Fixed-size pool of worker threads for data-parallel loops over index
/// ranges (the all-pairs route computations are the primary client).
///
/// The pool is *schedule-transparent*: `parallelFor(count, fn)` promises
/// only that `fn(index, lane)` runs exactly once for every index in
/// [0, count), with `lane` in [0, threadCount()) identifying the executing
/// worker so callers can index pre-allocated per-lane scratch. Which lane
/// processes which index is unspecified — callers must write only to
/// index-owned output slabs (no shared mutable state), which is what makes
/// results deterministic regardless of thread count and schedule.
///
/// The calling thread participates as lane 0, so a 1-thread pool runs the
/// loop inline with zero synchronization and is the sequential reference
/// schedule.
class WorkerPool {
public:
    /// Spawns `threads - 1` worker threads (the caller is the remaining
    /// lane). Throws PreconditionError when `threads < 1` — the same
    /// knob-validation contract as core::PricingModel::validate.
    ///
    /// `metrics` (optional, not owned, must outlive the pool) receives
    /// per-loop accounting: dispatch counters and queue-depth histogram
    /// (`exec.pool.loops` / `.indices` / `.queue_depth`, all
    /// schedule-invariant — identical at any thread count), wall-time per
    /// loop (`exec.pool.loop_seconds`) and aggregate lane busy/idle time
    /// (`exec.pool.busy_nanos` / `.idle_nanos`; schedule-dependent under
    /// a real clock, exactly zero under an obs::ManualClock).
    explicit WorkerPool(int threads = defaultThreadCount(),
                        obs::MetricsRegistry* metrics = nullptr);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    [[nodiscard]] int threadCount() const { return threads_; }

    /// std::thread::hardware_concurrency() clamped to at least 1 (the
    /// standard permits it to return 0 when the count is unknowable).
    [[nodiscard]] static int defaultThreadCount();

    /// Runs fn(index, lane) exactly once for every completed index in
    /// [0, count), distributing contiguous chunks across lanes. Blocks
    /// until the loop drains. A task that throws cannot wedge the chunk
    /// barrier: the first exception is captured, the remaining chunks
    /// are abandoned, every lane drains, and parallelFor rethrows that
    /// first error on the calling thread. `cancel` (optional, not
    /// owned) is polled at every chunk boundary; a fired token abandons
    /// the remaining chunks the same way and parallelFor raises
    /// net::CancelledError — the cooperative-cancellation path service
    /// deadlines propagate through.
    ///
    /// One loop at a time per pool: a nested or concurrent parallelFor
    /// on a multi-thread pool throws net::PreconditionError immediately
    /// instead of deadlocking on the drained-lane barrier (the silent
    /// wedge a cancellation path must never hit). A 1-thread pool runs
    /// inline with no barrier and stays freely reentrant.
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t index,
                                              std::size_t lane)>& fn,
                     const CancelToken* cancel = nullptr);

private:
    void workerLoop(std::size_t lane);
    void runChunks(std::size_t lane);

    int threads_ = 1;
    obs::Metrics metrics_;
    std::atomic<std::uint64_t> loopBusyNanos_{0}; ///< lanes' work, this loop
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::uint64_t generation_ = 0; ///< bumped per parallelFor; guarded
    bool stopping_ = false;
    int active_ = 0; ///< helper lanes still working on this generation

    // Current job, written under mutex_ before the generation bump.
    const std::function<void(std::size_t, std::size_t)>* fn_ = nullptr;
    const CancelToken* cancel_ = nullptr;
    std::atomic<bool> loopActive_{false}; ///< reentrancy/concurrency guard
    std::size_t count_ = 0;
    std::size_t chunk_ = 1;
    std::atomic<std::size_t> next_{0};
    std::exception_ptr error_;
};

} // namespace aio::exec
