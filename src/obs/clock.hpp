#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace aio::obs {

/// Monotonic time source behind every obs timer and span. Injectable the
/// same way resilience::FaultPlan injects the fault timeline: production
/// wires a SteadyClock, tier-1 tests wire a ManualClock, so instrumented
/// runs produce byte-identical metrics/trace output regardless of
/// hardware, scheduling or worker-pool thread count.
class Clock {
public:
    virtual ~Clock() = default;

    /// Nanoseconds since an arbitrary fixed epoch; monotone non-decreasing.
    [[nodiscard]] virtual std::uint64_t nowNanos() const = 0;
};

/// Wall-clock-quality monotonic time (std::chrono::steady_clock).
class SteadyClock final : public Clock {
public:
    [[nodiscard]] std::uint64_t nowNanos() const override {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }
};

/// Deterministic clock: time moves only when advance() is called. Reads
/// are atomic so worker-pool lanes may sample it concurrently, but the
/// driver must not advance() while a parallel region is in flight if it
/// wants schedule-independent readings.
class ManualClock final : public Clock {
public:
    [[nodiscard]] std::uint64_t nowNanos() const override {
        return nanos_.load(std::memory_order_relaxed);
    }

    void advance(std::uint64_t nanos) {
        nanos_.fetch_add(nanos, std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> nanos_{0};
};

/// The one process-wide SteadyClock: the default clock of every
/// MetricsRegistry and Trace built without one.
[[nodiscard]] const Clock& processSteadyClock();

} // namespace aio::obs
