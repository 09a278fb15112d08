#pragma once

// Shared plumbing of the benchmark driver: the command line, the result
// record every workload fills, timing and percentile helpers, and the
// per-layer probes that time direct calls into the observatory's public
// functions.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "persist/record.hpp"
#include "service/snapshot.hpp"
#include "topo/as_graph.hpp"
#include "topo/generator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// Threads the load may use: one generator plus nproc - 1 service
/// handlers or pool lanes.
[[nodiscard]] std::size_t threadBudget();
[[nodiscard]] std::size_t serviceLanes();

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Load lead-in before every measured window. A freshly started service
/// or pool runs several times slower for its first seconds (frontdoor:
/// p50 ~3 ms for two seconds, then ~0.3 ms, on a 4-vCPU VM). Work in the
/// lead-in is done and checked but left out of every figure.
inline constexpr double kWarmupSeconds = 2.0;

/// `start + seconds` as a clock time point.
[[nodiscard]] inline Clock::time_point after(Clock::time_point start,
                                             double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
}

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Insertion-ordered name -> (value, unit) map.
class MetricSet {
public:
    void set(std::string_view name, double value, std::string_view unit);
    [[nodiscard]] double get(std::string_view name) const;
    [[nodiscard]] const std::vector<std::pair<std::string, Metric>>&
    entries() const {
        return entries_;
    }

private:
    std::vector<std::pair<std::string, Metric>> entries_;
};

/// What one workload run reports. `endToEnd` carries the generic metrics
/// every workload prints (BENCHMARK.json end_to_end), `named` the same
/// figures under the workload-specific names of the rationale doc, and
/// `layers` the per-layer breakdown of a traced run.
struct RunResult {
    bool correct = true;
    bool valid = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;
    MetricSet endToEnd;
    MetricSet named;
    MetricSet layers;
    std::string traceJson;

    /// Records an output-check mismatch: counts a failed operation and
    /// marks the run incorrect.
    void mismatch(std::string note);
    /// Counts a failed operation (refused, cancelled or errored), keeping
    /// the first few distinct reasons as notes.
    void failure(const std::string& note);
    /// Records a load-generator validity failure.
    void invalid(std::string note);
    /// Folds the checks and counts of another phase of the same run in.
    void absorb(const RunResult& phase);
};

/// Latency samples with the summary rules of the benchmark.
struct Samples {
    std::vector<double> values;
    /// Linear-interpolated percentile, p in [0, 100]. 0 when empty.
    [[nodiscard]] double percentile(double p) const;
    [[nodiscard]] double mean() const;
    /// True when at least ten samples lie beyond percentile p.
    [[nodiscard]] bool tailResolved(double p) const;
};

[[nodiscard]] double median(std::vector<double> values);

/// Request-level figures read per one-second window of the measured
/// phase: each is the median over windows, so a host stall confined to a
/// few seconds does not move it.
struct WindowFigures {
    double perSecond = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};
[[nodiscard]] WindowFigures medianWindow(const std::vector<Samples>& windows);

/// Mean of every request's latency, lead-in included: the population the
/// service's own request histogram covers, so the two can be subtracted.
struct RunningMean {
    double sum = 0.0;
    std::uint64_t count = 0;
    void add(double value) {
        sum += value;
        ++count;
    }
    [[nodiscard]] double mean() const {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::uint64_t steadyNanos() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/// Threads this process runs right now (/proc/self/status).
[[nodiscard]] std::size_t liveThreads();
/// Marks the run invalid when the load used more than nproc threads.
void checkThreadBudget(std::size_t observed, RunResult& result);

/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peakRssMb();

/// Fills the six generic end-to-end metrics. `peakRss` is read right
/// after the measured phase, before output checks allocate.
void setEndToEnd(RunResult& result, double setupSeconds, double peakRss,
                 double opsPerSec, double p50Ms, double tailMs);

/// Ledger sink that counts the bytes appended and keeps none, so the
/// process footprint does not grow with throughput.
class CountingSink final : public aio::persist::ByteSink {
public:
    void append(std::span<const std::byte> bytes) override {
        size_ += bytes.size();
    }
    [[nodiscard]] std::size_t size() const { return size_; }

private:
    std::size_t size_ = 0;
};

/// SplitMix64 step: derives independent streams from one seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// Times direct calls into the observatory from the benchmark's own
/// files: each call opens an obs::Trace span named after the layer
/// function, and the clock total and call count are kept per name so the
/// per-layer metrics read them back.
class LayerTrace {
public:
    LayerTrace() = default;
    LayerTrace(const LayerTrace&) = delete;
    LayerTrace& operator=(const LayerTrace&) = delete;

    template <class F>
    decltype(auto) time(std::string_view name, F&& fn,
                        std::uint64_t calls = 1) {
        const aio::obs::Span span = trace_.span(name);
        const std::uint64_t start = steadyNanos();
        struct Record {
            LayerTrace* self;
            std::string_view name;
            std::uint64_t start;
            std::uint64_t calls;
            ~Record() {
                Entry& entry = self->entries_[std::string{name}];
                entry.nanos += steadyNanos() - start;
                entry.calls += calls;
            }
        } record{this, name, start, calls};
        return fn();
    }

    [[nodiscard]] double seconds(std::string_view name) const;
    /// Mean nanoseconds per call; 0 when never called.
    [[nodiscard]] double nanosPerCall(std::string_view name) const;
    [[nodiscard]] aio::obs::Trace& trace() { return trace_; }

private:
    struct Entry {
        std::uint64_t nanos = 0;
        std::uint64_t calls = 0;
    };
    aio::obs::Trace trace_;
    std::map<std::string, Entry, std::less<>> entries_;
};

/// Sum of the `ms` of every node called `name` in an obs::Trace JSON
/// export.
[[nodiscard]] double traceNodeMs(std::string_view json,
                                 std::string_view name);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
/// A traced run reports each one; a layer the workload never calls into
/// reports 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layerMetricNames();

/// Sets every per-layer metric to 0 so the traced run reports the full
/// list; workloads then overwrite what they measured.
void initLayers(RunResult& result);

/// Copies the registry-backed per-layer metrics shared by the service
/// workloads: handler time, rejections, oracle cache, sweep counters.
/// `asCount` scales rows solved into routing.dirty_frac.
void readServiceRegistry(aio::obs::MetricsRegistry& registry,
                         std::size_t asCount, RunResult& result);

/// Direct-call probes shared by workloads (traced runs only).
/// topo.csr_build_s: CsrAdjacency::fromEdges over `topology`.
void probeTopology(const aio::topo::Topology& topology, LayerTrace& layers,
                   RunResult& result);
/// routing.baseline_build_s / resident_mb (a fresh baseline under the
/// world's storage policy: sharded when `sharded` is set), lookup_ns
/// (the analyzer's baseline oracle) and row_solve_us (a west-coast
/// corridor cut derived from that baseline, every dirty row resolved).
void probeRouting(const aio::topo::Topology& topology,
                  const aio::outage::ImpactAnalyzer& analyzer,
                  const aio::phys::CableRegistry& registry,
                  const aio::route::ShardedOracleConfig* sharded,
                  std::uint64_t seed, LayerTrace& layers, RunResult& result);
/// probeRouting over a service snapshot's world.
void probeRouting(const aio::service::ServiceSnapshot& snapshot, bool sharded,
                  std::uint64_t seed, LayerTrace& layers, RunResult& result);
/// service.admit_ns / epoch_pin_ns / ledger_append_ns /
/// ledger_bytes_per_req.
void probeServicePath(std::shared_ptr<const aio::service::ServiceSnapshot>
                          snapshot,
                      std::uint64_t seed, LayerTrace& layers,
                      RunResult& result);

/// plan.*: parseQuestion, CampaignPlanner::compile and ::execute per
/// QuestionKind over frontdoor's seeded question pool (three passes, the
/// corridors answered once first), plus prune ratio and estimate error
/// of the compiled plans and executed reports.
void probePlanner(const aio::service::ServiceSnapshot& snapshot,
                  std::uint64_t seed, LayerTrace& layers, RunResult& result);

/// Generates `generator`'s topology and builds a service snapshot over
/// the African defaults. With `layers`, the two steps are timed as
/// topo.generate_s and service.snapshot_build_s.
[[nodiscard]] std::shared_ptr<const aio::service::ServiceSnapshot>
buildSnapshot(const aio::topo::GeneratorConfig& generator,
              aio::service::SnapshotConfig config, LayerTrace* layers,
              RunResult* result);

/// Runs the set-up `build` kSetupReps times, dropping each result before
/// the next, and returns the last one with the median time in
/// `setupSeconds`.
template <class Build>
auto repeatedSetup(Build build, double& setupSeconds) {
    std::vector<double> times;
    decltype(build()) last{};
    for (int rep = 0; rep < kSetupReps; ++rep) {
        last = {};
        const auto start = Clock::now();
        last = build();
        times.push_back(secondsSince(start));
    }
    setupSeconds = median(times);
    return last;
}

using Workload = RunResult (*)(const Options&);

RunResult runFrontdoor(const Options& options);
RunResult runQueryStorm(const Options& options);
RunResult runCorridorSweep(const Options& options);
RunResult runOutageStream(const Options& options);

} // namespace perfbench
