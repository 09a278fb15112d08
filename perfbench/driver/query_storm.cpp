// query_storm: one generator keeps 32 `query` requests in flight against
// the resident service (nproc - 1 handlers, charge ledger on). Each
// request is microseconds of routing work, so the service mutex,
// admission, epoch pin, ledger append and promise round trip dominate.

#include <deque>
#include <future>

#include "common.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace aio;

namespace {

/// Below the default 48-deep shed watermark: nothing should be refused.
constexpr std::size_t kWindow = 32;
/// One request in this many is checked against a direct oracle lookup.
constexpr std::uint64_t kCheckEvery = 64;
/// Latency samples preallocated per phase: room for ~500 k queries/s over
/// a 15 s window.
constexpr std::size_t kMaxSamples = std::size_t{1} << 23;

/// Completions are grouped into one-second windows (medianWindow).
constexpr auto kWindowLength = std::chrono::seconds{1};

struct StormPhase {
    Samples latencyMs;
    RunningMean allLatencyUs;
    /// Index into latencyMs where each window's completions start.
    std::vector<std::size_t> windowStart{0};
    double elapsedSeconds = 0.0;
    std::uint64_t sheds = 0;
    std::size_t minWindow = kWindow;
    std::size_t queueDepthMax = 0;
};

StormPhase storm(std::shared_ptr<const service::ServiceSnapshot> snapshot,
                 double seconds, std::uint64_t seed,
                 obs::MetricsRegistry* metrics, CountingSink& ledger,
                 RunResult& result) {
    const obs::SteadyClock clock;
    service::ObservatoryService svc{snapshot, {}, &clock, metrics, &ledger};
    service::TenantQuota quota;
    quota.tenant = "storm";
    quota.budgetUsd = 1e15;
    svc.registerTenant(quota);
    svc.start(serviceLanes());

    const route::RouteOracle& oracle =
        *snapshot->substrate().analyzer().baselineOracle();
    const auto n = static_cast<std::uint64_t>(snapshot->topology().asCount());

    struct InFlight {
        std::future<service::ServiceResponse> response;
        Clock::time_point sent;
        topo::AsIndex src = 0;
        topo::AsIndex dst = 0;
        bool check = false;
    };
    std::deque<InFlight> window;
    std::uint64_t state = mix(seed, 101);
    std::uint64_t issued = 0;
    StormPhase phase;
    // Touch the whole sample buffer up front: the footprint then does not
    // depend on how many queries the run completes.
    phase.latencyMs.values.resize(kMaxSamples);
    phase.latencyMs.values.clear();

    const auto submitOne = [&] {
        state = mix(state, issued);
        service::ServiceRequest request;
        request.tenant = "storm";
        request.workload = "query";
        request.src = static_cast<topo::AsIndex>(state % n);
        request.dst = static_cast<topo::AsIndex>((state >> 32) % n);
        InFlight entry{{}, Clock::now(), request.src, request.dst,
                       issued % kCheckEvery == seed % kCheckEvery};
        entry.response = svc.submit(std::move(request));
        if (metrics != nullptr) {
            phase.queueDepthMax =
                std::max(phase.queueDepthMax, svc.queueDepth());
        }
        window.push_back(std::move(entry));
        ++issued;
    };

    const auto measureFrom = after(Clock::now(), kWarmupSeconds);
    const auto stopAt = after(measureFrom, seconds);
    while (window.size() < kWindow) {
        submitOne();
    }
    checkThreadBudget(liveThreads(), result);
    Clock::time_point lastDone = measureFrom;
    Clock::time_point nextWindow = measureFrom + kWindowLength;
    while (!window.empty()) {
        InFlight head = std::move(window.front());
        window.pop_front();
        const service::ServiceResponse response = head.response.get();
        const auto done = Clock::now();
        phase.allLatencyUs.add(
            std::chrono::duration<double, std::micro>(done - head.sent).count());
        if (done >= measureFrom) {
            lastDone = done;
            if (done >= nextWindow && done < stopAt) {
                phase.windowStart.push_back(phase.latencyMs.values.size());
                nextWindow += kWindowLength;
            }
            phase.latencyMs.values.push_back(
                std::chrono::duration<double, std::milli>(done - head.sent)
                    .count());
        }
        if (response.status == service::ResponseStatus::Rejected) {
            ++phase.sheds;
            result.failure(std::string{"query rejected "} +
                           std::string{service::rejectReasonName(response.reject)});
        } else if (response.status != service::ResponseStatus::Ok) {
            result.failure(std::string{"query "} +
                           std::string{service::responseStatusName(response.status)});
        } else if (head.check &&
                   response.nextHop != oracle.nextHopOf(head.src, head.dst)) {
            result.mismatch("query next hop differs from "
                            "RouteOracle::nextHopOf");
        }
        if (done < stopAt) {
            phase.minWindow = std::min(phase.minWindow, window.size() + 1);
            submitOne();
        }
    }
    phase.elapsedSeconds =
        std::chrono::duration<double>(lastDone - measureFrom).count();
    result.attempted += issued;
    svc.stop();
    return phase;
}

/// Figures over the complete one-second windows (every window but the
/// last, which the stop time cuts short).
WindowFigures summarize(const StormPhase& phase) {
    const auto& all = phase.latencyMs.values;
    std::vector<Samples> windows;
    for (std::size_t w = 0; w + 1 < phase.windowStart.size(); ++w) {
        windows.push_back(
            {{all.begin() + static_cast<std::ptrdiff_t>(phase.windowStart[w]),
              all.begin() +
                  static_cast<std::ptrdiff_t>(phase.windowStart[w + 1])}});
    }
    if (windows.empty()) { // a run shorter than one window
        return {static_cast<double>(all.size()) / phase.elapsedSeconds,
                phase.latencyMs.percentile(50.0),
                phase.latencyMs.percentile(90.0),
                phase.latencyMs.percentile(99.0)};
    }
    return medianWindow(windows);
}

void checkWindow(const StormPhase& phase, RunResult& result) {
    if (phase.sheds > 0) {
        result.invalid(std::to_string(phase.sheds) +
                       " queries shed inside the 32-request window");
    }
    if (phase.minWindow != kWindow) {
        result.invalid("the generator did not hold 32 requests in flight");
    }
}

} // namespace

RunResult runQueryStorm(const Options& options) {
    RunResult result;
    const auto generator = topo::GeneratorConfig::defaults();
    double setupSeconds = 0.0;
    auto snapshot = repeatedSetup(
        [&] { return buildSnapshot(generator, {}, nullptr, nullptr); },
        setupSeconds);

    const double seconds = options.trace ? options.seconds / 2 : options.seconds;
    CountingSink ledger;
    const StormPhase phase =
        storm(snapshot, seconds, options.seed, nullptr, ledger, result);
    const double peakRss = peakRssMb();
    checkWindow(phase, result);
    // The bounded tail is the p90: the p99 of a microsecond request on a
    // shared host follows scheduler stalls more than the service.
    const auto [qps, p50, p90, p99] = summarize(phase);
    setEndToEnd(result, setupSeconds, peakRss, qps, p50, p90);
    result.named.set("query_qps", qps, "1/s");
    result.named.set("query_p50_us", p50 * 1e3, "us");
    result.named.set("query_p90_us", p90 * 1e3, "us");
    result.named.set("query_p99_us", p99 * 1e3, "us");
    result.named.set("query_samples",
                     static_cast<double>(phase.latencyMs.values.size()),
                     "count");

    if (!options.trace) {
        return result;
    }

    // Traced replay: the same seed, a registry on snapshot and service,
    // then direct-call probes of each layer.
    snapshot.reset();
    initLayers(result);
    obs::MetricsRegistry registry;
    LayerTrace layers;
    service::SnapshotConfig config;
    config.metrics = &registry;
    auto traced = buildSnapshot(generator, config, &layers, &result);
    CountingSink tracedLedger;
    RunResult tracedResult;
    const StormPhase tracedPhase = storm(traced, seconds, options.seed,
                                         &registry, tracedLedger, tracedResult);
    checkWindow(tracedPhase, tracedResult);
    result.absorb(tracedResult);

    readServiceRegistry(registry, traced->topology().asCount(), result);
    result.layers.set("service.wait_mean_us",
                      tracedPhase.allLatencyUs.mean() -
                          result.layers.get("service.handler_mean_us"),
                      "us");
    result.layers.set("service.queue_depth_max",
                      static_cast<double>(tracedPhase.queueDepthMax),
                      "count");
    result.layers.set("persist.bytes_written",
                      static_cast<double>(tracedLedger.size()), "B");

    probeTopology(traced->topology(), layers, result);
    probeRouting(*traced, false, options.seed, layers, result);
    probeServicePath(traced, options.seed, layers, result);
    probePlanner(*traced, options.seed, layers, result);
    result.layers.set("persist.append_us",
                      result.layers.get("service.ledger_append_ns") / 1e3,
                      "us");

    const double tracedQps = summarize(tracedPhase).perSecond;
    result.layers.set("bench.trace_overhead_share", qps / tracedQps - 1.0,
                      "share");
    result.traceJson = layers.trace().json();
    return result;
}

} // namespace perfbench
