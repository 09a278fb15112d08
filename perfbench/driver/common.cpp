#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <thread>

#include "persist/record.hpp"
#include "routing/path_oracle.hpp"
#include "routing/sharded_oracle.hpp"
#include "service/admission.hpp"
#include "service/epoch.hpp"
#include "service/ledger.hpp"
#include "service/workload.hpp"
#include "topo/csr_adjacency.hpp"

namespace perfbench {

using namespace aio;

std::size_t threadBudget() {
    return std::max(2U, std::thread::hardware_concurrency());
}

std::size_t serviceLanes() { return threadBudget() - 1; }

void MetricSet::set(std::string_view name, double value,
                    std::string_view unit) {
    for (auto& [key, metric] : entries_) {
        if (key == name) {
            metric = Metric{value, std::string{unit}};
            return;
        }
    }
    entries_.emplace_back(std::string{name},
                          Metric{value, std::string{unit}});
}

double MetricSet::get(std::string_view name) const {
    for (const auto& [key, metric] : entries_) {
        if (key == name) {
            return metric.value;
        }
    }
    return 0.0;
}

void RunResult::mismatch(std::string note) {
    correct = false;
    ++failed;
    notes.push_back("output check: " + std::move(note));
}

void RunResult::failure(const std::string& note) {
    ++failed;
    const std::string text = "failed: " + note;
    if (notes.size() < 8 &&
        std::find(notes.begin(), notes.end(), text) == notes.end()) {
        notes.push_back(text);
    }
}

void RunResult::invalid(std::string note) {
    valid = false;
    correct = false;
    notes.push_back("invalid run: " + std::move(note));
}

void RunResult::absorb(const RunResult& phase) {
    correct = correct && phase.correct;
    valid = valid && phase.valid;
    attempted += phase.attempted;
    failed += phase.failed;
    notes.insert(notes.end(), phase.notes.begin(), phase.notes.end());
}

double Samples::percentile(double p) const {
    if (values.empty()) {
        return 0.0;
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::mean() const {
    if (values.empty()) {
        return 0.0;
    }
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

bool Samples::tailResolved(double p) const {
    return static_cast<double>(values.size()) * (1.0 - p / 100.0) >= 10.0;
}

double median(std::vector<double> values) {
    return Samples{std::move(values)}.percentile(50.0);
}

namespace {

/// The numeric field `key` of /proc/self/status (0 when absent).
double procStatus(std::string_view key) {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(key, 0) == 0) {
            return std::stod(line.substr(key.size()));
        }
    }
    return 0.0;
}

} // namespace

std::size_t liveThreads() {
    return static_cast<std::size_t>(procStatus("Threads:"));
}

void checkThreadBudget(std::size_t observed, RunResult& result) {
    if (observed > threadBudget()) {
        result.invalid("load ran " + std::to_string(observed) +
                       " threads, more than nproc = " +
                       std::to_string(threadBudget()));
    }
}

WindowFigures medianWindow(const std::vector<Samples>& windows) {
    std::vector<double> perSecond;
    std::vector<double> p50;
    std::vector<double> p90;
    std::vector<double> p99;
    for (const Samples& window : windows) {
        perSecond.push_back(static_cast<double>(window.values.size()));
        p50.push_back(window.percentile(50.0));
        p90.push_back(window.percentile(90.0));
        p99.push_back(window.percentile(99.0));
    }
    return {median(perSecond), median(p50), median(p90), median(p99)};
}

double peakRssMb() {
    return procStatus("VmHWM:") / 1024.0; // kB -> MB
}

void setEndToEnd(RunResult& result, double setupSeconds, double peakRss,
                 double opsPerSec, double p50Ms, double tailMs) {
    const double attempted =
        std::max<double>(1.0, static_cast<double>(result.attempted));
    result.endToEnd.set("setup_s", setupSeconds, "s");
    result.endToEnd.set("peak_rss_mb", peakRss, "MB");
    result.endToEnd.set(
        "ok_share",
        (attempted - static_cast<double>(result.failed)) / attempted,
        "share");
    result.endToEnd.set("ops_per_s", opsPerSec, "1/s");
    result.endToEnd.set("p50_ms", p50Ms, "ms");
    result.endToEnd.set("tail_ms", tailMs, "ms");
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double LayerTrace::seconds(std::string_view name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? 0.0
                                : static_cast<double>(it->second.nanos) *
                                      1e-9;
}

double LayerTrace::nanosPerCall(std::string_view name) const {
    const auto it = entries_.find(name);
    if (it == entries_.end() || it->second.calls == 0) {
        return 0.0;
    }
    return static_cast<double>(it->second.nanos) /
           static_cast<double>(it->second.calls);
}

double traceNodeMs(std::string_view json, std::string_view name) {
    const std::string key = "\"name\":\"" + std::string{name} + "\"";
    double total = 0.0;
    for (std::size_t at = json.find(key); at != std::string_view::npos;
         at = json.find(key, at + key.size())) {
        const std::size_t ms = json.find("\"ms\":", at);
        if (ms == std::string_view::npos) {
            break;
        }
        total += std::stod(std::string{json.substr(ms + 5, 32)});
    }
    return total;
}

const std::vector<std::pair<std::string, std::string>>& layerMetricNames() {
    static const std::vector<std::pair<std::string, std::string>> names = [] {
        std::vector<std::pair<std::string, std::string>> list = {
            {"topo.generate_s", "s"},
            {"topo.csr_build_s", "s"},
            {"routing.baseline_build_s", "s"},
            {"routing.resident_mb", "MB"},
            {"routing.lookup_ns", "ns"},
            {"routing.rows_solved", "count"},
            {"routing.dirty_frac", "share"},
            {"routing.row_solve_us", "us"},
            {"routing.cache_hit_ratio", "share"},
            {"routing.cache_evictions", "count"},
            {"sweep.dedupe_ratio", "share"},
            {"sweep.scenario_ms_p50", "ms"},
            {"sweep.overlay_scenario_ms", "ms"},
            {"sweep.batch_self_s", "s"},
            {"scenario.compile_ms", "ms"},
            {"scenario.unique_cut_sets", "count"},
            {"plan.parse_us", "us"},
        };
        for (const char* kind : {"content_locality", "detour_rate",
                                 "outage_exposure", "ixp_coverage"}) {
            list.emplace_back(std::string{"plan.compile_ms."} + kind, "ms");
        }
        for (const char* kind : {"content_locality", "detour_rate",
                                 "outage_exposure", "ixp_coverage"}) {
            list.emplace_back(std::string{"plan.execute_ms."} + kind, "ms");
        }
        const std::vector<std::pair<std::string, std::string>> rest = {
            {"plan.prune_ratio", "share"},
            {"plan.estimate_error_share", "share"},
            {"service.snapshot_build_s", "s"},
            {"service.admit_ns", "ns"},
            {"service.epoch_pin_ns", "ns"},
            {"service.ledger_append_ns", "ns"},
            {"service.ledger_bytes_per_req", "B"},
            {"service.handler_mean_us", "us"},
            {"service.wait_mean_us", "us"},
        };
        list.insert(list.end(), rest.begin(), rest.end());
        for (const service::RejectReason reason :
             {service::RejectReason::QueueFull,
              service::RejectReason::Overloaded,
              service::RejectReason::MemoryPressure,
              service::RejectReason::BudgetExhausted,
              service::RejectReason::DeadlineUnmeetable,
              service::RejectReason::UnknownTenant,
              service::RejectReason::ShuttingDown,
              service::RejectReason::UnknownWorkload}) {
            list.emplace_back(
                "service.rejected." +
                    std::string{service::rejectReasonName(reason)},
                "count");
        }
        const std::vector<std::pair<std::string, std::string>> tail = {
            {"service.queue_depth_max", "count"},
            {"stream.read_log_s", "s"},
            {"stream.ingest_s", "s"},
            {"stream.checkpoint_s", "s"},
            {"stream.detector_ns_per_event", "ns"},
            {"stream.duplicates", "count"},
            {"stream.late_dropped", "count"},
            {"persist.append_us", "us"},
            {"persist.bytes_written", "B"},
            {"exec.pool_loops", "count"},
            {"exec.pool_loop_s", "s"},
            {"bench.gen_late_p99_ms", "ms"},
            {"bench.trace_overhead_share", "share"},
        };
        list.insert(list.end(), tail.begin(), tail.end());
        return list;
    }();
    return names;
}

void initLayers(RunResult& result) {
    for (const auto& [name, unit] : layerMetricNames()) {
        result.layers.set(name, 0.0, unit);
    }
}

void readServiceRegistry(obs::MetricsRegistry& registry, std::size_t asCount,
                         RunResult& result) {
    const auto count = [&](std::string_view name) {
        return static_cast<double>(registry.counter(name).value());
    };
    const auto handler = registry.histogram("service.request_seconds").snapshot();
    result.layers.set("service.handler_mean_us", handler.mean() * 1e6, "us");
    for (const auto& [name, unit] : layerMetricNames()) {
        if (name.rfind("service.rejected.", 0) == 0) {
            result.layers.set(name, count(name), unit);
        }
    }

    const double hits = count("cache.oracle.hits");
    const double misses = count("cache.oracle.misses");
    result.layers.set("routing.cache_hit_ratio",
                      hits + misses > 0 ? hits / (hits + misses) : 0.0,
                      "share");
    result.layers.set("routing.cache_evictions",
                      count("cache.oracle.evictions"), "count");

    const double scenarios = count("sweep.scenarios");
    result.layers.set("sweep.dedupe_ratio",
                      scenarios > 0 ? count("sweep.dedup_hits") / scenarios
                                    : 0.0,
                      "share");
    const auto scenario =
        registry.histogram("sweep.scenario_seconds").snapshot();
    result.layers.set("sweep.scenario_ms_p50",
                      scenario.count > 0 ? scenario.p50() * 1e3 : 0.0, "ms");
    const auto batches = registry.histogram("sweep.batch_seconds").snapshot();
    // Engine self time: the batch minus its route builds and scoring.
    const double self =
        batches.sum - registry.histogram("sweep.build_seconds").snapshot().sum -
        scenario.sum;
    result.layers.set("sweep.batch_self_s",
                      batches.count > 0
                          ? self / static_cast<double>(batches.count)
                          : 0.0,
                      "s");

    const double rows = count("sweep.dirty_destinations");
    const double builds = count("sweep.incremental_builds");
    result.layers.set("routing.rows_solved", rows, "count");
    result.layers.set("routing.dirty_frac",
                      builds > 0 ? rows / (builds * static_cast<double>(asCount))
                                 : 0.0,
                      "share");
}

std::shared_ptr<const service::ServiceSnapshot>
buildSnapshot(const topo::GeneratorConfig& generator,
              service::SnapshotConfig config, LayerTrace* layers,
              RunResult* result) {
    const auto generate = [&] {
        return topo::TopologyGenerator{generator}.generate();
    };
    topo::Topology topology =
        layers ? layers->time("topo.TopologyGenerator::generate", generate)
               : generate();
    const auto build = [&] {
        return service::ServiceSnapshot::build(
                   std::move(topology), phys::CableRegistry::africanDefaults(),
                   dns::DnsConfig::defaults(),
                   content::ContentConfig::defaults(), config)
            .valueOrRaise();
    };
    auto snapshot =
        layers ? layers->time("service.ServiceSnapshot::build", build)
               : build();
    if (layers != nullptr && result != nullptr) {
        result->layers.set(
            "topo.generate_s",
            layers->seconds("topo.TopologyGenerator::generate"), "s");
        result->layers.set(
            "service.snapshot_build_s",
            layers->seconds("service.ServiceSnapshot::build"), "s");
    }
    return snapshot;
}

void probeTopology(const topo::Topology& topology, LayerTrace& layers,
                   RunResult& result) {
    constexpr int kReps = 5;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto csr = layers.time("topo.CsrAdjacency::fromEdges", [&] {
            return topo::CsrAdjacency::fromEdges(topology.asCount(),
                                                 topology.links());
        });
        if (!csr.hasValue() ||
            csr.value().asCount() != topology.asCount()) {
            result.mismatch("CsrAdjacency::fromEdges rejected the topology");
        }
    }
    result.layers.set("topo.csr_build_s",
                      layers.seconds("topo.CsrAdjacency::fromEdges") / kReps,
                      "s");
}

void probeRouting(const topo::Topology& topology,
                  const outage::ImpactAnalyzer& analyzer,
                  const phys::CableRegistry& registry,
                  const route::ShardedOracleConfig* sharded,
                  std::uint64_t seed, LayerTrace& layers,
                  RunResult& result) {
    // Baseline build: the storage policy's constructor, plus full
    // materialization for the lazy sharded policy.
    std::size_t residentBytes = 0;
    if (sharded != nullptr) {
        layers.time("routing.ShardedOracle::build", [&] {
            const route::ShardedOracle oracle{topology, {}, *sharded};
            oracle.materializeAll(nullptr);
            residentBytes = oracle.memoryBytes();
        });
        result.layers.set("routing.baseline_build_s",
                          layers.seconds("routing.ShardedOracle::build"), "s");
    } else {
        layers.time("routing.PathOracle::build", [&] {
            const route::PathOracle oracle{topology};
            residentBytes = oracle.memoryBytes();
        });
        result.layers.set("routing.baseline_build_s",
                          layers.seconds("routing.PathOracle::build"), "s");
    }
    result.layers.set("routing.resident_mb",
                      static_cast<double>(residentBytes) / 1e6, "MB");

    // Lookups on the world's own baseline oracle.
    const route::RouteOracle& oracle = *analyzer.baselineOracle();
    constexpr std::size_t kLookups = 200'000;
    std::vector<std::pair<topo::AsIndex, topo::AsIndex>> pairs(kLookups);
    std::uint64_t state = mix(seed, 17);
    const auto n = static_cast<std::uint64_t>(topology.asCount());
    for (auto& pair : pairs) {
        state = mix(state, 1);
        pair = {static_cast<topo::AsIndex>(state % n),
                static_cast<topo::AsIndex>((state >> 32) % n)};
    }
    std::size_t reachable = 0;
    layers.time(
        "routing.RouteOracle::nextHopOf",
        [&] {
            for (const auto& [src, dst] : pairs) {
                reachable += oracle.nextHopOf(src, dst) >= 0;
            }
        },
        kLookups);
    if (reachable == 0) {
        result.mismatch("no baseline lookup found a route");
    }
    result.layers.set("routing.lookup_ns",
                      layers.nanosPerCall("routing.RouteOracle::nextHopOf"),
                      "ns");

    // Row solves: derive a west-coast corridor cut from the baseline and
    // resolve every dirty row.
    core::ScenarioSpec spec;
    spec.name = "row-solve-probe";
    spec.cutCables = {"WACS", "SAT-3", "MainOne"};
    const outage::OutageEvent event = spec.makeEvent(registry).valueOrRaise();
    net::Rng rng{mix(seed, 23)};
    const route::LinkFilter filter = analyzer.filterFor(event, rng);
    std::size_t rows = 0;
    layers.time("routing.RouteOracle::deriveFiltered", [&] {
        const auto derived = oracle.deriveFiltered(filter, nullptr);
        if (const auto* lazy =
                dynamic_cast<const route::ShardedOracle*>(derived.get())) {
            lazy->materializeAll(nullptr);
        }
        rows = derived->resolvedDirtyDestinations();
    });
    result.layers.set(
        "routing.row_solve_us",
        rows > 0 ? layers.seconds("routing.RouteOracle::deriveFiltered") *
                       1e6 / static_cast<double>(rows)
                 : 0.0,
        "us");
}

void probeRouting(const service::ServiceSnapshot& snapshot, bool sharded,
                  std::uint64_t seed, LayerTrace& layers, RunResult& result) {
    const core::Substrate& substrate = snapshot.substrate();
    probeRouting(snapshot.topology(), substrate.analyzer(),
                 substrate.registry(),
                 sharded ? &substrate.impactConfig().shardedRouting : nullptr,
                 seed, layers, result);
}

void probeServicePath(std::shared_ptr<const service::ServiceSnapshot> snapshot,
                      std::uint64_t seed, LayerTrace& layers,
                      RunResult& result) {
    constexpr std::size_t kCalls = 100'000;

    const service::AdmissionConfig config;
    const service::WorkloadRegistry registry =
        service::WorkloadRegistry::builtins(config);
    service::AdmissionController admission{config};
    admission.bindRegistry(&registry);
    service::TenantQuota quota;
    quota.tenant = "probe";
    quota.budgetUsd = 1e15;
    admission.registerTenant(quota);
    service::ServiceRequest request;
    request.tenant = "probe";
    request.workload = "query";
    std::size_t admitted = 0;
    layers.time(
        "service.AdmissionController::decide",
        [&] {
            for (std::size_t i = 0; i < kCalls; ++i) {
                admitted += admission.decide(request, i, 0, 0).admitted;
            }
        },
        kCalls);
    if (admitted != kCalls) {
        result.mismatch("admission probe refused a query");
    }
    result.layers.set(
        "service.admit_ns",
        layers.nanosPerCall("service.AdmissionController::decide"), "ns");

    service::EpochRegistry epochs;
    epochs.publish(std::move(snapshot));
    std::uint64_t epochSum = 0;
    layers.time(
        "service.EpochRegistry::pin",
        [&] {
            for (std::size_t i = 0; i < kCalls; ++i) {
                epochSum += epochs.pin().epoch();
            }
        },
        kCalls);
    if (epochSum != kCalls) {
        result.mismatch("epoch probe pinned the wrong epoch");
    }
    result.layers.set("service.epoch_pin_ns",
                      layers.nanosPerCall("service.EpochRegistry::pin"),
                      "ns");

    persist::MemorySink sink;
    service::TenantLedger ledger{sink};
    const std::string tenant = "tenant-" + std::to_string(seed % 8);
    layers.time(
        "service.TenantLedger::recordCharge",
        [&] {
            for (std::size_t i = 0; i < kCalls; ++i) {
                ledger.recordCharge(tenant, i + 1, 0.01, (i & 1) != 0);
            }
        },
        kCalls);
    result.layers.set(
        "service.ledger_append_ns",
        layers.nanosPerCall("service.TenantLedger::recordCharge"), "ns");
    result.layers.set("service.ledger_bytes_per_req",
                      static_cast<double>(sink.size()) /
                          static_cast<double>(kCalls),
                      "B");
}

} // namespace perfbench
