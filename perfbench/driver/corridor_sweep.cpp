// corridor_sweep: a closed loop of nproc - 1 tenants, each keeping one
// `sweep` request in flight. Every request is a ScenarioCatalog-compiled
// batch over a continental, sharded-storage world: a Monte-Carlo block
// seeded per (tenant, batch), a cascade shared by every batch and one
// build-out overlay. Route row re-solves dominate.

#include <exception>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "common.hpp"
#include "netbase/geo.hpp"
#include "persist/record.hpp"
#include "scenario/catalog.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace aio;

namespace {

/// African eyeball target of GeneratorConfig::continental: ~1.1k ASes.
/// At 2000 (~2.1k ASes) a cold Monte-Carlo scenario costs ~0.6 s, so a
/// 10 s run completes too few batches for a steady median.
constexpr int kContinentalTarget = 1000;
constexpr std::size_t kMonteCarloPerBatch = 2;
/// Latency tail reported for this workload: ~60 batches per 10 s run
/// leave at least ten samples beyond p75, not beyond p90.
constexpr double kTailPercentile = 75.0;

/// One catalog per (tenant, batch): its Monte-Carlo block is seeded from
/// both, the cascade and the overlay are the same in every batch.
scenario::ScenarioCatalog catalogFor(const core::Substrate& substrate,
                                     std::uint64_t seed, std::size_t tenant,
                                     std::size_t batch) {
    scenario::ScenarioCatalog catalog;
    scenario::SampledTemplate mc;
    mc.name = "mc";
    mc.config.seed = mix(mix(seed, tenant), batch);
    mc.config.count = kMonteCarloPerBatch;
    mc.config.importanceBoost = 2.0;
    catalog.add(mc);

    catalog.add(scenario::CascadeTemplate::phasedRecovery(
        "west-repair", {"WACS", "MainOne", "SAT-3"}, 10.0));

    scenario::BuildoutTemplate shield;
    shield.name = "west-shield";
    phys::SubseaCable cable;
    cable.name = "WestShield";
    cable.corridor = substrate.registry()
                         .cable(substrate.registry().byName("Equiano"))
                         .corridor;
    cable.readyForService = 2026;
    cable.capacityTbps = 120.0;
    for (const auto* code : {"PT", "SN", "CI", "GH", "NG", "CM", "AO", "ZA"}) {
        cable.landings.push_back(phys::LandingStation{
            std::string{code},
            net::CountryTable::world().byCode(code).centroid});
    }
    shield.cablesAdded = {cable};
    shield.stressCuts = {"WACS"};
    catalog.add(shield);
    return catalog;
}

std::shared_ptr<const service::ServiceSnapshot>
buildWorld(obs::MetricsRegistry* metrics, LayerTrace* layers,
           RunResult* result) {
    service::SnapshotConfig config;
    config.metrics = metrics;
    config.computeDigest = false; // O(n^2) at continental scale
    config.impact.routeStorage = route::StoragePolicy::Sharded;
    auto snapshot = buildSnapshot(
        topo::GeneratorConfig::continental(kContinentalTarget), config,
        layers, result);
    // Warm-up: the shared cascade's routing states enter the cache and
    // the baseline rows scoring touches are materialized.
    const sweep::ScenarioSweepEngine engine{snapshot->substrate()};
    (void)engine.runBatch(catalogFor(snapshot->substrate(), 0, 0, 0)
                              .compile(snapshot->substrate())
                              .valueOrRaise());
    return snapshot;
}

struct Completed {
    sweep::ScenarioBatch batch;
    sweep::SweepResult result;
};

struct SweepPhase {
    Samples latencyMs;
    RunningMean allLatencyUs;
    double elapsedSeconds = 0.0;
    std::uint64_t scenarios = 0;
    std::size_t maxInFlightPerTenant = 0;
    std::size_t queueDepthMax = 0;
    std::set<std::vector<std::string>> cutSets;
    std::vector<Completed> completed;
};

SweepPhase closedLoop(std::shared_ptr<const service::ServiceSnapshot> snapshot,
                      double seconds, std::uint64_t seed,
                      obs::MetricsRegistry* metrics, LayerTrace* layers,
                      RunResult& result) {
    const obs::SteadyClock clock;
    persist::MemorySink ledger;
    service::ObservatoryService svc{snapshot, {}, &clock, metrics, &ledger};
    const std::size_t tenants = serviceLanes();
    for (std::size_t t = 0; t < tenants; ++t) {
        service::TenantQuota quota;
        quota.tenant = "tenant-" + std::to_string(t);
        quota.budgetUsd = 1e15;
        svc.registerTenant(quota);
    }
    svc.start(tenants);

    struct Tenant {
        std::size_t nextBatch = 0;
        std::size_t inFlight = 0;
        sweep::ScenarioBatch batch;
        std::future<service::ServiceResponse> response;
        Clock::time_point sent;
    };
    std::vector<Tenant> state(tenants);
    SweepPhase phase;
    const core::Substrate& substrate = snapshot->substrate();

    const auto submit = [&](std::size_t t) {
        Tenant& tenant = state[t];
        const auto catalog =
            catalogFor(substrate, seed, t + 1, tenant.nextBatch++);
        const auto compile = [&] {
            return catalog.compile(substrate).valueOrRaise();
        };
        tenant.batch = layers ? layers->time("scenario.ScenarioCatalog::compile",
                                             compile)
                              : compile();
        for (const auto& entry : tenant.batch.entries) {
            if (!entry.spec.hasOverlay()) {
                auto cuts = entry.spec.cutCables;
                std::sort(cuts.begin(), cuts.end());
                phase.cutSets.insert(std::move(cuts));
            }
        }
        service::ServiceRequest request;
        request.tenant = "tenant-" + std::to_string(t);
        request.workload = "sweep";
        request.scenarios = tenant.batch.specs();
        tenant.sent = Clock::now();
        tenant.response = svc.submit(std::move(request));
        ++tenant.inFlight;
        phase.maxInFlightPerTenant =
            std::max(phase.maxInFlightPerTenant, tenant.inFlight);
        if (metrics != nullptr) {
            phase.queueDepthMax = std::max(phase.queueDepthMax, svc.queueDepth());
        }
        ++result.attempted;
    };

    const auto measureFrom = after(Clock::now(), kWarmupSeconds);
    const auto stopAt = after(measureFrom, seconds);
    for (std::size_t t = 0; t < tenants; ++t) {
        submit(t);
    }
    checkThreadBudget(liveThreads(), result);
    Clock::time_point lastDone = measureFrom;
    for (std::size_t open = tenants; open > 0;) {
        bool progressed = false;
        for (std::size_t t = 0; t < tenants; ++t) {
            Tenant& tenant = state[t];
            if (tenant.inFlight == 0 ||
                tenant.response.wait_for(std::chrono::seconds{0}) !=
                    std::future_status::ready) {
                continue;
            }
            progressed = true;
            service::ServiceResponse response = tenant.response.get();
            const auto done = Clock::now();
            --tenant.inFlight;
            phase.allLatencyUs.add(
                std::chrono::duration<double, std::micro>(done - tenant.sent)
                    .count());
            // Latency counts batches sent inside the measured window,
            // throughput the scenarios completed inside it.
            if (tenant.sent >= measureFrom) {
                phase.latencyMs.values.push_back(
                    std::chrono::duration<double, std::milli>(done -
                                                              tenant.sent)
                        .count());
            }
            if (response.status != service::ResponseStatus::Ok) {
                result.failure(
                    "sweep " +
                    std::string{service::responseStatusName(response.status)});
            } else {
                if (done >= measureFrom) {
                    lastDone = done;
                    phase.scenarios += response.sweep->scenarios.size();
                }
                phase.completed.push_back(
                    {std::move(tenant.batch), std::move(*response.sweep)});
            }
            if (done < stopAt) {
                submit(t);
            } else {
                --open;
            }
        }
        if (!progressed) {
            std::this_thread::sleep_for(std::chrono::microseconds{200});
        }
    }
    phase.elapsedSeconds =
        std::chrono::duration<double>(lastDone - measureFrom).count();
    svc.stop();
    return phase;
}

bool sameOutcome(const sweep::ScenarioResult& a, const sweep::ScenarioResult& b) {
    if (a.scenario != b.scenario ||
        a.outcome.hasValue() != b.outcome.hasValue()) {
        return false;
    }
    return a.outcome.hasValue()
               ? a.outcome.value() == b.outcome.value()
               : a.outcome.error().message == b.outcome.error().message;
}

/// Every completed batch against a direct ScenarioSweepEngine::runBatch
/// over the same snapshot, spread across the thread budget.
void checkBatches(const core::Substrate& substrate, const SweepPhase& phase,
                  RunResult& result) {
    const sweep::ScenarioSweepEngine engine{substrate};
    std::vector<std::size_t> mismatches(phase.completed.size(), 0);
    std::atomic<std::size_t> next{0};
    const auto replayBatches = [&] {
        for (std::size_t i = next++; i < phase.completed.size(); i = next++) {
            const Completed& done = phase.completed[i];
            const auto direct = engine.runBatch(done.batch);
            const auto& served = done.result.scenarios;
            const auto& expected = direct.sweep.scenarios;
            if (served.size() != expected.size()) {
                mismatches[i] = served.size() + expected.size();
                continue;
            }
            for (std::size_t k = 0; k < served.size(); ++k) {
                mismatches[i] += sameOutcome(served[k], expected[k]) ? 0 : 1;
            }
        }
    };
    std::mutex errorMutex;
    std::exception_ptr firstError;
    const auto worker = [&] {
        try {
            replayBatches();
        } catch (...) {
            const std::lock_guard<std::mutex> lock{errorMutex};
            if (!firstError) {
                firstError = std::current_exception();
            }
        }
    };
    {
        std::vector<std::jthread> threads; // joined on scope exit
        for (std::size_t t = 0; t < threadBudget(); ++t) {
            threads.emplace_back(worker);
        }
    }
    if (firstError) {
        std::rethrow_exception(firstError);
    }
    for (std::size_t i = 0; i < mismatches.size(); ++i) {
        if (mismatches[i] > 0) {
            result.mismatch("batch " + std::to_string(i) + ": " +
                            std::to_string(mismatches[i]) +
                            " scenario outcomes differ from runBatch");
        }
    }
}

void checkLoad(const SweepPhase& phase, RunResult& result) {
    if (phase.maxInFlightPerTenant > 1) {
        result.invalid("a tenant had more than one sweep in flight");
    }
    if (!phase.latencyMs.tailResolved(kTailPercentile)) {
        result.notes.push_back("fewer than ten batches beyond the tail "
                               "percentile");
    }
}

} // namespace

RunResult runCorridorSweep(const Options& options) {
    RunResult result;
    double setupSeconds = 0.0;
    auto snapshot = repeatedSetup(
        [&] { return buildWorld(nullptr, nullptr, nullptr); }, setupSeconds);

    const double seconds = options.trace ? options.seconds / 2 : options.seconds;
    const SweepPhase phase =
        closedLoop(snapshot, seconds, options.seed, nullptr, nullptr, result);
    const double peakRss = peakRssMb();
    checkLoad(phase, result);
    checkBatches(snapshot->substrate(), phase, result);

    const double perSecond =
        static_cast<double>(phase.scenarios) / phase.elapsedSeconds;
    setEndToEnd(result, setupSeconds, peakRss, perSecond,
                phase.latencyMs.percentile(50.0),
                phase.latencyMs.percentile(kTailPercentile));
    result.named.set("sweep_scenarios_per_s", perSecond, "1/s");
    result.named.set("as_count",
                     static_cast<double>(snapshot->topology().asCount()),
                     "count");
    result.named.set("batches",
                     static_cast<double>(phase.latencyMs.values.size()),
                     "count");
    result.named.set("tail_percentile", kTailPercentile, "pct");

    if (!options.trace) {
        return result;
    }

    snapshot.reset();
    initLayers(result);
    obs::MetricsRegistry registry;
    LayerTrace layers;
    const auto traced = buildWorld(&registry, &layers, &result);
    RunResult tracedResult;
    const SweepPhase tracedPhase = closedLoop(traced, seconds, options.seed,
                                              &registry, &layers, tracedResult);
    checkLoad(tracedPhase, tracedResult);
    checkBatches(traced->substrate(), tracedPhase, tracedResult);
    result.absorb(tracedResult);

    readServiceRegistry(registry, traced->topology().asCount(), result);
    result.layers.set("service.wait_mean_us",
                      tracedPhase.allLatencyUs.mean() -
                          result.layers.get("service.handler_mean_us"),
                      "us");
    result.layers.set("service.queue_depth_max",
                      static_cast<double>(tracedPhase.queueDepthMax), "count");
    result.layers.set(
        "scenario.compile_ms",
        layers.nanosPerCall("scenario.ScenarioCatalog::compile") / 1e6, "ms");
    result.layers.set("scenario.unique_cut_sets",
                      static_cast<double>(tracedPhase.cutSets.size()), "count");

    // The overlay entry replayed alone, straight into the sweep engine.
    const core::Substrate& substrate = traced->substrate();
    const sweep::ScenarioBatch full = catalogFor(substrate, options.seed, 0, 0)
                                          .compile(substrate)
                                          .valueOrRaise();
    sweep::ScenarioBatch overlayOnly;
    for (const auto& entry : full.entries) {
        if (entry.spec.hasOverlay()) {
            overlayOnly.entries.push_back(entry);
        }
    }
    sweep::SweepOptions sweepOptions;
    sweepOptions.trace = &layers.trace();
    const sweep::ScenarioSweepEngine engine{substrate, sweepOptions};
    constexpr int kOverlayReps = 3;
    for (int rep = 0; rep < kOverlayReps; ++rep) {
        (void)layers.time("sweep.ScenarioSweepEngine::runBatch/overlay",
                          [&] { return engine.runBatch(overlayOnly); });
    }
    result.layers.set(
        "sweep.overlay_scenario_ms",
        layers.nanosPerCall("sweep.ScenarioSweepEngine::runBatch/overlay") /
            1e6 / static_cast<double>(std::max<std::size_t>(1, overlayOnly.entries.size())),
        "ms");

    probeTopology(traced->topology(), layers, result);
    probeRouting(*traced, true, options.seed, layers, result);
    probeServicePath(traced, options.seed, layers, result);

    const double tracedPerSecond =
        static_cast<double>(tracedPhase.scenarios) / tracedPhase.elapsedSeconds;
    result.layers.set("bench.trace_overhead_share",
                      perSecond / tracedPerSecond - 1.0, "share");
    result.traceJson = layers.trace().json();
    return result;
}

} // namespace perfbench
