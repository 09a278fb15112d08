#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/substrate.hpp"
#include "exec/cancel.hpp"
#include "exec/worker_pool.hpp"
#include "measure/ixp_detect.hpp"
#include "measure/traceroute.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "outage/radar.hpp"
#include "persist/bytes.hpp"
#include "persist/journal.hpp"
#include "persist/record.hpp"
#include "resilience/fault.hpp"
#include "resilience/supervisor.hpp"
#include "routing/oracle_cache.hpp"
#include "routing/path_oracle.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "stream/consumer.hpp"
#include "stream/event_log.hpp"
#include "stream/ingestor.hpp"
#include "stream/source.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

// The golden observability readout: one ManualClock registry and trace
// driven once through every instrumented component — worker pool,
// oracle cache, campaign journal and its replay, supervisor, impact
// analyzer, scenario sweep, observatory service with its epoch registry
// and admission controller, event log, ingestor, consumer and online
// radar — with seeded inputs. The digest of registry.json() + trace.json()
// is a checked-in constant, so renaming, dropping or re-valuing any
// metric or span fails here even though every run agrees with every
// other (which is all MetricsDeterminism can see).
namespace aio {
namespace {

topo::GeneratorConfig smallConfig() {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = 77;
    for (auto& profile : config.africa) {
        profile.asPerMillionPeople *= 0.4;
        profile.minAsesPerCountry = 1;
        profile.ixpCount = std::max(1, profile.ixpCount / 2);
    }
    config.europe.accessPerCountry = 2;
    config.northAmerica.accessPerCountry = 2;
    config.southAmerica.accessPerCountry = 2;
    config.asiaPacific.accessPerCountry = 2;
    return config;
}

core::ScenarioSpec cut(std::string name, std::vector<std::string> cables) {
    core::ScenarioSpec spec;
    spec.name = std::move(name);
    spec.cutCables = std::move(cables);
    spec.repairDays = 14.0;
    return spec;
}

/// Fault-tolerant campaign: pooled oracle-cache preflight, then a
/// journaled faulted run, then a replay of its journal.
void driveCampaign(const topo::Topology& topo, obs::MetricsRegistry& registry,
                   obs::Trace& trace) {
    const route::PathOracle oracle{topo};
    const measure::TracerouteEngine engine{topo, oracle};
    const measure::IxpDetector detector{
        topo, measure::IxpKnowledgeBase::full(topo)};
    core::ProbeFleet fleet;
    int serial = 0;
    for (const char* iso2 : {"KE", "NG", "ZA"}) {
        const auto hosts = topo.asesInCountry(iso2);
        for (std::size_t i = 0; i < 2 && i < hosts.size(); ++i) {
            core::Probe probe;
            probe.id = "g-" + std::to_string(++serial);
            probe.hostAs = hosts[i];
            probe.countryCode = iso2;
            probe.availability = 0.85;
            probe.monthlyBudgetUsd = 50.0;
            probe.pricing.kind = core::PricingModel::Kind::FlatPerMb;
            probe.pricing.perMbUsd = 0.01;
            fleet.add(probe);
        }
    }
    const core::Observatory observatory{topo, engine, detector,
                                        std::move(fleet)};

    exec::WorkerPool pool{2, &registry};
    route::OracleCache cache{topo, 4, &pool, &registry};
    resilience::SupervisorConfig config;
    config.checkpointInterval = 4;
    const resilience::CampaignSupervisor supervisor{observatory, config,
                                                    &registry, &trace};

    net::Rng planRng{31};
    resilience::FaultPlanConfig planConfig;
    planConfig.intensity = 1.5;
    auto plan = resilience::FaultPlan::generate(observatory.fleet(),
                                                planConfig, planRng);
    // Both KE probes die (abandonment), one NG probe dies (reassignment
    // to its sibling), a ZA probe loses power (retries).
    for (const std::size_t probe : {0, 1, 2}) {
        plan.addWindow(probe, {resilience::FaultClass::PermanentFailure,
                               0.0, resilience::kNeverEnds});
    }
    plan.addWindow(4, {resilience::FaultClass::PowerLoss, 0.0, 1.0});
    net::Rng taskRng{32};
    auto tasks = observatory.ixpDiscoveryTasks(taskRng);

    route::LinkFilter scenario;
    for (std::size_t i = 0; i < 4 && i < topo.links().size(); ++i) {
        scenario.disableLink(topo.links()[i].a, topo.links()[i].b);
    }
    (void)supervisor.routableTaskShare(tasks, scenario, cache);
    (void)supervisor.routableTaskShare(tasks, scenario, cache);

    resilience::FaultInjector injector{observatory.fleet(), plan, 1.0};
    net::Rng rng{33};
    persist::MemorySink journal;
    (void)supervisor.runJournaled(tasks, injector, rng, journal);
    (void)persist::CampaignJournal::replay(journal.bytes(), &registry);
}

/// Batched sweep (plain + overlay scenarios, weighted batch) on a substrate
/// that carries the registry, so its analyzer reports too.
void driveSweep(const topo::Topology& topo, obs::MetricsRegistry& registry,
                obs::Trace& trace) {
    core::Substrate::Options options;
    options.metrics = &registry;
    const core::Substrate substrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        options};
    core::ScenarioSpec overlay = cut("overlay", {"ACE"});
    overlay.dnsOverride = dns::DnsConfig::defaults();
    sweep::ScenarioBatch batch;
    batch.entries = {{cut("wacs", {"WACS"}), 0.5},
                     {cut("wacs-again", {"WACS"}), 0.25},
                     {cut("seacom", {"SEACOM", "EASSy"}), 0.25},
                     {overlay, 1.0}};
    const sweep::ScenarioSweepEngine engine{
        substrate, sweep::SweepOptions{.trace = &trace}};
    (void)engine.runBatch(batch);
}

/// Step-mode service: admitted query/what-if/sweep, every admission
/// rung the controller can reach here, a failed and a good epoch swap,
/// and memory pressure.
void driveService(const topo::Topology& topo, obs::MetricsRegistry& registry,
                  obs::ManualClock& clock) {
    service::SnapshotConfig snapshotConfig;
    snapshotConfig.metrics = &registry;
    const auto snapshot = [&] {
        return std::move(service::ServiceSnapshot::build(
                             topo, phys::CableRegistry::africanDefaults(),
                             dns::DnsConfig::defaults(),
                             content::ContentConfig::defaults(),
                             snapshotConfig))
            .value();
    };
    service::ServiceConfig config;
    config.admission.queueCapacity = 4;
    config.admission.shedQueueDepth = 3;
    config.admission.shedResidentBytes = std::uint64_t{1} << 40;
    service::ObservatoryService observatory{snapshot(), config, &clock,
                                            &registry};
    for (const auto& [tenant, budgetUsd] :
         {std::pair{"acme", 10.0}, std::pair{"pauper", 0.0}}) {
        service::TenantQuota quota;
        quota.tenant = tenant;
        quota.budgetUsd = budgetUsd;
        observatory.registerTenant(quota);
    }

    std::vector<std::future<service::ServiceResponse>> futures;
    const auto submit = [&](std::string tenant, std::string workload,
                            std::vector<core::ScenarioSpec> specs = {},
                            std::uint64_t deadline = exec::kNoDeadlineNanos) {
        service::ServiceRequest request;
        request.tenant = std::move(tenant);
        request.workload = std::move(workload);
        request.src = 0;
        request.dst = 1;
        request.scenarios = std::move(specs);
        request.deadlineNanos = deadline;
        futures.push_back(observatory.submit(std::move(request)));
    };
    clock.advance(1000);
    submit("pauper", "whatif", {cut("eig", {"EIG"})}); // no budget
    submit("acme", "query");
    submit("acme", "whatif", {cut("wacs", {"WACS"})});
    submit("acme", "sweep", {cut("ace", {"ACE"}), cut("eig", {"EIG"})});
    submit("acme", "sweep", {cut("sat3", {"SAT-3"})}); // depth watermark
    submit("acme", "query");
    submit("acme", "query"); // queue full
    submit("ghost", "query");
    submit("acme", "nonesuch");
    submit("acme", "query", {}, 1000); // deadline passed
    (void)observatory.drain();

    (void)observatory.publish(net::Error::precondition("golden: bad swap"));
    (void)observatory.publish(snapshot());
    observatory.injectAllocPressure(config.admission.shedResidentBytes);
    submit("acme", "whatif", {cut("main", {"MainOne"})}); // byte watermark
    observatory.clearAllocPressure();
    (void)observatory.drain();
    for (auto& future : futures) {
        (void)future.get();
    }
}

/// Fault-injected delivery captured through the ingestor into an event
/// log, then consumed (checkpointed) through the online radar.
void driveStream(const topo::Topology& topo, obs::MetricsRegistry& registry,
                 obs::Trace& trace) {
    constexpr double kWindowDays = 4.0;
    const outage::RadarConfig radar;
    const outage::RadarMonitor monitor{topo, radar};
    outage::ImpactReport impact;
    impact.event.startDay = 1.0;
    impact.event.durationDays = 2.0;
    impact.countries.push_back(outage::CountryImpact{"KE", 0.9, 0.5, 2.0});
    net::Rng emitRng{41};
    std::vector<stream::MeasurementEvent> events;
    for (stream::MeasurementEvent& event :
         stream::GroundTruthSource{monitor}.emit(kWindowDays, {impact},
                                                 emitRng)) {
        if (event.country == "KE" || event.country == "NG") {
            events.push_back(std::move(event));
        }
    }

    resilience::StreamFaultConfig faults;
    faults.duplicateProb = 0.2;
    faults.reorderProb = 0.3;
    faults.maxSkewDays = 0.5;
    faults.lateProb = 0.05;
    faults.churnBurstProb = 0.3;
    net::Rng faultRng{42};
    const auto probes = stream::GroundTruthSource::probeIds();
    const resilience::StreamFaultInjector injector{faults, probes,
                                                   kWindowDays, faultRng};
    const auto delivered = stream::simulateDelivery(
        std::move(events), injector, radar.samplesPerDay, faultRng);

    stream::StreamConfig config;
    config.checkpointEveryEvents = 8;
    config.queueCapacity = 32;
    stream::EventLogHeader header;
    header.configDigest =
        stream::streamConfigDigest(radar, config, kWindowDays);
    header.samplesPerDay = radar.samplesPerDay;
    header.windowDays = kWindowDays;
    persist::MemorySink log;
    stream::EventLogWriter writer{log, header, &registry};
    stream::StreamIngestor{config, &registry}.capture(delivered, writer);

    persist::MemorySink checkpoints;
    (void)stream::StreamConsumer{radar, config, &registry, &trace}.run(
        log.bytes(), checkpoints);
}

std::string goldenReadout() {
    const topo::Topology topo =
        topo::TopologyGenerator{smallConfig()}.generate();
    obs::ManualClock clock;
    obs::MetricsRegistry registry{&clock};
    obs::Trace trace{&clock};
    driveCampaign(topo, registry, trace);
    driveSweep(topo, registry, trace);
    driveService(topo, registry, clock);
    driveStream(topo, registry, trace);
    return registry.json() + trace.json();
}

std::uint64_t digestOf(std::string_view text) {
    return persist::fnv1a64(std::as_bytes(std::span{text}));
}

TEST(ReadoutGolden, EveryInstrumentedComponentReports) {
    const std::string readout = goldenReadout();
    for (const char* needle :
         {"exec.pool.loops", "cache.oracle.misses", "journal.appends",
          "journal.replays", "supervisor.settlements", "supervisor.loss.", "impact.assessments",
          "sweep.scenarios_per_sec", "sweep.weighted_page_load_loss",
          "service.completed", "service.epochs_reclaimed",
          "service.rejected.unknown_tenant",
          "service.rejected.unknown_workload", "service.rejected.overloaded",
          "service.rejected.memory_pressure", "service.rejected.queue_full",
          "service.rejected.deadline_unmeetable",
          "service.rejected.budget_exhausted", "service.swap_failures",
          "service.cache_shrinks", "stream.log.appends",
          "stream.ingest.delivered", "stream.consumer.checkpoints",
          "stream.detector.events", "\"drain\"", "\"overlay\"",
          "\"stream.consumer.ingest\""}) {
        EXPECT_NE(readout.find(needle), std::string::npos)
            << "missing " << needle;
    }
}

TEST(ReadoutGolden, DigestIsPinned) {
    // A checked-in constant, not a run-vs-run comparison.
    const std::string readout = goldenReadout();
    EXPECT_EQ(digestOf(readout), 0x5e68222ca71a4fc4ULL) << readout;
}

} // namespace
} // namespace aio
