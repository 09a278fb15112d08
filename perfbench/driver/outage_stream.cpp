// outage_stream: a batch replay of a long CRC-framed event log. Set-up
// scores seeded outages into impacts, emits the radar's per-country
// measurements through a faulty delivery schedule (duplicates, reorder,
// churn, lateness inside the watermark) and captures them into the log.
// Each pass consumes the log with StreamConsumer (checkpoints to a
// memory sink), then ingests it again with the country-sharded online
// detector on an nproc-lane pool.

#include "common.hpp"
#include "content/catalog.hpp"
#include "dns/resolver.hpp"
#include "exec/worker_pool.hpp"
#include "outage/impact.hpp"
#include "phys/linkmap.hpp"
#include "resilience/fault.hpp"
#include "stream/consumer.hpp"
#include "stream/ingestor.hpp"

namespace perfbench {

using namespace aio;

namespace {

constexpr double kWindowDays = 120.0;
constexpr int kOutages = 4;
/// Latency tail reported for this workload: a 10 s run replays the log
/// well over a hundred times, leaving ten passes beyond p90.
constexpr double kTailPercentile = 90.0;

struct StreamWorld {
    phys::CableRegistry registry = phys::CableRegistry::africanDefaults();
    std::unique_ptr<topo::Topology> topology;
    std::unique_ptr<phys::PhysicalLinkMap> linkMap;
    std::unique_ptr<dns::ResolverEcosystem> resolvers;
    std::unique_ptr<content::ContentCatalog> catalog;
    std::unique_ptr<outage::ImpactAnalyzer> analyzer;
    outage::RadarConfig radar;
    stream::StreamConfig stream;
    persist::MemorySink log;
    std::uint64_t logEvents = 0;
    stream::DegradationReport capture;
    std::vector<outage::RadarDetection> reference;
};

/// Topology, impact analyzer, seeded outages, the batch reference and
/// the captured log.
std::unique_ptr<StreamWorld> buildWorld(std::uint64_t seed,
                                        obs::MetricsRegistry* metrics,
                                        LayerTrace* layers,
                                        RunResult* result) {
    auto world = std::make_unique<StreamWorld>();
    const auto generate = [] {
        return topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
            .generate();
    };
    world->topology = std::make_unique<topo::Topology>(
        layers ? layers->time("topo.TopologyGenerator::generate", generate)
               : generate());
    if (layers != nullptr && result != nullptr) {
        result->layers.set("topo.generate_s",
                           layers->seconds("topo.TopologyGenerator::generate"),
                           "s");
    }
    const topo::Topology& topology = *world->topology;
    net::Rng mapRng{42};
    world->linkMap = std::make_unique<phys::PhysicalLinkMap>(
        topology, world->registry, mapRng);
    world->resolvers = std::make_unique<dns::ResolverEcosystem>(
        topology, dns::DnsConfig::defaults(), 31);
    world->catalog = std::make_unique<content::ContentCatalog>(
        topology, content::ContentConfig::defaults(), 47);
    world->analyzer = std::make_unique<outage::ImpactAnalyzer>(
        topology, *world->linkMap, *world->resolvers, *world->catalog);

    // Seeded outages: alternating corridor cuts and country shutdowns.
    const std::vector<std::vector<std::string>> corridors = {
        {"WACS", "MainOne", "SAT-3"}, {"SEACOM", "EASSy"}, {"ACE", "Glo-1"}};
    const std::vector<std::string> countries = {"ET", "CM", "TZ", "SD", "GN",
                                                "ZW"};
    net::Rng outageRng{mix(seed, 31)};
    std::vector<outage::ImpactReport> impacts;
    for (int i = 0; i < kOutages; ++i) {
        outage::OutageEvent event;
        event.startDay = 5.0 + (kWindowDays - 20.0) * outageRng.uniform01();
        if (i % 2 == 0) {
            event.type = outage::OutageType::CableCut;
            event.durationDays = 4.0 + 6.0 * outageRng.uniform01();
            for (const auto& name :
                 corridors[outageRng.uniformInt(corridors.size())]) {
                event.cutCables.push_back(world->registry.byName(name));
            }
        } else {
            event.type = outage::OutageType::GovernmentShutdown;
            event.durationDays = 1.0 + 2.0 * outageRng.uniform01();
            event.countries = {
                countries[outageRng.uniformInt(countries.size())]};
        }
        impacts.push_back(world->analyzer->assess(event, outageRng));
    }

    const outage::RadarMonitor monitor{topology, world->radar};
    world->stream.checkpointEveryEvents = 4096;
    net::Rng batchRng{mix(seed, 37)};
    world->reference = monitor.detectAll(kWindowDays, impacts, batchRng);
    net::Rng emitRng{mix(seed, 37)}; // same stream as the batch reference
    const auto emitted =
        stream::GroundTruthSource{monitor}.emit(kWindowDays, impacts, emitRng);

    // Every fault displaces copies by less than the one-day watermark,
    // so the online detections must equal the batch reference.
    resilience::StreamFaultConfig faults;
    faults.dropProb = 0.05;
    faults.duplicateProb = 0.1;
    faults.reorderProb = 0.2;
    faults.maxSkewDays = 0.5;
    faults.lateProb = 0.02;
    faults.lateDelayDays = 0.75;
    faults.churnBurstProb = 0.3;
    faults.churnReconnects = 2;
    net::Rng faultRng{mix(seed, 41)};
    const resilience::StreamFaultInjector injector{
        faults, stream::GroundTruthSource::probeIds(), kWindowDays, faultRng};
    const auto copies = stream::simulateDelivery(
        emitted, injector, world->radar.samplesPerDay, faultRng);

    stream::EventLogHeader header;
    header.configDigest =
        stream::streamConfigDigest(world->radar, world->stream, kWindowDays);
    header.samplesPerDay = world->radar.samplesPerDay;
    header.windowDays = kWindowDays;
    stream::EventLogWriter writer{world->log, header, metrics};
    stream::StreamIngestor ingestor{world->stream, metrics};
    ingestor.capture(copies, writer);
    world->logEvents = writer.recordCount();
    world->capture = ingestor.stats();
    return world;
}

struct ReplayPhase {
    Samples passMs;
    double elapsedSeconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t passes = 0;    ///< inside the measured window
    std::uint64_t allPasses = 0; ///< lead-in included (trace totals)
    stream::DegradationReport degradation;
};

ReplayPhase replay(const StreamWorld& world, double seconds,
                   obs::MetricsRegistry* metrics, LayerTrace* layers,
                   RunResult& result) {
    exec::WorkerPool pool{static_cast<int>(threadBudget()), metrics};
    checkThreadBudget(liveThreads(), result);
    ReplayPhase phase;
    const auto measureFrom = after(Clock::now(), kWarmupSeconds);
    const auto stopAt = after(measureFrom, seconds);
    for (Clock::time_point now = Clock::now(); now < stopAt;
         now = Clock::now()) {
        const bool timed = now >= measureFrom;
        ++result.attempted;
        obs::Trace* trace = layers ? &layers->trace() : nullptr;
        const auto consume = [&] {
            persist::MemorySink checkpoints;
            stream::StreamConsumer consumer{world.radar, world.stream,
                                            metrics, trace};
            return consumer.run(world.log.bytes(), checkpoints);
        };
        const auto outcome =
            layers ? layers->time("stream.StreamConsumer::run", consume)
                   : consume();
        const auto events = stream::readEventLog(world.log.bytes()).events;
        stream::OnlineRadarDetector detector{world.radar, world.stream,
                                             kWindowDays, metrics};
        const auto ingest = [&] { detector.ingestSharded(events, pool); };
        if (layers != nullptr) {
            layers->time("stream.OnlineRadarDetector::ingestSharded", ingest,
                         events.size());
        } else {
            ingest();
        }
        const auto done = Clock::now();
        phase.degradation = outcome.degradation;
        ++phase.allPasses;
        if (!outcome.completed || outcome.detections != world.reference) {
            result.mismatch("consumer detections differ from "
                            "RadarMonitor::detectAll");
        } else if (detector.finalDetections() != world.reference) {
            result.mismatch("sharded detections differ from "
                            "RadarMonitor::detectAll");
        }
        if (timed) {
            phase.passMs.values.push_back(
                std::chrono::duration<double, std::milli>(done - now).count());
            phase.events += outcome.eventsProcessed;
            ++phase.passes;
            phase.elapsedSeconds =
                std::chrono::duration<double>(done - measureFrom).count();
        }
    }
    return phase;
}

} // namespace

RunResult runOutageStream(const Options& options) {
    RunResult result;
    double setupSeconds = 0.0;
    auto world = repeatedSetup(
        [&] { return buildWorld(options.seed, nullptr, nullptr, nullptr); },
        setupSeconds);

    const double seconds = options.trace ? options.seconds / 2 : options.seconds;
    const ReplayPhase phase = replay(*world, seconds, nullptr, nullptr, result);
    const double peakRss = peakRssMb();
    if (!phase.passMs.tailResolved(kTailPercentile)) {
        result.notes.push_back("fewer than ten passes beyond the tail "
                               "percentile");
    }
    const double perSecond =
        static_cast<double>(phase.events) / phase.elapsedSeconds;
    setEndToEnd(result, setupSeconds, peakRss, perSecond, phase.passMs.percentile(50.0),
                phase.passMs.percentile(kTailPercentile));
    result.named.set("stream_events_per_s", perSecond, "1/s");
    result.named.set("log_events", static_cast<double>(world->logEvents),
                     "count");
    result.named.set("log_bytes", static_cast<double>(world->log.size()), "B");
    result.named.set("passes", static_cast<double>(phase.passes), "count");
    result.named.set("tail_percentile", kTailPercentile, "pct");

    if (!options.trace) {
        return result;
    }

    world.reset();
    initLayers(result);
    obs::MetricsRegistry registry;
    LayerTrace layers;
    const auto traced = buildWorld(options.seed, &registry, &layers, &result);
    RunResult tracedResult;
    const ReplayPhase tracedPhase =
        replay(*traced, seconds, &registry, &layers, tracedResult);
    result.absorb(tracedResult);

    const std::string tree = layers.trace().json();
    const double passes = static_cast<double>(tracedPhase.allPasses);
    result.layers.set("stream.read_log_s",
                      traceNodeMs(tree, "stream.consumer.read_log") / 1e3 /
                          passes,
                      "s");
    result.layers.set("stream.ingest_s",
                      traceNodeMs(tree, "stream.consumer.ingest") / 1e3 / passes,
                      "s");
    result.layers.set("stream.checkpoint_s",
                      traceNodeMs(tree, "stream.consumer.checkpoint") / 1e3 /
                          passes,
                      "s");
    result.layers.set(
        "stream.detector_ns_per_event",
        layers.nanosPerCall("stream.OnlineRadarDetector::ingestSharded"),
        "ns");
    result.layers.set(
        "stream.duplicates",
        static_cast<double>(traced->capture.duplicatesDropped +
                            tracedPhase.degradation.duplicateSlots),
        "count");
    result.layers.set("stream.late_dropped",
                      static_cast<double>(tracedPhase.degradation.lateDropped),
                      "count");
    const auto append =
        registry.histogram("stream.log.append_seconds").snapshot();
    result.layers.set("persist.append_us", append.mean() * 1e6, "us");
    result.layers.set(
        "persist.bytes_written",
        static_cast<double>(registry.counter("stream.log.bytes_written").value()),
        "B");
    const auto loops = registry.histogram("exec.pool.loop_seconds").snapshot();
    result.layers.set("exec.pool_loops",
                      static_cast<double>(registry.counter("exec.pool.loops").value()),
                      "count");
    result.layers.set("exec.pool_loop_s", loops.mean(), "s");

    probeTopology(*traced->topology, layers, result);
    probeRouting(*traced->topology, *traced->analyzer, traced->registry,
                 nullptr, options.seed, layers, result);

    const double tracedPerSecond =
        static_cast<double>(tracedPhase.events) / tracedPhase.elapsedSeconds;
    result.layers.set("bench.trace_overhead_share",
                      perSecond / tracedPerSecond - 1.0, "share");
    result.traceJson = tree;
    return result;
}

} // namespace perfbench
