// frontdoor: an open loop of 8 independent tenants sending textual
// questions to the resident service at one fixed Poisson rate. Each
// question is an `estimate` followed by a deadline-bounded `plan`; its
// latency runs from the arrival's due time to the plan's answer, so a
// stalled service or generator shows up in every later question.

#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <thread>

#include "common.hpp"
#include "netbase/rng.hpp"
#include "persist/record.hpp"
#include "plan/textio.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace aio;

namespace {

/// Questions per second offered by all tenants together. Three handlers
/// serve ~1 750 questions/s on this world (traced handler time ~0.86 ms
/// per request, two requests per question; 4-vCPU x86 VM, Release), so
/// the open loop runs them near a quarter busy and latency reflects
/// service time rather than a growing queue.
constexpr double kRatePerSecond = 400.0;
constexpr std::size_t kTenants = 8;
/// 4 kinds x 6 scope strata, 12 seeded draws per cell.
constexpr std::size_t kPoolSize = 288;
/// Plan deadline, relative to the arrival's due time.
constexpr std::uint64_t kDeadlineNanos = 30'000'000'000ULL;
/// p99 generator lateness above this marks the run invalid: the
/// generator no longer offers the stated rate. Shorter host stalls only
/// delay arrivals, which the due-time latency already charges.
constexpr double kMaxLateP99Ms = 50.0;
/// The generator sleeps until this close to an arrival's due time.
constexpr auto kSpinWindow = std::chrono::microseconds{150};

/// Outage-exposure questions draw their corridor from this set, answered
/// once during set-up so the snapshot's oracle cache holds them.
const std::vector<std::vector<std::string>>& corridors() {
    static const std::vector<std::vector<std::string>> sets = {
        {"WACS", "SAT-3"}, {"SEACOM", "EASSy"}, {"MainOne", "ACE", "Glo-1"}};
    return sets;
}

const char* kindKey(plan::QuestionKind kind) {
    switch (kind) {
    case plan::QuestionKind::ContentLocality: return "content_locality";
    case plan::QuestionKind::DetourRate: return "detour_rate";
    case plan::QuestionKind::OutageExposure: return "outage_exposure";
    case plan::QuestionKind::IxpCoverage: return "ixp_coverage";
    }
    return "unknown";
}

struct Question {
    std::string text;
    plan::QuestionKind kind = plan::QuestionKind::ContentLocality;
};

/// A seeded pool covering all four kinds with varied country scopes. The
/// pool's shape is the same for every seed: kind, scope size and
/// whole-continent scope cycle through fixed strata, and the seed picks
/// the countries, corridors and sizes inside each stratum. The cost mix
/// a run draws from therefore does not depend on the seed.
std::vector<Question> questionPool(const topo::Topology& topology,
                                   std::uint64_t seed) {
    std::set<std::string> african;
    for (topo::AsIndex i = 0; i < topology.asCount(); ++i) {
        if (net::isAfrican(topology.as(i).region)) {
            african.insert(topology.as(i).countryCode);
        }
    }
    const std::vector<std::string> countries(african.begin(), african.end());
    net::Rng rng{mix(seed, 7)};
    std::vector<Question> pool;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        plan::MeasurementQuestion question;
        question.kind = static_cast<plan::QuestionKind>(i % 4);
        question.name = "q" + std::to_string(i) + " " +
                        std::string{plan::questionKindName(question.kind)};
        question.budgetUsd = 50.0;
        // Scope strata per kind: the whole continent, then 1..5 countries.
        const std::size_t stratum = (i / 4) % 6;
        const bool wholeContinent = stratum == 0;
        if (!wholeContinent) {
            std::set<std::string> chosen;
            while (chosen.size() < stratum) {
                chosen.insert(countries[rng.uniformInt(countries.size())]);
            }
            question.countries.assign(chosen.begin(), chosen.end());
        }
        switch (question.kind) {
        case plan::QuestionKind::ContentLocality:
            question.topSites = 10 + static_cast<int>(rng.uniformInt(41));
            break;
        case plan::QuestionKind::DetourRate:
            question.samplePairs = 16 + rng.uniformInt(49);
            question.landlockedOnly = wholeContinent && (i / 24) % 2 == 1;
            break;
        case plan::QuestionKind::OutageExposure:
            question.corridor = corridors()[(i / 24) % corridors().size()];
            question.repairDays = 7.0 + static_cast<double>(rng.uniformInt(22));
            break;
        case plan::QuestionKind::IxpCoverage: break;
        }
        pool.push_back(
            {plan::renderQuestion(question).valueOrRaise(), question.kind});
    }
    return pool;
}

/// Answers every corridor once, so its degraded routing state sits in the
/// substrate's oracle cache.
void warmCorridors(const core::Substrate& substrate) {
    const plan::CampaignPlanner planner{substrate};
    for (const auto& corridor : corridors()) {
        plan::MeasurementQuestion warm;
        warm.name = "warm-up";
        warm.kind = plan::QuestionKind::OutageExposure;
        warm.corridor = corridor;
        warm.budgetUsd = 50.0;
        (void)planner.execute(planner.compile(warm).valueOrRaise());
    }
}

/// FNV-1a over an answer's rows and headline.
std::uint64_t answerDigest(const plan::CampaignAnswer& answer) {
    std::uint64_t hash = 1469598103934665603ULL;
    const auto feed = [&](const void* data, std::size_t size) {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash = (hash ^ bytes[i]) * 1099511628211ULL;
        }
    };
    for (const auto& row : answer.rows) {
        feed(row.country.data(), row.country.size());
        feed(&row.value, sizeof row.value);
        feed(&row.samples, sizeof row.samples);
    }
    feed(&answer.overall, sizeof answer.overall);
    return hash;
}

struct Answered {
    std::uint64_t estimateDigest = 0;
    std::uint64_t planDigest = 0;
    std::uint64_t answerDigest = 0;
};

service::TenantQuota tenantQuota(std::size_t tenant) {
    service::TenantQuota quota;
    quota.tenant = "tenant-" + std::to_string(tenant);
    quota.budgetUsd = 1e15;
    return quota;
}

/// Step-mode reference: every pool question through drain() on a
/// handler-less service over the same snapshot.
std::vector<Answered>
stepReplay(std::shared_ptr<const service::ServiceSnapshot> snapshot,
           const std::vector<Question>& pool) {
    const obs::SteadyClock clock;
    service::ObservatoryService svc{std::move(snapshot), {}, &clock};
    svc.registerTenant(tenantQuota(0));
    std::vector<Answered> reference;
    for (const Question& question : pool) {
        service::ServiceRequest request;
        request.tenant = tenantQuota(0).tenant;
        request.workload = "estimate";
        request.questionText = question.text;
        auto estimate = svc.submit(request);
        request.workload = "plan";
        request.deadlineNanos = clock.nowNanos() + kDeadlineNanos;
        auto answer = svc.submit(std::move(request));
        (void)svc.drain();
        const service::ServiceResponse e = estimate.get();
        const service::ServiceResponse a = answer.get();
        Answered row;
        if (e.status == service::ResponseStatus::Ok &&
            a.status == service::ResponseStatus::Ok) {
            row = {e.plan->digest(), a.plan->digest(),
                   answerDigest(a.report->answer)};
        }
        reference.push_back(row);
    }
    return reference;
}

struct World {
    std::shared_ptr<const service::ServiceSnapshot> snapshot;
    std::vector<Question> pool;
    /// Step-mode answers, one per pool question.
    std::vector<Answered> reference;
};

/// Topology, snapshot, the corridor warm-up (every corridor is answered
/// once so its degraded routing state sits in the cache), the question
/// pool and its step-mode reference answers.
World buildWorld(std::uint64_t seed, obs::MetricsRegistry* metrics,
                 LayerTrace* layers, RunResult* result) {
    service::SnapshotConfig config;
    config.metrics = metrics;
    World world;
    world.snapshot = buildSnapshot(topo::GeneratorConfig::defaults(), config,
                                   layers, result);
    warmCorridors(world.snapshot->substrate());
    world.pool = questionPool(world.snapshot->topology(), seed);
    world.reference = stepReplay(world.snapshot, world.pool);
    return world;
}

struct DoorPhase {
    Samples latencyMs;
    /// The same latencies per one-second window of completion time.
    std::vector<Samples> windows;
    Samples lateMs;
    double elapsedSeconds = 0.0;
    std::uint64_t completed = 0;
    std::size_t queueDepthMax = 0;
    /// Per request: handler start minus submission, in microseconds.
    Samples waitUs;
    /// Per arrival: pool index and what came back.
    std::vector<std::pair<std::size_t, Answered>> answers;
};

std::string describe(std::string_view workload,
                     const service::ServiceResponse& response) {
    std::string text = std::string{workload} + " " +
                       std::string{service::responseStatusName(response.status)};
    if (response.status == service::ResponseStatus::Rejected) {
        text += " " + std::string{service::rejectReasonName(response.reject)};
    }
    return text;
}

/// Handler start and finish times, indexed by the service-assigned
/// request seq. The builtin estimate and plan handlers are re-registered
/// wrapped in the two stamps, so a question's latency ends when its
/// handler finished rather than when the generator next looked, and the
/// queue wait is read exactly.
class RequestStamps {
public:
    explicit RequestStamps(std::size_t capacity)
        : begin_(capacity), end_(capacity) {}
    RequestStamps(const RequestStamps&) = delete;
    RequestStamps& operator=(const RequestStamps&) = delete;

    /// 0 when the request never started / finished its handler.
    [[nodiscard]] std::uint64_t begin(std::uint64_t seq) const {
        return read(begin_, seq);
    }
    [[nodiscard]] std::uint64_t end(std::uint64_t seq) const {
        return read(end_, seq);
    }

    void wrap(service::ObservatoryService& svc) {
        for (const char* name : {"estimate", "plan"}) {
            service::WorkloadInfo info = *svc.workloads().find(name);
            service::WorkloadHandler builtin = svc.workloads().handler(name);
            svc.registerWorkload(
                std::move(info),
                [this, builtin](const service::WorkloadContext& context,
                                const service::ServiceRequest& request,
                                service::ServiceResponse& response) {
                    write(begin_, request.seq);
                    builtin(context, request, response);
                    write(end_, request.seq);
                });
        }
    }

private:
    using Slots = std::vector<std::atomic<std::uint64_t>>;

    static void write(Slots& slots, std::uint64_t seq) {
        if (seq < slots.size()) {
            slots[seq].store(steadyNanos(), std::memory_order_release);
        }
    }
    static std::uint64_t read(const Slots& slots, std::uint64_t seq) {
        return seq < slots.size() ? slots[seq].load(std::memory_order_acquire)
                                  : 0;
    }

    Slots begin_;
    Slots end_;
};

DoorPhase openLoop(const World& world, double seconds, std::uint64_t seed,
                   obs::MetricsRegistry* metrics, RunResult& result) {
    struct Arrival {
        double dueSeconds = 0.0;
        std::size_t tenant = 0;
        std::size_t question = 0;
    };
    std::vector<Arrival> arrivals;
    net::Rng rng{mix(seed, 11)};
    for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.uniform01()) / kRatePerSecond;
        if (t >= kWarmupSeconds + seconds) {
            break;
        }
        arrivals.push_back({t, rng.uniformInt(kTenants),
                            rng.uniformInt(world.pool.size())});
    }

    const obs::SteadyClock clock;
    persist::MemorySink ledger;
    // Declared before the service: its handlers write the stamps until
    // the service is stopped or destroyed.
    RequestStamps stamps{2 * arrivals.size() + 64};
    service::ObservatoryService svc{world.snapshot, {}, &clock, metrics,
                                    &ledger};
    for (std::size_t tenant = 0; tenant < kTenants; ++tenant) {
        svc.registerTenant(tenantQuota(tenant));
    }
    stamps.wrap(svc);
    svc.start(serviceLanes());

    struct Outstanding {
        std::size_t arrival = 0;
        Clock::time_point due;
        std::uint64_t sent = 0; ///< steady nanos at submission
        std::future<service::ServiceResponse> estimate;
        std::future<service::ServiceResponse> plan;
    };
    std::vector<Outstanding> outstanding;
    DoorPhase phase;
    phase.answers.reserve(arrivals.size());
    // Complete one-second windows; completions after the last one (the
    // tail of the final arrivals) stay out of the window figures.
    phase.windows.resize(std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds)));
    Clock::time_point measureFrom;
    Clock::time_point lastDone;

    const auto ready = [](const std::future<service::ServiceResponse>& f) {
        return f.wait_for(std::chrono::seconds{0}) ==
               std::future_status::ready;
    };
    const auto poll = [&] {
        for (std::size_t i = 0; i < outstanding.size();) {
            Outstanding& entry = outstanding[i];
            if (!ready(entry.plan) || !ready(entry.estimate)) {
                ++i;
                continue;
            }
            const service::ServiceResponse estimate = entry.estimate.get();
            const service::ServiceResponse answer = entry.plan.get();
            const bool timed =
                arrivals[entry.arrival].dueSeconds >= kWarmupSeconds;
            // A request whose handler threw has no stamp: fall back to now.
            const std::uint64_t estimated = stamps.end(estimate.seq);
            const std::uint64_t answered = stamps.end(answer.seq);
            for (const std::uint64_t seq : {estimate.seq, answer.seq}) {
                if (timed && stamps.begin(seq) != 0) {
                    phase.waitUs.values.push_back(
                        static_cast<double>(stamps.begin(seq) - entry.sent) /
                        1e3);
                }
            }
            const Clock::time_point done =
                estimated != 0 && answered != 0
                    ? Clock::time_point{std::chrono::duration_cast<
                          Clock::duration>(std::chrono::nanoseconds{
                          std::max(estimated, answered)})}
                    : Clock::now();
            lastDone = std::max(lastDone, done);
            if (timed) {
                const double ms =
                    std::chrono::duration<double, std::milli>(done - entry.due)
                        .count();
                phase.latencyMs.values.push_back(ms);
                const auto window = static_cast<std::size_t>(
                    std::chrono::duration<double>(done - measureFrom).count());
                if (done >= measureFrom && window < phase.windows.size()) {
                    phase.windows[window].values.push_back(ms);
                }
            }
            const std::size_t question = arrivals[entry.arrival].question;
            if (estimate.status != service::ResponseStatus::Ok) {
                result.failure(describe("estimate", estimate));
            } else if (answer.status != service::ResponseStatus::Ok) {
                result.failure(describe("plan", answer));
            } else if (!answer.report->withinBound) {
                result.mismatch("plan answer outside its estimate bound");
            } else if (timed) {
                ++phase.completed;
            }
            if (estimate.status == service::ResponseStatus::Ok &&
                answer.status == service::ResponseStatus::Ok) {
                phase.answers.push_back(
                    {question,
                     {estimate.plan->digest(), answer.plan->digest(),
                      answerDigest(answer.report->answer)}});
            }
            entry = std::move(outstanding.back());
            outstanding.pop_back();
        }
    };

    const auto start = Clock::now();
    measureFrom = after(start, kWarmupSeconds);
    lastDone = start;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Arrival& arrival = arrivals[i];
        const Clock::time_point due = after(start, arrival.dueSeconds);
        // Sleep towards the due time, then yield through the last stretch.
        for (auto now = Clock::now(); now < due; now = Clock::now()) {
            poll();
            if (due - now > kSpinWindow) {
                std::this_thread::sleep_for(
                    std::min<Clock::duration>(due - now - kSpinWindow,
                                              std::chrono::milliseconds{1}));
            } else {
                std::this_thread::yield();
            }
        }
        if (arrival.dueSeconds >= kWarmupSeconds) {
            phase.lateMs.values.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - due)
                    .count());
        }

        service::ServiceRequest request;
        request.tenant = tenantQuota(arrival.tenant).tenant;
        request.workload = "estimate";
        request.questionText = world.pool[arrival.question].text;
        Outstanding entry{i, due, steadyNanos(), {}, {}};
        entry.estimate = svc.submit(request);
        request.workload = "plan";
        request.deadlineNanos =
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    due.time_since_epoch())
                    .count()) +
            kDeadlineNanos;
        entry.plan = svc.submit(std::move(request));
        if (metrics != nullptr) {
            phase.queueDepthMax =
                std::max(phase.queueDepthMax, svc.queueDepth());
        }
        outstanding.push_back(std::move(entry));
        if (i == 0) {
            checkThreadBudget(liveThreads(), result);
        }
        poll();
    }
    const auto giveUp = Clock::now() + std::chrono::seconds{60};
    while (!outstanding.empty() && Clock::now() < giveUp) {
        poll();
        std::this_thread::sleep_for(std::chrono::microseconds{200});
    }
    svc.stop();
    result.failed += outstanding.size();
    result.attempted += arrivals.size();
    phase.elapsedSeconds =
        std::chrono::duration<double>(lastDone - start).count() -
        kWarmupSeconds;
    return phase;
}

void checkAnswers(const DoorPhase& phase, const std::vector<Answered>& reference,
                  RunResult& result) {
    for (const auto& [question, answered] : phase.answers) {
        const Answered& expected = reference[question];
        if (answered.estimateDigest != expected.estimateDigest ||
            answered.planDigest != expected.planDigest ||
            answered.answerDigest != expected.answerDigest) {
            result.mismatch("question " + std::to_string(question) +
                            " differs from its step-mode replay");
        }
    }
}

void checkGenerator(const DoorPhase& phase, RunResult& result) {
    const double lateP99 = phase.lateMs.percentile(99.0);
    if (lateP99 > kMaxLateP99Ms) {
        result.invalid("generator fell behind: p99 lateness " +
                       std::to_string(lateP99) + " ms");
    }
}

} // namespace

void probePlanner(const service::ServiceSnapshot& snapshot, std::uint64_t seed,
                  LayerTrace& layers, RunResult& result) {
    const core::Substrate& substrate = snapshot.substrate();
    warmCorridors(substrate);
    const plan::CampaignPlanner planner{substrate};
    std::size_t tasks = 0;
    std::size_t pruned = 0;
    Samples estimateError;
    constexpr int kReps = 3;
    for (int rep = 0; rep < kReps; ++rep) {
        for (const Question& question : questionPool(snapshot.topology(), seed)) {
            const std::string kind = kindKey(question.kind);
            const auto parsed = layers.time("plan.parseQuestion", [&] {
                return plan::parseQuestion(question.text);
            });
            const auto compiled =
                layers.time("plan.CampaignPlanner::compile/" + kind, [&] {
                    return planner.compile(parsed.value());
                });
            const auto report =
                layers.time("plan.CampaignPlanner::execute/" + kind, [&] {
                    return planner.execute(compiled.value());
                });
            tasks += compiled.value().estimate.tasks;
            pruned += compiled.value().estimate.prunedTasks;
            estimateError.values.push_back(report.estimateErrorShare);
            if (!report.withinBound) {
                result.mismatch("direct plan answer outside its estimate bound");
            }
        }
    }
    result.layers.set("plan.parse_us",
                      layers.nanosPerCall("plan.parseQuestion") / 1e3, "us");
    for (const char* kind : {"content_locality", "detour_rate",
                             "outage_exposure", "ixp_coverage"}) {
        result.layers.set(
            std::string{"plan.compile_ms."} + kind,
            layers.nanosPerCall(std::string{"plan.CampaignPlanner::compile/"} +
                                kind) /
                1e6,
            "ms");
        result.layers.set(
            std::string{"plan.execute_ms."} + kind,
            layers.nanosPerCall(std::string{"plan.CampaignPlanner::execute/"} +
                                kind) /
                1e6,
            "ms");
    }
    result.layers.set("plan.prune_ratio",
                      tasks > 0 ? static_cast<double>(pruned) /
                                      static_cast<double>(tasks)
                                : 0.0,
                      "share");
    result.layers.set("plan.estimate_error_share", estimateError.mean(),
                      "share");
}

RunResult runFrontdoor(const Options& options) {
    RunResult result;
    double setupSeconds = 0.0;
    World world = repeatedSetup(
        [&] { return buildWorld(options.seed, nullptr, nullptr, nullptr); },
        setupSeconds);

    const double seconds = options.trace ? options.seconds / 2 : options.seconds;
    const DoorPhase phase = openLoop(world, seconds, options.seed, nullptr,
                                     result);
    const double peakRss = peakRssMb();
    checkGenerator(phase, result);
    checkAnswers(phase, world.reference, result);

    // p50 and p90 are medians over one-second windows; a window's 400
    // questions leave too few beyond a p99, which is read over the run.
    const WindowFigures window = medianWindow(phase.windows);
    const double p50 = window.p50;
    const double p99 = phase.latencyMs.percentile(99.0);
    setEndToEnd(result, setupSeconds, peakRss,
                static_cast<double>(phase.completed) / phase.elapsedSeconds,
                p50, window.p90);
    result.named.set("question_p50_ms", p50, "ms");
    result.named.set("question_p90_ms", window.p90, "ms");
    result.named.set("question_p99_ms", p99, "ms");
    result.named.set("question_samples",
                     static_cast<double>(phase.latencyMs.values.size()),
                     "count");
    result.named.set("question_p99_resolved",
                     phase.latencyMs.tailResolved(99.0) ? 1.0 : 0.0, "bool");
    result.named.set("offered_rate", kRatePerSecond, "1/s");
    result.named.set("gen_late_p99_ms", phase.lateMs.percentile(99.0), "ms");

    if (!options.trace) {
        return result;
    }

    world = {};
    initLayers(result);
    obs::MetricsRegistry registry;
    LayerTrace layers;
    const World traced = buildWorld(options.seed, &registry, &layers, &result);
    RunResult tracedResult;
    const DoorPhase tracedPhase =
        openLoop(traced, seconds, options.seed, &registry, tracedResult);
    checkGenerator(tracedPhase, tracedResult);
    checkAnswers(tracedPhase, traced.reference, tracedResult);
    result.absorb(tracedResult);

    readServiceRegistry(registry, traced.snapshot->topology().asCount(), result);
    result.layers.set("service.wait_mean_us", tracedPhase.waitUs.mean(), "us");
    result.layers.set("service.queue_depth_max",
                      static_cast<double>(tracedPhase.queueDepthMax), "count");
    result.layers.set("bench.gen_late_p99_ms", phase.lateMs.percentile(99.0),
                      "ms");
    result.layers.set("bench.trace_overhead_share",
                      medianWindow(tracedPhase.windows).p50 / p50 - 1.0,
                      "share");

    probePlanner(*traced.snapshot, options.seed, layers, result);
    probeTopology(traced.snapshot->topology(), layers, result);
    probeRouting(*traced.snapshot, false, options.seed, layers, result);
    probeServicePath(traced.snapshot, options.seed, layers, result);
    result.traceJson = layers.trace().json();
    return result;
}

} // namespace perfbench
