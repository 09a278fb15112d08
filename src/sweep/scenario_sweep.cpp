#include "sweep/scenario_sweep.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "content/catalog.hpp"
#include "core/studies.hpp"
#include "netbase/error.hpp"
#include "exec/worker_pool.hpp"
#include "netbase/rng.hpp"
#include "routing/oracle_cache.hpp"
#include "routing/route_oracle.hpp"
#include "routing/sharded_oracle.hpp"

namespace aio::sweep {

namespace {

/// Eyeball pairs sampled per unique routing state for detourShare (fixed
/// seed, so the share is deterministic for a given substrate).
constexpr std::size_t kDetourSamplePairs = 128;

/// One validated scenario waiting on its degraded routing state.
struct ScenarioJob {
    std::size_t slot = 0; ///< index into the result vector
    /// The sweep's substrate, or the scenario's own overlay of it.
    const core::Substrate* substrate = nullptr;
    outage::OutageEvent event;
    /// The routing request's scoring stream: per scenario, so the batch
    /// order stays unobservable.
    net::Rng rng{0};
    std::size_t oracleIndex = 0; ///< into the unique-oracle list
};

/// One unique degraded routing state shared by >= 1 scenarios.
struct OracleJob {
    route::LinkFilter filter;
    std::shared_ptr<const route::RouteOracle> oracle; ///< resolved
    bool fromCache = false;
    /// Sampled detour share of this routing state; computed once per
    /// unique oracle when scenarioAggregates is requested.
    double detourShare = 0.0;
};

/// Mean page-load loss over the countries a report lists (they are the
/// loss > 0 set; no country means no loss).
double meanCountryLoss(const outage::ImpactReport& report) {
    if (report.countries.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const outage::CountryImpact& impact : report.countries) {
        sum += impact.pageLoadLoss;
    }
    return sum / static_cast<double>(report.countries.size());
}

/// Runs fn(i) for every i in [0, count), across the pool when one is
/// wired in. fn must write only to index-owned slots. A fired `cancel`
/// token stops the loop with net::CancelledError (between chunks on the
/// pool path, between indices sequentially).
void forEach(exec::WorkerPool* pool, std::size_t count,
             const std::function<void(std::size_t)>& fn,
             const exec::CancelToken* cancel) {
    if (pool != nullptr && count > 1) {
        pool->parallelFor(
            count, [&](std::size_t i, std::size_t) { fn(i); }, cancel);
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            if (cancel != nullptr) {
                cancel->checkpoint();
            }
            fn(i);
        }
    }
}

} // namespace

ScenarioSweepEngine::ScenarioSweepEngine(const core::Substrate& substrate,
                                         SweepOptions options)
    : substrate_(&substrate), options_(options) {}

SweepResult
ScenarioSweepEngine::run(std::span<const core::ScenarioSpec> scenarios) const {
    const obs::Metrics metrics = substrate_->metrics();
    obs::Trace* trace = options_.trace;
    const obs::Span sweepSpan = obs::Trace::enter(trace, "sweep");
    const obs::ScopedTimer batchTimer{metrics, "sweep.batch_seconds"};

    const std::size_t n = scenarios.size();
    exec::WorkerPool* pool = substrate_->pool();
    route::OracleCache* cache = substrate_->oracleCache();
    const bool incremental = options_.mode == RecomputeMode::Incremental;

    // Checked at every phase boundary (and inside forEach); a fired
    // token surfaces as net::CancelledError before any result assembly.
    const auto checkpoint = [&] {
        if (options_.cancel != nullptr) {
            options_.cancel->checkpoint();
        }
    };
    checkpoint();

    // Timed on the registry's clock, so a ManualClock run publishes a
    // deterministic sweep.scenarios_per_sec.
    const obs::Clock& clock = metrics.clock();
    const std::uint64_t startedAt = clock.nowNanos();
    SweepResult result;
    result.stats.scenarios = n;
    // Per-slot outcome staging: lanes write only their own slot, the
    // coordinating thread assembles the vector afterwards.
    std::vector<std::optional<net::Expected<outage::ImpactReport>>> slots(n);
    std::vector<std::optional<ScenarioAggregates>> aggSlots(n);
    // Content locality of the substrate's baseline catalog — shared by
    // every plain scenario.
    const double baselineLocalShare =
        options_.scenarioAggregates
            ? content::LocalityAnalyzer{substrate_->catalog()}
                  .overallLocalShare()
            : 0.0;

    // ---- plan: validate, derive overlays, dedupe routing states ----
    std::vector<ScenarioJob> jobs;
    std::vector<std::optional<core::Substrate>> overlays;
    std::vector<OracleJob> oracles;
    {
        const obs::Span planSpan = obs::Trace::enter(trace, "plan");
        std::vector<std::size_t> overlaySlots;
        for (std::size_t i = 0; i < n; ++i) {
            if (auto valid = scenarios[i].validate(*substrate_); !valid) {
                slots[i].emplace(valid.error());
            } else if (scenarios[i].hasOverlay()) {
                overlaySlots.push_back(i);
            }
        }
        // Each overlay re-derives its layers, borrowing the substrate's
        // baseline oracle, so deriving one builds no routing state and
        // never reaches the pool from inside a lane.
        overlays.resize(overlaySlots.size());
        {
            const obs::Span overlaySpan = obs::Trace::enter(trace, "overlay");
            forEach(pool, overlays.size(), [&](std::size_t k) {
                overlays[k].emplace(
                    substrate_->withOverlay(scenarios[overlaySlots[k]]));
            }, options_.cancel);
        }
        result.stats.overlayScenarios = overlays.size();

        // An overlay never changes the AS graph, so a degraded routing
        // state depends only on its filter: plain and overlay scenarios
        // share one dedupe table (and the substrate's cache).
        std::unordered_map<route::FilterDigest, std::size_t,
                           route::FilterDigestHash>
            oracleByDigest;
        std::size_t nextOverlay = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (slots[i].has_value()) {
                continue; // failed validation
            }
            ScenarioJob job;
            job.slot = i;
            job.substrate = scenarios[i].hasOverlay()
                                ? &*overlays[nextOverlay++]
                                : substrate_;
            auto request = job.substrate->routingRequest(scenarios[i]);
            if (!request) {
                slots[i].emplace(request.error());
                continue;
            }
            job.event = std::move(request.value().event);
            job.rng = request.value().rng;
            route::LinkFilter& filter = request.value().filter;
            if (incremental) {
                const route::FilterDigest digest = filter.digest();
                if (const auto it = oracleByDigest.find(digest);
                    it != oracleByDigest.end()) {
                    job.oracleIndex = it->second;
                    ++result.stats.dedupHits;
                } else {
                    job.oracleIndex = oracles.size();
                    oracleByDigest.emplace(digest, oracles.size());
                    oracles.emplace_back().filter = std::move(filter);
                }
            } else {
                // Full reference mode: one build per scenario, no sharing.
                job.oracleIndex = oracles.size();
                oracles.emplace_back().filter = std::move(filter);
            }
            jobs.push_back(std::move(job));
        }
    }

    // ---- build: resolve each unique degraded routing state ----
    {
        checkpoint();
        const obs::Span buildSpan = obs::Trace::enter(trace, "build");
        if (cache != nullptr && incremental) {
            // Cache lookups stay on the coordinating thread: a peek never
            // builds, so this is cheap, and it keeps lane work lock-free.
            for (OracleJob& job : oracles) {
                if (auto hit = cache->peek(job.filter)) {
                    job.oracle = std::move(hit);
                    job.fromCache = true;
                    ++result.stats.dedupHits;
                }
            }
        }
        const std::shared_ptr<const route::RouteOracle>& baseline =
            substrate_->analyzer().baselineOracle();
        forEach(pool, oracles.size(), [&](std::size_t j) {
            OracleJob& job = oracles[j];
            if (job.oracle != nullptr) {
                return;
            }
            const obs::ScopedTimer buildTimer{metrics,
                                              "sweep.build_seconds"};
            if (incremental) {
                // Storage-policy neutral incremental rebuild: dense
                // re-solves its dirty set eagerly here; sharded defers
                // per-row work to the scoring queries. pool=nullptr —
                // this may already be inside a pool lane, and
                // parallelFor is not reentrant.
                job.oracle = baseline->deriveFiltered(job.filter, nullptr);
            } else {
                job.oracle = route::buildOracle(
                    substrate_->topology(),
                    substrate_->impactConfig().routeStorage, job.filter,
                    nullptr,
                    substrate_->impactConfig().shardedRouting);
            }
        }, options_.cancel);
        for (const OracleJob& job : oracles) {
            if (job.fromCache) {
                continue;
            }
            if (incremental) {
                ++result.stats.incrementalBuilds;
            } else {
                ++result.stats.fullBuilds;
            }
        }
        if (cache != nullptr && incremental) {
            for (const OracleJob& job : oracles) {
                if (!job.fromCache) {
                    cache->seed(job.filter, job.oracle);
                }
            }
        }
    }

    // ---- aggregates: one detour study per unique routing state ----
    if (options_.scenarioAggregates) {
        checkpoint();
        const obs::Span aggSpan = obs::Trace::enter(trace, "aggregates");
        forEach(pool, oracles.size(), [&](std::size_t j) {
            OracleJob& job = oracles[j];
            const core::ConnectivityStudies studies{substrate_->topology(),
                                                    *job.oracle};
            // Fixed stream per routing state: the share depends only on
            // the substrate and the oracle's filter, never on batch
            // order, thread count or cache temperature.
            net::Rng rng{substrate_->seed() + 11};
            job.detourShare =
                studies.detourStudy(kDetourSamplePairs, rng)
                    .overallDetourShare;
        }, options_.cancel);
    }

    // ---- score: assess every scenario against its oracle ----
    {
        checkpoint();
        const obs::Span scoreSpan = obs::Trace::enter(trace, "score");
        forEach(pool, jobs.size(), [&](std::size_t k) {
            const obs::ScopedTimer scenarioTimer{
                metrics, "sweep.scenario_seconds"};
            const ScenarioJob& job = jobs[k];
            // The job's stream was advanced through filterFor at plan
            // time exactly as assess() advances its own; scoring from a
            // lane-local copy continues it where assess() would.
            net::Rng rng = job.rng;
            const OracleJob& oracle = oracles[job.oracleIndex];
            slots[job.slot].emplace(
                job.substrate->analyzer().assessWithOracle(
                    job.event, *oracle.oracle, rng));
            if (options_.scenarioAggregates) {
                // An overlay may override the content config, so it
                // scores its own catalog's locality.
                const double localShare =
                    job.substrate == substrate_
                        ? baselineLocalShare
                        : content::LocalityAnalyzer{job.substrate->catalog()}
                              .overallLocalShare();
                const outage::ImpactReport& report = slots[job.slot]->value();
                aggSlots[job.slot].emplace(ScenarioAggregates{
                    meanCountryLoss(report), report.resolutionDays(),
                    oracle.detourShare, localShare});
            }
        }, options_.cancel);
        if (!jobs.empty()) {
            obs::Trace::count(trace, "scenario", jobs.size());
        }
    }

    // Dirty-destination accounting happens *after* scoring: a dense
    // incremental oracle resolved its whole dirty set at build time, but
    // a sharded one resolves rows lazily as scoring queries touch them —
    // reading the counter here reports what the batch actually paid.
    if (incremental) {
        for (const OracleJob& job : oracles) {
            if (!job.fromCache) {
                result.stats.dirtyDestinations +=
                    job.oracle->resolvedDirtyDestinations();
            }
        }
    }

    // ---- assemble + publish ----
    result.scenarios.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!slots[i]->hasValue()) {
            ++result.stats.errors;
        }
        result.scenarios.push_back(ScenarioResult{scenarios[i].name,
                                                  std::move(*slots[i]),
                                                  std::move(aggSlots[i])});
    }
    result.stats.elapsedSeconds =
        static_cast<double>(clock.nowNanos() - startedAt) * 1e-9;
    metrics.add("sweep.scenarios", result.stats.scenarios);
    metrics.add("sweep.errors", result.stats.errors);
    metrics.add("sweep.dedup_hits", result.stats.dedupHits);
    metrics.add("sweep.incremental_builds", result.stats.incrementalBuilds);
    metrics.add("sweep.full_builds", result.stats.fullBuilds);
    metrics.add("sweep.dirty_destinations", result.stats.dirtyDestinations);
    metrics.add("sweep.overlay_scenarios", result.stats.overlayScenarios);
    metrics.set("sweep.scenarios_per_sec", result.stats.scenariosPerSec());
    return result;
}

std::vector<core::ScenarioSpec> ScenarioBatch::specs() const {
    std::vector<core::ScenarioSpec> out;
    out.reserve(entries.size());
    for (const WeightedSpec& entry : entries) {
        out.push_back(entry.spec);
    }
    return out;
}

std::vector<double> ScenarioBatch::weights() const {
    std::vector<double> out;
    out.reserve(entries.size());
    for (const WeightedSpec& entry : entries) {
        out.push_back(entry.weight);
    }
    return out;
}

BatchSweepResult
ScenarioSweepEngine::runBatch(const ScenarioBatch& batch) const {
    BatchSweepResult out{run(batch.specs()), {}};
    out.aggregate = aggregate(out.sweep, batch.weights());
    const obs::Metrics metrics = substrate_->metrics();
    metrics.set("sweep.weighted_page_load_loss",
                out.aggregate.meanPageLoadLoss);
    metrics.set("sweep.weighted_resolution_days",
                out.aggregate.meanResolutionDays);
    return out;
}

WeightedAggregate
ScenarioSweepEngine::aggregate(const SweepResult& result,
                               std::span<const double> weights) {
    AIO_EXPECTS(weights.size() == result.scenarios.size(),
                "weights must be 1:1 with scenarios");
    WeightedAggregate agg;
    for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
        const ScenarioResult& scenario = result.scenarios[i];
        if (!scenario.outcome.hasValue()) {
            ++agg.errors;
            continue;
        }
        const double weight = weights[i];
        AIO_EXPECTS(std::isfinite(weight) && weight > 0.0,
                    "scenario weights must be finite and positive");
        agg.totalWeight += weight;
        ++agg.scored;
        const outage::ImpactReport& report = scenario.outcome.value();
        agg.meanPageLoadLoss += weight * meanCountryLoss(report);
        agg.meanResolutionDays += weight * report.resolutionDays();
        agg.meanImpactedCountries +=
            weight * static_cast<double>(report.impactedCountries().size());
        if (scenario.aggregates.has_value()) {
            agg.meanDetourShare += weight * scenario.aggregates->detourShare;
            agg.meanContentLocalShare +=
                weight * scenario.aggregates->contentLocalShare;
        }
    }
    if (agg.totalWeight > 0.0) {
        agg.meanPageLoadLoss /= agg.totalWeight;
        agg.meanResolutionDays /= agg.totalWeight;
        agg.meanImpactedCountries /= agg.totalWeight;
        agg.meanDetourShare /= agg.totalWeight;
        agg.meanContentLocalShare /= agg.totalWeight;
    }
    return agg;
}

} // namespace aio::sweep
