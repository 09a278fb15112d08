#pragma once

#include <cstddef>
#include <span>

#include "core/observatory.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "persist/journal.hpp"
#include "resilience/fault.hpp"
#include "routing/oracle_cache.hpp"

namespace aio::resilience {

/// Bounded retry with exponential backoff + jitter. With `enabled` false
/// every task gets exactly one attempt — the "pretend the fleet is
/// static" baseline the ablation bench contrasts against.
struct RetryPolicy {
    bool enabled = true;
    /// Attempts per task per probe, including the first (so 4 = up to 3
    /// retries).
    int maxAttempts = 4;
    double baseBackoffHours = 0.5;
    double backoffMultiplier = 2.0;
    /// Backoff is scaled by a factor uniform in [1-j, 1+j] so a fleet's
    /// retries don't thunder back in lockstep after a shared outage.
    double jitterFraction = 0.25;
    /// Ceiling on the *pre-jitter* exponential term. At high attempt
    /// counts pow(multiplier, attempts) overflows double to inf, which
    /// would poison every downstream consumer of the launch hour (f64
    /// journal fields, u64 nanosecond deadline conversions). Clamping
    /// before jitter keeps retries spread at the cap instead of
    /// collapsing onto one instant. Default 30 days — far beyond any
    /// campaign horizon, so existing schedules are byte-identical.
    double maxBackoffHours = 720.0;

    [[nodiscard]] int attemptBudget() const {
        return enabled ? maxAttempts : 1;
    }
};

struct SupervisorConfig {
    RetryPolicy retry;
    /// Move a task to a sibling probe in the same country when its probe
    /// is permanently gone (dead or bundle-dry).
    bool reassignOnFailure = true;
    /// How often one probe launches consecutive tasks; probes work their
    /// queues in parallel, so campaign time per probe is tasks * spacing.
    double taskSpacingHours = 0.05;
    /// Wire megabytes billed per traceroute attempt that actually sends
    /// packets (probe has power; transit-down attempts blast into the
    /// void but still bill).
    double taskMb = 0.12;
    /// Share of each probe's monthly budget available to this campaign.
    double budgetFraction = 1.0;
    /// Reassignment hops allowed per task before abandoning it.
    int maxReassignments = 2;
    /// Task settlements between journal checkpoints in runJournaled():
    /// smaller = less re-execution after a crash, larger = less journal
    /// I/O. Only consulted by the journaled entry points.
    int checkpointInterval = 16;
    /// Campaign-hour deadline budget: a retry whose backed-off launch
    /// would land at or past this horizon is abandoned instead of
    /// scheduled (it could never settle in time anyway). Defaults to
    /// kNeverEnds — no deadline — which leaves every existing schedule
    /// untouched. A zero-length budget is rejected by validate():
    /// "every task abandoned before its first retry" is always a
    /// misconfiguration, never a policy.
    double deadlineBudgetHours = kNeverEnds;

    /// Throws net::PreconditionError when any field is out of range
    /// (mirrors PricingModel::validate): maxAttempts < 1, non-positive
    /// backoff, shrinking multiplier, jitter outside [0,1), backoff cap
    /// below the base backoff, non-positive task spacing, negative task
    /// volume, budgetFraction outside (0,1], negative reassignment cap,
    /// checkpointInterval < 1, zero-length (or negative/NaN) deadline
    /// budget. Called by the CampaignSupervisor constructor so a bad
    /// config fails at build time, not hours into a campaign.
    void validate() const;
};

/// Executes a campaign plan through a FaultInjector: per-attempt timeout
/// classification, bounded retry with exponential backoff + jitter, and
/// same-country reassignment when a probe dies for good. Fills
/// CampaignResult::degradation so benches can quantify what the faults
/// cost. Deterministic: one (plan, fault plan, seed) triple always yields
/// the identical result, which is what makes campaigns replayable.
class CampaignSupervisor {
public:
    /// `metrics` and `trace` (both optional, not owned, must outlive the
    /// supervisor) wire the campaign loop into the observability layer.
    /// The registry receives degradation counters
    /// (`supervisor.attempts` / `.retries` / `.reassignments` /
    /// `.abandoned` / `.completed` / `.transient_timeouts` /
    /// `.settlements`), per-fault-class loss counters
    /// (`supervisor.loss.<class>`) and the `supervisor.backoff_hours`
    /// histogram; journals opened by the journaled entry points inherit
    /// the same registry. Settlement counters are published as deltas on
    /// the checkpoint cadence (and once at drain end), not per event —
    /// the settlement loop is too hot for per-bump publishing (see
    /// DESIGN.md §9 and bench_perf_micro's Observed rows). The trace
    /// gains per-phase spans (init / drain / checkpoint / finish) plus
    /// count-only attempt / settle.<kind> nodes aggregated per kind, so
    /// a 10k-task campaign stays a dozen nodes. Both are ignored when
    /// null — existing call sites are unaffected.
    explicit CampaignSupervisor(const core::Observatory& observatory,
                                SupervisorConfig config = {},
                                obs::MetricsRegistry* metrics = nullptr,
                                obs::Trace* trace = nullptr);

    /// Runs `tasks` under the injector's fault timeline.
    [[nodiscard]] core::CampaignResult
    run(std::span<const core::CampaignTask> tasks, FaultInjector& injector,
        net::Rng& rng) const;

    /// `run`, but with crash durability: write-ahead-logs a campaign
    /// header (plan/config digests, initial Rng state), one record per
    /// task settlement and a full checkpoint every
    /// `config().checkpointInterval` settlements into `sink`. A process
    /// that dies mid-campaign (any exception out of the sink, any kill)
    /// leaves a journal that `resumeFromJournal` continues to the exact
    /// result the uninterrupted run would have produced.
    [[nodiscard]] core::CampaignResult
    runJournaled(std::span<const core::CampaignTask> tasks,
                 FaultInjector& injector, net::Rng& rng,
                 persist::ByteSink& sink) const;

    /// Continues a crashed campaign from its journal bytes. `tasks` must
    /// be the same plan and `injector` a *freshly constructed* injector
    /// over the same fleet/fault plan/budget (header digests verify
    /// both; a mismatch throws net::PreconditionError). Torn journal
    /// tails are truncated (the expected power-cut signature); mid-stream
    /// damage throws net::CorruptionError. `rng` is overwritten with the
    /// journaled stream state. When `continuation` is non-null the
    /// resumed remainder is journaled there — starting with a checkpoint
    /// of the restored state, so a second crash resumes again. A
    /// continuation journal that lost that anchor checkpoint to a crash
    /// is refused (net::PreconditionError): recovery must fall back to
    /// the previous journal in the chain, which is still valid.
    [[nodiscard]] core::CampaignResult
    resumeFromJournal(std::span<const std::byte> journal,
                      std::span<const core::CampaignTask> tasks,
                      FaultInjector& injector, net::Rng& rng,
                      persist::ByteSink* continuation = nullptr) const;

    /// Convenience: plan the targeted IXP-discovery campaign (from the
    /// observatory's config), then run it under `plan`'s faults.
    [[nodiscard]] core::CampaignResult
    runIxpDiscovery(const FaultPlan& plan, net::Rng& rng) const;

    /// The same campaign with no faults at all — the oracle benches
    /// compare degraded runs against.
    [[nodiscard]] core::CampaignResult
    runFaultFreeOracle(net::Rng& rng) const;

    /// Pre-flight oracle-coverage accounting for a failure scenario: the
    /// share of planned tasks whose (probe host AS, target origin AS)
    /// pair is still routable under the scenario's degraded routing
    /// state. Sweeping many scenarios goes through `cache`, so repeated
    /// cut sets reuse one recomputed oracle instead of rebuilding per
    /// query. Returns 1.0 for an empty plan; tasks whose target address
    /// resolves to no origin AS count as unroutable.
    [[nodiscard]] double
    routableTaskShare(std::span<const core::CampaignTask> tasks,
                      const route::LinkFilter& scenario,
                      route::OracleCache& cache) const;

    [[nodiscard]] const SupervisorConfig& config() const { return config_; }
    [[nodiscard]] const core::Observatory& observatory() const {
        return *observatory_;
    }

private:
    const core::Observatory* observatory_;
    SupervisorConfig config_;
    obs::MetricsRegistry* metrics_ = nullptr;
    obs::Trace* trace_ = nullptr;
};

/// Fills `result.degradation.coverageVsOracle` with the share of the
/// oracle's detected IXPs the degraded run still found (1.0 when the
/// oracle found none).
void attachOracleCoverage(core::CampaignResult& result,
                          const core::CampaignResult& oracle);

} // namespace aio::resilience
