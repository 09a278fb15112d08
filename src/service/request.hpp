#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/substrate.hpp"
#include "exec/cancel.hpp"
#include "plan/planner.hpp"
#include "routing/route_oracle.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/as_graph.hpp"

namespace aio::service {

/// One tenant request. `seq` is assigned by the service at submission
/// (the ledger's idempotency key); callers leave it zero.
struct ServiceRequest {
    std::string tenant;
    /// Named workload to dispatch to ("query", "whatif", "sweep",
    /// "estimate", "plan" or a registered one). A name the service's
    /// WorkloadRegistry does not know, the empty name included, is
    /// rejected UnknownWorkload at admission.
    std::string workload;

    /// Query payload: baseline route lookup endpoints.
    topo::AsIndex src = 0;
    topo::AsIndex dst = 0;

    /// whatif (one entry) / sweep (batch) payload.
    std::vector<core::ScenarioSpec> scenarios;

    /// plan/estimate payload: a textual MeasurementQuestion in the
    /// plan/textio format. Parse errors resolve the request as Failed
    /// with the typed line/field message.
    std::string questionText;

    /// Absolute deadline on the service clock;
    /// exec::kNoDeadlineNanos = none. Propagated into the execution
    /// engines as a CancelToken — an admitted request either completes
    /// before it or returns a typed cancellation.
    std::uint64_t deadlineNanos = exec::kNoDeadlineNanos;

    /// Billable megabytes this request meters against the tenant's
    /// budget (through the same TariffMeter/PricingModel the probe
    /// scheduler bills with). 0 = use the workload's default
    /// (WorkloadInfo::defaultCostMb).
    double costMb = 0.0;

    std::uint64_t seq = 0; ///< service-assigned, not caller-set
};

/// Why an admission was refused. Typed so callers can program against
/// the distinction (retry later vs shrink the request vs give up).
enum class RejectReason : std::uint8_t {
    None,
    QueueFull,        ///< bounded queue at capacity; retry after backoff
    Overloaded,       ///< heavy workloads shed at the depth watermark
    MemoryPressure,   ///< resident bytes above the shed watermark
    BudgetExhausted,  ///< tenant's budget cannot pay for this request
    DeadlineUnmeetable, ///< deadline at or before the service clock now
    UnknownTenant,    ///< tenant was never registered
    ShuttingDown,     ///< service is draining; nothing new is admitted
    UnknownWorkload   ///< no registered workload answers to this name
};

[[nodiscard]] std::string_view rejectReasonName(RejectReason reason);

/// The `service.rejected.<reason>` counter admission bumps for `reason`.
[[nodiscard]] std::string_view rejectedCounterName(RejectReason reason);

enum class ResponseStatus : std::uint8_t {
    Ok,
    Rejected,  ///< never admitted; see reject/retryAfterNanos
    Cancelled, ///< admitted but deadline/cancel fired mid-execution
    Failed     ///< admitted but the engine raised a non-cancel error
};

[[nodiscard]] std::string_view responseStatusName(ResponseStatus status);

/// What the service hands back for one request. Every response names the
/// epoch it was served from and whether the service was degraded (still
/// serving a stale epoch after a failed swap) at execution time.
struct ServiceResponse {
    ResponseStatus status = ResponseStatus::Ok;
    RejectReason reject = RejectReason::None;
    /// Hint for rejected requests: earliest service-clock nanos at which
    /// resubmission is worth trying. 0 when not rejected.
    std::uint64_t retryAfterNanos = 0;

    std::uint64_t seq = 0;
    std::uint64_t epoch = 0;   ///< snapshot epoch this answer came from
    bool degraded = false;     ///< stale-epoch service after a failed swap
    /// Baseline route-matrix digest of the serving snapshot (zeroes when
    /// the snapshot skipped digest computation) — the torn-read check:
    /// two responses from one epoch must carry identical digests.
    route::RouteMatrixDigest digest;

    /// Query payload: next hop (-1 unreachable) and reachability.
    std::int32_t nextHop = -1;
    bool reachable = false;

    /// WhatIf/Sweep payload.
    std::optional<sweep::SweepResult> sweep;

    /// Estimate payload: the compiled plan with its pre-execution
    /// cost/coverage estimate. Plan requests carry it too.
    std::optional<plan::CampaignPlan> plan;
    /// Plan payload: the executed campaign — answer rows, actual billed
    /// wire cost, and the estimate-vs-actual verdict.
    std::optional<plan::CampaignReport> report;

    double chargedUsd = 0.0; ///< what admission billed the tenant
    std::string error;       ///< Failed: the engine's message
};

} // namespace aio::service
