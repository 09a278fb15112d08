#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exec/cancel.hpp"
#include "service/admission.hpp"
#include "service/request.hpp"
#include "service/snapshot.hpp"

namespace aio::service {

/// When a workload insists on a deadline. Required workloads (plan) are
/// rejected DeadlineUnmeetable at admission when the request carries
/// none — an unbounded campaign execution is never admitted by accident.
enum class DeadlinePolicy : std::uint8_t {
    Optional, ///< deadline honoured when present, not demanded
    Required  ///< requests without a deadline are rejected
};

[[nodiscard]] std::string_view deadlinePolicyName(DeadlinePolicy policy);

/// Admission-relevant attributes of one named workload: the degradation
/// ladder sheds on `heavy`, and `defaultCostMb` is THE single source of
/// the costMb == 0 default — admission bills through it and the ledger
/// records the same resolution, so estimate and billing cannot disagree.
struct WorkloadInfo {
    std::string name;
    /// Shed at the queue-depth / resident-byte watermarks.
    bool heavy = true;
    /// Billable megabytes when the request leaves costMb zero.
    double defaultCostMb = 0.0;
    /// Multiply defaultCostMb by the request's scenario count (the sweep
    /// billing shape).
    bool perScenario = false;
    DeadlinePolicy deadline = DeadlinePolicy::Optional;
};

/// What a handler gets to answer one admitted request: the pinned
/// immutable epoch snapshot and the request's deadline as a cancel
/// token. Handlers run outside the service lock, concurrently.
struct WorkloadContext {
    const ServiceSnapshot* snapshot = nullptr;
    const exec::CancelToken* cancel = nullptr;
};

/// Fills `response` payload fields for one request. Status fields
/// (status/seq/epoch/...) are the service's; typed AioErrors thrown here
/// resolve the request as Failed (CancelledError as Cancelled).
using WorkloadHandler = std::function<void(
    const WorkloadContext&, const ServiceRequest&, ServiceResponse&)>;

/// Named-workload dispatch table: the service API's one dispatch path
/// and its extension point. The builtins (query, whatif, sweep,
/// estimate, plan) are plain registrations like any tenant workload.
/// Immutable once the service starts serving, so handlers read it
/// lock-free.
class WorkloadRegistry {
public:
    /// Registers (or replaces) one workload. Throws net::PreconditionError
    /// on an empty name, a null handler, or a negative/non-finite cost.
    void add(WorkloadInfo info, WorkloadHandler handler);

    /// The builtin table: query (light), whatif/sweep (heavy, sweep
    /// billed per scenario), estimate (light, compiles a plan), plan
    /// (heavy, deadline Required, compiles and executes a campaign).
    /// Default costs come from `config`.
    [[nodiscard]] static WorkloadRegistry
    builtins(const AdmissionConfig& config);

    /// nullptr when unknown — admission turns that into UnknownWorkload.
    [[nodiscard]] const WorkloadInfo* find(std::string_view name) const;

    /// Throws net::NotFoundError when unknown.
    [[nodiscard]] const WorkloadHandler&
    handler(std::string_view name) const;

    /// Billable megabytes for `request`: its explicit costMb when
    /// positive, else the workload's default (per scenario when the
    /// attribute says so). Throws net::NotFoundError on an unknown
    /// workload name.
    [[nodiscard]] double resolveCostMb(const ServiceRequest& request) const;

    [[nodiscard]] std::vector<std::string> names() const;
    [[nodiscard]] std::size_t size() const { return entries_.size(); }

private:
    struct Entry {
        WorkloadInfo info;
        WorkloadHandler handler;
    };

    /// std::map: deterministic names() order for tests and digests.
    std::map<std::string, Entry, std::less<>> entries_;
};

} // namespace aio::service
