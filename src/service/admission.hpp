#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/budget.hpp"
#include "core/probe.hpp"
#include "obs/metrics.hpp"
#include "service/request.hpp"

namespace aio::service {

class WorkloadRegistry;

/// One tenant's contract with the service: how its bytes are billed
/// (same PricingModel family the probe scheduler uses, bundles and all)
/// and how much it may spend.
struct TenantQuota {
    std::string tenant;
    core::PricingModel pricing;
    double budgetUsd = 10.0;
};

struct AdmissionConfig {
    /// Bounded queue: submissions past this are rejected QueueFull.
    std::size_t queueCapacity = 64;
    /// Queue-depth watermark at which heavy workloads (WorkloadInfo::heavy)
    /// shed with Overloaded while light ones still board. Must not exceed
    /// queueCapacity.
    std::size_t shedQueueDepth = 48;
    /// Resident-byte watermark: above it heavy workloads shed with
    /// MemoryPressure (the ladder also shrinks cache budgets — that part
    /// is the service's, not the controller's). 0 disables.
    std::uint64_t shedResidentBytes = 0;
    /// Retry-after hint attached to load-shed rejections.
    std::uint64_t retryAfterNanos = 1'000'000'000;
    /// Default billable megabytes per builtin workload when the request
    /// leaves costMb zero. Sweeps bill per scenario. These seed the
    /// WorkloadRegistry's builtin attributes — cost resolution itself
    /// lives on the registry (WorkloadInfo::defaultCostMb), the single
    /// source admission billing and the charge ledger both read.
    double queryCostMb = 0.01;
    double whatIfCostMb = 0.5;
    double sweepCostMbPerScenario = 0.5;
    double estimateCostMb = 0.05;
    double planCostMb = 2.0;

    /// Throws net::PreconditionError when the queue is zero-capacity,
    /// the shed watermark is zero or above capacity, the retry hint is
    /// zero, or any default cost is negative/non-finite.
    void validate() const;
};

/// What the controller decided for one submission. On admission,
/// `chargedUsd` is what the tenant's meter was billed (budget metering
/// happens at admission so a shed request never costs anything).
struct AdmissionDecision {
    bool admitted = false;
    RejectReason reason = RejectReason::None;
    std::uint64_t retryAfterNanos = 0;
    double chargedUsd = 0.0;
};

/// Admission control for the resident service: bounded-queue capacity,
/// load-shed watermarks (queue depth + resident bytes), per-tenant
/// budget metering through TariffMeter, and deadline pre-flight. Pure
/// decision logic over caller-supplied load facts — single-threaded by
/// design; the service serializes calls under its own queue lock. Which
/// workloads exist, which are heavy and what they cost by default is the
/// bound WorkloadRegistry's to say; a controller decides nothing until
/// one is bound.
class AdmissionController {
public:
    /// `metrics` (optional, not owned) receives `service.admitted` and
    /// `service.rejected.<reason>` counters.
    explicit AdmissionController(AdmissionConfig config,
                                 obs::MetricsRegistry* metrics = nullptr);

    /// Registers (or replaces) a tenant. Validates the quota's pricing.
    void registerTenant(const TenantQuota& quota);
    [[nodiscard]] bool knowsTenant(std::string_view tenant) const;

    /// Binds the workload registry (not owned, must outlive the
    /// controller) that decides heaviness, deadline policy and default
    /// costs by name. Required before decide() or costMbFor().
    void bindRegistry(const WorkloadRegistry* registry) {
        registry_ = registry;
    }

    /// Decides one submission given the current load facts. Admission
    /// bills the request's megabytes against the tenant's meter; a
    /// workload name the registry does not know is UnknownWorkload.
    /// Throws net::PreconditionError when no registry is bound.
    [[nodiscard]] AdmissionDecision
    decide(const ServiceRequest& request, std::uint64_t nowNanos,
           std::size_t queueDepth, std::uint64_t residentBytes);

    /// Billable megabytes for `request`: delegates to the bound
    /// registry's per-workload attributes (the resolution the ledger
    /// records too — one seam, so estimate and billing cannot
    /// disagree). Throws net::PreconditionError when no registry is
    /// bound.
    [[nodiscard]] double costMbFor(const ServiceRequest& request) const;

    [[nodiscard]] double spentUsd(std::string_view tenant) const;
    [[nodiscard]] double budgetUsd(std::string_view tenant) const;

    /// Overwrites one tenant's meter consumption from a ledger replay
    /// (resume path). The tenant must already be registered.
    void restoreConsumption(std::string_view tenant, double peakMb,
                            double offPeakMb);

    [[nodiscard]] const AdmissionConfig& config() const { return config_; }

private:
    struct Tenant {
        TenantQuota quota;
        core::TariffMeter meter;

        /// The meter aliases this Tenant's own quota.pricing, so the
        /// pair is constructed in place (map nodes are stable) and can
        /// never be copied or moved.
        explicit Tenant(TenantQuota q)
            : quota(std::move(q)), meter(quota.pricing) {}
        Tenant(const Tenant&) = delete;
        Tenant& operator=(const Tenant&) = delete;
    };

    [[nodiscard]] AdmissionDecision reject(RejectReason reason);

    AdmissionConfig config_;
    obs::Metrics metrics_;
    const WorkloadRegistry* registry_ = nullptr;
    /// std::map: deterministic iteration for tests and digests.
    std::map<std::string, Tenant, std::less<>> tenants_;
};

} // namespace aio::service
