#include "service/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "netbase/error.hpp"
#include "obs/clock.hpp"
#include "persist/bytes.hpp"
#include "persist/record.hpp"
#include "service/ledger.hpp"
#include "service/service.hpp"
#include "service_test_util.hpp"

// The named-workload registry behind the service API: dispatch is by
// name only (a fixed request sequence pins the ledger journal and the
// responses), cost defaults live on the workload attribute so the
// admission estimate and the billed charge share one seam, and the
// plan/estimate workloads ride the same admission ladder as the other
// builtins.
namespace aio::service {
namespace {

using testutil::cableCuts;
using testutil::queryRequest;
using testutil::quotaFor;
using testutil::sweepRequest;
using testutil::tinySnapshot;

constexpr const char* kQuestionText = "question frontdoor demo\n"
                                      "kind content-locality\n"
                                      "top-sites 10\n"
                                      "budget-usd 40\n"
                                      "end\n";

ServiceRequest namedRequest(std::string workload, std::string tenant) {
    ServiceRequest request;
    request.workload = std::move(workload);
    request.tenant = std::move(tenant);
    return request;
}

TEST(WorkloadRegistry, BuiltinsCarryTheirAttributes) {
    const AdmissionConfig config;
    const WorkloadRegistry registry = WorkloadRegistry::builtins(config);
    ASSERT_EQ(registry.size(), 5u);

    const WorkloadInfo* query = registry.find("query");
    ASSERT_NE(query, nullptr);
    EXPECT_FALSE(query->heavy);
    EXPECT_EQ(query->defaultCostMb, config.queryCostMb);
    EXPECT_EQ(query->deadline, DeadlinePolicy::Optional);

    const WorkloadInfo* sweep = registry.find("sweep");
    ASSERT_NE(sweep, nullptr);
    EXPECT_TRUE(sweep->heavy);
    EXPECT_TRUE(sweep->perScenario);

    const WorkloadInfo* plan = registry.find("plan");
    ASSERT_NE(plan, nullptr);
    EXPECT_TRUE(plan->heavy);
    EXPECT_EQ(plan->deadline, DeadlinePolicy::Required);

    EXPECT_EQ(registry.find("nonsense"), nullptr);
    EXPECT_THROW((void)registry.handler("nonsense"), net::NotFoundError);

    // Cost resolution: explicit costMb wins; otherwise the attribute,
    // scaled per scenario for batch workloads.
    ServiceRequest request = namedRequest("sweep", "acme");
    request.scenarios = cableCuts({"WACS"});
    EXPECT_DOUBLE_EQ(registry.resolveCostMb(request),
                     config.sweepCostMbPerScenario);
    request.scenarios = cableCuts({"WACS", "SAT-3"});
    EXPECT_DOUBLE_EQ(registry.resolveCostMb(request),
                     2.0 * config.sweepCostMbPerScenario);
    request.costMb = 9.5;
    EXPECT_DOUBLE_EQ(registry.resolveCostMb(request), 9.5);
}

TEST(ObservatoryService, FixedWorkloadSequenceJournalIsPinned) {
    // One request per builtin workload, in step mode on a manual clock:
    // the write-ahead ledger bytes and the response payloads are pinned
    // as checked-in digests, so a dispatch or billing change that moves
    // them cannot pass unnoticed.
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    persist::MemorySink journal;
    ObservatoryService service{snapshot, {}, &clock, nullptr, &journal};
    service.registerTenant(quotaFor("acme"));

    std::vector<ServiceRequest> requests;
    requests.push_back(namedRequest("query", "acme"));
    requests.back().src = 0;
    requests.back().dst = 1;
    requests.push_back(namedRequest("whatif", "acme"));
    requests.back().scenarios = cableCuts({"WACS"});
    requests.push_back(namedRequest("sweep", "acme"));
    requests.back().scenarios = cableCuts({"WACS", "SAT-3"});
    requests.push_back(namedRequest("estimate", "acme"));
    requests.back().questionText = kQuestionText;
    requests.push_back(namedRequest("plan", "acme"));
    requests.back().questionText = kQuestionText;
    requests.back().deadlineNanos = clock.nowNanos() + 60'000'000'000ULL;

    persist::ByteWriter payloads;
    for (const ServiceRequest& request : requests) {
        auto future = service.submit(request);
        ASSERT_EQ(service.drain(), 1u);
        const ServiceResponse response = future.get();
        ASSERT_EQ(response.status, ResponseStatus::Ok)
            << request.workload << ": " << response.error;
        payloads.u64(response.seq);
        payloads.f64(response.chargedUsd);
        payloads.i32(response.nextHop);
        payloads.boolean(response.reachable);
        if (response.sweep) {
            for (const sweep::ScenarioResult& scenario :
                 response.sweep->scenarios) {
                payloads.str(scenario.scenario);
                for (const outage::CountryImpact& impact :
                     scenario.outcome.value().countries) {
                    payloads.str(impact.country);
                    payloads.f64(impact.pageLoadLoss);
                    payloads.f64(impact.dnsFailureShare);
                    payloads.f64(impact.effectiveOutageDays);
                }
            }
        }
        if (response.plan) {
            payloads.u64(response.plan->digest());
        }
        if (response.report) {
            payloads.f64(response.report->actualWireMb);
            payloads.f64(response.report->answer.overall);
        }
    }
    EXPECT_EQ(persist::fnv1a64(journal.bytes()), 0xeca13524dfc59024ULL);
    EXPECT_EQ(persist::fnv1a64(payloads.bytes()), 0x588ca0b7952bc199ULL);
}

TEST(ObservatoryService, EstimateAndBillingShareTheWorkloadCostSeam) {
    const ServiceConfig config;
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    persist::MemorySink journal;
    ObservatoryService service{snapshot, config, &clock, nullptr,
                               &journal};
    service.registerTenant(quotaFor("acme"));

    // costMb deliberately left 0: resolution happens on the registry
    // attribute, so the pre-admission estimate and the billed charge
    // cannot disagree.
    ServiceRequest estimate = namedRequest("estimate", "acme");
    estimate.questionText = kQuestionText;
    EXPECT_DOUBLE_EQ(service.admission().costMbFor(estimate),
                     config.admission.estimateCostMb);

    ServiceRequest planned = namedRequest("plan", "acme");
    planned.questionText = kQuestionText;
    planned.deadlineNanos = clock.nowNanos() + 60'000'000'000ULL;
    EXPECT_DOUBLE_EQ(service.admission().costMbFor(planned),
                     config.admission.planCostMb);

    auto estimateFuture = service.submit(estimate);
    auto planFuture = service.submit(planned);
    ASSERT_EQ(service.drain(), 2u);
    ASSERT_EQ(estimateFuture.get().status, ResponseStatus::Ok);
    ASSERT_EQ(planFuture.get().status, ResponseStatus::Ok);

    const auto replayed = TenantLedger::replay(journal.bytes());
    const auto it = replayed.tenants.find("acme");
    ASSERT_NE(it, replayed.tenants.end());
    EXPECT_EQ(it->second.charges, 2u);
    EXPECT_DOUBLE_EQ(it->second.peakMb + it->second.offPeakMb,
                     config.admission.estimateCostMb +
                         config.admission.planCostMb);
}

TEST(ObservatoryService, UnknownWorkloadIsATypedReject) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    auto future = service.submit(namedRequest("nonsense", "acme"));
    const ServiceResponse response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::Rejected);
    EXPECT_EQ(response.reject, RejectReason::UnknownWorkload);
    EXPECT_EQ(service.drain(), 0u);
    // A typed reject is free: nothing was admitted, nothing billed.
    EXPECT_DOUBLE_EQ(service.admission().spentUsd("acme"), 0.0);
}

TEST(ObservatoryService, EmptyWorkloadNameIsAnUnknownWorkloadReject) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    ServiceRequest unnamed = queryRequest("acme", 0, 1);
    unnamed.workload.clear();
    const ServiceResponse response = service.submit(unnamed).get();
    EXPECT_EQ(response.status, ResponseStatus::Rejected);
    EXPECT_EQ(response.reject, RejectReason::UnknownWorkload);
    EXPECT_EQ(service.drain(), 0u);
    EXPECT_DOUBLE_EQ(service.admission().spentUsd("acme"), 0.0);
}

TEST(ObservatoryService, OutOfRangeQueryEndpointsFailTyped) {
    // Tenant-supplied AS indices reach the route oracle's matrix; an
    // index past the topology must fail the request with the oracle's
    // typed precondition message on either storage policy, never read
    // out of bounds.
    SnapshotConfig sharded;
    sharded.impact.routeStorage = route::StoragePolicy::Sharded;
    const std::shared_ptr<const ServiceSnapshot> snapshots[] = {
        tinySnapshot(31), tinySnapshot(31, sharded)};
    for (const auto& snapshot : snapshots) {
        obs::ManualClock clock;
        ObservatoryService service{snapshot, {}, &clock};
        service.registerTenant(quotaFor("acme"));
        const auto outside =
            static_cast<topo::AsIndex>(snapshot->topology().asCount() + 5);
        const ServiceRequest requests[] = {
            queryRequest("acme", outside, 0),
            queryRequest("acme", 0, outside)};
        for (const ServiceRequest& request : requests) {
            auto future = service.submit(request);
            ASSERT_EQ(service.drain(), 1u);
            const ServiceResponse response = future.get();
            EXPECT_EQ(response.status, ResponseStatus::Failed)
                << "src=" << request.src << " dst=" << request.dst;
            EXPECT_NE(response.error.find("AS index OOB"), std::string::npos)
                << response.error;
        }
    }
}

TEST(ObservatoryService, PlanWorkloadEnforcesItsDeadlinePolicy) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    ServiceRequest bare = namedRequest("plan", "acme");
    bare.questionText = kQuestionText;
    auto rejected = service.submit(bare);
    EXPECT_EQ(rejected.get().reject, RejectReason::DeadlineUnmeetable);

    ServiceRequest withDeadline = bare;
    withDeadline.deadlineNanos = clock.nowNanos() + 60'000'000'000ULL;
    auto future = service.submit(withDeadline);
    ASSERT_EQ(service.drain(), 1u);
    const ServiceResponse response = future.get();
    ASSERT_EQ(response.status, ResponseStatus::Ok) << response.error;
    ASSERT_TRUE(response.plan.has_value());
    ASSERT_TRUE(response.report.has_value());
    EXPECT_FALSE(response.plan->tasks.empty());
    EXPECT_TRUE(response.report->withinBound);
    EXPECT_FALSE(response.report->answer.rows.empty());

    // A malformed question is an execution failure with the typed
    // line/field parse message, not a crash and not a reject.
    ServiceRequest garbled = withDeadline;
    garbled.questionText = "question q\ntop-sites ten\nend\n";
    auto failed = service.submit(garbled);
    ASSERT_EQ(service.drain(), 1u);
    const ServiceResponse failure = failed.get();
    EXPECT_EQ(failure.status, ResponseStatus::Failed);
    EXPECT_NE(failure.error.find("line 2"), std::string::npos)
        << failure.error;
}

TEST(ObservatoryService, CustomWorkloadsRegisterBeforeFirstSubmission) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    service.registerWorkload(
        {.name = "echo", .heavy = false, .defaultCostMb = 0.01},
        [](const WorkloadContext&, const ServiceRequest&,
           ServiceResponse& response) { response.nextHop = 42; });
    EXPECT_NE(service.workloads().find("echo"), nullptr);

    auto future = service.submit(namedRequest("echo", "acme"));
    ASSERT_EQ(service.drain(), 1u);
    const ServiceResponse response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.nextHop, 42);
    EXPECT_GT(response.chargedUsd, 0.0);

    // Registration is a configuration-time act: after the first
    // submission the dispatch table is frozen.
    EXPECT_THROW(service.registerWorkload({.name = "late",
                                           .defaultCostMb = 0.01},
                                          [](const WorkloadContext&,
                                             const ServiceRequest&,
                                             ServiceResponse&) {}),
                 net::PreconditionError);
}

} // namespace
} // namespace aio::service
