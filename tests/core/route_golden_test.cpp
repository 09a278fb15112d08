// Golden route matrices: the full next-hop and route-class matrices of
// both storage policies, digested through the query surface, against
// checked-in constants. Two topologies (the default world and the
// continental(1000) world the corridor_sweep benchmark runs on) times
// four failure filters (intact, a west-coast corridor cut, an AS-
// disabling NG power outage, a link-flapping KE routing incident). The
// differential harnesses only prove the policies agree with each other;
// this pin proves neither moved.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/substrate.hpp"
#include "netbase/rng.hpp"
#include "routing/path_oracle.hpp"
#include "routing/sharded_oracle.hpp"
#include "topo/generator.hpp"

namespace aio::core {
namespace {

struct PinnedFilter {
    const char* name;
    route::RouteMatrixDigest digest;
};

/// The four pinned failure filters, derived the way the impact analyzer
/// derives them (fixed rng so the sampled outages are reproducible).
std::vector<route::LinkFilter> pinnedFilters(const Substrate& substrate) {
    std::vector<route::LinkFilter> filters;
    filters.emplace_back();

    const std::vector<std::string> corridor = {"WACS", "SAT-3", "MainOne"};
    outage::OutageEvent cut;
    cut.type = outage::OutageType::CableCut;
    cut.cutCables =
        canonicalCutSet(substrate.registry(), corridor).valueOrRaise();
    net::Rng cutRng{1};
    filters.push_back(substrate.analyzer().filterFor(cut, cutRng));

    outage::OutageEvent power;
    power.type = outage::OutageType::PowerOutage;
    power.countries = {"NG"};
    net::Rng powerRng{2};
    filters.push_back(substrate.analyzer().filterFor(power, powerRng));

    outage::OutageEvent incident;
    incident.type = outage::OutageType::RoutingIncident;
    incident.countries = {"KE"};
    net::Rng incidentRng{3};
    filters.push_back(substrate.analyzer().filterFor(incident, incidentRng));
    return filters;
}

void expectPinned(const topo::Topology& topo,
                  const std::array<PinnedFilter, 4>& pins) {
    Substrate::Options options;
    options.impact.routeStorage = route::StoragePolicy::Sharded;
    const Substrate substrate{topo, phys::CableRegistry::africanDefaults(),
                              dns::DnsConfig::defaults(),
                              content::ContentConfig::defaults(), options};
    const auto filters = pinnedFilters(substrate);
    ASSERT_EQ(filters.size(), pins.size());
    ASSERT_GT(filters[1].disabledLinkCount(), 0U);
    ASSERT_GT(filters[2].disabledAsCount(), 0U);
    ASSERT_GT(filters[3].disabledLinkCount(), 0U);
    for (std::size_t i = 0; i < pins.size(); ++i) {
        const route::RouteMatrixDigest dense =
            route::routeMatrixDigest(route::PathOracle{topo, filters[i]});
        const route::RouteMatrixDigest sharded = route::routeMatrixDigest(
            route::ShardedOracle{topo, filters[i]});
        EXPECT_EQ(dense.nextHop, pins[i].digest.nextHop)
            << pins[i].name << " dense next hop 0x" << std::hex
            << dense.nextHop;
        EXPECT_EQ(dense.routeClass, pins[i].digest.routeClass)
            << pins[i].name << " dense route class 0x" << std::hex
            << dense.routeClass;
        EXPECT_EQ(sharded, dense) << pins[i].name << " sharded";
    }
}

TEST(RouteGolden, DefaultWorldMatricesArePinned) {
    const topo::Topology topo =
        topo::TopologyGenerator{topo::GeneratorConfig::defaults()}.generate();
    expectPinned(topo, {{{"intact", {0x6e158e87u, 0x2f088ad4u}},
                         {"corridor-cut", {0x5c9027f4u, 0x5f4033beu}},
                         {"ng-power", {0x3b55f74fu, 0x2c468ff1u}},
                         {"ke-incident", {0x881a1bb2u, 0xf24693dbu}}}});
}

TEST(RouteGolden, Continental1000MatricesArePinned) {
    const topo::Topology topo = topo::TopologyGenerator{
        topo::GeneratorConfig::continental(1000)}.generate();
    expectPinned(topo, {{{"intact", {0x50f72d6eu, 0x8ef5d3e7u}},
                         {"corridor-cut", {0x6a241c58u, 0x5d107717u}},
                         {"ng-power", {0x383489bfu, 0x077b6727u}},
                         {"ke-incident", {0x08173098u, 0xadd96f2eu}}}});
}

} // namespace
} // namespace aio::core
