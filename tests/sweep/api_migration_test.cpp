// Locks the Substrate API: its derived layers must match the same layers
// assembled by hand from the same seeds, it must survive moves, and the
// fallible entry points must return errors as values with the right
// Error kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/whatif.hpp"
#include "netbase/error.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace aio::sweep {
namespace {

topo::GeneratorConfig smallConfig(std::uint64_t seed) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = seed;
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

struct World {
    topo::Topology topo;
    World()
        : topo(topo::TopologyGenerator{smallConfig(42)}.generate()) {}
};

World& world() {
    static World w;
    return w;
}

core::Substrate makeSubstrate() {
    return core::Substrate{world().topo,
                           phys::CableRegistry::africanDefaults(),
                           dns::DnsConfig::defaults(),
                           content::ContentConfig::defaults()};
}

TEST(ApiMigration, ImpactAnalyzerFromSubstrateMatchesHandAssembled) {
    const auto substrate = makeSubstrate();

    // Every layer derived by hand through its own constructor, seeds
    // matching what Substrate does internally.
    const auto registry = phys::CableRegistry::africanDefaults();
    net::Rng mapRng{99};
    const phys::PhysicalLinkMap linkMap{world().topo, registry, mapRng,
                                        phys::LinkMapConfig{}};
    const dns::ResolverEcosystem resolvers{world().topo,
                                           dns::DnsConfig::defaults(), 100};
    const content::ContentCatalog catalog{
        world().topo, content::ContentConfig::defaults(), 101};
    const outage::ImpactAnalyzer byHand{world().topo, linkMap, resolvers,
                                        catalog};

    const core::WhatIfEngine engine{substrate};
    const std::vector<std::string> cables = {"SEACOM", "EASSy"};
    const auto event = engine.makeCutEvent(cables);
    net::Rng rngA{106};
    net::Rng rngB{106};
    EXPECT_TRUE(byHand.assess(event, rngA) ==
                substrate.analyzer().assess(event, rngB));
}

TEST(ApiMigration, SubstrateValidationFailsAsValues) {
    auto badDns = dns::DnsConfig::defaults();
    badDns.africa[0].cloudOffshore += 0.5; // shares no longer sum to 1
    const auto result = core::Substrate::tryCreate(
        world().topo, phys::CableRegistry::africanDefaults(), badDns,
        content::ContentConfig::defaults());
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().kind, net::Error::Kind::Precondition);
    EXPECT_THROW((core::Substrate{world().topo,
                                  phys::CableRegistry::africanDefaults(),
                                  badDns,
                                  content::ContentConfig::defaults()}),
                 net::PreconditionError);

    auto badContent = content::ContentConfig::defaults();
    badContent.sitesPerCountry = 0;
    ASSERT_FALSE(core::Substrate::tryCreate(
                     world().topo, phys::CableRegistry::africanDefaults(),
                     dns::DnsConfig::defaults(), badContent)
                     .hasValue());
}

TEST(ApiMigration, TryCreateSubstrateSurvivesMoves) {
    auto created = core::Substrate::tryCreate(
        world().topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults());
    ASSERT_TRUE(created.hasValue());
    // tryCreate's Expected return already move-constructed the substrate
    // once; move it twice more (construction + assignment) before using
    // it, so any derived-layer pointer into the moved-from shell blows
    // up here rather than in production.
    core::Substrate substrate = std::move(created).value();
    core::Substrate parked = makeSubstrate();
    parked = std::move(substrate);

    // The link map's registry pointer must track the substrate's own
    // registry through every move.
    EXPECT_EQ(&parked.linkMap().registry(), &parked.registry());

    // assess() on a cable cut walks the recovery check through
    // linkMap().registry() — the exact dereference a dangling pointer
    // would turn into a use-after-free.
    const auto reference = makeSubstrate();
    const core::WhatIfEngine fromMoved{parked};
    const core::WhatIfEngine fromReference{reference};
    const std::vector<std::string> cables = {"WACS", "MainOne", "ACE"};
    const auto event = fromMoved.makeCutEvent(cables);
    EXPECT_TRUE(fromMoved.assess(event) == fromReference.assess(event));
}

TEST(ApiMigration, TryMakeCutEventReturnsErrorsAsValues) {
    const auto substrate = makeSubstrate();
    const core::WhatIfEngine engine{substrate};

    const std::vector<std::string> unknown = {"WACS", "Atlantis-9"};
    const auto bad = engine.tryMakeCutEvent(unknown);
    ASSERT_FALSE(bad.hasValue());
    EXPECT_EQ(bad.error().kind, net::Error::Kind::NotFound);
    EXPECT_THROW((void)engine.makeCutEvent(unknown), net::NotFoundError);

    const auto empty = engine.tryMakeCutEvent({});
    ASSERT_FALSE(empty.hasValue());
    EXPECT_EQ(empty.error().kind, net::Error::Kind::Precondition);

    const std::vector<std::string> good = {"WACS"};
    const auto event = engine.tryMakeCutEvent(good, 10.0);
    ASSERT_TRUE(event.hasValue());
    EXPECT_EQ(event.value().cutCables.size(), 1U);
    EXPECT_DOUBLE_EQ(event.value().durationDays, 10.0);
}

TEST(ApiMigration, ScenarioSpecValidateCatchesBadSpecs) {
    const auto substrate = makeSubstrate();

    core::ScenarioSpec good;
    good.name = "ok";
    good.cutCables = {"WACS"};
    EXPECT_TRUE(good.validate(substrate).hasValue());

    core::ScenarioSpec unnamed = good;
    unnamed.name.clear();
    EXPECT_EQ(unnamed.validate(substrate).error().kind,
              net::Error::Kind::Precondition);

    core::ScenarioSpec badRepair = good;
    badRepair.repairDays = -3.0;
    EXPECT_FALSE(badRepair.validate(substrate).hasValue());

    core::ScenarioSpec unknownCut = good;
    unknownCut.cutCables = {"Atlantis-9"};
    EXPECT_EQ(unknownCut.validate(substrate).error().kind,
              net::Error::Kind::NotFound);

    // A cut cable may resolve against the scenario's own added cables.
    core::ScenarioSpec addedCut = good;
    phys::SubseaCable added;
    added.name = "Hypothetical";
    for (const auto code : {"PT", "NG"}) {
        added.landings.push_back(phys::LandingStation{
            std::string{code},
            net::CountryTable::world().byCode(code).centroid});
    }
    addedCut.cablesAdded = {added};
    addedCut.cutCables = {"Hypothetical"};
    EXPECT_TRUE(addedCut.validate(substrate).hasValue());

    core::ScenarioSpec dupAdded = addedCut;
    dupAdded.cablesAdded.push_back(added);
    EXPECT_FALSE(dupAdded.validate(substrate).hasValue());
}

TEST(ApiMigration, ScenarioSpecValidateChecksOverrides) {
    const auto substrate = makeSubstrate();

    core::ScenarioSpec good;
    good.name = "ok";
    good.cutCables = {"WACS"};

    // Each override obeys the same rules Substrate::validate enforces
    // on the base bundle.
    core::ScenarioSpec badDns = good;
    auto dnsOverride = dns::DnsConfig::defaults();
    dnsOverride.africa[0].cloudOffshore += 0.5; // shares no longer sum to 1
    badDns.dnsOverride = dnsOverride;
    EXPECT_EQ(badDns.validate(substrate).error().kind,
              net::Error::Kind::Precondition);

    core::ScenarioSpec badContent = good;
    auto contentOverride = content::ContentConfig::defaults();
    contentOverride.sitesPerCountry = 0;
    badContent.contentOverride = contentOverride;
    EXPECT_FALSE(badContent.validate(substrate).hasValue());

    core::ScenarioSpec badLink = good;
    phys::LinkMapConfig linkOverride;
    linkOverride.backupProb = 1.5;
    badLink.linkMapOverride = linkOverride;
    EXPECT_FALSE(badLink.validate(substrate).hasValue());

    // Well-formed overrides still pass.
    core::ScenarioSpec localized = good;
    auto okDns = dns::DnsConfig::defaults();
    for (auto& profile : okDns.africa) {
        profile = dns::ResolverProfile{0.6, 0.1, 0.2, 0.05, 0.05};
    }
    localized.dnsOverride = okDns;
    localized.contentOverride = content::ContentConfig::defaults();
    localized.linkMapOverride = phys::LinkMapConfig{};
    EXPECT_TRUE(localized.validate(substrate).hasValue());
}

} // namespace
} // namespace aio::sweep
