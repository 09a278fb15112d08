#include "outage/impact.hpp"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "netbase/error.hpp"

namespace aio::outage {

std::vector<std::string> ImpactReport::impactedCountries() const {
    std::vector<std::string> out;
    for (const CountryImpact& impact : countries) {
        if (impact.effectiveOutageDays > 0.0) {
            out.push_back(impact.country);
        }
    }
    return out;
}

double ImpactReport::resolutionDays() const {
    double worst = 0.0;
    for (const CountryImpact& impact : countries) {
        worst = std::max(worst, impact.effectiveOutageDays);
    }
    return worst;
}

ImpactAnalyzer::ImpactAnalyzer(const topo::Topology& topology,
                               const phys::PhysicalLinkMap& linkMap,
                               const dns::ResolverEcosystem& resolvers,
                               const content::ContentCatalog& catalog,
                               ImpactConfig config,
                               route::OracleCache* oracleCache,
                               exec::WorkerPool* pool,
                               obs::MetricsRegistry* metrics)
    : topo_(&topology), linkMap_(&linkMap), resolvers_(&resolvers),
      catalog_(&catalog), config_(config), oracleCache_(oracleCache),
      pool_(pool), metrics_(metrics) {
    if (oracleCache_) {
        // The baseline (no-failure) state is the cache's natural seed:
        // every analyzer sharing the cache then shares one baseline build.
        baselineOracle_ = oracleCache_->get(route::LinkFilter{});
    } else {
        baselineOracle_ =
            route::buildOracle(topology, config_.routeStorage,
                               route::LinkFilter{}, pool_,
                               config_.shardedRouting);
    }
    computeBaselineSuccess();
}

ImpactAnalyzer::ImpactAnalyzer(const ImpactAnalyzer& parent,
                               const phys::PhysicalLinkMap& linkMap,
                               const dns::ResolverEcosystem& resolvers,
                               const content::ContentCatalog& catalog,
                               route::OracleCache* oracleCache,
                               exec::WorkerPool* pool)
    : topo_(parent.topo_), linkMap_(&linkMap), resolvers_(&resolvers),
      catalog_(&catalog), config_(parent.config_), oracleCache_(oracleCache),
      pool_(pool), metrics_(parent.metrics_),
      baselineOracle_(parent.baselineOracle_) {
    computeBaselineSuccess();
}

void ImpactAnalyzer::computeBaselineSuccess() {
    for (const auto* country : net::CountryTable::world().african()) {
        baselineSuccess_.emplace(
            std::string{country->iso2},
            pageLoadSuccess(country->iso2, *baselineOracle_));
    }
}

double
ImpactAnalyzer::pageLoadSuccess(std::string_view country,
                                const route::RouteOracle& oracle) const {
    const dns::ResolutionSimulator dnsSim{*resolvers_};
    double success = 0.0;
    double weight = 0.0;
    for (const topo::AsIndex client : topo_->asesInCountry(country)) {
        if (!resolvers_->resolverOf(client)) {
            continue; // not an eyeball network
        }
        const double w = topo_->as(client).trafficWeight;
        weight += w;
        if (!dnsSim.resolve(client, oracle).resolved) {
            continue; // no DNS, no page — regardless of content locality
        }
        // Popularity-weighted content reachability over a site sample.
        const auto& sites = catalog_->sitesFor(country);
        double ok = 0.0;
        double total = 0.0;
        const int sample = std::min<int>(config_.siteSample,
                                         static_cast<int>(sites.size()));
        for (int i = 0; i < sample; ++i) {
            total += sites[static_cast<std::size_t>(i)].popularity;
            if (oracle.reachable(client,
                                 sites[static_cast<std::size_t>(i)].hostAs)) {
                ok += sites[static_cast<std::size_t>(i)].popularity;
            }
        }
        success += w * (total == 0.0 ? 0.0 : ok / total);
    }
    return weight == 0.0 ? 0.0 : success / weight;
}

route::LinkFilter ImpactAnalyzer::filterFor(const OutageEvent& event,
                                            net::Rng& rng) const {
    route::LinkFilter filter;
    switch (event.type) {
    case OutageType::CableCut: {
        std::unordered_set<phys::CableId> cuts(event.cutCables.begin(),
                                               event.cutCables.end());
        for (const auto& [a, b] : linkMap_->failedLinks(cuts)) {
            filter.disableLink(a, b);
        }
        break;
    }
    case OutageType::PowerOutage:
        for (const std::string& country : event.countries) {
            for (const topo::AsIndex as : topo_->asesInCountry(country)) {
                if (rng.bernoulli(config_.powerOutageAsShare)) {
                    filter.disableAs(as);
                }
            }
        }
        break;
    case OutageType::GovernmentShutdown:
        for (const std::string& country : event.countries) {
            for (const topo::AsIndex as : topo_->asesInCountry(country)) {
                filter.disableAs(as);
            }
        }
        break;
    case OutageType::RoutingIncident:
        for (const std::string& country : event.countries) {
            for (const auto& link : topo_->links()) {
                const bool touches =
                    topo_->as(link.a).countryCode == country ||
                    topo_->as(link.b).countryCode == country;
                if (touches &&
                    rng.bernoulli(config_.routingIncidentLinkShare)) {
                    filter.disableLink(link.a, link.b);
                }
            }
        }
        break;
    }
    return filter;
}

ImpactReport ImpactAnalyzer::assess(const OutageEvent& event,
                                    net::Rng& rng) const {
    const obs::ScopedTimer timer{metrics_, "impact.assess_seconds"};
    metrics_.add("impact.assessments");
    if (event.macroRegion != net::MacroRegion::Africa) {
        return scoreImpact(event, *baselineOracle_, rng);
    }
    const route::LinkFilter filter = filterFor(event, rng);
    // Reuse the cached scenario oracle when a cache is wired in; rebuild
    // under the configured storage policy (parallel if a pool is wired)
    // otherwise. The routing state depends only on the filter, so cached
    // and cold results are identical.
    const std::shared_ptr<const route::RouteOracle> degraded =
        oracleCache_ ? oracleCache_->get(filter)
                     : route::buildOracle(*topo_, config_.routeStorage,
                                          filter, pool_,
                                          config_.shardedRouting);
    return scoreImpact(event, *degraded, rng);
}

ImpactReport
ImpactAnalyzer::assessWithOracle(const OutageEvent& event,
                                 const route::RouteOracle& degraded,
                                 net::Rng& rng) const {
    const obs::ScopedTimer timer{metrics_, "impact.assess_seconds"};
    metrics_.add("impact.assessments");
    return scoreImpact(event, degraded, rng);
}

ImpactReport
ImpactAnalyzer::scoreImpact(const OutageEvent& event,
                            const route::RouteOracle& degraded,
                            net::Rng& rng) const {
    ImpactReport report;
    report.event = event;
    if (event.macroRegion != net::MacroRegion::Africa) {
        // Blast radius outside the modelled cable plant: score the named
        // countries as down for the ground-truth duration.
        for (const std::string& country : event.countries) {
            report.countries.push_back(CountryImpact{
                country, 1.0, 1.0, event.durationDays});
        }
        return report;
    }
    const dns::ResolutionSimulator dnsSim{*resolvers_};

    for (const auto* country : net::CountryTable::world().african()) {
        const auto it = baselineSuccess_.find(country->iso2);
        if (it == baselineSuccess_.end() || it->second <= 0.0) {
            continue;
        }
        const double now = pageLoadSuccess(country->iso2, degraded);
        const double loss = std::max(0.0, 1.0 - now / it->second);
        if (loss < 0.02) {
            continue;
        }
        CountryImpact impact;
        impact.country = std::string{country->iso2};
        impact.pageLoadLoss = loss;
        impact.dnsFailureShare =
            1.0 - dnsSim.resolvableShare(country->iso2, degraded);
        if (loss >= config_.impactThreshold) {
            if (event.type == OutageType::CableCut) {
                // Recovery depends on surviving physical capacity at the
                // country's coastal gateway: with an intact alternative
                // cable, operators shuffle onto (oversubscribed) backups
                // or manually re-negotiate transit; with the whole shore
                // dark, only the repair ship ends the outage (§4.1/§5.1).
                const std::string_view gateway =
                    phys::PhysicalLinkMap::coastalGateway(country->iso2);
                const auto& registry = linkMap_->registry();
                bool survivorExists = false;
                for (const phys::CableId id :
                     registry.cablesToEurope(gateway)) {
                    survivorExists |= std::ranges::find(event.cutCables,
                                                        id) ==
                                      event.cutCables.end();
                }
                double recover = event.durationDays;
                if (survivorExists) {
                    recover = loss >= config_.hardDownThreshold
                                  ? rng.exponential(
                                        config_.renegotiationMeanDays)
                                  : rng.exponential(
                                        config_.degradedRecoveryMeanDays);
                }
                impact.effectiveOutageDays =
                    std::min(event.durationDays, std::max(0.1, recover));
            } else {
                impact.effectiveOutageDays = event.durationDays;
            }
        }
        report.countries.push_back(std::move(impact));
    }
    return report;
}

} // namespace aio::outage
