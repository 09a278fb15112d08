#include "reference_kernel.hpp"

#include <algorithm>

namespace aio::route::reference {

void DestScratch::prepare(std::size_t n) {
    dist.assign(n, kUnreached);
    frontier.reserve(n);
    nextFrontier.reserve(n);
    buckets.resize(n + 2);
}

void solveDestination(const topo::Topology& topology,
                      const LinkFilter& filter, topo::AsIndex dst,
                      std::int32_t* next, std::uint8_t* klass,
                      DestScratch& scratch) {
    const std::size_t n = topology.asCount();
    std::vector<std::uint32_t>& dist = scratch.dist;
    std::fill(dist.begin(), dist.end(), kUnreached);

    if (!filter.asAllowed(dst)) {
        return;
    }
    const auto byAsn = [&topology](topo::AsIndex a, topo::AsIndex b) {
        return topology.as(a).asn < topology.as(b).asn;
    };

    // Phase 1: customer routes propagate up customer->provider edges.
    // Level-synchronous BFS; each level is processed in ASN order so the
    // lowest-ASN next hop wins ties deterministically.
    dist[dst] = 0;
    klass[dst] = static_cast<std::uint8_t>(RouteClass::Self);
    next[dst] = static_cast<std::int32_t>(dst);
    std::vector<topo::AsIndex>& frontier = scratch.frontier;
    frontier.clear();
    frontier.push_back(dst);
    while (!frontier.empty()) {
        std::ranges::sort(frontier, byAsn);
        scratch.nextFrontier.clear();
        for (const topo::AsIndex x : frontier) {
            for (const topo::AsIndex p : topology.providersOf(x)) {
                if (!filter.asAllowed(p) || !filter.linkAllowed(x, p)) {
                    continue;
                }
                if (klass[p] ==
                    static_cast<std::uint8_t>(RouteClass::None)) {
                    dist[p] = dist[x] + 1;
                    klass[p] = static_cast<std::uint8_t>(RouteClass::Customer);
                    next[p] = static_cast<std::int32_t>(x);
                    scratch.nextFrontier.push_back(p);
                }
            }
        }
        frontier.swap(scratch.nextFrontier);
    }

    // Phase 2: one optional peer hop off the customer cone. Peer routes
    // never chain, so this is a single pass.
    for (topo::AsIndex y = 0; y < n; ++y) {
        if (klass[y] != static_cast<std::uint8_t>(RouteClass::None) ||
            !filter.asAllowed(y)) {
            continue;
        }
        std::uint32_t bestDist = kUnreached;
        std::int32_t bestVia = -1;
        for (const topo::AsIndex z : topology.peersOf(y)) {
            if (!filter.linkAllowed(y, z)) {
                continue;
            }
            const auto zk = klass[z];
            if (zk != static_cast<std::uint8_t>(RouteClass::Customer) &&
                zk != static_cast<std::uint8_t>(RouteClass::Self)) {
                continue;
            }
            if (dist[z] + 1 < bestDist) { // peers sorted by ASN: first wins
                bestDist = dist[z] + 1;
                bestVia = static_cast<std::int32_t>(z);
            }
        }
        if (bestVia >= 0) {
            dist[y] = bestDist;
            klass[y] = static_cast<std::uint8_t>(RouteClass::Peer);
            next[y] = bestVia;
        }
    }

    // Phase 3: provider routes propagate down provider->customer edges
    // from every routed node. Bucket Dijkstra over small integer
    // distances; buckets are processed in ASN order for deterministic
    // tie-breaking. Buckets are reused across destinations (every bucket
    // ends the loop cleared).
    std::vector<std::vector<topo::AsIndex>>& buckets = scratch.buckets;
    for (topo::AsIndex x = 0; x < n; ++x) {
        if (klass[x] != static_cast<std::uint8_t>(RouteClass::None)) {
            buckets[dist[x]].push_back(x);
        }
    }
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        auto& bucket = buckets[b];
        std::ranges::sort(bucket, byAsn);
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            const topo::AsIndex p = bucket[i];
            for (const topo::AsIndex y : topology.customersOf(p)) {
                if (!filter.asAllowed(y) || !filter.linkAllowed(p, y)) {
                    continue;
                }
                if (klass[y] ==
                    static_cast<std::uint8_t>(RouteClass::None)) {
                    dist[y] = static_cast<std::uint32_t>(b + 1);
                    klass[y] = static_cast<std::uint8_t>(RouteClass::Provider);
                    next[y] = static_cast<std::int32_t>(p);
                    buckets[b + 1].push_back(y);
                }
            }
        }
        bucket.clear();
    }
}

} // namespace aio::route::reference
