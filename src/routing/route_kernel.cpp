#include "routing/route_kernel.hpp"

#include <map>

namespace aio::route::kernel {

namespace {

constexpr auto kSelf = static_cast<std::uint8_t>(RouteClass::Self);
constexpr auto kCustomer = static_cast<std::uint8_t>(RouteClass::Customer);
constexpr auto kPeer = static_cast<std::uint8_t>(RouteClass::Peer);
constexpr auto kProvider = static_cast<std::uint8_t>(RouteClass::Provider);
constexpr auto kNone = static_cast<std::uint8_t>(RouteClass::None);

void setBit(std::vector<std::uint64_t>& words, std::uint64_t i) {
    words[i >> 6] |= std::uint64_t{1} << (i & 63);
}

/// Calls visit(neighbor, twinSlot) for every usable neighbor of `x` with
/// relation `rel` to it.
template <bool Filtered, typename Visit>
void forEachNeighbor(const topo::CsrAdjacency& csr,
                     const CompiledFilter& filter, std::uint32_t x,
                     topo::CsrRel rel, Visit&& visit) {
    const std::uint64_t base = csr.rowBegin(x);
    const std::uint32_t* neighbors = csr.neighbors(x).data();
    const std::uint32_t* twins = csr.twins(x).data();
    for (const std::uint32_t slot : csr.slotsOf(x, rel)) {
        if constexpr (Filtered) {
            if (!filter.slotAllowed(base + slot)) {
                continue;
            }
        }
        visit(neighbors[slot], twins[slot]);
    }
}

template <bool Filtered>
void solve(const RouteGraph& graph, const CompiledFilter& filter,
           std::uint32_t dst, std::int32_t* next, std::uint8_t* klass,
           DestScratch& scratch) {
    const topo::CsrAdjacency& csr = graph.csr;
    const topo::Asn* asn = graph.asn.data();
    std::uint32_t* dist = scratch.dist.data();
    std::uint32_t* hopSlot = scratch.hopSlot.data();
    std::vector<std::vector<std::uint32_t>>& buckets = scratch.buckets;

    // Every phase claims an AS the first time it reaches it and, when a
    // later candidate of the same class reaches it at the same distance,
    // hands it over only to a lower-ASN next hop. Each AS's route is the
    // lexicographic minimum of (class, distance, next-hop ASN) over its
    // candidates — order-independent, so no level or bucket is sorted.
    const auto offer = [&](std::uint32_t to, std::uint32_t via,
                           std::uint32_t twin, std::uint32_t d,
                           std::uint8_t cls) {
        if (klass[to] == kNone) {
            klass[to] = cls;
            dist[to] = d;
            next[to] = static_cast<std::int32_t>(via);
            hopSlot[to] = twin;
            return true;
        }
        if (klass[to] == cls && dist[to] == d &&
            asn[via] < asn[static_cast<std::uint32_t>(next[to])]) {
            next[to] = static_cast<std::int32_t>(via);
            hopSlot[to] = twin;
        }
        return false;
    };

    // Phase 1: customer routes propagate up customer->provider edges,
    // level by level; bucket d ends up holding the cone at distance d.
    dist[dst] = 0;
    klass[dst] = kSelf;
    next[dst] = static_cast<std::int32_t>(dst);
    buckets[0].push_back(dst);
    std::uint32_t top = 0; // largest distance reached so far
    for (std::uint32_t d = 0; d <= top; ++d) {
        for (const std::uint32_t x : buckets[d]) {
            forEachNeighbor<Filtered>(
                csr, filter, x, topo::CsrRel::Provider,
                [&](std::uint32_t p, std::uint32_t twin) {
                    if (offer(p, x, twin, d + 1, kCustomer)) {
                        buckets[d + 1].push_back(p);
                        top = d + 1;
                    }
                });
        }
    }

    // Phase 2: one optional peer hop off the customer cone, pushed from
    // the cone onto its peers (peer routes never chain). The cone is
    // walked in distance order, so an AS's first peer claim already has
    // its shortest distance and later offers only break ASN ties.
    const std::uint32_t coneTop = top;
    scratch.peerRouted.clear();
    for (std::uint32_t d = 0; d <= coneTop; ++d) {
        for (const std::uint32_t z : buckets[d]) {
            forEachNeighbor<Filtered>(
                csr, filter, z, topo::CsrRel::Peer,
                [&](std::uint32_t y, std::uint32_t twin) {
                    if (offer(y, z, twin, d + 1, kPeer)) {
                        scratch.peerRouted.push_back(y);
                    }
                });
        }
    }
    for (const std::uint32_t y : scratch.peerRouted) {
        buckets[dist[y]].push_back(y);
        top = std::max(top, dist[y]);
    }

    // Phase 3: provider routes propagate down provider->customer edges
    // from every routed AS: bucket Dijkstra over the small integer
    // distances, bounded by the largest distance reached. Every bucket
    // ends the loop cleared, ready for the next destination.
    for (std::uint32_t b = 0; b <= top; ++b) {
        for (const std::uint32_t p : buckets[b]) {
            forEachNeighbor<Filtered>(
                csr, filter, p, topo::CsrRel::Customer,
                [&](std::uint32_t y, std::uint32_t twin) {
                    if (offer(y, p, twin, b + 1, kProvider)) {
                        buckets[b + 1].push_back(y);
                        top = std::max(top, b + 1);
                    }
                });
        }
        buckets[b].clear();
    }
}

} // namespace

RouteGraph::RouteGraph(const topo::Topology& topology)
    : csr(topo::CsrAdjacency::fromTopology(topology)) {
    asn.reserve(topology.asCount());
    for (topo::AsIndex i = 0; i < topology.asCount(); ++i) {
        asn.push_back(topology.as(i).asn);
    }
}

CompiledFilter::CompiledFilter(const RouteGraph& graph,
                               const LinkFilter& filter) {
    if (filter.empty()) {
        return;
    }
    const topo::CsrAdjacency& csr = graph.csr;
    const std::size_t n = graph.asn.size();
    slotBlocked_.assign((csr.slotCount() + 63) / 64, 0);
    for (const auto& [a, b] : filter.disabledLinks()) {
        if (a >= n || b >= n) {
            continue;
        }
        const std::int32_t slot = csr.slotOf(a, b);
        if (slot < 0) {
            continue; // not a topology adjacency; carries no route
        }
        const auto s = static_cast<std::uint32_t>(slot);
        setBit(slotBlocked_, csr.rowBegin(a) + s);
        setBit(slotBlocked_, csr.rowBegin(b) + csr.twins(a)[s]);
    }
    if (filter.disabledAsCount() == 0) {
        return;
    }
    asBlocked_.assign((n + 63) / 64, 0);
    for (topo::AsIndex as = 0; as < n; ++as) {
        if (filter.asAllowed(as)) {
            continue;
        }
        setBit(asBlocked_, as);
        // Every edge leading into a disabled AS is unusable.
        const auto neighbors = csr.neighbors(as);
        const auto twins = csr.twins(as);
        for (std::size_t s = 0; s < neighbors.size(); ++s) {
            setBit(slotBlocked_, csr.rowBegin(neighbors[s]) + twins[s]);
        }
    }
}

void DestScratch::prepare(std::size_t n) {
    dist.resize(n);
    hopSlot.resize(n);
    buckets.resize(n + 2);
}

void solveDestination(const RouteGraph& graph, const CompiledFilter& filter,
                      topo::AsIndex dst, std::int32_t* next,
                      std::uint8_t* klass, DestScratch& scratch) {
    if (!filter.asAllowed(dst)) {
        return;
    }
    const auto d = static_cast<std::uint32_t>(dst);
    if (filter.empty()) {
        solve<false>(graph, filter, d, next, klass, scratch);
    } else {
        solve<true>(graph, filter, d, next, klass, scratch);
    }
}

DirtyRowProbe::DirtyRowProbe(const LinkFilter& filter, std::size_t asCount)
    : allRowsDirty_(filter.disabledAsCount() > 0) {
    if (allRowsDirty_) {
        return;
    }
    // Group the failed links by endpoint (both directions — my next hop
    // onto you, yours onto me), ordered for determinism.
    std::map<topo::AsIndex, std::vector<topo::AsIndex>> grouped;
    for (const auto& [a, b] : filter.disabledLinks()) {
        if (a < asCount && b < asCount) {
            grouped[a].push_back(b);
            grouped[b].push_back(a);
        }
    }
    partnerOffsets_.push_back(0);
    for (auto& [endpoint, partners] : grouped) {
        std::ranges::sort(partners);
        endpoints_.push_back(endpoint);
        partners_.insert(partners_.end(), partners.begin(), partners.end());
        partnerOffsets_.push_back(
            static_cast<std::uint32_t>(partners_.size()));
    }
}

bool DirtyRowProbe::hitsFailedPartner(std::size_t endpoint,
                                      std::int32_t hop) const {
    if (hop < 0) {
        return false;
    }
    const auto first = partners_.begin() + partnerOffsets_[endpoint];
    const auto last = partners_.begin() + partnerOffsets_[endpoint + 1];
    return std::binary_search(first, last,
                              static_cast<topo::AsIndex>(hop));
}

} // namespace aio::route::kernel
