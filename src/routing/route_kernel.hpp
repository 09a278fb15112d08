#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "routing/route_oracle.hpp"
#include "topo/as_graph.hpp"
#include "topo/csr_adjacency.hpp"

/// The one Gao-Rexford per-destination routing kernel, called by both
/// storage policies (the dense PathOracle and the ShardedOracle) — so
/// byte-identity between the two is a property of the storage encoding
/// alone, not of two solvers agreeing — plus the machinery they share
/// around it: the routing graph, the compiled failure filter and the
/// dirty-row rule of incremental derivation.
namespace aio::route::kernel {

/// The immutable graph the kernel walks: the topology's CSR adjacency
/// plus every AS's ASN in index order (the tie-break key). Built once per
/// root oracle and shared, by pointer, with every oracle derived from it.
struct RouteGraph {
    explicit RouteGraph(const topo::Topology& topology);

    topo::CsrAdjacency csr;
    std::vector<topo::Asn> asn;

    [[nodiscard]] std::size_t memoryBytes() const {
        return csr.memoryBytes() + asn.size() * sizeof(topo::Asn);
    }
};

/// A LinkFilter compiled once per oracle against a RouteGraph: one bit
/// per AS (disabled) and one per CSR slot (edge unusable: the link is
/// failed or the neighbor it leads to is disabled), so the kernel tests
/// a bit per edge instead of probing two hash sets. Links the filter
/// names that the topology does not have are skipped — they carry no
/// route. An empty filter compiles to no masks at all.
class CompiledFilter {
public:
    CompiledFilter(const RouteGraph& graph, const LinkFilter& filter);

    /// True when nothing is disabled (the kernel skips every mask test).
    [[nodiscard]] bool empty() const { return slotBlocked_.empty(); }
    [[nodiscard]] bool asAllowed(topo::AsIndex as) const {
        return asBlocked_.empty() || !bit(asBlocked_, as);
    }
    [[nodiscard]] bool slotAllowed(std::uint64_t slot) const {
        return !bit(slotBlocked_, slot);
    }
    [[nodiscard]] std::size_t memoryBytes() const {
        return (asBlocked_.size() + slotBlocked_.size()) *
               sizeof(std::uint64_t);
    }

private:
    static bool bit(const std::vector<std::uint64_t>& words,
                    std::uint64_t i) {
        return ((words[i >> 6] >> (i & 63)) & 1u) != 0;
    }

    std::vector<std::uint64_t> asBlocked_;   ///< empty: no AS disabled
    std::vector<std::uint64_t> slotBlocked_; ///< empty: filter empty
};

/// Reusable per-lane working set: one of these per pool lane, so the
/// hot loop never allocates and lanes never share mutable state.
struct DestScratch {
    /// Route length per AS; meaningful only where the row's class is set.
    std::vector<std::uint32_t> dist;
    /// Per AS, the slot of its next hop within its own CSR row — what
    /// the sharded encoding stores. Meaningful for routed non-self ASes.
    std::vector<std::uint32_t> hopSlot;
    /// ASes by distance: the customer cone (phase 1), then every routed
    /// AS (phase 3). Indexed up to the largest distance reached.
    std::vector<std::vector<std::uint32_t>> buckets;
    std::vector<std::uint32_t> peerRouted;

    /// Sizes the scratch for an n-AS graph (idempotent; call once per
    /// lane before the first solveDestination).
    void prepare(std::size_t n);
};

/// Solves all-source best routes towards `dst` under the standard
/// Gao-Rexford model (customer > peer > provider, then shortest path,
/// then lowest next-hop ASN), writing next-hop and route-class values
/// into the caller's n-element row arrays and each routed AS's next-hop
/// CSR slot into `scratch.hopSlot`.
///
/// Contract: `next` / `klass` must arrive pre-filled with -1 /
/// RouteClass::None — the kernel writes only the nodes it reaches.
/// Every tie breaks by ASN, never by arrival order, so the output row is
/// a pure function of (topology, filter, dst): whichever thread, lane, or
/// storage policy runs this produces the same bytes.
void solveDestination(const RouteGraph& graph, const CompiledFilter& filter,
                      topo::AsIndex dst, std::int32_t* next,
                      std::uint8_t* klass, DestScratch& scratch);

/// The dirty-row rule of incremental derivation, shared by both storage
/// policies. Against an unfiltered baseline, destination row d is dirty
/// iff the filter disables an AS (every row loses that source), or some
/// failed link (a, b) carries a selected route of d's baseline forest:
/// a's next hop toward d is b, or b's is a. The failed links are grouped
/// by endpoint, so a row costs one baseline next-hop read per endpoint
/// plus a binary search in its partner list — not a scan of every failed
/// link, which a corridor cut counts in thousands.
///
/// Exact, not conservative: a clean row keeps byte-identical routes
/// because removing links that carry no selected route shrinks only the
/// unselected candidate sets, and every tie-break (class, then distance,
/// then lowest next-hop ASN) still picks the surviving incumbent.
class DirtyRowProbe {
public:
    DirtyRowProbe() = default;
    DirtyRowProbe(const LinkFilter& filter, std::size_t asCount);

    [[nodiscard]] std::size_t memoryBytes() const {
        return endpoints_.size() * sizeof(topo::AsIndex) +
               partnerOffsets_.size() * sizeof(std::uint32_t) +
               partners_.size() * sizeof(topo::AsIndex);
    }

    /// Classifies one row. `hopsOf(endpoints, out)` must write the
    /// baseline next hop toward the row's destination of each endpoint
    /// into `out`; it is called on chunks of the endpoint list, so a
    /// locked store can serve each chunk under one lock acquisition.
    template <typename HopsOf>
    [[nodiscard]] bool rowDirty(HopsOf&& hopsOf) const {
        if (allRowsDirty_) {
            return true;
        }
        std::array<std::int32_t, 128> hops;
        const std::span<const topo::AsIndex> endpoints{endpoints_};
        for (std::size_t base = 0; base < endpoints.size();
             base += hops.size()) {
            const std::size_t chunk =
                std::min(hops.size(), endpoints.size() - base);
            hopsOf(endpoints.subspan(base, chunk), hops.data());
            for (std::size_t i = 0; i < chunk; ++i) {
                if (hitsFailedPartner(base + i, hops[i])) {
                    return true;
                }
            }
        }
        return false;
    }

private:
    [[nodiscard]] bool hitsFailedPartner(std::size_t endpoint,
                                         std::int32_t hop) const;

    bool allRowsDirty_ = false;
    std::vector<topo::AsIndex> endpoints_;       ///< ascending
    std::vector<std::uint32_t> partnerOffsets_;  ///< endpoints + 1
    std::vector<topo::AsIndex> partners_;        ///< sorted per endpoint
};

} // namespace aio::route::kernel
