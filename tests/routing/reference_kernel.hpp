#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "routing/route_oracle.hpp"
#include "topo/as_graph.hpp"

/// The original Gao-Rexford per-destination kernel, kept verbatim as the
/// test-only reference the CSR-native kernel (src/routing/route_kernel.*)
/// is differential-tested against row by row: it walks the Topology's
/// per-AS vectors, probes the LinkFilter's hash sets per edge and sorts
/// every BFS level and bucket by ASN — slow, but obviously the textbook
/// three-phase solve.
namespace aio::route::reference {

/// Sentinel distance for "not yet reached". 32-bit: a path can visit at
/// most n ASes, and n can exceed 65 k in the continent-scale regime, so
/// the old uint16 scratch would wrap on pathological deep hierarchies.
/// Scratch-only widening — the emitted matrices are unchanged.
inline constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();

/// Reusable per-lane working set: one of these per pool lane, so the
/// hot loop never allocates and lanes never share mutable state.
struct DestScratch {
    std::vector<std::uint32_t> dist;
    std::vector<topo::AsIndex> frontier;
    std::vector<topo::AsIndex> nextFrontier;
    std::vector<std::vector<topo::AsIndex>> buckets;

    /// Sizes the scratch for an n-AS topology (idempotent; call once per
    /// lane before the first solveDestination).
    void prepare(std::size_t n);
};

/// Solves all-source best routes towards `dst` under the standard
/// Gao-Rexford model (customer > peer > provider, then shortest path,
/// then lowest next-hop ASN), writing next-hop and route-class values
/// into the caller's n-element row arrays.
///
/// Contract: `next` / `klass` must arrive pre-filled with -1 /
/// RouteClass::None — the kernel writes only the nodes it reaches.
/// Every tie breaks by ASN, never by arrival order, so the output row is
/// a pure function of (topology, filter, dst): whichever thread, lane, or
/// storage policy runs this produces the same bytes.
void solveDestination(const topo::Topology& topology,
                      const LinkFilter& filter, topo::AsIndex dst,
                      std::int32_t* next, std::uint8_t* klass,
                      DestScratch& scratch);

} // namespace aio::route::reference
