#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netbase/expected.hpp"
#include "topo/as_graph.hpp"

namespace aio::topo {

/// Relationship of a neighbor seen from the row-owner's side of the edge:
/// `Provider` means "this neighbor is my provider". One byte per directed
/// edge slot, parallel to the neighbor array.
enum class CsrRel : std::uint8_t {
    Provider = 0,
    Customer = 1,
    Peer = 2,
};

/// Compressed sparse row view of the AS adjacency: three flat arenas
/// (offsets / neighbors / relations) replacing the per-AS
/// vector-of-vectors, in the flat SoA idiom large measurement platforms
/// use for graph state. Each row's neighbors are sorted ascending by AS
/// index, so membership and slot lookups are binary searches — and a
/// *slot* (position within the row) fits 16 bits for every non-hub AS,
/// which is what lets the sharded route oracle store next hops as
/// uint16 slot references instead of 32-bit AS indices.
///
/// Two derived arenas serve the routing kernel: a relation-grouped slot
/// order per row (providers, customers, peers each contiguous, so a
/// phase walks only the relation it propagates over) and a twin slot per
/// slot (the same edge's slot in the neighbor's row, so a next hop
/// claimed across an edge is already a slot reference, no search).
///
/// Immutable once built; all queries are const and thread-safe.
class CsrAdjacency {
public:
    CsrAdjacency() = default;

    /// Builds from an explicit edge list over `asCount` nodes, validating
    /// structure: endpoints in range, no self loops, no duplicate
    /// unordered pairs (either orientation). Malformed input degrades to
    /// an Error rather than corrupt arenas — the fuzz corpus feeds this
    /// entry point directly.
    [[nodiscard]] static net::Expected<CsrAdjacency>
    fromEdges(std::size_t asCount, std::span<const AsLink> edges);

    /// Builds from a finalized topology (whose addLink already enforced
    /// the same invariants, so this raises only on internal
    /// inconsistency).
    [[nodiscard]] static CsrAdjacency fromTopology(const Topology& topology);

    [[nodiscard]] std::size_t asCount() const { return asCount_; }
    /// Undirected edge count (each edge occupies two row slots).
    [[nodiscard]] std::size_t edgeCount() const {
        return neighbors_.size() / 2;
    }

    [[nodiscard]] std::uint32_t degree(AsIndex idx) const {
        return static_cast<std::uint32_t>(offsets_[idx + 1] - offsets_[idx]);
    }
    [[nodiscard]] std::uint32_t maxDegree() const { return maxDegree_; }

    /// Row `idx`'s neighbors, ascending by AS index.
    [[nodiscard]] std::span<const std::uint32_t>
    neighbors(AsIndex idx) const {
        return {neighbors_.data() + offsets_[idx], degree(idx)};
    }
    /// Row `idx`'s relations, parallel to neighbors().
    [[nodiscard]] std::span<const std::uint8_t> relations(AsIndex idx) const {
        return {rel_.data() + offsets_[idx], degree(idx)};
    }

    [[nodiscard]] AsIndex neighborAt(AsIndex idx, std::uint32_t slot) const {
        return static_cast<AsIndex>(neighbors_[offsets_[idx] + slot]);
    }
    [[nodiscard]] CsrRel relationAt(AsIndex idx, std::uint32_t slot) const {
        return static_cast<CsrRel>(rel_[offsets_[idx] + slot]);
    }

    /// Slot of `neighbor` within row `idx` (binary search), or -1 when
    /// the adjacency does not exist.
    [[nodiscard]] std::int32_t slotOf(AsIndex idx, AsIndex neighbor) const;

    /// Arena position of row `idx`'s slot 0: slot s of the row is arena
    /// slot rowBegin(idx) + s, the index per-slot bitmasks use.
    [[nodiscard]] std::uint64_t rowBegin(AsIndex idx) const {
        return offsets_[idx];
    }
    /// Directed slots across all rows (2 · edgeCount()).
    [[nodiscard]] std::size_t slotCount() const { return neighbors_.size(); }

    /// Row `idx`'s slots whose neighbor has relation `rel` to it,
    /// ascending by neighbor index.
    [[nodiscard]] std::span<const std::uint32_t> slotsOf(AsIndex idx,
                                                         CsrRel rel) const {
        const std::uint32_t* bounds = relBounds_.data() + 2 * idx;
        const auto r = static_cast<std::uint8_t>(rel);
        const std::uint32_t lo = r == 0 ? 0 : bounds[r - 1];
        const std::uint32_t hi = r == 2 ? degree(idx) : bounds[r];
        return {relOrder_.data() + offsets_[idx] + lo, hi - lo};
    }
    /// Row `idx`'s twin slots, parallel to neighbors(): entry s is the
    /// slot of `idx` within the row of neighbors(idx)[s].
    [[nodiscard]] std::span<const std::uint32_t> twins(AsIndex idx) const {
        return {twins_.data() + offsets_[idx], degree(idx)};
    }

    /// Resident bytes of the arenas.
    [[nodiscard]] std::size_t memoryBytes() const {
        return offsets_.size() * sizeof(std::uint64_t) +
               neighbors_.size() * sizeof(std::uint32_t) +
               rel_.size() * sizeof(std::uint8_t) +
               (relOrder_.size() + twins_.size() + relBounds_.size()) *
                   sizeof(std::uint32_t);
    }

    /// CRC-32C over the arenas (node count, offsets, neighbors,
    /// relations): two topologies with the same structure digest equal;
    /// the generator-scaling tests pin run-to-run determinism with it.
    [[nodiscard]] std::uint32_t digest() const;

private:
    std::size_t asCount_ = 0;
    std::uint32_t maxDegree_ = 0;
    std::vector<std::uint64_t> offsets_;   ///< n+1 row boundaries
    std::vector<std::uint32_t> neighbors_; ///< 2·edges neighbor indices
    std::vector<std::uint8_t> rel_;        ///< CsrRel per slot
    std::vector<std::uint32_t> relOrder_;  ///< row slots grouped by CsrRel
    std::vector<std::uint32_t> relBounds_; ///< per row: customer, peer start
    std::vector<std::uint32_t> twins_;     ///< per slot: twin slot
};

} // namespace aio::topo
