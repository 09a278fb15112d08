#include "topo/csr_adjacency.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "netbase/crc32c.hpp"
#include "netbase/error.hpp"

namespace aio::topo {

net::Expected<CsrAdjacency>
CsrAdjacency::fromEdges(std::size_t asCount, std::span<const AsLink> edges) {
    // Pass 1: validate endpoints and count degrees.
    std::vector<std::uint64_t> offsets(asCount + 1, 0);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const AsLink& edge = edges[i];
        if (edge.a >= asCount || edge.b >= asCount) {
            return net::Error::precondition(
                "edge " + std::to_string(i) + " endpoint out of range (" +
                std::to_string(edge.a) + "," + std::to_string(edge.b) +
                ") for " + std::to_string(asCount) + " ASes");
        }
        if (edge.a == edge.b) {
            return net::Error::precondition(
                "edge " + std::to_string(i) + " is a self loop at AS " +
                std::to_string(edge.a));
        }
        ++offsets[edge.a + 1];
        ++offsets[edge.b + 1];
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

    // Pass 2: scatter both directions into the arenas.
    CsrAdjacency csr;
    csr.asCount_ = asCount;
    csr.neighbors_.resize(edges.size() * 2);
    csr.rel_.resize(edges.size() * 2);
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const AsLink& edge : edges) {
        const bool transit = edge.kind == LinkKind::CustomerToProvider;
        // a's view of b: b is a's provider on a transit edge (a is the
        // customer by AsLink convention); peer otherwise. Mirror for b.
        csr.neighbors_[cursor[edge.a]] = static_cast<std::uint32_t>(edge.b);
        csr.rel_[cursor[edge.a]] = static_cast<std::uint8_t>(
            transit ? CsrRel::Provider : CsrRel::Peer);
        ++cursor[edge.a];
        csr.neighbors_[cursor[edge.b]] = static_cast<std::uint32_t>(edge.a);
        csr.rel_[cursor[edge.b]] = static_cast<std::uint8_t>(
            transit ? CsrRel::Customer : CsrRel::Peer);
        ++cursor[edge.b];
    }

    // Pass 3: sort each row by neighbor index (rel stays paired) and
    // reject duplicates — a repeated unordered pair, in either
    // orientation or mixed kinds, lands as equal adjacent neighbors.
    std::vector<std::pair<std::uint32_t, std::uint8_t>> row;
    for (AsIndex idx = 0; idx < asCount; ++idx) {
        const std::size_t begin = offsets[idx];
        const std::size_t end = offsets[idx + 1];
        row.clear();
        for (std::size_t s = begin; s < end; ++s) {
            row.emplace_back(csr.neighbors_[s], csr.rel_[s]);
        }
        std::ranges::sort(row);
        for (std::size_t s = 0; s + 1 < row.size(); ++s) {
            if (row[s].first == row[s + 1].first) {
                return net::Error::precondition(
                    "duplicate adjacency between AS " + std::to_string(idx) +
                    " and AS " + std::to_string(row[s].first));
            }
        }
        for (std::size_t s = 0; s < row.size(); ++s) {
            csr.neighbors_[begin + s] = row[s].first;
            csr.rel_[begin + s] = row[s].second;
        }
        csr.maxDegree_ = std::max(
            csr.maxDegree_, static_cast<std::uint32_t>(end - begin));
    }

    // Pass 4: the routing kernel's derived arenas. Rows are visited in
    // ascending owner order, so the k-th visit into row b comes from b's
    // k-th smallest neighbor — which is b's slot k: a per-row cursor
    // yields every twin in one linear pass.
    csr.relOrder_.resize(csr.neighbors_.size());
    csr.relBounds_.resize(2 * asCount);
    csr.twins_.resize(csr.neighbors_.size());
    std::vector<std::uint32_t> twinCursor(asCount, 0);
    for (AsIndex idx = 0; idx < asCount; ++idx) {
        const std::size_t begin = offsets[idx];
        const auto degree = static_cast<std::uint32_t>(offsets[idx + 1] - begin);
        std::uint32_t* order = csr.relOrder_.data() + begin;
        std::uint32_t filled = 0;
        for (const CsrRel rel :
             {CsrRel::Provider, CsrRel::Customer, CsrRel::Peer}) {
            if (rel != CsrRel::Provider) {
                csr.relBounds_[2 * idx + static_cast<std::size_t>(rel) - 1] =
                    filled;
            }
            for (std::uint32_t s = 0; s < degree; ++s) {
                if (csr.rel_[begin + s] == static_cast<std::uint8_t>(rel)) {
                    order[filled++] = s;
                }
            }
        }
        for (std::uint32_t s = 0; s < degree; ++s) {
            csr.twins_[begin + s] = twinCursor[csr.neighbors_[begin + s]]++;
        }
    }
    csr.offsets_ = std::move(offsets);
    return csr;
}

CsrAdjacency CsrAdjacency::fromTopology(const Topology& topology) {
    AIO_EXPECTS(topology.finalized(), "topology must be finalized");
    return fromEdges(topology.asCount(), topology.links()).valueOrRaise();
}

std::int32_t CsrAdjacency::slotOf(AsIndex idx, AsIndex neighbor) const {
    const auto row = neighbors(idx);
    const auto it = std::ranges::lower_bound(
        row, static_cast<std::uint32_t>(neighbor));
    if (it == row.end() || *it != static_cast<std::uint32_t>(neighbor)) {
        return -1;
    }
    return static_cast<std::int32_t>(it - row.begin());
}

std::uint32_t CsrAdjacency::digest() const {
    std::uint32_t crc = net::crc32cInit();
    const std::uint64_t n = asCount_;
    crc = net::crc32cUpdate(
        crc, std::as_bytes(std::span<const std::uint64_t>(&n, 1)));
    crc = net::crc32cUpdate(
        crc, std::as_bytes(std::span<const std::uint64_t>(offsets_)));
    crc = net::crc32cUpdate(
        crc, std::as_bytes(std::span<const std::uint32_t>(neighbors_)));
    crc = net::crc32cUpdate(
        crc, std::as_bytes(std::span<const std::uint8_t>(rel_)));
    return net::crc32cFinish(crc);
}

} // namespace aio::topo
