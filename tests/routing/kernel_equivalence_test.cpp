// Row-by-row differential harness for the CSR-native routing kernel:
// across a seed x topology-size x failure-filter grid, every destination
// row it solves (next hops and route classes) must equal the original
// kernel's, kept verbatim under tests/ as the reference. The grid covers
// the filter shapes the compiled masks must get right: a blocked
// destination, a disabled hub AS, a peer-link-only cut and links the
// topology does not have.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "netbase/rng.hpp"
#include "reference_kernel.hpp"
#include "routing/route_kernel.hpp"
#include "topo/generator.hpp"

namespace aio::route {
namespace {

topo::GeneratorConfig sizedConfig(std::uint64_t seed, bool small) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = seed;
    if (small) {
        for (auto& profile : config.africa) {
            profile.asPerMillionPeople *= 0.4;
            profile.minAsesPerCountry = 1;
            profile.ixpCount = std::max(1, profile.ixpCount / 2);
        }
        config.europe.accessPerCountry = 2;
        config.northAmerica.accessPerCountry = 2;
        config.southAmerica.accessPerCountry = 2;
        config.asiaPacific.accessPerCountry = 2;
    }
    return config;
}

struct NamedFilter {
    std::string name;
    LinkFilter filter;
};

std::vector<NamedFilter> filterGrid(const topo::Topology& topo,
                                    std::uint64_t seed) {
    const std::size_t n = topo.asCount();
    net::Rng rng{seed * 7717 + 3};
    std::vector<NamedFilter> grid;
    grid.push_back({"intact", {}});

    LinkFilter cuts;
    for (const auto& link : topo.links()) {
        if (rng.bernoulli(0.05)) {
            cuts.disableLink(link.a, link.b);
        }
    }
    grid.push_back({"random-cuts", std::move(cuts)});

    // Blocked destinations: their own rows must come out all-None.
    LinkFilter blocked;
    blocked.disableAs(0);
    for (int i = 0; i < 8; ++i) {
        blocked.disableAs(rng.uniformInt(n));
    }
    grid.push_back({"blocked-destinations", std::move(blocked)});

    topo::AsIndex hub = 0;
    const auto degree = [&](topo::AsIndex as) {
        return topo.providersOf(as).size() + topo.customersOf(as).size() +
               topo.peersOf(as).size();
    };
    for (topo::AsIndex as = 1; as < n; ++as) {
        if (degree(as) > degree(hub)) {
            hub = as;
        }
    }
    LinkFilter hubDown;
    hubDown.disableAs(hub);
    grid.push_back({"disabled-hub", std::move(hubDown)});

    LinkFilter peerCut;
    for (const auto& link : topo.links()) {
        if (link.kind == topo::LinkKind::PeerToPeer && rng.bernoulli(0.5)) {
            peerCut.disableLink(link.a, link.b);
        }
    }
    grid.push_back({"peer-links-only", std::move(peerCut)});

    // Links the topology does not have — non-adjacent pairs and indices
    // past the AS range — next to one real cut: the absent ones must be
    // skipped, never mistaken for a slot.
    LinkFilter absent;
    int nonAdjacent = 0;
    for (topo::AsIndex a = 0; a < n && nonAdjacent < 16; a += 7) {
        const topo::AsIndex b = (a * 31 + 17) % n;
        if (a != b && !topo.hasLink(a, b)) {
            absent.disableLink(a, b);
            ++nonAdjacent;
        }
    }
    absent.disableLink(n + 5, 2);
    absent.disableLink(n + 1, n + 9);
    absent.disableLink(topo.links().front().a, topo.links().front().b);
    grid.push_back({"absent-links", std::move(absent)});
    return grid;
}

void expectRowsMatch(const topo::Topology& topo, std::uint64_t seed,
                     const std::string& label) {
    const std::size_t n = topo.asCount();
    const kernel::RouteGraph graph{topo};
    kernel::DestScratch scratch;
    scratch.prepare(n);
    reference::DestScratch referenceScratch;
    referenceScratch.prepare(n);
    std::vector<std::int32_t> next(n);
    std::vector<std::uint8_t> klass(n);
    std::vector<std::int32_t> wantNext(n);
    std::vector<std::uint8_t> wantKlass(n);
    constexpr auto kNone = static_cast<std::uint8_t>(RouteClass::None);

    for (const NamedFilter& named : filterGrid(topo, seed)) {
        const kernel::CompiledFilter compiled{graph, named.filter};
        std::size_t mismatchedRows = 0;
        for (topo::AsIndex dst = 0; dst < n; ++dst) {
            std::ranges::fill(next, -1);
            std::ranges::fill(klass, kNone);
            std::ranges::fill(wantNext, -1);
            std::ranges::fill(wantKlass, kNone);
            kernel::solveDestination(graph, compiled, dst, next.data(),
                                     klass.data(), scratch);
            reference::solveDestination(topo, named.filter, dst,
                                        wantNext.data(), wantKlass.data(),
                                        referenceScratch);
            if (next != wantNext || klass != wantKlass) {
                ++mismatchedRows;
                continue;
            }
            // The slot the kernel hands the sharded encoding must name
            // the same next hop.
            for (topo::AsIndex src = 0; src < n; ++src) {
                if (klass[src] != kNone && src != dst) {
                    ASSERT_EQ(graph.csr.neighborAt(src, scratch.hopSlot[src]),
                              static_cast<topo::AsIndex>(next[src]))
                        << label << " " << named.name << " dst=" << dst
                        << " src=" << src;
                }
            }
        }
        EXPECT_EQ(mismatchedRows, 0U) << label << " " << named.name;
    }
}

TEST(KernelEquivalence, EveryRowMatchesTheReferenceKernel) {
    for (const std::uint64_t seed : {3ULL, 11ULL}) {
        for (const bool small : {true, false}) {
            const topo::Topology topo =
                topo::TopologyGenerator{sizedConfig(seed, small)}.generate();
            expectRowsMatch(topo, seed,
                            "seed=" + std::to_string(seed) +
                                (small ? " small" : " default"));
        }
    }
}

TEST(KernelEquivalence, ContinentalRowsMatchTheReferenceKernel) {
    const topo::Topology topo = topo::TopologyGenerator{
        topo::GeneratorConfig::continental(1000, 5)}.generate();
    expectRowsMatch(topo, 5, "continental(1000)");
}

} // namespace
} // namespace aio::route
