// Differential harness locking down the parallel PathOracle build and the
// failure-scenario route cache: across a seed x topology-size x
// failure-set grid, the pool-built next-hop/class matrices must be
// byte-identical to the retained sequential reference, and cached lookups
// must be byte-identical to cold recomputation.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/worker_pool.hpp"
#include "netbase/rng.hpp"
#include "routing/oracle_cache.hpp"
#include "routing/path_oracle.hpp"
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

/// The three failure sets of the grid: intact, random link cuts, and a
/// mixed link + AS outage. Deterministic per (topology, seed).
std::vector<LinkFilter> failureGrid(const topo::Topology& topo,
                                    std::uint64_t seed) {
    std::vector<LinkFilter> grid;
    grid.emplace_back(); // no failures

    net::Rng rng{seed * 1000003 + 17};
    LinkFilter cuts;
    for (const auto& link : topo.links()) {
        if (rng.bernoulli(0.05)) {
            cuts.disableLink(link.a, link.b);
        }
    }
    grid.push_back(std::move(cuts));

    LinkFilter mixed;
    for (const auto& link : topo.links()) {
        if (rng.bernoulli(0.02)) {
            mixed.disableLink(link.a, link.b);
        }
    }
    for (int i = 0; i < 12; ++i) {
        mixed.disableAs(rng.uniformInt(topo.asCount()));
    }
    grid.push_back(std::move(mixed));
    return grid;
}

void expectByteIdentical(const PathOracle& reference,
                         const PathOracle& candidate,
                         const std::string& label) {
    EXPECT_TRUE(std::ranges::equal(reference.nextHopMatrix(),
                                   candidate.nextHopMatrix()))
        << "next-hop matrix mismatch: " << label;
    EXPECT_TRUE(std::ranges::equal(reference.routeClassMatrix(),
                                   candidate.routeClassMatrix()))
        << "route-class matrix mismatch: " << label;
}

/// Polymorphic flavor for cache-returned oracles: full-matrix CRCs
/// streamed through the query surface (still every byte, not a spot
/// check).
void expectByteIdentical(const PathOracle& reference,
                         const RouteOracle& candidate,
                         const std::string& label) {
    const RouteMatrixDigest want = routeMatrixDigest(reference);
    const RouteMatrixDigest got = routeMatrixDigest(candidate);
    EXPECT_EQ(want.nextHop, got.nextHop)
        << "next-hop matrix mismatch: " << label;
    EXPECT_EQ(want.routeClass, got.routeClass)
        << "route-class matrix mismatch: " << label;
}

void runGridPoint(std::uint64_t seed, bool small) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(seed, small)}.generate();
    exec::WorkerPool pool2{2};
    exec::WorkerPool pool8{8};

    int filterIdx = 0;
    for (const LinkFilter& filter : failureGrid(topo, seed)) {
        const std::string label =
            "seed=" + std::to_string(seed) +
            (small ? " small" : " default") +
            " filter=" + std::to_string(filterIdx++);
        const PathOracle reference{topo, filter}; // sequential
        const PathOracle parallel2{topo, filter, &pool2};
        const PathOracle parallel8{topo, filter, &pool8};
        expectByteIdentical(reference, parallel2, label + " threads=2");
        expectByteIdentical(reference, parallel8, label + " threads=8");
    }
}

TEST(OracleEquivalence, SmallTopologyGrid) {
    for (const std::uint64_t seed : {3ULL, 11ULL, 20250704ULL}) {
        runGridPoint(seed, /*small=*/true);
    }
}

TEST(OracleEquivalence, DefaultTopologyGrid) {
    runGridPoint(20250704, /*small=*/false);
}

TEST(OracleEquivalence, RepeatedParallelBuildsAreDeterministic) {
    // Same pool, same inputs, many runs: byte-identical every time even
    // though the chunk schedule differs run to run.
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(5, true)}.generate();
    const auto filters = failureGrid(topo, 5);
    const LinkFilter& filter = filters[1];
    exec::WorkerPool pool{8};
    const PathOracle reference{topo, filter};
    for (int run = 0; run < 5; ++run) {
        const PathOracle rebuilt{topo, filter, &pool};
        expectByteIdentical(reference, rebuilt,
                            "run " + std::to_string(run));
    }
}

TEST(OracleEquivalence, CachedResultsEqualColdRecomputation) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(7, true)}.generate();
    exec::WorkerPool pool{4};
    OracleCache cache{topo, 8, &pool};

    for (const LinkFilter& filter : failureGrid(topo, 7)) {
        const PathOracle cold{topo, filter}; // sequential, cacheless
        const auto cachedCold = cache.get(filter); // miss: parallel build
        const auto cachedWarm = cache.get(filter); // hit: stored oracle
        expectByteIdentical(cold, *cachedCold, "cache miss path");
        expectByteIdentical(cold, *cachedWarm, "cache hit path");
        EXPECT_EQ(cachedCold.get(), cachedWarm.get())
            << "warm lookup must return the stored oracle, not a rebuild";
    }
    const OracleCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 3U);
    EXPECT_EQ(stats.hits, 3U);
    EXPECT_EQ(stats.evictions, 0U);
}

} // namespace
} // namespace aio::route
