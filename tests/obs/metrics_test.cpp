#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "netbase/error.hpp"
#include "obs/clock.hpp"

namespace aio::obs {
namespace {

TEST(Counter, AccumulatesAndDefaultsToOne) {
    Counter counter;
    EXPECT_EQ(counter.value(), 0U);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42U);
}

TEST(Gauge, LastWriteWins) {
    Gauge gauge;
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set(3.5);
    gauge.set(-7.25);
    EXPECT_EQ(gauge.value(), -7.25);
}

TEST(Histogram, ValuesOnTheBoundaryLandInTheLowerBucket) {
    // Bucket i counts values <= bounds[i]: the boundary itself belongs to
    // the bucket it bounds, the next representable value above it does
    // not. This is the edge the percentile math depends on.
    Histogram h{{1.0, 2.0, 4.0}};
    h.record(1.0);                                     // bucket 0, exactly
    h.record(std::nextafter(1.0, 2.0));                // bucket 1, just over
    h.record(2.0);                                     // bucket 1, exactly
    h.record(4.0);                                     // bucket 2, exactly
    h.record(std::nextafter(4.0, 5.0));                // overflow
    h.record(100.0);                                   // overflow
    const Histogram::Snapshot snap = h.snapshot();
    ASSERT_EQ(snap.counts.size(), 4U);
    EXPECT_EQ(snap.counts[0], 1U);
    EXPECT_EQ(snap.counts[1], 2U);
    EXPECT_EQ(snap.counts[2], 1U);
    EXPECT_EQ(snap.counts[3], 2U);
    EXPECT_EQ(snap.count, 6U);
    EXPECT_EQ(snap.min, 1.0);
    EXPECT_EQ(snap.max, 100.0);
}

TEST(Histogram, RejectsNaNAndInf) {
    Histogram h{{1.0}};
    EXPECT_THROW(h.record(std::numeric_limits<double>::quiet_NaN()),
                 net::PreconditionError);
    EXPECT_THROW(h.record(std::numeric_limits<double>::infinity()),
                 net::PreconditionError);
    EXPECT_THROW(h.record(-std::numeric_limits<double>::infinity()),
                 net::PreconditionError);
    EXPECT_EQ(h.count(), 0U) << "rejected samples must not be counted";
}

TEST(Histogram, RejectsBadBucketLayouts) {
    EXPECT_THROW(Histogram{std::vector<double>{}}, net::PreconditionError);
    EXPECT_THROW((Histogram{{1.0, 1.0}}), net::PreconditionError);
    EXPECT_THROW((Histogram{{2.0, 1.0}}), net::PreconditionError);
    EXPECT_THROW(
        (Histogram{{1.0, std::numeric_limits<double>::infinity()}}),
        net::PreconditionError);
}

TEST(Histogram, EmptySnapshotHasNoPercentile) {
    const Histogram h{{1.0, 2.0}};
    EXPECT_THROW((void)h.snapshot().p50(), net::PreconditionError);
    EXPECT_EQ(h.snapshot().mean(), 0.0);
}

TEST(Histogram, SingleSampleIsExactAtEveryQuantile) {
    Histogram h{{1.0, 10.0, 100.0}};
    h.record(5.0);
    const auto snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.percentile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(snap.p50(), 5.0);
    EXPECT_DOUBLE_EQ(snap.percentile(100.0), 5.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 5.0);
}

TEST(Histogram, QuantilesInterpolateWithinOneBucketWidth) {
    // 1..100 into decade-width buckets: quantiles are exact at the
    // extrema and accurate to one bucket width in between.
    Histogram h{{10.0, 20.0, 30.0, 40.0, 50.0,
                 60.0, 70.0, 80.0, 90.0, 100.0}};
    for (int i = 1; i <= 100; ++i) {
        h.record(static_cast<double>(i));
    }
    const auto snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(snap.percentile(100.0), 100.0);
    EXPECT_NEAR(snap.p50(), 50.0, 10.0);
    EXPECT_NEAR(snap.p90(), 90.0, 10.0);
    EXPECT_NEAR(snap.p99(), 99.0, 10.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 50.5);
}

TEST(Histogram, PercentileClampsToRecordedExtrema) {
    // One sample deep in a wide bucket: interpolation must not report a
    // bucket edge the data never reached.
    Histogram h{{1000.0}};
    h.record(3.0);
    h.record(7.0);
    const auto snap = h.snapshot();
    EXPECT_GE(snap.p50(), 3.0);
    EXPECT_LE(snap.p99(), 7.0);
}

TEST(MetricsRegistry, SameNameReturnsTheSameMetric) {
    MetricsRegistry registry;
    EXPECT_EQ(&registry.counter("a"), &registry.counter("a"));
    EXPECT_NE(&registry.counter("a"), &registry.counter("b"));
    EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
    EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
}

TEST(MetricsRegistry, HistogramBoundsApplyOnlyOnFirstCreation) {
    MetricsRegistry registry;
    const std::vector<double> bounds{1.0, 2.0};
    Histogram& h = registry.histogram("h", bounds);
    h.record(1.5);
    // A later caller with different bounds gets the existing histogram.
    Histogram& again = registry.histogram("h", {});
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.snapshot().bounds, bounds);
}

TEST(MetricsRegistry, TableAndJsonAreStableAndSorted) {
    ManualClock clock;
    MetricsRegistry registry{&clock};
    registry.counter("zeta").add(3);
    registry.counter("alpha").add(1);
    registry.gauge("mid").set(2.5);
    registry.histogram("lat", {{1.0}}).record(0.5);

    const std::string json = registry.json();
    EXPECT_EQ(json, registry.json()) << "repeated export must be stable";
    EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);

    const std::string table = registry.table();
    EXPECT_NE(table.find("alpha"), std::string::npos);
    EXPECT_NE(table.find("mid"), std::string::npos);
    EXPECT_NE(table.find("lat"), std::string::npos);
}

TEST(ScopedTimer, RecordsManualClockElapsedSeconds) {
    ManualClock clock;
    MetricsRegistry registry{&clock};
    {
        const ScopedTimer timer{&registry, "op_seconds"};
        clock.advance(2'000'000); // 2 ms
    }
    const auto snap = registry.histogram("op_seconds").snapshot();
    EXPECT_EQ(snap.count, 1U);
    EXPECT_DOUBLE_EQ(snap.sum, 0.002);
}

TEST(ScopedTimer, NullRegistryIsInert) {
    const ScopedTimer timer{nullptr, "ignored"};
    SUCCEED();
}

/// Counts its reads, so a test can prove a path never reads the clock.
class CountingClock final : public Clock {
public:
    [[nodiscard]] std::uint64_t nowNanos() const override {
        ++reads;
        return reads * 1000;
    }
    mutable std::uint64_t reads = 0;
};

TEST(Metrics, NullHandleWritesNothingAndReadsNoClock) {
    const Metrics off;
    EXPECT_FALSE(off);
    EXPECT_EQ(off.registry(), nullptr);
    off.add("c", 3);
    off.set("g", 1.5);
    off.record("h", 0.25);
    { const ScopedTimer timer{off, "t"}; }
    // Without a registry the clock is the one process SteadyClock.
    EXPECT_EQ(&off.clock(), &processSteadyClock());

    // A registered clock stays unread until a handle is wired to it, and
    // an enabled handle reads it only for timers: twice per timer.
    const CountingClock clock;
    MetricsRegistry registry{&clock};
    EXPECT_EQ(clock.reads, 0U);
    const Metrics on{&registry};
    on.add("c");
    on.set("g", 1.0);
    on.record("h", 1.0);
    EXPECT_EQ(clock.reads, 0U);
    { const ScopedTimer timer{on, "t"}; }
    EXPECT_EQ(clock.reads, 2U);
}

TEST(Metrics, EnabledHandleWritesWhatDirectRegistryCallsWrite) {
    static constexpr std::array<double, 2> kBounds{1.0, 4.0};
    ManualClock clock;
    MetricsRegistry viaHandle{&clock};
    MetricsRegistry direct{&clock};
    const Metrics on{&viaHandle};
    ASSERT_TRUE(on);
    EXPECT_EQ(&on.clock(), &clock);

    on.add("c");
    on.add("c", 41);
    on.set("g", -2.5);
    on.record("h", 3.0, kBounds);
    on.record("h", 0.5);
    {
        const ScopedTimer timer{on, "t"};
        clock.advance(3'000);
    }
    direct.counter("c").add();
    direct.counter("c").add(41);
    direct.gauge("g").set(-2.5);
    direct.histogram("h", kBounds).record(3.0);
    direct.histogram("h").record(0.5);
    direct.histogram("t").record(static_cast<double>(3'000) * 1e-9);
    EXPECT_EQ(viaHandle.json(), direct.json());
}

} // namespace
} // namespace aio::obs
