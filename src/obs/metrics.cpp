#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <sstream>

#include "netbase/error.hpp"
#include "netbase/stats.hpp"

namespace aio::obs {

const Clock& processSteadyClock() {
    static const SteadyClock clock;
    return clock;
}

namespace {

std::uint64_t bitsOf(double value) {
    return std::bit_cast<std::uint64_t>(value);
}

double doubleOf(std::uint64_t bits) {
    return std::bit_cast<double>(bits);
}

/// CAS-loop floor/ceiling update on double bits (lock-free extrema).
template <typename Better>
void updateExtremum(std::atomic<std::uint64_t>& bits, double candidate,
                    Better better) {
    std::uint64_t seen = bits.load(std::memory_order_relaxed);
    while (better(candidate, doubleOf(seen)) &&
           !bits.compare_exchange_weak(seen, bitsOf(candidate),
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

void Gauge::set(double value) {
    AIO_EXPECTS(std::isfinite(value), "gauge value must be finite");
    bits_.store(bitsOf(value), std::memory_order_relaxed);
}

double Gauge::value() const {
    return doubleOf(bits_.load(std::memory_order_relaxed));
}

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)), buckets_(bounds_.size() + 1),
      minBits_(bitsOf(std::numeric_limits<double>::infinity())),
      maxBits_(bitsOf(-std::numeric_limits<double>::infinity())) {
    AIO_EXPECTS(!bounds_.empty(), "histogram needs at least one bucket");
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        AIO_EXPECTS(std::isfinite(bounds_[i]),
                    "histogram bounds must be finite");
        AIO_EXPECTS(i == 0 || bounds_[i - 1] < bounds_[i],
                    "histogram bounds must be strictly increasing");
    }
}

std::span<const double> Histogram::defaultSecondsBounds() {
    static constexpr std::array<double, 9> kBounds{
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0};
    return kBounds;
}

void Histogram::record(double value) {
    AIO_EXPECTS(std::isfinite(value),
                "histogram sample must be finite (no NaN/Inf)");
    const auto it = std::ranges::lower_bound(bounds_, value);
    const auto bucket =
        static_cast<std::size_t>(it - bounds_.begin()); // overflow = last
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    updateExtremum(minBits_, value, std::less<>{});
    updateExtremum(maxBits_, value, std::greater<>{});
}

Histogram::Snapshot Histogram::snapshot() const {
    Snapshot snap;
    snap.bounds = bounds_;
    snap.counts.reserve(buckets_.size());
    for (const auto& bucket : buckets_) {
        const std::uint64_t n = bucket.load(std::memory_order_relaxed);
        snap.counts.push_back(n);
        snap.count += n;
    }
    snap.sum = sum_.load(std::memory_order_relaxed);
    if (snap.count > 0) {
        snap.min = doubleOf(minBits_.load(std::memory_order_relaxed));
        snap.max = doubleOf(maxBits_.load(std::memory_order_relaxed));
    }
    return snap;
}

double Histogram::Snapshot::percentile(double p) const {
    AIO_EXPECTS(count > 0, "percentile of an empty histogram");
    AIO_EXPECTS(p >= 0.0 && p <= 100.0, "percentile p must be in [0,100]");
    // Same fractional-rank convention as net::percentile: rank r falls
    // between sample r (floor) and r+1, interpolated linearly — here the
    // samples inside a bucket are assumed evenly spread across it.
    const double rank =
        p / 100.0 * static_cast<double>(count - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const std::uint64_t n = counts[i];
        if (n == 0) {
            continue;
        }
        if (rank < static_cast<double>(seen + n) ||
            seen + n == count) {
            const double lowerEdge = i == 0 ? min : bounds[i - 1];
            const double upperEdge = i < bounds.size() ? bounds[i] : max;
            const double lo = std::max(lowerEdge, min);
            const double hi = std::min(upperEdge, max);
            if (n == 1) {
                return hi;
            }
            const double frac = std::clamp(
                (rank - static_cast<double>(seen)) /
                    static_cast<double>(n - 1),
                0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
        seen += n;
    }
    return max; // unreachable: the loop always terminates in-bucket
}

MetricsRegistry::MetricsRegistry(const Clock* clock)
    : clock_(clock != nullptr ? clock : &processSteadyClock()) {}

Counter& MetricsRegistry::counter(std::string_view name) {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = counters_.find(name);
    if (it != counters_.end()) {
        return *it->second;
    }
    return *counters_.emplace(std::string{name},
                              std::make_unique<Counter>())
                .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) {
        return *it->second;
    }
    return *gauges_.emplace(std::string{name}, std::make_unique<Gauge>())
                .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> upperBounds) {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) {
        return *it->second;
    }
    const std::span<const double> bounds =
        upperBounds.empty() ? Histogram::defaultSecondsBounds()
                            : upperBounds;
    return *histograms_
                .emplace(std::string{name},
                         std::make_unique<Histogram>(std::vector<double>(
                             bounds.begin(), bounds.end())))
                .first->second;
}

std::string MetricsRegistry::table() const {
    net::TextTable table(
        {"metric", "kind", "count", "sum", "p50", "p90", "p99"});
    const std::lock_guard<std::mutex> lock{mutex_};
    for (const auto& [name, counter] : counters_) {
        table.addRow({name, "counter", std::to_string(counter->value()),
                      "-", "-", "-", "-"});
    }
    for (const auto& [name, gauge] : gauges_) {
        table.addRow({name, "gauge", "-",
                      net::TextTable::num(gauge->value(), 3), "-", "-",
                      "-"});
    }
    for (const auto& [name, histogram] : histograms_) {
        const Histogram::Snapshot snap = histogram->snapshot();
        if (snap.count == 0) {
            table.addRow(
                {name, "histogram", "0", "0.000", "-", "-", "-"});
            continue;
        }
        table.addRow({name, "histogram", std::to_string(snap.count),
                      net::TextTable::num(snap.sum, 3),
                      net::TextTable::num(snap.p50(), 6),
                      net::TextTable::num(snap.p90(), 6),
                      net::TextTable::num(snap.p99(), 6)});
    }
    return table.render();
}

std::string MetricsRegistry::json() const {
    std::ostringstream out;
    const auto num = [](double value) {
        return net::TextTable::num(value, 6);
    };
    const std::lock_guard<std::mutex> lock{mutex_};
    out << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, counter] : counters_) {
        out << (first ? "" : ",") << '"' << name
            << "\":" << counter->value();
        first = false;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto& [name, gauge] : gauges_) {
        out << (first ? "" : ",") << '"' << name
            << "\":" << num(gauge->value());
        first = false;
    }
    out << "},\"histograms\":{";
    first = true;
    for (const auto& [name, histogram] : histograms_) {
        const Histogram::Snapshot snap = histogram->snapshot();
        out << (first ? "" : ",") << '"' << name
            << "\":{\"count\":" << snap.count << ",\"sum\":"
            << num(snap.sum);
        if (snap.count > 0) {
            out << ",\"p50\":" << num(snap.p50())
                << ",\"p90\":" << num(snap.p90())
                << ",\"p99\":" << num(snap.p99());
        }
        out << ",\"buckets\":[";
        for (std::size_t i = 0; i < snap.counts.size(); ++i) {
            out << (i == 0 ? "" : ",") << "{\"le\":"
                << (i < snap.bounds.size() ? num(snap.bounds[i])
                                           : std::string{"\"inf\""})
                << ",\"n\":" << snap.counts[i] << '}';
        }
        out << "]}";
        first = false;
    }
    out << "}}";
    return out.str();
}

} // namespace aio::obs
