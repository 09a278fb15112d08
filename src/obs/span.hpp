#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"

namespace aio::obs {

class Trace;

/// RAII timer for one entry into a named trace node. Closing (destruction
/// or close()) adds the elapsed clock time to the node and pops it from
/// the trace's open stack. Spans must close in LIFO order — the trace
/// models one campaign driven by one thread (parallel work inside a span
/// is accounted through the MetricsRegistry, not the trace, which is what
/// keeps the tree deterministic across worker-pool thread counts).
class Span {
public:
    Span() = default; ///< inert: close() is a no-op
    Span(Span&& other) noexcept;
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { close(); }

    void close();

private:
    friend class Trace;
    Span(Trace* trace, std::uint64_t startNanos)
        : trace_(trace), startNanos_(startNanos) {}

    Trace* trace_ = nullptr;
    std::uint64_t startNanos_ = 0;
};

/// Aggregating span tree for one campaign: entering a span named `n`
/// under the currently open span reuses (or creates) the child node `n`,
/// accumulating visit count and total time. Per-task spans therefore
/// collapse into bounded per-kind nodes — a 10k-settlement campaign
/// yields a tree of a dozen nodes, not 10k — while still answering "where
/// did the 40 s go" per phase.
///
/// Not thread-safe by design; see Span.
class Trace {
public:
    /// `clock` (optional, not owned) defaults to a process-wide
    /// SteadyClock; tests inject a ManualClock for exact assertions.
    explicit Trace(const Clock* clock = nullptr);

    Trace(const Trace&) = delete;
    Trace& operator=(const Trace&) = delete;

    /// Opens (and on first use creates) the child `name` of the innermost
    /// open span.
    [[nodiscard]] Span span(std::string_view name);

    /// Null-tolerant helper: an inert Span when `trace` is null.
    [[nodiscard]] static Span enter(Trace* trace, std::string_view name) {
        return trace == nullptr ? Span{} : trace->span(name);
    }

    /// Null-tolerant count(): a no-op when `trace` is null.
    static void count(Trace* trace, std::string_view name,
                      std::uint64_t n = 1) {
        if (trace != nullptr) {
            trace->count(name, n);
        }
    }

    /// Records `n` visits to the child `name` of the innermost open span
    /// without opening it: a pure count node (total time stays zero).
    /// This is the settlement-loop fast path — no clock reads — and the
    /// sink for batched delta publishing (supervisor checkpoint cadence).
    void count(std::string_view name, std::uint64_t n = 1) {
        childNode(name)->count += n;
    }

    /// Nested JSON export: {"name","count","ms","children":[...]}, children
    /// in first-entered order (deterministic for a deterministic driver).
    [[nodiscard]] std::string json() const;

    /// Fixed-width table: indented span path, visit count, total ms.
    [[nodiscard]] std::string table() const;

    /// Discards all recorded spans. No span may be open.
    void clear();

    [[nodiscard]] const Clock& clock() const { return *clock_; }

private:
    friend class Span;

    struct Node {
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t totalNanos = 0;
        Node* parent = nullptr;
        std::vector<std::unique_ptr<Node>> children;
    };

    void closeSpan(std::uint64_t startNanos);
    [[nodiscard]] Node* childNode(std::string_view name);

    const Clock* clock_;
    Node root_;
    Node* current_; ///< innermost open span (root_ when none open)
};

} // namespace aio::obs
