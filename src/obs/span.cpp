#include "obs/span.hpp"

#include <sstream>
#include <utility>

#include "netbase/error.hpp"
#include "netbase/stats.hpp"

namespace aio::obs {

Span::Span(Span&& other) noexcept
    : trace_(std::exchange(other.trace_, nullptr)),
      startNanos_(other.startNanos_) {}

Span& Span::operator=(Span&& other) noexcept {
    if (this != &other) {
        close();
        trace_ = std::exchange(other.trace_, nullptr);
        startNanos_ = other.startNanos_;
    }
    return *this;
}

void Span::close() {
    if (trace_ != nullptr) {
        std::exchange(trace_, nullptr)->closeSpan(startNanos_);
    }
}

Trace::Trace(const Clock* clock)
    : clock_(clock != nullptr ? clock : &processSteadyClock()),
      current_(&root_) {
    root_.name = "campaign";
}

Trace::Node* Trace::childNode(std::string_view name) {
    for (const auto& candidate : current_->children) {
        if (candidate->name == name) {
            return candidate.get();
        }
    }
    auto owned = std::make_unique<Node>();
    owned->name = std::string{name};
    owned->parent = current_;
    Node* child = owned.get();
    current_->children.push_back(std::move(owned));
    return child;
}

Span Trace::span(std::string_view name) {
    Node* child = childNode(name);
    ++child->count;
    current_ = child;
    return Span{this, clock_->nowNanos()};
}

void Trace::closeSpan(std::uint64_t startNanos) {
    AIO_EXPECTS(current_ != &root_,
                "span close without a matching open (non-LIFO close?)");
    current_->totalNanos += clock_->nowNanos() - startNanos;
    current_ = current_->parent;
}

void Trace::clear() {
    AIO_EXPECTS(current_ == &root_, "cannot clear a trace with open spans");
    root_.children.clear();
    root_.count = 0;
    root_.totalNanos = 0;
}

namespace {

std::string ms(std::uint64_t nanos) {
    return net::TextTable::num(static_cast<double>(nanos) * 1e-6, 3);
}

} // namespace

std::string Trace::json() const {
    std::ostringstream out;
    const auto emit = [&out](const Node& node, const auto& self) -> void {
        out << "{\"name\":\"" << node.name
            << "\",\"count\":" << node.count << ",\"ms\":"
            << ms(node.totalNanos) << ",\"children\":[";
        for (std::size_t i = 0; i < node.children.size(); ++i) {
            if (i > 0) {
                out << ',';
            }
            self(*node.children[i], self);
        }
        out << "]}";
    };
    emit(root_, emit);
    return out.str();
}

std::string Trace::table() const {
    net::TextTable table({"span", "count", "total ms"});
    const auto emit = [&table](const Node& node, int depth,
                               const auto& self) -> void {
        table.addRow({std::string(static_cast<std::size_t>(depth) * 2, ' ') +
                          node.name,
                      std::to_string(node.count), ms(node.totalNanos)});
        for (const auto& child : node.children) {
            self(*child, depth + 1, self);
        }
    };
    emit(root_, 0, emit);
    return table.render();
}

} // namespace aio::obs
