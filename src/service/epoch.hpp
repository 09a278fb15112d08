#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "service/snapshot.hpp"

namespace aio::service {

class EpochRegistry;

/// RAII pin on one epoch's snapshot: while any pin is alive the registry
/// keeps that snapshot resident, even across later publishes. Handlers
/// pin once per request and read lock-free for the request's whole
/// lifetime — the snapshot itself is immutable.
class PinnedSnapshot {
public:
    PinnedSnapshot(PinnedSnapshot&& other) noexcept;
    PinnedSnapshot& operator=(PinnedSnapshot&& other) noexcept;
    PinnedSnapshot(const PinnedSnapshot&) = delete;
    PinnedSnapshot& operator=(const PinnedSnapshot&) = delete;
    ~PinnedSnapshot();

    [[nodiscard]] const ServiceSnapshot& operator*() const {
        return *snapshot_;
    }
    [[nodiscard]] const ServiceSnapshot* operator->() const {
        return snapshot_;
    }
    [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

private:
    friend class EpochRegistry;
    PinnedSnapshot(EpochRegistry* registry, std::uint64_t epoch,
                   const ServiceSnapshot* snapshot)
        : registry_(registry), epoch_(epoch), snapshot_(snapshot) {}

    void release() noexcept;

    EpochRegistry* registry_ = nullptr;
    std::uint64_t epoch_ = 0;
    const ServiceSnapshot* snapshot_ = nullptr;
};

/// Epoch-based snapshot publication: publish() installs a new current
/// epoch; pin() hands a reader the current snapshot and counts it in.
/// A superseded epoch is retired, not freed — its snapshot is reclaimed
/// only when its pin count drains to zero, so readers never observe a
/// snapshot dying under them and never block a writer. Both operations
/// are a short critical section (pointer + counter bookkeeping); all
/// snapshot reads happen outside the lock.
class EpochRegistry {
public:
    /// `metrics` (optional, not owned) receives `service.epoch` /
    /// `service.live_epochs` gauges and a `service.epochs_reclaimed`
    /// counter.
    explicit EpochRegistry(obs::MetricsRegistry* metrics = nullptr);

    /// Installs `snapshot` as the current epoch and returns its number
    /// (monotonic from 1). The previous epoch is retired; it is freed
    /// immediately when nothing pins it.
    std::uint64_t publish(std::shared_ptr<const ServiceSnapshot> snapshot);

    /// Pins the current epoch. Throws net::PreconditionError when
    /// nothing was ever published.
    [[nodiscard]] PinnedSnapshot pin();

    [[nodiscard]] std::uint64_t currentEpoch() const;
    /// Epochs still resident: the current one plus retired epochs whose
    /// pins have not drained.
    [[nodiscard]] std::size_t liveEpochs() const;
    /// Retired snapshots actually freed after their pin count drained.
    [[nodiscard]] std::uint64_t reclaimed() const;
    /// Sum of live resident bytes across every live epoch's snapshot.
    [[nodiscard]] std::uint64_t residentBytes() const;

private:
    friend class PinnedSnapshot;

    struct Entry {
        std::uint64_t epoch = 0;
        std::shared_ptr<const ServiceSnapshot> snapshot;
        std::size_t pins = 0;
    };

    void unpin(std::uint64_t epoch) noexcept;
    void publishGaugesLocked();

    obs::Metrics metrics_;
    mutable std::mutex mutex_;
    std::vector<Entry> live_; ///< ascending epoch; back() is current
    std::uint64_t epoch_ = 0;
    std::uint64_t reclaimed_ = 0;
};

} // namespace aio::service
