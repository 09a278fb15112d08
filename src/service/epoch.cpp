#include "service/epoch.hpp"

#include <algorithm>
#include <utility>

#include "netbase/error.hpp"

namespace aio::service {

PinnedSnapshot::PinnedSnapshot(PinnedSnapshot&& other) noexcept
    : registry_(std::exchange(other.registry_, nullptr)),
      epoch_(other.epoch_),
      snapshot_(std::exchange(other.snapshot_, nullptr)) {}

PinnedSnapshot& PinnedSnapshot::operator=(PinnedSnapshot&& other) noexcept {
    if (this != &other) {
        release();
        registry_ = std::exchange(other.registry_, nullptr);
        epoch_ = other.epoch_;
        snapshot_ = std::exchange(other.snapshot_, nullptr);
    }
    return *this;
}

PinnedSnapshot::~PinnedSnapshot() { release(); }

void PinnedSnapshot::release() noexcept {
    if (registry_ != nullptr) {
        registry_->unpin(epoch_);
        registry_ = nullptr;
        snapshot_ = nullptr;
    }
}

EpochRegistry::EpochRegistry(obs::MetricsRegistry* metrics)
    : metrics_(metrics) {}

std::uint64_t
EpochRegistry::publish(std::shared_ptr<const ServiceSnapshot> snapshot) {
    AIO_EXPECTS(snapshot != nullptr, "cannot publish a null snapshot");
    const std::lock_guard<std::mutex> lock{mutex_};
    // Retire the previous current epoch right away when nothing pins it;
    // otherwise it lingers until its last reader unpins.
    if (!live_.empty() && live_.back().pins == 0) {
        live_.pop_back();
        ++reclaimed_;
        metrics_.add("service.epochs_reclaimed");
    }
    ++epoch_;
    live_.push_back(Entry{epoch_, std::move(snapshot), 0});
    publishGaugesLocked();
    return epoch_;
}

PinnedSnapshot EpochRegistry::pin() {
    const std::lock_guard<std::mutex> lock{mutex_};
    AIO_EXPECTS(!live_.empty(), "no snapshot has been published yet");
    Entry& current = live_.back();
    ++current.pins;
    return PinnedSnapshot{this, current.epoch, current.snapshot.get()};
}

std::uint64_t EpochRegistry::currentEpoch() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return epoch_;
}

std::size_t EpochRegistry::liveEpochs() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return live_.size();
}

std::uint64_t EpochRegistry::reclaimed() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return reclaimed_;
}

std::uint64_t EpochRegistry::residentBytes() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    std::uint64_t total = 0;
    for (const Entry& entry : live_) {
        total += entry.snapshot->residentBytes();
    }
    return total;
}

void EpochRegistry::unpin(std::uint64_t epoch) noexcept {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = std::find_if(
        live_.begin(), live_.end(),
        [epoch](const Entry& entry) { return entry.epoch == epoch; });
    if (it == live_.end() || it->pins == 0) {
        return; // defensive: a stale unpin must never corrupt the list
    }
    --it->pins;
    // Drain-based reclamation: a retired epoch (anything but the
    // current back() entry) is freed the moment its last pin leaves.
    if (it->pins == 0 && it->epoch != live_.back().epoch) {
        live_.erase(it);
        ++reclaimed_;
        metrics_.add("service.epochs_reclaimed");
        publishGaugesLocked();
    }
}

void EpochRegistry::publishGaugesLocked() {
    metrics_.set("service.epoch", static_cast<double>(epoch_));
    metrics_.set("service.live_epochs", static_cast<double>(live_.size()));
}

} // namespace aio::service
