#pragma once

#include <memory>
#include <span>

#include "core/substrate.hpp"
#include "netbase/expected.hpp"
#include "outage/impact.hpp"
#include "outage/radar.hpp"

namespace aio::core {

/// The "what-if" analysis engine the paper's conclusion calls for: apply
/// a hypothetical intervention (a geographically diverse cable, resolver
/// localization mandates, content localization) and re-evaluate outage
/// impact / dependency metrics on the same substrate.
///
/// An engine borrows a `Substrate` and evaluates against its baseline
/// layers, so engines over one substrate share one baseline.
/// `withScenario(spec)` returns an engine owning the substrate's
/// `withOverlay(spec)` derivation: same topology, accelerators and seeds,
/// so before/after differences isolate the intervention. For evaluating
/// scenarios in bulk, prefer `sweep::ScenarioSweepEngine`, which adds
/// incremental route recomputation and cut-set dedupe on top of the same
/// substrate.
class WhatIfEngine {
public:
    /// `substrate` must outlive the engine and every engine derived from
    /// it: derived engines own their overlay substrate but share the
    /// topology and accelerators (one route cache serves them all).
    explicit WhatIfEngine(const Substrate& substrate);

    /// Applies a ScenarioSpec's *overlay* (cables added + config
    /// overrides) in one step; the spec's cut set is an event, not part
    /// of the engine — build it with tryMakeCutEvent on the result.
    [[nodiscard]] WhatIfEngine withScenario(const ScenarioSpec& spec) const;

    // ---- evaluation ----
    /// Builds a cable-cut event from cable names in THIS engine's
    /// registry; an unknown name or an empty list is returned as an
    /// error value (so a sweep can degrade one scenario, not the batch).
    [[nodiscard]] net::Expected<outage::OutageEvent>
    tryMakeCutEvent(std::span<const std::string> cableNames,
                    double repairDays = 21.0) const;

    /// Throwing convenience over tryMakeCutEvent (NotFoundError /
    /// PreconditionError), kept for existing call sites.
    [[nodiscard]] outage::OutageEvent
    makeCutEvent(std::span<const std::string> cableNames,
                 double repairDays = 21.0) const;

    /// Assesses an event deterministically (fixed impact-sampling seed).
    [[nodiscard]] outage::ImpactReport
    assess(const outage::OutageEvent& event) const;

    /// Content locality (Fig. 2b metric) under this configuration.
    [[nodiscard]] double contentLocalShare() const;

    /// DNS failure share for one country under an event.
    [[nodiscard]] double
    dnsFailureShare(std::string_view country,
                    const outage::OutageEvent& event) const;

    [[nodiscard]] const phys::CableRegistry& registry() const {
        return substrate_->registry();
    }

private:
    const Substrate* substrate_;
    /// The overlay substrate of an engine built by withScenario(); null
    /// when the engine borrows a caller's substrate. Heap-held so
    /// substrate_ stays valid across engine moves.
    std::unique_ptr<const Substrate> owned_;
};

} // namespace aio::core
