#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.hpp"

namespace pmx {

/// Configuration of the online slot-table re-optimization service loop
/// (DESIGN.md §14). Disabled by default: no service is instantiated and the
/// system behaves bit-identically to the static design, mirroring the
/// fault/ctrl/audit/admission sub-parameter conventions.
struct ReoptParams {
  /// Hysteresis: a proposal is staged only when its score exceeds the
  /// score of the live tables (coverage under the same demand, zero change
  /// cost) by at least this many demand units. Suppresses churn-for-churn.
  static constexpr std::uint64_t kMinGain = 64;
  /// Probation window after an apply, in TDM slots: goodput and auditor
  /// state are watched for this long before the new tables are committed.
  static constexpr std::size_t kProbationSlots = 32;
  /// Rollback guard: if goodput delivered during probation drops below
  /// this percentage of the pre-apply baseline window, the apply is rolled
  /// back to the stashed tables.
  static constexpr std::uint32_t kGuardThresholdPct = 50;

  /// Re-solve cadence in TDM slots (the service clock's period is
  /// period_slots * slot_length). 0 disables the loop entirely.
  std::size_t period_slots = 0;

  /// EWMA smoothing shift k: at every service tick the per-pair demand
  /// average moves toward the window sample by 1/2^k of the gap. All
  /// arithmetic is integral fixed-point (see DemandEstimator).
  std::uint32_t ewma_shift = 2;

  /// Reconfiguration penalty: demand units charged per crosspoint that
  /// differs between the proposed and the live tables ("Costly Circuits" --
  /// reconfiguration has a cost that must be traded against coverage).
  std::uint64_t change_penalty = 64;

  /// Budgeted greedy solve: at most this many demand pairs are examined
  /// per solve. Each examined batch of `num_nodes` pairs costs one
  /// scheduler pass (80 ns) of staging latency, modeling the SL-array
  /// cost of evaluating candidate insertions.
  std::size_t work_budget = 256;

  /// Chaos hook for forced-rollback testing: every Nth staged proposal is
  /// replaced with deliberately demandless poison tables (a full rotation
  /// permutation pinned into every slot), guaranteeing a goodput collapse
  /// the probation guard must catch and roll back. 0 = off.
  std::size_t chaos_empty_every = 0;

  [[nodiscard]] bool enabled() const { return period_slots > 0; }

  /// Fail fast on nonsensical knobs; aborts via PMX_CHECK (definition in
  /// reopt_service.cpp so this header stays dependency-light).
  void validate() const;
};

}  // namespace pmx
