#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/time.hpp"
#include "control/reopt_params.hpp"
#include "control/slot_optimizer.hpp"
#include "fault/control_fault.hpp"
#include "sim/simulator.hpp"

namespace pmx {

/// Disruption ledger of the re-optimization loop, surfaced via RunMetrics.
/// All accounting is integral; percentiles are computed at metrics time.
struct ReoptStats {
  std::uint64_t solves = 0;            ///< service ticks that ran the solver
  std::uint64_t proposals = 0;         ///< proposals staged (incl. chaos)
  std::uint64_t chaos_proposals = 0;   ///< chaos-hook poison proposals
  std::uint64_t cmds_lost = 0;         ///< reconfig commands lost in transit
  std::uint64_t applies = 0;           ///< proposals applied to the fabric
  std::uint64_t rollbacks = 0;         ///< applies reverted by the guard
  std::uint64_t invalidated_ctrl = 0;  ///< in-flight ctrl msgs invalidated
                                       ///< by apply/rollback resyncs
  /// Stage-to-apply latency of every applied proposal, in ns.
  std::vector<std::int64_t> apply_latency_ns;
  /// Worst probation shortfall: baseline-expected bytes minus bytes
  /// actually delivered, over the probations that rolled back.
  std::uint64_t dip_depth_bytes = 0;
  /// Total time spent inside probation windows that ended in rollback.
  std::int64_t dip_duration_ns = 0;
};

/// Epoch-safe apply path of the service loop (DESIGN.md §14).
///
/// State machine: Idle -> Staged (reconfig command in flight on the lossy
/// control channel) -> Probation (new tables live, goodput and auditor
/// watched) -> Idle, either by commit or by rollback to the stashed
/// pre-apply tables. At most one proposal is ever in flight -- the next
/// solve waits until the applier returns to Idle, which bounds disruption
/// to one reconfiguration per probation window.
///
/// The apply hook is provided by the owning network: it installs the
/// tables, drains/re-credits in-flight state through the A7 resync path
/// (ControlPlane epoch bump), and returns how many in-flight control
/// messages the epoch bump invalidated. Rollback reuses the same hook with
/// the stashed tables, unpinned, so the reactive path owns every slot again
/// after a failed reconfiguration.
class ReconfigApplier {
 public:
  enum class State : std::uint8_t { kIdle, kStaged, kProbation };

  struct Hooks {
    /// Install `tables` (pin when `pinned`), resync in-flight state, and
    /// return the number of invalidated in-flight control messages.
    std::function<std::uint64_t(const std::vector<BitMatrix>&, bool pinned)>
        apply;
    /// Live configuration registers (stashed for rollback).
    std::function<std::vector<BitMatrix>()> capture;
    /// Monotonic count of payload bytes delivered so far.
    std::function<std::uint64_t()> delivered_bytes;
    /// Monotonic count of auditor violations so far (0 when no auditor).
    std::function<std::uint64_t()> violations;
  };

  /// `ctrl` may be null: reconfig commands then use a lossless scheduled
  /// delivery (the maintenance channel of a fault-free configuration).
  ReconfigApplier(Simulator& sim, ControlFaultModel* ctrl, TimeNs slot_length,
                  TimeNs wire_latency, Hooks hooks, ReoptStats& stats);

  /// Stage one proposal: the reconfig command crosses the control channel
  /// after `stage_latency` (the budgeted solve cost) plus the wire. May be
  /// dropped (counted, applier returns to Idle). `baseline_window_bytes`
  /// is the goodput of the service window preceding the stage, used to
  /// size the probation guard; `queued_bytes` is the VOQ backlog at stage
  /// time, which keeps the guard armed even when that window delivered
  /// nothing (a starved fabric is not an idle one). `chaos` marks a poison
  /// proposal.
  void stage(SlotOptimizer::Proposal proposal, TimeNs stage_latency,
             std::uint64_t baseline_window_bytes, TimeNs baseline_window,
             std::uint64_t queued_bytes, bool chaos);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool idle() const { return state_ == State::kIdle; }

 private:
  void on_command_arrival(std::uint64_t gen);
  void on_probation_end(std::uint64_t gen);

  Simulator& sim_;
  ControlFaultModel* ctrl_;
  TimeNs slot_length_;
  TimeNs wire_;
  Hooks hooks_;
  ReoptStats& stats_;

  State state_ = State::kIdle;
  /// Generation guard for the in-flight command / probation-end events;
  /// bumped whenever the state machine resets, mirroring the ControlPlane
  /// epoch pattern (equality-compared, so wraparound is harmless).
  std::uint64_t gen_ = 0;

  SlotOptimizer::Proposal staged_;
  std::vector<BitMatrix> stashed_;     ///< pre-apply tables for rollback
  TimeNs stage_time_{};
  std::uint64_t expected_probation_bytes_ = 0;
  TimeNs apply_time_{};
  std::uint64_t bytes_at_apply_ = 0;
  std::uint64_t violations_at_apply_ = 0;
};

}  // namespace pmx
