#pragma once

// The traced run: each point is assembled from the same public pieces that
// run_workload uses, with a host-clock span around every call into a layer,
// and the layers' work counters read through their public accessors. Plus
// per-call probes that time one layer's hot function directly.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Per-layer totals summed over a workload's points.
struct LayerTotals {
  // Spans (host seconds).
  double build_s = 0;    ///< network constructors
  double plan_s = 0;     ///< compile_workload
  double run_s = 0;      ///< TrafficDriver + run_until + final audit
  double metrics_s = 0;  ///< compute_metrics

  // Work counts.
  std::uint64_t events = 0;
  std::uint64_t passes = 0;
  std::uint64_t passes_elided = 0;
  std::uint64_t slot_advances = 0;
  std::uint64_t slots_skipped = 0;
  std::uint64_t commits = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t worms = 0;
  std::uint64_t dispatch_misses = 0;
  std::uint64_t circuits_established = 0;
  /// Dynamic-TDM slot ticks, the ticks with no live slot, the port-slots of
  /// live ticks, and the grants among them that found an empty VOQ.
  std::uint64_t tdm_ticks = 0;
  std::uint64_t idle_slots = 0;
  std::uint64_t live_port_slots = 0;
  std::uint64_t idle_grants = 0;
  std::uint64_t evictions = 0;
  std::uint64_t flushes = 0;
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t queue_depth_max = 0;
  std::uint64_t ctrl_rerequests = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t ctrl_messages = 0;
  std::uint64_t ctrl_dropped = 0;
  std::uint64_t solves = 0;
  std::uint64_t proposals = 0;
  std::uint64_t applies = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t audits = 0;
  std::uint64_t audit_violations = 0;

  /// The deterministic counts, by metric name, for exact comparison.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counts()
      const;
};

/// Simulate one point the way run_workload does, adding spans and counts
/// to `totals`. The result must equal run_workload's.
[[nodiscard]] pmx::RunResult traced_run(const PointSpec& spec,
                                        const pmx::Workload& workload,
                                        LayerTotals& totals);

/// Host nanoseconds per call of each layer's hot function, measured at the
/// workload's N and K on the (src,dst) pairs its programs send on.
struct Probes {
  double queue_op_ns = 0;      ///< Simulator schedule + pop of one event
  double advance_slot_ns = 0;  ///< TdmScheduler::advance_slot
  double pass_ns = 0;          ///< TdmScheduler::run_pass after a toggle
  double load_ns = 0;          ///< Crossbar::load
  double collect_ns = 0;       ///< Predictor::collect_evictions (+ reuse)
  double voq_op_ns = 0;        ///< VoqSet push + consume of one message
  double solve_ns = 0;         ///< SlotOptimizer::solve
};

[[nodiscard]] Probes run_probes(const std::vector<PointSpec>& specs,
                                const std::vector<pmx::Workload>& workloads);

}  // namespace perfbench
