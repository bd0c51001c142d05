#pragma once

#include <cstdint>

#include "switching/network.hpp"
#include "traffic/program.hpp"

namespace pmx {

/// Uniform result metrics for one simulated run, computed identically for
/// every switching paradigm so the Figure 4/5 comparisons are apples to
/// apples.
struct RunMetrics {
  TimeNs makespan{};            ///< time of the last delivery
  std::uint64_t total_bytes = 0;
  std::size_t messages = 0;
  /// Bandwidth efficiency: serialization lower bound on the makespan (the
  /// busiest injection/ejection port, summed across barrier phases) divided
  /// by the achieved makespan. 1.0 means the bottleneck link never idled.
  double efficiency = 0.0;
  /// Aggregate delivered throughput in bytes/ns.
  double throughput = 0.0;
  double avg_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  double max_latency_ns = 0.0;

  // --- Fault-tolerance metrics (all zero when the fault layer is off) -----
  /// Bytes that crossed the fabric including retransmitted copies, per ns.
  /// goodput == throughput when nothing was ever corrupted; the gap between
  /// the two is the bandwidth tax of the reliability layer.
  double wire_throughput = 0.0;
  /// Delivered (useful) bytes per ns -- alias of `throughput`, named for
  /// the goodput-vs-throughput comparison in the fault ablation.
  double goodput = 0.0;
  std::uint64_t retransmits = 0;
  std::uint64_t crc_corruptions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t acks_lost = 0;
  std::size_t dropped_messages = 0;
  std::size_t link_faults = 0;
  std::size_t forced_releases = 0;
  /// Mean/max time from a hard link fault to the first clean delivery
  /// touching the failed node afterwards (0 when no fault recovered).
  double recovery_mean_ns = 0.0;
  double recovery_max_ns = 0.0;

  // --- Overload metrics (zero when admission control is off) --------------
  /// Injection pressure: submitted payload bytes per node-ns of submission
  /// window, as a fraction of per-port line rate. > 1.0 means the sources
  /// asked for more than the bisection can carry.
  double offered_load = 0.0;
  /// Same ratio for the traffic that was actually admitted (not shed).
  double accepted_load = 0.0;
  std::size_t shed_messages = 0;
  std::uint64_t shed_bytes = 0;
  std::size_t shed_newest = 0;    ///< tail/LIFO drops (incl. deadline misses
                                  ///< that fell back to the newcomer)
  std::size_t shed_oldest = 0;    ///< FIFO push-out drops
  std::size_t shed_deadline = 0;  ///< expired-rank evictions
  std::size_t shed_oversize = 0;  ///< larger than the whole queue budget
  std::size_t backpressure_rejects = 0;
  /// Processor time lost stalling on full NIC queues (kBackpressure only).
  std::uint64_t backpressure_stall_ns = 0;
  /// Source-queue occupancy (bytes) sampled at every admitted submission.
  double queue_depth_p50 = 0.0;
  double queue_depth_p99 = 0.0;
  std::uint64_t queue_depth_max = 0;
  /// Drain tail after the sources stop injecting: makespan minus the last
  /// submission time (time to recover to an empty network after a burst).
  double recovery_after_burst_ns = 0.0;

  // --- Control-plane metrics (zero when the control-fault layer is off) ---
  std::uint64_t ctrl_messages = 0;   ///< request/grant/release sends
  std::uint64_t ctrl_dropped = 0;
  /// Always 0: a corrupted control message is discarded by the receiver,
  /// so the channel counts it under ctrl_dropped. Kept because the run
  /// fingerprints (golden runs, benchmark gate) print it.
  std::uint64_t ctrl_corrupted = 0;
  std::uint64_t ctrl_delayed = 0;
  std::uint64_t ctrl_rerequests = 0;  ///< watchdog/revoke reissues
  std::uint64_t lease_expiries = 0;   ///< idle holds reclaimed by the lease
  std::uint64_t audits = 0;           ///< slot-auditor passes
  std::uint64_t audit_violations = 0;
  std::uint64_t resyncs = 0;          ///< full NIC <-> scheduler resyncs
  /// Mean/max time from the audit that opened a violation episode to the
  /// first clean audit afterwards (0 when nothing ever recovered).
  double resync_latency_mean_ns = 0.0;
  double resync_latency_max_ns = 0.0;

  // --- Re-optimization service metrics (zero when the service is off) -----
  std::uint64_t reopt_solves = 0;       ///< service ticks that ran the solver
  std::uint64_t reopt_proposals = 0;    ///< proposals staged (incl. chaos)
  std::uint64_t reopt_applies = 0;      ///< proposals applied to the fabric
  std::uint64_t reopt_rollbacks = 0;    ///< applies reverted by the guard
  std::uint64_t reopt_cmds_lost = 0;    ///< reconfig commands lost in transit
  /// In-flight control messages invalidated by apply/rollback resyncs.
  std::uint64_t reopt_invalidated_ctrl = 0;
  /// Stage-to-apply latency percentiles over all applied proposals.
  double reopt_apply_latency_p50_ns = 0.0;
  double reopt_apply_latency_p99_ns = 0.0;
  /// Worst probation goodput shortfall (baseline-expected minus delivered
  /// bytes) and total time spent in probations that ended in rollback.
  std::uint64_t reopt_dip_depth_bytes = 0;
  double reopt_dip_duration_ns = 0.0;

  friend bool operator==(const RunMetrics&, const RunMetrics&) = default;
};

/// Compute metrics after a run has finished. The workload provides the
/// ideal-makespan bound; the network provides the per-message records.
[[nodiscard]] RunMetrics compute_metrics(const Workload& workload,
                                         const Network& network);

}  // namespace pmx
