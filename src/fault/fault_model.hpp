#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/message.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace pmx {

/// Configuration of the fault-injection subsystem. All rates default to
/// zero, in which case no FaultModel is instantiated at all and every
/// network behaves exactly as the fault-free seed system (strict no-op).
struct FaultParams {
  /// How long the sender waits for an ACK before assuming it was lost.
  static constexpr TimeNs kRetransmitTimeout{500};

  /// Seed for the fault model's private RNG streams. Two runs with the same
  /// seed (and the same workload) inject bit-identical fault sequences.
  std::uint64_t seed = 0x5EEDF417u;

  /// Per-byte probability that a byte of payload is corrupted in transit
  /// (transient bit errors on the serial link). A message of `b` bytes
  /// arrives corrupted with probability 1 - (1-ber)^b and is caught by the
  /// receiver's CRC check.
  double ber = 0.0;

  /// Per-byte corruption probability of the 8-byte ACK/NACK control
  /// messages on the reverse path. Negative (the default) derives it from
  /// `ber`; zero makes acknowledgements reliable.
  double ack_ber = -1.0;

  /// Mean time between hard failures of one node's cable (exponentially
  /// distributed, independent per link). Zero disables hard link faults.
  TimeNs link_mtbf{0};
  /// Time a failed link stays down before it is repaired. Must be positive
  /// whenever `link_mtbf` is nonzero (validated): the retry budget is only
  /// consumed by arrivals, so traffic queued to or from a permanently dead
  /// link would wait for the repair forever and the run would hang instead
  /// of degrading. Permanent outages are still available for tests via the
  /// scripted `FaultModel::inject_link_fault` with a zero duration -- the
  /// caller then owns the no-hang guarantee (don't route barrier traffic
  /// over the dead node, or bound the run with a horizon).
  TimeNs link_repair{0};
  /// Global cap on randomly injected hard link faults (keeps long
  /// simulations from degenerating into permanent outage churn).
  std::size_t max_link_faults = 1'000'000;

  // --- NIC retransmission (ARQ) knobs -----------------------------------
  /// Maximum transmission attempts per message before the NIC gives up and
  /// drops it permanently.
  std::size_t retry_budget = 16;
  /// First retransmission backoff; doubles per attempt (exponential).
  TimeNs backoff_base{200};
  /// Upper bound on the exponential backoff.
  TimeNs backoff_cap{25'000};

  /// Instantiate the fault machinery even with all rates at zero -- used by
  /// tests that inject scripted faults, and to verify the reliability layer
  /// is timing-neutral when nothing ever fails.
  bool force_enable = false;

  /// True when any fault source (or force_enable) is configured.
  [[nodiscard]] bool enabled() const {
    return force_enable || ber > 0.0 || ack_ber > 0.0 ||
           link_mtbf > TimeNs::zero();
  }

  /// Effective per-byte ACK corruption probability.
  [[nodiscard]] double effective_ack_ber() const {
    return ack_ber < 0.0 ? ber : ack_ber;
  }

  void validate() const;
};

/// Deterministic fault injector shared by one network instance.
///
/// Everything is driven through the DES event queue and two private RNG
/// streams (one for transient corruption, one for the hard-fault timeline),
/// so a run with a given seed is bit-reproducible and the hard-fault
/// schedule does not depend on how much traffic happens to flow.
class FaultModel {
 public:
  /// Size of the modeled ACK/NACK control message.
  static constexpr std::uint64_t kAckBytes = 8;

  /// Called on every link state edge: (node, up).
  using LinkListener = std::function<void(NodeId, bool)>;

  FaultModel(Simulator& sim, const FaultParams& params, std::size_t num_nodes);

  [[nodiscard]] const FaultParams& params() const { return params_; }

  /// Register a link up/down observer. Listeners run in registration order.
  void subscribe(LinkListener fn) { listeners_.push_back(std::move(fn)); }

  [[nodiscard]] bool link_up(NodeId node) const { return up_[node]; }
  [[nodiscard]] std::size_t num_links_down() const { return links_down_; }
  [[nodiscard]] std::uint64_t faults_injected() const { return injected_; }

  /// Transient corruption draw for a payload of `bytes` (consumes RNG).
  [[nodiscard]] bool corrupts_payload(std::uint64_t bytes);
  /// Transient corruption draw for one ACK/NACK (consumes RNG).
  [[nodiscard]] bool corrupts_ack();

  /// Scripted corruption: the next `n` payload arrivals fail their CRC
  /// check regardless of the random draw (the RNG stream is not consumed).
  /// Deterministic test hook, the transient-error analogue of
  /// inject_link_fault.
  void force_corrupt_payloads(std::size_t n) { forced_corruptions_ += n; }
  /// Scripted ACK loss: the next `n` acknowledgements are corrupted
  /// regardless of the random draw (RNG not consumed). Forces the sender
  /// onto its timeout-retransmission path deterministically, e.g. to race a
  /// duplicate against a late original delivery.
  void force_corrupt_acks(std::size_t n) { forced_ack_corruptions_ += n; }

  /// Retransmission backoff before attempt `attempt` (attempt 2 is the
  /// first retransmission): base * 2^(attempt-2), capped.
  [[nodiscard]] TimeNs backoff(std::size_t attempt) const;

  /// Scripted hard fault: take `node`'s link down at absolute time `at` and
  /// (when `duration` > 0) repair it `duration` later. Deterministic and
  /// independent of the random timeline.
  void inject_link_fault(NodeId node, TimeNs at, TimeNs duration);

 private:
  void fail_link(NodeId node, TimeNs repair_after, bool scripted);
  void repair_link(NodeId node);
  void schedule_next_failure(NodeId node);
  void notify(NodeId node, bool up);

  Simulator& sim_;
  FaultParams params_;
  Rng corrupt_rng_;  ///< transient data/ACK corruption draws
  Rng fault_rng_;    ///< hard-fault timeline draws
  double payload_log1m_ber_ = 0.0;  ///< log(1-ber), cached
  double ack_corrupt_p_ = 0.0;      ///< corruption prob. of one ACK

  std::size_t forced_corruptions_ = 0;  ///< scripted CRC failures pending
  std::size_t forced_ack_corruptions_ = 0;  ///< scripted ACK losses pending

  std::vector<bool> up_;
  std::size_t links_down_ = 0;
  std::uint64_t injected_ = 0;
  std::vector<LinkListener> listeners_;
};

}  // namespace pmx
