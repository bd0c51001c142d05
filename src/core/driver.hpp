#pragma once

#include <cstddef>
#include <vector>

#include "switching/network.hpp"
#include "traffic/program.hpp"

namespace pmx {

/// How a kSend command completes from the issuing processor's view.
enum class SendMode : std::uint8_t {
  /// The processor hands the message to the NIC output buffer (one NIC
  /// cycle, 10 ns) and immediately continues -- the paper's NIC design,
  /// whose N logical output queues exist precisely to hold messages to many
  /// destinations at once. This is the default.
  kEager,
  /// The processor blocks until the last byte has left the NIC (synchronous
  /// send). Serializes each node's traffic; kept for ablations.
  kBlocking,
};

/// Executes a Workload (one command program per node) against a Network.
///
/// Each node runs its program sequentially: kSend per the SendMode above;
/// kBarrier blocks until every node reaches it *and* all traffic submitted
/// so far has drained from the network (and bumps the phase counter used
/// for compiled communication); kFlush forwards the compiler hint; kCompute
/// models local work. The driver stops the simulator once every program has
/// finished AND every submitted message has been delivered, so
/// Simulator::run() terminates even though the TDM clocks are free-running.
class TrafficDriver {
 public:
  TrafficDriver(Simulator& sim, Network& network, Workload workload,
                SendMode mode = SendMode::kEager);

  /// Schedule the first command of every node at the current time.
  void start();

  [[nodiscard]] bool finished() const { return finished_; }
  /// The message ledger is the network's; these read it.
  [[nodiscard]] std::size_t messages_submitted() const {
    return network_.submitted_count();
  }
  [[nodiscard]] std::size_t messages_delivered() const {
    return network_.delivered_count();
  }
  /// Messages the reliability layer gave up on (retry budget exhausted).
  [[nodiscard]] std::size_t messages_dropped() const {
    return network_.dropped_messages();
  }
  /// Messages the admission controller shed under overload.
  [[nodiscard]] std::size_t messages_shed() const {
    return network_.shed_messages();
  }
  [[nodiscard]] std::size_t current_phase(NodeId u) const { return phase_[u]; }

 private:
  void issue_next(NodeId u);
  void reach_barrier(NodeId node);
  void release_barrier_if_drained();
  void maybe_stop();
  /// Every submitted message was delivered, dropped or shed.
  [[nodiscard]] bool drained() const;

  Simulator& sim_;
  Network& network_;
  Workload workload_;
  SendMode mode_;

  std::vector<std::size_t> pc_;     ///< per-node program counter
  std::vector<std::size_t> phase_;  ///< per-node barrier-phase counter
  std::size_t nodes_done_ = 0;
  std::size_t barrier_arrived_ = 0;
  bool barrier_pending_ = false;  ///< all nodes arrived, waiting for drain
  bool finished_ = false;
};

}  // namespace pmx
