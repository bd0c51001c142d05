#pragma once

#include <vector>

#include "nic/voq.hpp"
#include "switching/network.hpp"

namespace pmx {

/// Wormhole-routed crossbar baseline (Section 5).
///
/// The NIC is the same one the TDM system uses (Section 4): N logical output
/// queues per node. Worm dispatch works like an input-queued switch with
/// per-worm matching:
///  * messages are cut into worms of at most SystemParams::kMaxWormBytes
///    (128 B) to ensure fairness; flits are 8 B;
///  * every worm pays the 80 ns scheduling (arbitration) delay for its head
///    flit; subsequent flits stream at 10 ns each (= flit serialization at
///    6.4 Gb/s), so a worm holds its input and output port for
///    sched + bytes/rate;
///  * an input port transmits one worm at a time but picks any non-empty
///    VOQ whose output is free (round-robin), so a blocked destination does
///    not head-of-line-block the node -- which is also why the mesh
///    patterns' ordering regularity is *not* exploited by wormhole, as the
///    paper observes;
///  * the cable + digital-switch head latency (30+20+10+20+30 ns) is paid
///    once per message: later worms are buffered inside the switch.
class WormholeNetwork final : public Network {
 public:
  WormholeNetwork(Simulator& sim, const SystemParams& params);

  [[nodiscard]] std::string name() const override { return "wormhole"; }

 protected:
  void do_submit(const Message& msg) override;
  void audit_control(std::vector<std::string>& out) override;
  void resync_control() override;
  [[nodiscard]] std::uint64_t source_queue_bytes(NodeId src) const override {
    return sources_[src].voqs.total_bytes();
  }
  [[nodiscard]] std::size_t source_queue_msgs(NodeId src) const override {
    return sources_[src].voqs.total_depth();
  }
  /// The in-flight worm's head (active_dst) is never a shed victim even
  /// when its remaining count still equals its size (bytes are consumed at
  /// worm completion, not dispatch) -- shedding it would strand the busy
  /// output port. This is also the deadlock-freedom argument under full
  /// buffers: a dispatched worm owns its input and output port outright,
  /// always completes after sched + serialization, and completion both
  /// consumes queued bytes and rematches waiting inputs, so some port
  /// always drains no matter how full every VOQ is.
  std::optional<Message> remove_shed_victim(NodeId src, bool oldest,
                                            TimeNs cutoff) override;

 private:
  /// Try to dispatch one worm from input `src` (if idle) to any pending
  /// destination with a free output port. Under the lossy control channel
  /// the head-flit arbitration request itself can be dropped or delayed;
  /// a lost request is retried with backoff when healing is on.
  void try_dispatch(NodeId src);
  /// End-of-worm bookkeeping: release ports, finish messages, rematch.
  void worm_done(NodeId src, NodeId dst, std::uint64_t worm_bytes);
  /// Fault reaction: poison in-flight worms on a dead link; rematch idle
  /// inputs when a link comes back.
  void on_link_change(NodeId node, bool up);

  struct SourceState {
    VoqSet voqs;
    bool busy = false;     ///< a worm from this input is in flight
    std::size_t rr = 0;    ///< round-robin cursor over destinations
    NodeId active_dst = 0;      ///< destination of the in-flight worm
    MessageId active_msg = 0;   ///< message the in-flight worm belongs to
    // --- Lossy control channel only ---------------------------------------
    bool retry_armed = false;   ///< a dispatch retry event is pending
    std::size_t attempts = 1;   ///< arbitration-retry backoff level
    /// Audit debounce: was this source idle with dispatchable traffic at
    /// the previous audit already?
    bool audit_stall = false;
    explicit SourceState(std::size_t n) : voqs(n) {}
  };

  std::vector<SourceState> sources_;
  std::vector<bool> output_busy_;
  std::vector<std::size_t> output_rr_;  ///< per-output wake-up rotation
};

}  // namespace pmx
