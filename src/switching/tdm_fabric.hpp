#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fabric/crossbar.hpp"
#include "nic/control_plane.hpp"
#include "nic/voq.hpp"
#include "sched/tdm_scheduler.hpp"
#include "switching/network.hpp"

namespace pmx {

/// The Section 4 switch as both TDM paradigms see it: one NIC per node with
/// a logical output queue per destination, whose non-empty bits form the
/// request matrix R; the TdmScheduler owning the K configuration registers;
/// and the LVDS crossbar they drive. Dynamic TDM (TdmNetwork) lets the SL
/// scheduler fill the registers, preloaded TDM (PreloadTdmNetwork) lets the
/// compiler fill them -- everything between the VOQs and R is this class.
///
/// With the control-fault layer on, R is no longer a lossless wire: NIC
/// intent travels as request/release messages through a ControlPlane, the
/// scheduler leases each request bit, and the auditor can resync both views
/// from ground truth. `grant_line` says whether the scheduler also answers
/// with grant/revoke replies (dynamic TDM); without it send_grant() is a
/// no-op and the NIC's granted-belief is always true.
class TdmFabricNetwork : public Network {
 public:
  [[nodiscard]] const TdmScheduler& scheduler() const { return sched_; }
  [[nodiscard]] const Crossbar& crossbar() const { return xbar_; }
  /// NIC-side control-plane endpoints; non-null only with a lossy control
  /// channel. Mutable access is for the epoch wraparound soak tests.
  [[nodiscard]] ControlPlane* control_plane() { return plane_.get(); }

 protected:
  /// Both paradigms rotate with skip_unrequested_slots on: held-but-idle
  /// and preloaded-but-idle slots cost no time.
  TdmFabricNetwork(Simulator& sim, const SystemParams& params,
                   bool multi_slot_connections, bool grant_line);

  /// The NIC raised (`want`) or dropped its intent for (u, v). Lossless,
  /// this is the request wire itself; with a control plane it becomes a
  /// request/release message that sets R[u][v] on arrival.
  void set_intent(NodeId u, NodeId v, bool want) {
    if (!plane_) {
      sched_.set_request(u, v, want);
    } else if (want) {
      plane_->want(u, v);
    } else {
      plane_->unwant(u, v);
    }
  }
  /// Data moved over (u, v) this slot: feeds the NIC watchdog's progress
  /// detector and refreshes the scheduler-side lease.
  void note_traffic(NodeId u, NodeId v) {
    if (plane_) {
      plane_->note_progress(u, v);
      plane_->refresh_lease(u, v);
    }
  }
  /// Move up to `budget` bytes from NIC u's VOQ for v across the granted
  /// connection in the slot that began at `slot_start`. With `phase` set,
  /// stops at a head message tagged for another phase. Each completed
  /// message gets its send-done and delivered notifications; moved bytes
  /// count as traffic on (u, v); a drained VOQ drops the pair's intent.
  /// Returns the bytes moved.
  std::uint64_t transfer(NodeId u, NodeId v, std::uint64_t budget,
                         TimeNs slot_start, std::optional<std::size_t> phase);
  /// Lease sweep (control plane only): clear request bits whose NIC has
  /// been silent longer than the lease (the release message was lost) and
  /// revoke their grants.
  void lease_scan();
  /// Rebuild the NIC and scheduler request views from ground truth (VOQ
  /// occupancy / B*). Returns the number of in-flight control messages the
  /// epoch bump invalidated (0 without a lossy control plane).
  std::size_t resync_views();
  /// Per-pair NIC <-> scheduler view audit (control plane only): leaked
  /// requests and lost grants here, the paradigm's wedge rule through
  /// audit_missing_request().
  void audit_views(std::vector<std::string>& out);
  /// A pair whose NIC intent is raised while R[u][v] is clear: append a
  /// line if nothing pending can ever set the bit again.
  virtual void audit_missing_request(NodeId u, NodeId v,
                                     std::vector<std::string>& out) = 0;

  /// Queue `msg` at its source NIC and raise the pair's intent.
  void do_submit(const Message& msg) override {
    voqs_[msg.src].push(msg);
    set_intent(msg.src, msg.dst, true);
  }
  void resync_control() override;
  [[nodiscard]] std::uint64_t source_queue_bytes(NodeId src) const final {
    return voqs_[src].total_bytes();
  }
  [[nodiscard]] std::size_t source_queue_msgs(NodeId src) const final {
    return voqs_[src].total_depth();
  }
  std::optional<Message> remove_shed_victim(NodeId src, bool oldest,
                                            TimeNs cutoff) final;

  TdmScheduler sched_;
  Crossbar xbar_;
  std::vector<VoqSet> voqs_;
  /// Lossy request/grant/release endpoints; nullptr when the control-fault
  /// layer is off (requests then drive R as lossless wires, the seed model).
  std::unique_ptr<ControlPlane> plane_;

 private:
  /// Scheduler-side arrival of a request (value) or release (!value)
  /// message from NIC u for destination v (lossy control channel only).
  void apply_request(NodeId u, NodeId v, bool value);
};

}  // namespace pmx
