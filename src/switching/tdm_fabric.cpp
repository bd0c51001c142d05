#include "switching/tdm_fabric.hpp"

#include <utility>

namespace pmx {

TdmFabricNetwork::TdmFabricNetwork(Simulator& sim, const SystemParams& params,
                                   const TdmScheduler::Options& sched_options,
                                   bool grant_line)
    : Network(sim, params),
      sched_(sched_options),
      xbar_(params.num_nodes, FabricKind::kLvds),
      voqs_(params.num_nodes, VoqSet(params.num_nodes)) {
  if (admission_enabled()) {
    for (auto& voq : voqs_) {
      voq.set_capacity(params.admission.capacity_bytes,
                       params.admission.capacity_msgs);
    }
  }
  if (control_faulty()) {
    ControlPlane::Options po;
    po.num_nodes = params.num_nodes;
    po.wire_latency = params.control_wire_latency();
    po.grant_line = grant_line;
    po.heal = params.ctrl.heal;
    plane_ = std::make_unique<ControlPlane>(
        sim, *control_fault(), po, counters(),
        [this](NodeId u, NodeId v, bool value) { apply_request(u, v, value); });
  }
}

void TdmFabricNetwork::apply_request(NodeId u, NodeId v, bool value) {
  if (!value) {
    sched_.set_request(u, v, false);
    return;
  }
  plane_->refresh_lease(u, v);
  sched_.set_request(u, v, true);
  if (sched_.is_established(u, v)) {
    // Duplicate request on a live connection (watchdog reissue after a lost
    // grant): re-acknowledge so the NIC's granted-belief converges.
    plane_->send_grant(u, v, true);
  }
}

void TdmFabricNetwork::lease_scan() {
  if (!plane_) {
    return;
  }
  const BitMatrix& requests = sched_.requests();
  std::vector<std::pair<NodeId, NodeId>> expired;
  for (NodeId u = 0; u < params_.num_nodes; ++u) {
    requests.row(u).for_each_set([&](std::size_t v) {
      if (plane_->lease_expired(u, v)) {
        expired.emplace_back(u, v);
      }
    });
  }
  for (const auto& [u, v] : expired) {
    // The NIC has been silent on (u, v) longer than the lease: its release
    // message was lost. Drop the stale request bit (the next SL pass over
    // the slot releases the connection) and tell the NIC; a NIC that still
    // wants the pair re-requests on revoke arrival.
    counters().counter("lease_expiries") += 1;
    sched_.set_request(u, v, false);
    plane_->send_grant(u, v, false);
  }
}

std::optional<Message> TdmFabricNetwork::remove_shed_victim(NodeId src,
                                                            bool oldest,
                                                            TimeNs cutoff) {
  auto victim = voqs_[src].evict(oldest, cutoff, std::nullopt);
  if (victim.has_value() && voqs_[src].empty(victim->dst)) {
    // The eviction drained the VOQ: withdraw the request exactly like the
    // slot-drain path does, or the scheduler would keep a slot established
    // for traffic that no longer exists.
    set_intent(src, victim->dst, false);
  }
  return victim;
}

void TdmFabricNetwork::audit_views(std::vector<std::string>& out) {
  if (!plane_) {
    return;
  }
  const std::size_t n = params_.num_nodes;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) {
        continue;
      }
      const bool r = sched_.request(u, v);
      const bool wants = plane_->wants(u, v);
      if (r && !wants && !plane_->inflight(u, v) && !plane_->lease_active()) {
        // Leak: the scheduler serves a request the NIC abandoned, no release
        // is in flight, and no lease will ever reap it.
        out.push_back("leaked request (" + std::to_string(u) + " -> " +
                      std::to_string(v) +
                      "): scheduler holds R for a NIC that dropped it");
      }
      if (wants && !r) {
        audit_missing_request(u, v, out);
      }
      if (wants && sched_.is_established(u, v) && !plane_->granted(u, v) &&
          !plane_->inflight(u, v) && !plane_->watchdog_armed(u, v)) {
        // Wedge: the connection is live but the grant reply was lost and
        // nothing will ever re-deliver it -- the slot burns idle grants.
        // (Never fires without a grant line: granted() is then always true.)
        out.push_back("wedged NIC (" + std::to_string(u) + " -> " +
                      std::to_string(v) +
                      "): connection established but the grant was lost");
      }
    }
  }
}

std::size_t TdmFabricNetwork::resync_views() {
  // Full out-of-band state exchange: both views are rebuilt from ground
  // truth (the VOQ occupancy on the NIC side, B* on the scheduler side).
  // Resync is lossless by construction -- it models a maintenance channel,
  // not the lossy request/grant wires.
  const std::size_t invalidated = plane_ ? plane_->begin_resync() : 0;
  const std::size_t n = params_.num_nodes;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) {
        continue;
      }
      const bool truth = !voqs_[u].empty(v);
      if (plane_) {
        plane_->force_state(u, v, truth, sched_.is_established(u, v));
      }
      sched_.set_request(u, v, truth);
    }
  }
  return invalidated;
}

void TdmFabricNetwork::resync_control() {
  if (!plane_) {
    return;
  }
  resync_views();
}

}  // namespace pmx
