#include "switching/wormhole.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"

namespace pmx {

WormholeNetwork::WormholeNetwork(Simulator& sim, const SystemParams& params)
    : Network(sim, params),
      sources_(params.num_nodes, SourceState(params.num_nodes)),
      output_busy_(params.num_nodes, false),
      output_rr_(params.num_nodes, 0) {
  if (admission_enabled()) {
    for (auto& src : sources_) {
      src.voqs.set_capacity(params.admission.capacity_bytes,
                            params.admission.capacity_msgs);
    }
  }
  if (FaultModel* fm = fault_model()) {
    fm->subscribe([this](NodeId node, bool up) { on_link_change(node, up); });
  }
}

std::optional<Message> WormholeNetwork::remove_shed_victim(NodeId src_id,
                                                           bool oldest,
                                                           TimeNs cutoff) {
  SourceState& src = sources_[src_id];
  const std::optional<NodeId> protect =
      src.busy ? std::optional<NodeId>(src.active_dst) : std::nullopt;
  return src.voqs.evict(oldest, cutoff, protect);
}

void WormholeNetwork::on_link_change(NodeId node, bool up) {
  if (!up) {
    // Worms crossing the dead link lose flits; the end-to-end CRC over the
    // whole message fails and the NIC retransmits the message.
    for (NodeId u = 0; u < params_.num_nodes; ++u) {
      SourceState& src = sources_[u];
      if (src.busy && (u == node || src.active_dst == node)) {
        mark_poisoned(src.active_msg);
      }
    }
    return;
  }
  // Repair: idle inputs may now have dispatchable traffic again (either
  // their own link returned or the repaired output unblocks a VOQ).
  for (NodeId u = 0; u < params_.num_nodes; ++u) {
    if (!sources_[u].busy) {
      try_dispatch(u);
    }
  }
}

void WormholeNetwork::do_submit(const Message& msg) {
  sources_[msg.src].voqs.push(msg);
  // One NIC cycle before the freshly queued message can contend.
  sim_.schedule_after(SystemParams::kNicCycle,
                      [this, src = msg.src] { try_dispatch(src); });
}

void WormholeNetwork::try_dispatch(NodeId src_id) {
  SourceState& src = sources_[src_id];
  if (src.busy) {
    return;
  }
  const FaultModel* fm = fault_model();
  if (fm != nullptr && !fm->link_up(src_id)) {
    return;  // input cable dead: nothing leaves this NIC until repair
  }
  const std::size_t n = params_.num_nodes;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = (src.rr + i) % n;
    if (src.voqs.empty(v) || output_busy_[v]) {
      continue;
    }
    if (fm != nullptr && !fm->link_up(v)) {
      continue;  // output cable dead: keep the VOQ queued until repair
    }
    if (ControlFaultModel* cf = control_fault()) {
      // The head-flit arbitration request crosses the lossy control plane.
      const auto verdict = cf->decide(CtrlMsg::kRequest);
      if (verdict == ControlFaultModel::Verdict::kDelay) {
        if (!src.retry_armed) {
          src.retry_armed = true;
          sim_.schedule_after(cf->params().delay, [this, src_id] {
            sources_[src_id].retry_armed = false;
            try_dispatch(src_id);
          });
        }
        return;
      }
      if (verdict != ControlFaultModel::Verdict::kDeliver) {
        // Lost (or corrupted) arbitration request: the arbiter never saw
        // it, so no ports are reserved. Without healing the source stays
        // idle until some other wake-up -- the wedge the auditor hunts.
        if (params_.ctrl.heal && !src.retry_armed) {
          src.retry_armed = true;
          counters().counter("ctrl_rerequests") += 1;
          const TimeNs delay = cf->watchdog_delay(src.attempts);
          ++src.attempts;
          sim_.schedule_after(delay, [this, src_id] {
            sources_[src_id].retry_armed = false;
            try_dispatch(src_id);
          });
        }
        return;
      }
      src.attempts = 1;
    }
    src.rr = (v + 1) % n;
    src.busy = true;
    src.active_dst = v;
    src.active_msg = src.voqs.head(v).id;
    output_busy_[v] = true;
    const std::uint64_t worm_bytes =
        std::min(src.voqs.head_remaining(v), SystemParams::kMaxWormBytes);
    counters().counter("worms") += 1;
    // Head-flit arbitration (80 ns) + flit stream at line rate; input and
    // output are both held for the duration.
    const TimeNs duration =
        SystemParams::kSchedulerLatency + link_.serialization(worm_bytes);
    sim_.schedule_after(duration, [this, src_id, v, worm_bytes] {
      worm_done(src_id, v, worm_bytes);
    });
    return;
  }
  counters().counter("dispatch_misses") += 1;
}

void WormholeNetwork::worm_done(NodeId src_id, NodeId dst,
                                std::uint64_t worm_bytes) {
  SourceState& src = sources_[src_id];
  Message completed;
  const std::uint64_t taken = src.voqs.consume(dst, worm_bytes, &completed);
  PMX_CHECK(taken == worm_bytes, "worm consumed unexpected byte count");
  if (completed.id != 0) {
    const TimeNs send_done = sim_.now();
    // The tail of the message still crosses the digital fabric: cable +
    // switch head latency is charged once per message (later worms were
    // buffered in the switch), plus the receive-side NIC cycle.
    notify_send_done(completed, send_done);
    notify_delivered(completed, send_done,
                     send_done + params_.digital_path_latency() +
                         SystemParams::kNicCycle);
  }

  src.busy = false;
  output_busy_[dst] = false;

  // Fairness: wake a *different* input waiting for this output before the
  // just-served input can re-take it (the worm size limit exists precisely
  // so competing messages interleave at worm granularity). The round-robin
  // scan starts just past the input that was served.
  output_rr_[dst] = (src_id + 1) % params_.num_nodes;
  const std::size_t n = params_.num_nodes;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId u = (output_rr_[dst] + i) % n;
    if (!sources_[u].busy && !sources_[u].voqs.empty(dst)) {
      output_rr_[dst] = (u + 1) % n;
      try_dispatch(u);
      break;
    }
  }
  // Then the freed input picks its next worm (possibly another output).
  try_dispatch(src_id);
}

void WormholeNetwork::audit_control(std::vector<std::string>& out) {
  if (!control_faulty()) {
    return;
  }
  const FaultModel* fm = fault_model();
  const std::size_t n = params_.num_nodes;
  for (NodeId u = 0; u < n; ++u) {
    SourceState& src = sources_[u];
    if (src.busy || src.retry_armed || (fm != nullptr && !fm->link_up(u))) {
      src.audit_stall = false;
      continue;
    }
    bool dispatchable = false;
    for (NodeId v = 0; v < n && !dispatchable; ++v) {
      dispatchable = !src.voqs.empty(v) && !output_busy_[v] &&
                     (fm == nullptr || fm->link_up(v));
    }
    if (!dispatchable) {
      src.audit_stall = false;
      continue;
    }
    // Idle with dispatchable traffic and no retry pending. Transient
    // matching gaps resolve within one audit period, so only flag a source
    // seen stalled on two consecutive audits.
    if (src.audit_stall) {
      out.push_back("wedged wormhole input " + std::to_string(u) +
                    ": dispatchable traffic but no worm and no retry "
                    "pending across two audits");
    } else {
      src.audit_stall = true;
    }
  }
}

void WormholeNetwork::resync_control() {
  if (!control_faulty()) {
    return;
  }
  for (SourceState& src : sources_) {
    src.attempts = 1;
    src.audit_stall = false;
  }
  // Re-run the matching for every idle input (in id order, the same order
  // worm_done wake-ups use).
  for (NodeId u = 0; u < params_.num_nodes; ++u) {
    if (!sources_[u].busy && !sources_[u].retry_armed) {
      try_dispatch(u);
    }
  }
}

}  // namespace pmx
