#include "switching/circuit.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"

namespace pmx {

CircuitNetwork::CircuitNetwork(Simulator& sim, const SystemParams& params)
    : CircuitNetwork(sim, params, Options{}) {}

CircuitNetwork::CircuitNetwork(Simulator& sim, const SystemParams& params,
                               const Options& options)
    : Network(sim, params),
      options_(options),
      sources_(params.num_nodes),
      outputs_(params.num_nodes) {
  if (FaultModel* fm = fault_model()) {
    fm->subscribe([this](NodeId node, bool up) { on_link_change(node, up); });
  }
}

void CircuitNetwork::on_link_change(NodeId node, bool up) {
  if (!up) {
    for (NodeId u = 0; u < params_.num_nodes; ++u) {
      SourceState& src = sources_[u];
      // Transfers (or establishments) crossing the dead cable lose data;
      // the message fails its CRC on arrival and is retransmitted.
      if (src.busy && (u == node || src.active.dst == node)) {
        mark_poisoned(src.active.id);
      }
      // An idle held circuit through the dead link is torn down so waiters
      // are not starved across the outage.
      if (!src.busy && src.held_circuit.has_value() &&
          (u == node || *src.held_circuit == node)) {
        const NodeId out = *src.held_circuit;
        src.held_circuit.reset();
        schedule_release(out);
      }
    }
    return;
  }
  // Repair. A source stalled on its own dead cable resumes...
  SourceState& src = sources_[node];
  if (src.waiting_repair) {
    src.waiting_repair = false;
    if (!src.busy) {
      start_next_message(node);
    }
  }
  // ...and requests parked on the repaired output port get granted.
  OutputState& out = outputs_[node];
  if (!out.busy && !out.waiters.empty()) {
    const NodeId next = out.waiters.front();
    out.waiters.pop_front();
    grant_to(node, next);
  }
}

void CircuitNetwork::do_submit(const Message& msg) {
  SourceState& src = sources_[msg.src];
  src.fifo.push_back(msg);  // pmx-lint: allow(unbounded-queue)
  src.fifo_bytes += msg.bytes;  // admission layer bounds the fifo
  if (!src.busy) {
    start_next_message(msg.src);
  }
}

std::optional<Message> CircuitNetwork::remove_shed_victim(NodeId src_id,
                                                          bool oldest,
                                                          TimeNs cutoff) {
  SourceState& src = sources_[src_id];
  if (src.fifo.empty()) {
    return std::nullopt;
  }
  const Message victim = oldest ? src.fifo.front() : src.fifo.back();
  if (victim.submit_time > cutoff) {
    return std::nullopt;
  }
  if (oldest) {
    src.fifo.pop_front();
  } else {
    src.fifo.pop_back();
  }
  src.fifo_bytes -= victim.bytes;
  return victim;
}

void CircuitNetwork::start_next_message(NodeId src_id) {
  SourceState& src = sources_[src_id];
  if (src.fifo.empty()) {
    src.busy = false;
    // An idle source gives up its held circuit so waiters cannot starve.
    if (src.held_circuit.has_value()) {
      const NodeId old_out = *src.held_circuit;
      src.held_circuit.reset();
      schedule_release(old_out);
    }
    return;
  }
  if (const FaultModel* fm = fault_model();
      fm != nullptr && !fm->link_up(src_id)) {
    // This NIC's own cable is dead: the head message waits for repair. The
    // source must read as idle (we can arrive here from send_complete with
    // busy still set) or the repair handler would never resume it.
    src.busy = false;
    src.waiting_repair = true;
    return;
  }
  src.busy = true;
  src.active = src.fifo.front();
  src.fifo.pop_front();
  src.fifo_bytes -= src.active.bytes;

  if (src.held_circuit == src.active.dst) {
    if (control_faulty() && outputs_[src.active.dst].holder != src_id) {
      // The NIC believes it still holds this pipe, but the scheduler's
      // lease already reclaimed it (the revoke notice was lost). Driving
      // data into an unconnected fabric would lose it silently; fall back
      // to a fresh establishment instead.
      counters().counter("stale_holds") += 1;
      src.held_circuit.reset();
    } else {
      // Circuit reuse: the pipe is already up; skip establishment entirely.
      counters().counter("circuit_reuses") += 1;
      if (control_faulty()) {
        outputs_[src.active.dst].last_activity = sim_.now();
      }
      sim_.schedule_after(SystemParams::kNicCycle,
                          [this, src_id] { transmit(src_id); });
      return;
    }
  }
  // A held circuit to a different destination must be torn down first; its
  // teardown notice travels to the scheduler while we send the new request
  // (both are control-wire messages, so they overlap).
  if (src.held_circuit.has_value()) {
    const NodeId old_out = *src.held_circuit;
    src.held_circuit.reset();
    schedule_release(old_out);
  }
  if (control_faulty()) {
    src.waiting_grant = true;
    src.attempts = 1;
    // NIC cycle, then the request crosses the lossy control wire.
    send_request(src_id, src.active.dst,
                 SystemParams::kNicCycle + params_.control_wire_latency());
    if (params_.ctrl.heal) {
      arm_watchdog(src_id);
    }
    return;
  }
  // NIC cycle, then the request crosses the control wire to the scheduler.
  sim_.schedule_after(SystemParams::kNicCycle + params_.control_wire_latency(),
                      [this, src_id] { request_arrived(src_id); });
}

void CircuitNetwork::request_arrived(NodeId src_id) {
  SourceState& src = sources_[src_id];
  OutputState& out = outputs_[src.active.dst];
  const FaultModel* fm = fault_model();
  const bool dst_down = fm != nullptr && !fm->link_up(src.active.dst);
  if (out.busy || dst_down) {
    // Busy output or dead destination cable: queue FIFO at the scheduler.
    if (enqueue_waiter(src.active.dst, src_id)) {
      counters().counter("circuit_waits") += 1;
    }
    return;
  }
  grant_to(src.active.dst, src_id);
}

void CircuitNetwork::request_arrived_ctrl(NodeId src_id, NodeId dst) {
  SourceState& src = sources_[src_id];
  if (!src.busy || !src.waiting_grant || src.active.dst != dst) {
    // Delayed duplicate of a request already served (the source has moved
    // on): the scheduler drops it rather than allocate an unwanted output.
    counters().counter("duplicate_requests") += 1;
    return;
  }
  OutputState& out = outputs_[dst];
  if (out.busy && out.holder == src_id) {
    // The output is already ours -- the grant was lost or is still in
    // flight and the watchdog re-requested. Re-acknowledge.
    counters().counter("duplicate_requests") += 1;
    out.last_activity = sim_.now();
    send_grant_msg(src_id, dst);
    return;
  }
  const FaultModel* fm = fault_model();
  const bool dst_down = fm != nullptr && !fm->link_up(dst);
  if (out.busy || dst_down) {
    if (enqueue_waiter(dst, src_id)) {
      counters().counter("circuit_waits") += 1;
    }
    return;
  }
  grant_to(dst, src_id);
}

void CircuitNetwork::grant_to(NodeId out_id, NodeId src_id) {
  OutputState& out = outputs_[out_id];
  out.busy = true;
  if (control_faulty()) {
    out.holder = src_id;
    out.last_activity = sim_.now();
    arm_lease(out_id);
  }
  grant_circuit(src_id);
}

void CircuitNetwork::grant_circuit(NodeId src_id) {
  counters().counter("circuits_established") += 1;
  if (control_faulty()) {
    send_grant_msg(src_id, sources_[src_id].active.dst);
    return;
  }
  // 80 ns to schedule, 80 ns for the grant to reach the NIC.
  sim_.schedule_after(
      SystemParams::kSchedulerLatency + params_.control_wire_latency(),
      [this, src_id] { transmit(src_id); });
}

void CircuitNetwork::send_request(NodeId src_id, NodeId dst, TimeNs latency) {
  SourceState& src = sources_[src_id];
  const bool scheduled = control_fault()->send(
      CtrlMsg::kRequest, latency, [this, src_id, dst, ep = ctrl_epoch_] {
        if (ep != ctrl_epoch_) {
          counters().counter("ctrl_stale") += 1;
          return;
        }
        SourceState& s = sources_[src_id];
        if (s.pending_request > 0) {
          --s.pending_request;
        }
        request_arrived_ctrl(src_id, dst);
      });
  if (scheduled) {
    ++src.pending_request;
  }
}

void CircuitNetwork::send_grant_msg(NodeId src_id, NodeId dst) {
  SourceState& src = sources_[src_id];
  const bool scheduled = control_fault()->send(
      CtrlMsg::kGrant,
      SystemParams::kSchedulerLatency + params_.control_wire_latency(),
      [this, src_id, dst, ep = ctrl_epoch_] {
        if (ep != ctrl_epoch_) {
          counters().counter("ctrl_stale") += 1;
          return;
        }
        SourceState& s = sources_[src_id];
        if (s.pending_grant > 0) {
          --s.pending_grant;
        }
        grant_arrived(src_id, dst);
      });
  if (scheduled) {
    ++src.pending_grant;
  }
}

void CircuitNetwork::grant_arrived(NodeId src_id, NodeId dst) {
  SourceState& src = sources_[src_id];
  if (!src.waiting_grant || src.active.dst != dst) {
    // A watchdog re-request raced the original grant: both eventually
    // arrive, the second is a no-op.
    counters().counter("duplicate_grants") += 1;
    return;
  }
  src.waiting_grant = false;
  src.attempts = 1;
  if (src.watchdog != 0) {
    sim_.cancel(src.watchdog);
    src.watchdog = 0;
  }
  transmit(src_id);
}

void CircuitNetwork::arm_watchdog(NodeId src_id) {
  SourceState& src = sources_[src_id];
  src.watchdog = sim_.schedule_after(
      control_fault()->watchdog_delay(src.attempts),
      [this, src_id, ep = ctrl_epoch_] {
        if (ep != ctrl_epoch_) {
          return;
        }
        on_watchdog(src_id);
      });
}

void CircuitNetwork::on_watchdog(NodeId src_id) {
  SourceState& src = sources_[src_id];
  src.watchdog = 0;
  if (!src.waiting_grant) {
    return;
  }
  // Neither a grant nor a wait-queue slot ever acknowledges a request, so
  // the only safe read of silence is "lost": reissue with backoff. A
  // duplicate of a parked request deduplicates at the scheduler.
  ++src.attempts;
  counters().counter("ctrl_rerequests") += 1;
  send_request(src_id, src.active.dst, params_.control_wire_latency());
  arm_watchdog(src_id);
}

void CircuitNetwork::arm_lease(NodeId out_id) {
  ControlFaultModel* cf = control_fault();
  if (!params_.ctrl.heal || cf->params().lease <= TimeNs::zero()) {
    return;
  }
  OutputState& out = outputs_[out_id];
  const std::uint64_t seq = ++out.lease_seq;
  sim_.schedule_after(cf->params().lease, [this, out_id, seq] {
    lease_check(out_id, seq);
  });
}

void CircuitNetwork::lease_check(NodeId out_id, std::uint64_t seq) {
  OutputState& out = outputs_[out_id];
  if (seq != out.lease_seq || !out.busy) {
    return;
  }
  ControlFaultModel* cf = control_fault();
  const TimeNs lease = cf->params().lease;
  if (out.holder.has_value()) {
    const SourceState& h = sources_[*out.holder];
    if ((h.busy && h.active.dst == out_id) || h.held_circuit == out_id) {
      // The holder demonstrably still uses the pipe (mid-transfer, waiting
      // for its grant, or holding with queued traffic): not idle.
      out.last_activity = sim_.now();
    }
  }
  const TimeNs expiry = out.last_activity + lease;
  if (sim_.now() < expiry) {
    sim_.schedule_after(expiry - sim_.now(), [this, out_id, seq] {
      lease_check(out_id, seq);
    });
    return;
  }
  // The holder went silent past the lease: its teardown notice was lost.
  // Reclaim the output and tell the holder its hold is void (that revoke
  // itself crosses the lossy wire; the reuse guard covers its loss).
  counters().counter("lease_expiries") += 1;
  if (out.holder.has_value()) {
    const NodeId holder = *out.holder;
    cf->send(CtrlMsg::kGrant, params_.control_wire_latency(),
             [this, holder, out_id, ep = ctrl_epoch_] {
               if (ep != ctrl_epoch_) {
                 return;
               }
               if (sources_[holder].held_circuit == out_id) {
                 sources_[holder].held_circuit.reset();
               }
             });
  }
  free_output(out_id);
}

void CircuitNetwork::transmit(NodeId src_id) {
  SourceState& src = sources_[src_id];
  const TimeNs tx = link_.serialization(src.active.bytes);
  sim_.schedule_after(tx, [this, src_id] { send_complete(src_id); });
}

void CircuitNetwork::send_complete(NodeId src_id) {
  SourceState& src = sources_[src_id];
  const Message msg = src.active;
  const TimeNs send_done = sim_.now();
  notify_send_done(msg, send_done);
  // Tail byte drains through the passive fabric to the destination NIC.
  notify_delivered(
      msg, send_done,
      send_done + params_.passive_path_latency() + SystemParams::kNicCycle);

  const FaultModel* fm = fault_model();
  const bool pipe_alive =
      fm == nullptr || (fm->link_up(src_id) && fm->link_up(msg.dst));
  if (options_.hold_circuits && pipe_alive) {
    src.held_circuit = msg.dst;
    if (control_faulty()) {
      outputs_[msg.dst].last_activity = sim_.now();
    }
  } else {
    // Teardown notice crosses the control wire; the output frees then.
    schedule_release(msg.dst);
  }
  start_next_message(src_id);
}

void CircuitNetwork::schedule_release(NodeId out_id) {
  ControlFaultModel* cf = control_fault();
  if (cf == nullptr) {
    sim_.schedule_after(params_.control_wire_latency(),
                        [this, out_id] { release_output(out_id); });
    return;
  }
  OutputState& out = outputs_[out_id];
  const bool scheduled = cf->send(
      CtrlMsg::kRelease, params_.control_wire_latency(),
      [this, out_id, ep = ctrl_epoch_] {
        if (ep != ctrl_epoch_) {
          counters().counter("ctrl_stale") += 1;
          return;
        }
        OutputState& o = outputs_[out_id];
        if (o.pending_release > 0) {
          --o.pending_release;
        }
        release_output(out_id);
      });
  if (scheduled) {
    ++out.pending_release;
  }
}

void CircuitNetwork::release_output(NodeId out_id) {
  OutputState& out = outputs_[out_id];
  if (control_faulty() && !out.busy) {
    // The lease (or a resync) already reclaimed this output; the delayed
    // teardown notice is stale.
    counters().counter("stale_releases") += 1;
    return;
  }
  PMX_CHECK(out.busy, "releasing an idle circuit output");
  free_output(out_id);
}

void CircuitNetwork::free_output(NodeId out_id) {
  OutputState& out = outputs_[out_id];
  out.busy = false;
  out.holder.reset();
  ++out.lease_seq;  // disarm any pending lease check
  if (const FaultModel* fm = fault_model();
      fm != nullptr && !fm->link_up(out_id)) {
    return;  // dead output: waiters stay parked until the repair event
  }
  if (!out.waiters.empty()) {
    const NodeId next = out.waiters.front();
    out.waiters.pop_front();
    grant_to(out_id, next);
  }
}

bool CircuitNetwork::enqueue_waiter(NodeId out_id, NodeId src_id) {
  OutputState& out = outputs_[out_id];
  if (std::find(out.waiters.begin(), out.waiters.end(), src_id) !=
      out.waiters.end()) {
    return false;  // already parked: a duplicate keeps its original slot
  }
  // Capacity tied to the retry protocol: requests are deduplicated above, so
  // however many times the watchdog retransmits, a source holds at most one
  // slot and the list can never outgrow the source population.
  const std::size_t capacity = sources_.size();
  PMX_CHECK(out.waiters.size() < capacity,
            "circuit waiter list exceeded its structural capacity");
  out.waiters.push_back(src_id);
  return true;
}

void CircuitNetwork::audit_control(std::vector<std::string>& out) {
  if (!control_faulty()) {
    return;
  }
  const bool lease_armed =
      params_.ctrl.heal && control_fault()->params().lease > TimeNs::zero();
  for (NodeId o = 0; o < params_.num_nodes; ++o) {
    const OutputState& os = outputs_[o];
    if (!os.busy) {
      continue;
    }
    bool claimed = false;
    if (os.holder.has_value()) {
      const SourceState& h = sources_[*os.holder];
      claimed = (h.busy && h.active.dst == o) || h.held_circuit == o;
    }
    if (!claimed && os.pending_release == 0 && !lease_armed) {
      // Leak: the output is allocated, no source claims it, no teardown is
      // in flight, and no lease will ever reclaim it.
      out.push_back("leaked circuit output " + std::to_string(o) +
                    ": busy with no claiming source, release, or lease");
    }
  }
  for (NodeId u = 0; u < params_.num_nodes; ++u) {
    const SourceState& s = sources_[u];
    if (!s.busy || !s.waiting_grant) {
      continue;
    }
    const auto& waiters = outputs_[s.active.dst].waiters;
    const bool parked =
        std::find(waiters.begin(), waiters.end(), u) != waiters.end();
    if (!parked && s.pending_request == 0 && s.pending_grant == 0 &&
        s.watchdog == 0) {
      // Wedge: the NIC waits for a grant, but no request or grant is in
      // flight, it is not queued at the scheduler, and no watchdog will
      // ever retry.
      out.push_back("wedged circuit NIC " + std::to_string(u) + " -> " +
                    std::to_string(s.active.dst) +
                    ": waiting for a grant nothing can deliver");
    }
  }
}

void CircuitNetwork::resync_control() {
  if (!control_faulty()) {
    return;
  }
  // Out-of-band full state exchange: invalidate every in-flight control
  // event, then rebuild the scheduler's output table from NIC ground truth.
  ++ctrl_epoch_;
  for (OutputState& out : outputs_) {
    out.busy = false;
    out.holder.reset();
    out.waiters.clear();
    out.pending_release = 0;
    ++out.lease_seq;
  }
  for (SourceState& src : sources_) {
    src.pending_request = 0;
    src.pending_grant = 0;
    src.attempts = 1;
    if (src.watchdog != 0) {
      sim_.cancel(src.watchdog);
      src.watchdog = 0;
    }
  }
  // Pass 1: transmitting sources (and live holds) truly own their outputs.
  for (NodeId u = 0; u < params_.num_nodes; ++u) {
    SourceState& src = sources_[u];
    std::optional<NodeId> owned;
    if (src.busy && !src.waiting_grant) {
      owned = src.active.dst;
    } else if (!src.busy && src.held_circuit.has_value()) {
      owned = src.held_circuit;
    }
    if (!owned.has_value()) {
      continue;
    }
    OutputState& out = outputs_[*owned];
    if (out.busy) {
      // Conflicting claims can only come from a stale hold.
      counters().counter("stale_holds") += 1;
      src.held_circuit.reset();
      continue;
    }
    out.busy = true;
    out.holder = u;
    out.last_activity = sim_.now();
    arm_lease(*owned);
  }
  // Pass 2: re-play blocked requests at the scheduler in id order.
  const FaultModel* fm = fault_model();
  for (NodeId u = 0; u < params_.num_nodes; ++u) {
    SourceState& src = sources_[u];
    if (!src.busy || !src.waiting_grant) {
      continue;
    }
    const NodeId dst = src.active.dst;
    OutputState& out = outputs_[dst];
    const bool dst_down = fm != nullptr && !fm->link_up(dst);
    if (out.busy || dst_down) {
      // Resync replay does not recount circuit_waits: the wait was already
      // counted when the request first queued.
      enqueue_waiter(dst, u);
    } else {
      grant_to(dst, u);
    }
    if (params_.ctrl.heal) {
      arm_watchdog(u);
    }
  }
}

}  // namespace pmx
