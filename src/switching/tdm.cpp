#include "switching/tdm.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace pmx {

TdmNetwork::TdmNetwork(Simulator& sim, const SystemParams& params)
    : TdmNetwork(sim, params, Options{}) {}

TdmNetwork::TdmNetwork(Simulator& sim, const SystemParams& params,
                       Options options)
    : TdmFabricNetwork(sim, params, options.multi_slot_connections,
                       /*grant_line=*/true),
      predictor_(options.predictor ? std::move(options.predictor)
                                   : make_policy(PolicySpec::parse("none"))),
      slot_clock_(sim, params.slot_length, [this] { on_slot_tick(); }),
      sl_clock_(sim, SystemParams::kSchedulerLatency,
                [this] { on_sl_tick(); }),
      sl_units_(options.sl_units == 0 ? 1 : options.sl_units),
      rx_buffer_(options.receiver_buffer_bytes),
      rx_drain_(options.receiver_drain_per_slot) {
  if (rx_buffer_ > 0) {
    PMX_CHECK(rx_buffer_ >= params.slot_payload_bytes(),
              "receive buffer smaller than one slot payload would deadlock");
    PMX_CHECK(rx_drain_ > 0, "finite receive buffer needs a drain rate");
    rx_occupancy_.assign(params.num_nodes, 0);
  }
  starvation_slots_ = options.starvation_slots;
  if (starvation_slots_ > 0) {
    starve_.assign(params.num_nodes, 0);
    progress_.assign(params.num_nodes, 0);
  }
  if (FaultModel* fm = fault_model()) {
    fm->subscribe([this](NodeId node, bool up) { on_link_change(node, up); });
  }
  if (params.reopt.enabled()) {
    ReoptService::Hooks hooks;
    hooks.applier.apply = [this](const std::vector<BitMatrix>& tables,
                                 bool pinned) {
      return apply_reopt(tables, pinned);
    };
    hooks.applier.capture = [this] {
      std::vector<BitMatrix> tables;
      tables.reserve(sched_.num_slots());
      for (std::size_t s = 0; s < sched_.num_slots(); ++s) {
        tables.push_back(sched_.config(s));
      }
      return tables;
    };
    hooks.applier.delivered_bytes = [this] { return delivered_bytes(); };
    hooks.applier.violations = [this]() -> std::uint64_t {
      return auditor() ? auditor()->stats().violations : 0;
    };
    hooks.visit_queues =
        [this](const std::function<void(NodeId, NodeId, std::uint64_t)>& fn) {
          for (NodeId u = 0; u < params_.num_nodes; ++u) {
            voqs_[u].pending().for_each_set([&](std::size_t v) {
              fn(u, static_cast<NodeId>(v), voqs_[u].bytes(v));
            });
          }
        };
    reopt_ = std::make_unique<ReoptService>(
        sim, control_fault(), params.reopt, params.num_nodes, params.mux_degree,
        params.slot_length, params.control_wire_latency(),
        SystemParams::kSchedulerLatency, std::move(hooks));
    reopt_->start();
  }
  slot_clock_.start();
  sl_clock_.start();
}

std::uint64_t TdmNetwork::apply_reopt(const std::vector<BitMatrix>& tables,
                                      bool pinned) {
  PMX_CHECK(tables.size() == sched_.num_slots(),
            "reopt proposal must cover every configuration register");
  // The new tables own the fabric: discard every learned (unpinned) slot and
  // hold latch, then write the configuration registers directly.
  sched_.flush_dynamic();
  predictor_->on_flush();
  for (std::size_t s = 0; s < tables.size(); ++s) {
    if (tables[s].none()) {
      sched_.unload(s);
    } else {
      sched_.preload(s, tables[s], pinned);
    }
  }
  counters().counter(pinned ? "reopt_applies" : "reopt_rollbacks") += 1;
  // A7 resync: invalidate in-flight request/grant traffic from the old
  // table regime and rebuild both views from ground truth, exactly as the
  // auditor's recovery path does.
  return resync_views();
}

void TdmNetwork::on_link_change(NodeId node, bool up) {
  if (!up) {
    // Mask the dead port out of the request/grant matrices and
    // force-release its established connections so their slots are
    // reclaimed; the predictors evict them like any other release.
    for (const auto& [u, v] : sched_.set_port_fault(node, true)) {
      sched_.unhold(u, v);
      predictor_->on_release(Conn{u, v}, sim_.now());
      counters().counter("forced_releases") += 1;
    }
    return;
  }
  // Repair: unmask. Pending requests (messages still queued in the VOQs)
  // re-establish on the following scheduling passes.
  sched_.set_port_fault(node, false);
}

void TdmNetwork::preload(std::size_t slot, const BitMatrix& config,
                         bool pinned) {
  sched_.preload(slot, config, pinned);
  counters().counter("preloads") += 1;
}

void TdmNetwork::flush_hint() {
  sched_.flush_dynamic();
  predictor_->on_flush();
  counters().counter("flushes") += 1;
}

void TdmNetwork::on_slot_tick() {
  // A predictor that detects a communication-phase change (Section 3.3)
  // may ask for a wholesale flush of the learned working set.
  if (predictor_->recommend_flush(sim_.now())) {
    sched_.flush_dynamic();
    predictor_->on_flush();
    counters().counter("auto_flushes") += 1;
  }
  // Starvation watchdog: a source with queued traffic that moves nothing
  // for starvation_slots_ consecutive slots (holds, preloads, or skew have
  // crowded it out of every configuration) triggers a flush of the learned
  // schedule state so the reactive path re-inserts the starved requests.
  const auto starvation_scan = [this] {
    if (starvation_slots_ == 0) {
      return;
    }
    bool intervene = false;
    for (NodeId u = 0; u < params_.num_nodes; ++u) {
      if (voqs_[u].total_bytes() == 0 || progress_[u] != 0) {
        starve_[u] = 0;
        continue;
      }
      if (++starve_[u] >= starvation_slots_) {
        intervene = true;
      }
    }
    if (intervene) {
      sched_.flush_dynamic();
      predictor_->on_flush();
      counters().counter("starvation_interventions") += 1;
      std::fill(starve_.begin(), starve_.end(), 0);
    }
  };
  if (starvation_slots_ > 0) {
    std::fill(progress_.begin(), progress_.end(), 0);
  }
  // Predictor evictions unlatch idle connections; the next SL pass over
  // their slot releases them.
  const std::vector<Conn> evicted = predictor_->collect_evictions(sim_.now());
  for (const Conn& c : evicted) {
    sched_.unhold(c.src, c.dst);
  }
  if (!evicted.empty()) {
    counters().counter("evictions") += evicted.size();
  }

  const auto slot = sched_.advance_slot();
  xbar_.load(sched_.active_config());
  if (!slot) {
    counters().counter("idle_slots") += 1;
    starvation_scan();
    lease_scan();
    return;
  }

  const std::size_t n = params_.num_nodes;
  const TimeNs slot_start = sim_.now();
  // Per-tick tallies, folded into the named counters once after the loop.
  // A counter is only created when the tick has something to add to it
  // (slot_bytes: when some granted pair got to drive data, even 0 bytes).
  std::uint64_t idle_grants = 0;
  std::uint64_t grant_stalls = 0;
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t slot_bytes = 0;
  bool drove = false;
  // Receiving processors consume from their input buffers once per slot.
  if (rx_buffer_ > 0) {
    for (auto& occupancy : rx_occupancy_) {
      occupancy -= std::min(occupancy, rx_drain_);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    const auto granted = sched_.granted_output(u);
    if (!granted) {
      continue;
    }
    const NodeId v = *granted;
    if (voqs_[u].empty(v)) {
      ++idle_grants;
      continue;
    }
    if (plane_ && !plane_->granted(u, v)) {
      // The connection is live in the fabric but the grant reply has not
      // reached (or was lost on the way to) NIC u: it will not drive data
      // it does not know it may drive.
      ++grant_stalls;
      continue;
    }
    std::uint64_t budget = params_.slot_payload_bytes();
    if (rx_buffer_ > 0) {
      // Credit-based end-to-end flow control: never exceed the space the
      // receiver's input buffer has left.
      const std::uint64_t credit = rx_buffer_ - rx_occupancy_[v];
      if (credit < budget) {
        budget = credit;
        ++backpressure_stalls;
      }
    }
    const std::uint64_t sent =
        transfer(u, v, budget, slot_start, /*phase=*/std::nullopt);
    slot_bytes += sent;
    drove = true;
    if (reopt_ && sent > 0) {
      reopt_->observe(u, v, sent);
    }
    if (starvation_slots_ > 0 && sent > 0) {
      progress_[u] = 1;
    }
    if (rx_buffer_ > 0) {
      rx_occupancy_[v] += sent;
    }
    predictor_->on_use(Conn{u, v}, slot_start);
    if (voqs_[u].empty(v) && predictor_->should_hold(Conn{u, v})) {
      sched_.hold(u, v);
      predictor_->on_hold(Conn{u, v}, slot_start);
    }
  }
  if (idle_grants > 0) {
    counters().counter("idle_grants") += idle_grants;
  }
  if (grant_stalls > 0) {
    counters().counter("grant_stalls") += grant_stalls;
  }
  if (backpressure_stalls > 0) {
    counters().counter("backpressure_stalls") += backpressure_stalls;
  }
  if (drove) {
    counters().counter("slot_bytes") += slot_bytes;
  }
  starvation_scan();
  lease_scan();
}

void TdmNetwork::on_sl_tick() {
  // With parallel SL units (Section 4 extension 1) several slots are
  // scheduled per SL clock; the sequential emulation is conservative (the
  // later unit sees the earlier unit's insertions in B*, so no conflicts).
  for (std::size_t unit = 0; unit < sl_units_; ++unit) {
    const auto pass = sched_.run_pass();
    for (const auto& [u, v] : pass.established_pairs) {
      predictor_->on_establish(Conn{u, v}, sim_.now());
      if (plane_) {
        plane_->refresh_lease(u, v);
        plane_->send_grant(u, v, true);
      }
    }
    for (const auto& [u, v] : pass.released_pairs) {
      // Defensive: a released connection must not stay latched.
      sched_.unhold(u, v);
      predictor_->on_release(Conn{u, v}, sim_.now());
      if (plane_) {
        plane_->send_grant(u, v, false);
      }
    }
  }
}

void TdmNetwork::audit_control(std::vector<std::string>& out) {
  sched_.audit_invariants(out);
  const std::size_t n = params_.num_nodes;
  // Hold conservation: the policy engine mirrors every hold latch, and
  // every unlatch path notifies it, so the two hold sets must be
  // bit-identical. Divergence means a policy-engine bookkeeping bug that
  // would otherwise only show up as silent goodput loss.
  std::size_t held = 0;
  for (NodeId u = 0; u < n; ++u) {
    sched_.holds().row(u).for_each_set([&](std::size_t v) {
      ++held;
      if (!predictor_->believes_held(Conn{u, v})) {
        out.push_back("hold divergence (" + std::to_string(u) + " -> " +
                      std::to_string(v) +
                      "): scheduler latched a hold the predictor's mirror "
                      "does not have");
      }
    });
  }
  if (held != predictor_->held_count()) {
    out.push_back("hold count divergence: scheduler latches " +
                  std::to_string(held) + " holds, predictor '" +
                  predictor_->name() + "' mirrors " +
                  std::to_string(predictor_->held_count()));
  }
  audit_views(out);
}

void TdmNetwork::audit_missing_request(NodeId u, NodeId v,
                                       std::vector<std::string>& out) {
  if (!sched_.is_established(u, v) && !plane_->inflight(u, v) &&
      !plane_->watchdog_armed(u, v)) {
    // Wedge: the NIC waits for a connection the scheduler never heard of,
    // and nothing (in-flight message or watchdog) can fix that.
    out.push_back("wedged NIC (" + std::to_string(u) + " -> " +
                  std::to_string(v) +
                  "): intent raised but no request, grant, or watchdog "
                  "pending");
  }
}

}  // namespace pmx
