#include "switching/preload_tdm.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace pmx {

namespace {

/// Consecutive zero-progress slots tolerated before the loaded-configuration
/// window is reshuffled towards head-of-line demand (see preemption note in
/// the class description of fill_free_slots/on_slot_tick).
constexpr std::uint64_t kStallSlots = 3;

}  // namespace

PreloadTdmNetwork::PreloadTdmNetwork(Simulator& sim,
                                     const SystemParams& params,
                                     CompiledPlan plan)
    // Configuration registers are preloaded directly (out of band); only
    // the request/release wires are lossy, there is no grant reply to lose.
    : TdmFabricNetwork(sim, params, /*multi_slot_connections=*/false,
                       /*grant_line=*/false),
      plan_(std::move(plan)),
      slot_config_(params.mux_degree),
      slot_clock_(sim, params.slot_length, [this] { on_slot_tick(); }) {
  PMX_CHECK(!plan_.phases.empty(), "compiled plan has no phases");
  config_sent_.assign(plan_.phases[0].configs.size(), 0);
  phase_unsettled_.assign(plan_.phases.size(), 0);
  if (params.reopt.enabled()) {
    demand_ = std::make_unique<DemandEstimator>(params.num_nodes,
                                                params.reopt.ewma_shift);
    demand_clock_ = std::make_unique<Clock>(
        sim,
        params.slot_length * static_cast<std::int64_t>(
                                 params.reopt.period_slots),
        [this] { on_demand_roll(); });
    demand_clock_->start();
  }
  maybe_advance_phase();  // skips leading empty phases
  fill_free_slots();
  slot_clock_.start();
}

void PreloadTdmNetwork::on_demand_roll() {
  for (NodeId u = 0; u < params_.num_nodes; ++u) {
    voqs_[u].pending().for_each_set([&](std::size_t v) {
      demand_->observe(u, static_cast<NodeId>(v),
                       voqs_[u].bytes(static_cast<NodeId>(v)));
    });
  }
  demand_->roll();
}

void PreloadTdmNetwork::do_submit(const Message& msg) {
  PMX_CHECK(msg.phase < plan_.phases.size(), "message phase beyond plan");
  PMX_CHECK(plan_.phases[msg.phase].config_of(msg.src, msg.dst) !=
                PhasePlan::kNoConfig,
            "message pair missing from compiled plan");
  TdmFabricNetwork::do_submit(msg);
  if (fault_tolerant() && !retransmitting_) {
    ++phase_unsettled_[msg.phase];
  }
}

void PreloadTdmNetwork::do_retransmit(const Message& msg) {
  // The phase is held open (maybe_advance_phase) while any of its messages
  // is unsettled, so the copy always re-enters its own phase.
  PMX_CHECK(msg.phase == phase_, "retransmission crossed a phase boundary");
  const std::size_t cfg = plan_.phases[phase_].config_of(msg.src, msg.dst);
  if (cfg != PhasePlan::kNoConfig) {
    // Give the bytes back to the compiled budget: the configuration must
    // stay loadable until the retransmitted copy has drained through it.
    config_sent_[cfg] -= std::min<std::uint64_t>(config_sent_[cfg], msg.bytes);
  }
  retransmitting_ = true;
  do_submit(msg);
  retransmitting_ = false;
}

void PreloadTdmNetwork::on_message_settled(const Message& msg) {
  PMX_CHECK(phase_unsettled_[msg.phase] > 0,
            "settling a message its phase never counted");
  --phase_unsettled_[msg.phase];
}

void PreloadTdmNetwork::on_message_shed(const Message& msg) {
  const std::size_t cfg = plan_.phases[msg.phase].config_of(msg.src, msg.dst);
  if (cfg == PhasePlan::kNoConfig) {
    return;
  }
  if (msg.phase == phase_) {
    config_sent_[cfg] += msg.bytes;
    return;
  }
  if (msg.phase < phase_) {
    return;  // its phase already retired; nothing to credit
  }
  // Queued victim from a phase not yet entered: bank the credit so the
  // phase starts with its budget already partially drained.
  if (shed_credit_.empty()) {
    shed_credit_.resize(plan_.phases.size());
  }
  auto& credit = shed_credit_[msg.phase];
  if (credit.empty()) {
    credit.assign(plan_.phases[msg.phase].configs.size(), 0);
  }
  credit[cfg] += msg.bytes;
}

bool PreloadTdmNetwork::phase_drained() const {
  const PhasePlan& phase = plan_.phases[phase_];
  for (std::size_t i = 0; i < phase.configs.size(); ++i) {
    if (config_sent_[i] < phase.config_bytes[i]) {
      return false;
    }
  }
  return true;
}

void PreloadTdmNetwork::maybe_advance_phase() {
  while (phase_drained() && phase_ + 1 < plan_.phases.size()) {
    if (fault_tolerant() && phase_unsettled_[phase_] > 0) {
      // Every byte crossed the fabric, but some message is still awaiting
      // its ACK (or a retransmission): hold the phase so a late copy can
      // re-credit and reuse this phase's configurations.
      return;
    }
    ++phase_;
    if (phase_ < shed_credit_.size() && !shed_credit_[phase_].empty()) {
      config_sent_ = shed_credit_[phase_];
    } else {
      config_sent_.assign(plan_.phases[phase_].configs.size(), 0);
    }
    for (std::size_t s = 0; s < slot_config_.size(); ++s) {
      PMX_CHECK(!slot_config_[s].has_value(),
                "advancing phase with configurations still loaded");
    }
    counters().counter("phase_advances") += 1;
  }
}

void PreloadTdmNetwork::fill_free_slots() {
  if (std::all_of(slot_config_.begin(), slot_config_.end(),
                  [](const auto& s) { return s.has_value(); })) {
    return;  // nothing to fill; skip the ranking work entirely
  }
  const PhasePlan& phase = plan_.phases[phase_];
  // Pending = not loaded and not drained. Prefer configurations that some
  // node's head-of-line message needs right now; break ties by index (the
  // compiler's load-time order).
  std::vector<std::uint64_t> head_demand(phase.configs.size(), 0);
  for (NodeId u = 0; u < params_.num_nodes; ++u) {
    voqs_[u].pending().for_each_set([&](std::size_t v) {
      const std::size_t cfg = phase.config_of(u, static_cast<NodeId>(v));
      if (cfg != PhasePlan::kNoConfig) {
        head_demand[cfg] += voqs_[u].head_remaining(static_cast<NodeId>(v));
      }
    });
  }
  // Estimator stage of the re-optimization service: once the EWMA has
  // rolled at least once, rank pending configurations by smoothed measured
  // demand instead, which survives churn that instantaneous head-of-line
  // bytes cannot see. Ties keep the compiler's index order.
  std::vector<std::uint64_t> est_demand;
  if (demand_ != nullptr && demand_->rolls() > 0) {
    est_demand.assign(phase.configs.size(), 0);
    for (const DemandEstimator::Demand& d : demand_->snapshot()) {
      const std::size_t cfg = phase.config_of(d.src, d.dst);
      if (cfg != PhasePlan::kNoConfig) {
        est_demand[cfg] += d.demand;
      }
    }
  }
  const auto loaded = [&](std::size_t cfg) {
    return std::any_of(slot_config_.begin(), slot_config_.end(),
                       [&](const auto& s) { return s == cfg; });
  };
  const auto next_pending = [&]() -> std::size_t {
    std::size_t hol = PhasePlan::kNoConfig;   // lowest index, head demand
    std::size_t idle = PhasePlan::kNoConfig;  // lowest index, pending at all
    std::size_t ranked = PhasePlan::kNoConfig;
    std::uint64_t ranked_demand = 0;
    for (std::size_t c = 0; c < phase.configs.size(); ++c) {
      if (config_sent_[c] >= phase.config_bytes[c] || loaded(c)) {
        continue;
      }
      if (idle == PhasePlan::kNoConfig) {
        idle = c;
      }
      if (hol == PhasePlan::kNoConfig && head_demand[c] > 0) {
        hol = c;
      }
      if (!est_demand.empty() && est_demand[c] > ranked_demand) {
        ranked = c;  // strict > keeps the lowest index on ties
        ranked_demand = est_demand[c];
      }
    }
    if (ranked != PhasePlan::kNoConfig) {
      counters().counter("reopt_ranked_loads") += 1;
      return ranked;
    }
    return hol != PhasePlan::kNoConfig ? hol : idle;
  };

  for (std::size_t s = 0; s < slot_config_.size(); ++s) {
    if (slot_config_[s].has_value()) {
      continue;
    }
    const std::size_t cfg = next_pending();
    if (cfg == PhasePlan::kNoConfig) {
      break;
    }
    slot_config_[s] = cfg;
    counters().counter("config_loads") += 1;
    // Writing a configuration register costs one scheduler pass.
    sim_.schedule_after(SystemParams::kSchedulerLatency, [this, s, cfg] {
      // The slot may have been retargeted while the write was in flight.
      if (slot_config_[s] == cfg) {
        sched_.preload(s, plan_.phases[phase_].configs[cfg], true);
      }
    });
  }
}

void PreloadTdmNetwork::on_slot_tick() {
  const auto slot = sched_.advance_slot();
  xbar_.load(sched_.active_config());
  const TimeNs slot_start = sim_.now();
  std::uint64_t transmitted = 0;

  if (slot) {
    const FaultModel* fm = fault_model();
    const PhasePlan& phase = plan_.phases[phase_];
    for (NodeId u = 0; u < params_.num_nodes; ++u) {
      const auto granted = sched_.granted_output(u);
      if (!granted || voqs_[u].empty(*granted)) {
        continue;
      }
      const NodeId v = *granted;
      if (fm != nullptr && (!fm->link_up(u) || !fm->link_up(v))) {
        // The preloaded configuration stays pinned through the outage; the
        // pair simply transmits nothing until the cable is repaired.
        continue;
      }
      // Only traffic belonging to the current phase moves: a head message
      // tagged for a later phase waits for its own configurations.
      const std::uint64_t sent =
          transfer(u, v, params_.slot_payload_bytes(), slot_start, phase_);
      transmitted += sent;
      if (demand_ != nullptr && sent > 0) {
        demand_->observe(u, v, sent);
      }
      const std::size_t cfg = phase.config_of(u, v);
      if (cfg != PhasePlan::kNoConfig) {
        config_sent_[cfg] += sent;
      }
    }
    counters().counter("slot_bytes") += transmitted;
  }
  lease_scan();

  // Retire drained configurations and hand their slots to pending ones.
  const PhasePlan& phase = plan_.phases[phase_];
  for (std::size_t s = 0; s < slot_config_.size(); ++s) {
    if (!slot_config_[s].has_value()) {
      continue;
    }
    const std::size_t cfg = *slot_config_[s];
    if (config_sent_[cfg] >= phase.config_bytes[cfg]) {
      sched_.unload(s);
      slot_config_[s].reset();
    }
  }
  maybe_advance_phase();

  // Stall recovery: the compiler's load order may disagree with the actual
  // interleaving of sequential per-node programs (a head-of-line message may
  // need a configuration that is still pending while every loaded one is
  // waiting for traffic queued *behind* such heads). After kStallSlots
  // zero-progress slots, evict one demandless loaded configuration so
  // fill_free_slots can bring in a demanded one -- the "temporary
  /// preemption" escape hatch of Section 3.3.
  if (transmitted == 0 && queued_bytes() > 0) {
    ++stall_slots_;
    if (stall_slots_ >= kStallSlots) {
      stall_slots_ = 0;
      for (std::size_t s = 0; s < slot_config_.size(); ++s) {
        if (slot_config_[s].has_value()) {
          counters().counter("stall_preemptions") += 1;
          sched_.unload(s);
          slot_config_[s].reset();
          break;
        }
      }
    }
  } else {
    stall_slots_ = 0;
  }

  fill_free_slots();
}

void PreloadTdmNetwork::audit_control(std::vector<std::string>& out) {
  sched_.audit_invariants(out);
  audit_views(out);
}

void PreloadTdmNetwork::audit_missing_request(NodeId u, NodeId v,
                                              std::vector<std::string>& out) {
  if (!plane_->inflight(u, v) && !plane_->watchdog_armed(u, v)) {
    // Wedge: with the request bit lost, skip-unrequested-slots rotation
    // will never dwell on this pair's configuration.
    out.push_back("wedged NIC (" + std::to_string(u) + " -> " +
                  std::to_string(v) +
                  "): intent raised but no request or watchdog pending");
  }
}

}  // namespace pmx
