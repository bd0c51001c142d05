#include "control/reopt_service.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace pmx {

void ReoptParams::validate() const {
  if (!enabled()) {
    return;
  }
  PMX_CHECK(ewma_shift >= 1 && ewma_shift <= 16,
            "EWMA shift must be in [1, 16]");
  PMX_CHECK(work_budget >= 1, "work budget must be positive");
}

ReoptService::ReoptService(Simulator& sim, ControlFaultModel* ctrl,
                           const ReoptParams& params, std::size_t num_nodes,
                           std::size_t num_slots, TimeNs slot_length,
                           TimeNs wire_latency, TimeNs scheduler_latency,
                           Hooks hooks)
    : sim_(sim),
      ctrl_(ctrl),
      params_(params),
      num_slots_(num_slots),
      slot_length_(slot_length),
      wire_(wire_latency),
      scheduler_latency_(scheduler_latency),
      hooks_(std::move(hooks)),
      estimator_(num_nodes, params.ewma_shift),
      // The optimizer plans over K-1 registers: the last register is never
      // pinned by a proposal, so the reactive path always has at least one
      // slot to establish connections the plan does not cover. Pinning all
      // K would lock uncovered (src, dst) pairs out of the fabric forever.
      optimizer_(SlotOptimizer::Options{num_nodes, num_slots - 1,
                                        params.change_penalty,
                                        params.work_budget}),
      clock_(sim, slot_length * static_cast<std::int64_t>(params.period_slots),
             [this] { on_tick(); }) {
  PMX_CHECK(params_.enabled(), "reopt service constructed while disabled");
  PMX_CHECK(num_slots >= 2,
            "re-optimization needs at least two configuration registers "
            "(one always stays with the reactive scheduler)");
  params_.validate();
  PMX_CHECK(hooks_.apply && hooks_.capture && hooks_.delivered_bytes &&
                hooks_.violations && hooks_.visit_queues,
            "reopt service needs all five hooks");
}

void ReoptService::start() { clock_.start(); }

void ReoptService::on_tick() {
  // Close the demand window: fold queued-but-undelivered backlog in first
  // (starved pairs are demand too -- delivery counters alone would
  // under-report exactly the pairs the current table is failing), then roll
  // the EWMA. The backlog total also arms the probation guard's starvation
  // floor below.
  std::uint64_t queued = 0;
  hooks_.visit_queues([this, &queued](NodeId u, NodeId v, std::uint64_t bytes) {
    queued += bytes;
    estimator_.observe(u, v, bytes);
  });
  estimator_.roll();

  const std::uint64_t delivered = hooks_.delivered_bytes();
  last_window_bytes_ = delivered - bytes_at_last_tick_;
  bytes_at_last_tick_ = delivered;

  if (state_ != State::kIdle) {
    // Bounded disruption: at most one reconfiguration in flight. The next
    // window's solve sees fresher demand anyway.
    return;
  }

  const std::vector<DemandEstimator::Demand> demand = estimator_.snapshot();
  if (demand.empty()) {
    return;
  }
  ++stats_.solves;
  const std::vector<BitMatrix> current = hooks_.capture();
  SlotOptimizer::Proposal proposal = optimizer_.solve(demand, current);
  const TimeNs stage_latency =
      scheduler_latency_ *
      static_cast<std::int64_t>(optimizer_.solve_passes(
          proposal.pairs_examined));

  ++proposal_counter_;
  const bool chaos = params_.chaos_empty_every > 0 &&
                     proposal_counter_ % params_.chaos_empty_every == 0;
  if (chaos) {
    // Poison proposal: every slot -- including the register normally
    // reserved for the reactive path -- pinned to a demandless full
    // permutation (u -> u+1 mod n). With skip-unrequested rotation the
    // fabric idles and the reactive path has no unpinned slot to recover
    // through -- exactly the catastrophic wrong-table case the probation
    // guard and rollback must catch.
    const std::size_t n = estimator_.num_nodes();
    BitMatrix poison(n);
    for (NodeId u = 0; u < n; ++u) {
      poison.set(u, (u + 1) % n);
    }
    proposal.tables.assign(num_slots_, poison);
    proposal.covered = 0;
  } else {
    // Hysteresis: only reconfigure when the proposal beats what the live
    // tables already cover by at least kMinGain demand units.
    const std::int64_t base = optimizer_.baseline_score(demand, current);
    if (proposal.score <
        base + static_cast<std::int64_t>(ReoptParams::kMinGain)) {
      return;
    }
    // Pad to the full register count: the reserved last table is empty, so
    // the apply unloads that slot and hands it to the reactive scheduler.
    proposal.tables.resize(num_slots_, BitMatrix(estimator_.num_nodes()));
  }

  stage(std::move(proposal), stage_latency, queued, chaos);
}

void ReoptService::stage(SlotOptimizer::Proposal proposal,
                         TimeNs stage_latency, std::uint64_t queued_bytes,
                         bool chaos) {
  PMX_CHECK(state_ == State::kIdle, "staging while a reconfig is in flight");
  staged_ = std::move(proposal);
  stage_time_ = sim_.now();
  ++stats_.proposals;
  if (chaos) {
    ++stats_.chaos_proposals;
  }
  // Probation guard baseline: scale the last service window's goodput to
  // the probation length. Integral throughout; a truly idle baseline (zero
  // bytes delivered AND zero bytes queued) disarms the goodput guard for
  // this apply -- reconfiguring an idle fabric cannot dip what is not
  // flowing. A starved fabric is different: when traffic is queued but the
  // last window delivered nothing, the guard stays armed at a one-byte
  // floor so a probation that still moves nothing rolls back. Without the
  // floor, one wedged window would disarm the guard for the next apply and
  // a catastrophic table could pin itself in forever.
  const TimeNs probation =
      slot_length_ * static_cast<std::int64_t>(ReoptParams::kProbationSlots);
  const TimeNs window = clock_.period();
  expected_probation_bytes_ = 0;
  if (window > TimeNs::zero()) {
    expected_probation_bytes_ = last_window_bytes_ *
                                static_cast<std::uint64_t>(probation.ns()) /
                                static_cast<std::uint64_t>(window.ns());
  }
  if (expected_probation_bytes_ == 0 && queued_bytes > 0) {
    expected_probation_bytes_ = 1;
  }

  state_ = State::kStaged;
  const std::uint64_t gen = ++gen_;
  // The apply command rides the same control channel as every other
  // control message: a lost command is a skipped reconfiguration, retried
  // naturally at the next service tick.
  if (!send_control(sim_, ctrl_, CtrlMsg::kReconfig, stage_latency + wire_,
                    [this, gen] { on_command_arrival(gen); })) {
    ++stats_.cmds_lost;
    state_ = State::kIdle;
  }
}

void ReoptService::on_command_arrival(std::uint64_t gen) {
  if (gen != gen_ || state_ != State::kStaged) {
    return;
  }
  stashed_ = hooks_.capture();
  apply_time_ = sim_.now();
  stats_.invalidated_ctrl += hooks_.apply(staged_.tables, /*pinned=*/true);
  ++stats_.applies;
  stats_.apply_latency_ns.push_back((apply_time_ - stage_time_).ns());
  bytes_at_apply_ = hooks_.delivered_bytes();
  violations_at_apply_ = hooks_.violations();
  state_ = State::kProbation;
  const TimeNs probation =
      slot_length_ * static_cast<std::int64_t>(ReoptParams::kProbationSlots);
  sim_.schedule_after(probation, [this, gen] { on_probation_end(gen); });
}

void ReoptService::on_probation_end(std::uint64_t gen) {
  if (gen != gen_ || state_ != State::kProbation) {
    return;
  }
  const std::uint64_t delivered = hooks_.delivered_bytes() - bytes_at_apply_;
  const bool violated = hooks_.violations() > violations_at_apply_;
  // Goodput guard: delivered * 100 < expected * pct, all integral.
  const bool dipped =
      delivered * 100 <
      expected_probation_bytes_ * ReoptParams::kGuardThresholdPct;
  if (violated || dipped) {
    // Roll back to the stashed pre-apply tables, unpinned: the reactive
    // path owns every slot again until the next solve earns trust. The
    // rollback command uses the lossless maintenance channel (like the A7
    // resync itself) -- an un-revertable bad table would be a wedge.
    stats_.invalidated_ctrl += hooks_.apply(stashed_, /*pinned=*/false);
    ++stats_.rollbacks;
    if (expected_probation_bytes_ > delivered) {
      stats_.dip_depth_bytes = std::max(stats_.dip_depth_bytes,
                                        expected_probation_bytes_ - delivered);
    }
    stats_.dip_duration_ns += (sim_.now() - apply_time_).ns();
  }
  state_ = State::kIdle;
  ++gen_;
}

}  // namespace pmx
