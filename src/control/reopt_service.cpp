#include "control/reopt_service.hpp"

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
      params_(params),
      num_slots_(num_slots),
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
  applier_ = std::make_unique<ReconfigApplier>(
      sim, ctrl, slot_length, wire_latency, hooks_.applier, stats_);
}

void ReoptService::start() { clock_.start(); }

void ReoptService::on_tick() {
  // Close the demand window: fold queued-but-undelivered backlog in first
  // (starved pairs are demand too -- delivery counters alone would
  // under-report exactly the pairs the current table is failing), then roll
  // the EWMA. The backlog total also arms the probation guard's starvation
  // floor below.
  std::uint64_t queued = 0;
  if (hooks_.visit_queues) {
    hooks_.visit_queues(
        [this, &queued](NodeId u, NodeId v, std::uint64_t bytes) {
          queued += bytes;
          estimator_.observe(u, v, bytes);
        });
  }
  estimator_.roll();

  const std::uint64_t delivered = hooks_.applier.delivered_bytes();
  last_window_bytes_ = delivered - bytes_at_last_tick_;
  bytes_at_last_tick_ = delivered;

  if (!applier_->idle()) {
    // Bounded disruption: at most one reconfiguration in flight. The next
    // window's solve sees fresher demand anyway.
    return;
  }

  const std::vector<DemandEstimator::Demand> demand = estimator_.snapshot();
  if (demand.empty()) {
    return;
  }
  ++stats_.solves;
  const std::vector<BitMatrix> current = hooks_.applier.capture();
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

  applier_->stage(std::move(proposal), stage_latency, last_window_bytes_,
                  period(), queued, chaos);
}

}  // namespace pmx
