#include "fault/fault_model.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace pmx {

void FaultParams::validate() const {
  PMX_CHECK(ber >= 0.0 && ber <= 1.0, "bit-error rate must be in [0, 1]");
  PMX_CHECK(ack_ber <= 1.0, "ack bit-error rate must be <= 1");
  PMX_CHECK(link_mtbf >= TimeNs::zero(), "negative link MTBF");
  PMX_CHECK(link_repair >= TimeNs::zero(), "negative link repair time");
  PMX_CHECK(link_mtbf == TimeNs::zero() || link_repair > TimeNs::zero(),
            "random link faults require link_repair > 0: a permanently dead "
            "link parks queued traffic forever (scripted inject_link_fault "
            "still allows permanent outages)");
  PMX_CHECK(retry_budget >= 1, "retry budget must allow at least one attempt");
  PMX_CHECK(backoff_base > TimeNs::zero(), "backoff base must be positive");
  PMX_CHECK(backoff_cap >= backoff_base, "backoff cap below backoff base");
}

FaultModel::FaultModel(Simulator& sim, const FaultParams& params,
                       std::size_t num_nodes)
    : sim_(sim),
      params_(params),
      corrupt_rng_(params.seed),
      fault_rng_(Rng(params.seed).split()),
      up_(num_nodes, true) {
  params_.validate();
  payload_log1m_ber_ = params_.ber > 0.0 ? std::log1p(-params_.ber) : 0.0;
  const double ack_ber = params_.effective_ack_ber();
  ack_corrupt_p_ =
      ack_ber > 0.0
          ? -std::expm1(static_cast<double>(kAckBytes) * std::log1p(-ack_ber))
          : 0.0;

  if (params_.link_mtbf > TimeNs::zero()) {
    for (NodeId node = 0; node < num_nodes; ++node) {
      schedule_next_failure(node);
    }
  }
}

bool FaultModel::corrupts_payload(std::uint64_t bytes) {
  if (forced_corruptions_ > 0) {
    --forced_corruptions_;
    return true;
  }
  if (params_.ber <= 0.0) {
    return false;  // no RNG draw: the zero-rate model stays timing-neutral
  }
  const double p =
      -std::expm1(static_cast<double>(bytes) * payload_log1m_ber_);
  return corrupt_rng_.chance(p);
}

bool FaultModel::corrupts_ack() {
  if (forced_ack_corruptions_ > 0) {
    --forced_ack_corruptions_;
    return true;
  }
  if (ack_corrupt_p_ <= 0.0) {
    return false;
  }
  return corrupt_rng_.chance(ack_corrupt_p_);
}

TimeNs FaultModel::backoff(std::size_t attempt) const {
  PMX_CHECK(attempt >= 2, "backoff applies to retransmissions only");
  std::int64_t b = params_.backoff_base.ns();
  for (std::size_t i = 2; i < attempt && b < params_.backoff_cap.ns(); ++i) {
    b *= 2;
  }
  return std::min(TimeNs{b}, params_.backoff_cap);
}

void FaultModel::inject_link_fault(NodeId node, TimeNs at, TimeNs duration) {
  PMX_CHECK(node < up_.size(), "fault node out of range");
  PMX_CHECK(at >= sim_.now(), "cannot inject a fault in the past");
  sim_.schedule_at(at, [this, node, duration] {
    fail_link(node, duration, /*scripted=*/true);
  });
}

void FaultModel::schedule_next_failure(NodeId node) {
  const double mean = static_cast<double>(params_.link_mtbf.ns());
  const auto wait =
      std::max<std::int64_t>(1, std::llround(fault_rng_.exponential(mean)));
  sim_.schedule_after(TimeNs{wait}, [this, node] {
    fail_link(node, params_.link_repair, /*scripted=*/false);
  });
}

void FaultModel::fail_link(NodeId node, TimeNs repair_after, bool scripted) {
  if (!scripted && injected_ >= params_.max_link_faults) {
    return;  // cap reached: the random timeline goes quiet
  }
  if (!up_[node]) {
    // Already down (overlapping scripted/random faults): keep the earlier
    // outage, but stay on the random timeline.
    if (!scripted && params_.link_repair > TimeNs::zero()) {
      schedule_next_failure(node);
    }
    return;
  }
  up_[node] = false;
  ++links_down_;
  ++injected_;
  notify(node, /*up=*/false);
  if (repair_after > TimeNs::zero()) {
    sim_.schedule_after(repair_after, [this, node, scripted] {
      repair_link(node);
      if (!scripted && params_.link_mtbf > TimeNs::zero()) {
        schedule_next_failure(node);
      }
    });
  }
}

void FaultModel::repair_link(NodeId node) {
  if (up_[node]) {
    return;
  }
  up_[node] = true;
  --links_down_;
  notify(node, /*up=*/true);
}

void FaultModel::notify(NodeId node, bool up) {
  for (const auto& listener : listeners_) {
    listener(node, up);
  }
}

}  // namespace pmx
