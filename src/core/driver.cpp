#include "core/driver.hpp"

#include "common/assert.hpp"

namespace pmx {

TrafficDriver::TrafficDriver(Simulator& sim, Network& network,
                             Workload workload, SendMode mode)
    : sim_(sim),
      network_(network),
      workload_(std::move(workload)),
      mode_(mode),
      pc_(workload_.num_nodes(), 0),
      phase_(workload_.num_nodes(), 0) {
  PMX_CHECK(workload_.num_nodes() == network_.params().num_nodes,
            "workload and network disagree on node count");
  // Validates that every program agrees on the barrier count; unequal
  // counts would deadlock the barrier protocol below.
  (void)workload_.num_phases();
  if (mode_ == SendMode::kBlocking) {
    network_.set_send_done_handler(
        [this](const Message& msg) { issue_next(msg.src); });
  }
  network_.set_delivered_handler([this](const MessageRecord&) {
    release_barrier_if_drained();
    maybe_stop();
  });
  // A permanently dropped message will never be delivered; count it as
  // resolved so barriers release and the run terminates on a dead link
  // instead of hanging forever.
  network_.set_dropped_handler([this](const Message&) {
    release_barrier_if_drained();
    maybe_stop();
  });
  // Shed messages resolve the same way (the handler fires synchronously
  // from inside try_submit, which is safe: the submitting node is mid-send,
  // so no barrier can be pending and no spurious release is possible).
  network_.set_shed_handler([this](const Message&) {
    release_barrier_if_drained();
    maybe_stop();
  });
}

void TrafficDriver::start() {
  for (NodeId u = 0; u < workload_.num_nodes(); ++u) {
    sim_.schedule_after(TimeNs::zero(), [this, u] { issue_next(u); });
  }
}

void TrafficDriver::issue_next(NodeId u) {
  while (true) {
    if (pc_[u] >= workload_.programs[u].size()) {
      ++nodes_done_;
      maybe_stop();
      return;
    }
    const Command& cmd = workload_.programs[u][pc_[u]];
    switch (cmd.kind) {
      case Command::Kind::kSend: {
        const auto outcome =
            network_.try_submit(u, cmd.dst, cmd.bytes, phase_[u]);
        if (outcome.status == Network::SubmitStatus::kBackpressure) {
          // Closed-loop flow control: the NIC queue is full and refuses the
          // message. The processor stalls one slot and retries without
          // advancing its program counter; the stall time is the
          // backpressure overload metric.
          const TimeNs stall = network_.params().slot_length;
          network_.counters().counter("backpressure_stall_ns") +=
              static_cast<std::uint64_t>(stall.ns());
          sim_.schedule_after(stall, [this, u] { issue_next(u); });
          return;
        }
        ++pc_[u];
        if (outcome.status == Network::SubmitStatus::kShed) {
          // The message was counted and immediately shed; no send-done will
          // ever fire for it, so resume the node directly in either mode.
          sim_.schedule_after(SystemParams::kNicCycle,
                              [this, u] { issue_next(u); });
          return;
        }
        if (mode_ == SendMode::kEager) {
          // One NIC cycle to hand the message to the output buffer, then
          // the processor moves on.
          sim_.schedule_after(SystemParams::kNicCycle,
                              [this, u] { issue_next(u); });
        }
        // kBlocking resumes from the send-done handler instead.
        return;
      }
      case Command::Kind::kBarrier:
        reach_barrier(u);
        return;  // resume on barrier release
      case Command::Kind::kFlush:
        ++pc_[u];
        network_.flush_hint();
        continue;
      case Command::Kind::kCompute: {
        ++pc_[u];
        const TimeNs delay = cmd.delay;
        sim_.schedule_after(delay, [this, u] { issue_next(u); });
        return;
      }
    }
  }
}

void TrafficDriver::reach_barrier(NodeId /*node*/) {
  ++barrier_arrived_;
  if (barrier_arrived_ < workload_.num_nodes()) {
    return;  // this node blocks; the last arriver triggers the release check
  }
  barrier_pending_ = true;
  release_barrier_if_drained();
}

void TrafficDriver::release_barrier_if_drained() {
  if (!barrier_pending_ || !drained()) {
    return;
  }
  barrier_pending_ = false;
  barrier_arrived_ = 0;
  for (NodeId v = 0; v < workload_.num_nodes(); ++v) {
    PMX_CHECK(pc_[v] < workload_.programs[v].size() &&
                  workload_.programs[v][pc_[v]].kind ==
                      Command::Kind::kBarrier,
              "barrier release with a node not at its barrier");
    ++pc_[v];
    ++phase_[v];
    sim_.schedule_after(TimeNs::zero(), [this, v] { issue_next(v); });
  }
}

void TrafficDriver::maybe_stop() {
  if (!finished_ && nodes_done_ == workload_.num_nodes() && drained()) {
    finished_ = true;
    sim_.stop();
  }
}

bool TrafficDriver::drained() const {
  return messages_delivered() + messages_dropped() + messages_shed() ==
         messages_submitted();
}

}  // namespace pmx
