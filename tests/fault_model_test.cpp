// Unit tests of the fault-injection subsystem: FaultParams gating, the
// deterministic RNG streams, the hard-fault timeline, and the scheduler's
// degraded mode (port masking).

#include "fault/fault_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/tdm_scheduler.hpp"
#include "sim/simulator.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

TEST(FaultParams, DisabledByDefault) {
  const FaultParams p;
  EXPECT_FALSE(p.enabled());
}

TEST(FaultParams, AnyFaultSourceEnables) {
  FaultParams p;
  p.ber = 1e-6;
  EXPECT_TRUE(p.enabled());
  p = FaultParams{};
  p.link_mtbf = 1000_ns;
  EXPECT_TRUE(p.enabled());
  p = FaultParams{};
  p.ack_ber = 1e-6;
  EXPECT_TRUE(p.enabled());
  p = FaultParams{};
  p.force_enable = true;
  EXPECT_TRUE(p.enabled());
}

TEST(FaultParams, AckBerDerivesFromBerByDefault) {
  FaultParams p;
  p.ber = 1e-4;
  EXPECT_DOUBLE_EQ(p.effective_ack_ber(), 1e-4);
  p.ack_ber = 0.0;  // explicitly reliable ACKs
  EXPECT_DOUBLE_EQ(p.effective_ack_ber(), 0.0);
}

TEST(FaultParams, RandomFaultsWithoutRepairAreRejected) {
  // The retry budget is only consumed by arrivals, so a randomly failed
  // link that never repairs would park queued traffic forever instead of
  // degrading the run. Permanent outages are scripted-only.
  Simulator sim;
  FaultParams p;
  p.link_mtbf = 1000_ns;  // link_repair left at zero
  EXPECT_DEATH(FaultModel fm(sim, p, 8), "link_repair");
}

TEST(FaultModel, ZeroBerNeverCorrupts) {
  Simulator sim;
  FaultParams p;
  p.force_enable = true;
  FaultModel fm(sim, p, 8);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(fm.corrupts_payload(1 << 20));
    EXPECT_FALSE(fm.corrupts_ack());
  }
}

TEST(FaultModel, CorruptionDrawsAreSeedDeterministic) {
  FaultParams p;
  p.ber = 1e-3;
  Simulator sim_a;
  Simulator sim_b;
  FaultModel a(sim_a, p, 8);
  FaultModel b(sim_b, p, 8);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(a.corrupts_payload(256), b.corrupts_payload(256));
    ASSERT_EQ(a.corrupts_ack(), b.corrupts_ack());
  }
}

TEST(FaultModel, CorruptionProbabilityScalesWithSize) {
  FaultParams p;
  p.ber = 1e-4;
  Simulator sim;
  FaultModel fm(sim, p, 8);
  int small = 0;
  int large = 0;
  for (int i = 0; i < 20'000; ++i) {
    small += fm.corrupts_payload(8) ? 1 : 0;
    large += fm.corrupts_payload(4096) ? 1 : 0;
  }
  // P(8 B) ~ 0.08%, P(4096 B) ~ 33.6%: orders of magnitude apart.
  EXPECT_LT(small, 100);
  EXPECT_GT(large, 5000);
}

TEST(FaultModel, BackoffDoublesAndCaps) {
  Simulator sim;
  FaultParams p;
  p.force_enable = true;
  p.backoff_base = 200_ns;
  p.backoff_cap = 1000_ns;
  FaultModel fm(sim, p, 8);
  EXPECT_EQ(fm.backoff(2), 200_ns);  // first retransmission
  EXPECT_EQ(fm.backoff(3), 400_ns);
  EXPECT_EQ(fm.backoff(4), 800_ns);
  EXPECT_EQ(fm.backoff(5), 1000_ns);  // capped
  EXPECT_EQ(fm.backoff(50), 1000_ns);  // no overflow at silly attempts
}

TEST(FaultModel, ScriptedFaultTogglesLinkAndNotifies) {
  Simulator sim;
  FaultParams p;
  p.force_enable = true;
  FaultModel fm(sim, p, 8);
  std::vector<std::pair<NodeId, bool>> edges;
  fm.subscribe([&](NodeId n, bool up) { edges.emplace_back(n, up); });

  fm.inject_link_fault(3, 1000_ns, 500_ns);
  EXPECT_TRUE(fm.link_up(3));
  sim.run_until(1200_ns);
  EXPECT_FALSE(fm.link_up(3));
  EXPECT_EQ(fm.num_links_down(), 1u);
  sim.run_until(2000_ns);
  EXPECT_TRUE(fm.link_up(3));
  EXPECT_EQ(fm.num_links_down(), 0u);

  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<NodeId, bool>{3, false}));
  EXPECT_EQ(edges[1], (std::pair<NodeId, bool>{3, true}));
}

TEST(FaultModel, PermanentScriptedFaultNeverRepairs) {
  Simulator sim;
  FaultParams p;
  p.force_enable = true;
  FaultModel fm(sim, p, 8);
  fm.inject_link_fault(0, 100_ns, TimeNs::zero());
  sim.run_until(1000_us);
  EXPECT_FALSE(fm.link_up(0));
}

TEST(FaultModel, MtbfTimelineIsSeedDeterministic) {
  FaultParams p;
  p.link_mtbf = 50'000_ns;
  p.link_repair = 5'000_ns;
  const auto run = [&p] {
    Simulator sim;
    FaultModel fm(sim, p, 16);
    std::vector<std::pair<std::int64_t, NodeId>> log;
    fm.subscribe([&](NodeId n, bool up) {
      if (!up) {
        log.emplace_back(sim.now().ns(), n);
      }
    });
    sim.run_until(500'000_ns);
    return log;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultModel, MaxLinkFaultsCapsRandomTimeline) {
  Simulator sim;
  FaultParams p;
  p.link_mtbf = 1'000_ns;  // very flappy
  p.link_repair = 100_ns;
  p.max_link_faults = 5;
  FaultModel fm(sim, p, 8);
  sim.run_until(10'000'000_ns);
  EXPECT_LE(fm.faults_injected(), 5u);
}

// --- Scheduler degraded mode ----------------------------------------------

TdmScheduler::Options sched_opts(std::size_t n, std::size_t k) {
  TdmScheduler::Options o;
  o.num_ports = n;
  o.num_slots = k;
  return o;
}

TEST(SchedulerFaults, PortFaultForceReleasesAndMasks) {
  TdmScheduler sched(sched_opts(8, 4));
  sched.set_request(1, 5, true);
  sched.set_request(5, 2, true);
  sched.run_pass();
  sched.run_pass();
  ASSERT_TRUE(sched.is_established(1, 5));
  ASSERT_TRUE(sched.is_established(5, 2));

  // Port 5 dies: both the connection into it and the one out of it go.
  const auto released = sched.set_port_fault(5, true);
  EXPECT_EQ(released.size(), 2u);
  EXPECT_FALSE(sched.is_established(1, 5));
  EXPECT_FALSE(sched.is_established(5, 2));
  EXPECT_TRUE(sched.port_failed(5));
  EXPECT_EQ(sched.stats().forced_releases, 2u);

  // Requests are still latched in the request matrix but masked: no pass
  // may re-establish a connection touching the dead port.
  for (std::size_t i = 0; i < 2 * sched.num_slots(); ++i) {
    sched.run_pass();
  }
  EXPECT_FALSE(sched.is_established(1, 5));
  EXPECT_FALSE(sched.is_established(5, 2));
}

TEST(SchedulerFaults, RepairUnmasksAndReestablishes) {
  TdmScheduler sched(sched_opts(8, 4));
  sched.set_request(1, 5, true);
  sched.run_pass();
  sched.set_port_fault(5, true);
  EXPECT_FALSE(sched.is_established(1, 5));
  sched.set_port_fault(5, false);
  EXPECT_FALSE(sched.port_failed(5));
  for (std::size_t i = 0; i < sched.num_slots(); ++i) {
    sched.run_pass();
  }
  EXPECT_TRUE(sched.is_established(1, 5));
}

TEST(SchedulerFaults, PortFaultClearsPinnedSlots) {
  TdmScheduler sched(sched_opts(4, 2));
  BitMatrix cfg(4);
  cfg.set(0, 1);
  cfg.set(2, 3);
  sched.preload(0, cfg, /*pinned=*/true);
  ASSERT_TRUE(sched.is_established(0, 1));
  const auto released = sched.set_port_fault(1, true);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_FALSE(sched.is_established(0, 1));
  EXPECT_TRUE(sched.is_established(2, 3));  // unrelated pair survives
}

}  // namespace
}  // namespace pmx
