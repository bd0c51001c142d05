// Unit tests of the control-plane fault injector: ControlFaultParams
// validation (fail fast on nonsensical knobs), seed determinism of the
// verdict stream, scripted force_* overrides, the watchdog backoff curve,
// and the zero-rate timing-neutrality guarantee.

#include "fault/control_fault.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

constexpr TimeNs kSlot{100};

TEST(ControlFaultParams, DisabledByDefault) {
  const ControlFaultParams p;
  EXPECT_FALSE(p.enabled());
}

TEST(ControlFaultParams, AnyFaultSourceEnables) {
  ControlFaultParams p;
  p.loss = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.delay_rate = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.grant_loss = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.release_loss = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.force_enable = true;
  EXPECT_TRUE(p.enabled());
}

TEST(ControlFaultParams, PerKindLossFallsBackToGlobal) {
  ControlFaultParams p;
  p.loss = 0.2;
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kRequest), 0.2);
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kGrant), 0.2);
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kRelease), 0.2);
  p.grant_loss = 0.0;  // explicit: grants travel a reliable wire
  p.release_loss = 0.5;
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kGrant), 0.0);
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kRelease), 0.5);
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kRequest), 0.2);
}

TEST(ControlFaultParams, ValidateRejectsBadKnobs) {
  ControlFaultParams p;
  p.loss = 1.5;
  EXPECT_DEATH(p.validate(kSlot), "loss rate");
  p = ControlFaultParams{};
  p.delay_rate = 2.0;
  EXPECT_DEATH(p.validate(kSlot), "delay rate");
  p = ControlFaultParams{};
  p.delay = TimeNs{-1};
  EXPECT_DEATH(p.validate(kSlot), "negative control delay");
  p = ControlFaultParams{};
  p.watchdog_timeout = TimeNs::zero();
  EXPECT_DEATH(p.validate(kSlot), "watchdog timeout");
  p = ControlFaultParams{};
  p.watchdog_cap = TimeNs{100};  // below the 500 ns base timeout
  EXPECT_DEATH(p.validate(kSlot), "backoff cap");
  p = ControlFaultParams{};
  p.lease = TimeNs{50};  // shorter than one slot: would expire live pairs
  EXPECT_DEATH(p.validate(kSlot), "lease");
}

TEST(ControlFaultParams, ZeroLeaseDisablesLeasesAndValidates) {
  ControlFaultParams p;
  p.lease = TimeNs::zero();
  p.validate(kSlot);  // must not die
}

TEST(ControlFaultModel, VerdictStreamIsSeedDeterministic) {
  ControlFaultParams p;
  p.loss = 0.2;
  p.delay_rate = 0.1;
  Simulator sim_a;
  Simulator sim_b;
  ControlFaultModel a(sim_a, p, kSlot);
  ControlFaultModel b(sim_b, p, kSlot);
  for (int i = 0; i < 2000; ++i) {
    const auto kind = static_cast<CtrlMsg>(i % 3);
    EXPECT_EQ(a.decide(kind), b.decide(kind));
  }
  EXPECT_GT(a.total_dropped(), 0u);
  EXPECT_GT(a.total_delayed(), 0u);
  EXPECT_EQ(a.total_sent(), 2000u);
}

TEST(ControlFaultModel, ZeroRatesAlwaysDeliver) {
  Simulator sim;
  ControlFaultParams p;
  p.force_enable = true;
  ControlFaultModel cf(sim, p, kSlot);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(cf.decide(CtrlMsg::kRequest), ControlFaultModel::Verdict::kDeliver);
  }
  EXPECT_EQ(cf.total_dropped(), 0u);
}

TEST(ControlFaultModel, ScriptedFaultsOverrideWithoutConsumingRng) {
  // Two models, same seed and rates. Scripting extra faults into one must
  // not shift its random verdict stream relative to the other: the forced
  // verdicts are inserted, the seeded draws continue in lockstep.
  ControlFaultParams p;
  p.loss = 0.3;
  Simulator sim_a;
  Simulator sim_b;
  ControlFaultModel a(sim_a, p, kSlot);
  ControlFaultModel b(sim_b, p, kSlot);
  a.force_drop(CtrlMsg::kRequest, 1);
  a.force_delay(CtrlMsg::kRequest, 1);
  EXPECT_EQ(a.decide(CtrlMsg::kRequest), ControlFaultModel::Verdict::kDrop);
  EXPECT_EQ(a.decide(CtrlMsg::kRequest), ControlFaultModel::Verdict::kDelay);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.decide(CtrlMsg::kRequest), b.decide(CtrlMsg::kRequest));
  }
}

TEST(ControlFaultModel, SendSchedulesDeliveryOrDropsSilently) {
  Simulator sim;
  ControlFaultParams p;
  p.force_enable = true;
  p.delay = TimeNs{40};
  ControlFaultModel cf(sim, p, kSlot);
  std::vector<int> arrived;
  EXPECT_TRUE(cf.send(CtrlMsg::kGrant, TimeNs{10}, [&] { arrived.push_back(1); }));
  cf.force_drop(CtrlMsg::kGrant, 1);
  EXPECT_FALSE(cf.send(CtrlMsg::kGrant, TimeNs{10}, [&] { arrived.push_back(2); }));
  cf.force_delay(CtrlMsg::kGrant, 1);
  EXPECT_TRUE(cf.send(CtrlMsg::kGrant, TimeNs{10}, [&] {
    arrived.push_back(3);
    EXPECT_EQ(sim.now(), TimeNs{50});  // latency 10 + scripted delay 40
  }));
  sim.run_until(1_us);
  ASSERT_EQ(arrived.size(), 2u);
  EXPECT_EQ(arrived[0], 1);
  EXPECT_EQ(arrived[1], 3);
  EXPECT_EQ(cf.stats(CtrlMsg::kGrant).sent, 3u);
  EXPECT_EQ(cf.stats(CtrlMsg::kGrant).dropped, 1u);
  EXPECT_EQ(cf.stats(CtrlMsg::kGrant).delayed, 1u);
}

TEST(ControlFaultModel, WatchdogBackoffDoublesToCap) {
  Simulator sim;
  ControlFaultParams p;
  p.force_enable = true;
  p.watchdog_timeout = TimeNs{500};
  p.watchdog_cap = TimeNs{16'000};
  ControlFaultModel cf(sim, p, kSlot);
  EXPECT_EQ(cf.watchdog_delay(1), TimeNs{500});
  EXPECT_EQ(cf.watchdog_delay(2), TimeNs{1000});
  EXPECT_EQ(cf.watchdog_delay(3), TimeNs{2000});
  EXPECT_EQ(cf.watchdog_delay(6), TimeNs{16'000});
  EXPECT_EQ(cf.watchdog_delay(7), TimeNs{16'000});   // capped
  EXPECT_EQ(cf.watchdog_delay(40), TimeNs{16'000});  // no overflow
}

}  // namespace
}  // namespace pmx
