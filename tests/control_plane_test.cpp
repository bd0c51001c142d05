// End-to-end control-plane hardening on the two TDM paradigms, which share
// one NIC <-> scheduler front end: scripted request/release losses healed by
// the NIC watchdog and the scheduler lease, strict-mode audits proving that
// leaks/wedges really happen when the healing is off, and auditor-driven
// resync as the recovery of last resort. Every request/release case runs on
// both dynamic and preloaded TDM; the grant-line cases are dynamic-only
// (preloaded configuration registers are written directly, so there is no
// grant reply to lose).

#include <gtest/gtest.h>

#include <memory>

#include "compiled/plan.hpp"
#include "fault/control_fault.hpp"
#include "sim/simulator.hpp"
#include "switching/preload_tdm.hpp"
#include "switching/slot_auditor.hpp"
#include "switching/tdm.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

SystemParams ctrl_params(bool heal = true, bool audit = false,
                         bool strict = false) {
  SystemParams p;
  p.num_nodes = 8;
  p.mux_degree = 4;
  p.ctrl.force_enable = true;  // all rates zero: faults are scripted
  p.ctrl.heal = heal;
  p.audit.enabled = audit;
  p.audit.period_slots = 4;
  p.audit.strict = strict;
  return p;
}

enum class Tdm { kDynamic, kPreload };

/// A TDM network of either paradigm. The preloaded one runs a one-phase
/// compiled plan for the single 64-byte 0 -> 1 transfer that every
/// request/release case submits.
std::unique_ptr<Network> make_tdm(Simulator& sim, const SystemParams& p,
                                  Tdm kind) {
  if (kind == Tdm::kDynamic) {
    return std::make_unique<TdmNetwork>(sim, p);
  }
  Workload w;
  w.programs.resize(p.num_nodes);
  w.programs[0].push_back(Command::send(1, 64));
  return std::make_unique<PreloadTdmNetwork>(sim, p, compile_workload(w));
}

void lost_request_healed_by_watchdog(Tdm kind) {
  Simulator sim;
  auto net = make_tdm(sim, ctrl_params(), kind);
  net->control_fault()->force_drop(CtrlMsg::kRequest, 1);
  net->submit(0, 1, 64);
  sim.run_until(100_us);
  EXPECT_EQ(net->delivered_count(), 1u);
  EXPECT_GE(net->counters().value("ctrl_rerequests"), 1u);
  // The reissue costs at least one watchdog timeout before the scheduler
  // even hears about the request.
  EXPECT_GE(net->records()[0].delivered.ns(), 500);
}

void lost_release_healed_by_lease(Tdm kind) {
  Simulator sim;
  auto net = make_tdm(sim, ctrl_params(/*heal=*/true, /*audit=*/true), kind);
  net->control_fault()->force_drop(CtrlMsg::kRelease, 1);
  net->submit(0, 1, 64);
  sim.run_until(100_us);
  EXPECT_EQ(net->delivered_count(), 1u);
  // The scheduler kept the dead pair's request bit until the idle lease ran
  // out, then reclaimed it on its own.
  EXPECT_EQ(net->counters().value("lease_expiries"), 1u);
  // After the expiry the views agree again: the periodic audit stays clean
  // and no resync was ever needed.
  net->auditor()->audit_now();
  EXPECT_TRUE(net->auditor()->last_violations().empty());
  EXPECT_EQ(net->auditor()->stats().resyncs, 0u);
}

/// Healing off + strict audit: the lost message is never repaired, so the
/// audit must catch the divergence and abort.
void run_unhealed_loss(Tdm kind, CtrlMsg lost) {
  Simulator sim;
  auto net = make_tdm(
      sim, ctrl_params(/*heal=*/false, /*audit=*/true, /*strict=*/true), kind);
  net->control_fault()->force_drop(lost, 1);
  net->submit(0, 1, 64);
  sim.run_until(100_us);
}

/// Healing off, audit on: no watchdog, no lease -- only the auditor's full
/// NIC <-> scheduler resync can rebuild the request matrix from VOQ ground
/// truth after `lost` vanished.
void auditor_resync_rescues(Tdm kind, CtrlMsg lost) {
  Simulator sim;
  auto net = make_tdm(sim, ctrl_params(/*heal=*/false, /*audit=*/true), kind);
  net->control_fault()->force_drop(lost, 1);
  net->submit(0, 1, 64);
  sim.run_until(100_us);
  EXPECT_EQ(net->delivered_count(), 1u);
  EXPECT_GE(net->auditor()->stats().resyncs, 1u);
  EXPECT_GE(net->auditor()->stats().recoveries, 1u);
  net->auditor()->audit_now();
  EXPECT_TRUE(net->auditor()->last_violations().empty());
}

TEST(ControlPlane, LosslessChannelDeliversWithoutRerequests) {
  Simulator sim;
  TdmNetwork net(sim, ctrl_params());
  net.submit(0, 1, 64);
  net.submit(2, 3, 256);
  sim.run_until(100_us);
  EXPECT_EQ(net.delivered_count(), 2u);
  EXPECT_EQ(net.counters().value("ctrl_rerequests"), 0u);
  EXPECT_EQ(net.counters().value("lease_expiries"), 0u);
  EXPECT_EQ(net.control_fault()->total_dropped(), 0u);
  EXPECT_GT(net.control_fault()->total_sent(), 0u);
}

TEST(ControlPlane, LostRequestHealedByWatchdogReissue) {
  lost_request_healed_by_watchdog(Tdm::kDynamic);
}

TEST(PreloadControlPlane, LostRequestHealedByWatchdogReissue) {
  lost_request_healed_by_watchdog(Tdm::kPreload);
}

TEST(ControlPlane, LostReleaseHealedByLeaseExpiry) {
  lost_release_healed_by_lease(Tdm::kDynamic);
}

TEST(PreloadControlPlane, LostReleaseHealedByLeaseExpiry) {
  lost_release_healed_by_lease(Tdm::kPreload);
}

// Lost release: the scheduler serves a request no NIC wants, forever.
TEST(ControlPlaneDeathTest, LostReleaseWithoutHealingLeaksTheHold) {
  EXPECT_DEATH(run_unhealed_loss(Tdm::kDynamic, CtrlMsg::kRelease),
               "slot audit failed");
}

TEST(PreloadControlPlaneDeathTest, LostReleaseWithoutHealingLeaksTheRequest) {
  EXPECT_DEATH(run_unhealed_loss(Tdm::kPreload, CtrlMsg::kRelease),
               "slot audit failed");
}

// Lost request: the NIC waits on a request bit the scheduler never set.
TEST(ControlPlaneDeathTest, LostRequestWithoutHealingWedgesTheNic) {
  EXPECT_DEATH(run_unhealed_loss(Tdm::kDynamic, CtrlMsg::kRequest),
               "slot audit failed");
}

TEST(PreloadControlPlaneDeathTest, LostRequestWithoutHealingWedgesTheNic) {
  EXPECT_DEATH(run_unhealed_loss(Tdm::kPreload, CtrlMsg::kRequest),
               "slot audit failed");
}

TEST(ControlPlane, AuditorResyncRescuesWedgedNicWithoutHealing) {
  auditor_resync_rescues(Tdm::kDynamic, CtrlMsg::kRequest);
}

TEST(PreloadControlPlane, AuditorResyncRescuesWedgedNicWithoutHealing) {
  auditor_resync_rescues(Tdm::kPreload, CtrlMsg::kRequest);
}

TEST(ControlPlane, AuditorResyncRescuesLeakedHoldWithoutHealing) {
  auditor_resync_rescues(Tdm::kDynamic, CtrlMsg::kRelease);
}

TEST(PreloadControlPlane, AuditorResyncRescuesLeakedRequestWithoutHealing) {
  auditor_resync_rescues(Tdm::kPreload, CtrlMsg::kRelease);
}

// --- Grant line (dynamic TDM only) ------------------------------------------

TEST(ControlPlane, LostGrantHealedByWatchdogReissue) {
  Simulator sim;
  TdmNetwork net(sim, ctrl_params());
  net.control_fault()->force_drop(CtrlMsg::kGrant, 1);
  net.submit(0, 1, 64);
  sim.run_until(100_us);
  EXPECT_EQ(net.delivered_count(), 1u);
  // The scheduler established the connection but the NIC never heard: it
  // stalls through its slots until the watchdog re-request triggers a fresh
  // grant.
  EXPECT_GE(net.counters().value("grant_stalls"), 1u);
  EXPECT_GE(net.counters().value("ctrl_rerequests"), 1u);
}

TEST(ControlPlane, DelayedGrantIsNotMistakenForALostOne) {
  Simulator sim;
  SystemParams p = ctrl_params();
  p.ctrl.delay = TimeNs{300};  // under the 500 ns watchdog timeout
  TdmNetwork net(sim, p);
  net.control_fault()->force_delay(CtrlMsg::kGrant, 1);
  net.submit(0, 1, 64);
  sim.run_until(100_us);
  EXPECT_EQ(net.delivered_count(), 1u);
  // The grant arrived late but before the watchdog fired: no reissue.
  EXPECT_EQ(net.counters().value("ctrl_rerequests"), 0u);
}

}  // namespace
}  // namespace pmx
