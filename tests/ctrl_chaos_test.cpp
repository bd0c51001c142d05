// Seeded chaos campaign across all four switching paradigms: random control
// message loss (a corrupted message is discarded, so it counts as loss) and
// delay with the self-healing machinery and the
// recovery-mode auditor on. Every run must terminate with every message
// delivered, a clean final audit, and bit-identical metrics on a repeat run.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "traffic/patterns.hpp"

namespace pmx {
namespace {

constexpr SwitchKind kKinds[] = {
    SwitchKind::kWormhole,
    SwitchKind::kCircuit,
    SwitchKind::kDynamicTdm,
    SwitchKind::kPreloadTdm,
};

RunConfig chaos_config(SwitchKind kind, bool heal) {
  RunConfig config;
  config.params.num_nodes = 16;
  config.params.ctrl.loss = 0.20;
  config.params.ctrl.delay_rate = 0.1;
  config.params.ctrl.heal = heal;
  config.params.fault.force_enable = true;  // arm the conservation ledger
  config.params.audit.enabled = true;
  config.params.audit.period_slots = 8;
  config.kind = kind;
  config.horizon = TimeNs{500'000'000};
  return config;
}

TEST(CtrlChaos, EveryParadigmSurvivesLossyControlPlane) {
  const Workload workload = patterns::random_mesh(16, 256, 2, 11);
  for (const SwitchKind kind : kKinds) {
    const RunResult result = run_workload(chaos_config(kind, true), workload);
    SCOPED_TRACE(to_string(kind));
    // Terminates with zero wedged NICs and zero leaked holds: everything
    // delivered and the final post-quiesce audit found nothing.
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.metrics.messages, workload.num_messages());
    EXPECT_GT(result.metrics.ctrl_dropped, 0u);  // chaos actually happened
    EXPECT_GT(result.metrics.audits, 0u);
  }
}

TEST(CtrlChaos, CampaignIsSeedDeterministic) {
  const Workload workload = patterns::random_mesh(16, 256, 2, 11);
  for (const SwitchKind kind : kKinds) {
    const RunResult a = run_workload(chaos_config(kind, true), workload);
    const RunResult b = run_workload(chaos_config(kind, true), workload);
    SCOPED_TRACE(to_string(kind));
    EXPECT_TRUE(a.metrics == b.metrics);
    EXPECT_EQ(a.sim_events, b.sim_events);
    EXPECT_EQ(a.counters, b.counters);
  }
}

TEST(CtrlChaos, HealingOffStillTerminatesViaAuditorResync) {
  const Workload workload = patterns::random_mesh(16, 256, 1, 11);
  for (const SwitchKind kind : kKinds) {
    const RunResult result = run_workload(chaos_config(kind, false), workload);
    SCOPED_TRACE(to_string(kind));
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.metrics.messages, workload.num_messages());
    EXPECT_EQ(result.metrics.lease_expiries, 0u);  // healing really was off
  }
}

}  // namespace
}  // namespace pmx
