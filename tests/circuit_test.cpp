#include "switching/circuit.hpp"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "sim/simulator.hpp"
#include "traffic/patterns.hpp"

namespace pmx {
namespace {

SystemParams small_params(std::size_t n = 8) {
  SystemParams p;
  p.num_nodes = n;
  return p;
}

TEST(Circuit, SingleMessageTiming) {
  // Establishment: 10 ns NIC + 80 ns request wire + 80 ns scheduling +
  // 80 ns grant wire = 250 ns; then 2048 B at 0.8 B/ns = 2560 ns;
  // delivery adds the 100 ns passive path + 10 ns receive NIC.
  Simulator sim;
  CircuitNetwork net(sim, small_params());
  net.submit(0, 1, 2048);
  sim.run();
  ASSERT_EQ(net.records().size(), 1u);
  const auto& rec = net.records()[0];
  EXPECT_EQ(rec.send_done.ns(), 250 + 2560);
  EXPECT_EQ(rec.delivered.ns(), 250 + 2560 + 100 + 10);
  EXPECT_EQ(net.counters().value("circuits_established"), 1u);
}

TEST(Circuit, SmallMessageDominatedByEstablishment) {
  Simulator sim;
  CircuitNetwork net(sim, small_params());
  net.submit(0, 1, 8);
  sim.run();
  const auto& rec = net.records()[0];
  // 250 ns of control for 10 ns of data.
  EXPECT_EQ(rec.send_done.ns(), 250 + 10);
}

TEST(Circuit, PerMessageReestablishment) {
  Simulator sim;
  CircuitNetwork net(sim, small_params());
  net.submit(0, 1, 64);
  net.submit(0, 1, 64);
  sim.run();
  // Without circuit holding, the second message pays establishment again.
  EXPECT_EQ(net.counters().value("circuits_established"), 2u);
  EXPECT_EQ(net.counters().value("circuit_reuses"), 0u);
}

TEST(Circuit, HoldingReusesCircuitForSameDestination) {
  Simulator sim;
  CircuitNetwork::Options options;
  options.hold_circuits = true;
  CircuitNetwork net(sim, small_params(), options);
  net.submit(0, 1, 64);
  net.submit(0, 1, 64);
  net.submit(0, 1, 64);
  sim.run();
  EXPECT_EQ(net.counters().value("circuits_established"), 1u);
  EXPECT_EQ(net.counters().value("circuit_reuses"), 2u);
  EXPECT_EQ(net.records().size(), 3u);
}

TEST(Circuit, HoldingTornDownOnDestinationChange) {
  Simulator sim;
  CircuitNetwork::Options options;
  options.hold_circuits = true;
  CircuitNetwork net(sim, small_params(), options);
  net.submit(0, 1, 64);
  net.submit(0, 2, 64);
  sim.run();
  EXPECT_EQ(net.counters().value("circuits_established"), 2u);
  EXPECT_EQ(net.records().size(), 2u);
}

TEST(Circuit, OutputContentionQueuesFifo) {
  Simulator sim;
  CircuitNetwork net(sim, small_params());
  net.submit(0, 3, 512);
  net.submit(1, 3, 512);
  net.submit(2, 3, 512);
  sim.run();
  ASSERT_EQ(net.records().size(), 3u);
  EXPECT_EQ(net.counters().value("circuit_waits"), 2u);
  // Transfers to one output cannot overlap: successive send_done at least
  // one transmission apart.
  std::vector<std::int64_t> done;
  for (const auto& rec : net.records()) {
    done.push_back(rec.send_done.ns());
  }
  std::sort(done.begin(), done.end());
  EXPECT_GE(done[1] - done[0], 640);
  EXPECT_GE(done[2] - done[1], 640);
}

TEST(Circuit, DisjointCircuitsOverlap) {
  Simulator sim;
  CircuitNetwork net(sim, small_params());
  net.submit(0, 2, 512);
  net.submit(1, 3, 512);
  sim.run();
  EXPECT_EQ(net.records()[0].send_done, net.records()[1].send_done);
}

TEST(Circuit, IdleSourceReleasesHeldCircuit) {
  Simulator sim;
  CircuitNetwork::Options options;
  options.hold_circuits = true;
  CircuitNetwork net(sim, small_params(), options);
  net.submit(0, 3, 64);
  sim.run();
  // Source 0 went idle and released; source 1 must be able to reach 3.
  net.submit(1, 3, 64);
  sim.run();
  EXPECT_EQ(net.records().size(), 2u);
  EXPECT_EQ(net.counters().value("circuit_waits"), 0u);
}

TEST(Circuit, PerSourceFifoOrdering) {
  Simulator sim;
  CircuitNetwork net(sim, small_params());
  net.submit(0, 1, 64);
  net.submit(0, 2, 64);
  sim.run();
  ASSERT_EQ(net.records().size(), 2u);
  EXPECT_EQ(net.records()[0].msg.dst, 1u);
  EXPECT_EQ(net.records()[1].msg.dst, 2u);
  EXPECT_LT(net.records()[0].send_done, net.records()[1].send_done);
}

TEST(Circuit, WaiterListBoundedAtOneSlotPerSource) {
  // Every source in the system contends for output 7 at once: the waiter
  // list absorbs the full source population minus the winner, exactly its
  // structural capacity, and every message still delivers. The capacity
  // PMX_CHECK in enqueue_waiter fires (aborting the test) if any source
  // ever occupies more than one slot.
  Simulator sim;
  CircuitNetwork net(sim, small_params());
  for (NodeId src = 0; src < 7; ++src) {
    net.submit(src, 7, 256);
  }
  sim.run();
  EXPECT_EQ(net.records().size(), 7u);
  EXPECT_EQ(net.counters().value("circuit_waits"), 6u);
}

TEST(Circuit, RetransmittedRequestKeepsSingleWaiterSlot) {
  // Regression for the retransmit-waiter bound: source 1 holds output 3 for
  // a long transfer while source 0's grant is lost, so 0's watchdog
  // retransmits the request several times against the still-busy output.
  // Each retransmission finds source 0 already parked and must not grow the
  // waiter list or recount the wait.
  Simulator sim;
  SystemParams p = small_params();
  p.ctrl.force_enable = true;  // all rates zero: the drop is scripted
  CircuitNetwork net(sim, p);
  net.submit(1, 3, 8192);  // ~10 us transfer holds output 3
  // Lose the first grant sent to a requester of the busy output's epoch;
  // source 0 then re-requests on watchdog timeouts (500 ns, 1 us, ...)
  // while 1's transfer is still in flight.
  net.control_fault()->force_drop(CtrlMsg::kGrant, 1);
  net.submit(0, 3, 64);
  sim.run_until(TimeNs{200'000});
  EXPECT_EQ(net.delivered_count(), 2u);
  EXPECT_EQ(net.counters().value("circuit_waits"), 1u);
  EXPECT_GE(net.counters().value("ctrl_rerequests"), 1u);
}

TEST(Circuit, ZeroLossChannelMatchesLosslessWire) {
  // The request/grant/release handshake is one code path whichever channel
  // carries it. A force-enabled channel with every rate zero loses and
  // delays nothing, so each run must match the no-channel run in every
  // metric except the channel's own message count and the watchdog's
  // reissues for requests parked at a busy output.
  const std::pair<const char*, Workload> workloads[] = {
      {"random-mesh", patterns::random_mesh(16, 256)},
      {"scatter", patterns::scatter(16, 256)},
      {"two-phase", patterns::two_phase(16, 256)},
  };
  for (const auto& [name, workload] : workloads) {
    for (const bool hold : {false, true}) {
      SCOPED_TRACE(std::string(name) + (hold ? " held" : " unheld"));
      RunConfig config;
      config.kind = SwitchKind::kCircuit;
      config.params.num_nodes = 16;
      config.hold_circuits = hold;
      const RunResult wire = run_workload(config, workload);
      config.params.ctrl.force_enable = true;
      const RunResult channel = run_workload(config, workload);
      ASSERT_TRUE(wire.completed);
      ASSERT_TRUE(channel.completed);
      EXPECT_EQ(wire.metrics.ctrl_messages, 0u);
      EXPECT_GT(channel.metrics.ctrl_messages, 0u);
      EXPECT_EQ(channel.metrics.ctrl_dropped, 0u);
      RunMetrics masked = channel.metrics;
      masked.ctrl_messages = wire.metrics.ctrl_messages;
      masked.ctrl_rerequests = wire.metrics.ctrl_rerequests;
      EXPECT_TRUE(masked == wire.metrics);
    }
  }
}

}  // namespace
}  // namespace pmx
