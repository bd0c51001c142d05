#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <functional>
#include <memory>
#include <type_traits>

#include "common/bitmatrix.hpp"
#include "compiled/plan.hpp"
#include "control/slot_optimizer.hpp"
#include "core/driver.hpp"
#include "core/metrics.hpp"
#include "fabric/crossbar.hpp"
#include "nic/voq.hpp"
#include "predictor/policy_engine.hpp"
#include "sched/tdm_scheduler.hpp"
#include "sim/simulator.hpp"
#include "switching/circuit.hpp"
#include "switching/preload_tdm.hpp"
#include "switching/tdm.hpp"
#include "switching/wormhole.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` and adds its host duration to `acc`.
template <typename Fn>
auto span(double& acc, Fn&& fn) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += seconds_since(t0);
  } else {
    auto r = fn();
    acc += seconds_since(t0);
    return r;
  }
}

}  // namespace

std::vector<std::pair<std::string, std::uint64_t>> LayerTotals::counts()
    const {
  return {{"sim.events", events},
          {"sched.passes", passes},
          {"sched.passes_elided", passes_elided},
          {"sched.slot_advances", slot_advances},
          {"sched.slots_skipped", slots_skipped},
          {"fabric.commits", commits},
          {"fabric.reconfigurations", reconfigurations},
          {"switching.worms", worms},
          {"switching.dispatch_misses", dispatch_misses},
          {"switching.circuits_established", circuits_established},
          {"switching.idle_slots", idle_slots},
          {"switching.idle_grants", idle_grants},
          {"predictor.evictions", evictions},
          {"predictor.flushes", flushes},
          {"nic.shed", shed},
          {"nic.queue_depth_max", queue_depth_max},
          {"nic.ctrl_rerequests", ctrl_rerequests},
          {"nic.lease_expiries", lease_expiries},
          {"fault.retransmits", retransmits},
          {"fault.ctrl_dropped", ctrl_dropped},
          {"control.solves", solves},
          {"control.applies", applies},
          {"control.rollbacks", rollbacks},
          {"core.audits", audits},
          {"core.audit_violations", audit_violations},
          {"traffic.messages", submitted}};
}

pmx::RunResult traced_run(const PointSpec& spec, const pmx::Workload& workload,
                          LayerTotals& t) {
  const pmx::RunConfig& config = spec.config;
  const pmx::SystemParams& params = config.params;
  pmx::Simulator sim;
  std::unique_ptr<pmx::Network> network;
  const pmx::TdmNetwork* tdm = nullptr;
  const pmx::PreloadTdmNetwork* preload = nullptr;
  switch (config.kind) {
    case pmx::SwitchKind::kWormhole:
      network = span(t.build_s, [&] {
        return std::make_unique<pmx::WormholeNetwork>(sim, params);
      });
      break;
    case pmx::SwitchKind::kCircuit:
      network = span(t.build_s, [&] {
        pmx::CircuitNetwork::Options o;
        o.hold_circuits = config.hold_circuits;
        return std::make_unique<pmx::CircuitNetwork>(sim, params, o);
      });
      break;
    case pmx::SwitchKind::kDynamicTdm: {
      auto net = span(t.build_s, [&] {
        pmx::TdmNetwork::Options o;
        o.predictor = pmx::make_policy(config.policy);
        o.multi_slot_connections = config.multi_slot_connections;
        o.sl_units = config.sl_units;
        o.receiver_buffer_bytes = config.receiver_buffer_bytes;
        o.receiver_drain_per_slot = config.receiver_drain_per_slot;
        o.starvation_slots = config.starvation_slots;
        auto n = std::make_unique<pmx::TdmNetwork>(sim, params, std::move(o));
        for (std::size_t s = 0; s < config.pinned_configs.size(); ++s) {
          n->preload(s, config.pinned_configs[s], /*pinned=*/true);
        }
        return n;
      });
      tdm = net.get();
      network = std::move(net);
      break;
    }
    case pmx::SwitchKind::kPreloadTdm: {
      pmx::CompiledPlan plan = span(t.plan_s, [&] {
        return pmx::compile_workload(workload, config.optimal_decomposition);
      });
      auto net = span(t.build_s, [&] {
        return std::make_unique<pmx::PreloadTdmNetwork>(sim, params,
                                                        std::move(plan));
      });
      preload = net.get();
      network = std::move(net);
      break;
    }
  }

  bool completed = false;
  span(t.run_s, [&] {
    pmx::TrafficDriver driver(sim, *network, workload, config.send_mode);
    driver.start();
    sim.run_until(config.horizon);
    if (pmx::SlotAuditor* auditor = network->auditor()) {
      if (driver.finished()) {
        pmx::TimeNs window = params.slot_length * 8;
        if (network->control_faulty()) {
          window = window + params.ctrl.watchdog_cap + params.ctrl.lease * 2;
        }
        sim.run_until(sim.now() + window);
      }
      auditor->audit_now();
    }
    completed = driver.finished();
  });

  pmx::RunResult result;
  result.completed = completed;
  result.sim_events = sim.events_processed();
  result.metrics = span(t.metrics_s, [&] {
    return pmx::compute_metrics(workload, *network);
  });
  const auto& counters = network->counters().all();
  result.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    result.counters.emplace_back(name, value);
  }

  const pmx::CounterSet& c = network->counters();
  const pmx::RunMetrics& m = result.metrics;
  t.events += result.sim_events;
  const pmx::TdmScheduler* sched =
      tdm != nullptr ? &tdm->scheduler()
                     : (preload != nullptr ? &preload->scheduler() : nullptr);
  if (sched != nullptr) {
    const pmx::SchedulerStats& s = sched->stats();
    t.passes += s.passes;
    t.passes_elided += s.passes_elided;
    t.slot_advances += s.slot_advances;
    t.slots_skipped += s.slots_skipped;
  }
  if (tdm != nullptr) {
    t.commits += tdm->crossbar().commits();
    t.reconfigurations += tdm->crossbar().reconfigurations();
    const std::uint64_t ticks = tdm->scheduler().stats().slot_advances;
    const std::uint64_t idle = c.value("idle_slots");
    t.tdm_ticks += ticks;
    t.idle_slots += idle;
    t.live_port_slots += (ticks - idle) * params.num_nodes;
    t.idle_grants += c.value("idle_grants");
  }
  t.worms += c.value("worms");
  t.dispatch_misses += c.value("dispatch_misses");
  t.circuits_established += c.value("circuits_established");
  t.evictions += c.value("evictions");
  t.flushes += c.value("flushes");
  t.submitted += workload.num_messages();
  t.shed += m.shed_messages;
  t.queue_depth_max = std::max(t.queue_depth_max, m.queue_depth_max);
  t.ctrl_rerequests += m.ctrl_rerequests;
  t.lease_expiries += m.lease_expiries;
  t.retransmits += m.retransmits;
  t.ctrl_messages += m.ctrl_messages;
  t.ctrl_dropped += m.ctrl_dropped;
  t.solves += m.reopt_solves;
  t.proposals += m.reopt_proposals;
  t.applies += m.reopt_applies;
  t.rollbacks += m.reopt_rollbacks;
  t.audits += m.audits;
  t.audit_violations += m.audit_violations;
  return result;
}

namespace {

constexpr int kProbeReps = 5;

/// Median over kProbeReps of (host ns of `body` / `calls`).
template <typename Fn>
double per_call_ns(std::size_t calls, Fn&& body) {
  std::vector<double> ns;
  for (int r = 0; r < kProbeReps; ++r) {
    const auto t0 = Clock::now();
    body();
    ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(calls));
  }
  std::ranges::sort(ns);
  return ns[ns.size() / 2];
}

using Pair = std::pair<pmx::NodeId, pmx::NodeId>;

}  // namespace

Probes run_probes(const std::vector<PointSpec>& specs,
                  const std::vector<pmx::Workload>& workloads) {
  const pmx::RunConfig& base = specs.front().config;
  const std::size_t n = base.params.num_nodes;
  const std::size_t k = base.params.mux_degree;

  // The (src,dst) pairs the workload's programs send on, with their bytes.
  std::map<Pair, std::uint64_t> demand;
  for (const pmx::Workload& w : workloads) {
    for (pmx::NodeId u = 0; u < w.programs.size(); ++u) {
      for (const pmx::Command& cmd : w.programs[u]) {
        if (cmd.kind == pmx::Command::Kind::kSend && cmd.dst != u) {
          demand[{u, cmd.dst}] += cmd.bytes;
        }
      }
    }
  }
  std::vector<Pair> pairs;
  for (const auto& [pair, bytes] : demand) {
    pairs.push_back(pair);
  }
  const std::size_t np = pairs.size();

  Probes p;
  if (np == 0) {
    return p;
  }

  // Event queue: N free-running clocks, like the per-node timers.
  {
    constexpr std::uint64_t kEvents = 400'000;
    p.queue_op_ns = per_call_ns(kEvents, [&] {
      pmx::Simulator sim;
      std::uint64_t left = kEvents;
      std::vector<std::function<void()>> ticks(n);
      for (std::size_t i = 0; i < n; ++i) {
        ticks[i] = [&, i] {
          if (left == 0) {
            return;
          }
          --left;
          sim.schedule_after(pmx::TimeNs{static_cast<std::int64_t>(90 + i)},
                             ticks[i]);
        };
        sim.schedule_after(pmx::TimeNs{static_cast<std::int64_t>(i)},
                           ticks[i]);
      }
      sim.run();
    });
  }

  // Scheduler and crossbar on the workload's request matrix.
  pmx::TdmScheduler::Options so;
  so.num_ports = n;
  so.num_slots = k;
  so.multi_slot_connections = base.multi_slot_connections;
  so.skip_unrequested_slots = true;
  pmx::TdmScheduler sched(so);
  for (const auto& [u, v] : pairs) {
    sched.set_request(u, v, true);
  }
  for (std::size_t i = 0; i < 4 * k; ++i) {
    (void)sched.run_pass();
  }
  {
    constexpr std::size_t kCalls = 10'000;
    p.advance_slot_ns = per_call_ns(kCalls, [&] {
      for (std::size_t i = 0; i < kCalls; ++i) {
        (void)sched.advance_slot();
      }
    });
  }
  {
    constexpr std::size_t kToggles = 1'000;
    std::size_t next = 0;
    p.pass_ns = per_call_ns(2 * kToggles, [&] {
      for (std::size_t i = 0; i < kToggles; ++i) {
        const auto [u, v] = pairs[next++ % np];
        sched.set_request(u, v, false);
        (void)sched.run_pass();
        sched.set_request(u, v, true);
        (void)sched.run_pass();
      }
    });
  }
  {
    constexpr std::size_t kLoads = 20'000;
    std::vector<pmx::BitMatrix> configs;
    for (std::size_t s = 0; s < k; ++s) {
      configs.push_back(sched.config(s));
    }
    pmx::Crossbar xbar(n, pmx::FabricKind::kLvds);
    p.load_ns = per_call_ns(kLoads, [&] {
      for (std::size_t i = 0; i < kLoads; ++i) {
        xbar.load(configs[i % k]);
      }
    });
  }

  // Eviction policies: every distinct policy the workload runs.
  {
    std::map<std::string, pmx::PolicySpec> policies;
    for (const PointSpec& s : specs) {
      if (s.config.kind == pmx::SwitchKind::kDynamicTdm) {
        policies.emplace(s.config.policy.label(), s.config.policy);
      }
    }
    // The connections a network tracks: those the scheduler established.
    std::vector<pmx::Conn> live;
    for (const auto& [u, v] : pairs) {
      if (sched.is_established(u, v)) {
        live.push_back(pmx::Conn{u, v});
      }
    }
    constexpr std::size_t kTicks = 2'000;
    if (!live.empty() && !policies.empty()) {
      double sum = 0;
      for (const auto& [label, spec] : policies) {
        sum += per_call_ns(kTicks, [&] {
          auto policy = pmx::make_policy(spec);
          pmx::TimeNs now{};
          for (const pmx::Conn& c : live) {
            policy->on_establish(c, now);
          }
          for (std::size_t i = 0; i < kTicks; ++i) {
            now += pmx::TimeNs{100};
            policy->on_use(live[i % live.size()], now);
            for (const pmx::Conn& c : policy->collect_evictions(now)) {
              policy->on_release(c, now);
              policy->on_establish(c, now);
            }
          }
        });
      }
      p.collect_ns = sum / static_cast<double>(policies.size());
    }
  }

  // One source NIC's VOQs: eight messages in, eight out.
  {
    constexpr std::size_t kMsgs = 200'000;
    const std::uint64_t bytes = base.params.slot_payload_bytes();
    p.voq_op_ns = per_call_ns(kMsgs, [&] {
      pmx::VoqSet voq(n);
      voq.set_capacity(base.params.admission.capacity_bytes,
                       base.params.admission.capacity_msgs);
      pmx::MessageId id = 1;
      for (std::size_t i = 0; i < kMsgs; i += 8) {
        for (std::size_t j = 0; j < 8; ++j) {
          const pmx::NodeId dst = pairs[(i + j) % np].second;
          voq.push(pmx::Message{id++, 0, dst, bytes, pmx::TimeNs{}, 0});
        }
        for (std::size_t j = 0; j < 8; ++j) {
          pmx::Message done;
          (void)voq.consume(pairs[(i + j) % np].second, bytes, &done);
        }
      }
    });
  }

  // Re-optimization solver on the workload's demand.
  {
    const pmx::ReoptParams reopt;
    pmx::SlotOptimizer::Options oo;
    oo.num_nodes = n;
    oo.num_slots = k;
    oo.change_penalty = reopt.change_penalty;
    oo.work_budget = reopt.work_budget;
    const pmx::SlotOptimizer optimizer(oo);
    std::vector<pmx::DemandEstimator::Demand> d;
    for (const auto& [pair, bytes] : demand) {
      d.push_back({pair.first, pair.second, bytes});
    }
    std::ranges::stable_sort(d, [](const auto& a, const auto& b) {
      return a.demand > b.demand;
    });
    const std::vector<pmx::BitMatrix> current(k, pmx::BitMatrix(n));
    constexpr std::size_t kSolves = 200;
    p.solve_ns = per_call_ns(kSolves, [&] {
      for (std::size_t i = 0; i < kSolves; ++i) {
        (void)optimizer.solve(d, current);
      }
    });
  }
  return p;
}

}  // namespace perfbench
