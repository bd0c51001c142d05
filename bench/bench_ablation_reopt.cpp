// Ablation A10: online slot-table re-optimization campaign. Three
// campaigns:
//
//   mux rotation  -- each source interleaves eager sends to m=3 partner
//                   destinations (three overlapping permutations: exactly
//                   the multiplexed demand K=4 configuration registers
//                   exist for), and the partner set rotates every epoch.
//                   Compares the reactive baseline, a static plan compiled
//                   from the first epoch's demand and pinned for the whole
//                   run, and the online service loop. On a fixed partner
//                   set the static plan is competitive; under rotation it
//                   goes stale -- its pinned registers cover nothing and
//                   all live traffic squeezes through the one reactive
//                   slot -- and the online loop must beat it on goodput.
//   skewed churn  -- open-loop arrivals with 85% of traffic on a two-node
//                   hot set that rotates (traffic/arrival churn knob).
//                   Ejection ports, not tables, bound this workload; the
//                   rows check the service loop does not regress it and
//                   that the demand-ranked preload fill rides along.
//   chaos         -- closed-loop random mesh with the reconfig command on
//                   the lossy control channel (lost commands are skipped
//                   reconfigurations), plus a poison-proposal row where
//                   every other proposal pins a demandless full
//                   permutation into all K slots: the probation guard must
//                   detect the goodput collapse and roll back, and every
//                   message must still be delivered.
//
// Every run arms the zero-rate fault layer and the slot auditor, so the
// conservation ledger (injected == delivered + dropped + in-flight) is
// checked at the end of each row. Everything is seeded: running this
// binary twice prints identical tables, at any --jobs value.
//
// Usage: bench_ablation_reopt [--nodes N] [--epochs E] [--epoch-ns NS]
//                             [--period SLOTS] [--seed S] [--jobs J]

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/bitmatrix.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "control/slot_optimizer.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "traffic/arrival.hpp"
#include "traffic/patterns.hpp"

namespace {

struct Scenario {
  std::string label;
  pmx::SwitchKind kind = pmx::SwitchKind::kDynamicTdm;
  pmx::ReoptParams reopt;               ///< disabled unless period_slots set
  std::vector<pmx::BitMatrix> pinned;   ///< static-plan rows
  pmx::ControlFaultParams ctrl;         ///< chaos rows
};

/// Rotating multiplexed-permutation workload: every epoch, node u holds m
/// concurrent partner destinations u + base + 1 .. u + base + m (mod n,
/// self excluded), i.e. m overlapping full permutations, and interleaves
/// `rounds` eager sends to each of them paced across the epoch. With
/// `rotate` the base advances by m every epoch, so which permutations are
/// live churns while the offered load stays constant. Fully deterministic:
/// no randomness at all.
pmx::Workload rotating_mux(std::size_t n, std::size_t m, std::uint64_t bytes,
                           std::size_t rounds, std::size_t epochs,
                           pmx::TimeNs epoch_len, bool rotate) {
  pmx::Workload workload;
  workload.programs.resize(n);
  const std::int64_t issue =
      pmx::SystemParams::kNicCycle.ns() * static_cast<std::int64_t>(m);
  const std::int64_t gap =
      epoch_len.ns() / static_cast<std::int64_t>(rounds) - issue;
  PMX_CHECK(gap > 0, "epoch too short for the per-round send issue time");
  for (pmx::NodeId u = 0; u < n; ++u) {
    pmx::Program& prog = workload.programs[u];
    prog.reserve(epochs * rounds * (m + 1));
    for (std::size_t e = 0; e < epochs; ++e) {
      const std::size_t base = rotate ? e * m : 0;
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t j = 1; j <= m; ++j) {
          // Offsets stay in [1, n-1], so a partner is never the source.
          const std::size_t offset = 1 + (base + j - 1) % (n - 1);
          prog.push_back(pmx::Command::send(
              static_cast<pmx::NodeId>((u + offset) % n), bytes));
        }
        prog.push_back(pmx::Command::compute(pmx::TimeNs{gap}));
      }
    }
  }
  return workload;
}

/// Aggregate (src, dst) send bytes whose issue instant falls inside the
/// first `window` ns of the programs -- the demand profile a static
/// compile-time plan would be built from.
std::vector<pmx::DemandEstimator::Demand> first_window_demand(
    const pmx::Workload& workload, pmx::TimeNs window) {
  const std::size_t n = workload.num_nodes();
  std::vector<std::uint64_t> bytes(n * n, 0);
  for (pmx::NodeId u = 0; u < n; ++u) {
    pmx::TimeNs t = pmx::TimeNs::zero();
    for (const pmx::Command& cmd : workload.programs[u]) {
      if (cmd.kind == pmx::Command::Kind::kCompute) {
        t = t + cmd.delay;
      } else if (cmd.kind == pmx::Command::Kind::kSend && t < window) {
        bytes[u * n + cmd.dst] += cmd.bytes;
      }
    }
  }
  std::vector<pmx::DemandEstimator::Demand> demand;
  for (pmx::NodeId u = 0; u < n; ++u) {
    for (pmx::NodeId v = 0; v < n; ++v) {
      if (bytes[u * n + v] > 0) {
        demand.push_back({u, v, bytes[u * n + v]});
      }
    }
  }
  return demand;
}

/// One-shot static plan over K-1 registers (the last register stays with
/// the reactive scheduler, mirroring the online service's reserve).
std::vector<pmx::BitMatrix> static_plan(
    const std::vector<pmx::DemandEstimator::Demand>& demand, std::size_t n,
    std::size_t mux_degree) {
  pmx::SlotOptimizer::Options opt;
  opt.num_nodes = n;
  opt.num_slots = mux_degree - 1;
  opt.work_budget = 256;
  const pmx::SlotOptimizer optimizer(opt);
  std::vector<pmx::BitMatrix> tables = optimizer.solve(demand, {}).tables;
  while (!tables.empty() && tables.back().none()) {
    tables.pop_back();
  }
  return tables;
}

pmx::RunResult run(const Scenario& scenario, std::size_t nodes,
                   const pmx::Workload& workload) {
  pmx::RunConfig config;
  config.params.num_nodes = nodes;
  config.params.reopt = scenario.reopt;
  config.params.ctrl = scenario.ctrl;
  // Zero-rate fault layer + auditor: the conservation ledger is checked in
  // recovery mode at the end of every run (timing-neutral, A6 "clean").
  config.params.fault.force_enable = true;
  config.params.audit.enabled = true;
  config.params.audit.strict = false;
  config.kind = scenario.kind;
  config.pinned_configs = scenario.pinned;
  config.starvation_slots = 8;  // skewed demand must not starve cold sources
  config.horizon = pmx::TimeNs{1'000'000'000};
  return pmx::run_workload(config, workload);
}

std::string delivery_cell(const pmx::RunResult& r, std::size_t messages) {
  if (!r.completed) {
    return "DNF";
  }
  return pmx::Table::fmt(static_cast<std::uint64_t>(r.metrics.messages)) +
         "/" + pmx::Table::fmt(static_cast<std::uint64_t>(messages));
}

void print_tracking_table(const std::string& title,
                          const std::vector<Scenario>& rows,
                          const std::vector<pmx::RunResult>& results,
                          std::size_t offset, std::size_t messages) {
  pmx::Table table({"scenario", "delivered", "goodput B/ns", "solves",
                    "applies", "rollbacks", "apply p50 ns", "ranked",
                    "violations"});
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const pmx::RunResult& r = results[offset + s];
    table.add_row({rows[s].label, delivery_cell(r, messages),
                   pmx::Table::fmt(r.metrics.goodput, 4),
                   pmx::Table::fmt(r.metrics.reopt_solves),
                   pmx::Table::fmt(r.metrics.reopt_applies),
                   pmx::Table::fmt(r.metrics.reopt_rollbacks),
                   pmx::Table::fmt(r.metrics.reopt_apply_latency_p50_ns, 0),
                   pmx::Table::fmt(r.counter("reopt_ranked_loads")),
                   pmx::Table::fmt(r.metrics.audit_violations)});
  }
  std::cout << "\n== " << title << " ==\n";
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const pmx::Config cfg = pmx::Config::from_cli(argc, argv);
  const std::size_t nodes = cfg.get_uint("nodes", 32);
  const std::size_t epochs = cfg.get_uint("epochs", 6);
  const std::int64_t epoch_ns =
      static_cast<std::int64_t>(cfg.get_uint("epoch-ns", 10'000));
  const std::size_t period = cfg.get_uint("period", 16);
  const std::uint64_t seed = cfg.get_uint("seed", 0xA1'0BEEFull);
  const pmx::SweepOptions sweep{cfg.get_uint("jobs", 1)};
  cfg.fail_unread("bench_ablation_reopt");

  pmx::SystemParams defaults;
  const double rate =
      static_cast<double>(defaults.link.bandwidth_dgbps) / 80.0;
  const pmx::TimeNs reopt_window =
      defaults.slot_length * static_cast<std::int64_t>(period);

  pmx::ReoptParams reopt;
  reopt.period_slots = period;
  reopt.ewma_shift = 1;  // demand churns every epoch: favor fresh windows

  std::vector<pmx::Workload> workloads;
  std::vector<std::vector<Scenario>> campaigns;

  // --- Campaign 1: multiplexed demand, fixed vs rotating partner sets ------
  // m=3 overlapping permutations fill the K-1=3 plannable registers
  // exactly. The static plan is always compiled from the first epoch.
  const std::size_t kPartners = 3;
  for (const bool rotate : {false, true}) {
    const pmx::Workload workload =
        rotating_mux(nodes, kPartners, 256, 6, epochs,
                     pmx::TimeNs{epoch_ns}, rotate);
    const std::vector<pmx::BitMatrix> plan =
        static_plan(first_window_demand(workload, reopt_window), nodes,
                    defaults.mux_degree);
    std::vector<Scenario> rows;
    rows.push_back({"reactive", pmx::SwitchKind::kDynamicTdm, {}, {}, {}});
    rows.push_back(
        {"static-plan", pmx::SwitchKind::kDynamicTdm, {}, plan, {}});
    rows.push_back(
        {"online-reopt", pmx::SwitchKind::kDynamicTdm, reopt, {}, {}});
    rows.push_back({"preload", pmx::SwitchKind::kPreloadTdm, {}, {}, {}});
    rows.push_back(
        {"preload+rank", pmx::SwitchKind::kPreloadTdm, reopt, {}, {}});
    workloads.push_back(workload);
    campaigns.push_back(std::move(rows));
  }

  // --- Campaign 2: skewed open-loop arrivals with hot-set churn ------------
  // 85% of traffic on a rotating two-node hot set: ejection-port bound, so
  // the rows check robustness (no regression, bounded applies), not a win.
  const std::vector<std::int64_t> churns{0, 10'000};
  for (const std::int64_t churn : churns) {
    pmx::ArrivalParams arrival;
    arrival.offered_load = 0.35;
    arrival.dest_skew = 0.85;
    arrival.hot_rotate_period = pmx::TimeNs{churn};
    arrival.duration = pmx::TimeNs{static_cast<std::int64_t>(epochs) *
                                   epoch_ns};
    arrival.seed = seed;
    const pmx::Workload workload = pmx::open_loop(nodes, arrival, rate);
    const std::vector<pmx::BitMatrix> plan =
        static_plan(first_window_demand(workload, reopt_window), nodes,
                    defaults.mux_degree);
    std::vector<Scenario> rows;
    rows.push_back({"reactive", pmx::SwitchKind::kDynamicTdm, {}, {}, {}});
    rows.push_back(
        {"static-plan", pmx::SwitchKind::kDynamicTdm, {}, plan, {}});
    rows.push_back(
        {"online-reopt", pmx::SwitchKind::kDynamicTdm, reopt, {}, {}});
    rows.push_back({"preload", pmx::SwitchKind::kPreloadTdm, {}, {}, {}});
    rows.push_back(
        {"preload+rank", pmx::SwitchKind::kPreloadTdm, reopt, {}, {}});
    workloads.push_back(workload);
    campaigns.push_back(std::move(rows));
  }

  // --- Campaign 3: chaos (lossy reconfig channel, poison proposals) --------
  const pmx::Workload mesh = pmx::patterns::random_mesh(64, 512, 2, 7);
  {
    std::vector<Scenario> rows;
    pmx::ControlFaultParams loss25;
    loss25.seed = static_cast<std::uint32_t>(seed);
    loss25.loss = 0.25;
    pmx::ControlFaultParams clean;
    clean.seed = static_cast<std::uint32_t>(seed);
    clean.force_enable = true;  // loss 0.0: machinery overhead only
    pmx::ReoptParams chaos = reopt;
    chaos.chaos_empty_every = 2;  // every other proposal is poison
    rows.push_back(
        {"reopt clean", pmx::SwitchKind::kDynamicTdm, reopt, {}, clean});
    rows.push_back(
        {"reopt loss25", pmx::SwitchKind::kDynamicTdm, reopt, {}, loss25});
    rows.push_back(
        {"reopt poison", pmx::SwitchKind::kDynamicTdm, chaos, {}, clean});
    workloads.push_back(mesh);
    campaigns.push_back(std::move(rows));
  }

  std::vector<std::size_t> offsets;
  std::size_t total = 0;
  for (const auto& rows : campaigns) {
    offsets.push_back(total);
    total += rows.size();
  }
  const std::vector<pmx::RunResult> results = pmx::sweep_map<pmx::RunResult>(
      total,
      [&](std::size_t i) {
        std::size_t c = campaigns.size() - 1;
        while (offsets[c] > i) {
          --c;
        }
        return run(campaigns[c][i - offsets[c]], workloads[c].num_nodes(),
                   workloads[c]);
      },
      sweep);

  std::cout << "Ablation A10: online slot-table re-optimization (" << nodes
            << " nodes, " << epochs << " epochs of " << epoch_ns
            << " ns, period " << period << " slots, seed " << seed << ")\n";

  print_tracking_table("mux demand, fixed partner set", campaigns[0],
                       results, offsets[0], workloads[0].num_messages());
  print_tracking_table("mux demand, partners rotate every epoch",
                       campaigns[1], results, offsets[1],
                       workloads[1].num_messages());
  for (std::size_t c = 0; c < churns.size(); ++c) {
    print_tracking_table(
        "skewed arrivals, hot-set churn " + std::to_string(churns[c]) + " ns",
        campaigns[2 + c], results, offsets[2 + c],
        workloads[2 + c].num_messages());
  }

  {
    const std::size_t c = campaigns.size() - 1;
    pmx::Table table({"scenario", "delivered", "goodput B/ns", "solves",
                      "proposals", "applies", "rollbacks", "cmds lost",
                      "invalidated", "resyncs", "violations"});
    for (std::size_t s = 0; s < campaigns[c].size(); ++s) {
      const pmx::RunResult& r = results[offsets[c] + s];
      table.add_row({campaigns[c][s].label,
                     delivery_cell(r, mesh.num_messages()),
                     pmx::Table::fmt(r.metrics.goodput, 4),
                     pmx::Table::fmt(r.metrics.reopt_solves),
                     pmx::Table::fmt(r.metrics.reopt_proposals),
                     pmx::Table::fmt(r.metrics.reopt_applies),
                     pmx::Table::fmt(r.metrics.reopt_rollbacks),
                     pmx::Table::fmt(r.metrics.reopt_cmds_lost),
                     pmx::Table::fmt(r.metrics.reopt_invalidated_ctrl),
                     pmx::Table::fmt(r.metrics.resyncs),
                     pmx::Table::fmt(r.metrics.audit_violations)});
    }
    std::cout << "\n== chaos: lossy reconfig channel, poison proposals ("
              << mesh.num_messages() << " messages) ==\n";
    table.print(std::cout);
  }
  return 0;
}
