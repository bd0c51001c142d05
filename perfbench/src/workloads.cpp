#include "workloads.hpp"

#include <stdexcept>

#include "common/table.hpp"
#include "traffic/arrival.hpp"
#include "traffic/patterns.hpp"

namespace perfbench {

namespace {

using pmx::PolicySpec;
using pmx::RunConfig;
using pmx::SwitchKind;
using pmx::TimeNs;
using pmx::Workload;

constexpr SwitchKind kKinds[] = {SwitchKind::kWormhole, SwitchKind::kCircuit,
                                 SwitchKind::kDynamicTdm,
                                 SwitchKind::kPreloadTdm};

// fig4-closed: the paper's Figure 4 sweep at N=128, K=4, timeout:200,
// multi-slot on. Finite barrier programs run to drain; the only workload
// where the wormhole data path and compile_workload at N=128 do real work.
std::vector<PointSpec> fig4_closed(const Seeds& seeds) {
  constexpr std::size_t kNodes = 128;
  struct Pattern {
    const char* name;
    std::function<Workload(std::uint64_t)> make;
  };
  const std::uint64_t seed = seeds.pattern;
  const std::vector<Pattern> patterns{
      {"scatter",
       [](std::uint64_t b) { return pmx::patterns::scatter(kNodes, b); }},
      {"random-mesh",
       [seed](std::uint64_t b) {
         return pmx::patterns::random_mesh(kNodes, b, 2, seed);
       }},
      {"ordered-mesh",
       [](std::uint64_t b) {
         return pmx::patterns::ordered_mesh(kNodes, b, 2);
       }},
      {"two-phase",
       [seed](std::uint64_t b) {
         return pmx::patterns::two_phase(kNodes, b, seed);
       }},
  };
  std::vector<PointSpec> points;
  for (const Pattern& pattern : patterns) {
    for (const std::uint64_t bytes :
         {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u, 2048u}) {
      for (const SwitchKind kind : kKinds) {
        PointSpec p;
        p.name = std::string(pattern.name) + "/" + std::to_string(bytes) +
                 "B/" + pmx::to_string(kind);
        p.config.params.num_nodes = kNodes;
        p.config.params.mux_degree = 4;
        p.config.kind = kind;
        p.config.policy = PolicySpec::parse("timeout:200");
        p.config.multi_slot_connections = true;
        p.generate = [make = pattern.make, bytes] { return make(bytes); };
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

// tdm-policy: dynamic TDM only, the nine A8 policies on three reuse
// structures. Nearly all host time is the slot-tick path; never-evict and
// counter:64 on scatter/hotspot wedge by design and tick to the horizon.
std::vector<PointSpec> tdm_policy(const Seeds& seeds) {
  constexpr std::size_t kNodes = 128;
  constexpr std::uint64_t kBytes = 256;
  struct Pattern {
    const char* name;
    std::function<Workload()> make;
  };
  const std::vector<Pattern> patterns{
      {"random-mesh",
       [s = seeds.pattern] {
         return pmx::patterns::random_mesh(kNodes, kBytes, 2, s);
       }},
      {"scatter", [] { return pmx::patterns::scatter(kNodes, kBytes); }},
      {"hotspot-skewed",
       [s = seeds.hotspot] {
         return pmx::patterns::hotspot(kNodes, kBytes, 8, 0, 0.35, s);
       }},
  };
  std::vector<PointSpec> points;
  for (const char* token :
       {"none", "timeout:200", "counter:64", "lru:12", "lfu-decay:12",
        "deadline:1000", "phase:200", "hybrid:12", "never-evict"}) {
    const PolicySpec policy = PolicySpec::parse(token);
    for (const Pattern& pattern : patterns) {
      PointSpec p;
      p.name = policy.label() + "/" + pattern.name;
      p.config.params.num_nodes = kNodes;
      p.config.kind = SwitchKind::kDynamicTdm;
      p.config.policy = policy;
      p.config.multi_slot_connections = true;
      p.config.horizon = TimeNs{1'000'000};
      p.generate = pattern.make;
      const std::string t = token;
      const std::string pat = pattern.name;
      p.declared_wedge = t == "never-evict" ||
                         (t == "counter:64" && pat != "random-mesh");
      points.push_back(std::move(p));
    }
  }
  return points;
}

// overload-open: A9 open-loop arrivals with bounded VOQs, admission, the
// zero-rate data fault layer, the non-strict auditor, 2 % control loss and
// online re-optimization on dynamic TDM. The only workload with nic
// admission, the control plane, ARQ and src/control/ in the loop.
std::vector<PointSpec> overload_open() {
  constexpr std::size_t kNodes = 64;
  const double rate =
      static_cast<double>(pmx::SystemParams{}.link.bandwidth_dgbps) / 80.0;
  std::vector<PointSpec> points;
  for (const double load : {0.5, 1.0, 1.5, 2.0}) {
    for (const std::string shape : {"uniform", "skewed", "bursty"}) {
      pmx::ArrivalParams arrival;
      arrival.offered_load = load;
      arrival.mean_msg_bytes = 512;
      arrival.duration = TimeNs{50'000};
      arrival.seed = kArrivalSeed;
      if (shape == "skewed") {
        arrival.rate_skew = 0.8;
        arrival.dest_skew = 0.5;
      } else if (shape == "bursty") {
        arrival.process = pmx::ArrivalParams::Process::kOnOff;
      }
      for (const SwitchKind kind : kKinds) {
        PointSpec p;
        p.name = shape + "/x" + pmx::Table::fmt(load, 1) + "/" +
                 pmx::to_string(kind);
        RunConfig& c = p.config;
        c.params.num_nodes = kNodes;
        c.params.admission.capacity_bytes = 4096;
        c.params.admission.policy = pmx::ShedPolicy::kDropOldest;
        c.params.fault.force_enable = true;
        c.params.audit.enabled = true;
        c.params.audit.strict = false;
        c.params.ctrl.loss = 0.02;
        c.params.ctrl.seed = kCtrlSeed;
        if (kind == SwitchKind::kDynamicTdm) {
          c.params.reopt.period_slots = 16;
          c.params.reopt.ewma_shift = 1;
        }
        c.kind = kind;
        // Dynamic TDM arms the starvation watchdog, as in A9.
        c.starvation_slots = 8;
        c.horizon = TimeNs{1'000'000};
        p.generate = [arrival, rate] {
          return pmx::open_loop(kNodes, arrival, rate);
        };
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

}  // namespace

Seeds seeds_for(std::uint64_t workload_seed) {
  Seeds s;
  s.pattern += workload_seed;
  s.hotspot += workload_seed;
  return s;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fig4-closed", "tdm-policy",
                                              "overload-open"};
  return names;
}

std::vector<PointSpec> make_points(const std::string& workload,
                                   std::uint64_t workload_seed) {
  const Seeds seeds = seeds_for(workload_seed);
  if (workload == "fig4-closed") {
    return fig4_closed(seeds);
  }
  if (workload == "tdm-policy") {
    return tdm_policy(seeds);
  }
  if (workload == "overload-open") {
    return overload_open();
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
