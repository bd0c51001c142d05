// Micro-benchmarks (google-benchmark) for the simulation kernels: bit-matrix
// reductions, the gate-accurate scheduler pass, working-set decomposition,
// the event queue, and the parallel sweep runner. End-to-end simulator
// throughput is measured by perfbench (fig4-closed), not here.

#include <benchmark/benchmark.h>

#include "common/bitmatrix.hpp"
#include "common/rng.hpp"
#include "compiled/decomposition.hpp"
#include "fabric/fattree.hpp"
#include "fabric/omega.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "sched/presched.hpp"
#include "sched/sl_array.hpp"
#include "sched/tdm_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "traffic/patterns.hpp"

namespace {

using namespace pmx::literals;

pmx::BitMatrix random_matrix(std::size_t n, double density,
                             std::uint64_t seed) {
  pmx::Rng rng(seed);
  pmx::BitMatrix m(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.chance(density)) {
        m.set(u, v);
      }
    }
  }
  return m;
}

pmx::BitMatrix random_permutation_config(std::size_t n, double fill,
                                         std::uint64_t seed) {
  pmx::Rng rng(seed);
  pmx::BitMatrix m(n);
  const auto perm = rng.permutation(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (rng.chance(fill)) {
      m.set(u, perm[u]);
    }
  }
  return m;
}

void BM_BitMatrixColOr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const pmx::BitMatrix m = random_matrix(n, 0.05, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.col_or());
  }
}
BENCHMARK(BM_BitMatrixColOr)->Arg(32)->Arg(128)->Arg(512);

void BM_BitMatrixIsPartialPermutation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const pmx::BitMatrix m = random_permutation_config(n, 0.8, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.is_partial_permutation());
  }
}
BENCHMARK(BM_BitMatrixIsPartialPermutation)->Arg(32)->Arg(128)->Arg(512);

void BM_Preschedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const pmx::BitMatrix r = random_matrix(n, 0.1, 3);
  const pmx::BitMatrix config = random_permutation_config(n, 0.5, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmx::preschedule(r, config, config));
  }
}
BENCHMARK(BM_Preschedule)->Arg(32)->Arg(128)->Arg(512);

void BM_SlArrayPass(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const pmx::BitMatrix r = random_matrix(n, 0.1, 5);
  const pmx::BitMatrix config = random_permutation_config(n, 0.5, 6);
  const pmx::BitMatrix l = pmx::preschedule(r, config, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmx::sl_array_pass(l, config, 0, 0));
  }
}
BENCHMARK(BM_SlArrayPass)->Arg(32)->Arg(128)->Arg(512);

// Same workload through the cell-by-cell reference oracle. The ratio
// BM_SlArrayPassRef / BM_SlArrayPass is the word-parallel speedup.
void BM_SlArrayPassRef(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const pmx::BitMatrix r = random_matrix(n, 0.1, 5);
  const pmx::BitMatrix config = random_permutation_config(n, 0.5, 6);
  const pmx::BitMatrix l = pmx::preschedule(r, config, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmx::sl_array_pass_ref(l, config, 0, 0));
  }
}
BENCHMARK(BM_SlArrayPassRef)->Arg(32)->Arg(128)->Arg(512);

void BM_SchedulerFullPass(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  pmx::TdmScheduler::Options options;
  options.num_ports = n;
  options.num_slots = 4;
  pmx::TdmScheduler sched(options);
  pmx::Rng rng(7);
  for (std::size_t u = 0; u < n; ++u) {
    for (int j = 0; j < 4; ++j) {
      sched.set_request(u, rng.below(n), true);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.run_pass());
  }
}
BENCHMARK(BM_SchedulerFullPass)->Arg(32)->Arg(128);

void BM_DecomposeOptimal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Degree-4 working set (mesh-like).
  std::vector<pmx::Conn> conns;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t d = 1; d <= 4; ++d) {
      conns.push_back(pmx::Conn{u, (u + d) % n});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmx::decompose_optimal(n, conns));
  }
}
BENCHMARK(BM_DecomposeOptimal)->Arg(32)->Arg(128)->Arg(512);

void BM_DecomposeGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<pmx::Conn> conns;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t d = 1; d <= 4; ++d) {
      conns.push_back(pmx::Conn{u, (u + d) % n});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmx::decompose_greedy(n, conns));
  }
}
BENCHMARK(BM_DecomposeGreedy)->Arg(32)->Arg(128)->Arg(512);

void BM_OmegaRoutable(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const pmx::OmegaNetwork omega(n);
  const pmx::BitMatrix config = random_permutation_config(n, 0.8, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(omega.routable(config));
  }
}
BENCHMARK(BM_OmegaRoutable)->Arg(32)->Arg(128)->Arg(512);

void BM_DecomposeOmega(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const pmx::OmegaNetwork omega(n);
  std::vector<pmx::Conn> conns;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t d = 1; d <= 4; ++d) {
      conns.push_back(pmx::Conn{u, (u + d) % n});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmx::decompose_omega(omega, conns));
  }
}
BENCHMARK(BM_DecomposeOmega)->Arg(32)->Arg(128);

void BM_FatTreeDecompose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const pmx::FatTree tree(8, n / 8, n / 16);
  std::vector<pmx::Conn> conns;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t d = 1; d <= 4; ++d) {
      conns.push_back(pmx::Conn{u, (u + d * (n / 8)) % n});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmx::decompose_fattree(tree, conns));
  }
}
BENCHMARK(BM_FatTreeDecompose)->Arg(32)->Arg(128);

void BM_EventQueueChurn(benchmark::State& state) {
  pmx::Rng rng(11);
  for (auto _ : state) {
    pmx::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.push(pmx::TimeNs{static_cast<std::int64_t>(rng.below(100000))},
             [] {});
    }
    while (!q.empty()) {
      q.pop();
    }
  }
}
BENCHMARK(BM_EventQueueChurn);

// Sweep-runner scaling: 16 small independent end-to-end runs distributed
// over Arg(0) worker threads. On a multi-core host the jobs=4 point should
// approach 4x the jobs=1 rate; on a single core it measures pure overhead.
void BM_SweepRunner(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPoints = 16;
  const pmx::SweepOptions options{jobs};
  for (auto _ : state) {
    const auto results = pmx::run_sweep(
        kPoints,
        [&](std::size_t i) {
          const pmx::Workload workload =
              pmx::patterns::random_mesh(32, 256, 1, 3 + i);
          pmx::RunConfig config;
          config.params.num_nodes = 32;
          config.kind = pmx::SwitchKind::kDynamicTdm;
          return pmx::run_workload(config, workload);
        },
        options);
    benchmark::DoNotOptimize(results.size());
  }
}
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

}  // namespace
