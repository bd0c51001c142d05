#pragma once

// The benchmark's three workloads, each a list of independent simulation
// points built only from the library's public API. Every point carries its
// own traffic generator so set-up regenerates each program separately.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "traffic/program.hpp"

namespace perfbench {

/// Seeds of the generators that the workload seed drives.
struct Seeds {
  std::uint64_t pattern = 7;   ///< random-mesh and two-phase
  std::uint64_t hotspot = 11;  ///< hotspot-skewed mix
};

/// Seed 0 is the canonical campaign (the generator seeds of bench_fig4 and
/// bench_ablation_policy); seed s shifts every generator seed by s.
///
/// overload-open keeps the A9 arrival seed and control-loss seed for every
/// workload seed: its dynamic-TDM point (0.5x, uniform) never drains at
/// those seeds, and shifting them would hide that known defect.
[[nodiscard]] Seeds seeds_for(std::uint64_t workload_seed);

/// Arrival-process and control-loss seeds of overload-open.
inline constexpr std::uint64_t kArrivalSeed = 0x0E710ADE;
inline constexpr std::uint64_t kCtrlSeed = 7;

struct PointSpec {
  std::string name;
  pmx::RunConfig config;
  /// Builds this point's traffic program; a pure function of the seeds.
  std::function<pmx::Workload()> generate;
  /// The point wedges by design (a policy that never frees its slots) and
  /// runs to the horizon; it counts as ok without draining.
  bool declared_wedge = false;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The points of `workload` under `workload_seed`. Throws on an unknown
/// workload name.
[[nodiscard]] std::vector<PointSpec> make_points(const std::string& workload,
                                                 std::uint64_t workload_seed);

}  // namespace perfbench
