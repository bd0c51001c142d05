#include "compiled/decomposition.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "common/rng.hpp"
#include "traffic/mesh.hpp"

namespace pmx {
namespace {

/// All connections covered, each exactly once, all configs conflict-free.
void check_valid(std::size_t n, const std::vector<Conn>& conns,
                 const Decomposition& d) {
  BitMatrix covered(n);
  for (const auto& cfg : d.configs) {
    EXPECT_TRUE(cfg.is_partial_permutation());
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        if (cfg.get(u, v)) {
          EXPECT_FALSE(covered.get(u, v)) << "duplicate (" << u << "," << v
                                          << ")";
          covered.set(u, v);
        }
      }
    }
  }
  EXPECT_EQ(covered.count(), conns.size());
  for (std::size_t e = 0; e < conns.size(); ++e) {
    EXPECT_TRUE(covered.get(conns[e].src, conns[e].dst));
    ASSERT_LT(d.color_of[e], d.configs.size());
    EXPECT_TRUE(d.configs[d.color_of[e]].get(conns[e].src, conns[e].dst));
  }
}

/// Up to `edges` distinct random connections on n ports, in draw order.
std::vector<Conn> random_conns(std::size_t n, std::size_t edges, Rng& rng) {
  std::vector<Conn> conns;
  BitMatrix used(n);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<std::size_t>(rng.below(n));
    const auto v = static_cast<std::size_t>(rng.below(n));
    if (!used.get(u, v)) {
      used.set(u, v);
      conns.push_back({u, v});
    }
  }
  return conns;
}

/// Naive first-fit oracle: each connection goes into the lowest
/// configuration that stays a partial permutation and that the fabric's
/// `routable` check still accepts with the connection added.
std::vector<std::size_t> oracle_first_fit(
    std::size_t n, const std::vector<Conn>& conns,
    const std::function<bool(const BitMatrix&)>& routable) {
  std::vector<BitMatrix> configs;
  std::vector<std::size_t> color_of;
  for (const Conn& c : conns) {
    std::size_t slot = 0;
    for (; slot < configs.size(); ++slot) {
      BitMatrix trial = configs[slot];
      trial.set(c.src, c.dst);
      if (trial.is_partial_permutation() && routable(trial)) {
        break;
      }
    }
    if (slot == configs.size()) {
      configs.emplace_back(n);
    }
    configs[slot].set(c.src, c.dst);
    color_of.push_back(slot);
  }
  return color_of;
}

/// Seeded working sets at N=16 and N=32, from sparse to several
/// connections per port.
template <typename Fn>
void for_each_seeded_set(Fn&& fn) {
  for (const std::size_t n : {16U, 32U}) {
    Rng rng(1000 + n);
    for (int trial = 0; trial < 12; ++trial) {
      const std::size_t edges = n * (1 + static_cast<std::size_t>(trial) % 4);
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial);
      fn(n, random_conns(n, edges, rng));
    }
  }
}

TEST(FirstFitOracle, CrossbarGreedyMatches) {
  for_each_seeded_set([](std::size_t n, const std::vector<Conn>& conns) {
    const auto any = [](const BitMatrix&) { return true; };
    const Decomposition d = decompose_greedy(n, conns);
    EXPECT_EQ(d.color_of, oracle_first_fit(n, conns, any));
    check_valid(n, conns, d);
  });
}

TEST(FirstFitOracle, OmegaMatches) {
  for_each_seeded_set([](std::size_t n, const std::vector<Conn>& conns) {
    const OmegaNetwork omega(n);
    const Decomposition d = decompose_omega(omega, conns);
    EXPECT_EQ(d.color_of,
              oracle_first_fit(n, conns, [&](const BitMatrix& cfg) {
                return omega.routable(cfg);
              }));
    check_valid(n, conns, d);
  });
}

TEST(FirstFitOracle, FatTreeMatchesIncludingOversubscribed) {
  for_each_seeded_set([](std::size_t n, const std::vector<Conn>& conns) {
    const std::size_t leaf_ports = n / 4;
    // Full bisection, 2:1 and leaf_ports:1 oversubscription.
    for (const std::size_t spines :
         {leaf_ports, leaf_ports / 2, std::size_t{1}}) {
      const FatTree tree(4, leaf_ports, spines);
      const Decomposition d = decompose_fattree(tree, conns);
      EXPECT_EQ(d.color_of,
                oracle_first_fit(n, conns, [&](const BitMatrix& cfg) {
                  return tree.routable(cfg);
                }))
          << "spines=" << spines;
      check_valid(n, conns, d);
    }
  });
}

TEST(WorkingSetDegree, EmptyIsZero) {
  EXPECT_EQ(working_set_degree(4, {}), 0u);
}

TEST(WorkingSetDegree, CountsBothDirections) {
  // Node 0 sends to 3 destinations, node 2 receives from 2 sources.
  std::vector<Conn> conns{{0, 1}, {0, 2}, {0, 3}, {1, 2}};
  EXPECT_EQ(working_set_degree(4, conns), 3u);
}

TEST(DecomposeOptimal, EmptySet) {
  const Decomposition d = decompose_optimal(4, {});
  EXPECT_EQ(d.degree(), 0u);
}

TEST(DecomposeOptimal, PermutationNeedsOneConfig) {
  const std::size_t n = 8;
  std::vector<Conn> conns;
  for (std::size_t u = 0; u < n; ++u) {
    conns.push_back({u, (u + 3) % n});
  }
  const Decomposition d = decompose_optimal(n, conns);
  EXPECT_EQ(d.degree(), 1u);
  check_valid(n, conns, d);
}

TEST(DecomposeOptimal, MeshNeighborsNeedExactlyFour) {
  // The torus neighbour working set is 4-regular; Konig coloring must hit
  // the degree bound exactly.
  const Mesh2D mesh = Mesh2D::square_ish(64);
  std::vector<Conn> conns;
  for (NodeId u = 0; u < mesh.size(); ++u) {
    for (const auto dir : Mesh2D::kDirs) {
      conns.push_back({u, mesh.neighbor(u, dir)});
    }
  }
  const Decomposition d = decompose_optimal(64, conns);
  EXPECT_EQ(d.degree(), 4u);
  check_valid(64, conns, d);
}

TEST(DecomposeOptimal, AllToAllNeedsNMinusOne) {
  const std::size_t n = 8;
  std::vector<Conn> conns;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u != v) {
        conns.push_back({u, v});
      }
    }
  }
  const Decomposition d = decompose_optimal(n, conns);
  EXPECT_EQ(d.degree(), n - 1);
  check_valid(n, conns, d);
  // Every config of an all-to-all decomposition is a full permutation
  // less fixed points: n-1 regular graph splits into n-1 perfect matchings
  // of size n... here each color class must have exactly n entries? No:
  // n*(n-1) edges over n-1 colors = n edges per color.
  for (const auto& cfg : d.configs) {
    EXPECT_EQ(cfg.count(), n);
  }
}

TEST(DecomposeOptimal, StarNeedsFanoutConfigs) {
  // Scatter working set: one source, many destinations -> degree = fanout,
  // one connection per config.
  const std::size_t n = 16;
  std::vector<Conn> conns;
  for (std::size_t v = 1; v < n; ++v) {
    conns.push_back({0, v});
  }
  const Decomposition d = decompose_optimal(n, conns);
  EXPECT_EQ(d.degree(), n - 1);
  check_valid(n, conns, d);
}

TEST(DecomposeOptimal, RandomGraphsHitDegreeBound) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 4 + rng.below(60);
    const std::size_t edges = rng.below(n * 3 + 1);
    const std::vector<Conn> conns = random_conns(n, edges, rng);
    const Decomposition d = decompose_optimal(n, conns);
    EXPECT_EQ(d.degree(), working_set_degree(n, conns));
    check_valid(n, conns, d);
  }
}

TEST(DecomposeOptimalDeathTest, RejectsDuplicateConnection) {
  std::vector<Conn> conns{{0, 1}, {0, 1}};
  EXPECT_DEATH((void)decompose_optimal(4, conns), "duplicate");
}

TEST(DecomposeGreedy, ValidButPossiblySuboptimal) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 4 + rng.below(40);
    const std::vector<Conn> conns = random_conns(n, n * 2, rng);
    const Decomposition d = decompose_greedy(n, conns);
    check_valid(n, conns, d);
    const std::size_t lower = working_set_degree(n, conns);
    EXPECT_GE(d.degree(), lower);
    // Greedy (first-fit) edge coloring uses at most 2*degree - 1 colors.
    EXPECT_LE(d.degree(), lower > 0 ? 2 * lower - 1 : 0);
  }
}

TEST(DecomposeGreedy, PermutationStillOneConfig) {
  const std::size_t n = 8;
  std::vector<Conn> conns;
  for (std::size_t u = 0; u < n; ++u) {
    conns.push_back({u, (u + 1) % n});
  }
  EXPECT_EQ(decompose_greedy(n, conns).degree(), 1u);
}

}  // namespace
}  // namespace pmx
