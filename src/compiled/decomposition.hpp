#pragma once

#include <cstddef>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/message.hpp"
#include "fabric/fattree.hpp"
#include "fabric/omega.hpp"

namespace pmx {

/// Result of decomposing a connection set C into network configurations
/// C_1..C_k (Section 2): each configuration is a partial permutation, the
/// union of all configurations is exactly C, and `color_of[i]` gives the
/// configuration index of input edge i.
struct Decomposition {
  std::vector<BitMatrix> configs;
  std::vector<std::size_t> color_of;

  [[nodiscard]] std::size_t degree() const { return configs.size(); }
};

/// Maximum in/out degree of the connection set: the lower bound on the
/// multiplexing degree needed to realize it (Konig's theorem makes this
/// bound achievable for crossbars).
[[nodiscard]] std::size_t working_set_degree(std::size_t n,
                                             const std::vector<Conn>& conns);

/// Optimal decomposition by bipartite edge coloring (Kempe-chain recoloring):
/// always uses exactly working_set_degree(conns) configurations.
[[nodiscard]] Decomposition decompose_optimal(std::size_t n,
                                              const std::vector<Conn>& conns);

/// The greedy decompositions below share one first-fit loop over shared
/// resources (the TDM resource model of Minaeva et al.): a configuration may
/// hold each resource up to that resource's capacity. Every connection holds
/// its input port and its output port (capacity 1 each), plus whatever the
/// fabric's internal topology adds. Each connection goes into the
/// lowest-numbered configuration where all of its resources have room;
/// otherwise a new configuration opens.

/// Crossbar first-fit: ports only. Simpler hardware/runtime than
/// decompose_optimal, may use up to 2*degree-1 configurations. Kept as the
/// baseline for the decomposition ablation.
[[nodiscard]] Decomposition decompose_greedy(std::size_t n,
                                             const std::vector<Conn>& conns);

/// Omega first-fit: the ports plus one internal line per stage (from
/// OmegaNetwork::route), capacity 1 each. Every configuration is
/// Omega-routable; the degree is the multiplexing degree the Omega fabric
/// needs for this working set.
[[nodiscard]] Decomposition decompose_omega(const OmegaNetwork& omega,
                                            const std::vector<Conn>& conns);

/// Fat-tree first-fit: the ports plus, for an inter-leaf connection, the
/// source leaf's uplink pool and the destination leaf's downlink pool,
/// capacity num_spines each. With num_spines == leaf_ports (full bisection)
/// this matches decompose_greedy; oversubscribed trees need proportionally
/// more configurations for inter-leaf-heavy working sets.
[[nodiscard]] Decomposition decompose_fattree(const FatTree& tree,
                                              const std::vector<Conn>& conns);

}  // namespace pmx
