#include "compiled/decomposition.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace pmx {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

void check_conns(std::size_t n, const std::vector<Conn>& conns) {
  for (const Conn& c : conns) {
    PMX_CHECK(c.src < n && c.dst < n, "connection endpoint out of range");
  }
}

/// The shared first-fit loop. `capacity[r]` is fabric resource r's capacity
/// per configuration, and `hold(c, held)` appends to `held` the fabric
/// resources connection c occupies. Every connection also holds its input
/// and output port, capacity 1 each (stored after the fabric resources).
template <typename HoldFn>
Decomposition first_fit(std::size_t n, const std::vector<Conn>& conns,
                        std::vector<std::size_t> capacity, HoldFn&& hold) {
  check_conns(n, conns);
  const std::size_t port_base = capacity.size();
  capacity.resize(port_base + 2 * n, 1);
  Decomposition result;
  std::vector<std::vector<std::size_t>> load;  // per config: per-resource use
  std::vector<std::size_t> held;
  const auto fits = [&](const std::vector<std::size_t>& used) {
    return std::all_of(held.begin(), held.end(),
                       [&](std::size_t r) { return used[r] < capacity[r]; });
  };
  for (const Conn& c : conns) {
    held.assign({port_base + c.src, port_base + n + c.dst});
    hold(c, held);
    std::size_t slot = 0;
    while (slot < load.size() && !fits(load[slot])) {
      ++slot;
    }
    if (slot == load.size()) {
      load.emplace_back(capacity.size(), 0);
      result.configs.emplace_back(n);
    }
    for (const std::size_t r : held) {
      ++load[slot][r];
    }
    result.configs[slot].set(c.src, c.dst);
    result.color_of.push_back(slot);
  }
  return result;
}

}  // namespace

std::size_t working_set_degree(std::size_t n, const std::vector<Conn>& conns) {
  check_conns(n, conns);
  std::vector<std::size_t> out_deg(n, 0);
  std::vector<std::size_t> in_deg(n, 0);
  std::size_t degree = 0;
  for (const Conn& c : conns) {
    degree = std::max({degree, ++out_deg[c.src], ++in_deg[c.dst]});
  }
  return degree;
}

Decomposition decompose_optimal(std::size_t n, const std::vector<Conn>& conns) {
  check_conns(n, conns);
  const std::size_t k = working_set_degree(n, conns);
  Decomposition result;
  result.color_of.assign(conns.size(), kNone);
  if (k == 0) {
    return result;
  }

  // Bipartite edge coloring with k = max degree colors (Konig's theorem).
  // The graph's left side is the source ports, the right side the
  // destination ports. For each port and color we track the incident edge
  // index: out_edge[u][c] is u's edge colored c, in_edge[v][c] is v's.
  std::vector<std::vector<std::size_t>> out_edge(
      n, std::vector<std::size_t>(k, kNone));
  std::vector<std::vector<std::size_t>> in_edge(
      n, std::vector<std::size_t>(k, kNone));

  const auto free_color = [&](const std::vector<std::size_t>& table) {
    for (std::size_t c = 0; c < k; ++c) {
      if (table[c] == kNone) {
        return c;
      }
    }
    PMX_CHECK(false, "no free color: degree bound violated");
    return kNone;
  };

  const auto assign = [&](std::size_t e, std::size_t c) {
    result.color_of[e] = c;
    out_edge[conns[e].src][c] = e;
    in_edge[conns[e].dst][c] = e;
  };

  const auto unassign = [&](std::size_t e) {
    const std::size_t c = result.color_of[e];
    out_edge[conns[e].src][c] = kNone;
    in_edge[conns[e].dst][c] = kNone;
    result.color_of[e] = kNone;
  };

  for (std::size_t e = 0; e < conns.size(); ++e) {
    const Conn& conn = conns[e];
    PMX_CHECK(std::none_of(out_edge[conn.src].begin(),
                           out_edge[conn.src].end(),
                           [&](std::size_t idx) {
                             return idx != kNone && conns[idx].dst == conn.dst;
                           }),
              "duplicate connection in working set");
    const std::size_t alpha = free_color(out_edge[conn.src]);
    if (in_edge[conn.dst][alpha] == kNone) {
      assign(e, alpha);
      continue;
    }
    const std::size_t beta = free_color(in_edge[conn.dst]);
    // Kempe chain: starting at conn.dst, follow the alternating
    // alpha/beta/alpha/... path. Konig's argument guarantees the path is
    // simple and never reaches conn.src (src has no alpha edge, and left
    // nodes are only entered through alpha edges), so flipping every edge's
    // color along the path frees alpha at conn.dst while keeping the
    // coloring proper.
    std::vector<std::size_t> path;
    std::size_t node = conn.dst;
    bool right_side = true;  // conn.dst is a destination (right) node
    std::size_t color = alpha;
    while (true) {
      const std::size_t edge =
          right_side ? in_edge[node][color] : out_edge[node][color];
      if (edge == kNone) {
        break;
      }
      path.push_back(edge);
      node = right_side ? conns[edge].src : conns[edge].dst;
      right_side = !right_side;
      color = color == alpha ? beta : alpha;
    }
    for (const std::size_t edge : path) {
      unassign(edge);
    }
    // Re-assign in reverse order with flipped colors; reverse order keeps
    // the intermediate states conflict-free (the far end of the path gets
    // its new color first).
    std::size_t flip = path.size() % 2 == 1 ? beta : alpha;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      assign(*it, flip);
      flip = flip == alpha ? beta : alpha;
    }
    PMX_CHECK(in_edge[conn.dst][alpha] == kNone &&
                  out_edge[conn.src][alpha] == kNone,
              "Kempe chain did not free the color");
    assign(e, alpha);
  }

  result.configs.assign(k, BitMatrix(n));
  for (std::size_t e = 0; e < conns.size(); ++e) {
    PMX_CHECK(result.color_of[e] != kNone, "uncolored connection");
    result.configs[result.color_of[e]].set(conns[e].src, conns[e].dst);
  }
  for (const auto& cfg : result.configs) {
    PMX_CHECK(cfg.is_partial_permutation(), "invalid configuration produced");
  }
  return result;
}

Decomposition decompose_greedy(std::size_t n, const std::vector<Conn>& conns) {
  return first_fit(n, conns, {}, [](const Conn&, std::vector<std::size_t>&) {});
}

Decomposition decompose_omega(const OmegaNetwork& omega,
                              const std::vector<Conn>& conns) {
  const std::size_t n = omega.size();
  // Internal line l after stage s is fabric resource s*n + l.
  Decomposition result = first_fit(
      n, conns, std::vector<std::size_t>(omega.stages() * n, 1),
      [&](const Conn& c, std::vector<std::size_t>& held) {
        const std::vector<std::size_t> lines = omega.route(c.src, c.dst);
        for (std::size_t s = 0; s < lines.size(); ++s) {
          held.push_back(s * n + lines[s]);
        }
      });
  for (const auto& cfg : result.configs) {
    PMX_CHECK(omega.routable(cfg), "omega decomposition produced a blocked "
                                   "configuration");
  }
  return result;
}

Decomposition decompose_fattree(const FatTree& tree,
                                const std::vector<Conn>& conns) {
  const std::size_t n = tree.size();
  const std::size_t leaves = tree.num_leaves();
  // Leaf l's uplink pool is fabric resource l, its downlink pool leaves + l.
  Decomposition result = first_fit(
      n, conns, std::vector<std::size_t>(2 * leaves, tree.num_spines()),
      [&](const Conn& c, std::vector<std::size_t>& held) {
        if (!tree.is_local(c)) {
          held.push_back(tree.leaf_of(c.src));
          held.push_back(leaves + tree.leaf_of(c.dst));
        }
      });
  for (const auto& cfg : result.configs) {
    PMX_CHECK(tree.routable(cfg),
              "fat-tree decomposition produced an over-capacity config");
  }
  return result;
}

}  // namespace pmx
