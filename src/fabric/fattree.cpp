#include "fabric/fattree.hpp"

#include <vector>

#include "common/assert.hpp"

namespace pmx {

FatTree::FatTree(std::size_t num_leaves, std::size_t leaf_ports,
                 std::size_t num_spines)
    : num_leaves_(num_leaves),
      leaf_ports_(leaf_ports),
      num_spines_(num_spines) {
  PMX_CHECK(num_leaves_ >= 1 && leaf_ports_ >= 1 && num_spines_ >= 1,
            "degenerate fat tree");
}

bool FatTree::routable(const BitMatrix& config) const {
  PMX_CHECK(config.size() == size(), "configuration size mismatch");
  PMX_CHECK(config.is_partial_permutation(),
            "fat-tree routability is checked on top of the crossbar "
            "constraint");
  std::vector<std::size_t> up(num_leaves_, 0);
  std::vector<std::size_t> down(num_leaves_, 0);
  for (std::size_t u = 0; u < size(); ++u) {
    const std::size_t v = config.row(u).find_first();
    if (v >= size()) {
      continue;
    }
    const std::size_t src_leaf = leaf_of(u);
    const std::size_t dst_leaf = leaf_of(v);
    if (src_leaf == dst_leaf) {
      continue;  // stays inside the leaf switch
    }
    if (++up[src_leaf] > num_spines_ || ++down[dst_leaf] > num_spines_) {
      return false;
    }
  }
  return true;
}

}  // namespace pmx
