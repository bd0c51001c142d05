#include "fabric/omega.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/bitvector.hpp"

namespace pmx {

OmegaNetwork::OmegaNetwork(std::size_t n)
    : n_(n), stages_(static_cast<std::size_t>(std::countr_zero(n))) {
  PMX_CHECK(n >= 2 && std::has_single_bit(n),
            "Omega network size must be a power of two");
}

std::size_t OmegaNetwork::line_after_stage(std::size_t src, std::size_t dst,
                                           std::size_t stage) const {
  PMX_CHECK(src < n_ && dst < n_, "port out of range");
  PMX_CHECK(stage < stages_, "stage out of range");
  // Destination-tag self-routing: before each stage the lines are
  // perfect-shuffled (rotate-left of the line index), then the 2x2 switch
  // outputs the line whose LSB is the destination bit consumed at that
  // stage (MSB first).
  std::size_t line = src;
  for (std::size_t s = 0; s <= stage; ++s) {
    const std::size_t dst_bit = (dst >> (stages_ - 1 - s)) & 1;
    line = ((line << 1) & (n_ - 1)) | dst_bit;
  }
  return line;
}

std::vector<std::size_t> OmegaNetwork::route(std::size_t src,
                                             std::size_t dst) const {
  std::vector<std::size_t> lines(stages_);
  std::size_t line = src;
  for (std::size_t s = 0; s < stages_; ++s) {
    const std::size_t dst_bit = (dst >> (stages_ - 1 - s)) & 1;
    line = ((line << 1) & (n_ - 1)) | dst_bit;
    lines[s] = line;
  }
  PMX_CHECK(lines.back() == dst, "destination-tag routing must end at dst");
  return lines;
}

bool OmegaNetwork::conflict(const Conn& a, const Conn& b) const {
  // The last stage's line equals the destination, so distinct destinations
  // can only collide at stages 0..stages-2; identical destinations always
  // collide (and are already excluded by the crossbar constraint).
  std::size_t line_a = a.src;
  std::size_t line_b = b.src;
  for (std::size_t s = 0; s < stages_; ++s) {
    line_a = ((line_a << 1) & (n_ - 1)) | ((a.dst >> (stages_ - 1 - s)) & 1);
    line_b = ((line_b << 1) & (n_ - 1)) | ((b.dst >> (stages_ - 1 - s)) & 1);
    if (line_a == line_b) {
      return true;
    }
  }
  return false;
}

bool OmegaNetwork::routable(const BitMatrix& config) const {
  PMX_CHECK(config.size() == n_, "configuration size mismatch");
  PMX_CHECK(config.is_partial_permutation(),
            "Omega routability is checked on top of the crossbar constraint");
  // Occupancy bitmaps, one per stage.
  std::vector<BitVector> used(stages_, BitVector(n_));
  for (std::size_t u = 0; u < n_; ++u) {
    const std::size_t v = config.row(u).find_first();
    if (v >= n_) {
      continue;
    }
    std::size_t line = u;
    for (std::size_t s = 0; s < stages_; ++s) {
      line = ((line << 1) & (n_ - 1)) | ((v >> (stages_ - 1 - s)) & 1);
      if (used[s].get(line)) {
        return false;
      }
      used[s].set(line);
    }
  }
  return true;
}

}  // namespace pmx
