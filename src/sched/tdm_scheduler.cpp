#include "sched/tdm_scheduler.hpp"

#include "common/assert.hpp"
#include "sched/presched.hpp"
#include "sched/sl_array.hpp"

namespace pmx {

TdmScheduler::TdmScheduler(const Options& options)
    : n_(options.num_ports),
      k_(options.num_slots),
      multi_slot_(options.multi_slot_connections),
      skip_unrequested_(options.skip_unrequested_slots),
      requests_(n_),
      holds_(n_),
      down_ports_(n_),
      up_cols_(n_, true),
      slots_(k_, BitMatrix(n_)),
      slot_ai_(k_, BitVector(n_)),
      slot_ao_(k_, BitVector(n_)),
      pinned_(k_, false),
      b_star_(n_),
      zero_(n_),
      slot_clean_(k_, false) {
  PMX_CHECK(n_ >= 2, "scheduler needs at least two ports");
  PMX_CHECK(k_ >= 1, "scheduler needs at least one slot");
}

void TdmScheduler::set_request(std::size_t u, std::size_t v, bool value) {
  PMX_CHECK(u < n_ && v < n_, "request port out of range");
  if (requests_.get(u, v) != value) {
    requests_.set(u, v, value);
    mark_all_dirty();
  }
}

void TdmScheduler::mark_all_dirty() {
  std::fill(slot_clean_.begin(), slot_clean_.end(), false);
}

void TdmScheduler::apply_toggles(std::size_t s, const BitMatrix& toggles) {
  BitMatrix& config = slots_[s];
  BitVector col_flip(n_);
  for (std::size_t u = 0; u < n_; ++u) {
    const BitVector& row = toggles.row(u);
    if (row.none()) {
      continue;
    }
    config.row_xor(u, row);
    col_flip ^= row;
    if (row.count() % 2 == 1) {
      slot_ai_[s].flip(u);
    }
  }
  slot_ao_[s] ^= col_flip;
}

void TdmScheduler::rebuild_slot_occupancy(std::size_t s) {
  slot_ai_[s] = slots_[s].row_or();
  slot_ao_[s] = slots_[s].col_or();
}

void TdmScheduler::preload(std::size_t slot, const BitMatrix& config,
                           bool pinned) {
  PMX_CHECK(slot < k_, "preload slot out of range");
  PMX_CHECK(config.size() == n_, "preload configuration size mismatch");
  PMX_CHECK(config.is_partial_permutation(),
            "preloaded configuration must be a partial permutation");
  slots_[slot] = config;
  pinned_[slot] = pinned;
  rebuild_slot_occupancy(slot);
  rebuild_b_star();
  mark_all_dirty();
}

void TdmScheduler::unload(std::size_t slot) {
  PMX_CHECK(slot < k_, "unload slot out of range");
  slots_[slot].reset();
  slot_ai_[slot].reset();
  slot_ao_[slot].reset();
  pinned_[slot] = false;
  rebuild_b_star();
  mark_all_dirty();
}

std::size_t TdmScheduler::num_pinned() const {
  std::size_t count = 0;
  for (const bool p : pinned_) {
    count += p ? 1U : 0U;
  }
  return count;
}

void TdmScheduler::flush_dynamic() {
  for (std::size_t s = 0; s < k_; ++s) {
    if (!pinned_[s]) {
      slots_[s].reset();
      slot_ai_[s].reset();
      slot_ao_[s].reset();
    }
  }
  holds_.reset();
  rebuild_b_star();
  mark_all_dirty();
  ++stats_.flushes;
}

BitMatrix TdmScheduler::effective_requests() const {
  BitMatrix r_eff = requests_ | holds_;
  if (!any_fault_) {
    return r_eff;
  }
  const BitVector empty_row(n_);
  for (std::size_t u = 0; u < n_; ++u) {
    if (down_ports_.get(u)) {
      r_eff.set_row(u, empty_row);
      continue;
    }
    BitVector row = r_eff.row(u);
    row &= up_cols_;
    r_eff.set_row(u, row);
  }
  return r_eff;
}

void TdmScheduler::force_clear(
    std::size_t u, std::size_t v,
    std::vector<std::pair<std::size_t, std::size_t>>& released) {
  bool was_established = false;
  for (std::size_t s = 0; s < k_; ++s) {
    if (slots_[s].get(u, v)) {
      slots_[s].set(u, v, false);
      // Partial permutation: (u, v) was the only connection on either port
      // in this slot, so clearing it frees both occupancy bits.
      slot_ai_[s].clear(u);
      slot_ao_[s].clear(v);
      was_established = true;
    }
  }
  if (was_established) {
    ++stats_.forced_releases;
    released.emplace_back(u, v);
  }
}

std::vector<std::pair<std::size_t, std::size_t>> TdmScheduler::set_port_fault(
    std::size_t port, bool down) {
  PMX_CHECK(port < n_, "fault port out of range");
  std::vector<std::pair<std::size_t, std::size_t>> released;
  if (down_ports_.get(port) == down) {
    return released;  // no edge
  }
  down_ports_.set(port, down);
  up_cols_.set(port, !down);
  any_fault_ = down_ports_.any();
  if (down) {
    // Force-release every established connection whose input or output
    // port just died -- reusing the flush machinery's bookkeeping so the
    // slots are reclaimed immediately.
    for (std::size_t v = 0; v < n_; ++v) {
      if (v != port && b_star_.get(port, v)) {
        force_clear(port, v, released);
      }
      if (v != port && b_star_.get(v, port)) {
        force_clear(v, port, released);
      }
    }
    rebuild_b_star();
  }
  mark_all_dirty();
  return released;
}

std::optional<std::size_t> TdmScheduler::next_unpinned_slot() {
  for (std::size_t i = 0; i < k_; ++i) {
    const std::size_t s = (sl_cursor_ + i) % k_;
    if (!pinned_[s]) {
      sl_cursor_ = (s + 1) % k_;
      return s;
    }
  }
  return std::nullopt;
}

TdmScheduler::PassResult TdmScheduler::run_pass() {
  PassResult result;
  const auto slot = next_unpinned_slot();
  if (!slot) {
    return result;  // every slot is pinned: nothing to schedule dynamically
  }
  const std::size_t s = *slot;
  result.slot = s;

  if (slot_clean_[s]) {
    // Provably quiescent: the hardware pass would produce an all-zero T.
    ++stats_.passes_elided;
    return result;
  }

  const BitMatrix r_eff = effective_requests();
  const BitMatrix l = preschedule(r_eff, b_star_, slots_[s]);

  const BitMatrix b_star_before = b_star_;

  bool touched = false;
  if (l.any()) {
    const SlPassResult pass = sl_array_pass_fast(
        l, slots_[s], slot_ai_[s], slot_ao_[s], priority_origin_,
        priority_origin_);
    apply_toggles(s, pass.toggles);
    result.establishes = pass.establishes;
    result.releases = pass.releases;
    result.blocked = pass.blocked;
    touched = pass.toggles.any();
  }

  if (multi_slot_) {
    // Extension 2: replicate already-established, still-requested
    // connections into this slot's idle ports for extra bandwidth.
    BitMatrix l2 = r_eff;
    l2 &= b_star_;
    for (std::size_t u = 0; u < n_; ++u) {
      BitVector row = l2.row(u);
      row.and_not(slots_[s].row(u));
      l2.set_row(u, row);
    }
    if (l2.any()) {
      const SlPassResult dup = sl_array_pass_fast(
          l2, slots_[s], slot_ai_[s], slot_ao_[s], priority_origin_,
          priority_origin_);
      apply_toggles(s, dup.toggles);
      result.establishes += dup.establishes;
      touched = touched || dup.toggles.any();
      PMX_CHECK(dup.releases == 0, "duplication pass cannot release");
    }
  }

  if (touched) {
    PMX_CHECK(slots_[s].is_partial_permutation(),
              "SL pass corrupted slot configuration");
    rebuild_b_star();
    // B* feeds every slot's pre-scheduling logic.
    mark_all_dirty();
  } else {
    slot_clean_[s] = true;
  }

  // Report network-level (B*) membership changes for the predictor.
  for (std::size_t u = 0; u < n_; ++u) {
    const BitVector delta = b_star_before.row(u) ^ b_star_.row(u);
    for (std::size_t v = delta.find_first(); v < n_;
         v = delta.find_next(v + 1)) {
      if (b_star_.get(u, v)) {
        result.established_pairs.emplace_back(u, v);
      } else {
        result.released_pairs.emplace_back(u, v);
      }
    }
  }

  priority_origin_ = (priority_origin_ + 1) % n_;

  ++stats_.passes;
  stats_.establishes += result.establishes;
  stats_.releases += result.releases;
  stats_.blocked += result.blocked;
  return result;
}

std::optional<std::size_t> TdmScheduler::advance_slot() {
  ++stats_.slot_advances;
  const std::size_t start = current_slot_ ? (*current_slot_ + 1) % k_ : 0;
  for (std::size_t i = 0; i < k_; ++i) {
    const std::size_t s = (start + i) % k_;
    const bool live = skip_unrequested_ ? (slots_[s] & requests_).any()
                                        : slots_[s].any();
    if (live) {
      current_slot_ = s;
      stats_.slots_skipped += i;
      return s;
    }
  }
  stats_.slots_skipped += k_;
  current_slot_ = std::nullopt;
  return std::nullopt;
}

const BitMatrix& TdmScheduler::config(std::size_t slot) const {
  PMX_CHECK(slot < k_, "slot out of range");
  return slots_[slot];
}

const BitMatrix& TdmScheduler::active_config() const {
  return current_slot_ ? slots_[*current_slot_] : zero_;
}

bool TdmScheduler::grant(std::size_t u, std::size_t v) const {
  return active_config().get(u, v);
}

std::optional<std::size_t> TdmScheduler::granted_output(std::size_t u) const {
  const std::size_t v = active_config().row(u).find_first();
  if (v < n_) {
    return v;
  }
  return std::nullopt;
}

std::size_t TdmScheduler::live_mux_degree() const {
  std::size_t degree = 0;
  for (const auto& slot : slots_) {
    degree += slot.any() ? 1U : 0U;
  }
  return degree;
}

std::vector<std::size_t> TdmScheduler::slots_of(std::size_t u,
                                                std::size_t v) const {
  std::vector<std::size_t> result;
  for (std::size_t s = 0; s < k_; ++s) {
    if (slots_[s].get(u, v)) {
      result.push_back(s);
    }
  }
  return result;
}

void TdmScheduler::rebuild_b_star() {
  b_star_.reset();
  for (const auto& slot : slots_) {
    b_star_ |= slot;
  }
}

void TdmScheduler::audit_invariants(std::vector<std::string>& out) const {
  BitMatrix all(n_);
  for (std::size_t s = 0; s < k_; ++s) {
    if (!slots_[s].is_partial_permutation()) {
      out.push_back("slot " + std::to_string(s) +
                    " double-allocates a crosspoint (configuration is not "
                    "a partial permutation)");
    }
    if (slot_ai_[s] != slots_[s].row_or()) {
      out.push_back("slot " + std::to_string(s) +
                    " AI occupancy cache diverged from its configuration");
    }
    if (slot_ao_[s] != slots_[s].col_or()) {
      out.push_back("slot " + std::to_string(s) +
                    " AO occupancy cache diverged from its configuration");
    }
    all |= slots_[s];
  }
  if (!(all == b_star_)) {
    out.push_back("B* diverged from the union of the slot configurations");
  }
}

}  // namespace pmx
