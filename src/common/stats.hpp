#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace pmx {

/// Named counter set attached to simulation components; dumped at the end of
/// a run. Every counter() call is a std::map<std::string> lookup, so a hot
/// path (the dynamic-TDM slot tick) tallies in locals and bumps each name
/// at most once per pass. A name exists once it has been bumped, even by 0.
class CounterSet {
 public:
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  [[nodiscard]] std::uint64_t value(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const {
    return counters_;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace pmx
