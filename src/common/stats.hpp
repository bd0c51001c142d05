#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace pmx {

/// Online accumulator for a stream of samples (Welford's algorithm for the
/// variance). Used for message latencies, queue depths, slot occupancy.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  void merge(const RunningStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width-bucket histogram with overflow bucket; supports approximate
/// percentile queries. Bucket width chosen at construction.
class Histogram {
 public:
  Histogram(double bucket_width, std::size_t num_buckets);

  void add(double x);
  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i];
  }
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  /// Approximate p-quantile (0 < q <= 1) via bucket interpolation.
  [[nodiscard]] double quantile(double q) const;

 private:
  double width_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

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
