#pragma once

// Correctness gate: decides whether one simulated point is ok, failed (did
// not drain) or wrong (its simulated results differ from the results
// recorded with the benchmark).

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The recorded result of one point: readable key figures plus a
/// fingerprint over every RunMetrics field.
struct Expectation {
  bool completed = false;
  std::uint64_t delivered = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  std::int64_t makespan_ns = 0;
  std::uint64_t fingerprint = 0;

  friend bool operator==(const Expectation&, const Expectation&) = default;
};

/// Recorded results keyed by (workload seed, point name).
using Expectations =
    std::map<std::pair<std::uint64_t, std::string>, Expectation>;

/// FNV-1a over an exact text rendering of every RunMetrics field (doubles
/// in hexadecimal floating point, so no digit is lost).
[[nodiscard]] std::uint64_t fingerprint(const pmx::RunMetrics& m);

[[nodiscard]] Expectation expectation_of(const pmx::RunResult& result);

/// One line per point: seed, name, completed, delivered, shed, dropped,
/// makespan and fingerprint, tab-separated.
void write_expectations(std::ostream& out, const Expectations& expected);
/// Parses what write_expectations wrote; throws on a malformed line.
[[nodiscard]] Expectations read_expectations(std::istream& in);

enum class Verdict : std::uint8_t {
  kOk,
  /// Did not drain (and is not a declared by-design wedge), or the slot
  /// auditor found violations during the run.
  kFailed,
  /// Drained, but broke message conservation or differs from the record.
  kWrong,
};

struct Judgement {
  Verdict verdict = Verdict::kOk;
  std::string reason;  ///< empty when ok
};

/// Judge one point's result. `submitted` is the number of messages the
/// point's program offers; `expected` is null when nothing is recorded.
[[nodiscard]] Judgement judge(const PointSpec& spec,
                              const pmx::RunResult& result,
                              std::uint64_t submitted,
                              const Expectation* expected);

}  // namespace perfbench
