// pmxbench: the simulator's end-to-end benchmark.
//
//   pmxbench --workload W --seed S --seconds T --trace 0|1 --expected FILE
//   pmxbench --workload W --record FILE
//
// --trace 0 times every point through run_workload for about T seconds and
// prints the end-to-end metrics; --trace 1 runs the traced mirror and the
// per-call probes and prints the per-layer metrics. Both judge every point
// against the results recorded in FILE; --record writes that file. The last
// line of stdout is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <vector>

#include "gate.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

using perfbench::PointSpec;
using Clock = std::chrono::steady_clock;

/// Results are recorded for this many workload seeds; --seed S runs seed
/// S mod kRecordedSeeds, so every seed is checked against a record.
constexpr std::uint64_t kRecordedSeeds = 4;
/// Set-up repetitions whose median is setup_s.
constexpr int kSetups = 15;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host seconds of the reference kernel on the host where the benchmark was
/// defined; the unit that normalized times are expressed in.
constexpr double kReferenceSeconds = 0.0045;

volatile std::uint64_t g_sink = 0;  // keeps the kernel's work observable

/// A fixed event-loop-shaped kernel owned by the benchmark (a heap of timed
/// callbacks, a small allocation and bit-row work per event), so it slows
/// down with the shared host the way the simulator does but never changes
/// with the simulator's code. Returns its host seconds.
double reference_kernel() {
  const auto t0 = Clock::now();
  struct Event {
    std::uint64_t t;
    std::uint32_t i;
    bool operator>(const Event& o) const { return t > o.t; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<std::vector<std::uint64_t>> rows(128,
                                               std::vector<std::uint64_t>(2));
  std::vector<std::function<std::uint64_t(std::uint64_t)>> fns;
  for (std::uint32_t i = 0; i < 128; ++i) {
    fns.emplace_back([i](std::uint64_t t) { return t * 2654435761u + i; });
    queue.push({i, i});
  }
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  for (int n = 0; n < 60'000; ++n) {
    const Event e = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::vector<std::uint64_t> tmp(rows[e.i]);
    for (std::size_t r = 0; r < 128; r += 8) {
      tmp[0] |= rows[r][0] & x;
      tmp[1] ^= rows[r][1];
    }
    rows[x & 127][x >> 63] ^= tmp[0] ^ tmp[1];
    acc += fns[e.i](e.t) ^ tmp[0];
    queue.push({e.t + 90 + (x & 31), e.i});
  }
  g_sink = acc;
  return seconds_since(t0);
}

/// Times calls in reference-kernel units: a call's host seconds divided by
/// the mean of the kernel's host seconds just before and just after it,
/// times kReferenceSeconds. The shared host's speed drifts by tens of
/// percent over seconds; the ratio drifts far less. Consecutive calls share
/// the kernel run between them.
class ReferenceClock {
 public:
  ReferenceClock() : before_(reference_kernel()) {}

  /// Runs `fn`; returns its {normalized, raw} host seconds.
  template <typename Fn>
  std::pair<double, double> time(Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const double raw = seconds_since(t0);
    const double after = reference_kernel();
    const double normalized =
        raw / ((before_ + after) / 2) * kReferenceSeconds;
    before_ = after;
    return {normalized, raw};
  }

 private:
  double before_;
};

double median(std::vector<double> v) {
  std::ranges::sort(v);
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::vector<pmx::Workload> generate_all(const std::vector<PointSpec>& specs) {
  std::vector<pmx::Workload> programs;
  programs.reserve(specs.size());
  for (const PointSpec& s : specs) {
    programs.push_back(s.generate());
  }
  return programs;
}

struct Args {
  std::string workload;
  std::int64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string expected;
  std::string record;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pmxbench: " << why
            << "\nusage: pmxbench --workload W --seed S --seconds T "
               "--trace 0|1 --expected FILE\n"
               "       pmxbench --workload W --record FILE\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + key);
    }
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoll(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--expected") {
        a.expected = value;
      } else if (key == "--record") {
        a.record = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("cannot parse " + key + " " + value);
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::ranges::find(names, a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.record.empty() && a.expected.empty()) {
    usage("--expected is required");
  }
  if (a.trace != 0 && a.trace != 1) {
    usage("--trace must be 0 or 1");
  }
  return a;
}

/// Prints the result object: {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    metrics_ += (metrics_.empty() ? "" : ", ") + ("\"" + name + "\": {") +
                "\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {" << metrics_ << "}}" << std::endl;
  }

 private:
  std::string metrics_;
};

/// Judges every point of one pass and prints the ones that are not ok.
struct Gate {
  const std::string& workload;
  std::uint64_t seed;
  const perfbench::Expectations& expected;
  std::size_t failed = 0;
  bool correct = true;

  void check(const PointSpec& spec, const pmx::Workload& program,
             const pmx::RunResult& result) {
    const auto it = expected.find({seed, spec.name});
    const perfbench::Judgement j =
        perfbench::judge(spec, result, program.num_messages(),
                         it == expected.end() ? nullptr : &it->second);
    if (j.verdict == perfbench::Verdict::kFailed) {
      ++failed;
      std::cout << "FAILED " << workload << " " << spec.name << ": "
                << j.reason << "\n";
    } else if (j.verdict == perfbench::Verdict::kWrong) {
      correct = false;
      ++failed;
      std::cout << "WRONG " << workload << " " << spec.name << ": " << j.reason
                << "\n";
    }
  }
};

int record(const Args& a) {
  perfbench::Expectations expected;
  for (std::uint64_t seed = 0; seed < kRecordedSeeds; ++seed) {
    const auto specs = perfbench::make_points(a.workload, seed);
    for (const PointSpec& s : specs) {
      expected[{seed, s.name}] =
          perfbench::expectation_of(pmx::run_workload(s.config, s.generate()));
    }
  }
  std::ofstream out(a.record);
  perfbench::write_expectations(out, expected);
  out.close();
  if (!out) {
    std::cerr << "pmxbench: cannot write " << a.record << "\n";
    return 1;
  }
  std::cout << "recorded " << expected.size() << " points\n";
  return 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int timed(const Args& a, Gate& gate, const std::vector<PointSpec>& specs) {
  // Set-up: generate every point's own traffic program, several times.
  ReferenceClock clock;
  std::vector<double> setups;
  std::vector<pmx::Workload> programs;
  for (int r = 0; r < kSetups; ++r) {
    std::vector<pmx::Workload> fresh;
    setups.push_back(clock.time([&] { fresh = generate_all(specs); }).first);
    programs.swap(fresh);  // the previous set is freed outside the span
  }

  // Whole passes over every point until the next would overrun --seconds;
  // wall_s sums each point's median normalized time over the passes.
  std::vector<std::vector<double>> times(specs.size());
  std::vector<std::vector<double>> raw_times(specs.size());
  std::vector<pmx::RunResult> first;
  const auto start = Clock::now();
  double last_pass = 0;
  while (first.empty() || seconds_since(start) + last_pass <= a.seconds) {
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      pmx::RunResult r;
      const auto [normalized, raw] = clock.time(
          [&] { r = pmx::run_workload(specs[i].config, programs[i]); });
      times[i].push_back(normalized);
      raw_times[i].push_back(raw);
      if (first.size() < specs.size()) {
        gate.check(specs[i], programs[i], r);
        first.push_back(std::move(r));
      } else if (!(r.metrics == first[i].metrics) ||
                 r.completed != first[i].completed) {
        gate.correct = false;
        std::cout << "WRONG " << a.workload << " " << specs[i].name
                  << ": result differs between passes\n";
      }
    }
    last_pass = seconds_since(pass_start);
  }
  double wall = 0;
  double raw_wall = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    wall += median(times[i]);
    raw_wall += median(raw_times[i]);
  }

  const std::size_t n = specs.size();
  std::cout << "workload " << a.workload << " seed " << gate.seed << ": "
            << n << " points x " << times.front().size()
            << " passes, unnormalized wall " << raw_wall << " s\n";
  Report report;
  report.add("wall_s", wall, "s");
  report.add("setup_s", median(setups), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("points_ok_share",
             static_cast<double>(n - gate.failed) / static_cast<double>(n),
             "share");
  report.print(gate.correct, n, gate.failed);
  return 0;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

int traced(const Args& a, Gate& gate, const std::vector<PointSpec>& specs) {
  const auto t0 = Clock::now();
  const std::vector<pmx::Workload> programs = generate_all(specs);
  const double generate_s = seconds_since(t0);

  perfbench::LayerTotals t;
  double untraced_s = 0;
  double traced_s = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto u0 = Clock::now();
    const pmx::RunResult plain = pmx::run_workload(specs[i].config,
                                                   programs[i]);
    untraced_s += seconds_since(u0);
    gate.check(specs[i], programs[i], plain);
    const auto m0 = Clock::now();
    const pmx::RunResult mirror =
        perfbench::traced_run(specs[i], programs[i], t);
    traced_s += seconds_since(m0);
    if (!(mirror.metrics == plain.metrics) ||
        mirror.completed != plain.completed ||
        mirror.sim_events != plain.sim_events) {
      gate.correct = false;
      std::cout << "WRONG " << a.workload << " " << specs[i].name
                << ": traced mirror differs from run_workload\n";
    }
  }
  const perfbench::Probes p = perfbench::run_probes(specs, programs);

  std::cout << "workload " << a.workload << " seed " << gate.seed
            << ": traced " << traced_s << " s vs untraced " << untraced_s
            << " s\n";
  Report r;
  r.add("sim.events", static_cast<double>(t.events), "count");
  r.add("sim.run_s", t.run_s, "s");
  r.add("sim.queue_op_ns", p.queue_op_ns, "ns");
  r.add("sched.passes", static_cast<double>(t.passes), "count");
  r.add("sched.passes_elided", static_cast<double>(t.passes_elided), "count");
  r.add("sched.slot_advances", static_cast<double>(t.slot_advances), "count");
  r.add("sched.slots_skipped", static_cast<double>(t.slots_skipped), "count");
  r.add("sched.advance_slot_ns", p.advance_slot_ns, "ns");
  r.add("sched.pass_ns", p.pass_ns, "ns");
  r.add("fabric.commits", static_cast<double>(t.commits), "count");
  r.add("fabric.reconfigurations", static_cast<double>(t.reconfigurations),
        "count");
  r.add("fabric.noop_commit_share",
        share(t.commits - t.reconfigurations, t.commits), "share");
  r.add("fabric.load_ns", p.load_ns, "ns");
  r.add("switching.build_s", t.build_s, "s");
  r.add("switching.worms", static_cast<double>(t.worms), "count");
  r.add("switching.dispatch_misses", static_cast<double>(t.dispatch_misses),
        "count");
  r.add("switching.circuits_established",
        static_cast<double>(t.circuits_established), "count");
  r.add("switching.idle_slot_share", share(t.idle_slots, t.tdm_ticks),
        "share");
  r.add("switching.idle_grant_share", share(t.idle_grants, t.live_port_slots),
        "share");
  r.add("predictor.evictions", static_cast<double>(t.evictions), "count");
  r.add("predictor.flushes", static_cast<double>(t.flushes), "count");
  r.add("predictor.collect_ns", p.collect_ns, "ns");
  r.add("compiled.plan_s", t.plan_s, "s");
  r.add("nic.shed_share", share(t.shed, t.submitted), "share");
  r.add("nic.queue_depth_max", static_cast<double>(t.queue_depth_max),
        "bytes");
  r.add("nic.ctrl_rerequests", static_cast<double>(t.ctrl_rerequests),
        "count");
  r.add("nic.lease_expiries", static_cast<double>(t.lease_expiries), "count");
  r.add("nic.voq_op_ns", p.voq_op_ns, "ns");
  r.add("fault.retransmits", static_cast<double>(t.retransmits), "count");
  r.add("fault.ctrl_loss_share", share(t.ctrl_dropped, t.ctrl_messages),
        "share");
  r.add("control.solves", static_cast<double>(t.solves), "count");
  r.add("control.apply_share", share(t.applies, t.proposals), "share");
  r.add("control.rollbacks", static_cast<double>(t.rollbacks), "count");
  r.add("control.solve_ns", p.solve_ns, "ns");
  r.add("core.metrics_s", t.metrics_s, "s");
  r.add("core.audits", static_cast<double>(t.audits), "count");
  r.add("core.audit_violations", static_cast<double>(t.audit_violations),
        "count");
  r.add("traffic.generate_s", generate_s, "s");
  r.add("traffic.messages", static_cast<double>(t.submitted), "count");
  r.add("trace.overhead_share", traced_s / untraced_s - 1.0, "share");
  r.print(gate.correct, specs.size(), gate.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_SANITIZED
  std::cerr << "pmxbench: refusing to time a sanitizer-instrumented build\n";
  return 3;
#endif
  const Args a = parse(argc, argv);
  if (!a.record.empty()) {
    return record(a);
  }
  std::ifstream in(a.expected);
  if (!in) {
    std::cerr << "pmxbench: cannot read " << a.expected << "\n";
    return 1;
  }
  const perfbench::Expectations expected = perfbench::read_expectations(in);
  const auto pool = static_cast<std::int64_t>(kRecordedSeeds);
  const auto seed = static_cast<std::uint64_t>(((a.seed % pool) + pool) % pool);
  const std::vector<PointSpec> specs = perfbench::make_points(a.workload, seed);
  Gate gate{a.workload, seed, expected};
  return a.trace == 1 ? traced(a, gate, specs) : timed(a, gate, specs);
}
