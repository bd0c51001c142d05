// Tests of the benchmark itself: the correctness gate, the declared-wedge
// list, seed plumbing and the repeatability of the traced layer counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gate.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const PointSpec& find(const std::vector<PointSpec>& specs,
                      const std::string& name) {
  const auto it = std::ranges::find(specs, name, &PointSpec::name);
  EXPECT_NE(it, specs.end()) << name;
  return *it;
}

TEST(Gate, RecordedResultPassesAndPerturbedRecordFails) {
  const auto specs = make_points("fig4-closed", 0);
  const PointSpec& spec = find(specs, "scatter/64B/dynamic-tdm");
  const pmx::Workload program = spec.generate();
  const pmx::RunResult r = pmx::run_workload(spec.config, program);
  const Expectation e = expectation_of(r);
  EXPECT_EQ(judge(spec, r, program.num_messages(), &e).verdict, Verdict::kOk);

  Expectation fp = e;
  fp.fingerprint ^= 1;
  EXPECT_EQ(judge(spec, r, program.num_messages(), &fp).verdict,
            Verdict::kWrong);
  Expectation span = e;
  span.makespan_ns += 1;
  EXPECT_EQ(judge(spec, r, program.num_messages(), &span).verdict,
            Verdict::kWrong);
  EXPECT_EQ(judge(spec, r, program.num_messages(), nullptr).verdict,
            Verdict::kWrong);

  // One changed metric field changes the fingerprint.
  pmx::RunResult changed = r;
  changed.metrics.p99_latency_ns += 0.5;
  EXPECT_NE(fingerprint(changed.metrics), e.fingerprint);
  EXPECT_EQ(judge(spec, changed, program.num_messages(), &e).verdict,
            Verdict::kWrong);
}

TEST(Gate, ConservationBreaksAndAuditViolationsFail) {
  const auto specs = make_points("fig4-closed", 0);
  const PointSpec& spec = find(specs, "scatter/64B/wormhole");
  const pmx::Workload program = spec.generate();
  pmx::RunResult r = pmx::run_workload(spec.config, program);
  const Expectation e = expectation_of(r);
  EXPECT_EQ(judge(spec, r, program.num_messages() + 1, &e).verdict,
            Verdict::kWrong);
  r.metrics.audit_violations = 1;
  const Expectation recorded = expectation_of(r);
  EXPECT_EQ(judge(spec, r, program.num_messages(), &recorded).verdict,
            Verdict::kFailed);
}

TEST(Gate, DeclaredWedgesAreExactlyTheFiveByDesignPoints) {
  std::set<std::string> declared;
  for (const std::string& w : workload_names()) {
    for (const PointSpec& s : make_points(w, 0)) {
      if (s.declared_wedge) {
        declared.insert(w + " " + s.name);
      }
    }
  }
  const std::set<std::string> want{
      "tdm-policy counter-64/scatter", "tdm-policy counter-64/hotspot-skewed",
      "tdm-policy never-evict/random-mesh", "tdm-policy never-evict/scatter",
      "tdm-policy never-evict/hotspot-skewed"};
  EXPECT_EQ(declared, want);
}

TEST(Gate, WedgeListDoesNotExcuseOtherNonDrainingPoints) {
  const auto specs = make_points("tdm-policy", 0);
  pmx::RunResult stuck;
  stuck.completed = false;
  stuck.metrics.messages = 3;
  const Expectation wedged{false, 3, 0, 0, 0, 0};
  for (const PointSpec& s : specs) {
    const Verdict v = judge(s, stuck, 10, &wedged).verdict;
    EXPECT_EQ(v, s.declared_wedge ? Verdict::kOk : Verdict::kFailed) << s.name;
  }
  // A declared wedge that was recorded as drained no longer counts as ok.
  const Expectation drained{true, 10, 0, 0, 100, 0};
  for (const PointSpec& s : specs) {
    EXPECT_EQ(judge(s, stuck, 10, &drained).verdict, Verdict::kFailed);
  }
  // So does one whose run found audit violations.
  pmx::RunResult audited = stuck;
  audited.metrics.audit_violations = 2;
  for (const PointSpec& s : specs) {
    EXPECT_EQ(judge(s, audited, 10, &wedged).verdict, Verdict::kFailed);
  }
  // The known overload-open wedge is a failure, not a declared wedge.
  const auto overload = make_points("overload-open", 0);
  const PointSpec& known = find(overload, "uniform/x0.5/dynamic-tdm");
  EXPECT_FALSE(known.declared_wedge);
  EXPECT_EQ(judge(known, stuck, 10, &wedged).verdict, Verdict::kFailed);
}

TEST(Seeds, WorkloadSeedReachesEveryGenerator) {
  const Seeds base = seeds_for(0);
  const Seeds shifted = seeds_for(3);
  EXPECT_EQ(shifted.pattern, base.pattern + 3);
  EXPECT_EQ(shifted.hotspot, base.hotspot + 3);

  // Seeded patterns change with the seed; unseeded ones must not.
  const auto programs_of = [](const std::string& w, std::uint64_t seed) {
    std::vector<std::pair<std::string, pmx::Workload>> out;
    for (const PointSpec& s : make_points(w, seed)) {
      out.emplace_back(s.name, s.generate());
    }
    return out;
  };
  for (const std::string w : {"fig4-closed", "tdm-policy"}) {
    const auto a = programs_of(w, 0);
    const auto b = programs_of(w, 1);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::string& name = a[i].first;
      const bool seeded = name.find("random-mesh") != std::string::npos ||
                          name.find("two-phase") != std::string::npos ||
                          name.find("hotspot") != std::string::npos;
      EXPECT_EQ(a[i].second.programs != b[i].second.programs, seeded)
          << w << " " << name;
    }
  }
  // overload-open keeps its arrival and control-loss seeds on purpose.
  const auto o0 = make_points("overload-open", 0);
  const auto o1 = make_points("overload-open", 1);
  for (std::size_t i = 0; i < o0.size(); ++i) {
    EXPECT_EQ(o0[i].generate().programs, o1[i].generate().programs);
    EXPECT_EQ(o0[i].config.params.ctrl.seed, kCtrlSeed);
  }
}

TEST(Expectations, RoundTripAndRejectMalformedLines) {
  Expectations e;
  e[{0, "scatter/8B/wormhole"}] = {true, 127, 0, 0, 12345, 0xABCDEF0123456789};
  e[{3, "uniform/x0.5/dynamic-tdm"}] = {false, 2269, 266, 0, 99, 1};
  std::stringstream text;
  write_expectations(text, e);
  EXPECT_EQ(read_expectations(text), e);
  std::stringstream bad("0\tname\t1\t2\n");
  EXPECT_THROW((void)read_expectations(bad), std::runtime_error);
}

TEST(Trace, MirrorEqualsRunWorkloadAndCountsRepeatExactly) {
  std::vector<PointSpec> specs;
  for (const PointSpec& s : make_points("overload-open", 0)) {
    if (s.name.rfind("skewed/x1.5/", 0) == 0) {
      specs.push_back(s);  // all four paradigms, every nic/control layer
    }
  }
  for (const PointSpec& s : make_points("fig4-closed", 0)) {
    if (s.name.rfind("two-phase/128B/", 0) == 0) {
      specs.push_back(s);
    }
  }
  ASSERT_EQ(specs.size(), 8u);
  LayerTotals first;
  LayerTotals second;
  for (const PointSpec& s : specs) {
    const pmx::Workload program = s.generate();
    const pmx::RunResult plain = pmx::run_workload(s.config, program);
    const pmx::RunResult a = traced_run(s, program, first);
    const pmx::RunResult b = traced_run(s, program, second);
    EXPECT_EQ(a.metrics, plain.metrics) << s.name;
    EXPECT_EQ(a.completed, plain.completed) << s.name;
    EXPECT_EQ(a.sim_events, plain.sim_events) << s.name;
    EXPECT_EQ(b.metrics, a.metrics) << s.name;
  }
  EXPECT_EQ(first.counts(), second.counts());
  EXPECT_GT(first.worms, 0u);
  EXPECT_GT(first.solves, 0u);
  EXPECT_GT(first.passes, 0u);
  EXPECT_GT(first.commits, 0u);
}

}  // namespace
}  // namespace perfbench
