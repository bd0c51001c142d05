// Conformance-differential suite for the policy-engine refactor: the
// timeout/counter/phase/none/never-evict policies, reimplemented as rank
// functions over the PolicyEngine core, must reproduce the pre-refactor
// predictors *byte for byte*. The goldens in tests/golden/runs were
// captured from the old TimeoutPredictor/CounterPredictor/PhasePredictor
// implementations before the rewrite; each scenario's full RunResult
// fingerprint (every metric at %.17g plus every counter) is compared
// against its golden here. A single changed eviction decision anywhere in
// a run cascades into the makespan and event counts, so any behavioral
// drift in the engine fails loudly.
//
// The chaos-mesh scenarios layer lossy control, random link faults and the
// recovery-mode auditor on top, freezing the predictor's interaction with
// forced releases and resyncs as well.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "golden/fingerprint.hpp"
#include "golden/scenarios.hpp"

namespace pmx {
namespace {

PolicySpec scenario_policy(const golden::Scenario& s) {
  PolicySpec spec;
  spec.policy = s.policy;
  if (s.timeout_ns != 0) {
    spec.timeout_ns = s.timeout_ns;
  }
  if (s.threshold != 0) {
    spec.threshold = s.threshold;
  }
  // make_policy runs the phase policy with its fixed 1000 ns epoch, the
  // epoch the phase goldens were captured at.
  EXPECT_TRUE(s.phase_epoch_ns == 0 || s.phase_epoch_ns == 1000) << s.id;
  spec.validate();
  return spec;
}

std::string read_golden(const std::string& id) {
  const std::string path = std::string(PMX_GOLDEN_DIR) + "/" + id + ".txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden: " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class PolicyConformance
    : public ::testing::TestWithParam<golden::Scenario> {};

TEST(PolicyConformanceNames, ScenarioPrintsAsItsId) {
  // The listed test names carry the printed parameter; it must not depend
  // on where the scenario's strings happen to live in memory.
  for (const golden::Scenario& s : golden::conformance_scenarios()) {
    EXPECT_EQ(::testing::PrintToString(s), s.id);
  }
}

TEST_P(PolicyConformance, MatchesPreRefactorGolden) {
  const golden::Scenario& s = GetParam();
  RunConfig config;
  golden::apply_scenario_base(config, s);
  config.policy = scenario_policy(s);
  const RunResult result = run_workload(config, golden::scenario_workload(s));
  EXPECT_EQ(golden::fingerprint(s.id, result), read_golden(s.id)) << s.id;
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, PolicyConformance,
    ::testing::ValuesIn(golden::conformance_scenarios()),
    [](const ::testing::TestParamInfo<golden::Scenario>& param) {
      std::string name = param.param.id;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace pmx
