#!/usr/bin/env python3
"""Fixture-driven tests for pmx-lint.

Each rule has one good and one bad fixture under tests/lint_fixtures/; the
bad fixture must produce findings for exactly that rule, the good fixture
none. The allow_suppress fixture checks that `// pmx-lint: allow(<rule>)`
suppresses exactly one line and only for the named rule. Run directly or via
ctest (registered as pmx_lint_fixtures). Baseline handling and the full-tree
sweep go through the one CLI, pmx_analyze.py, and are tested in
pmx_analyze_test.py.
"""

import sys
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

sys.path.insert(0, str(REPO_ROOT / "tools"))
import pmx_lint  # noqa: E402


def lint(name: str, rules=None):
    path = FIXTURES / name
    assert path.is_file(), f"missing fixture {path}"
    active = set(rules) if rules else set(pmx_lint.RULES)
    return pmx_lint.lint_file(path, name, active)


class RuleFixtures(unittest.TestCase):
    def assert_rule(self, bad: str, good: str, rule: str, bad_count: int):
        bad_findings = lint(bad)
        self.assertEqual(
            sorted({f.rule for f in bad_findings}), [rule],
            f"{bad} should only trip {rule}: {[str(f) for f in bad_findings]}")
        self.assertEqual(
            len(bad_findings), bad_count,
            f"{bad}: {[str(f) for f in bad_findings]}")
        good_findings = lint(good)
        self.assertEqual(
            good_findings, [],
            f"{good} should be clean: {[str(f) for f in good_findings]}")

    def test_raw_rand(self):
        # Four offending lines (line 9 holds two primitives but findings are
        # line-granular, matching the allow() escape hatch).
        self.assert_rule("raw_rand_bad.cpp", "raw_rand_good.cpp",
                         "raw-rand", 4)

    def test_unordered_iter(self):
        self.assert_rule("unordered_iter_bad.cpp", "unordered_iter_good.cpp",
                         "unordered-iter", 2)

    def test_float_accum(self):
        self.assert_rule("float_accum_bad.cpp", "float_accum_good.cpp",
                         "float-accum", 2)

    def test_raw_new(self):
        self.assert_rule("raw_new_bad.cpp", "raw_new_good.cpp", "raw-new", 4)

    def test_include_guard(self):
        self.assert_rule("include_guard_bad.hpp", "include_guard_good.hpp",
                         "include-guard", 1)

    def test_unbounded_queue(self):
        # Three offending growth calls: push_back, emplace_back through a
        # vector-of-deques index, and push_front. The good fixture shows the
        # two sanctioned shapes: a capacity verdict within the guard window
        # and an allow() comment stating a structural bound.
        self.assert_rule("unbounded_queue_bad.cpp", "unbounded_queue_good.cpp",
                         "unbounded-queue", 3)

    def test_raw_heap(self):
        # Three offending lines: the priority_queue declaration, make_heap,
        # and pop_heap.
        self.assert_rule("raw_heap_bad.cpp", "raw_heap_good.cpp",
                         "raw-heap", 3)


class AllowEscapeHatch(unittest.TestCase):
    def test_allow_suppresses_exactly_one_line(self):
        findings = lint("allow_suppress.cpp")
        # Three raw-new violations: line 6 is allowed, line 7 has no allow,
        # line 9's allow names the wrong rule. Exactly two must survive.
        self.assertEqual(len(findings), 2,
                         [str(f) for f in findings])
        self.assertEqual({f.rule for f in findings}, {"raw-new"})
        self.assertEqual(sorted(f.line for f in findings), [7, 9])


class FloatAccumWhitelist(unittest.TestCase):
    def test_whitelisted_analytic_files_are_exempt(self):
        metrics = REPO_ROOT / "src" / "core" / "metrics.cpp"
        findings = pmx_lint.lint_file(metrics, "src/core/metrics.cpp",
                                      {"float-accum"})
        self.assertEqual(findings, [])
        # The same content linted under a non-whitelisted name must trip.
        findings = pmx_lint.lint_file(metrics, "src/core/metrics_copy.cpp",
                                      {"float-accum"})
        self.assertGreater(len(findings), 0)


class RawRandExemption(unittest.TestCase):
    def test_rng_wrapper_is_exempt(self):
        rng = REPO_ROOT / "src" / "common" / "rng.cpp"
        self.assertEqual(
            pmx_lint.lint_file(rng, "src/common/rng.cpp", {"raw-rand"}), [])


class RawHeapExemption(unittest.TestCase):
    def test_sanctioned_heap_cores_are_exempt(self):
        # The policy engine and the event queue ARE the sanctioned heaps;
        # the same content under any other path must trip.
        for rel in ("src/predictor/policy_engine.cpp",
                    "src/sim/event_queue.hpp"):
            path = REPO_ROOT / rel
            self.assertEqual(
                pmx_lint.lint_file(path, rel, {"raw-heap"}), [], rel)
        engine = REPO_ROOT / "src" / "predictor" / "policy_engine.cpp"
        findings = pmx_lint.lint_file(
            engine, "src/predictor/engine_copy.cpp", {"raw-heap"})
        self.assertGreater(len(findings), 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
