"""pmx-lint: line-local determinism & hygiene rules for the pmx codebase.

The reproduction's correctness claims rest on bit-exact determinism: gate
counts, the SL fast/ref differential oracle, and the byte-identical
``--jobs N`` sweep all assume no hidden nondeterminism. This linter rejects
the source-level patterns that historically break that contract:

  raw-rand       direct std::rand / srand / time() seeding / std::random_device
                 / std::mt19937 use anywhere outside src/common/rng.{hpp,cpp}.
                 All randomness must flow through pmx::Rng (xoshiro256**),
                 whose output is platform-independent.
  unordered-iter iteration over a std::unordered_map / std::unordered_set.
                 Bucket order is implementation-defined, so any loop over an
                 unordered container can leak nondeterministic ordering into
                 output or event order. Commutative folds (count, max, set
                 union) are safe: annotate them with an allow comment.
  float-accum    += / -= accumulation into float/double outside the
                 whitelisted analytic-model files. Slot and latency
                 *accounting* must stay integral (TimeNs / byte counts);
                 floating point is reserved for derived statistics.
  raw-new        raw `new` / `delete` expressions. Ownership goes through
                 containers and smart pointers; raw allocation invites leaks
                 the ASan tier then has to chase.
  raw-heap       std::priority_queue or the <algorithm> heap primitives
                 (push_heap/pop_heap/make_heap/sort_heap/is_heap) anywhere
                 outside src/predictor/policy_engine.* and
                 src/sim/event_queue.*. Priority ordering is a determinism
                 hot-spot (heaps are not stable); rank-ordered scheduling
                 must go through the PolicyEngine and event ordering through
                 the EventQueue, both of which carry total-order
                 tie-breakers.
  unbounded-queue
                 growth calls (push_back / push_front / emplace_back /
                 emplace_front / push / emplace) on std::deque / std::queue /
                 std::list typed names inside src/nic and src/switching with
                 no capacity check in sight (same line or the three preceding
                 code lines). Overload robustness rests on every NIC and
                 switch queue being bounded: growth must sit behind an
                 explicit capacity verdict (VoqSet::would_overflow, the
                 admission controller) or carry an allow comment stating the
                 structural bound.
  include-guard  headers must open with `#pragma once`.

Escape hatch: a finding on line N is suppressed by appending
``// pmx-lint: allow(<rule>)`` to line N (and only line N). Multiple rules:
``allow(rule-a, rule-b)``. For the file-level include-guard rule the allow
comment must sit on line 1.

This module holds the rules only; it has no command line. pmx_analyze.py
is the one CLI: it runs these rules next to its whole-program passes (layer
contract, include cycles, determinism taint, hot-path allocation) against
one fingerprint baseline (tools/pmx_analyze_baseline.json), e.g.

    python3 tools/pmx_analyze.py --root . --rules raw-new,include-guard

The lexer, Finding/fingerprint, allow() parsing, and baseline machinery are
shared via pmx_lexer.py, so there is exactly one suppression mechanism.
"""

from __future__ import annotations

import re
from pathlib import Path

from pmx_lexer import (
    DEFAULT_ROOTS,
    Finding,
    allowed_rules,
    strip_comments_and_strings,
)

# Files allowed to touch raw randomness primitives: the Rng wrapper itself.
RAW_RAND_EXEMPT = ("src/common/rng.hpp", "src/common/rng.cpp")

# The two sanctioned priority-queue cores: the policy engine (rank-ordered
# eviction with a (rank, src, dst) total order) and the simulator's event
# queue. Everything else must route priority ordering through them.
RAW_HEAP_EXEMPT = (
    "src/predictor/policy_engine.hpp",
    "src/predictor/policy_engine.cpp",
    "src/sim/event_queue.hpp",
    "src/sim/event_queue.cpp",
)

# Analytic-model / statistics files where floating-point accumulation is the
# point (latency closed forms, derived run metrics). Slot and
# event accounting elsewhere must stay integral.
FLOAT_ACCUM_WHITELIST = (
    "src/sched/latency_model.hpp",
    "src/sched/latency_model.cpp",
    "src/core/metrics.hpp",
    "src/core/metrics.cpp",
    # Stochastic arrival-process model: continuous-time exponential draws,
    # quantized to TimeNs only at the program boundary.
    "src/traffic/arrival.hpp",
    "src/traffic/arrival.cpp",
)

# The queue-discipline layers where every queue must be bounded: the NIC
# (VOQs, admission) and the switch paradigms. Queue growth elsewhere (test
# scaffolding, tooling) is out of scope for unbounded-queue.
UNBOUNDED_QUEUE_ROOTS = ("src/nic/", "src/switching/")

RAW_RAND_RE = re.compile(
    r"(?<![\w:])(?:std::)?"
    r"(?:rand|srand|random_device|mt19937(?:_64)?|minstd_rand0?|default_random_engine)"
    r"(?![\w])"
    r"|(?<![\w:])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>[\s&*]*"
    r"(?:const\s+)?([A-Za-z_]\w*)\s*(?:[;={,)]|$)"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^)]*)\)")
ITER_LOOP_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(?:begin|cbegin)\s*\(\s*\)")

FLOAT_DECL_RE = re.compile(
    r"\b(?:double|float)\b[\s&*]*(?:const\s+)?([A-Za-z_]\w*)\s*(?:[;={,)]|$)"
)
COMPOUND_ASSIGN_RE = re.compile(r"(?:^|[^\w.])([A-Za-z_]\w*)\s*[+-]=")

RAW_HEAP_RE = re.compile(
    r"\b(?:std::)?priority_queue\s*<"
    r"|\b(?:std::)?(?:push_heap|pop_heap|make_heap|sort_heap"
    r"|is_heap(?:_until)?)\s*\("
)

QUEUE_DECL_RE = re.compile(
    r"\b(?:std::)?(?:deque|queue|list)\s*<[^;{}]*?>[\s&*]*"
    r"(?:const\s+)?([A-Za-z_]\w*)\s*(?:[;={,)]|$)"
)
QUEUE_GROW_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?\.\s*"
    r"(?:push_back|push_front|emplace_back|emplace_front|push|emplace)\s*\("
)
# Capacity-verdict vocabulary: a growth call is considered guarded when one
# of these appears on the growth line or the three preceding code lines
# (comments are stripped, so prose claiming boundedness does not count).
QUEUE_GUARD_RE = re.compile(
    r"\b(?:would_overflow|capacity\w*|max_bytes\w*|max_msgs\w*"
    r"|admit\w*|try_submit)\b"
)
QUEUE_GUARD_WINDOW = 3

NEW_RE = re.compile(r"(?<!\boperator )\bnew\b\s*(?:\(|[A-Za-z_:<])")
DELETE_RE = re.compile(r"(?<!\boperator )(?<!=\s)(?<!= )\bdelete\b(?!\s*;)")

PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")

RULES = {
    "raw-rand": "raw randomness primitive; use pmx::Rng from src/common/rng.hpp",
    "unordered-iter": "iteration over unordered container leaks bucket order; "
    "iterate a sorted/stable structure or allow() a commutative fold",
    "float-accum": "floating-point accumulation outside analytic-model "
    "whitelist; keep slot/latency accounting integral",
    "raw-new": "raw new/delete; use containers or smart pointers",
    "raw-heap": "raw priority queue / heap primitive outside the sanctioned "
    "cores; route rank ordering through PolicyEngine and event ordering "
    "through EventQueue",
    "unbounded-queue": "queue growth without a capacity check; gate it "
    "behind an explicit capacity verdict (VoqSet::would_overflow, the "
    "admission controller) or allow() a structurally bounded site",
    "include-guard": "header does not start with #pragma once",
}


def collect_names(pattern: re.Pattern, lines) -> set[str]:
    names: set[str] = set()
    for line in lines:
        for m in pattern.finditer(line):
            names.add(m.group(1))
    return names


def paired_header_lines(path: Path) -> list[str]:
    """For foo.cpp, also scan foo.hpp so member declarations are visible."""
    if path.suffix != ".cpp":
        return []
    header = path.with_suffix(".hpp")
    if not header.is_file():
        return []
    code, _ = strip_comments_and_strings(header.read_text(encoding="utf-8"))
    return code


def range_expr_name(expr: str) -> str:
    """Final identifier of a range expression: `obj.member_` -> `member_`."""
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr.strip())
    return m.group(1) if m else ""


def unbounded_queue_in_scope(rel: str) -> bool:
    """The rule polices the queue-discipline layers. Explicit file arguments
    outside the standard roots (the fixture corpus under test) are always in
    scope so the rule itself stays testable."""
    posix = rel.replace("\\", "/")
    if posix.startswith(UNBOUNDED_QUEUE_ROOTS):
        return True
    return posix.split("/", 1)[0] not in DEFAULT_ROOTS


def lint_file(path: Path, rel: str, rules: set[str]) -> list[Finding]:
    text = path.read_text(encoding="utf-8")
    code_lines, comment_lines = strip_comments_and_strings(text)
    raw_lines = text.splitlines()
    findings: list[Finding] = []

    def emit(lineno: int, rule: str, message: str):
        comment = comment_lines[lineno - 1] if lineno - 1 < len(comment_lines) else ""
        if rule in allowed_rules(comment):
            return
        src = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        findings.append(Finding(rel, lineno, rule, message, src))

    if "raw-rand" in rules and rel not in RAW_RAND_EXEMPT:
        for idx, line in enumerate(code_lines, 1):
            if RAW_RAND_RE.search(line):
                emit(idx, "raw-rand", RULES["raw-rand"])

    if "unordered-iter" in rules:
        scope = code_lines + paired_header_lines(path)
        unordered_names = collect_names(UNORDERED_DECL_RE, scope)
        for idx, line in enumerate(code_lines, 1):
            for m in RANGE_FOR_RE.finditer(line):
                if range_expr_name(m.group(2)) in unordered_names:
                    emit(idx, "unordered-iter", RULES["unordered-iter"])
            for m in ITER_LOOP_RE.finditer(line):
                if m.group(1) in unordered_names:
                    emit(idx, "unordered-iter", RULES["unordered-iter"])

    if "float-accum" in rules and rel not in FLOAT_ACCUM_WHITELIST:
        scope = code_lines + paired_header_lines(path)
        float_names = collect_names(FLOAT_DECL_RE, scope)
        for idx, line in enumerate(code_lines, 1):
            for m in COMPOUND_ASSIGN_RE.finditer(line):
                if m.group(1) in float_names:
                    emit(idx, "float-accum", RULES["float-accum"])

    if "unbounded-queue" in rules and unbounded_queue_in_scope(rel):
        scope = code_lines + paired_header_lines(path)
        queue_names = collect_names(QUEUE_DECL_RE, scope)
        for idx, line in enumerate(code_lines, 1):
            for m in QUEUE_GROW_RE.finditer(line):
                if m.group(1) not in queue_names:
                    continue
                lookback = code_lines[max(0, idx - 1 - QUEUE_GUARD_WINDOW):idx]
                if any(QUEUE_GUARD_RE.search(l) for l in lookback):
                    continue
                emit(idx, "unbounded-queue", RULES["unbounded-queue"])

    if "raw-new" in rules:
        for idx, line in enumerate(code_lines, 1):
            if NEW_RE.search(line) or DELETE_RE.search(line):
                emit(idx, "raw-new", RULES["raw-new"])

    if "raw-heap" in rules and rel not in RAW_HEAP_EXEMPT:
        for idx, line in enumerate(code_lines, 1):
            if RAW_HEAP_RE.search(line):
                emit(idx, "raw-heap", RULES["raw-heap"])

    if "include-guard" in rules and path.suffix == ".hpp":
        has_pragma = any(PRAGMA_ONCE_RE.match(line) for line in code_lines[:5])
        if not has_pragma:
            comment = comment_lines[0] if comment_lines else ""
            if "include-guard" not in allowed_rules(comment):
                findings.append(
                    Finding(rel, 1, "include-guard", RULES["include-guard"],
                            raw_lines[0] if raw_lines else "")
                )

    return findings

