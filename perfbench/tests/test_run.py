"""Tests of perfbench/run.py: sanitizer refusal and the no-sources exit.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402


class SanitizerRefusal(unittest.TestCase):
    def test_clean_release_cache_passes(self):
        cache = "\n".join([
            "# comment -fsanitize=address",
            "CMAKE_BUILD_TYPE:STRING=RelWithDebInfo",
            "CMAKE_CXX_FLAGS:STRING=",
            "PMX_SANITIZE:STRING=OFF",
        ])
        self.assertEqual(run.sanitizer_flags(cache), [])

    def test_sanitized_trees_are_refused(self):
        for line in ("CMAKE_CXX_FLAGS:STRING=-O2 -fsanitize=address",
                     "CMAKE_CXX_FLAGS_RELWITHDEBINFO:STRING=-fsanitize=thread",
                     "CMAKE_EXE_LINKER_FLAGS:STRING=-fsanitize=undefined",
                     "PMX_SANITIZE:STRING=thread",
                     "PMX_SANITIZE:STRING=ON"):
            self.assertEqual(run.sanitizer_flags(line), [line])

    def test_build_refuses_a_sanitized_tree(self):
        with tempfile.TemporaryDirectory() as out:
            with open(os.path.join(out, "CMakeCache.txt"), "w") as f:
                f.write("CMAKE_CXX_FLAGS:STRING=-fsanitize=address\n")
            # The build step itself is replaced by a no-op: only the
            # post-build cache check is under test.
            real_call = run.subprocess.call
            run.subprocess.call = lambda *a, **k: 0
            try:
                with self.assertRaises(SystemExit) as exit_:
                    run.build(out)
            finally:
                run.subprocess.call = real_call
            self.assertEqual(exit_.exception.code, 3)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(PERFBENCH, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fig4-closed", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=root, capture_output=True, text=True, timeout=60,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
