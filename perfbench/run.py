#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root. Builds the pmx library from src/ and the
pmxbench program (RelWithDebInfo) into $CARGO_TARGET_DIR, default
.bench_build, then runs one workload. The last line of stdout is the
result object: {"correct", "attempted", "failed", "metrics"}.
Workloads: fig4-closed, tdm-policy, overload-open.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig4-closed", "tdm-policy", "overload-open")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def sanitizer_flags(cache_text):
    """Cache entries showing a sanitizer-instrumented tree, if any."""
    found = []
    for line in cache_text.splitlines():
        if line.startswith(("#", "//")) or "=" not in line:
            continue
        key, value = line.split("=", 1)
        name = key.split(":", 1)[0]
        if name == "PMX_SANITIZE" and value.strip().upper() not in ("", "OFF"):
            found.append(line)
        elif name.startswith(("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS")) \
                and "-fsanitize" in value:
            found.append(line)
    return found


def build(out):
    cache = os.path.join(out, "CMakeCache.txt")
    log_path = os.path.join(out, "perfbench-build.log")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "pmxbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 1)
    with open(cache) as f:
        flags = sanitizer_flags(f.read())
    if flags:
        fail("refusing to time a sanitizer-instrumented build tree " + out +
             ": " + "; ".join(flags), 3)
    return os.path.join(out, "pmxbench")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the pmx sources (src/) are not next to perfbench/")
    binary = build(build_dir())
    expected = os.path.join(HERE, "expected", args.workload + ".tsv")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected", expected]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("pmxbench did not finish within %d s" % RUN_TIMEOUT_S, 4)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
