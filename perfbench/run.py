#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The simulator libraries and the benchmark are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) inside the
checkout, then the benchmark binary runs with the given arguments. Its
stdout passes through unchanged; the last line is the JSON result. Build
output goes to stderr. A failed build exits non-zero without a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# The run must end within 180 s; the binary stops ops at 140 s.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out: " + " ".join(cmd), file=sys.stderr)
        return False
    return proc.returncode == 0


def build(targets):
    out = build_dir()
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src",
                                       "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", out, "-j", jobs, "--target"]
                      + targets, BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        if not build(["perfbench_test"]):
            return 2
        test = os.path.join(build_dir(), "perfbench_test")
        return subprocess.run([test], check=False).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(["perfbench"]):
        return 2

    env = dict(os.environ)
    # One lane unless MTIA_THREADS says otherwise. The cluster workload's
    # parallel DES meets its lanes at a barrier every epoch; on a shared
    # machine one descheduled lane stalls the epoch, and the same run at
    # 2 lanes swung 50% in op time between back-to-back runs (4% at one
    # lane). At one lane the partitions still run their epochs and
    # mailboxes, inline. The result's env line records the lane count.
    env.setdefault("MTIA_THREADS", "1")
    binary = os.path.join(build_dir(), "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--out", os.path.join(build_dir(), "traces")]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
