#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload search-serial --seed 1 \
        --seconds 40 --trace 0

The harness is configured from perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and rebuilt
incrementally on every call; build output goes to standard error. Before
the harness starts, every CPU is kept busy for WARMUP_S seconds (see
README.md, "Warm-up"). The harness's standard output is passed through, so
its result line (one JSON object) is the last line printed. A traced run (--trace 1) also writes its
spans next to the build, as spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("search-serial", "search-parallel", "serve-mixed")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 160
WARMUP_S = 4
SPIN = "import time\nend = time.monotonic() + %d\nwhile time.monotonic() < end: pass\n"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def warm_up():
    """Keeps every CPU busy for WARMUP_S seconds, in child processes that
    have all ended when it returns."""
    spinners = [subprocess.Popen([sys.executable, "-c", SPIN % WARMUP_S])
                for _ in range(os.cpu_count() or 1)]
    for p in spinners:
        p.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--universe", type=int, default=0,
                    help="query universe (0 in the benchmark's runs)")
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found next to "
             "perfbench/; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build = os.path.join(target, "perfbench")

    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "ktg_perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))

    warm_up()
    cmd = [os.path.join(build, "ktg_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--universe", str(args.universe)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness exited with code %d" % proc.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
