#!/usr/bin/env python3
"""Runs each workload repeatedly and prints the spread of every metric.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads search-serial,...]
                                    [--trace 0|1] [--values]

Each workload runs --runs times with seeds first-seed, first-seed+1, ...
For every metric the script prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and their distance as a
share of the median. With --trace 0 it also prints each end-to-end
metric's bound from BENCHMARK.json and flags a spread above a third of it;
the bounds in BENCHMARK.json are set from this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--values", action="store_true",
                    help="also print every run's value, in run order")
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        values = {}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(here, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if out.returncode != 0:
                sys.exit("%s seed %d failed (exit %d)"
                         % (workload, seed, out.returncode))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            shares.add((result["failed"], result["attempted"]))
            if not result["correct"]:
                print("%s seed %d: correct=false" % (workload, seed))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s: %d runs, failed/attempted %s"
              % (workload, args.runs, sorted(shares)))
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            line = "%-32s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f" % (
                name, med, q1, q3, spread)
            if name in bounds:
                flag = "" if spread < bounds[name] / 3 else "  > bound/3"
                line += "  bound %.2f%s" % (bounds[name], flag)
            print(line)
            if args.values:
                print("    values: " + " ".join("%.4g" % x for x in v))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
