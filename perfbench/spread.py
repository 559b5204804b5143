#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the benchmark's steadiness check.

Usage (from the repository root):

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed, one run at a time, and prints for every
end-to-end metric in BENCHMARK.json the median of the runs and the distance
between their first and third quartiles (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound. A spread above a third of
its bound is flagged. --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: incorrect output" % seed)
            return 1
        runs.append(result["metrics"])
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)

    print("\n%-18s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for m in spec["end_to_end"]:
        values = [r[m["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / median
        flag = "  > bound/3" if spread > m["bound"] / 3 else ""
        print("%-18s %14.6g %8.4f %8.2f%s" % (m["name"], median, spread, m["bound"], flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
