#!/usr/bin/env python3
"""Run each workload repeatedly and print the spread of every metric.

    python3 perfbench/spread.py [--runs 10] [--seconds N] [--trace 0]
                                [--first-seed 1] [--workloads a,b,...]

--seconds defaults to BENCHMARK.json's run_seconds. Each run uses another
seed (first-seed, first-seed + 1, ...). For every metric the table gives
the median, the quartiles (Python's statistics.quantiles(values, n=4)),
the interquartile spread as a share of the median, and the min/max spread
as a share of the median. The bounds in BENCHMARK.json are set from this
output. Run from the root of a checkout; progress goes to stderr, the
table to stdout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit("%s seed %d exited %d" % (workload, seed,
                                                   done.returncode))
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, args.seconds, args.trace)
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (workload, seed, r["correct"], r["attempted"], r["failed"]),
                  file=sys.stderr)
            results.append(r)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("== %s: %d runs, all correct: %s, failed shares: %s" %
              (workload, len(results), all(r["correct"] for r in results),
               shares))
        print("%-36s %12s %12s %12s %8s %8s %6s" %
              ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(values) - min(values)) / med if med else 0.0
            bound = bounds.get(name)
            print("%-36s %12.5g %12.5g %12.5g %8.4f %8.4f %6s" %
                  (name, med, q1, q3, iqr, rng,
                   "" if bound is None else bound))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
