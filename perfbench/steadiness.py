#!/usr/bin/env python3
"""Check that the ESM benchmark is steady: two sets of runs per workload.

    python3 perfbench/steadiness.py [--runs 10]
        [--workloads build,search,serve] [--overhead]

Run from the root of a source checkout. Each of the two sets runs every
workload --runs times for BENCHMARK.json's run_seconds, each run with its
own seed (set k uses seeds k*1000+1 ...).
For every end-to-end metric it prints each set's median and quartiles,
the spread (Q3 - Q1) / median, and whether the sets agree:

  spread   every set's spread is within the metric's bound (setup_s is
           exempt, as the benchmark's contract allows);
  median   the two sets' medians differ by at most the bound, as a share
           of the first set's median;
  failed   the share of failed operations is identical in every run.

--overhead adds one traced run per workload and prints the tracing
overhead: the traced run's end-to-end metrics against the first set's
medians. Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: " + " ".join(cmd))
    result = json.loads(lines[-1])
    traced = {}
    for line in lines:
        if line.startswith("traced_end_to_end "):
            traced = json.loads(line[len("traced_end_to_end "):])
    return result, traced


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    ok = True
    for workload in workloads:
        sets = []
        for k in (1, 2):
            runs = []
            for i in range(args.runs):
                result, _ = run(workload, k * 1000 + 1 + i, seconds, 0)
                print("%s set %d run %d: correct=%s attempted=%d failed=%d" % (
                    workload, k, i + 1, result["correct"],
                    result["attempted"], result["failed"]), flush=True)
                ok = ok and result["correct"]
                runs.append(result)
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1:
            ok = False
        print("\n%s: failed share %s (%s)" % (
            workload, sorted(shares), "ok" if len(shares) == 1 else "DIFFERS"))
        print("  %-16s %-6s %s" % ("metric", "bound",
                                   "  ".join("set%d q1/median/q3 (spread)" % k
                                             for k in (1, 2))))
        medians = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, verdicts = [], []
            for k, runs in enumerate(sets, 1):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.setdefault(name, []).append(q2)
                cells.append("%.6g/%.6g/%.6g (%.3f)" % (q1, q2, q3, spread))
                if name != "setup_s" and spread > bound:
                    verdicts.append("spread>bound in set %d" % k)
                elif name != "setup_s" and spread > bound / 3:
                    verdicts.append("spread>bound/3 in set %d" % k)
            first, second = medians[name]
            shift = abs(second - first) / first
            if shift > bound:
                verdicts.append("medians differ by %.3f" % shift)
            if any(">bound " in v or "median" in v for v in verdicts):
                ok = False
            print("  %-16s %-6g %s  %s" % (name, bound, "  ".join(cells),
                                            "; ".join(verdicts) or "agree"))
        if args.overhead:
            _, traced = run(workload, 1, seconds, 1)
            print("  tracing overhead (traced run vs set-1 median):")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                base = medians[name][0]
                value = traced[name]["value"]
                print("    %-16s %.6g vs %.6g (%+.2f%%)" % (
                    name, value, base, 100.0 * (value - base) / base))
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
