#!/usr/bin/env python3
"""Steadiness check: do two sets of benchmark runs of one build agree?

    python3 simbench/steady.py [--runs 10] [--first-seed 1]

Run from the root of a checkout holding BENCHMARK.json. For every
workload it makes two sets of --runs runs (seeds first-seed,
first-seed+1, ... in each set) with the command and run length that
BENCHMARK.json names, then prints, per set and end-to-end metric, the
median and quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median. The sets agree when, for every metric,

  * each set's spread is within the metric's bound,
  * the two medians differ by at most the bound, as a share of the
    first, in either direction,
  * the failed share of attempted operations is identical in both sets,

and every run reported correct results. Exit status 0 means they agree.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("steady: run failed (%d): %s" % (out.returncode, " ".join(cmd)))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    agree = True
    for name in names:
        sets = []
        for s in (0, 1):
            runs = [run_once(bench["command"], name, seed, bench["run_seconds"])
                    for seed in seeds]
            sets.append(runs)
        print("== %s" % name)
        if not all(r["correct"] for runs in sets for r in runs):
            print("   some run reported incorrect results")
            agree = False
        shares = [sorted({r["failed"] / r["attempted"] for r in runs})
                  for runs in sets]
        same_share = shares[0] == shares[1] and len(shares[0]) == 1
        print("   failed share per set: %s %s -> %s" % (
            shares[0], shares[1], "same" if same_share else "DIFFERENT"))
        agree = agree and same_share
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][key]["value"] for r in runs])
                     for runs in sets]
            ok = all((q3 - q1) / med <= bound for med, q1, q3 in stats)
            m1, m2 = stats[0][0], stats[1][0]
            moved = abs(m2 - m1) / m1
            ok = ok and moved <= bound
            agree = agree and ok
            print("   %-22s bound %.2f  " % (key, bound) + "  ".join(
                "set%d median %.6g [q1 %.6g, q3 %.6g] spread %.3f" % (
                    i + 1, med, q1, q3, (q3 - q1) / med)
                for i, (med, q1, q3) in enumerate(stats)) +
                "  medians differ by %.3f  %s" % (moved, "ok" if ok else "FAIL"))
    print("sets agree" if agree else "sets DISAGREE")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
