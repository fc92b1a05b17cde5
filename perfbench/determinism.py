#!/usr/bin/env python3
"""Checks that the traced run's counts repeat exactly at a given seed.

Usage (from the repository root):

    python3 perfbench/determinism.py [--seed N] [workload ...]

Runs `perfbench/run.py --trace 1` twice per workload (all four by
default) at the same seed and compares every count-type per-layer metric
and every ratio of counts. Later count-based claims rest on these being
exact, so any difference fails the check (exit status 1).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table4", "service-mix", "native-ingest", "dpor-mix")
# Ratios whose numerator and denominator are both counts.
COUNT_RATIOS = ("trace.events_per_batch", "trace.pool_hit_ratio", "systematic.sleep_hit_ratio")


def traced(workload, seed):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                       cwd=ROOT, capture_output=True, text=True, timeout=400)
    if p.returncode != 0:
        sys.exit("determinism: %s seed %d failed:\n%s" % (workload, seed, p.stderr))
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit("determinism: %s seed %d reported failed items" % (workload, seed))
    return res["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", help="any of " + ", ".join(WORKLOADS))
    a = ap.parse_args()
    for w in a.workloads:
        if w not in WORKLOADS:
            ap.error("unknown workload %r" % w)
    a.workloads = a.workloads or list(WORKLOADS)
    bad = 0
    for w in a.workloads:
        first, second = traced(w, a.seed), traced(w, a.seed)
        names = sorted(n for n, m in first.items() if m["unit"] == "count" or n in COUNT_RATIOS)
        for n in names:
            x, y = first[n]["value"], second[n]["value"]
            ok = x == y
            bad += not ok
            print("%-14s %-28s %16.10g %16.10g %s" % (w, n, x, y, "same" if ok else "DIFFERENT"))
    if bad:
        sys.exit("determinism: %d count metric(s) differ between runs at seed %d" % (bad, a.seed))
    print("determinism: every count repeats exactly at seed %d" % a.seed)


if __name__ == "__main__":
    main()
