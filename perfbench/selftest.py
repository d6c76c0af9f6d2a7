#!/usr/bin/env python3
"""Harness self-test and spread check for the benchmark.

Self-test (default): every workload runs on --runs seeds twice, once
unmodified and once with --inject-slowdown, which stretches every op by
the factor inside the benchmark's op loop; the two runs of a seed follow
each other, in alternating order from seed to seed. The self-test passes
when the median `ops_per_s` of the slowed runs is worse than that of the
unmodified runs by more than its bound in BENCHMARK.json on every
workload, as a comparison of two commits would flag it, and every run
checked correct.

Spread check (--slowdown 0): every workload runs unmodified on --runs
seeds; for each end-to-end metric it prints the median and the spread
(distance between the first and third quartile as a share of the
median) against the metric's bound.

Usage (from the repository root):

    python3 perfbench/selftest.py [--runs 5] [--slowdown 1.2]
                                  [--seconds S] [--workloads a,b] [--seed-base 1000]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, slowdown=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if slowdown:
        cmd += ["--inject-slowdown", str(slowdown)]
    lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run reported correct=false")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    arm = f"slowed x{slowdown}" if slowdown else "unmodified"
    print(f"  {workload} seed {seed} {arm}: "
          + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(base, new, better):
    """Share by which `new` is worse than `base` (negative when better)."""
    change = (new - base) / base
    return -change if better == "higher" else change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--slowdown", type=float, default=1.2)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seed-base", type=int, default=1000)
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    flagged_everywhere = True
    for workload in args.workloads.split(","):
        plain, slowed = [], []
        for i in range(args.runs):
            seed = args.seed_base + i
            if not args.slowdown:
                plain.append(run(workload, seed, args.seconds))
            elif i % 2 == 0:
                plain.append(run(workload, seed, args.seconds))
                slowed.append(run(workload, seed, args.seconds, args.slowdown))
            else:
                slowed.append(run(workload, seed, args.seconds, args.slowdown))
                plain.append(run(workload, seed, args.seconds))
        print(f"== {workload}: {args.runs} seeds from {args.seed_base}, {args.seconds} s each",
              flush=True)
        if args.slowdown:
            for name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
                m = metrics[name]
                base = statistics.median(r[name] for r in plain)
                new = statistics.median(r[name] for r in slowed)
                w = worse_by(base, new, m["better"])
                flagged = w > m["bound"]
                line = (f"  {name:<12} median {base:.5g} -> {new:.5g} slowed, worse by {w:+.3f} "
                        f"(bound {m['bound']}) {'FLAGGED' if flagged else 'not flagged'}")
                if name == "ops_per_s":
                    flagged_everywhere &= flagged
                print(line)
            continue
        for name, m in metrics.items():
            vals = [r[name] for r in plain]
            print(f"  {name:<20} median {statistics.median(vals):<14.6g} "
                  f"spread {spread(vals):6.3f} (bound {m['bound']}, target < {m['bound'] / 3:.3f})")
    if args.slowdown:
        print(f"self-test {'passed' if flagged_everywhere else 'FAILED'}: a {args.slowdown}x "
              f"slowdown {'is flagged on every workload' if flagged_everywhere else 'is missed'}")
        return 0 if flagged_everywhere else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
