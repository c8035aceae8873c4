#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of one commit, alternated.

Run from the root of a checkout:

    python3 perfbench/steady.py --runs 5 [--workloads profile,eval-warm]

For each workload it makes --runs pairs of runs, one run of set A and one of
set B per pair, alternating which set runs first and giving every run its
own seed. It then prints, per workload and end-to-end metric:

  * each set's median and quartiles (statistics.quantiles, n=4);
  * the spread of all runs together: the interquartile distance as a share
    of the median, against the metric's bound (and a third of it);
  * whether the two sets' medians agree within the metric's bound.

Every run's result line is appended to .bench_build/steady/<time>.jsonl.
Exits non-zero if a run fails or reports incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"steady.py: {workload} seed {seed} exited {out.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"steady.py: {workload} seed {seed} reported incorrect output")
    return res


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5, help="runs per set (>= 2)")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    log_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(log_dir, exist_ok=True)
    log = open(os.path.join(log_dir, time.strftime("%Y%m%d-%H%M%S") + ".jsonl"), "a")
    metrics = bench["end_to_end"]
    all_ok = True
    seed = args.first_seed
    for wl in args.workloads.split(","):
        sets = {"A": [], "B": []}
        fails = {"A": [], "B": []}
        for i in range(args.runs):
            for name in ("AB" if i % 2 == 0 else "BA"):
                res = run_once(bench["command"], wl, seed, args.seconds)
                log.write(json.dumps({"workload": wl, "set": name, "seed": seed, "result": res}) + "\n")
                log.flush()
                sets[name].append(res)
                fails[name].append(res["failed"] / res["attempted"])
                seed += 1
        print(f"== {wl}: {args.runs} runs per set, {args.seconds} s each")
        print(f"   failed share  A {sorted(set(fails['A']))}  B {sorted(set(fails['B']))}")
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in sets["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            q1, med, q3 = quartiles(a + b)
            spread = (q3 - q1) / med
            worse = (qb[1] - qa[1]) / qa[1]
            if m["better"] == "higher":
                worse = -worse
            bound = m["bound"]
            agree = abs(worse) <= bound
            steady = m["name"] == "setup_s" or spread <= bound
            all_ok &= agree and steady
            print(f"   {m['name']:<12} A {qa[1]:10.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
                  f"  B {qb[1]:10.4f} [{qb[0]:.4f}, {qb[2]:.4f}] {m['unit']}"
                  f"  spread {spread:6.1%} (bound {bound:.0%}, third {bound / 3:.1%})"
                  f"  B vs A {worse:+6.1%} {'agree' if agree else 'DISAGREE'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
