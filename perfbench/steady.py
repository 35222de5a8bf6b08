#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and prints the spread.

    python3 perfbench/steady.py                       # 10 seeds, every workload
    python3 perfbench/steady.py --workloads churn --seeds 5
    python3 perfbench/steady.py --sets 2              # two sets, compare medians

For every end-to-end metric of BENCHMARK.json it prints the median and the
quartiles (statistics.quantiles(values, n=4)) over the runs, the spread
(Q3 - Q1) / median, and the metric's bound. A spread above a third of the
bound is marked; setup_s is exempt from that mark, as its bound governs only
the drift of its median. With --sets 2 the second set uses fresh seeds and
the medians of the two sets are compared against the bounds. Every run must
exit 0 with a correct result and the same share of failed operations. Raw
results go to --out (JSON) when given. Run from the root of a source tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    raw = {}
    ok = True
    for workload in workloads:
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.seeds,
                          args.first_seed + (s + 1) * args.seeds)
            results = []
            for seed in seeds:
                r = run_once(workload, seed, seconds)
                if r is None or not r["correct"]:
                    print("%s seed %d: failed run" % (workload, seed))
                    ok = False
                    continue
                results.append(r)
                print("%s seed %d: %s" % (workload, seed, " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in r["metrics"].items())), flush=True)
            raw["%s/set%d" % (workload, s + 1)] = results
            shares = {r["failed"] / r["attempted"] for r in results}
            if len(shares) > 1:
                print("%s: failed share differs between runs: %s" %
                      (workload, sorted(shares)))
                ok = False

    print()
    print("%-13s %-15s %5s %12s %12s %12s %8s %7s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread", "bound"))
    for workload in workloads:
        medians = {}
        for s in range(args.sets):
            results = raw.get("%s/set%d" % (workload, s + 1), [])
            if len(results) < 2:
                continue
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                med, q1, q3, spread = summarize(values)
                medians.setdefault(m["name"], []).append(med)
                mark = ""
                if m["name"] != "setup_s" and spread > m["bound"] / 3:
                    mark = "  <- spread above bound/3"
                    ok = ok and spread <= m["bound"]
                print("%-13s %-15s %5d %12.6g %12.6g %12.6g %7.2f%% %6.0f%%%s"
                      % (workload, m["name"], s + 1, med, q1, q3,
                         spread * 100, m["bound"] * 100, mark))
        if args.sets == 2:
            for m in metrics:
                pair = medians.get(m["name"], [])
                if len(pair) != 2 or not pair[0]:
                    continue
                drift = (pair[1] - pair[0]) / pair[0]
                worse = -drift if m["better"] == "higher" else drift
                flag = "  <- worse than bound" if worse > m["bound"] else ""
                ok = ok and worse <= m["bound"]
                print("%-13s %-15s drift between sets %+.2f%%%s" % (
                    workload, m["name"], drift * 100, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
