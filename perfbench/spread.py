#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's spread: the distance between the first and third quartile of its
values as a share of their median.

    python3 perfbench/spread.py --workloads predict-paper,serve-mixed \
        --seeds 1-10 --out .bench_build/set1.json
    python3 perfbench/spread.py --compare .bench_build/set1.json .bench_build/set2.json

Run from the root of a resmod checkout.  The first form prints, per
workload and metric, the median, the spread and the metric's bound from
BENCHMARK.json; a spread over a third of the bound is flagged.  The second
form checks that no metric's median in the second set is worse than in the
first by more than its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_range(s):
    lo, _, hi = s.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{out.stdout}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def measure(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    results = {}
    for w in args.workloads.split(","):
        runs = []
        for seed in parse_range(args.seeds):
            runs.append(run_once(bench, w, seed, seconds))
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(runs[-1].items())),
                  flush=True)
        results[w] = runs
        for name, bound in bounds.items():
            med, sp = spread([r[name] for r in runs])
            flag = "" if sp <= bound / 3 or name == "setup_s" else "  <-- over a third of the bound"
            print(f"  {w:16s} {name:14s} median {med:10.4g} spread {sp:7.2%} bound {bound:.0%}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)


def compare(paths, bench):
    sets = []
    for p in paths:
        with open(p) as f:
            sets.append(json.load(f))
    ok = True
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for w in sets[0]:
            a = statistics.median(r[name] for r in sets[0][w])
            b = statistics.median(r[name] for r in sets[1][w])
            worse = (b - a) / a if lower else (a - b) / a
            bad = worse > bound
            ok &= not bad
            print(f"{w:16s} {name:14s} {a:10.4g} -> {b:10.4g} worse by {worse:7.2%} (bound {bound:.0%})"
                  + ("  <-- REGRESSION" if bad else ""))
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    bench = load_benchmark()
    if args.compare:
        sys.exit(0 if compare(args.compare, bench) else 1)
    if not args.workloads:
        args.workloads = ",".join(w["name"] for w in bench["workloads"])
    measure(args, bench)


if __name__ == "__main__":
    main()
