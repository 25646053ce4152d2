#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every metric it prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.

Usage, from the repository root:
    python3 perfbench/spread.py --workload churn-microloop --seeds 1-5
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for s in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(s),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        res = json.loads(last)
        if not res["correct"]:
            sys.exit(f"seed {s}: output checks failed\n{out.stdout}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {s}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    print(f"{'metric':40} {'median':>14} {'iqr/median':>10} {'bound':>6}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        print(f"{name:40} {med:14.6g} {spread:10.4f} {'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
