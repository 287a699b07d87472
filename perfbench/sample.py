#!/usr/bin/env python3
"""Runs the benchmark over several seeds and saves one result file per run.

    python3 perfbench/sample.py --out perfbench/results/baseline --seeds 1-10

writes <out>/<workload>/seed-<n>.json (the run's JSON result line; traced
runs go to trace-seed-<n>.json) and prints, per (workload, metric), the
median and the quartile spread as a share of the median — the figure
BENCHMARK.json's bounds are compared against. Runs go one at a time, so
they do not compete for cores.
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
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """Interquartile distance as a share of the median (0 for one value)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    failed = False
    for workload in args.workloads.split(","):
        rows = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                failed = True
            try:
                result = json.loads(last)
            except ValueError:
                print(f"{workload} seed {seed}: no result", file=sys.stderr)
                failed = True
                continue
            directory = os.path.join(args.out, workload)
            os.makedirs(directory, exist_ok=True)
            name = f"{'trace-' if args.trace else ''}seed-{seed}.json"
            with open(os.path.join(directory, name), "w") as f:
                f.write(json.dumps(result, sort_keys=True) + "\n")
            rows.append(result)
        if not rows:
            continue
        print(f"{workload}: {len(rows)} runs")
        for metric in sorted(rows[0]["metrics"]):
            values = [r["metrics"][metric]["value"] for r in rows]
            med, rel = spread(values)
            unit = rows[0]["metrics"][metric]["unit"]
            print(f"  {metric:32s} median {med:14.6g} {unit:6s} spread {rel:7.2%}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
