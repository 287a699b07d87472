#!/usr/bin/env python3
"""Compares two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds <workload>/seed-<n>.json result files, as written by
perfbench/sample.py. For every (workload, end-to-end metric) it prints each
side's median and quartiles, the change in the metric's worse direction as a
share of the parent's median, and a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  a side's quartile spread exceeds the bound, so the runs cannot
              tell a change of that size from noise — unless every change
              run is better than every parent run (then improved);
  improved    better by more than the parent's own spread, and better on at
              least 9 of every 10 seeds both sides ran;
  unchanged   none of the above: within the bound.

Exits 1 when any row regressed or either side had an incorrect run.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(directory, workload):
    runs = {}
    for path in glob.glob(os.path.join(directory, workload, "seed-*.json")):
        seed = int(os.path.basename(path)[len("seed-"):-len(".json")])
        with open(path) as f:
            runs[seed] = json.load(f)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, better, bound, paired):
    """parent/change: {seed: value}. Returns (worse_share, verdict)."""
    p_lo, p_med, p_hi = quartiles(list(parent.values()))
    c_lo, c_med, c_hi = quartiles(list(change.values()))
    sign = 1.0 if better == "lower" else -1.0
    base = abs(p_med) or 1.0
    worse = sign * (c_med - p_med) / base
    p_spread = (p_hi - p_lo) / base
    c_spread = (c_hi - c_lo) / (abs(c_med) or 1.0)
    all_better = all(sign * (c - p) < 0 for c in change.values() for p in parent.values())
    if max(p_spread, c_spread) > bound:
        return worse, "improved" if all_better else "unresolved"
    if worse > bound:
        return worse, "regressed"
    wins = sum(1 for s in paired if sign * (change[s] - parent[s]) < 0)
    if -worse > p_spread and paired and wins >= 0.9 * len(paired):
        return worse, "improved"
    return worse, "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir = sys.argv[1], sys.argv[2]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bad = False
    print(f"{'workload':10s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'worse':>8s}  verdict")
    for w in spec["workloads"]:
        parent, change = load(parent_dir, w["name"]), load(change_dir, w["name"])
        if not parent or not change:
            print(f"{w['name']:10s} (no runs on {'parent' if not parent else 'change'} side)")
            continue
        for side, runs in (("parent", parent), ("change", change)):
            wrong = sorted(s for s, r in runs.items() if not r["correct"])
            if wrong:
                print(f"{w['name']:10s} {side} runs incorrect for seeds {wrong}")
                bad = True
        paired = sorted(set(parent) & set(change))
        for m in spec["end_to_end"]:
            name = m["name"]
            p = {s: r["metrics"][name]["value"] for s, r in parent.items()}
            c = {s: r["metrics"][name]["value"] for s, r in change.items()}
            worse, v = verdict(p, c, m["better"], m["bound"], paired)
            bad = bad or v == "regressed"
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"  # noqa: E731
            print(f"{w['name']:10s} {name:12s} {fmt(quartiles(list(p.values()))):>34s} "
                  f"{fmt(quartiles(list(c.values()))):>34s} {worse:+8.2%}  {v}"
                  f" (bound {m['bound']:.0%}, {m['unit']})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
