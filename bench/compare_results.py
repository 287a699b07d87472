#!/usr/bin/env python3
"""Prints per-key deltas between two BENCH_*.json results.

    python3 bench/compare_results.py bench/results/phase1_build_ibm_before_assembly.json \\
        bench/results/phase1_build_ibm_after_assembly.json

Each file is one bench binary's JSON object (bench/bench_json.h; nested
objects are flattened to dotted keys). For every key in either file it
prints A's value, B's value and, for numbers, B - A and the change as a
share of A. Keys in only one file are marked, so a bench that gained a
stage timing shows which figures have no "before". Wall-clock keys end in
_ms; whether lower is better is for the reader to judge, so the script
only reports and always exits 0 (2 on a usage or read error).
"""
import json
import sys


def flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from flatten(inner, f"{prefix}.{key}" if prefix else key)
    else:
        yield prefix, value


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def fmt(value):
    if value is None:
        return "-"
    if is_number(value):
        return f"{value:.6g}"
    return str(value)


def main(argv):
    if len(argv) != 3:
        print("usage: compare_results.py A.json B.json", file=sys.stderr)
        return 2
    try:
        sides = []
        for path in argv[1:]:
            with open(path) as f:
                sides.append(dict(flatten(json.load(f))))
    except (OSError, ValueError) as err:
        print(f"compare_results: {err}", file=sys.stderr)
        return 2
    a, b = sides
    keys = list(a) + [k for k in b if k not in a]
    width = max([len(k) for k in keys] + [3])
    print(f"{'key':<{width}}  {'A':>14}  {'B':>14}  {'B - A':>12}  {'change':>8}")
    for key in keys:
        va, vb = a.get(key), b.get(key)
        delta = change = ""
        if key not in a:
            change = "only B"
        elif key not in b:
            change = "only A"
        elif is_number(va) and is_number(vb):
            delta = f"{vb - va:+.6g}"
            change = f"{(vb - va) / abs(va):+.1%}" if va else ""
        elif va != vb:
            change = "differs"
        print(f"{key:<{width}}  {fmt(va):>14}  {fmt(vb):>14}  {delta:>12}  {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
