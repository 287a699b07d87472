#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload plan-ibm --seed 1 --seconds 20 --trace 0

Run from the repository root. The binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); scratch files
and traces go to .bench_build/perfbench-run. The last line of standard
output is the JSON result; the exit status is the benchmark's (0 only when
every output check passed).

    python3 perfbench/run.py --workload plan-ibm --make-reference

recomputes a workload's committed reference (perfbench/reference/).
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan-ibm", "serve-b4", "sweep-b4")
DEADLINE_S = 175  # one run, build excluded


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    work_dir = os.path.join(build_root(), "perfbench-run")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.make_reference:
        out = os.path.join(HERE, "reference",
                           args.workload.replace("-", "_") + ".json")
        with open(out, "w") as f:
            code = subprocess.run(cmd + ["--make-reference"], cwd=ROOT,
                                  stdout=f).returncode
        log(f"wrote {out}")
        return code

    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {DEADLINE_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log("no result line")
        return 1
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        log(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
        return 1
    sys.stdout.write(proc.stdout)
    log(f"{args.workload} seed {args.seed}: {time.monotonic() - start:.1f} s, "
        f"exit {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
