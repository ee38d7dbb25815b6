#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The first run configures and builds
perfbench (the library from src/ plus the benchmark) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
rebuild incrementally.  The benchmark's last stdout line is one JSON
object with "correct", "attempted", "failed" and "metrics".
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mixed", "hits")
# Only the serve steps grow with --seconds (about 1.2 s per second of
# --seconds in a traced run, plus drains); the rest takes a fixed time.
RUN_TIMEOUT_FIXED_S = 120
RUN_TIMEOUT_PER_SECOND = 2
BUILD_JOBS = "4"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out):
    tree = out / "perfbench"
    log = out / "perfbench-build.log"
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "-j", BUILD_JOBS])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log}")
    return tree / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")
    if not (ROOT / "src" / "core" / "sweep.hh").exists():
        fail(f"no LLL sources under {ROOT / 'src'}")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--root", str(ROOT), "--work", str(out / "work"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = RUN_TIMEOUT_FIXED_S + RUN_TIMEOUT_PER_SECOND * args.seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    want = expected_metrics(args.trace)
    got = set(result["metrics"])
    # An incorrect run may stop before some phases report; its result
    # still goes out so the failure is visible.
    if result["correct"] and got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}"
             f", extra {sorted(got - want)}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
