#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 e2ebench/spread.py --workload serve --seeds 1-10 [--seconds 10]
        [--trace 0] [--save runs.json] [--against earlier.json]

For every metric it prints the median, the first and third quartile
(Python's statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json. A
spread above a third of the bound is flagged. --save writes the raw
values; --against compares this set's medians with a saved set and
flags a metric whose median got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    """Median, first and third quartile, and spread (q3 - q1) / median
    of one metric's values across runs, as the run-to-run check
    computes them. One value has no spread (0); a zero median has an
    undefined one (NaN)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return med, q1, q3, spread


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    better = {m["name"]: m["better"] for m in bench[section]}

    values = {}
    for seed in parse_seeds(args.seeds):
        result, took = run_once(args.workload, seed, seconds, args.trace)
        flag = "" if result["correct"] else "  NOT CORRECT"
        print(f"seed {seed}: {took:.1f} s, {result['failed']}/{result['attempted']} failed{flag}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med, q1, q3, spread = summarize(vals)
        bound = bounds.get(name)
        note = ""
        if bound is not None and spread > bound / 3:
            note = "  spread above bound/3"
        if name in earlier and bound is not None:
            before = statistics.median(earlier[name])
            worse = (med - before) / abs(before) if before else 0.0
            if better.get(name) == "higher":
                worse = -worse
            note += f"  vs saved median {before:.4g}: {worse:+.3f}"
            if worse > bound:
                note += " WORSE THAN BOUND"
        print(f"{name:<34} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
              f"{bound if bound is not None else '':>6}{note}")
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))


if __name__ == "__main__":
    main()
