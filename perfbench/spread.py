#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --seeds 10

For every workload in BENCHMARK.json it runs `perfbench/run.py` once per
seed 1..N, then prints per end-to-end metric the median, the first and
third quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median,
and the metric's bound; finally the share of failed operations. This is the command that regenerates the reference figures in
perfbench/README.md. Raw results are appended to
<build dir>/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    os.makedirs(out_dir, exist_ok=True)
    status = 0
    for workload in workloads:
        results = []
        raw_path = os.path.join(out_dir, f"spread-{workload}.jsonl")
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(last[0])
            results.append(result)
            with open(raw_path, "a") as f:
                f.write(json.dumps({"seed": seed, **result}) + "\n")
        if len(results) < 2:
            continue
        print(f"{workload}: {len(results)} runs")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {m['name']:32s} {median:14.6g} {m['unit']:9s} "
                  f"Q1 {q1:.6g} Q3 {q3:.6g} spread {spread:.4f} "
                  f"bound {m['bound']}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share per run: {sorted(shares)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
