#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

The spread is the distance between the first and third quartile of the
per-run values (statistics.quantiles(values, n=4)), as a share of their
median -- the figure BENCHMARK.json's bounds are checked against.

Run from the repository root:

    python3 e2e_bench/spread.py cold_int8 --runs 10 --seconds 45 --trace 0
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "e2e_bench/Cargo.toml", "--"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", default="45")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.time()
        run = subprocess.run(
            COMMAND + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.time() - start:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        runs = " ".join(f"{v:.4g}" for v in vals)
        print(f"{name:32s} median {median:14.4f}  spread {spread:7.4f}  runs {runs}")


if __name__ == "__main__":
    main()
