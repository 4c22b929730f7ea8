#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/collect.py --seeds 0 1 2 3 4 5 6 7 8 9 --seconds 25

Each (workload, seed) pair is one ``run.py`` process, run one at a time.
For every metric this prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median; ``--out`` also writes every run's result object as JSON.
With one seed it simply prints each metric of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fuzz-small", "support-growth", "cli-cold")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=os.path.dirname(HERE),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first quartile, third quartile, and (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result object here")
    args = parser.parse_args(argv)
    runs = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
        runs[workload] = results
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, failed_frac {failed / attempted:.4g} "
              f"({failed} of {attempted} items)")
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            print(f"  {name:<44} median {median:>12.6g} {metric['unit']:<6} "
                  f"q1 {q1:>12.6g}  q3 {q3:>12.6g}  spread {share:.4f}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
