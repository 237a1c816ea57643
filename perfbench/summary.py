#!/usr/bin/env python3
"""Run every workload once and print its metrics in one table.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 the table has every end-to-end metric with its unit plus
error_rate (failed / attempted op runs); with --trace 1 it has the per-layer
self times, the tracing overhead and whether the dominant layer is the one
the workload was built to stress.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name} (seed {args.seed}) correct={result['correct']}")
        for metric, m in result["metrics"].items():
            if args.trace and m["value"] == 0:
                continue
            print(f"  {metric:46s} {m['value']:12.6g} {m['unit']}")
        print(f"  {'error_rate':46s} {result['failed'] / result['attempted']:12.6g} "
              f"ratio ({result['failed']} of {result['attempted']} op runs)")
        for line in lines[:-1]:
            if line.startswith(("dominant layer", "FAILED")):
                print(f"  {line}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
