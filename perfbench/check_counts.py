"""Exact-count check: two traced runs with one seed must give equal counts.

Run from the root of a checkout:

    python3 perfbench/check_counts.py [--seed N] [--seconds S] [workload ...]

Every per-layer metric that is not a time (`*_s`) or the tracing overhead is
a count, or is derived from counts and array sizes, and must repeat exactly.
Exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


def traced_counts(workload: str, seed: int, seconds: str) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run was not correct\n"
                         f"{done.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()
            if not k.endswith("_s") and k != "trace.overhead_frac"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("workloads", nargs="*",
                        default=["decouple-grid", "curve-averages",
                                 "chart-quadrature"])
    args = parser.parse_args()
    status = 0
    for wl in args.workloads:
        first = traced_counts(wl, args.seed, args.seconds)
        second = traced_counts(wl, args.seed, args.seconds)
        diff = {k: (first[k], second[k]) for k in first
                if first[k] != second[k]}
        print(f"{wl}: {len(first)} counts, "
              f"{'identical' if not diff else f'differ: {diff}'}")
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
