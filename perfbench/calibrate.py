"""Measure the reference figures in workloads.py on the frozen program.

Run from the root of a checkout:

    python3 perfbench/calibrate.py [--rounds N]

Runs every job of every workload N times on the frozen program (seed slot 0,
one CPU, through reference.py) and times N interpreter set-ups, then prints
the medians as REFERENCE_SECONDS and REFERENCE_SETUP_S.  The figures set the
scale of wall_s and setup_s only; they are measured once, when the benchmark
is defined, and not again.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys

import run

sys.path.insert(0, run.SRC)
import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = [run.time_setup(run.FROZEN) for _ in range(args.rounds)]
    seconds = {}
    for name, jobs in workloads.WORKLOADS.items():
        workdir = os.path.join(run.OUT, f"calibrate-{os.getpid()}")
        worker = harness.ReferenceWorker(name, 0, workdir)
        try:
            times = [[worker.run(i) for i in range(len(jobs))]
                     for _ in range(args.rounds)]
        finally:
            worker.close()
            shutil.rmtree(workdir, ignore_errors=True)
        for i, job in enumerate(jobs):
            seconds[job.name] = round(statistics.median(t[i] for t in times),
                                      4)
    print(f"REFERENCE_SECONDS = {seconds!r}")
    print(f"REFERENCE_SETUP_S = {round(statistics.median(setup), 4)!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
