"""Reference worker: runs a workload's jobs on the frozen copy of conewolff.

`frozen/conewolff` is the program as it was when this benchmark was defined.
run.py starts this worker on the same CPU and, before each job it times,
asks the worker to run the same job, so that both times are taken under the
same host speed.  Protocol: one job index per line on standard input; one
line back per job, the job's seconds as a float or `error <message>` if the
frozen program's output left its reference tolerance.  The worker ends at
the end of its input.

    python3 perfbench/reference.py <workload> <seed slot> <scratch dir>
"""

from __future__ import annotations

import os
import sys
import time

FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen")


def main() -> int:
    workload, slot, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    reply = sys.stdout
    sys.stdout = sys.stderr  # only protocol lines go to the parent
    sys.path.insert(0, FROZEN)
    import conewolff
    import workloads

    if not os.path.abspath(conewolff.__file__).startswith(FROZEN + os.sep):
        print(f"error: imported conewolff from {conewolff.__file__}",
              file=sys.stderr)
        return 2
    jobs = workloads.WORKLOADS[workload]
    refs = workloads.load_references()[workload][str(slot)]
    os.environ["OUTPUT_DIR"] = workdir
    for line in sys.stdin:
        job = jobs[int(line)]
        t0 = time.perf_counter()
        try:
            out = workloads.execute(job, slot, workdir)
            bad = workloads.problems(job, out.result, refs[job.name])
        except Exception as exc:  # reported to the parent, which fails
            bad = [f"{job.name}: {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        reply.write(f"error {bad[0]}\n" if bad else f"{elapsed!r}\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
