"""conewolff benchmark: one workload per process, one job at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decouple-grid --seed 0 \
        --seconds 30 --trace 0

The process and its children run on one CPU.  With `--trace 0` it prints
the end-to-end metrics (wall_s, setup_s, peak_rss_mb); each job and each
set-up is paired with the same work on the frozen program in
perfbench/frozen, and times are reported at the host speed at which the
frozen program takes workloads.REFERENCE_SECONDS.  With `--trace 1` it
alternates untraced and traced passes and prints the per-layer metrics plus
trace.overhead_frac.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
Every job is checked against the frozen references of its seed slot, against
its own first run in the process (byte-identical report), and the gate is
itself checked once per run against a perturbed reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 3
# a fresh interpreter up to the point where the first job could start
SETUP_CODE = ("import sys, time; sys.path.insert(0, {src!r}); "
              "import conewolff.cli; print(repr(time.monotonic()))")


def time_setup(src: str) -> float:
    """Seconds from spawning an interpreter to `src`'s conewolff being
    imported."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(src=src)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip()) - t0


def measure_setup(reference_s: float) -> float:
    """Set-up time at the reference host speed: the median over repeats of
    the checkout's set-up time over the frozen program's, timed next to it
    (first and second in turn), times the frozen program's set-up time at
    that speed."""
    ratios = []
    for i in range(SETUP_REPEATS):
        pair = (SRC, FROZEN) if i % 2 else (FROZEN, SRC)
        times = {src: time_setup(src) for src in pair}
        ratios.append(times[SRC] / times[FROZEN])
    return statistics.median(ratios) * reference_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "conewolff", "cli.py")) \
            or not os.path.isfile(spec_path):
        print(f"error: run from a conewolff checkout; no src/conewolff or "
              f"BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    # one CPU for this process and its children: a second busy thread on
    # two shared vCPUs measures the hypervisor's scheduling, not the program
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import conewolff
    import harness
    import workloads
    from tracing import Tracer

    if not os.path.abspath(conewolff.__file__).startswith(SRC + os.sep):
        print(f"error: imported conewolff from {conewolff.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    slot = workloads.slot_of(args.seed)
    jobs = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()[args.workload][str(slot)]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir)
    os.environ["OUTPUT_DIR"] = workdir
    tracer = Tracer()
    reference = None
    try:
        if not args.trace:
            setup_s = measure_setup(workloads.REFERENCE_SETUP_S)
            reference = harness.ReferenceWorker(
                args.workload, slot, workdir + "-reference")
        runner = harness.Runner(jobs, slot, refs, workdir, tracer, reference)
        if args.trace:
            summaries = harness.run_traced(runner, args.seconds)
            spans = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write_spans(spans)
            print(f"spans of the last traced pass: {spans}", file=sys.stderr)
            values, steady = harness.layer_metrics(runner, summaries)
            wanted = spec["per_layer"]
        else:
            harness.run_untraced(runner, args.seconds)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            values = {"wall_s": runner.scaled_wall(),
                      "setup_s": setup_s,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}
            steady = True
            wanted = spec["end_to_end"]
    finally:
        if reference is not None:
            reference.close()
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-reference", ignore_errors=True)

    for err in runner.errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    gate_ok = runner.gate_can_fail()
    if not gate_ok:
        print("error: gate accepted a perturbed reference", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"workload {args.workload} seed {args.seed} (slot {slot}), "
          f"{runner.attempted} jobs")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  (wall_s unscaled = {runner.wall(0):.6g} s; host speed "
              f"{runner.speed():.4g} of the reference speed)")
    else:
        print(f"  (wall_s untraced = {runner.wall(0):.6g} s, "
              f"traced = {runner.wall(1):.6g} s)")
    print(f"  failed_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted})")
    print(json.dumps({
        "correct": runner.failed == 0 and gate_ok and steady,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
