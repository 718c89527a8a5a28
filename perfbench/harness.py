"""Closed-loop job loops, timing and metric folding for one workload run."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


class ReferenceWorker:
    """The frozen program in a child process (reference.py), on the same
    CPU, running one job at a time when asked."""

    def __init__(self, workload: str, slot: int, workdir: str):
        os.makedirs(workdir)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reference.py"), workload,
             str(slot), workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, index: int) -> float:
        """Seconds the frozen program took for job `index`, verified."""
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line or line.startswith("error"):
            raise RuntimeError(f"reference worker failed: {line.strip()!r}")
        return float(line)

    def close(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs jobs, times them per mode and keeps the correctness tally.

    With a `reference` worker, every untraced job is paired with the same
    job on the frozen program, run next to it, and the pair's times are
    kept together."""

    def __init__(self, jobs, seed, refs, workdir, tracer, reference=None):
        self.jobs, self.seed, self.refs = jobs, seed, refs
        self.workdir, self.tracer = workdir, tracer
        self.reference = reference
        self.times = {mode: {j.name: [] for j in jobs} for mode in (0, 1)}
        self.ref_times = {j.name: [] for j in jobs}
        self.canonical: dict = {}
        self.first_result: dict = {}
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def run_job(self, job, traced: bool):
        # the frozen program runs before the job on even runs of it and
        # after it on odd ones, so a drift in host speed favours neither
        paired = self.reference is not None and not traced
        ref = self.ref_times[job.name]
        if paired and len(ref) % 2 == 0:
            ref.append(self.reference.run(self.jobs.index(job)))
        self.attempted += 1
        out = None
        t0 = time.perf_counter()
        try:
            if traced:
                out = self.tracer.span(f"job.{job.name}", workloads.execute,
                                       job, self.seed, self.workdir)
            else:
                out = workloads.execute(job, self.seed, self.workdir)
            bad = workloads.problems(job, out.result, self.refs[job.name])
        except Exception as exc:  # a failing job is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            bad = [f"{job.name}: {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        if out is not None:
            first = self.canonical.setdefault(job.name, out.canonical)
            if out.canonical != first:
                bad.append(f"{job.name}: report differs from its first run")
            self.first_result.setdefault(job.name, out.result)
            if traced:
                self.tracer.counts["cli.report_bytes"] += out.report_bytes
        if bad:
            self.failed += 1
            self.errors.extend(bad)
        self.times[int(traced)][job.name].append(elapsed)
        if paired and len(ref) < len(self.times[0][job.name]):
            ref.append(self.reference.run(self.jobs.index(job)))

    def wall(self, mode: int) -> float:
        """One pass of the workload: the sum over jobs of the median time of
        the job's verified runs in this mode."""
        return sum(statistics.median(t) for t in self.times[mode].values())

    def speed(self) -> float:
        """Host speed relative to the reference speed, as the frozen
        program measured it: the median over all untraced pairs."""
        return statistics.median(
            workloads.REFERENCE_SECONDS[name] / r
            for name, ref in self.ref_times.items() for r in ref)

    def scaled_wall(self) -> float:
        """One untraced pass at the reference host speed: per job, the
        median over its runs of its time over the frozen program's time
        next to it, times the frozen program's time at that speed."""
        return sum(
            statistics.median(t / r for t, r in zip(self.times[0][name], ref))
            * workloads.REFERENCE_SECONDS[name]
            for name, ref in self.ref_times.items())

    def gate_can_fail(self) -> bool:
        """The gate must reject a reference moved by 10x its tolerance."""
        for job in self.jobs:
            if job.name in self.first_result and "rel" in job.checks.values():
                ref = workloads.perturbed(job, self.refs[job.name])
                return bool(workloads.problems(
                    job, self.first_result[job.name], ref))
        return False


def run_untraced(runner: Runner, seconds: float):
    """Round-robin over the jobs until the next one, with its frozen pair,
    would pass the deadline."""
    deadline = time.perf_counter() + seconds
    jobs, i = runner.jobs, 0
    while True:
        job = jobs[i % len(jobs)]
        last = runner.times[0][job.name][-1:] + runner.ref_times[job.name][-1:]
        if i >= len(jobs) and time.perf_counter() + sum(last) > deadline:
            return
        runner.run_job(job, False)
        i += 1


def run_traced(runner: Runner, seconds: float) -> list[dict]:
    """Alternate untraced and traced passes; one summary per traced pass."""
    deadline = time.perf_counter() + seconds
    pass_s = [0.0, 0.0]
    summaries = []
    n = 0
    while True:
        mode = n % 2
        if n >= 2 and time.perf_counter() + pass_s[mode] > deadline:
            return summaries
        t0 = time.perf_counter()
        if mode:
            runner.tracer.reset()
            runner.tracer.install()
        try:
            for job in runner.jobs:
                runner.run_job(job, bool(mode))
        finally:
            runner.tracer.uninstall()
        if mode:
            summaries.append(runner.tracer.summary())
        pass_s[mode] = time.perf_counter() - t0
        n += 1


def layer_metrics(runner: Runner, summaries: list[dict]) -> tuple[dict, bool]:
    """Median times over traced passes; counts must repeat exactly."""
    out, steady = {}, True
    for name in summaries[0]:
        values = [s[name] for s in summaries]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                print(f"count {name} differs between traced passes: "
                      f"{values}", file=sys.stderr)
                steady = False
    untraced = runner.wall(0)
    out["trace.overhead_frac"] = (runner.wall(1) - untraced) / untraced
    return out, steady
