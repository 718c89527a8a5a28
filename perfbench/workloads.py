"""Workload definitions, the job runner and the correctness gate.

A workload is a fixed list of jobs run closed-loop, one at a time, in one
process.  Every job goes through a public entry point of conewolff:
`cli.main(["run", <config>])` with `OUTPUT_DIR` pointed at a scratch
directory, or `symbol_decomposition.vdc_decay_sweep`, which has no CLI
experiment.  The workload seed selects one of `SLOTS` input sets; each
slot has frozen reference outputs in references.json (written by
freeze.py), so every run is checked against them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

from conewolff import cli, curve_geometry, symbol_decomposition

SLOTS = 16

REL_TOL = 1e-5  # seeded values, as in the acceptance suite
IDENTITY_TOL = 1e-12  # exact identities
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


@dataclass(frozen=True)
class Job:
    """One job: a CLI config template (with `{seed}`) or a decay sweep.

    `checks` maps report fields to a rule: "rel" (REL_TOL against the
    reference), "exact" (equal to the reference) or "identity" (absolute
    value at most IDENTITY_TOL; no reference needed).
    """

    name: str
    checks: dict
    config: str = ""
    sweep: tuple = ()  # (curve spec, kind) for vdc_decay_sweep


def _cli(name, checks, **keys):
    lines = [f"experiment = {name}"]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    lines.append("seed = {seed}")
    return Job(name, checks, config="\n".join(lines) + "\n")


def _sweep(curve, kind):
    return Job(f"vdc-{kind}-{curve}", {"sups": "rel", "slope": "rel"},
               sweep=(curve, kind))


SWEEP_L = 2
SWEEP_K = (8, 10)
SWEEP_N_XI = 2

WORKLOADS = {
    "decouple-grid": (
        _cli("decouple", {"D": "rel", "band_ratio": "rel"},
             generator="circle", n=128, lam=24,
             deltas="0.0625,0.03125,0.015625", trials=1, p=8),
    ),
    "curve-averages": (
        _cli("sobolev", {"ratios": "rel"}, curve="helix(1,1)", n=128,
             k_list="5,6", p=40, alpha=0.025),
        _cli("smoothing", {"ratios": "rel"}, curve="helix(1,1)", n=32,
             k_list="3,4", p=40, alpha=0.025),
        _cli("maximal", {"ratios": "rel"}, curve="helix(0.5,0.5)", n=32),
    ),
    "chart-quadrature": (
        _sweep("helix(0.5,0.5)", "a"),
        _sweep("helix(1,1)", "b"),
        _sweep("twisted_cubic", "atilde"),
        _cli("decompose", {"reconstruction_error": "identity",
                           "piece_count": "exact"},
             curve="helix(1,1)", k=12, samples=150),
        _cli("census", {"reconstruction_error": "identity",
                        "a_vanishing_ok": "exact", "b_vanishing_ok": "exact",
                        "multiplicity_ok": "exact", "max_n_a": "exact",
                        "max_n_b": "exact", "max_multiplicity_a": "exact",
                        "max_multiplicity_b": "exact",
                        "plate_checked": "exact", "plate_failures": "exact"},
             curve="helix(0.5,0.5)", samples=20),
        _cli("umu", {"max_ratio_one": "rel", "max_ratio_two": "rel",
                     "pass": "exact"},
             curve="helix(1,1)", r0=0.0625, samples=1000),
        _cli("geometry", {"kappa_min": "rel", "kappa_max": "rel",
                          "tau_min": "rel", "tau_max": "rel"},
             curve="twisted_cubic", samples=150),
    ),
}


# Seconds each job, and an interpreter's set-up, take on the frozen program
# (perfbench/frozen) at the host speed taken as the reference: medians of
# calibrate.py on the machine described in README.md.  wall_s and setup_s
# are reported at that speed; these figures set their scale and nothing else.
REFERENCE_SECONDS = {
    "decouple": 3.2392,
    "sobolev": 2.6555, "smoothing": 1.7539, "maximal": 0.4161,
    "vdc-a-helix(0.5,0.5)": 0.5927, "vdc-b-helix(1,1)": 0.488,
    "vdc-atilde-twisted_cubic": 1.3645, "decompose": 0.4654,
    "census": 0.5298, "umu": 0.2974, "geometry": 0.4886,
}
REFERENCE_SETUP_S = 0.9789


def slot_of(seed: int) -> int:
    return seed % SLOTS


class JobError(Exception):
    """A job raised, exited non-zero or left no report."""


@dataclass
class Outcome:
    result: dict
    canonical: bytes  # compared byte for byte across repeats of a job
    report_bytes: int  # bytes of the deterministic CLI bundle files


def _curve(spec: str):
    if spec.startswith("helix("):
        a, b = (float(v) for v in spec[6:-1].split(","))
        return curve_geometry.helix(a, b)
    return curve_geometry.benchmark_curve(spec)


def execute(job: Job, seed: int, workdir: str) -> Outcome:
    """Run one job through the public entry point and return its report."""
    if job.sweep:
        spec, kind = job.sweep
        rep = symbol_decomposition.vdc_decay_sweep(
            _curve(spec), kind, SWEEP_L, list(SWEEP_K), n_xi=SWEEP_N_XI,
            seed=seed)
        text = json.dumps(rep, sort_keys=True).encode()
        return Outcome(rep, text, 0)
    cfg = os.path.join(workdir, f"{job.name}-{seed}.cfg")
    if not os.path.exists(cfg):
        with open(cfg, "w") as fh:
            fh.write(job.config.format(seed=seed))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["run", cfg])
    if rc != 0:
        raise JobError(f"{job.name}: conewolff run exited with {rc}")
    run_dir = out.getvalue().strip().splitlines()[-1]
    try:
        with open(os.path.join(run_dir, "report.json"), "rb") as fh:
            text = fh.read()
        size = 0
        for base, _, files in os.walk(run_dir):
            size += sum(os.path.getsize(os.path.join(base, f))
                        for f in files if f != "metadata.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return Outcome(json.loads(text), text, size)


def frozen_fields(job: Job, result: dict) -> dict:
    """The fields of a result that references.json keeps for a job."""
    return {k: result[k] for k, rule in job.checks.items()
            if rule != "identity"}


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=IDENTITY_TOL)
    return False


def problems(job: Job, result: dict, ref: dict) -> list[str]:
    """Every way `result` leaves the job's reference tolerances."""
    out = []
    for key, rule in job.checks.items():
        if key not in result:
            out.append(f"{job.name}: field {key!r} missing")
            continue
        got = result[key]
        if rule == "identity":
            ok = isinstance(got, (int, float)) and abs(got) <= IDENTITY_TOL
        elif rule == "exact":
            ok = got == ref[key] and type(got) is type(ref[key])
        else:
            ok = _close(got, ref[key])
        if not ok:
            want = (f"<= {IDENTITY_TOL}" if rule == "identity"
                    else repr(ref.get(key)))
            out.append(f"{job.name}: {key} = {got!r}, expected {want} "
                       f"({rule})")
    return out


def perturbed(job: Job, ref: dict) -> dict:
    """A copy of `ref` whose first "rel" number is moved by 10x REL_TOL."""
    out = json.loads(json.dumps(ref))
    for key, rule in job.checks.items():
        if rule != "rel":
            continue
        holder, idx = out, key
        while isinstance(holder[idx], (list, dict)):
            holder = holder[idx]
            idx = next(iter(holder)) if isinstance(holder, dict) else 0
        holder[idx] = holder[idx] * (1.0 + 10 * REL_TOL) + 10 * IDENTITY_TOL
        return out
    raise ValueError(f"{job.name} has no relative-tolerance field")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
