"""Batch front-end: config-driven experiment dispatch and report writing.

`conewolff run <config>` parses a plain key=value config, validates the
scale constraints, dispatches one named experiment across the library
modules, and writes `<outdir>/<experiment>-<timestamp>/` containing a
deterministic `report.json` (same config + seed => byte-identical), a
`data.csv`, log-log SVG plots, the echoed config, and a `metadata.json`
holding the wall-clock information and the config's unknown keys, both
deliberately kept out of the report.  `conewolff list` prints the
experiment catalogue; `conewolff selftest` runs a quick suite of exact
identities.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cone_plates as cp
from . import curve_geometry as cg
from . import operator_lab as ol
from . import scale_induction as si
from . import symbol_decomposition as sd
from .errors import ConewolffError, ConfigError

EXPERIMENTS = (
    ("geometry", "curve samples", "moving-frame curvature/torsion sweep",
     "§3"),
    ("plates", "generator deltas lam theta sigma", "cone plate family build",
     "§2"),
    ("decompose", "curve k samples", "dyadic symbol split + reconstruction",
     "§3"),
    ("umu", "curve r0 samples M", "critical-phase approximation bounds",
     "§4"),
    ("census", "curve samples", "two-scale support census", "§4"),
    ("schedule", "p eps k eps0 M", "exponent and radius schedules", "§5"),
    ("decouple", "generator p deltas lam theta trials n L",
     "plate decoupling ratios", "§2"),
    ("sobolev", "curve p alpha k_list n L", "fixed-time regularity sweep",
     "§3"),
    ("smoothing", "curve p alpha k_list n", "space-time regularity probe",
     "§5"),
    ("maximal", "curve n L", "sampled dilation-maximal norms", "§6"),
    ("helix2", "samples L", "two-parameter helix family checks", "§6"),
)
_NAMES = tuple(e[0] for e in EXPERIMENTS)


@dataclass
class Config:
    """Parsed experiment configuration with defaulted scale parameters."""

    experiment: str
    curve: str = "helix(0.5,0.5)"
    generator: str = "circle"
    k: int = 10
    deltas: tuple = (2.0**-4, 2.0**-5)
    theta: float = 1.0
    sigma: Optional[float] = None
    lam: float = 24.0
    p: float = 8.0
    eps: float = 0.1
    eps0: float = 0.3
    M: float = 10.0
    r0: float = 2.0**-4
    alpha: float = 0.025
    k_list: tuple = (4, 5)
    n: int = 64
    L: float = 8.0
    trials: int = 2
    samples: int = 300
    seed: int = 0
    outdir: str = "reports"
    raw_text: str = ""
    extras: dict = field(default_factory=dict)


_INT_KEYS = {"k", "n", "trials", "samples", "seed"}
_FLOAT_KEYS = {"theta", "sigma", "lam", "p", "eps", "eps0", "M", "r0",
               "alpha", "L"}
_LIST_FLOAT_KEYS = {"deltas"}
_LIST_INT_KEYS = {"k_list"}
_STR_KEYS = {"experiment", "curve", "generator", "outdir"}


def _finite_float(val: str) -> float:
    x = float(val)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {val!r}")
    return x


def parse_config(text: str) -> Config:
    """Parse key=value lines ('#' comments, optional [section] headers).

    Unknown keys are kept in `extras` and each is warned about on stderr.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got "
                              f"{line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = _finite_float(val)
            elif key in _LIST_FLOAT_KEYS:
                values[key] = tuple(_finite_float(v) for v in val.split(",")
                                    if v)
            elif key in _LIST_INT_KEYS:
                values[key] = tuple(int(v) for v in val.split(",") if v)
            elif key in _STR_KEYS:
                values[key] = val
            else:
                # kept for callers that read extras, but no experiment uses
                # it, so a typo such as k_lst is named rather than ignored
                values.setdefault("extras", {})[key] = val
                print(f"warning: line {lineno}: unknown config key {key!r} "
                      "is ignored", file=sys.stderr)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from None
    if "experiment" not in values:
        raise ConfigError("missing required field 'experiment'")
    if values["experiment"] == "plates" and len(values.get("deltas", ())) > 1:
        raise ConfigError("field 'deltas': plates builds one family, so it "
                          f"takes one delta, not {len(values['deltas'])}")
    cfg = Config(raw_text=text, **values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: Config) -> None:
    if cfg.experiment not in _NAMES:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; "
                          f"choices: {_NAMES}")
    for key in ("deltas", "k_list"):
        if not getattr(cfg, key):
            raise ConfigError(f"field {key!r} must list at least one value")
    for delta in cfg.deltas:
        if not (0.0 < delta <= 1.0):
            raise ConfigError(f"delta {delta} outside (0, 1]")
        root = math.sqrt(delta)
        sigma = cfg.sigma if cfg.sigma is not None else root
        if sigma > root + 1e-12:
            raise ConfigError(
                f"separation sigma={sigma} exceeds sqrt(delta)={root}")
        if root > cfg.theta + 1e-12:
            raise ConfigError(
                f"sqrt(delta)={root} exceeds window theta={cfg.theta}")
    if cfg.n < 2 or (cfg.n & (cfg.n - 1)) != 0:
        raise ConfigError(f"grid size n={cfg.n} is not a power of two")
    if cfg.trials < 1 or cfg.samples < 1:
        raise ConfigError("trials and samples must be positive")
    for key in ("eps", "eps0", "M", "L", "r0", "sigma"):
        if getattr(cfg, key) is not None and getattr(cfg, key) <= 0.0:
            raise ConfigError(
                f"field {key!r} must be positive, got {getattr(cfg, key)}")
    if cfg.p < 1.0:
        raise ConfigError(f"field 'p' must be at least 1, got {cfg.p}")
    if not 0.0 <= cfg.alpha <= 1.0:
        raise ConfigError(f"field 'alpha' must lie in [0, 1], got {cfg.alpha}")
    _helix_args(cfg.curve)


def _helix_args(spec: str):
    """[a, b] of a helix(a, b) spec (finite, not both 0), None for a name."""
    name, paren, rest = spec.strip().partition("(")
    if not paren:
        return None
    try:
        args = [float(v) for v in rest.rstrip(")").split(",") if v.strip()]
    except ValueError:
        args = []
    if name.strip() != "helix" or len(args) != 2 or args == [0.0, 0.0] \
            or not all(math.isfinite(v) for v in args):
        raise ConfigError(f"field 'curve': cannot parse {spec!r}; a curve is "
                          "a name or helix(a, b), a and b finite, not both 0")
    return args


def _parse_curve(spec: str) -> cg.Curve:
    args = _helix_args(spec)
    if args is None:
        return cg.benchmark_curve(spec.strip())
    return cg.helix(*args)


def _parse_generator(spec: str) -> cg.Curve:
    gens = {"circle": cg.unit_circle_generator,
            "parabola": cg.parabola_generator}
    if spec not in gens:
        raise ConfigError(f"unknown generator {spec!r}; choices: "
                          f"{sorted(gens)}")
    return gens[spec]()


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _svg_line_plot(xs, ys, title: str) -> str:
    """Minimal SVG polyline plot (log2-log2 when the data are positive)."""
    width, height = 480, 320  # pixels
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    if np.all(xs > 0) and np.all(ys > 0):
        xs, ys = np.log2(xs), np.log2(ys)
        title += " (log2-log2)"
    pad = 40
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    sx = (width - 2 * pad) / max(x1 - x0, 1e-12)
    sy = (height - 2 * pad) / max(y1 - y0, 1e-12)
    pts = " ".join(f"{pad + (x - x0) * sx:.2f},"
                   f"{height - pad - (y - y0) * sy:.2f}"
                   for x, y in zip(xs, ys))
    return (f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
            f"height='{height}'>"
            f"<rect width='100%' height='100%' fill='white'/>"
            f"<text x='{pad}' y='20' font-size='13'>{title}</text>"
            f"<polyline fill='none' stroke='steelblue' stroke-width='2' "
            f"points='{pts}'/>"
            "</svg>")


def _rows_to_csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


@dataclass
class ReportBundle:
    report: dict
    csv_text: str
    plots: dict  # name -> svg text


def _write_bundle(cfg: Config, bundle: ReportBundle) -> str:
    outdir = os.environ.get("OUTPUT_DIR", cfg.outdir)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    run_dir = os.path.join(outdir, f"{cfg.experiment}-{stamp}")
    suffix = 0
    while os.path.exists(run_dir):
        suffix += 1
        run_dir = os.path.join(outdir, f"{cfg.experiment}-{stamp}-{suffix}")
    os.makedirs(os.path.join(run_dir, "plots"))
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(bundle.report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(run_dir, "metadata.json"), "w") as fh:
        json.dump({"written_utc": stamp, "unix_time": time.time(),
                   "unknown_keys": list(cfg.extras)}, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(run_dir, "data.csv"), "w") as fh:
        fh.write(bundle.csv_text)
    with open(os.path.join(run_dir, "config.echo"), "w") as fh:
        fh.write(cfg.raw_text)
    for name, svg in bundle.plots.items():
        with open(os.path.join(run_dir, "plots", f"{name}.svg"), "w") as fh:
            fh.write(svg)
    return run_dir


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------


def _exp_geometry(cfg: Config) -> ReportBundle:
    curve = _parse_curve(cfg.curve)
    lo, hi = curve.domain
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, cfg.samples)
    fr = cg.frenet_frame(curve, grid)
    report = {
        "experiment": "geometry", "curve": curve.name, "seed": cfg.seed,
        "kappa_min": float(fr.kappa.min()), "kappa_max": float(fr.kappa.max()),
        "tau_min": float(fr.tau.min()), "tau_max": float(fr.tau.max()),
        "samples": cfg.samples,
    }
    csv_text = _rows_to_csv(["s", "kappa", "tau"],
                            np.column_stack([grid, fr.kappa, fr.tau]).tolist())
    plot = _svg_line_plot(grid - grid[0] + 1e-9, np.abs(fr.kappa) + 1e-15,
                          "curvature along the curve")
    return ReportBundle(report, csv_text, {"kappa": plot})


def _exp_plates(cfg: Config) -> ReportBundle:
    g = _parse_generator(cfg.generator)
    delta = cfg.deltas[0]
    sigma = cfg.sigma if cfg.sigma is not None else math.sqrt(delta)
    fam = cp.make_family(g, delta, cfg.lam, cfg.theta, sigma)
    rows = []
    for plate in fam.plates:
        b = plate.bounds
        rows.append([plate.alpha, plate.lam, b[0], b[1], b[2]])
    report = {
        "experiment": "plates", "generator": cfg.generator, "seed": cfg.seed,
        "delta": delta, "lam": cfg.lam, "theta": cfg.theta, "sigma": sigma,
        "plate_count": len(fam.plates),
        "anchors": [p.alpha for p in fam.plates],
    }
    csv_text = _rows_to_csv(["alpha", "lam", "long", "mid", "thin"], rows)
    svg = cp.family_svg_cross_section(fam)
    return ReportBundle(report, csv_text, {"cross_section": svg})


def _exp_decompose(cfg: Config) -> ReportBundle:
    curve = _parse_curve(cfg.curve)
    ak = sd.make_ak(curve, cfg.k)
    pieces = sd.decompose(ak)
    rng = np.random.default_rng(cfg.seed)
    r = rng.uniform(0.6, 1.8, cfg.samples)
    u = rng.uniform(-0.15, 0.15, cfg.samples)
    sg = rng.uniform(-0.6, 0.6, cfg.samples)
    ss = rng.uniform(-0.5, 0.5, cfg.samples)
    fr = cg.frenet_frame(curve, sg)
    nm = np.linalg.norm(r[:, None] * fr.B + u[:, None] * fr.T, axis=1)
    total = sum(p.coord_eval(ss, r, u, sg, nm) for p in pieces)
    base = ak.coord_eval(ss, r, u, sg, nm)
    err = float(np.max(np.abs(total - base), initial=0.0))
    report = {
        "experiment": "decompose", "curve": curve.name, "k": cfg.k,
        "seed": cfg.seed, "pieces": sorted({p.kind for p in pieces}),
        "piece_count": len(pieces),
        "reconstruction_error": err, "samples": cfg.samples,
    }
    csv_text = _rows_to_csv(["quantity", "value"],
                            [["reconstruction_error", err],
                             ["piece_count", len(pieces)]])
    if err > 1e-12:
        raise AssertionError("decomposition does not telescope to the base")
    return ReportBundle(report, csv_text, {})


def _exp_umu(cfg: Config) -> ReportBundle:
    curve = _parse_curve(cfg.curve)
    rep = si.verify_umu_approximation(curve, r0=cfg.r0,
                                      n_samples=cfg.samples, M=cfg.M,
                                      seed=cfg.seed)
    report = {"experiment": "umu", "curve": curve.name, "seed": cfg.seed,
              **{k: v for k, v in rep.items()}}
    csv_text = _rows_to_csv(["quantity", "value"], sorted(rep.items()))
    if not rep["pass"]:
        raise AssertionError("critical-phase approximation bound violated")
    return ReportBundle(report, csv_text, {})


def _exp_census(cfg: Config) -> ReportBundle:
    curve = _parse_curve(cfg.curve)
    rep = si.support_census(curve, sample_count=cfg.samples, seed=cfg.seed)
    report = {"experiment": "census", "curve": curve.name, "seed": cfg.seed,
              **rep}
    csv_text = _rows_to_csv(["quantity", "value"],
                            sorted((k, v) for k, v in rep.items()))
    ok = (rep["a_vanishing_ok"] and rep["b_vanishing_ok"]
          and rep["multiplicity_ok"] and rep["plate_failures"] == 0)
    if not ok:
        raise AssertionError("support census invariant violated")
    return ReportBundle(report, csv_text, {})


def _exp_schedule(cfg: Config) -> ReportBundle:
    es = cp.exponent_schedule(cfg.p, cfg.eps)
    rs = si.r_schedule(max(cfg.k, 10), cfg.eps0, cfg.M)
    report = {
        "experiment": "schedule", "seed": cfg.seed,
        "p": cfg.p, "eps": cfg.eps, "n_star": es.n_star, "betas": es.betas,
        "fixed_point": es.fixed_point,
        "k": max(cfg.k, 10), "eps0": cfg.eps0, "M": cfg.M,
        "eps1": rs.eps1, "N": rs.N, "capped": rs.capped,
        "descending": rs.descending, "hypothesis_ok": rs.hypothesis_ok,
        "terminal_lower_ok": rs.terminal_lower_ok,
        "terminal_upper_ok": rs.terminal_upper_ok,
    }
    floor = math.log2(100.0 * rs.M) - 1e-9
    csv_text = _rows_to_csv(
        ["n", "log2_r0", "log2_r1", "r0", "r1", "ratio_check"],
        [[n, rs.log2_r0[n], rs.log2_r1[n], rs.r0[n], rs.r1[n],
          rs.log2_r1[n] - 1.5 * rs.log2_r0[n] >= floor]
         for n in range(rs.N + 1)])
    plot = _svg_line_plot(np.arange(len(es.betas)) + 1.0,
                          np.asarray(es.betas) + 1.0,
                          "exponent recursion trajectory")
    if not rs.hypothesis_ok:
        raise AssertionError("radius schedule hypothesis violated")
    return ReportBundle(report, csv_text, {"betas": plot})


def _exp_decouple(cfg: Config) -> ReportBundle:
    g = _parse_generator(cfg.generator)
    fam = cp.make_family(g, cfg.deltas[0], cfg.lam, cfg.theta,
                         math.sqrt(cfg.deltas[0]))
    exp = ol.DecouplingExperiment(fam, cfg.p, list(cfg.deltas), cfg.trials,
                                  "all_ones", n=cfg.n, box=cfg.L,
                                  seed=cfg.seed)
    rep = ol.decoupling_ratio(exp)
    report = {"experiment": "decouple", "generator": cfg.generator, **rep}
    rows = list(zip(rep["deltas"], rep["D"], rep["normalized"]))
    csv_text = _rows_to_csv(["delta", "D", "normalized"], rows)
    plot = _svg_line_plot(rep["deltas"], rep["D"], "decoupling ratio")
    if rep["band_ratio"] > 4.0:
        raise AssertionError("normalized decoupling ratios left the band")
    return ReportBundle(report, csv_text, {"decoupling": plot})


def _exp_sobolev(cfg: Config) -> ReportBundle:
    curve = _parse_curve(cfg.curve)
    chi = ol.default_chi(curve, shrink=0.5)
    rep = ol.sobolev_sweep(curve, chi, cfg.p, cfg.alpha, list(cfg.k_list),
                           n=cfg.n, box=min(cfg.L, 3.0), seed=cfg.seed)
    report = {"experiment": "sobolev", "curve": curve.name, **rep}
    rows = list(zip(rep["k_list"], rep["ratios"]))
    csv_text = _rows_to_csv(["k", "ratio"], rows)
    plot = _svg_line_plot(2.0 ** np.asarray(rep["k_list"], float),
                          rep["ratios"], "weighted operator ratio per band")
    return ReportBundle(report, csv_text, {"sobolev": plot})


def _exp_smoothing(cfg: Config) -> ReportBundle:
    curve = _parse_curve(cfg.curve)
    chi = ol.default_chi(curve, shrink=0.5)
    rep = ol.local_smoothing_probe(curve, chi, cfg.p, cfg.alpha,
                                   list(cfg.k_list), n=min(cfg.n, 32),
                                   box=6.0, n_t=9, seed=cfg.seed)
    report = {"experiment": "smoothing", "curve": curve.name, **rep}
    rows = list(zip(rep["k_list"], rep["ratios"]))
    csv_text = _rows_to_csv(["k", "ratio"], rows)
    plot = _svg_line_plot(2.0 ** np.asarray(rep["k_list"], float),
                          rep["ratios"], "space-time ratio per band")
    return ReportBundle(report, csv_text, {"smoothing": plot})


def _exp_maximal(cfg: Config) -> ReportBundle:
    curve = _parse_curve(cfg.curve)
    chi = ol.default_chi(curve)
    grid = ol.Grid3(min(cfg.n, 32), cfg.L)
    f = ol.random_band_field(grid, 3, cfg.seed)
    ts = ol.default_t_samples(9)
    mf = ol.maximal_operator(f, curve, chi, ts)
    fp = f.to_physical()  # one inverse transform for the four norms
    rows = []
    for p in (4.0, 8.0, 16.0, 40.0):
        rows.append([p, ol.lp_norm(mf, p) / ol.lp_norm(fp, p)])
    report = {
        "experiment": "maximal", "curve": curve.name, "seed": cfg.seed,
        "n": grid.n, "box": grid.box, "t_samples": ts.tolist(),
        "ratios": {str(int(r[0])): r[1] for r in rows},
    }
    csv_text = _rows_to_csv(["p", "ratio"], rows)
    return ReportBundle(report, csv_text, {})


def _exp_helix2(cfg: Config) -> ReportBundle:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(cfg.samples):
        a, b = rng.uniform(1.0, 2.0, 2)
        s = rng.uniform(-1.0, 1.0)
        xi = rng.normal(size=3)
        lhs, rhs = ol.helix_phase_identity(a, b, s, xi)
        worst = max(worst, abs(lhs - rhs))
    grid = ol.Grid3(16, cfg.L)
    f = ol.random_band_field(grid, 2, cfg.seed)
    pairs = [(1.2, 1.4), (1.5, 1.5), (1.4, 1.2)]
    m = ol.two_param_maximal(f, 1.0, pairs)
    report = {
        "experiment": "helix2", "seed": cfg.seed, "samples": cfg.samples,
        "phase_identity_max_err": worst,
        "pairs": pairs,
        "sup_norm": ol.lp_norm(m, math.inf),
    }
    csv_text = _rows_to_csv(["quantity", "value"],
                            [["phase_identity_max_err", worst],
                             ["sup_norm", report["sup_norm"]]])
    if worst > 1e-12:
        raise AssertionError("helix phase identity exceeded tolerance")
    return ReportBundle(report, csv_text, {})


_DISPATCH = {
    "geometry": _exp_geometry,
    "plates": _exp_plates,
    "decompose": _exp_decompose,
    "umu": _exp_umu,
    "census": _exp_census,
    "schedule": _exp_schedule,
    "decouple": _exp_decouple,
    "sobolev": _exp_sobolev,
    "smoothing": _exp_smoothing,
    "maximal": _exp_maximal,
    "helix2": _exp_helix2,
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run(cfg: Config) -> int:
    """Dispatch one experiment; 0 ok, 1 config/runtime error, 2 assertion."""
    try:
        bundle = _DISPATCH[cfg.experiment](cfg)
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ConewolffError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run_dir = _write_bundle(cfg, bundle)
    print(run_dir)
    return 0


def list_experiments() -> str:
    lines = ["experiments:"]
    for name, keys, desc, section in EXPERIMENTS:
        lines.append(f"  {name} {section}: {desc} (keys: {keys})")
    return "\n".join(lines) + "\n"


def selftest() -> int:
    """Fast exact-identity suite across the modules (< 60 s); 0 if every
    identity holds, else 2 after naming each one that failed."""
    h = cg.helix(1.0, 1.0)
    fr = cg.frenet_frame(h, 0.1)
    grid = ol.Grid3(16)
    rng = np.random.default_rng(0)
    f = ol.Field3(grid, rng.normal(size=(16,) * 3) + 0j, "physical")
    lhs, rhs = ol.helix_phase_identity(1.5, 1.3, 0.2,
                                       np.array([1.0, -2.0, 0.5]))
    t = np.linspace(-0.2, 0.2, 101)
    u = np.linspace(-1.0, 1.0, 9)
    cubic = cg.finite_type_rescale(cg.twisted_cubic(), 0.0, 3)[1].eval(u)
    checks = [
        ("helix(1,1) curvature and torsion equal 1/2 at s = 0.1",
         abs(fr.kappa - 0.5) < 1e-10 and abs(fr.tau - 0.5) < 1e-10),
        ("exponent_schedule(74, 0.1).n_star == 8",
         cp.exponent_schedule(74.0, 0.1).n_star == 8),
        ("shear dilation basis residual < 1e-12",
         si.ShearDilation(h, 0.0, 0.25).basis_residual() < 1e-12),
        ("FFT round trip within 1e-12",
         np.max(np.abs(f.to_frequency().to_physical().values
                       - f.values)) < 1e-12),
        ("Parseval: physical and frequency L2 norms agree",
         abs(f.l2() - f.to_frequency().l2()) < 1e-10 * f.l2()),
        ("helix-family phase identity within 1e-12", abs(lhs - rhs) < 1e-12),
        ("dyadic cutoffs telescope to 1 within 1e-12",
         np.max(np.abs(sd.telescope(t, -2, 3) - 1.0)) < 1e-12),
        ("twisted cubic rescaled at 0, j = 3, is (u, u^2, u^3) within 1e-12",
         np.max(np.abs(cubic - np.array([u, u**2, u**3]))) < 1e-12),
    ]
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"selftest failed: {name}", file=sys.stderr)
    if failed:
        return 2
    print(f"selftest ok ({len(checks)} checks)")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="conewolff",
        description="curve-averaging multiplier experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a config")
    run_p.add_argument("config", help="path to a key=value config file")
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("selftest", help="run the quick exact-identity suite")
    args = parser.parse_args(argv)

    if args.command == "list":
        sys.stdout.write(list_experiments())
        return 0
    if args.command == "selftest":
        return selftest()
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
