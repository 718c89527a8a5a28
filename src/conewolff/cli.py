"""Batch front-end: config-driven experiment dispatch and report writing.

`conewolff run <config>` parses a plain key=value config against the
EXPERIMENTS table (each experiment's runner, the keys it reads and their
defaults), validates the scale constraints, runs the experiment, and
writes `<outdir>/<experiment>-<timestamp>/` containing a deterministic
`report.json` (same config + seed => byte-identical), a `data.csv`,
log-log SVG plots, the echoed config, and a `metadata.json` holding the
wall-clock information and the config keys the experiment does not read,
both deliberately kept out of the report.  `conewolff list` prints the
table; `conewolff selftest` runs a quick suite of exact identities.
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
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import cone_plates as cp
from . import curve_geometry as cg
from . import operator_lab as ol
from . import scale_induction as si
from . import symbol_decomposition as sd
from .errors import ConewolffError, ConfigError


@dataclass
class Config:
    """Parsed experiment configuration.  deltas, n and L left at None take
    the default its EXPERIMENTS row states, else the global one, so
    Config(name) holds what a config of `experiment = name` alone runs."""

    experiment: str
    curve: str = "helix(0.5,0.5)"
    generator: str = "circle"
    k: int = 10
    deltas: Optional[tuple] = None
    theta: float = 1.0
    sigma: Optional[float] = None  # None: sqrt(delta)
    lam: float = 24.0
    p: float = 8.0
    eps: float = 0.1
    eps0: float = 0.3
    M: float = 10.0
    r0: float = 2.0**-4
    alpha: float = 0.025
    k_list: tuple = (4, 5)
    n: Optional[int] = None
    L: Optional[float] = None
    trials: int = 2
    samples: int = 300
    seed: int = 0
    outdir: str = "reports"
    raw_text: str = ""
    extras: dict = field(default_factory=dict)  # key -> text, not read

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choices: {tuple(EXPERIMENTS)}")
        stated = {"deltas": (2.0**-4, 2.0**-5), "n": 64, "L": 8.0,
                  **EXPERIMENTS[self.experiment].defaults}
        for key, value in stated.items():
            if getattr(self, key) is None:
                setattr(self, key, value)


def _finite_float(val: str) -> float:
    x = float(val)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {val!r}")
    return x


# every config key and the parser of its text
_PARSERS = {
    **dict.fromkeys(("experiment", "curve", "generator", "outdir"), str),
    **dict.fromkeys(("k", "n", "trials", "samples", "seed"), int),
    **dict.fromkeys(("theta", "sigma", "lam", "p", "eps", "eps0", "M", "r0",
                     "alpha", "L"), _finite_float),
    "deltas": lambda val: tuple(_finite_float(v) for v in val.split(",") if v),
    "k_list": lambda val: tuple(int(v) for v in val.split(",") if v),
}
_GENERATORS = {"circle": cg.unit_circle_generator,
               "parabola": cg.parabola_generator}
# per-key checks, run on every key whether or not its experiment reads it:
# key -> (test of its value, the rule the test states)
_RULES = {
    "generator": (lambda g: g in _GENERATORS, f"one of {sorted(_GENERATORS)}"),
    "n": (lambda n: n >= 2 and n & (n - 1) == 0, "a power of two"),
    "deltas": (lambda ds: ds and all(0.0 < d <= 1.0 for d in ds),
               "a non-empty list of values in (0, 1]"),
    "k_list": (bool, "a non-empty list"),
    "p": (lambda p: p >= 1.0, "at least 1"),
    "alpha": (lambda a: 0.0 <= a <= 1.0, "in [0, 1]"),
    **dict.fromkeys(("trials", "samples", "sigma", "eps", "eps0", "M", "r0",
                     "L"), (lambda x: x > 0, "positive")),
}


def parse_config(text: str) -> Config:
    """Parse key=value lines ('#' comments, optional [section] headers).

    A key that is unknown, or that the experiment does not read, is listed
    in `extras` with its text and warned about on stderr.  A key given
    twice is refused, with both line numbers.
    """
    values, lines, seen = {}, [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got "
                              f"{line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} is given twice, "
                              f"on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        try:
            if key in _PARSERS:
                values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from None
        lines.append((lineno, key, val))
    if "experiment" not in values:
        raise ConfigError("missing required field 'experiment'")
    cfg = Config(raw_text=text, **values)
    reads = ("experiment", "seed", "outdir") + EXPERIMENTS[cfg.experiment].keys
    for lineno, key, val in lines:
        if key not in reads:  # a typo, or a key of another experiment
            cfg.extras[key] = val
            what = (f"config key {key!r} is not read by experiment "
                    f"{cfg.experiment!r} and" if key in _PARSERS
                    else f"unknown config key {key!r}")
            print(f"warning: line {lineno}: {what} is ignored",
                  file=sys.stderr)
    validate_config(cfg)
    return cfg


def validate_config(cfg: Config) -> None:
    """Refuse cfg where a key breaks its own rule, or where keys that its
    experiment reads break a rule between them."""
    for key, (ok, rule) in _RULES.items():
        value = getattr(cfg, key)
        if value is not None and not ok(value):
            raise ConfigError(f"field {key!r} must be {rule}, got {value!r}")
    _helix_args(cfg.curve)
    reads = EXPERIMENTS[cfg.experiment].keys
    roots = [math.sqrt(d) for d in cfg.deltas] if "deltas" in reads else []
    for root in roots:
        if "sigma" in reads and cfg.sigma is not None \
                and cfg.sigma > root + 1e-12:
            raise ConfigError(
                f"separation sigma={cfg.sigma} exceeds sqrt(delta)={root}")
        if "theta" in reads and root > cfg.theta + 1e-12:
            raise ConfigError(
                f"sqrt(delta)={root} exceeds window theta={cfg.theta}")
    if cfg.experiment == "plates" and len(cfg.deltas) > 1:
        raise ConfigError("field 'deltas': plates builds one family, so it "
                          f"takes one delta, not {len(cfg.deltas)}")
    if cfg.experiment == "schedule" and cfg.k < 10:
        raise ConfigError("field 'k': the radius schedule needs k >= 10, "
                          f"got {cfg.k}")


def _helix_args(spec: str):
    """[a, b] of a helix(a, b) spec (finite, not both 0), None for the name
    of a benchmark curve."""
    name, paren, rest = spec.strip().partition("(")
    if not paren and name in cg._BENCHMARKS:
        return None
    try:
        args = [float(v) for v in rest.rstrip(")").split(",") if v.strip()]
    except ValueError:
        args = []
    if name.strip() != "helix" or len(args) != 2 or args == [0.0, 0.0] \
            or not all(math.isfinite(v) for v in args):
        raise ConfigError(f"field 'curve': cannot parse {spec!r}; a curve is "
                          f"one of {sorted(cg._BENCHMARKS)} or helix(a, b), "
                          "a and b finite, not both 0")
    return args


def _parse_curve(spec: str) -> cg.Curve:
    args = _helix_args(spec)
    if args is None:
        return cg.benchmark_curve(spec.strip())
    return cg.helix(*args)


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
    meta = {"written_utc": stamp, "unix_time": time.time(),
            "unknown_keys": list(cfg.extras)}
    files = {"report.json": json.dumps(bundle.report, indent=2,
                                       sort_keys=True) + "\n",
             "metadata.json": json.dumps(meta, indent=2) + "\n",
             "data.csv": bundle.csv_text, "config.echo": cfg.raw_text,
             **{os.path.join("plots", f"{name}.svg"): svg
                for name, svg in bundle.plots.items()}}
    for name, text in files.items():
        with open(os.path.join(run_dir, name), "w") as fh:
            fh.write(text)
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
    g = _GENERATORS[cfg.generator]()
    delta = cfg.deltas[0]
    sigma = cfg.sigma if cfg.sigma is not None else math.sqrt(delta)
    fam = cp.make_family(g, delta, cfg.lam, cfg.theta, sigma)
    rows = [[plate.alpha, plate.lam, *plate.bounds] for plate in fam.plates]
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
    nm = np.linalg.norm(cg.cone_point(curve, r, u, sg), axis=1)
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
              **rep}
    csv_text = _rows_to_csv(["quantity", "value"], sorted(rep.items()))
    if not rep["pass"]:
        raise AssertionError("critical-phase approximation bound violated")
    return ReportBundle(report, csv_text, {})


def _exp_census(cfg: Config) -> ReportBundle:
    curve = _parse_curve(cfg.curve)
    rep = si.support_census(curve, sample_count=cfg.samples, seed=cfg.seed)
    report = {"experiment": "census", "curve": curve.name, "seed": cfg.seed,
              **rep}
    csv_text = _rows_to_csv(["quantity", "value"], sorted(rep.items()))
    ok = (rep["a_vanishing_ok"] and rep["b_vanishing_ok"]
          and rep["multiplicity_ok"] and rep["plate_failures"] == 0)
    if not ok:
        raise AssertionError("support census invariant violated")
    return ReportBundle(report, csv_text, {})


def _exp_schedule(cfg: Config) -> ReportBundle:
    es = cp.exponent_schedule(cfg.p, cfg.eps)
    rs = si.r_schedule(cfg.k, cfg.eps0, cfg.M)
    report = {
        "experiment": "schedule", "seed": cfg.seed,
        "p": cfg.p, "eps": cfg.eps, "n_star": es.n_star, "betas": es.betas,
        "fixed_point": es.fixed_point,
        "k": cfg.k, "eps0": cfg.eps0, "M": cfg.M,
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
    rep = ol.decoupling_ratio(_GENERATORS[cfg.generator](), cfg.lam,
                              cfg.theta, cfg.p, list(cfg.deltas), cfg.trials,
                              "all_ones", n=cfg.n, box=cfg.L, seed=cfg.seed)
    report = {"experiment": "decouple", "generator": cfg.generator, **rep}
    rows = list(zip(rep["deltas"], rep["D"], rep["normalized"]))
    csv_text = _rows_to_csv(["delta", "D", "normalized"], rows)
    plot = _svg_line_plot(rep["deltas"], rep["D"], "decoupling ratio")
    if rep["band_ratio"] > 4.0:
        raise AssertionError("normalized decoupling ratios left the band")
    return ReportBundle(report, csv_text, {"decoupling": plot})


def _band_experiment(cfg: Config, name: str, sweep, title: str,
                     **grid) -> ReportBundle:
    """Report, CSV and plot `name` of a band sweep (ol.sobolev_sweep or
    ol.local_smoothing_probe) along cfg's curve on n^3, chi shrunk by 1/2."""
    curve = _parse_curve(cfg.curve)
    chi = ol.default_chi(curve, shrink=0.5)
    rep = sweep(curve, chi, cfg.p, cfg.alpha, list(cfg.k_list), n=cfg.n,
                seed=cfg.seed, **grid)
    report = {"experiment": name, "curve": curve.name, **rep}
    csv_text = _rows_to_csv(["k", "ratio"], zip(rep["k_list"], rep["ratios"]))
    plot = _svg_line_plot(2.0 ** np.asarray(rep["k_list"], float),
                          rep["ratios"], title)
    return ReportBundle(report, csv_text, {name: plot})


def _exp_sobolev(cfg: Config) -> ReportBundle:
    return _band_experiment(cfg, "sobolev", ol.sobolev_sweep,
                            "weighted operator ratio per band", box=cfg.L)


def _exp_smoothing(cfg: Config) -> ReportBundle:
    return _band_experiment(cfg, "smoothing", ol.local_smoothing_probe,
                            "space-time ratio per band", box=6.0, n_t=9)


def _exp_maximal(cfg: Config) -> ReportBundle:
    curve = _parse_curve(cfg.curve)
    chi = ol.default_chi(curve)
    grid = ol.Grid3(cfg.n, cfg.L)
    band, fbox = ol._band_box(grid, 3, cfg.seed)
    ts = ol.default_t_samples(9)
    sup = ol.maximal_operator(grid, band, fbox, curve, chi, ts)
    f_abs = ol._sup_abs(grid, band, [fbox])
    rows = []
    for p in (4.0, 8.0, 16.0, 40.0):
        sup_p, f_p = ((grid.cell_volume * ol._power_sum(g, p)) ** (1.0 / p)
                      for g in (sup, f_abs))
        rows.append([p, sup_p / f_p])
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
    band, fbox = ol._band_box(grid, 2, cfg.seed)
    pairs = [(1.2, 1.4), (1.5, 1.5), (1.4, 1.2)]
    sup = ol.two_param_maximal(grid, band, fbox, 1.0, pairs)
    report = {
        "experiment": "helix2", "seed": cfg.seed, "samples": cfg.samples,
        "phase_identity_max_err": worst,
        "n": grid.n, "box": grid.box, "pairs": pairs,
        "sup_norm": float(sup.max()),
    }
    csv_text = _rows_to_csv(["quantity", "value"],
                            [["phase_identity_max_err", worst],
                             ["sup_norm", report["sup_norm"]]])
    if worst > 1e-12:
        raise AssertionError("helix phase identity exceeded tolerance")
    return ReportBundle(report, csv_text, {})


class Experiment(NamedTuple):
    runner: Callable[[Config], ReportBundle]
    keys: tuple  # the config keys it reads besides experiment, seed, outdir
    defaults: dict  # each default that differs from Config's
    description: str
    section: str


# the config schema: each experiment, the keys it reads and their defaults
EXPERIMENTS = {
    "geometry": Experiment(_exp_geometry, ("curve", "samples"), {},
                           "moving-frame curvature/torsion sweep", "§3"),
    "plates": Experiment(_exp_plates, ("generator", "deltas", "lam", "theta",
                                       "sigma"), {"deltas": (2.0**-4,)},
                         "cone plate family build", "§2"),
    "decompose": Experiment(_exp_decompose, ("curve", "k", "samples"), {},
                            "dyadic symbol split + reconstruction", "§3"),
    "umu": Experiment(_exp_umu, ("curve", "r0", "samples", "M"), {},
                      "critical-phase approximation bounds", "§4"),
    "census": Experiment(_exp_census, ("curve", "samples"), {},
                         "two-scale support census", "§4"),
    "schedule": Experiment(_exp_schedule, ("p", "eps", "k", "eps0", "M"), {},
                           "exponent and radius schedules", "§5"),
    "decouple": Experiment(_exp_decouple, ("generator", "p", "deltas", "lam",
                                           "theta", "trials", "n", "L"),
                           {"n": 128}, "plate decoupling ratios", "§2"),
    "sobolev": Experiment(_exp_sobolev,
                          ("curve", "p", "alpha", "k_list", "n", "L"),
                          {"L": 3.0}, "fixed-time regularity sweep", "§3"),
    "smoothing": Experiment(_exp_smoothing,
                            ("curve", "p", "alpha", "k_list", "n"), {},
                            "space-time regularity probe", "§5"),
    "maximal": Experiment(_exp_maximal, ("curve", "n", "L"), {"n": 32},
                          "sampled dilation-maximal norms", "§6"),
    "helix2": Experiment(_exp_helix2, ("samples", "L"), {},
                         "two-parameter helix family checks", "§6"),
}
_DISPATCH = {name: exp.runner for name, exp in EXPERIMENTS.items()}


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


def _shown(value) -> str:
    # a list as a config writes it; sigma's default None is sqrt(delta)
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "sqrt(delta)" if value is None else str(value)


def list_experiments() -> str:
    """Each experiment with the keys it reads and their defaults."""
    lines = [f"experiments (each also reads seed = {Config.seed} and "
             f"outdir = {Config.outdir}):"]
    for name, exp in EXPERIMENTS.items():
        cfg = Config(name)
        lines.append(f"  {name} {exp.section}: {exp.description}")
        lines.append("    " + ", ".join(f"{key} = {_shown(getattr(cfg, key))}"
                                        for key in exp.keys))
    return "\n".join(lines) + "\n"


def selftest() -> int:
    """Fast exact-identity suite across the modules (< 60 s); 0 if every
    identity holds, else 2 after naming each one that failed."""
    h = cg.helix(1.0, 1.0)
    fr = cg.frenet_frame(h, 0.1)
    grid = ol.Grid3(16)
    rng = np.random.default_rng(0)
    f = rng.normal(size=(16,) * 3) + 0j
    f_l2 = math.sqrt(grid.cell_volume * np.sum(np.abs(f) ** 2))
    lhs, rhs = ol.helix_phase_identity(1.5, 1.3, 0.2,
                                       np.array([1.0, -2.0, 0.5]))
    t = np.linspace(-0.2, 0.2, 101)
    u = np.linspace(-1.0, 1.0, 9)
    cubic = cg.finite_type_rescale(cg.twisted_cubic(), 0.0, 3)[1].eval(u)
    # a box whose first axis wraps past row 0, summed on a 1 x 9 x 14 grid
    # (its axes, narrowest first), a diagonal slab that wraps, summed on
    # its sheared grid, and a box of two runs of rows per axis that wrap
    # past row 0, summed on 32^3
    idx = tuple(m.ravel() for m in np.meshgrid([30, 31, 0, 1], [5, 6, 7], [2],
                                               indexing="ij"))
    s, r = (m.ravel() for m in np.meshgrid(range(6), range(3), indexing="ij"))
    diag = tuple((np.array([[30], [31], [5]]) + np.outer([1, 1, 0], s)
                  + np.outer([0, 1, -1], r)) % 32)
    runs = [np.array([0, 1, 2, 29, 30, 31])] * 3
    wrap = tuple(m.ravel() for m in np.meshgrid(*runs, indexing="ij"))

    def sums(entries, p, summed):
        # (summed(values), the 32^3 sum of |f|^p) for seeded values
        vals = rng.normal(size=entries[0].size) \
            + 1j * rng.normal(size=entries[0].size)
        full = np.zeros((32,) * 3, dtype=complex)
        full[entries] = vals
        return summed(vals), np.sum(np.abs(ol.sfft.ifftn(full)) ** p)

    box8 = sums(idx, 8.0, ol._baseband(idx, 32, 8.0).power_sum)
    diag8 = sums(diag, 8.0, ol._baseband(diag, 32, 8.0).power_sum)
    wrap6 = sums(wrap, 6.0, lambda v: ol._box_power_sum(
        runs, v.reshape(6, 6, 6), 6.0, (32,) * 3))
    checks = [
        ("helix(1,1) curvature and torsion equal 1/2 at s = 0.1",
         abs(fr.kappa - 0.5) < 1e-10 and abs(fr.tau - 0.5) < 1e-10),
        ("exponent_schedule(74, 0.1).n_star == 8",
         cp.exponent_schedule(74.0, 0.1).n_star == 8),
        ("shear dilation basis residual < 1e-12",
         si.ShearDilation(h, 0.0, 0.25).basis_residual() < 1e-12),
        ("FFT round trip within 1e-12",
         np.max(np.abs(ol.sfft.ifftn(ol.sfft.fftn(f)) - f)) < 1e-12),
        ("Parseval: physical and frequency L2 norms agree",
         abs(f_l2 - ol.lp_norm(grid, [np.arange(16)] * 3, ol.sfft.fftn(f),
                               2.0)) < 1e-10 * f_l2),
        ("helix-family phase identity within 1e-12", abs(lhs - rhs) < 1e-12),
        ("dyadic cutoffs telescope to 1 within 1e-12",
         np.max(np.abs(sd.telescope(t, -2, 3) - 1.0)) < 1e-12),
        ("twisted cubic rescaled at 0, j = 3, is (u, u^2, u^3) within 1e-12",
         np.max(np.abs(cubic - np.array([u, u**2, u**3]))) < 1e-12),
        ("sum |f|^8 on a reduced grid is the 32^3 sum within 1e-12",
         abs(box8[0] - box8[1]) < 1e-12 * box8[1]),
        ("sum |f|^8 of a diagonal support on its sheared grid is the 32^3 "
         "sum within 1e-12", abs(diag8[0] - diag8[1]) < 1e-12 * diag8[1]),
        ("sum |f|^6 of a two-run wrapped box is the 32^3 sum within 1e-12",
         abs(wrap6[0] - wrap6[1]) < 1e-12 * wrap6[1]),
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
