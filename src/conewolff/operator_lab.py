"""FFT-based 3-D field engine for multiplier and averaging experiments.

Provides a periodic-box spectral toolkit: fields living on a cubic grid in
either physical or frequency space, pointwise multiplier application,
plate envelopes and decoupling-ratio measurements with exponent fits,
seeded band fields, curve-averaging operators A_t (computed on the
bounding box of a field's frequency support) with sampled maximal and
Sobolev-weighted variants, a space-time smoothing probe, and the
two-parameter helix family with its exact phase-derivative identity.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
# no conewolff code calls leggauss here (the rules come from
# gauss_legendre): the name stays only because perfbench/tracing.py wraps
# it, as symbol_decomposition.quad is kept
from numpy.polynomial.legendre import leggauss  # noqa: F401

from .cone_plates import Plate, PlateFamily, make_family
from .curve_geometry import Curve, fit_line, gauss_legendre, vec, trig_cycle
from .errors import (GridTooLarge, PlateUnresolved, QuadratureFailure,
                     WraparoundRisk)
from .symbol_decomposition import eta0


def _lazy_import(name: str):
    """Module `name` of a top-level package, executed at its first
    attribute access: importing it eagerly costs a few tenths of a second
    that experiments without a transform never use.  The package is only
    located, not imported, until then; a module already in sys.modules is
    returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec(name.partition(".")[0])
    spec = importlib.machinery.PathFinder.find_spec(
        name, package.submodule_search_locations)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


sfft = _lazy_import("scipy.fft")
_WORKERS = os.cpu_count() or 1


# ---------------------------------------------------------------------------
# grid and fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid3:
    """Periodic cubic grid: n samples per axis over a box of side `box`."""

    n: int
    box: float = 8.0

    def __post_init__(self):
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError("grid size must be a power of two >= 2")
        if self.box <= 0:
            raise ValueError("box side must be positive")

    @property
    def spacing(self) -> float:
        return self.box / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    def freq_axis(self) -> np.ndarray:
        """Angular frequencies 2*pi/box * {-n/2 .. n/2-1} in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    def _axes(self, rows) -> list[np.ndarray]:
        ax = self.freq_axis()
        return [ax] * 3 if rows is None else [ax[r] for r in rows]

    def freq_mesh(self, rows=None) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
        """Broadcastable (sparse) frequency meshes kx, ky, kz: of the whole
        lattice, or of the box on `rows` (ascending indices per axis)."""
        a = self._axes(rows)
        return a[0][:, None, None], a[1][None, :, None], a[2][None, None, :]

    def freq_points(self, mask: np.ndarray, rows=None) -> np.ndarray:
        """(m, 3) array of the frequency lattice points selected by mask, a
        boolean array on the whole lattice or on the box on `rows`."""
        a = self._axes(rows)
        return np.stack([a[d][i] for d, i in enumerate(np.nonzero(mask))],
                        axis=1)


@dataclass(frozen=True)
class Field3:
    """Complex scalar field on a Grid3, in physical or frequency space."""

    grid: Grid3
    values: np.ndarray
    space: str  # "physical" | "frequency"

    def __post_init__(self):
        if self.space not in ("physical", "frequency"):
            raise ValueError("space must be 'physical' or 'frequency'")
        expected = (self.grid.n,) * 3
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")

    def to_physical(self) -> "Field3":
        if self.space == "physical":
            return self
        vals = sfft.ifftn(self.values, workers=_WORKERS)
        return Field3(self.grid, vals, "physical")

    def to_frequency(self) -> "Field3":
        if self.space == "frequency":
            return self
        vals = sfft.fftn(self.values, workers=_WORKERS)
        return Field3(self.grid, vals, "frequency")

    def l2(self) -> float:
        """Physical-box L2 norm, computable in either space (Parseval)."""
        ss = sum(_power_sum(self.values[s], 2.0)
                 for s in _slabs(self.values))
        if self.space == "physical":
            return math.sqrt(self.grid.cell_volume * ss)
        return math.sqrt(self.grid.box**3 * ss) / self.grid.n**3


def apply_multiplier(f: Field3, m: Callable) -> Field3:
    """Pointwise frequency-space product with m(kx, ky, kz) (broadcastable)."""
    g = f.to_frequency()
    kx, ky, kz = f.grid.freq_mesh()
    return Field3(f.grid, g.values * m(kx, ky, kz), "frequency")


_SLAB = 2**14  # elements per slab of axis-0 planes in the L^p reductions


def _slabs(vals: np.ndarray) -> list[slice]:
    """Slices of whole axis-0 planes holding at most _SLAB elements each
    (one plane if a plane alone is larger)."""
    step = max(1, _SLAB // max(1, vals[0].size))
    return [slice(i, i + step) for i in range(0, vals.shape[0], step)]


def _abs2(slab: np.ndarray) -> np.ndarray:
    """|z|^2 = re^2 + im^2 of a complex slab, as a new float64 array.

    The squares are formed in the slab's own precision and then widened,
    so a complex64 slab costs one float64 cast and a complex128 slab none.
    """
    m2 = np.square(slab.real)
    m2 += np.square(slab.imag)
    return m2.astype(np.float64, copy=False)


def _power_sum(slab: np.ndarray, p: float) -> float:
    """sum |z|^p over a slab; even integer powers by squaring in place."""
    m2 = _abs2(slab)
    half = p / 2.0
    while half > 1.0 and half % 2.0 == 0.0:
        m2 *= m2
        half /= 2.0
    if half != 1.0:
        np.power(m2, half, out=m2)
    return float(np.sum(m2))


def lp_norm(f: Field3, p: float) -> float:
    """Riemann-sum L^p norm over the physical box; max for p = inf.

    A frequency field costs one inverse FFT.  The reduction runs over
    slabs of axis-0 planes (_SLAB elements), so its float temporaries are
    slab-sized, never grid-sized; p = 2 is Parseval in either space.
    """
    if p < 1.0:
        raise ValueError("require p >= 1")
    if p == 2.0:
        return f.l2()
    vals = f.to_physical().values
    if math.isinf(p):
        return math.sqrt(max(float(_abs2(vals[s]).max())
                             for s in _slabs(vals)))
    total = sum(_power_sum(vals[s], p) for s in _slabs(vals))
    return float((f.grid.cell_volume * total) ** (1.0 / p))


# ---------------------------------------------------------------------------
# plate envelopes
# ---------------------------------------------------------------------------


def _plate_envelope(plate: Plate, grid: Grid3):
    """Smooth plate bump on the lattice: (index triple, envelope values).

    The envelope is a product of bumps in plate coordinates whose support
    is exactly the A=1 plate box; only the box's axis-aligned bounding
    lattice region is touched.  The separation-scale side (half-width
    lam*sqrt(delta)) must span >= 4 lattice cells; the thin lam*delta
    side may be coarser than the lattice, in which case it selects a
    quasi-random slice of lattice planes.
    """
    spacing = 2.0 * np.pi / grid.box
    if 2.0 * plate.lam * math.sqrt(plate.delta) < 4.0 * spacing:
        raise PlateUnresolved(
            "plate side lam*sqrt(delta) spans fewer than 4 lattice cells")
    kmax = spacing * grid.n / 2.0
    corners = plate.corners()
    if float(np.max(np.linalg.norm(corners, axis=1))) > kmax:
        raise PlateUnresolved("plate extends beyond the frequency lattice")

    ax = grid.freq_axis()
    sub = []
    for d in range(3):
        lo = corners[:, d].min() - spacing
        hi = corners[:, d].max() + spacing
        sub.append(np.nonzero((ax >= lo) & (ax <= hi))[0])
    KX = ax[sub[0]][:, None, None]
    KY = ax[sub[1]][None, :, None]
    KZ = ax[sub[2]][None, None, :]
    M = plate._M
    a1 = ((M[0, 0] * KX + M[0, 1] * KY + M[0, 2] * KZ) / plate.lam
          - 1.25) / 0.75
    a2 = (M[1, 0] * KX + M[1, 1] * KY + M[1, 2] * KZ) \
        / (plate.lam * math.sqrt(plate.delta))
    a3 = (M[2, 0] * KX + M[2, 1] * KY + M[2, 2] * KZ) \
        / (plate.lam * plate.delta)
    cand = (np.abs(a1) < 1.0) & (np.abs(a2) < 1.0) & (np.abs(a3) < 1.0)
    idx = np.nonzero(cand)
    env = eta0(a1[idx]) * eta0(a2[idx]) * eta0(a3[idx])
    return (sub[0][idx[0]], sub[1][idx[1]], sub[2][idx[2]]), env


# ---------------------------------------------------------------------------
# decoupling experiments
# ---------------------------------------------------------------------------


@dataclass
class DecouplingExperiment:
    """Plate-family decoupling-ratio run over a list of delta scales.

    `family` acts as the template: its generator, lam and theta are reused
    while delta (and the separation sigma = sqrt(delta)) is swept.
    """

    family: PlateFamily
    p: float
    deltas: Sequence[float]
    trials: int
    coefficient_mode: str = "random_sign"  # | "all_ones"
    n: int = 256
    box: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.p < 2.0:
            raise ValueError("require p >= 2")
        if self.coefficient_mode not in ("random_sign", "all_ones"):
            raise ValueError("unknown coefficient mode")


def _require_memory(what: str, n: int, grids: float, dtype) -> None:
    """Raise GridTooLarge if `grids` n^3 arrays of `dtype` held at once
    exceed the machine's physical memory (a smaller array counts as its
    share of n^3); called before any of them is built."""
    need = int(grids * np.dtype(dtype).itemsize * n**3)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise GridTooLarge(
            f"{what} on a {n}^3 grid needs {need} bytes, more than the "
            f"{have} bytes of physical memory")


def _disjoint_pieces(pieces, n: int) -> list:
    """Give each lattice point to the plate with the largest envelope there.

    `pieces` holds one (index triple, envelope) pair per plate.  One
    lexsort of all their entries by (flat index, -envelope, plate) puts
    each point's winner first: the largest envelope, the earlier plate on
    a tie, and a point whose envelope is 0 belongs to no plate.  So the
    kept pieces have pairwise disjoint supports and the p = 2 ratio is 1
    up to rounding.  Returns one (index triple, envelope) pair per plate,
    in ascending flat-index order.
    """
    flat = np.concatenate([np.ravel_multi_index(idx, (n,) * 3)
                           for idx, _ in pieces])
    env = np.concatenate([e for _, e in pieces])
    plate = np.repeat(np.arange(len(pieces)), [e.size for _, e in pieces])
    order = np.lexsort((plate, -env, flat))
    flat, env, plate = flat[order], env[order], plate[order]
    keep = env > 0
    keep[1:] &= flat[1:] != flat[:-1]
    flat, env, plate = flat[keep], env[keep], plate[keep]
    by_plate = np.argsort(plate, kind="stable")
    cuts = np.cumsum(np.bincount(plate, minlength=len(pieces)))[:-1]
    return [(np.unravel_index(fl, (n,) * 3), e)
            for fl, e in zip(np.split(flat[by_plate], cuts),
                             np.split(env[by_plate], cuts))]


def _along(axis: int, rows: np.ndarray) -> tuple:
    """Index selecting `rows` on one axis of a 3-D array, all of the rest."""
    return tuple(rows if d == axis else slice(None) for d in range(3))


def _pruned_ifftn(rows, box: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sfft.ifftn of a field supported on rows[0] x rows[1] x rows[2].

    `box` holds the field on those lattice rows (ascending indices per
    axis); `out` is an n^3 complex buffer, and every stage is allocated
    with its dtype, so a complex64 buffer makes a single-precision
    transform (the decoupling's: within 2e-7 of max|f| of the complex128
    one on the tests' boxes).  1-D inverse transforms run one axis at a
    time, the axis of widest support first, so a pass only touches lines
    that can be nonzero: with row counts ra >= rb >= rc the passes cost
    rb*rc, n*rc and n*n lines of length n.  The last pass runs in `out`'s
    memory (overwrite_x) and its result is returned.  The curve averages
    invert their boxes with a complex128 buffer.
    """
    n = out.shape[0]
    axes = sorted(range(3), key=lambda d: -rows[d].size)
    stage = box
    for d in axes[:-1]:
        shape = list(stage.shape)
        shape[d] = n
        wide = np.zeros(shape, dtype=out.dtype)
        wide[_along(d, rows[d])] = stage
        stage = sfft.ifft(wide, axis=d, overwrite_x=True, workers=_WORKERS)
    last = axes[-1]
    out.fill(0)
    out[_along(last, rows[last])] = stage
    return sfft.ifft(out, axis=last, overwrite_x=True, workers=_WORKERS)


def decoupling_ratio(exp: DecouplingExperiment) -> dict:
    """Measure D = ||sum_R c_R f_R||_p / (sum_R ||f_R||_p^p)^{1/p} per delta.

    Per delta the ratio is maximized over seeded trials; the report carries
    the fitted log2-log2 slope of D versus delta and the normalized values
    D(delta) * delta^{1/2 - 2/p} whose spread tracks the sharp-exponent
    prediction.  Seeding is hierarchical (seed, delta index, trial, plate)
    so reruns are bit-identical.

    The work follows the plate supports: overlaps are resolved on the
    union of supports (_disjoint_pieces), each piece is inverted by a
    pruned transform into one reused n^3 buffer (_pruned_ifftn), and one
    pass over axis-0 slabs adds it into a physical-space accumulator and
    sums its |f|^p (for p = 2 both sums stay in frequency space, by
    Parseval).  The transforms hold two complex64 n^3 grids, the buffer
    and the accumulator, with float64 reductions: each slab's |f|^2 is
    widened to float64 before its powers and sums, and D stays within
    4e-9 relative of a complex128 run (3.7e-9 on the decouple-grid
    inputs, 3.3e-9 on acc11's).  p = 2 holds one complex128 accumulator.
    A grid whose arrays exceed the machine's physical memory raises
    GridTooLarge before anything is built.
    """
    grid = Grid3(exp.n, exp.box)
    n = grid.n
    # p = 2 is Parseval: the pieces' coefficients are summed in frequency
    # space and no transform is needed
    parseval = exp.p == 2.0
    space = "frequency" if parseval else "physical"
    dtype = complex if parseval else np.complex64
    # the accumulator, and the transforms' buffer
    _require_memory("decoupling", n, 1 if parseval else 2, dtype)
    g = exp.family.generator
    lam, theta = exp.family.lam, exp.family.theta
    acc = np.empty((n,) * 3, dtype=dtype)
    buf = None if parseval else np.empty((n,) * 3, dtype=dtype)
    per_delta = []
    for di, delta in enumerate(exp.deltas):
        fam = make_family(g, delta, lam, theta, math.sqrt(delta))
        kept = _disjoint_pieces(
            [_plate_envelope(plate, grid) for plate in fam.plates], n)
        best = 0.0
        for trial in range(exp.trials):
            acc.fill(0)
            piece_p = 0.0
            crng = np.random.default_rng([exp.seed, di, trial, 10_007])
            for pi, (idx, env) in enumerate(kept):
                rng = np.random.default_rng([exp.seed, di, trial, pi])
                phases = np.exp(2j * np.pi * rng.random(idx[0].size))
                if exp.coefficient_mode == "random_sign":
                    c = 1.0 if crng.random() < 0.5 else -1.0
                else:
                    c = 1.0
                vals = env * phases
                if parseval:
                    acc[idx] += c * vals
                    piece_p += _power_sum(vals, 2.0) / n**3
                    continue
                rows = [np.unique(i) for i in idx]
                box = np.zeros([r.size for r in rows], dtype=dtype)
                box[tuple(np.searchsorted(r, i)
                          for r, i in zip(rows, idx))] = vals
                f = _pruned_ifftn(rows, box, buf)
                add = np.add if c > 0 else np.subtract
                for s in _slabs(f):
                    add(acc[s], f[s], out=acc[s])
                    piece_p += _power_sum(f[s], exp.p)
            total = lp_norm(Field3(grid, acc, space), exp.p)
            best = max(best, total
                       / (grid.cell_volume * piece_p) ** (1.0 / exp.p))
        per_delta.append(best)
    d_arr = np.asarray(per_delta)
    deltas = np.asarray(exp.deltas, dtype=float)
    normalized = d_arr * deltas ** (0.5 - 2.0 / exp.p)
    report = {
        "p": exp.p,
        "coefficient_mode": exp.coefficient_mode,
        "deltas": deltas.tolist(),
        "D": d_arr.tolist(),
        "normalized": normalized.tolist(),
        "band_ratio": float(normalized.max() / normalized.min()),
        "slope": fit_line(np.log2(deltas), np.log2(d_arr))[0],
        "n": exp.n,
        "box": exp.box,
        "trials": exp.trials,
        "seed": exp.seed,
    }
    return report


# ---------------------------------------------------------------------------
# averaging operators along a curve
# ---------------------------------------------------------------------------


def default_chi(curve: Curve, shrink: float = 1.0) -> Callable:
    """Smooth cutoff supported in the (optionally shrunk) curve domain."""
    lo, hi = curve.domain
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * shrink

    def chi(s):
        return eta0((np.asarray(s, dtype=float) - mid) / half)

    return chi


def _chi_support(curve: Curve, chi: Callable):
    """Domain interval holding chi's support, found on 257 probes."""
    lo, hi = curve.domain
    s, pad = np.linspace(lo, hi, 257, retstep=True)
    w = np.asarray(chi(s))
    live = np.nonzero(w > 0)[0]
    if live.size == 0:
        raise ValueError("cutoff vanishes on the curve domain")
    return max(lo, s[live[0]] - pad), min(hi, s[live[-1]] + pad)


_MAX_NODES = 4000
_CHUNK = 2**22  # complex elements per intermediate array
_NODE_BLOCK = 128  # inner dimension of each symbol matrix product


def _curve_quadrature(curve: Curve, chi: Callable,
                      t_kmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes gamma(s_j) (nodes x 3) and weights chi(s_j) ds_j.

    The rule is one gauss_legendre panel over the cutoff's support; its
    node count tracks the phase range t * max|xi| * max|gamma| (a few
    nodes per radian), so it stays spectrally accurate for frequencies up
    to kmax at dilation t.  A phase range that needs more than _MAX_NODES
    nodes raises QuadratureFailure rather than being under-resolved.
    """
    lo, hi = _chi_support(curve, chi)
    gmax = float(np.linalg.norm(curve.eval(np.linspace(lo, hi, 65)),
                                axis=0).max())
    nodes = int(max(201, 4.0 * abs(t_kmax) * gmax))
    if nodes > _MAX_NODES:
        raise QuadratureFailure(
            f"curve average needs {nodes} Gauss-Legendre nodes, more than "
            f"the limit of {_MAX_NODES}")
    s, w = gauss_legendre(lo, hi, nodes)
    return curve.eval(s).T, w * np.asarray(chi(s))


def _kmax(Xi: np.ndarray) -> float:
    """Largest |xi| over the frequency rows of Xi (0 if there are none)."""
    return float(np.max(np.linalg.norm(Xi, axis=1))) if Xi.size else 0.0


def _lattice_symbol(grid: Grid3, rows, gam: np.ndarray, w: np.ndarray,
                    t: float) -> np.ndarray:
    """Curve-average symbol on the lattice box rows[0] x rows[1] x rows[2].

    On the lattice the phase separates, exp(-i t <xi, gamma(s)>) =
    prod_d exp(-i t xi_d gamma_d(s)), so the symbol on the box is
    S[a,b,c] = sum_s w_s E_0[a,s] E_1[b,s] E_2[c,s] with per-axis tables
    E_d built from the box's rows on axis d (ascending lattice indices).
    S is contracted by matrix products over chunks of axis-0 rows, each
    intermediate holding at most _CHUNK elements, and returned whole.
    """
    ax = grid.freq_axis()
    e0, e1, e2 = (np.exp(-1j * t * np.outer(ax[r], gam[:, d]))
                  for d, r in enumerate(rows))
    e0 = e0 * w
    n0, n1, n2 = (r.size for r in rows)
    nodes = gam.shape[0]
    box = np.zeros((n0, n1, n2), dtype=complex)
    step = max(1, _CHUNK // max(1, n1 * max(n2, nodes)))
    for i in range(0, n0, step):
        pair = (e0[i:i + step, None, :] * e1[None]).reshape(-1, nodes)
        acc = box[i:i + step].reshape(-1, n2)  # a view into box
        # BLAS may split a longer inner dimension differently per thread
        # count; fixed node blocks keep the summation order, and so the
        # last bits, independent of it
        for j in range(0, nodes, _NODE_BLOCK):
            acc += pair[:, j:j + _NODE_BLOCK] @ e2[:, j:j + _NODE_BLOCK].T
    return box


def mu_hat(curve: Curve, chi: Callable, t: float,
           Xi: np.ndarray) -> np.ndarray:
    """Oscillatory averages int exp(-i t <gamma(s), xi>) chi(s) ds per row.

    Works for arbitrary frequency rows at one complex exp per (row, node)
    pair; lattice supports go through _lattice_symbol instead, whose cost
    is (per-axis rows x nodes) exps plus one contraction over the
    support's bounding box.  The quadrature is _curve_quadrature's.
    """
    Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
    gam, w = _curve_quadrature(curve, chi, t * _kmax(Xi))
    # chunk the (m, nodes) phase matrix so memory stays bounded
    out = np.empty(Xi.shape[0], dtype=complex)
    step = max(1, _CHUNK // gam.shape[0])
    for i in range(0, Xi.shape[0], step):
        phase = Xi[i:i + step] @ gam.T
        out[i:i + step] = np.exp(-1j * t * phase) @ w
    return out


def _support_box(f: Field3):
    """(rows, box): the lattice rows that f-hat's support uses on each
    axis (ascending) and f-hat on rows[0] x rows[1] x rows[2]."""
    vals = f.to_frequency().values
    live = vals != 0
    rows = [np.flatnonzero(live.any(axis=tuple(e for e in range(3) if e != d)))
            for d in range(3)]
    return rows, vals[np.ix_(*rows)]


def _scatter(grid: Grid3, rows, box: np.ndarray) -> np.ndarray:
    """The n^3 array that is `box` on the lattice rows `rows`, 0 off them."""
    vals = np.zeros((grid.n,) * 3, dtype=box.dtype)
    vals[np.ix_(*rows)] = box
    return vals


def _averages(grid: Grid3, rows, fbox: np.ndarray, curve: Curve,
              chi: Callable, ts):
    """Iterator over the t of `ts`, in order, of A_t f-hat on f-hat's box.

    f-hat is `fbox` on the lattice rows `rows` (ascending per axis) and 0
    off them, and each A_t f-hat is a new array on the same box: no n^3
    array is built.  The range, memory and wraparound checks, the largest
    |xi| of f-hat's support and the quadrature (sized for the largest t)
    run once, when _averages is called; each t then costs one
    _lattice_symbol contraction of the box and one product with fbox.
    The memory check counts the two boxes and what a caller inverting
    A_t f with _pruned_ifftn holds: its n^3 buffer and the two stages
    that fill it.
    """
    ts = [float(t) for t in ts]
    if not ts or not all(0.5 <= t <= 2.0 for t in ts):
        raise ValueError("need one or more t samples, each in [1/2, 2]")
    n = grid.n
    _, rb, rc = sorted(r.size for r in rows)[::-1]
    _require_memory("averaging", n,
                    1 + (2 * fbox.size + n * rc * (rb + n)) / n**3, complex)
    # the scaled curve's spread grows with t, so the largest t decides
    lo, hi = _chi_support(curve, chi)
    pts = curve.eval(np.linspace(lo, hi, 257)).T
    diameter = np.linalg.norm(pts[:, None] - pts[None, :], axis=2).max()
    if max(ts) * diameter > grid.box / 2.0 - 0.5:
        raise WraparoundRisk(
            "scaled curve spread exceeds half the periodic box")
    gam, w = _curve_quadrature(
        curve, chi, max(ts) * _kmax(grid.freq_points(fbox != 0, rows)))
    return (fbox * _lattice_symbol(grid, rows, gam, w, t) for t in ts)


def averaging_operator(f: Field3, curve: Curve, chi: Callable,
                       t: float) -> Field3:
    """A_t f: frequency multiplication by the curve-average symbol on the
    box of f-hat's support (the one-sample t-set of _averages), scattered
    into the grid."""
    rows, box = _support_box(f)
    at = next(_averages(f.grid, rows, box, curve, chi, [t]))
    return Field3(f.grid, _scatter(f.grid, rows, at), "frequency")


def default_t_samples(n_equi: int = 65) -> np.ndarray:
    """Equispaced t in [1,2] plus the admissible dyadic values."""
    base = np.linspace(1.0, 2.0, n_equi)
    dyadic = np.array([0.5, 1.0, 2.0])
    return np.unique(np.concatenate([base, dyadic]))


def maximal_operator(f: Field3, curve: Curve, chi: Callable,
                     t_samples: Sequence[float]) -> Field3:
    """Pointwise max over the sampled dilations of |A_t f|: one t-set of
    _averages on the box of f-hat's support, inverted by _sup_abs."""
    rows, box = _support_box(f)
    return _sup_abs(f.grid, rows,
                    _averages(f.grid, rows, box, curve, chi, t_samples))


def _sup_abs(grid: Grid3, rows, boxes) -> Field3:
    """Pointwise max of |A f| over `boxes` (A f-hat on `rows`), inverted by
    _pruned_ifftn into one n^3 buffer built after their _averages checks."""
    buf = np.empty((grid.n,) * 3, dtype=complex)
    out = np.zeros((grid.n,) * 3, dtype=float)
    for at in boxes:
        np.maximum(out, np.abs(_pruned_ifftn(rows, at, buf)), out=out)
    return Field3(grid, out.astype(complex), "physical")


def _band_box(grid: Grid3, k: int, seed):
    """Random phases on the dyadic band 2^{k-1} <= |xi| <= 2^k, on its box.

    Returns (rows, box): the lattice rows with |xi_d| <= 2^k (ascending,
    the same on each axis) and the field on rows^3.  A band point's phase
    is drawn in the row-major order of the band's points, which on
    ascending rows is their order on the whole grid, so the field is the
    one drawn there.
    """
    kmax = np.pi * grid.n / grid.box
    if 2.0**k > kmax + 1e-9:
        raise GridTooLarge(
            f"band 2^{k} exceeds the lattice radius {kmax:.1f}")
    rows = [np.flatnonzero(np.abs(grid.freq_axis()) <= 2.0**k)] * 3
    _require_memory("a band field", rows[0].size, 2, complex)  # |xi|, values
    kx, ky, kz = grid.freq_mesh(rows)
    r = np.sqrt(kx**2 + ky**2 + kz**2)
    band = (r >= 2.0 ** (k - 1)) & (r <= 2.0**k)
    rng = np.random.default_rng(seed)
    box = np.zeros(band.shape, dtype=complex)
    box[band] = np.exp(2j * np.pi * rng.random(np.count_nonzero(band)))
    return rows, box


def random_band_field(grid: Grid3, k: int, seed,
                      real: bool = False) -> Field3:
    """Random-phase field supported on the dyadic annulus 2^{k-1} <= |xi| <= 2^k
    (_band_box scattered into the grid)."""
    # the box (at most n^3) and the grid it is scattered into; a real field
    # also holds the physical inverse, its real part as complex and the
    # forward transform of that
    _require_memory("a band field", grid.n, 4 if real else 2, complex)
    fld = Field3(grid, _scatter(grid, *_band_box(grid, k, seed)),
                 "frequency")
    if real:
        phys = fld.to_physical()
        return Field3(grid, phys.values.real.astype(complex),
                      "physical").to_frequency()
    return fld


def _box_lp_norm(grid: Grid3, rows, box: np.ndarray, p: float,
                 buf: np.ndarray) -> float:
    """lp_norm of the frequency field that is `box` on `rows` and 0 off
    them, inverted by _pruned_ifftn into the n^3 buffer `buf`."""
    return lp_norm(Field3(grid, _pruned_ifftn(rows, box, buf), "physical"), p)


def _box_sobolev_ratio(grid: Grid3, rows, fbox: np.ndarray, curve: Curve,
                       chi: Callable, p: float, alpha: float,
                       buf: np.ndarray) -> float:
    """sobolev_ratio of the field that is `fbox` on `rows`, 0 off them,
    with `buf` as the n^3 transform buffer."""
    at = next(_averages(grid, rows, fbox, curve, chi, [1.0]))
    kx, ky, kz = grid.freq_mesh(rows)
    at *= (1.0 + kx**2 + ky**2 + kz**2) ** (alpha / 2.0)
    return (_box_lp_norm(grid, rows, at, p, buf)
            / _box_lp_norm(grid, rows, fbox, p, buf))


def sobolev_ratio(f: Field3, curve: Curve, chi: Callable, p: float,
                  alpha: float) -> float:
    """||(1+|xi|^2)^{alpha/2} A_1 f||_p / ||f||_p.

    Works on the box of f-hat's support: A_1 f-hat comes from _averages
    and the weight multiplies that box only; A_1 f and f are inverted by
    _pruned_ifftn into one n^3 buffer and reduced by lp_norm over its
    _slabs.
    """
    rows, box = _support_box(f)
    return _box_sobolev_ratio(f.grid, rows, box, curve, chi, p, alpha,
                              np.empty((f.grid.n,) * 3, dtype=complex))


def sobolev_sweep(curve: Curve, chi: Callable, p: float, alpha: float,
                  k_list: Sequence[int], n: int = 128, box: float = 3.0,
                  seed: int = 0) -> dict:
    """Per-band Sobolev ratios and the fitted log2 slope across bands.

    Each band field stays on its box (_band_box) from the draw to the
    L^p sums, as in sobolev_ratio; one n^3 buffer serves every band.
    """
    grid = Grid3(n, box)
    _require_memory("a Sobolev sweep", n, 1, complex)  # the buffer
    buf = np.empty((n,) * 3, dtype=complex)
    ratios = []
    for k in k_list:
        rows, fbox = _band_box(grid, k, [seed, k])
        ratios.append(_box_sobolev_ratio(grid, rows, fbox, curve, chi, p,
                                         alpha, buf))
    ratios = np.asarray(ratios)
    return {
        "p": p, "alpha": alpha, "k_list": list(k_list),
        "ratios": ratios.tolist(),
        "slope": fit_line(np.asarray(k_list, float), np.log2(ratios))[0],
        "n": n, "box": box, "seed": seed,
    }


_SMOOTHING_CELLS = 2**24  # largest space-time grid n_t * n^3


def local_smoothing_probe(curve: Curve, chi: Callable, p: float,
                          alpha: float, k_list: Sequence[int],
                          n: int = 32, box: float = 6.0, n_t: int = 17,
                          seed: int = 0) -> dict:
    """Space-time smoothing probe: weighted norm of (x,t) -> A_t f(x).

    For each band k a random field is averaged over n_t equispaced t in
    [1, 2], one t-set of _averages.  The (tau, xi) spectrum is built on the
    band's box (_band_box): the t-windowed A_t f-hat, then one FFT in t.
    The weight (1+|xi|^2+tau^2)^{alpha/2} is applied on the box, an
    inverse FFT in t follows, and each t-plane is inverted by
    _pruned_ifftn into one n^3 buffer whose |.|^p is summed over _slabs.
    The mixed-norm ratio against ||f||_p is recorded with a fitted slope
    in k.  Report-only: downstream suites assert only the alpha = 0
    uniformity.
    """
    if n**3 * n_t > _SMOOTHING_CELLS:
        raise GridTooLarge("space-time grid exceeds the cell budget")
    grid = Grid3(n, box)
    t_grid = np.linspace(1.0, 2.0, n_t)
    dt = t_grid[1] - t_grid[0]
    t_window = eta0((t_grid - 1.5) / 0.5)
    tau = 2.0 * np.pi * np.fft.fftfreq(n_t, d=dt)
    buf = np.empty((n,) * 3, dtype=complex)
    ratios = []
    for k in k_list:
        rows, fbox = _band_box(grid, k, [seed, k])
        spec = np.empty((n_t,) + fbox.shape, dtype=complex)
        for i, at in enumerate(_averages(grid, rows, fbox, curve, chi,
                                         t_grid)):
            spec[i] = t_window[i] * at
        spec = sfft.fft(spec, axis=0, overwrite_x=True, workers=_WORKERS)
        kx, ky, kz = grid.freq_mesh(rows)
        xi2 = kx**2 + ky**2 + kz**2
        for i in range(n_t):
            spec[i] *= (1.0 + xi2 + tau[i] ** 2) ** (alpha / 2.0)
        spec = sfft.ifft(spec, axis=0, overwrite_x=True, workers=_WORKERS)
        total = 0.0
        for plane in spec:
            ft = _pruned_ifftn(rows, plane, buf)
            for s in _slabs(ft):
                total += _power_sum(ft[s], p)
        mixed = (total * grid.cell_volume * dt) ** (1.0 / p)
        ratios.append(mixed / _box_lp_norm(grid, rows, fbox, p, buf))
    ratios = np.asarray(ratios)
    return {
        "p": p, "alpha": alpha, "k_list": list(k_list),
        "ratios": ratios.tolist(),
        "slope": fit_line(np.asarray(k_list, float), np.log2(ratios))[0],
        "n": n, "n_t": n_t, "box": box, "seed": seed,
    }


# ---------------------------------------------------------------------------
# two-parameter helix family
# ---------------------------------------------------------------------------


def helix_family_curve(a: float, b: float) -> Curve:
    """gamma_{a,b}(s) = (a cos 2*pi*s, a sin 2*pi*s, b s) on [-1, 1]."""
    tp = 2.0 * np.pi

    def dv(s, j):
        w = tp**j
        cx, sx = trig_cycle(tp * s, j)
        z = b * s if j == 0 else (b if j == 1 else 0.0)
        return vec(s, a * cx * w, a * sx * w, z)

    return Curve(lambda s: dv(s, 0), dv, domain=(-1.0, 1.0), analytic_order=5,
                 name=f"helix_family({a},{b})")


def helix_phase_identity(a: float, b: float, s: float,
                         xi: np.ndarray) -> tuple[float, float]:
    """Both sides of the a-derivative identity for the helix-family phase.

    lhs = d/da <gamma_{a,b}(s), xi>; rhs = -(4 pi^2 a)^{-1} <gamma''_{a,b}(s), xi>.
    The two agree identically because the radial parameter scales exactly
    the components that the second s-derivative reproduces.
    """
    xi = np.asarray(xi, dtype=float)
    tp = 2.0 * np.pi
    lhs = xi[0] * math.cos(tp * s) + xi[1] * math.sin(tp * s)
    curve = helix_family_curve(a, b)
    rhs = -float(curve.derivative(s, 2) @ xi) / (4.0 * np.pi**2 * a)
    return lhs, rhs


def two_param_maximal(f: Field3, t_fixed: float,
                      ab_samples: Sequence[tuple[float, float]]) -> Field3:
    """Pointwise sup over (a,b) of |A_{t_fixed} f| along gamma_{a,b}, each
    curve cut off by default_chi(curve, shrink=0.5) (_averages, _sup_abs)."""
    if not ab_samples:
        raise ValueError("need at least one (a, b) sample")
    for a, b in ab_samples:
        if not (1.0 < a < 2.0 and 1.0 < b < 2.0):
            raise ValueError("(a, b) samples must lie in (1,2)^2")
    rows, box = _support_box(f)
    curves = [helix_family_curve(a, b) for a, b in ab_samples]
    sets = [_averages(f.grid, rows, box, c, default_chi(c, shrink=0.5),
                      [t_fixed]) for c in curves]
    return _sup_abs(f.grid, rows, (at for ats in sets for at in ats))
