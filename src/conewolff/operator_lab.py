"""FFT-based 3-D field engine for multiplier and averaging experiments.

Provides a periodic-box spectral toolkit on a cubic grid (Grid3).  A field
is given by its Fourier coefficients on a lattice box: (grid, rows, box),
the ascending lattice rows it uses on each axis and its values on their
product, 0 off it.  On that form live L^p norms summed over the whole grid
with no n^3 array (lp_norm), plate envelopes and decoupling-ratio
measurements with exponent fits, seeded band fields, curve-averaging
operators A_t with sampled maximal (an n^3 float array of the pointwise
sup) and Sobolev-weighted variants, a space-time smoothing probe, and the
two-parameter helix family with its exact phase-derivative identity.  The
L^p sums and the sups invert a box slab by slab through one pruned
transform (_slabs).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
# no conewolff code calls leggauss here (the rules come from
# gauss_legendre): the name stays only because perfbench/tracing.py wraps
# it, as symbol_decomposition.quad is kept
from numpy.polynomial.legendre import leggauss  # noqa: F401

from .cone_plates import Plate, make_family
from .curve_geometry import Curve, fit_line, gauss_legendre, vec, trig_cycle
from .errors import (GridTooLarge, PlateUnresolved, QuadratureFailure,
                     WraparoundRisk)
from .symbol_decomposition import eta0


# the one transform module; perfbench/tracing.py patches this name
sfft = np.fft


# ---------------------------------------------------------------------------
# grid and L^p sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid3:
    """Periodic cubic grid: n samples per axis over a box of side `box`."""

    n: int
    box: float = 8.0

    def __post_init__(self):
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError("grid size must be a power of two >= 2")
        if not 0.0 < self.box < math.inf:
            raise ValueError(f"require finite box > 0, got box={self.box}")

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


def _abs2(slab: np.ndarray) -> np.ndarray:
    """|z|^2 = re^2 + im^2 of a complex128 (or float64) slab, as a new
    float64 array."""
    m2 = np.square(slab.real)
    if np.iscomplexobj(slab):
        m2 += np.square(slab.imag)
    return m2


def _power_sum(slab: np.ndarray, p: float, m2=None) -> float:
    """sum |z|^p over a complex128 slab, or over a float64 one without
    `m2` (a maximal function's buffer).

    Without `m2` the slab is left as it is and |z|^2 is a new array.  With
    `m2`, a float64 buffer of the slab's shape, nothing is allocated and
    the slab (C-contiguous) is overwritten: its float view is squared in
    place and summed pairwise into m2, and its memory then holds the
    power chain.  For an even integer p, m2^(p/2) is built by squaring
    and multiplying in place, left to right over the bits of p/2; any
    other p takes one np.power.
    """
    if m2 is None:
        m2 = _abs2(slab)
        acc = None
    else:
        v = slab.view(float)
        np.square(v, out=v)
        np.add(v[..., 0::2], v[..., 1::2], out=m2)
        acc = v.reshape(-1)[:m2.size].reshape(m2.shape)
    if p % 2.0:
        np.power(m2, p / 2.0, out=m2)
        return float(np.sum(m2))
    bits = bin(int(p // 2))[3:]
    if acc is None:
        acc = np.empty_like(m2) if "1" in bits else m2
    out = m2
    for bit in bits:
        out = np.multiply(out, out, out=acc)
        if bit == "1":
            acc *= m2
    return float(np.sum(out))


# ---------------------------------------------------------------------------
# plate envelopes
# ---------------------------------------------------------------------------


def _plate_envelope(plate: Plate, grid: Grid3):
    """Smooth plate bump on the lattice: (index triple, envelope values).

    The envelope is BumpFunction's product of eta0 over Plate.unit_coords,
    whose support is exactly the A=1 plate box; only the box's
    axis-aligned bounding lattice region is touched.  The separation-scale
    side (half-width lam*sqrt(delta)) must span >= 4 lattice cells; the
    thin lam*delta side may be coarser than the lattice, in which case it
    selects a quasi-random slice of lattice planes.
    """
    spacing = 2.0 * np.pi / grid.box
    b = plate.bounds
    if 2.0 * b[1] < 4.0 * spacing:
        raise PlateUnresolved(
            "plate side lam*sqrt(delta) spans fewer than 4 lattice cells")
    kmax = spacing * grid.n / 2.0
    corners = plate.corners()
    if float(np.max(np.linalg.norm(corners, axis=1))) > kmax:
        raise PlateUnresolved("plate extends beyond the frequency lattice")

    ax = grid.freq_axis()
    sub = [np.nonzero((ax >= corners[:, d].min() - spacing)
                      & (ax <= corners[:, d].max() + spacing))[0]
           for d in range(3)]
    a = plate.unit_coords(grid.freq_mesh(sub))
    idx = np.nonzero(np.all(np.abs(a) < 1.0, axis=0))
    e = eta0(a[(slice(None), *idx)])
    return tuple(s[i] for s, i in zip(sub, idx)), e[0] * e[1] * e[2]


# ---------------------------------------------------------------------------
# decoupling experiments
# ---------------------------------------------------------------------------


def _phases(seed, m: int) -> np.ndarray:
    """m unit phases exp(2 pi i U), U uniform on [0, 1) drawn by
    default_rng(seed): the one draw of every random field."""
    return np.exp(2j * np.pi * np.random.default_rng(seed).random(m))


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


def _along(axis: int, rows) -> tuple:
    """Index selecting `rows` on one axis of a 3-D array, all of the rest."""
    return tuple(rows if d == axis else slice(None) for d in range(3))


def _runs(rows: np.ndarray, length: int):
    """The runs of consecutive `rows` (ascending, below `length`) and the
    gaps they leave in 0..length - 1: (runs, gaps), each run a pair (its
    positions in `rows`, its rows) and each gap its rows, all slices."""
    ends = [*np.flatnonzero(np.diff(rows) != 1) + 1, rows.size]
    starts = [0, *ends[:-1]] if rows.size else []
    runs = [(slice(i, j), slice(int(rows[i]), int(rows[j - 1]) + 1))
            for i, j in zip(starts, ends)]
    edges = [0, *(x for _, r in runs for x in (r.start, r.stop)), length]
    return runs, [slice(a, b) for a, b in zip(edges[::2], edges[1::2])
                  if b > a]


def _place(dst: np.ndarray, axis: int, runs, src: np.ndarray) -> None:
    """Fill `dst` with `src` on the rows of `runs` (a _runs pair) along
    `axis` and with 0 on the gaps: one slice copy per run, one fill per
    gap, so every entry of `dst` is written once (on the last axis a
    slice copy is about 10x faster than one through an index array)."""
    copies, gaps = runs
    for at, rows in copies:
        dst[_along(axis, rows)] = src[_along(axis, at)]
    for rows in gaps:
        dst[_along(axis, rows)] = 0


_BLOCK = 2**16  # elements of each slab buffer in _slabs


def _planes(ma: int, mb: int, mc: int) -> int:
    """Planes of an ma x mb x mc grid in a slab of _slabs: _BLOCK
    elements, at least one plane and at most the grid."""
    return min(max(1, _BLOCK // (mb * mc)), ma)


def _slabs(rows, box: np.ndarray, lengths):
    """Yield F = sfft.ifftn slab by slab, for the lengths[0] x lengths[1]
    x lengths[2] array that is `box` on rows[0] x rows[1] x rows[2]
    (ascending per axis) and 0 off them; no array of its size is built.

    The first 1-D inverse pass runs on the whole box along the axis a of
    widest support.  The passes along b and c (falling row counts) then
    run slab by slab over a, in two complex128 buffers of _planes planes,
    allocated once per call and filled by _place; every pass writes its
    input in place (out=).  Each item is
    (axes, i, f): f is F.transpose(axes)[i:i + len(f)], a C-contiguous
    view that the caller may overwrite and the next slab overwrites.
    """
    axes = a, b, c = sorted(range(3), key=lambda d: -rows[d].size)
    ma, mb, mc, nc = lengths[a], lengths[b], lengths[c], rows[c].size
    shape = list(box.shape)
    shape[a] = ma
    stage = np.empty(shape, dtype=complex)
    _place(stage, a, _runs(rows[a], ma), box)
    stage = sfft.ifft(stage, axis=a, out=stage).transpose(axes)
    runs_b, runs_c = _runs(rows[b], mb), _runs(rows[c], mc)
    step = _planes(ma, mb, mc)
    narrow = np.empty(step * mb * nc, dtype=complex)
    wide = np.empty(step * mb * mc, dtype=complex)
    for i in range(0, ma, step):
        part = stage[i:i + step]
        k = part.shape[0]
        g = narrow[:k * mb * nc].reshape(k, mb, nc)
        _place(g, 1, runs_b, part)
        g = sfft.ifft(g, axis=1, out=g)
        f = wide[:k * mb * mc].reshape(k, mb, mc)
        _place(f, 2, runs_c, g)
        yield axes, i, sfft.ifft(f, axis=2, out=f)


def _box_power_sum(rows, box: np.ndarray, p: float, lengths) -> float:
    """sum |F|^p over the grid, F as in _slabs (the same arguments).

    p = 2 is Parseval on the box, with no transform (an empty box sums to
    0 for every p).  Otherwise _power_sum reduces each slab of _slabs in
    place, squaring for an even integer p, in one float64 buffer
    allocated for the first (largest) slab: a slab allocates nothing.
    """
    if p == 2.0 or not box.size:
        return _power_sum(box, 2.0) / math.prod(lengths)
    total, m2 = 0.0, None
    for _, _, f in _slabs(rows, box, lengths):
        if m2 is None:
            m2 = np.empty(f.size)
        total += _power_sum(f, p, m2[:f.size].reshape(f.shape))
    return total


def lp_norm(grid: Grid3, rows, box: np.ndarray, p: float) -> float:
    """Riemann-sum L^p norm over the physical box of the field whose
    Fourier coefficients are `box` on the lattice rows `rows` (ascending
    per axis) and 0 off them: one _box_power_sum over the whole grid, so
    no n^3 array is built.  A p that is NaN, below 1 or infinite is
    refused; a maximal function's sup is the max of its float buffer."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"require finite p >= 1, got p={p}")
    total = _box_power_sum(rows, box, p, (grid.n,) * 3)
    return float((grid.cell_volume * total) ** (1.0 / p))


@dataclass(frozen=True)
class _Baseband:
    """Where |f|^p of a field on n^3 lattice entries is summed (_baseband)."""

    rows: list  # per axis, ascending rows of the cyclic span moved to 0
    lengths: tuple  # grid points M_d per axis
    at: tuple  # the entries' positions in the box on `rows`
    p: float  # the exponent the grid is sized for
    scale: float  # (prod M_d / n^3)^(p - 1)

    def power_sum(self, vals: np.ndarray) -> float:
        """sum over the n^3 grid of |f|^p, f the inverse DFT of `vals` on
        the entries: _box_power_sum on this grid, times `scale`.  Only the
        p it was built for: a larger even p aliases on a reduced grid."""
        box = np.zeros([r.size for r in self.rows], dtype=complex)
        box[self.at] = vals
        return self.scale * _box_power_sum(self.rows, box, self.p,
                                           self.lengths)


def _fast_len(m: int) -> int:
    """The smallest length >= m >= 1 with no prime factor above 11: the
    first divisor of (2*3*5*7*11)^64, as each such length below 2^64 is."""
    return next(k for k in itertools.count(m) if 2310**64 % k == 0)


def _move(i: np.ndarray, n: int):
    """One axis's rows `i` of n^3 lattice entries moved to start at 0 of
    their cyclic span r (the shortest run of rows, modulo n, that holds
    them all): (the moved rows, in the same order; their ascending
    distinct values; r), r = 1 for no rows."""
    r = np.unique(i)
    start, span = 0, 1
    if r.size:
        gaps = np.diff(r, append=r[0] + n)
        g = int(np.argmax(gaps))
        start, span = int(r[(g + 1) % r.size]), n + 1 - int(gaps[g])
    return (i - start) % n, np.sort((r - start) % n), span


def _baseband(idx, n: int, p: float) -> _Baseband:
    """The grid on which sum |f|^p of a field on the n^3 lattice entries
    `idx` (an index triple) is exact.

    The entries are first sheared: moved by m -> U.m mod n, U =
    _shear_matrix of their _move, so that the spans below are taken along
    the support's narrow lattice directions rather than the axes.  With
    det U = +-1, U is invertible over the integers and so modulo n:
    distinct entries stay distinct, and y -> U^T y permutes (Z/n)^3.  The
    field with f's values moved to U.m is f(U^T y), since (U.m).y =
    m.(U^T y), so its n^3 sum of |.|^p is f's for every p.

    Per axis d the sheared entries' rows are then moved to start at 0 of
    their cyclic span r_d (_move): a modulation, which leaves |f|
    unchanged.  For even p, |f|^p is then a trigonometric polynomial with
    frequencies |m| <= (p/2)(r_d - 1) on axis d, so any M_d > (p/2)(r_d -
    1) points give its mean, and the n^3 sum is the M-grid sum times
    (prod M_d / n^3)^(p - 1) (the inverse DFT's 1/M_d in place of 1/n, p
    times, and the point count once).  M_d is min(n, _fast_len((p/2)(r_d -
    1) + 1)); any other p sums on M_d = n.
    """
    even = p % 2.0 == 0.0
    u = _shear_matrix(np.stack([_move(i, n)[0] for i in idx]))
    rows, lengths, at = [], [], []
    for i in (u @ np.stack(idx)) % n:
        moved, r, span = _move(i, n)
        rows.append(r)
        at.append(np.searchsorted(r, moved))
        lengths.append(min(n, _fast_len(int(p // 2) * (span - 1) + 1))
                       if even else n)
    scale = (math.prod(lengths) / n**3) ** (p - 1.0)
    return _Baseband(rows, tuple(lengths), tuple(at), p, scale)


# the rows _shear_matrix may pick: primitive integer vectors with entries in
# [-3, 3], one of each +-pair (first nonzero entry positive), in a fixed
# order: by l1 norm, the axes first and in axis order
_SHEAR_ROWS = np.array(sorted(
    (v for v in itertools.product(range(3, -4, -1), repeat=3)
     if math.gcd(*v) == 1 and next(x for x in v if x) > 0),
    key=lambda v: sum(map(abs, v))), dtype=np.int64)
_SHEAR_BLOCK = 16  # candidate rows the entries are projected onto at once


def _shear_matrix(m: np.ndarray) -> np.ndarray:
    """Integer 3x3 matrix U, det U = +-1, whose rows are lattice directions
    in which the lattice entries m (3 x entries, each axis's rows moved by
    _move, so rows that wrap past index 0 lie together in 0..r_d - 1) are
    narrow.

    The width of a row v is max - min + 1 of v.m over the entries: a bound
    on the cyclic span of (v.m mod n) of the unmoved entries, and the
    axes' widths are the spans r_d.  The entries are projected onto
    _SHEAR_ROWS in blocks of _SHEAR_BLOCK rows, so no array exceeds
    entries x block.  Rows are taken greedily by width (a stable sort, so
    ties go to the earlier row): the narrowest, then the narrowest whose
    cross product with it is primitive (the pair extends to a unimodular
    basis), then the narrowest completing det = +-1.  The identity is
    returned, never a matrix of another determinant, when no completion
    exists among the candidates, and for no entries.
    """
    eye = np.eye(3, dtype=np.int64)
    if not m.shape[1]:
        return eye
    width = np.concatenate([
        np.ptp(_SHEAR_ROWS[i:i + _SHEAR_BLOCK] @ m, axis=1) + 1
        for i in range(0, len(_SHEAR_ROWS), _SHEAR_BLOCK)])
    picked = []
    for j in np.argsort(width, kind="stable"):
        u = _SHEAR_ROWS[picked + [j]]
        if (len(u) == 2 and math.gcd(*map(int, np.cross(*u))) != 1
                or len(u) == 3 and abs(round(np.linalg.det(u))) != 1):
            continue
        picked.append(j)
        if len(picked) == 3:
            break
    return _SHEAR_ROWS[picked] if len(picked) == 3 else eye


def decoupling_ratio(generator: Curve, lam: float, theta: float, p: float,
                     deltas: Sequence[float], trials: int,
                     coefficient_mode: str = "random_sign", n: int = 256,
                     box: float = 8.0, seed: int = 0) -> dict:
    """Measure D = ||sum_R c_R f_R||_p / (sum_R ||f_R||_p^p)^{1/p} per delta.

    Per delta the plates R are the family on `generator` with lam, theta,
    delta and sigma = sqrt(delta); f_R is R's envelope times seeded random
    phases (_phases) on an n^3 lattice of side `box`, and c_R a random
    sign or 1 (`coefficient_mode`).  D is maximized over `trials` seeded
    trials (seeds: seed, delta index, trial, plate, so reruns are
    bit-identical); the report carries the log2-log2 slope of D versus
    delta and D(delta) * delta^{1/2 - 2/p}, whose spread tracks the
    sharp-exponent prediction.  An empty `deltas`, trials < 1, an unknown
    mode and a p below 2 or non-finite are refused before anything is
    built, and so (GridTooLarge) is a grid whose arrays exceed physical
    memory.

    Overlaps are resolved on the union of supports (_disjoint_pieces).
    Each kept piece, and the sum of all of them on the union of their
    rows, has its _baseband layout built once per delta: its entries are
    sheared by an integer U, det U = +-1, fitted to them, so that for even
    p a piece's sum |f_R|^p runs on a grid of about (p/2) r_d points per
    axis, r_d its cyclic row span across the plate, in place of n.  A
    single plate and its union are the same entries, so they get the same
    layout and D = 1 exactly.  Per trial every sum is one _box_power_sum
    (Parseval for p = 2), in complex128; no n^3 array is built.
    """
    if not 2.0 <= p < math.inf:
        raise ValueError(f"require finite p >= 2, got p={p}")
    if coefficient_mode not in ("random_sign", "all_ones"):
        raise ValueError(f"unknown coefficient mode {coefficient_mode!r}")
    if not len(deltas):
        raise ValueError("require at least one delta")
    if trials < 1:
        raise ValueError(f"require trials >= 1, got trials={trials}")
    grid = Grid3(n, box)
    # the sum's box on the union of the pieces' rows and the stage of its
    # first pass, each at most an n^3 complex grid
    _require_memory("decoupling", n, 2, complex)
    per_delta = []
    for di, delta in enumerate(deltas):
        fam = make_family(generator, delta, lam, theta, math.sqrt(delta))
        kept = _disjoint_pieces(
            [_plate_envelope(plate, grid) for plate in fam.plates], n)
        pieces = [_baseband(idx, n, p) for idx, _ in kept]
        union = _baseband(
            tuple(map(np.concatenate, zip(*(idx for idx, _ in kept)))), n, p)
        best = 0.0
        for trial in range(trials):
            piece_p = 0.0
            parts = []
            crng = np.random.default_rng([seed, di, trial, 10_007])
            for pi, ((_, env), layout) in enumerate(zip(kept, pieces)):
                c = 1.0
                if coefficient_mode == "random_sign" and crng.random() >= 0.5:
                    c = -1.0
                vals = env * _phases([seed, di, trial, pi], env.size)
                piece_p += layout.power_sum(vals)
                parts.append(c * vals)
            total = union.power_sum(np.concatenate(parts))
            best = max(best, (total / piece_p) ** (1.0 / p))
        per_delta.append(best)
    d_arr = np.asarray(per_delta)
    deltas = np.asarray(deltas, dtype=float)
    normalized = d_arr * deltas ** (0.5 - 2.0 / p)
    return {
        "p": p,
        "coefficient_mode": coefficient_mode,
        "deltas": deltas.tolist(),
        "D": d_arr.tolist(),
        "normalized": normalized.tolist(),
        "band_ratio": float(normalized.max() / normalized.min()),
        "slope": fit_line(np.log2(deltas), np.log2(d_arr))[0],
        "n": n,
        "box": box,
        "trials": trials,
        "seed": seed,
    }


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


def _chunk_rows(width: int) -> int:
    """Axis-0 rows per _lattice_symbol chunk of `width` elements a row:
    at most _CHUNK elements, and at least one row."""
    return max(1, _CHUNK // max(1, width))


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
    step = _chunk_rows(n1 * max(n2, nodes))
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


_DIAMETER_ROWS = 16  # probes per block of _diameter's pairwise distances


def _diameter(curve: Curve, chi: Callable) -> float:
    """Largest distance between two of 257 probes of the curve spread over
    chi's support: the pairwise distances of _DIAMETER_ROWS probes against
    all of them at a time, so no 257 x 257 array is built (each distance
    is the same norm of the same difference, so the maximum is bit-equal
    to the whole pairwise table's)."""
    lo, hi = _chi_support(curve, chi)
    pts = curve.eval(np.linspace(lo, hi, 257)).T
    return max(np.linalg.norm(pts[i:i + _DIAMETER_ROWS, None] - pts[None, :],
                              axis=2).max()
               for i in range(0, len(pts), _DIAMETER_ROWS))


def _xi2_blocks(grid: Grid3, rows):
    """(planes, |xi|^2 on them) over the box on `rows`, _planes axis-0
    planes at a time, each a view of one buffer that the next overwrites."""
    kx, ky, kz = grid.freq_mesh(rows)
    step = max(1, _BLOCK // max(1, ky.size * kz.size))
    buf = np.empty((min(step, kx.size), ky.size, kz.size))
    for i in range(0, kx.size, step):
        xy = kx[i:i + step]**2 + ky**2
        yield slice(i, i + step), np.add(xy, kz**2, out=buf[:len(xy)])


def _averages(grid: Grid3, rows, fbox: np.ndarray, curve: Curve,
              chi: Callable, ts, held: float = 0.0):
    """Iterator over the t of `ts`, in order, of A_t f-hat on f-hat's box.

    f-hat is `fbox` on the lattice rows `rows` (ascending per axis) and 0
    off them, and each A_t f-hat is a new array on the same box: no n^3
    array is built.  The range, memory and wraparound checks, the largest
    |xi| of f-hat's support and the quadrature (sized for the largest t)
    run once, when _averages is called; each t then costs one
    _lattice_symbol contraction of the box and one product with fbox.
    The largest |xi| is the max of |xi|^2 where fbox is nonzero, taken
    over _xi2_blocks: no temporary of the box's size precedes the memory
    check.  That check runs before any symbol is built, after the
    quadrature (a few thousand nodes at most), since the chunk's width
    depends on the node count.  It counts what a t holds at once: fbox,
    the symbol box, the product (or the symbol's matrix-product temporary,
    at most a box), one _lattice_symbol chunk and its phase tables (E_0
    twice while it is weighted), and beside them `held` n^3 grids that the
    caller keeps while it iterates or builds after the last t: its
    previous A_t f-hat, a transform's stages, a maximal function's buffer.
    """
    ts = [float(t) for t in ts]
    if not ts or not all(0.5 <= t <= 2.0 for t in ts):
        raise ValueError("need one or more t samples, each in [1/2, 2]")
    # the scaled curve's spread grows with t, so the largest t decides
    if max(ts) * _diameter(curve, chi) > grid.box / 2.0 - 0.5:
        raise WraparoundRisk(
            "scaled curve spread exceeds half the periodic box")
    kmax = math.sqrt(max((np.max(xi2, where=fbox[at] != 0, initial=0.0)
                          for at, xi2 in _xi2_blocks(grid, rows)),
                         default=0.0))
    gam, w = _curve_quadrature(curve, chi, max(ts) * kmax)
    nodes = gam.shape[0]
    n0, n1, n2 = fbox.shape
    width = n1 * max(n2, nodes)
    boxes = (3 * fbox.size + min(n0, _chunk_rows(width)) * width
             + (2 * n0 + n1 + n2) * nodes)
    _require_memory("averaging", grid.n, boxes / grid.n**3 + held, complex)
    return (fbox * _lattice_symbol(grid, rows, gam, w, t) for t in ts)


def _stage_grids(n: int, rows) -> float:
    """n^3 grids in the first-pass stage of a box on `rows` (row counts
    ra >= rb >= rc) widened to n along its widest axis: n*rb*rc, as in
    _slabs on the whole grid."""
    _, rb, rc = sorted(r.size for r in rows)[::-1]
    return rb * rc / n**2


def default_t_samples(n_equi: int = 65) -> np.ndarray:
    """Equispaced t in [1,2] plus the admissible dyadic values."""
    base = np.linspace(1.0, 2.0, n_equi)
    dyadic = np.array([0.5, 1.0, 2.0])
    return np.unique(np.concatenate([base, dyadic]))


def maximal_operator(grid: Grid3, rows, box: np.ndarray, curve: Curve,
                     chi: Callable, t_samples: Sequence[float]) -> np.ndarray:
    """Pointwise max over the sampled dilations of |A_t f|, f-hat `box` on
    `rows`, as an n^3 float array: one t-set of _averages, inverted by
    _sup_abs."""
    return _sup_abs(grid, rows, _averages(
        grid, rows, box, curve, chi, t_samples,
        held=_sup_held(grid.n, rows, box)))


def _sup_held(n: int, rows, box: np.ndarray) -> float:
    """n^3 grids that _sup_abs holds beside _averages' boxes: the float
    maximum, the previous A_t f-hat while the next is built, and _slabs'
    stage and two slab buffers (n*rc and n*n elements a plane, for row
    counts ra >= rb >= rc)."""
    rc = min(r.size for r in rows)
    slab = _planes(n, n, n) * (rc + n) / n**2
    return 0.5 + box.size / n**3 + _stage_grids(n, rows) + slab


def _sup_abs(grid: Grid3, rows, boxes) -> np.ndarray:
    """Pointwise max of |A f| over `boxes` (A f-hat on `rows`) as an n^3
    float array: each box is inverted by _slabs, and each slab is taken
    into the matching view of the maximum.  The maximal functions pass
    _averages' boxes, whose memory checks count these arrays (_sup_held)
    and have run before they are built."""
    n = grid.n
    out = np.zeros((n,) * 3, dtype=float)
    for at in boxes:
        for axes, i, f in _slabs(rows, at, (n,) * 3):
            view = out.transpose(axes)[i:i + len(f)]
            np.maximum(view, np.abs(f), out=view)
    return out


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
    # the mask (a byte a point, drawn over _xi2_blocks) beside two complex
    # boxes at most: the phase draw's temporaries, then the phases and box
    _require_memory("a band field", grid.n,
                    (2 + 1 / 16) * (rows[0].size / grid.n) ** 3, complex)
    band = np.empty((rows[0].size,) * 3, dtype=bool)
    for at, r in _xi2_blocks(grid, rows):
        np.sqrt(r, out=r)
        band[at] = (r >= 2.0 ** (k - 1)) & (r <= 2.0**k)
    del r  # the blocks' buffer, freed before the draw
    phases = _phases(seed, np.count_nonzero(band))
    box = np.zeros(band.shape, dtype=complex)
    box[band] = phases
    return rows, box


def sobolev_ratio(grid: Grid3, rows, fbox: np.ndarray, curve: Curve,
                  chi: Callable, p: float, alpha: float) -> float:
    """||(1+|xi|^2)^{alpha/2} A_1 f||_p / ||f||_p, f-hat `fbox` on `rows`.

    A_1 f-hat comes from _averages and the weight multiplies that box
    only; each norm is one lp_norm of a box.
    """
    at = next(_averages(grid, rows, fbox, curve, chi, [1.0],
                        held=_stage_grids(grid.n, rows)))
    kx, ky, kz = grid.freq_mesh(rows)
    at *= (1.0 + kx**2 + ky**2 + kz**2) ** (alpha / 2.0)
    return lp_norm(grid, rows, at, p) / lp_norm(grid, rows, fbox, p)


def _band_sweep(grid: Grid3, k_list: Sequence[int], seed, ratio: Callable,
                **report) -> dict:
    """The one loop over bands: per k, ratio(rows, fbox) of the band field
    _band_box(grid, k, [seed, k]), and the fitted log2 slope of the ratios
    in k.  Returns `report` with k_list, ratios, slope, n, box and seed."""
    if not len(k_list):
        raise ValueError("a band sweep needs at least one band k")
    ratios = np.asarray([ratio(*_band_box(grid, k, [seed, k]))
                         for k in k_list])
    return {**report, "k_list": list(k_list), "ratios": ratios.tolist(),
            "slope": fit_line(np.asarray(k_list, float), np.log2(ratios))[0],
            "n": grid.n, "box": grid.box, "seed": seed}


# largest grid n^3 a sobolev sweep sums over: a band (two sums) took
# 5.4 s at n = 512 and 132 s at n = 1024 (helix(1,1), p = 40, k = 5,
# box 3; two Xeon cores), and n = 2048 would take eight times that
_SOBOLEV_CELLS = 2**30


def sobolev_sweep(curve: Curve, chi: Callable, p: float, alpha: float,
                  k_list: Sequence[int], n: int = 128, box: float = 3.0,
                  seed: int = 0) -> dict:
    """Per-band Sobolev ratios and the fitted log2 slope across bands.

    Each band field (_band_sweep) stays on its box from the draw to the
    L^p sums, as in sobolev_ratio.  No array of the grid's size is held,
    but each sum runs over all n^3 points, so a grid beyond
    _SOBOLEV_CELLS points is refused (GridTooLarge) before any band.
    """
    grid = Grid3(n, box)
    if n**3 > _SOBOLEV_CELLS:
        raise GridTooLarge(
            f"a sobolev sweep on a {n}^3 grid exceeds the cell budget of "
            f"{_SOBOLEV_CELLS} points per sum")
    return _band_sweep(grid, k_list, seed, lambda rows, fbox: sobolev_ratio(
        grid, rows, fbox, curve, chi, p, alpha), p=p, alpha=alpha)


_SMOOTHING_CELLS = 2**24  # largest space-time grid n_t * n^3


def local_smoothing_probe(curve: Curve, chi: Callable, p: float,
                          alpha: float, k_list: Sequence[int],
                          n: int = 32, box: float = 6.0, n_t: int = 17,
                          seed: int = 0) -> dict:
    """Space-time smoothing probe: weighted norm of (x,t) -> A_t f(x).

    For each band k (_band_sweep) a random field is averaged over n_t
    equispaced t in [1, 2], one t-set of _averages.  The (tau, xi)
    spectrum is built on the band's box: the t-windowed A_t f-hat, then
    one FFT in t.  The weight (1+|xi|^2+tau^2)^{alpha/2} is applied on the
    box, an inverse FFT in t follows, and each t-plane's |.|^p is summed
    over the grid by _box_power_sum.
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

    def ratio(rows, fbox):
        # held beside the boxes: the spectrum, the previous A_t f-hat and
        # a plane sum's stage
        ats = _averages(grid, rows, fbox, curve, chi, t_grid,
                        (n_t + 1) * fbox.size / n**3 + _stage_grids(n, rows))
        spec = np.empty((n_t,) + fbox.shape, dtype=complex)
        for i, at in enumerate(ats):
            spec[i] = t_window[i] * at
        sfft.fft(spec, axis=0, out=spec)
        kx, ky, kz = grid.freq_mesh(rows)
        xi2 = kx**2 + ky**2 + kz**2
        for i in range(n_t):
            spec[i] *= (1.0 + xi2 + tau[i] ** 2) ** (alpha / 2.0)
        sfft.ifft(spec, axis=0, out=spec)
        total = sum(_box_power_sum(rows, plane, p, (n,) * 3)
                    for plane in spec)
        mixed = (total * grid.cell_volume * dt) ** (1.0 / p)
        return mixed / lp_norm(grid, rows, fbox, p)

    return _band_sweep(grid, k_list, seed, ratio, p=p, alpha=alpha, n_t=n_t)


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

    return Curve(dv, domain=(-1.0, 1.0), name=f"helix_family({a},{b})")


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


def two_param_maximal(grid: Grid3, rows, box: np.ndarray, t_fixed: float,
                      ab_samples: Sequence[tuple[float, float]]) -> np.ndarray:
    """Pointwise sup over (a,b) of |A_{t_fixed} f| along gamma_{a,b}, f-hat
    `box` on `rows`, as an n^3 float array; each curve is cut off by
    default_chi(curve, shrink=0.5) (_averages, _sup_abs)."""
    if not ab_samples:
        raise ValueError("need at least one (a, b) sample")
    for a, b in ab_samples:
        if not (1.0 < a < 2.0 and 1.0 < b < 2.0):
            raise ValueError("(a, b) samples must lie in (1,2)^2")
    curves = [helix_family_curve(a, b) for a, b in ab_samples]
    held = _sup_held(grid.n, rows, box)
    sets = [_averages(grid, rows, box, c, default_chi(c, shrink=0.5),
                      [t_fixed], held) for c in curves]
    return _sup_abs(grid, rows, (at for ats in sets for at in ats))
