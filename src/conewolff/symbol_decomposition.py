"""Dyadic symbol decomposition near the binormal cone.

Cutoff systems (eta0/eta1/zeta), the splitting of a dyadic symbol a_k into a
near-cone piece plus dyadic shell pieces, nu-localization in the curve
parameter, plate-support verification, oscillatory quadrature for the
multiplier samples, decay-rate sweeps, an FFT-based L^1 kernel bound, and
the finite-type rescaling of a curve at a point.  Frequencies are placed in
the cone chart by curve_geometry's one inversion: cone_chart for arrays of
frequencies, cone_coordinates for a single one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .curve_geometry import (
    Curve,
    cone_chart,
    cone_coordinates,
    cone_point,
    exponent_triple,
    frenet_frame,
)
from .errors import (
    DegenerateExpansion,
    GridTooLarge,
    OutsideCone,
    QuadratureFailure,
)


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported at the call.  No conewolff code calls
    it: the name stays only because perfbench/tracing.py wraps it, and it
    goes once the tracer reads the program's own counters (ROADMAP item 4).
    """
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


# ---------------------------------------------------------------------------
# cutoff system
# ---------------------------------------------------------------------------


def _smoothstep(x):
    """C^infty step: 0 for x<=0, 1 for x>=1."""
    x = np.asarray(x, dtype=float)
    lo = np.exp(np.where(x > 0, -1.0 / np.maximum(x, 1e-300), 0.0))
    lo = np.where(x > 0, lo, 0.0)
    hi = np.exp(np.where(x < 1, -1.0 / np.maximum(1.0 - x, 1e-300), 0.0))
    hi = np.where(x < 1, hi, 0.0)
    return lo / (lo + hi)


def _eta0(t):
    """Even bump, 1 on [-1/2,1/2], supported in [-1,1]."""
    return _smoothstep(2.0 * (1.0 - np.abs(np.asarray(t, dtype=float))))


def _eta1(t):
    return _eta0(np.asarray(t) / 4.0) - _eta0(t)


def _zeta(t):
    """Bump supported in (-1,1) whose integer translates sum to 1."""
    t = np.asarray(t, dtype=float)
    return _smoothstep(t + 1.0) - _smoothstep(t)


@dataclass(frozen=True)
class CutoffSystem:
    eta0: Callable = _eta0
    eta1: Callable = _eta1
    zeta: Callable = _zeta

    def telescope(self, t, l_min: int, l_max: int):
        """eta0(2^{2 l_max} t) + sum_{l_min<=l<=l_max} eta1(2^{2l} t)."""
        total = self.eta0(np.ldexp(1.0, 2 * l_max) * np.asarray(t, float))
        for l in range(l_min, l_max + 1):
            total = total + self.eta1(np.ldexp(1.0, 2 * l) * np.asarray(t, float))
        return total

    def zeta_partition(self, t, nu_lo: int = -3, nu_hi: int = 3):
        t = np.asarray(t, dtype=float)
        return sum(self.zeta(t - nu) for nu in range(nu_lo, nu_hi + 1))


def build_cutoffs() -> CutoffSystem:
    return CutoffSystem()


# ---------------------------------------------------------------------------
# symbol pieces
# ---------------------------------------------------------------------------


def default_a0(curve: Curve, samples: int = 64, factor: float = 16.0) -> float:
    """Torsion-adapted constant factor*max(1, sup 1/|tau|) over the domain.

    The factor must be large enough that the complementary ('b') cutoff
    excludes every stationary parameter of the phase; 16 leaves a factor-2
    margin on the benchmark curves."""
    lo, hi = curve.domain
    pad = 0.05 * (hi - lo)
    tau = frenet_frame(curve, np.linspace(lo + pad, hi - pad, samples)).tau
    inv_tau = 1.0 / np.maximum(np.abs(tau), 1e-12)
    return factor * max(1.0, float(inv_tau.max()))


@dataclass
class SymbolPiece:
    """One piece of the dyadic symbol, evaluated in cone-chart coordinates.

    coord_eval(s, r, u, sigma, xinorm) is the (vectorized) evaluator; callers
    resolve the chart of ambient frequencies with cone_chart or
    cone_coordinates first.
    """

    kind: str
    k: int
    curve: Curve
    coord_eval: Callable
    l: Optional[int] = None
    nu: Optional[int] = None
    s_support: tuple[float, float] = (-np.inf, np.inf)

    def s_interval(self) -> tuple[float, float]:
        lo, hi = self.curve.domain
        return max(lo, self.s_support[0]), min(hi, self.s_support[1])


def make_ak(curve: Curve, k: int, s_center: float = 0.0,
            s_halfwidth: float = 0.4, u_cap: float = 0.1) -> SymbolPiece:
    """Base dyadic symbol: radial annulus bump times parameter window times
    a tube cutoff |u(xi)| <~ u_cap keeping the cone chart valid."""

    def ev(s, r, u, sigma, xinorm):
        rad = _eta0((xinorm - 1.25) / 0.75)
        win = _eta0((np.asarray(s, float) - s_center) / s_halfwidth)
        tube = _eta0(u / u_cap)
        return rad * tube * win

    return SymbolPiece("a_k", k, curve, ev,
                       s_support=(s_center - s_halfwidth, s_center + s_halfwidth))


def _shell_piece(ak: SymbolPiece, kind: str, l: int, A0: float) -> SymbolPiece:
    """Dyadic-shell piece at distance ~2^{-2l} from the cone: the 'a' flavour
    keeps (s-sigma)^2 <= A0|u|, the 'b' flavour its complement."""
    base = ak.coord_eval

    def ev(s, r, u, sigma, xinorm):
        s = np.asarray(s, float)
        shell = _eta1(np.ldexp(1.0, 2 * l) * (np.abs(u) + (s - sigma) ** 2))
        ratio = np.divide((s - sigma) ** 2, A0 * u,
                          out=np.full(np.shape(shell) or (1,), np.inf),
                          where=(np.asarray(u) != 0))
        ratio = ratio.reshape(np.shape(shell))
        near = _eta0(ratio)
        split = near if kind.startswith("a") else 1.0 - near
        return base(s, r, u, sigma, xinorm) * shell * split

    return SymbolPiece(kind, ak.k, ak.curve, ev, l=l, s_support=ak.s_support)


def _tilde_piece(ak: SymbolPiece) -> SymbolPiece:
    base = ak.coord_eval
    scale = np.ldexp(1.0, 2 * (ak.k // 3))

    def ev(s, r, u, sigma, xinorm):
        s = np.asarray(s, float)
        near = _eta0(scale * (np.abs(u) + (s - sigma) ** 2))
        return base(s, r, u, sigma, xinorm) * near

    return SymbolPiece("a~_k", ak.k, ak.curve, ev, s_support=ak.s_support)


def decompose(ak: SymbolPiece, l_max: Optional[int] = None,
              A0: Optional[float] = None, l_min: int = -2) -> list[SymbolPiece]:
    """Split a_k into the near-cone piece plus shell pieces; the returned
    pieces sum back to a_k pointwise (telescoping dyadic shells)."""
    if ak.kind != "a_k":
        raise ValueError("decompose expects a base a_k piece")
    k = ak.k
    if l_max is None:
        l_max = k // 3
    if l_max > k // 3:
        raise ValueError("shell index must stay below k/3")
    if A0 is None:
        A0 = default_a0(ak.curve)
    pieces = [_tilde_piece(ak)]
    for l in range(l_min, l_max + 1):
        pieces.append(_shell_piece(ak, "a_{k,l}", l, A0))
        pieces.append(_shell_piece(ak, "b_{k,l}", l, A0))
    return pieces


_NU_KINDS = {"a_{k,l}": "a_{k,l,nu}", "b_{k,l}": "b_{k,l,nu}",
             "a~_k": "a~_{k,nu}"}


def _nu_scale(piece: SymbolPiece) -> float:
    if piece.kind.startswith("a~"):
        return 2.0 ** (piece.k / 3.0)
    return float(np.ldexp(1.0, piece.l))


def nu_localize(piece: SymbolPiece,
                nu_range: Optional[Sequence[int]] = None) -> list[SymbolPiece]:
    """Split a piece into translates supported on overlapping parameter
    intervals of length 2/scale; the translates sum back to the piece."""
    if piece.kind not in _NU_KINDS:
        raise ValueError(f"cannot nu-localize kind {piece.kind!r}")
    scale = _nu_scale(piece)
    lo, hi = piece.s_interval()
    if nu_range is None:
        nu_range = range(math.floor(scale * lo) - 1, math.ceil(scale * hi) + 2)
    base = piece.coord_eval
    out = []
    for nu in nu_range:
        def ev(s, r, u, sigma, xinorm, _nu=nu):
            s = np.asarray(s, float)
            return _zeta(scale * s - _nu) * base(s, r, u, sigma, xinorm)

        lo_nu = max(lo, (nu - 1) / scale)
        hi_nu = min(hi, (nu + 1) / scale)
        out.append(SymbolPiece(_NU_KINDS[piece.kind], piece.k, piece.curve,
                               ev, l=piece.l, nu=nu,
                               s_support=(lo_nu, hi_nu)))
    return out


# ---------------------------------------------------------------------------
# stratified support sampling over the (r,u,sigma) chart
# ---------------------------------------------------------------------------


def tube_sample(curve: Curve, n: int, u_scale: float,
                sigma_window: tuple[float, float],
                rng: np.random.Generator,
                r_range: tuple[float, float] = (0.6, 1.8),
                u_band: tuple[float, float] = (0.0, 2.0),
                signed: bool = True):
    """Stratified chart samples: arrays (r, u, sigma) and points xi."""
    r = rng.uniform(*r_range, n)
    u = u_scale * rng.uniform(*u_band, n)
    if signed:
        u *= rng.choice([-1.0, 1.0], n)
    sigma = rng.uniform(*sigma_window, n)
    fr = frenet_frame(curve, sigma)
    xi = r[:, None] * fr.B + u[:, None] * fr.T
    return r, u, sigma, xi


def verify_plate_support(piece: SymbolPiece, C: Optional[float] = None,
                         n_samples: int = 4000, seed: int = 0,
                         check_derivatives: bool = True) -> dict:
    """Sample the support of a nu-localized piece and report the smallest
    constant making the tangent/normal/binormal frequency bounds hold."""
    if piece.nu is None:
        raise ValueError("plate-support check needs a nu-localized piece")
    scale = _nu_scale(piece)
    l_eff = math.log2(scale)
    s_nu = piece.nu / scale
    fr = frenet_frame(piece.curve, s_nu)
    rng = np.random.default_rng(seed)
    lo, hi = piece.curve.domain
    win = (max(lo, s_nu - 4 / scale), min(hi, s_nu + 4 / scale))
    r, u, sigma, xi = tube_sample(piece.curve, n_samples, 4.0 / scale**2,
                                  win, rng, u_band=(0.0, 1.0))
    s = rng.uniform(max(lo, s_nu - 1 / scale), min(hi, s_nu + 1 / scale),
                    n_samples)
    vals = piece.coord_eval(s, r, u, sigma, np.linalg.norm(xi, axis=1))
    mask = vals > 1e-12
    report = {"kind": piece.kind, "k": piece.k, "l": piece.l, "nu": piece.nu,
              "n_support": int(mask.sum())}
    if not mask.any():
        report.update({"required_C": 1.0, "pass": True})
        return report
    xs = xi[mask]
    t_part = np.abs(xs @ fr.T) * scale**2
    n_part = np.abs(xs @ fr.N) * scale
    b_part = np.abs(xs @ fr.B)
    req = max(t_part.max(), n_part.max(), b_part.max(), (1.0 / b_part).max())
    report["required_C"] = float(req)
    if check_derivatives:
        report["derivative_C"] = _support_derivative_constant(
            piece, xs[: min(40, len(xs))], s[mask][: min(40, len(xs))],
            fr, l_eff)
    if C is not None:
        report["pass"] = bool(req <= C)
    return report


def _support_derivative_constant(piece, xis, ss, fr, l_eff) -> float:
    """Finite-difference directional derivatives of xi -> piece(s, xi) along
    the anchor frame, normalized by the expected growth rates.  One
    cone_chart call places every difference point; a point outside the
    cone contributes 0."""
    rates = 2.0 ** np.array([2 * l_eff, l_eff, 0.0])
    h = 0.05 / rates
    steps = h[:, None] * np.array([fr.T, fr.N, fr.B])
    # per xi: xi itself, then xi + h e and xi - h e for e = T, N, B
    pts = xis[:, None] + np.concatenate([np.zeros((1, 3)), steps, -steps])
    pts = pts.reshape(-1, 3)
    r, u, sg, ok = cone_chart(piece.curve, pts)
    vals = np.zeros(len(pts))
    vals[ok] = piece.coord_eval(np.repeat(ss, 7)[ok], r[ok], u[ok], sg[ok],
                                np.linalg.norm(pts[ok], axis=1))
    f0, fp, fm = np.split(vals.reshape(-1, 7), [1, 4], axis=1)
    d1 = np.abs(fp - fm) / (2 * h) / rates
    d2 = np.abs(fp - 2 * f0 + fm) / h**2 / rates**2
    return float(max(d1.max(), d2.max()))


# ---------------------------------------------------------------------------
# oscillatory multiplier samples
# ---------------------------------------------------------------------------


@dataclass
class MultiplierSample:
    xi: np.ndarray
    value: complex
    k: int
    l: Optional[int]
    nu: Optional[int]
    quadrature_error: float


_GL_X, _GL_W = leggauss(16)  # nodes and weights of one panel
_MAX_PANELS = 4096  # per integration interval: at most 65 536 nodes


def _panel_quad(f: Callable, a: float, b: float, tol: float):
    """Composite 16-point Gauss-Legendre integral of f over [a, b].

    f takes an array of s and returns the integrand there.  The panel count
    doubles from 1 until two levels differ by at most tol; the finer level
    is returned with that difference as its error estimate.  Each level
    costs one call of f on 16 x panels points.  Raises QuadratureFailure if
    _MAX_PANELS panels do not converge.
    """
    prev = None
    panels = 1
    while panels <= _MAX_PANELS:
        half = 0.5 * (b - a) / panels
        mids = a + half * (2.0 * np.arange(panels) + 1.0)
        vals = f((mids[:, None] + half * _GL_X).ravel()).reshape(panels, 16)
        value = half * (vals @ _GL_W).sum()
        if prev is not None and abs(value - prev) <= tol:
            return value, abs(value - prev)
        prev = value
        panels *= 2
    raise QuadratureFailure(
        f"oscillatory quadrature on [{a:.6g}, {b:.6g}] did not reach "
        f"tolerance {tol:.2e} with {_MAX_PANELS} Gauss-Legendre panels")


def mk_multiplier(piece: SymbolPiece, xi: np.ndarray,
                  tol: float = 1e-8) -> MultiplierSample:
    """Parameter integral of piece(s, 2^{-k} xi) against the curve phase
    exp(-i<gamma(s), xi>), split at the stationary parameter sigma(xi).

    Each side is integrated by _panel_quad until two levels agree within
    tol / 1000; stopping at tol itself moves a k = 8, 10 decay slope by
    about 1e-7 relative, a visible share of the 1e-5 tolerance its frozen
    benchmark references are checked at.  quadrature_error is the sum of
    the two sides' level differences.  The cost is one cone-chart inversion
    plus, per side and doubling level, one coord_eval and one curve.eval on
    an array of 16 x panels parameters (at most 256 panels per side were
    needed for k <= 14 on the benchmark curves).
    """
    xi = np.asarray(xi, dtype=float)
    xin = np.ldexp(xi, -piece.k)
    a, b = piece.s_interval()
    if a >= b:
        return MultiplierSample(xi, 0j, piece.k, piece.l, piece.nu, 0.0)
    try:
        r, u, sigma = cone_coordinates(piece.curve, xin)
    except OutsideCone:
        return MultiplierSample(xi, 0j, piece.k, piece.l, piece.nu, 0.0)
    norm = float(np.linalg.norm(xin))
    curve = piece.curve

    def integrand(s):
        amp = piece.coord_eval(s, r, u, sigma, norm)
        return amp * np.exp(-1j * (xi @ curve.eval(s)))

    edges = [a, sigma, b] if a < sigma < b else [a, b]
    value, err = 0j, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _panel_quad(integrand, lo, hi, 1e-3 * tol)
        value, err = value + v, err + e
    return MultiplierSample(xi, complex(value), piece.k, piece.l, piece.nu,
                            float(err))


def oscillatory_selfcheck(lam: float = 100.0, n_riemann: int = 1_000_000):
    """Model phase integral of exp(i lam s^2) on [0,1]: the panel rule
    against a dense midpoint-rule oracle."""
    val, err = _panel_quad(lambda s: np.exp(1j * lam * s * s), 0.0, 1.0,
                           1e-12)
    s = (np.arange(n_riemann) + 0.5) / n_riemann
    oracle = np.exp(1j * lam * s * s).mean()
    return complex(val), complex(oracle), float(err)


# ---------------------------------------------------------------------------
# decay-rate sweeps
# ---------------------------------------------------------------------------


def _sweep_piece(curve: Curve, kind: str, k: int, l: int, A0: float,
                 nu: int) -> SymbolPiece:
    ak = make_ak(curve, k)
    if kind == "atilde":
        base = _tilde_piece(ak)
    elif kind in ("a", "b"):
        base = _shell_piece(ak, "a_{k,l}" if kind == "a" else "b_{k,l}", l, A0)
    else:
        raise ValueError(f"unknown sweep kind {kind!r}")
    return nu_localize(base, [nu])[0]


def _sweep_xi_hats(curve: Curve, kind: str, l: int, n_xi: int,
                   rng: np.random.Generator, A0: float,
                   k: Optional[int] = None) -> list[np.ndarray]:
    """Normalized frequencies stratified over the chart so each kind's worst
    regime is hit: for 'a' the stationary parameter sits inside the shell at
    full amplitude (u < 0, magnitude set by the local curvature*torsion);
    for 'b' the phase is non-stationary but as slow as the complementary
    cutoff allows. The same patterns are reused for every k."""
    if kind == "atilde":
        u_scale, width = 2.0 ** (-2 * k / 3), 2.0 ** (-k / 3)
        return [cone_point(curve, rng.uniform(0.8, 1.6),
                           u_scale * rng.uniform(0.0, 0.45)
                           * rng.choice([-1.0, 1.0]),
                           rng.uniform(-0.5, 0.5) * width)
                for _ in range(n_xi)]
    u_scale, width = np.ldexp(1.0, -2 * l), np.ldexp(1.0, -l)
    fr = frenet_frame(curve, 0.0)
    kt = abs(fr.kappa * fr.tau)
    out = []
    for _ in range(n_xi):
        r = rng.uniform(1.0, 1.5) if kind == "a" else rng.uniform(0.9, 1.4)
        if kind == "a":
            dbar = rng.uniform(0.95, 1.2)
            ubar = min(0.5 * kt * r * dbar**2, 0.75)
            dbar = math.sqrt(2 * ubar / (kt * r))
            branch = rng.choice([-1.0, 1.0])
            sg = rng.uniform(-0.4, 0.4) - branch * dbar
            out.append(cone_point(curve, r, -ubar * u_scale, sg * width))
        elif kind == "b":
            speed = rng.uniform(0.14, 0.20)
            ubar = speed / (1.0 + kt * r * A0 / 4.0)
            sg = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 0.6)
            out.append(cone_point(curve, r, ubar * u_scale, sg * width))
        else:
            raise ValueError(f"unknown sweep kind {kind!r}")
    return out


def vdc_decay_sweep(curve: Curve, kind: str, l: int, k_list: Sequence[int],
                    n_xi: int = 10, seed: int = 0, tol: float = 1e-7,
                    nu: int = 0) -> dict:
    """Estimate sup |m_k| over stratified frequency samples for each k and
    fit the dyadic decay rate log2(sup) vs k."""
    if kind != "atilde" and l > min(k_list) / 3:
        raise ValueError("shell index must satisfy l <= k/3 for every k")
    A0 = default_a0(curve)
    rng = np.random.default_rng(seed)
    fixed_hats = None
    if kind != "atilde":
        fixed_hats = _sweep_xi_hats(curve, kind, l, n_xi, rng, A0)
    sups = []
    for k in k_list:
        piece = _sweep_piece(curve, kind, k, l, A0, nu)
        hats = fixed_hats if fixed_hats is not None else _sweep_xi_hats(
            curve, kind, l, n_xi, rng, A0, k=k)
        best = 0.0
        for hat in hats:
            best = max(best, abs(mk_multiplier(piece, np.ldexp(hat, k),
                                               tol).value))
        sups.append(best)
    logs = np.log2(np.maximum(sups, 1e-300))
    slope, intercept = np.polyfit(np.asarray(k_list, float), logs, 1)
    return {"curve": curve.name, "kind": kind, "l": l,
            "k_list": list(k_list), "sups": [float(v) for v in sups],
            "slope": float(slope), "constant": float(2.0**intercept),
            "n_xi": n_xi, "seed": seed}


# ---------------------------------------------------------------------------
# L^1 kernel bound on the anisotropically rescaled frame
# ---------------------------------------------------------------------------


def l1_kernel_bound(piece: SymbolPiece, n: int = 32, box: float = 4.0,
                    s_nodes: int = 20, max_points: int = 2**21) -> dict:
    """Upper bound on the L^1 norm of the inverse Fourier transform of the
    multiplier: per-parameter kernel slices are computed by 3-D FFT on a grid
    adapted to the (2^{-2l}, 2^{-l}, 1) frame and integrated in s.  The grid
    rows are placed in the chart by one cone_chart call over the whole
    parameter domain; rows outside the cone contribute 0."""
    if piece.nu is None or piece.l is None:
        raise ValueError("kernel bound needs a nu-localized shell piece")
    if n**3 > max_points:
        raise GridTooLarge(f"{n}^3 grid exceeds the {max_points}-point budget")
    lo, hi = piece.s_interval()
    if lo >= hi:
        return {"kind": piece.kind, "k": piece.k, "l": piece.l,
                "nu": piece.nu, "value": 0.0, "bound_constant": 0.0}
    l, scale = piece.l, _nu_scale(piece)
    s_nu = piece.nu / scale
    fr = frenet_frame(piece.curve, s_nu)

    ax = np.linspace(-box, box, n, endpoint=False)
    e1, e2, e3 = np.meshgrid(ax, ax, ax, indexing="ij")
    xi = (np.ldexp(e1.ravel()[:, None], -2 * l) * fr.T
          + np.ldexp(e2.ravel()[:, None], -l) * fr.N
          + e3.ravel()[:, None] * fr.B)
    r, u, sigma, ok = cone_chart(piece.curve, xi)
    norm = np.linalg.norm(xi, axis=1)

    lo, hi = piece.s_interval()
    nodes, weights = np.polynomial.legendre.leggauss(s_nodes)
    s_q = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w_q = 0.5 * (hi - lo) * weights

    total = 0.0
    shape = (n, n, n)
    for s, w in zip(s_q, w_q):
        vals = np.zeros(len(xi))
        if ok.any():
            vals[ok] = piece.coord_eval(s, r[ok], u[ok], sigma[ok], norm[ok])
        slab = vals.reshape(shape)
        if not slab.any():
            continue
        total += w * np.abs(np.fft.ifftn(slab)).sum()
    return {"kind": piece.kind, "k": piece.k, "l": l, "nu": piece.nu,
            "value": float(total), "bound_constant": float(total * scale)}


# ---------------------------------------------------------------------------
# finite-type rescaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dilation:
    j: int
    exponents: tuple[int, int, int]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scales = np.ldexp(np.ones(3), [self.j * n for n in self.exponents])
        return x * scales

    def inverse(self) -> "Dilation":
        return Dilation(-self.j, self.exponents)


@dataclass
class RescaledCurve:
    """Curve re-expanded at a point in adapted coordinates and rescaled so
    each component has unit dyadic size: component i behaves like
    beta_i * u^{n_i} * (1 + O(2^{-j}))."""

    curve: Curve
    s0: float
    j: int
    exponents: tuple[int, int, int]
    betas: np.ndarray
    frame: np.ndarray  # rows: adapted orthonormal coordinates
    origin: np.ndarray = field(repr=False, default=None)

    def eval(self, u: float) -> np.ndarray:
        disp = self.curve.eval(self.s0 + np.ldexp(float(u), -self.j)) - self.origin
        comps = self.frame @ disp
        return np.ldexp(comps, [self.j * n for n in self.exponents])

    def derivative(self, u: float, order: int = 1) -> np.ndarray:
        d = self.curve.derivative(self.s0 + np.ldexp(float(u), -self.j), order)
        comps = self.frame @ d
        return np.ldexp(comps, [self.j * (n - order) for n in self.exponents])

    def det(self, u: float) -> float:
        m = np.column_stack([self.derivative(u, m) for m in (1, 2, 3)])
        return float(np.linalg.det(m))

    def limit_det(self, u: float) -> float:
        """Determinant of the monomial limit curve (beta_i u^{n_i})."""
        n = self.exponents
        m = np.zeros((3, 3))
        for i in range(3):
            for col, order in enumerate((1, 2, 3)):
                c = 1.0
                for q in range(order):
                    c *= n[i] - q
                m[i, col] = self.betas[i] * c * float(u) ** max(n[i] - order, 0)
        return float(np.linalg.det(m))


def finite_type_rescale(curve: Curve, s0: float, j: int,
                        beta_floor: float = 1e-8) -> tuple[Dilation, RescaledCurve]:
    """Adapted dilation and rescaled curve at a finite-type point."""
    n1, n2, n3 = exponent_triple(curve, s0)
    exps = (n1, n2, n3)
    derivs = [curve.derivative(s0, n) / math.factorial(n) for n in exps]
    frame = []
    for d in derivs:
        v = d.astype(float).copy()
        for w in frame:
            v -= (v @ w) * w
        nv = np.linalg.norm(v)
        if nv < beta_floor:
            raise DegenerateExpansion(
                f"adapted direction degenerate at order {exps[len(frame)]}")
        frame.append(v / nv)
    frame = np.array(frame)
    betas = np.array([frame[i] @ derivs[i] for i in range(3)])
    if np.min(np.abs(betas)) < beta_floor:
        raise DegenerateExpansion("leading coefficient below floor")
    rc = RescaledCurve(curve, s0, j, exps, betas, frame,
                       origin=curve.eval(s0))
    return Dilation(j, exps), rc
