"""Dyadic symbol decomposition near the binormal cone.

The cutoffs eta0, eta1 and zeta with their telescoping and partition
identities, the splitting of a dyadic symbol a_k into a
near-cone piece plus dyadic shell pieces, nu-localization in the curve
parameter, plate-support verification, oscillatory quadrature for the
multiplier samples, decay-rate sweeps and an FFT-based L^1 kernel bound.
Frequencies are placed in the cone chart by curve_geometry's one
inversion: cone_chart for arrays of frequencies, cone_coordinates for a
single one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .curve_geometry import (
    Curve,
    cone_chart,
    cone_coordinates,
    cone_point,
    fit_line,
    frenet_frame,
    gauss_legendre,
)
from .errors import (
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
# cutoffs
# ---------------------------------------------------------------------------


def _smoothstep(x):
    """C^infty step: 0 for x<=0, 1 for x>=1."""
    x = np.asarray(x, dtype=float)
    lo = np.exp(np.where(x > 0, -1.0 / np.maximum(x, 1e-300), 0.0))
    lo = np.where(x > 0, lo, 0.0)
    hi = np.exp(np.where(x < 1, -1.0 / np.maximum(1.0 - x, 1e-300), 0.0))
    hi = np.where(x < 1, hi, 0.0)
    return lo / (lo + hi)


def eta0(t):
    """Even bump, 1 on [-1/2,1/2], supported in [-1,1]."""
    return _smoothstep(2.0 * (1.0 - np.abs(np.asarray(t, dtype=float))))


def eta1(t):
    """Shell bump eta0(t/4) - eta0(t), supported in 1/2 <= |t| <= 4."""
    return eta0(np.asarray(t) / 4.0) - eta0(t)


def zeta(t):
    """Bump supported in (-1,1) whose integer translates sum to 1."""
    t = np.asarray(t, dtype=float)
    return _smoothstep(t + 1.0) - _smoothstep(t)


def telescope(t, l_min: int, l_max: int):
    """eta0(2^{2 l_max} t) + sum_{l_min<=l<=l_max} eta1(2^{2l} t)."""
    total = eta0(np.ldexp(1.0, 2 * l_max) * np.asarray(t, float))
    for l in range(l_min, l_max + 1):
        total = total + eta1(np.ldexp(1.0, 2 * l) * np.asarray(t, float))
    return total


def zeta_partition(t):
    """sum of zeta(t - nu) over -3 <= nu <= 3: 1 on [-2, 2]."""
    t = np.asarray(t, dtype=float)
    return sum(zeta(t - nu) for nu in range(-3, 4))


# ---------------------------------------------------------------------------
# symbol pieces
# ---------------------------------------------------------------------------


def default_a0(curve: Curve) -> float:
    """Torsion-adapted constant 16 max(1, sup 1/|tau|) over 64 points.

    The factor must be large enough that the complementary ('b') cutoff
    excludes every stationary parameter of the phase; 16 leaves a factor-2
    margin on the benchmark curves."""
    lo, hi = curve.domain
    pad = 0.05 * (hi - lo)
    tau = frenet_frame(curve, np.linspace(lo + pad, hi - pad, 64)).tau
    inv_tau = 1.0 / np.maximum(np.abs(tau), 1e-12)
    return 16.0 * max(1.0, float(inv_tau.max()))


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


_S_HALFWIDTH = 0.4  # a_k's parameter window is |s| < _S_HALFWIDTH
_U_CAP = 0.1  # a_k's tube cutoff is eta0(u / _U_CAP)


def make_ak(curve: Curve, k: int) -> SymbolPiece:
    """Base dyadic symbol: radial annulus bump times parameter window times
    a tube cutoff |u(xi)| <~ _U_CAP keeping the cone chart valid."""

    def ev(s, r, u, sigma, xinorm):
        rad = eta0((xinorm - 1.25) / 0.75)
        win = eta0(np.asarray(s, float) / _S_HALFWIDTH)
        tube = eta0(u / _U_CAP)
        return rad * tube * win

    return SymbolPiece("a_k", k, curve, ev,
                       s_support=(-_S_HALFWIDTH, _S_HALFWIDTH))


def _shell_piece(ak: SymbolPiece, kind: str, l: int, A0: float) -> SymbolPiece:
    """Dyadic-shell piece at distance ~2^{-2l} from the cone: the 'a' flavour
    keeps (s-sigma)^2 <= A0|u|, the 'b' flavour its complement."""
    base = ak.coord_eval

    def ev(s, r, u, sigma, xinorm):
        s = np.asarray(s, float)
        shell = eta1(np.ldexp(1.0, 2 * l) * (np.abs(u) + (s - sigma) ** 2))
        ratio = np.divide((s - sigma) ** 2, A0 * u,
                          out=np.full(np.shape(shell) or (1,), np.inf),
                          where=(np.asarray(u) != 0))
        ratio = ratio.reshape(np.shape(shell))
        near = eta0(ratio)
        split = near if kind.startswith("a") else 1.0 - near
        return base(s, r, u, sigma, xinorm) * shell * split

    return SymbolPiece(kind, ak.k, ak.curve, ev, l=l, s_support=ak.s_support)


def _tilde_piece(ak: SymbolPiece) -> SymbolPiece:
    base = ak.coord_eval
    scale = np.ldexp(1.0, 2 * (ak.k // 3))

    def ev(s, r, u, sigma, xinorm):
        s = np.asarray(s, float)
        near = eta0(scale * (np.abs(u) + (s - sigma) ** 2))
        return base(s, r, u, sigma, xinorm) * near

    return SymbolPiece("a~_k", ak.k, ak.curve, ev, s_support=ak.s_support)


def decompose(ak: SymbolPiece,
              l_max: Optional[int] = None) -> list[SymbolPiece]:
    """Split a_k into the near-cone piece plus shell pieces -2 <= l <= l_max
    (A0 = default_a0); they sum back to a_k pointwise (telescoping)."""
    if ak.kind != "a_k":
        raise ValueError("decompose expects a base a_k piece")
    k = ak.k
    if l_max is None:
        l_max = k // 3
    if l_max > k // 3:
        raise ValueError("shell index must stay below k/3")
    A0 = default_a0(ak.curve)
    pieces = [_tilde_piece(ak)]
    for l in range(-2, l_max + 1):
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
            return zeta(scale * s - _nu) * base(s, r, u, sigma, xinorm)

        lo_nu = max(lo, (nu - 1) / scale)
        hi_nu = min(hi, (nu + 1) / scale)
        out.append(SymbolPiece(_NU_KINDS[piece.kind], piece.k, piece.curve,
                               ev, l=piece.l, nu=nu,
                               s_support=(lo_nu, hi_nu)))
    return out


# ---------------------------------------------------------------------------
# plate-support verification over the (r,u,sigma) chart
# ---------------------------------------------------------------------------


def verify_plate_support(piece: SymbolPiece, C: Optional[float] = None,
                         n_samples: int = 4000, seed: int = 0) -> dict:
    """Sample the support of a nu-localized piece and report the smallest
    constant making the tangent/normal/binormal frequency bounds hold, and
    the derivative constant.  Samples: r in [0.6, 1.8), |u| < 4/scale^2,
    sigma within 4/scale and s within 1/scale of the anchor."""
    if piece.nu is None:
        raise ValueError("plate-support check needs a nu-localized piece")
    scale = _nu_scale(piece)
    l_eff = math.log2(scale)
    s_nu = piece.nu / scale
    fr = frenet_frame(piece.curve, s_nu)
    rng = np.random.default_rng(seed)
    lo, hi = piece.curve.domain
    r = rng.uniform(0.6, 1.8, n_samples)
    u = 4.0 / scale**2 * rng.uniform(0.0, 1.0, n_samples)
    u *= rng.choice([-1.0, 1.0], n_samples)
    sigma = rng.uniform(max(lo, s_nu - 4 / scale), min(hi, s_nu + 4 / scale),
                        n_samples)
    at = frenet_frame(piece.curve, sigma)
    xi = r[:, None] * at.B + u[:, None] * at.T
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
    report["derivative_C"] = _support_derivative_constant(
        piece, xs[: min(40, len(xs))], s[mask][: min(40, len(xs))], fr, l_eff)
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


_MAX_PANELS = 4096  # per integration interval: at most 65 536 nodes


def _panel_quad(f: Callable, a: float, b: float, tol: float):
    """Composite 16-point Gauss-Legendre integral of f over [a, b].

    f takes an array of s and returns the integrand there.  The panel count
    doubles from 1 until two levels differ by at most tol; the finer level
    is returned with that difference as its error estimate.  Each level
    costs one call of f on the 16 x panels points of gauss_legendre.
    Raises QuadratureFailure if _MAX_PANELS panels do not converge.
    """
    prev = None
    for level in range(_MAX_PANELS.bit_length()):  # 1, 2, 4 .. _MAX_PANELS
        s, w = gauss_legendre(a, b, 16, 2**level)
        value = f(s) @ w
        if prev is not None and abs(value - prev) <= tol:
            return value, abs(value - prev)
        prev = value
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


def oscillatory_selfcheck(lam: float = 100.0):
    """Model phase integral of exp(i lam s^2) on [0,1]: the panel rule
    against a 10^6-point midpoint-rule oracle."""
    val, err = _panel_quad(lambda s: np.exp(1j * lam * s * s), 0.0, 1.0,
                           1e-12)
    s = (np.arange(1_000_000) + 0.5) / 1_000_000
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
                    n_xi: int = 10, seed: int = 0) -> dict:
    """Estimate sup |m_k| over stratified frequency samples for each k and
    fit the dyadic decay rate log2(sup) vs k.  The piece is the nu = 0
    translate, and each multiplier is integrated at tol 1e-7."""
    if kind != "atilde" and l > min(k_list) / 3:
        raise ValueError("shell index must satisfy l <= k/3 for every k")
    A0 = default_a0(curve)
    rng = np.random.default_rng(seed)
    fixed_hats = None
    if kind != "atilde":
        fixed_hats = _sweep_xi_hats(curve, kind, l, n_xi, rng, A0)
    sups = []
    for k in k_list:
        piece = _sweep_piece(curve, kind, k, l, A0, 0)
        hats = fixed_hats if fixed_hats is not None else _sweep_xi_hats(
            curve, kind, l, n_xi, rng, A0, k=k)
        best = 0.0
        for hat in hats:
            best = max(best, abs(mk_multiplier(piece, np.ldexp(hat, k),
                                               1e-7).value))
        sups.append(best)
    logs = np.log2(np.maximum(sups, 1e-300))
    slope, intercept = fit_line(np.asarray(k_list, float), logs)
    return {"curve": curve.name, "kind": kind, "l": l,
            "k_list": list(k_list), "sups": [float(v) for v in sups],
            "slope": slope, "constant": 2.0**intercept,
            "n_xi": n_xi, "seed": seed}


# ---------------------------------------------------------------------------
# L^1 kernel bound on the anisotropically rescaled frame
# ---------------------------------------------------------------------------


_KERNEL_POINTS = 2**21  # largest n^3 grid l1_kernel_bound builds


def l1_kernel_bound(piece: SymbolPiece, n: int = 32) -> dict:
    """Upper bound on the L^1 norm of the inverse Fourier transform of the
    multiplier: per-parameter kernel slices are computed by 3-D FFT on an
    n^3 grid of [-4, 4)^3 adapted to the (2^{-2l}, 2^{-l}, 1) frame and
    integrated in s at 20 Gauss-Legendre nodes.  The grid rows are placed
    in the chart by one cone_chart call over the whole parameter domain;
    rows outside the cone contribute 0."""
    if piece.nu is None or piece.l is None:
        raise ValueError("kernel bound needs a nu-localized shell piece")
    if n**3 > _KERNEL_POINTS:
        raise GridTooLarge(
            f"{n}^3 grid exceeds the {_KERNEL_POINTS}-point budget")
    lo, hi = piece.s_interval()
    if lo >= hi:
        return {"kind": piece.kind, "k": piece.k, "l": piece.l,
                "nu": piece.nu, "value": 0.0, "bound_constant": 0.0}
    l, scale = piece.l, _nu_scale(piece)
    s_nu = piece.nu / scale
    fr = frenet_frame(piece.curve, s_nu)

    ax = np.linspace(-4.0, 4.0, n, endpoint=False)
    e1, e2, e3 = np.meshgrid(ax, ax, ax, indexing="ij")
    xi = (np.ldexp(e1.ravel()[:, None], -2 * l) * fr.T
          + np.ldexp(e2.ravel()[:, None], -l) * fr.N
          + e3.ravel()[:, None] * fr.B)
    r, u, sigma, ok = cone_chart(piece.curve, xi)
    norm = np.linalg.norm(xi, axis=1)

    total = 0.0
    for s, w in zip(*gauss_legendre(lo, hi, 20)):
        vals = np.zeros(len(xi))
        if ok.any():
            vals[ok] = piece.coord_eval(s, r[ok], u[ok], sigma[ok], norm[ok])
        slab = vals.reshape(n, n, n)
        if not slab.any():
            continue
        total += w * np.abs(np.fft.ifftn(slab)).sum()
    return {"kind": piece.kind, "k": piece.k, "l": l, "nu": piece.nu,
            "value": float(total), "bound_constant": float(total * scale)}
