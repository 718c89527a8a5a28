"""Space curves, Frenet data, finite type, and the binormal cone chart.

Provides the Curve / FrenetFrame / GeneratorCurve / FiniteTypeReport types,
benchmark curve constructors, arclength reparametrization, and the chart
(r, u, sigma) on the cone of binormal directions together with its gradient
formulas.
"""

from __future__ import annotations

import io
import csv
from math import factorial
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import (
    B3TooSmall,
    DegenerateCurvature,
    NotConverged,
    OutsideCone,
    SingularJacobian,
    TypeExceedsNMax,
)

CURVATURE_FLOOR = 1e-10
FD_STEP = 1e-4

# ---------------------------------------------------------------------------
# finite differences (central, Richardson-extrapolated)
# ---------------------------------------------------------------------------


def richardson_diff(f: Callable[[float], np.ndarray], x: float, h: float = FD_STEP):
    """First derivative of f at x via central differences + one Richardson step."""
    d_h = (np.asarray(f(x + h)) - np.asarray(f(x - h))) / (2.0 * h)
    d_h2 = (np.asarray(f(x + h / 2)) - np.asarray(f(x - h / 2))) / h
    return (4.0 * d_h2 - d_h) / 3.0


def nested_diff(f: Callable[[float], np.ndarray], x: float, order: int, h: float = FD_STEP):
    """order-th derivative by recursively applying richardson_diff."""
    if order == 0:
        return np.asarray(f(x), dtype=float)
    if order == 1:
        return richardson_diff(f, x, h)
    return richardson_diff(lambda t: nested_diff(f, t, order - 1, h), x, h)


# ---------------------------------------------------------------------------
# truncated Taylor series arithmetic (for exact chain-rule reparametrization)
# ---------------------------------------------------------------------------

# Coefficients run along the last axis; leading axes broadcast, so one call
# handles the series of many points at once.
_SERIES_LEN = 6  # coefficients 0..5: enough for derivatives up to order 5
_FACTORIALS = np.array([factorial(j) for j in range(_SERIES_LEN)], dtype=float)
# _CAUCHY[j * len + k, i] = 1 where j + k == i: the truncated product of two
# series is their flattened outer product times this matrix
_CAUCHY = (np.add.outer(np.arange(_SERIES_LEN), np.arange(_SERIES_LEN))
           .reshape(-1, 1) == np.arange(_SERIES_LEN)).astype(float)


def _ser_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    prod = a[..., :, None] * b[..., None, :]
    return prod.reshape(prod.shape[:-2] + (_SERIES_LEN**2,)) @ _CAUCHY


def _ser_sqrt(a: np.ndarray) -> np.ndarray:
    n = _SERIES_LEN
    c = np.zeros(a.shape)
    c[..., 0] = np.sqrt(a[..., 0])
    for k in range(1, n):
        acc = sum(c[..., i] * c[..., k - i] for i in range(1, k))
        c[..., k] = (a[..., k] - acc) / (2.0 * c[..., 0])
    return c


def _ser_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a(b(x)) for truncated series, requires b[..., 0] == 0."""
    n = _SERIES_LEN
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., n - 1]
    for k in range(n - 2, -1, -1):  # Horner in the series algebra
        out = _ser_mul(out, b)
        out[..., 0] += a[..., k]
    return out


def _ser_invert(s: np.ndarray) -> np.ndarray:
    """Compositional inverse t(y) of y = s(x), requires s[..., 0] = 0 and
    s[..., 1] != 0."""
    n = _SERIES_LEN
    t = np.zeros(s.shape)
    t[..., 1] = 1.0 / s[..., 1]
    for k in range(2, n):
        t[..., k] = -_ser_compose(s, t)[..., k] / s[..., 1]
    return t


# ---------------------------------------------------------------------------
# Curve
# ---------------------------------------------------------------------------


class Curve:
    """A C^5 space curve with derivative access on scalars or arrays of s.

    eval_fn(s) and deriv_fn(s, j) take a scalar or an array of parameters
    and return shape (3, *s.shape); deriv_fn supplies analytic derivatives
    up to analytic_order, and higher orders fall back to
    Richardson-extrapolated central differences.  jet_fn(s, n), if given,
    returns the derivatives of orders 0..n, shape (n + 1, 3, *s.shape), from
    one computation.  A call on an array of s costs a handful of numpy
    operations on that array, so callers should evaluate many parameters
    per call rather than loop over scalars.
    """

    def __init__(
        self,
        eval_fn: Callable,
        deriv_fn: Optional[Callable] = None,
        domain: tuple[float, float] = (-1.0, 1.0),
        arclength: bool = False,
        analytic_order: int = 0,
        name: str = "curve",
        jet_fn: Optional[Callable] = None,
    ):
        self._eval = eval_fn
        self._deriv = deriv_fn
        self._jet = jet_fn
        self.domain = (float(domain[0]), float(domain[1]))
        self.arclength_flag = bool(arclength)
        self.analytic_order = int(analytic_order)
        self.name = name

    def eval(self, s) -> np.ndarray:
        """gamma(s), shape (3, *np.shape(s))."""
        return np.asarray(self._eval(s), dtype=float)

    def derivative(self, s, order: int) -> np.ndarray:
        """gamma^(order)(s), shape (3, *np.shape(s))."""
        if order == 0:
            return self.eval(s)
        if self._deriv is not None and order <= self.analytic_order:
            return np.asarray(self._deriv(s, order), dtype=float)
        base = self.analytic_order if self._deriv is not None else 0
        if base == 0:
            return nested_diff(self._eval, s, order)
        return nested_diff(lambda t: self._deriv(t, base), s, order - base)

    def derivatives(self, s, orders: Sequence[int]) -> list[np.ndarray]:
        """gamma^(j)(s) for each j in orders, each of shape (3, *np.shape(s));
        a curve with a jet function computes all of them from one jet."""
        top = max(orders)
        if self._jet is not None and top <= self.analytic_order:
            jet = self._jet(s, top)
            return [jet[j] for j in orders]
        return [self.derivative(s, j) for j in orders]


# ---------------------------------------------------------------------------
# benchmark curves
# ---------------------------------------------------------------------------


def vec3(s, x, y, z) -> np.ndarray:
    """Components that are scalars or arrays of s's shape, as (3, *s.shape)."""
    if np.ndim(s) == 0:
        return np.array([x, y, z], dtype=float)
    out = np.empty((3,) + np.shape(s))
    out[0], out[1], out[2] = x, y, z
    return out


def trig_cycle(u, j: int):
    """(d^j/du^j cos u, d^j/du^j sin u)."""
    c, s = np.cos(u), np.sin(u)
    return ((c, s), (-s, c), (-c, -s), (s, -c))[j % 4]


def helix(a: float = 1.0, b: float = 1.0, domain=(-1.0, 1.0)) -> Curve:
    """Circular helix (a cos u, a sin u, b u) parametrized by arclength."""
    c = np.hypot(a, b)

    def dv(s, j):
        u = s / c
        w = 1.0 / c**j
        cx, sx = trig_cycle(u, j)
        z = b * u if j == 0 else (b / c if j == 1 else 0.0)
        return vec3(u, a * cx * w, a * sx * w, z)

    return Curve(lambda s: dv(s, 0), dv, domain=domain, arclength=True,
                 analytic_order=5, name=f"helix({a},{b})")


def planar_circle(domain=(-1.0, 1.0)) -> Curve:
    def dv(s, j):
        cx, sx = trig_cycle(s, j)
        return vec3(s, cx, sx, 0.0)

    return Curve(lambda s: dv(s, 0), dv, domain=domain, arclength=True,
                 analytic_order=5, name="circle")


def line(domain=(-1.0, 1.0)) -> Curve:
    def dv(s, j):
        x = s if j == 0 else (1.0 if j == 1 else 0.0)
        return vec3(s, x, 0.0, 0.0)

    return Curve(lambda s: dv(s, 0), dv, domain=domain, arclength=True,
                 analytic_order=5, name="line")


def _poly_curve(powers, domain, name) -> Curve:
    def dv(s, j):
        out = np.zeros((3,) + np.shape(s))
        for axis, p in enumerate(powers):
            if j <= p:
                fall = 1.0
                for i in range(j):
                    fall *= p - i
                out[axis] = fall * s ** (p - j)
        return out

    return Curve(lambda s: dv(s, 0), dv, domain=domain, arclength=False,
                 analytic_order=5, name=name)


def twisted_cubic(domain=(-1.0, 1.0)) -> Curve:
    return _poly_curve((1, 2, 3), domain, "twisted_cubic")


def quartic_curve(domain=(-1.0, 1.0)) -> Curve:
    return _poly_curve((1, 2, 4), domain, "quartic")


def reparametrize_arclength(curve: Curve, nodes: int = 1024) -> Curve:
    """Reparametrize by arclength (centered so that parameter 0 maps to 0).

    Arclength is accumulated by Gauss-Legendre panels (one derivative call
    for all nodes x 10 points); the inverse map uses monotone interpolation
    refined by Newton, and derivatives are obtained by exact chain rule via
    truncated Taylor series of the original curve.  The new curve takes
    arrays of s, and one jet (six derivative calls of the original curve on
    the array) gives all its derivatives up to order 5.
    """
    t0, t1 = curve.domain
    gx, gw = leggauss(10)

    def speed(t):
        return np.linalg.norm(curve.derivative(t, 1), axis=0)

    grid = np.linspace(t0, t1, nodes + 1)
    mid, half = 0.5 * (grid[:-1] + grid[1:]), 0.5 * np.diff(grid)
    seg = half * (speed(mid[:, None] + half[:, None] * gx) @ gw)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s_of_t = PchipInterpolator(grid, cum)
    t_of_s = PchipInterpolator(cum, grid)
    s_center = float(s_of_t(0.0)) if t0 <= 0.0 <= t1 else float(cum[0])

    def param_at(s):
        target = np.asarray(s, dtype=float) + s_center
        t = np.clip(t_of_s(target), t0, t1)
        for _ in range(4):  # Newton refinement to machine precision
            t = np.clip(t - (s_of_t(t) - target) / speed(t), t0, t1)
        return t

    def jet(s, top):
        """Derivatives 0..top of the new curve at s, (top + 1, 3, *s.shape),
        from the Taylor coefficients of each coordinate at t(s)."""
        t = param_at(s)
        g = np.stack([curve.derivative(t, j) for j in range(_SERIES_LEN)],
                     axis=-1) / _FACTORIALS  # (3, *s.shape, series)
        v = np.zeros(g.shape)
        v[..., :-1] = g[..., 1:] * np.arange(1, _SERIES_LEN)
        w = _ser_sqrt(_ser_mul(v, v).sum(axis=0))
        s_ser = np.zeros(w.shape)  # arclength increment series, s(t0+x)-s(t0)
        s_ser[..., 1:] = w[..., :-1] / np.arange(1, _SERIES_LEN)
        coef = _ser_compose(g, _ser_invert(s_ser))
        coef = coef[..., : top + 1] * _FACTORIALS[: top + 1]
        return np.moveaxis(coef, -1, 0)

    def dv(s, j):
        return jet(s, j)[j]

    new_domain = (cum[0] - s_center, cum[-1] - s_center)
    return Curve(lambda s: curve.eval(param_at(s)), dv, domain=new_domain,
                 arclength=True, analytic_order=5,
                 name=curve.name + "_arclen", jet_fn=jet)


_BENCHMARKS = {
    "helix": lambda **kw: helix(kw.get("a", 1.0), kw.get("b", 1.0)),
    "circle": lambda **kw: planar_circle(),
    "twisted_cubic": lambda **kw: reparametrize_arclength(
        twisted_cubic(domain=(kw.get("t0", -0.4), kw.get("t1", 0.4)))),
    "quartic": lambda **kw: quartic_curve(),
    "line": lambda **kw: line(),
}


def benchmark_curve(name: str, **params) -> Curve:
    try:
        return _BENCHMARKS[name](**params)
    except KeyError:
        raise ValueError(f"unknown benchmark curve {name!r}; "
                         f"choices: {sorted(_BENCHMARKS)}") from None


# ---------------------------------------------------------------------------
# Frenet frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrenetFrame:
    """Frame at one parameter (T, N, B of shape (3,); kappa, tau, s floats)
    or at n parameters (T, N, B of shape (n, 3); kappa, tau, s of shape
    (n,))."""

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float | np.ndarray
    tau: float | np.ndarray
    s: float | np.ndarray


def _dot3(a: np.ndarray, b: np.ndarray):
    """Inner product of component-first arrays (3, ...) over the first axis."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of component-first arrays (3, ...); np.cross carries
    heavy axis-handling overhead for single 3-vectors."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def frenet_frame(curve: Curve, s,
                 floor: float = CURVATURE_FLOOR) -> FrenetFrame:
    """Orthonormal (T, N, B) with curvature and torsion at s.

    s is a scalar or a 1-d array of n parameters; an array gives T, N, B of
    shape (n, 3) and kappa, tau of shape (n,) from one derivatives call
    (orders 1-3) on the whole array.  Raises DegenerateCurvature naming the
    first parameter whose |gamma' x gamma''| is below the floor.
    """
    s = np.asarray(s, dtype=float)
    d1, d2, d3 = curve.derivatives(s, (1, 2, 3))
    speed = np.sqrt(_dot3(d1, d1))
    cross = _cross3(d1, d2)
    cn = np.sqrt(_dot3(cross, cross))
    low = cn < floor * np.maximum(1.0, speed**2)
    if low.any():
        i = np.argmax(low) if s.ndim else ()
        raise DegenerateCurvature(
            f"|gamma' x gamma''| = {cn[i]:.3e} below floor at s={s[i]}")
    T = d1 / speed
    B = cross / cn
    N = _cross3(B, T)
    kappa = cn / speed**3
    tau = _dot3(cross, d3) / cn**2
    if s.ndim == 0:
        return FrenetFrame(T=T, N=N, B=B, kappa=float(kappa), tau=float(tau),
                           s=float(s))
    return FrenetFrame(T=T.T, N=N.T, B=B.T, kappa=kappa, tau=tau, s=s)


# ---------------------------------------------------------------------------
# finite type
# ---------------------------------------------------------------------------


@dataclass
class FiniteTypeReport:
    types: list[int]
    max_type: int
    witness_constant: float
    exponent_triple: Optional[tuple[int, int, int]] = None


def finite_type(
    curve: Curve,
    s_samples: Sequence[float],
    xi_samples: Sequence[np.ndarray],
    n_max: int,
    c_floor: float = 1e-6,
) -> FiniteTypeReport:
    """Smallest n per sample point with sum_{j<=n} |<gamma^(j), xi>| >= c_floor."""
    if n_max > 5:
        raise ValueError("n_max must be <= 5 (derivative order available)")
    if not len(s_samples) or not len(xi_samples):
        raise ValueError("sample lists must be nonempty")
    xi = np.array([np.asarray(x, dtype=float) for x in xi_samples])
    xi = xi / np.linalg.norm(xi, axis=1, keepdims=True)
    types = []
    witness = np.inf
    for s in s_samples:
        derivs = np.array([curve.derivative(s, j) for j in range(1, n_max + 1)])
        pair = np.abs(xi @ derivs.T)  # (n_xi, n_max)
        sums = np.cumsum(pair, axis=1)
        mins = sums.min(axis=0)
        ok = np.nonzero(mins >= c_floor)[0]
        if len(ok) == 0:
            raise TypeExceedsNMax(
                f"type exceeds n_max={n_max} at s={s} (min sum {mins[-1]:.3e})")
        n = int(ok[0]) + 1
        types.append(n)
        witness = min(witness, float(mins[n - 1]))
    return FiniteTypeReport(types=types, max_type=max(types),
                            witness_constant=witness)


def exponent_triple(curve: Curve, s0: float, n_max: int = 5,
                    tol: float = 1e-8) -> tuple[int, int, int]:
    """Orders (n1 < n2 < n3) at which span{gamma', ..., gamma^(j)} grows at s0."""
    basis: list[np.ndarray] = []
    orders: list[int] = []
    for j in range(1, n_max + 1):
        v = curve.derivative(s0, j)
        w = v.copy()
        for b in basis:
            w = w - np.dot(w, b) * b
        if np.linalg.norm(w) > tol * max(1.0, np.linalg.norm(v)):
            basis.append(w / np.linalg.norm(w))
            orders.append(j)
        if len(orders) == 3:
            return (orders[0], orders[1], orders[2])
    raise TypeExceedsNMax(f"derivatives up to order {n_max} do not span R^3 at s={s0}")


# ---------------------------------------------------------------------------
# generator curve of the binormal cone
# ---------------------------------------------------------------------------


class GeneratorCurve:
    """A plane curve alpha -> g(alpha) with derivatives to order 3 and the
    sampled bounds b0 (C^3 norm), b1 (min speed), b2 (min |g1'g2'' - g2'g1''|)."""

    def __init__(
        self,
        eval_fn: Callable[[float], np.ndarray],
        deriv_fn: Optional[Callable[[float, int], np.ndarray]] = None,
        domain: tuple[float, float] = (-1.0, 1.0),
        kind: str = "generic",
        bound_samples: int = 129,
    ):
        self._eval = eval_fn
        self._deriv = deriv_fn
        self.domain = (float(domain[0]), float(domain[1]))
        self.kind = kind
        self._sample_bounds(bound_samples)

    def eval(self, alpha: float) -> np.ndarray:
        return np.asarray(self._eval(alpha), dtype=float)

    def derivative(self, alpha: float, order: int) -> np.ndarray:
        if order == 0:
            return self.eval(alpha)
        if self._deriv is not None:
            return np.asarray(self._deriv(alpha, order), dtype=float)
        return nested_diff(self._eval, alpha, order)

    def _sample_bounds(self, n: int) -> None:
        lo, hi = self.domain
        pad = 2 * FD_STEP
        alphas = np.linspace(lo + pad, hi - pad, n)
        c3 = 0.0
        b1 = np.inf
        b2 = np.inf
        for a in alphas:
            ds = [self.derivative(a, j) for j in range(4)]
            c3 = max(c3, max(np.linalg.norm(d) for d in ds))
            g1, g2 = ds[1], ds[2]
            b1 = min(b1, float(np.linalg.norm(g1)))
            b2 = min(b2, abs(float(g1[0] * g2[1] - g1[1] * g2[0])))
        self.b0, self.b1, self.b2 = float(c3), float(b1), float(b2)

    def det2(self, alpha: float) -> float:
        """g1'g2'' - g2'g1'' at alpha."""
        g1 = self.derivative(alpha, 1)
        g2 = self.derivative(alpha, 2)
        return float(g1[0] * g2[1] - g1[1] * g2[0])


def unit_circle_generator(domain=(-np.pi, np.pi)) -> GeneratorCurve:
    def dv(a, j):
        return np.array(trig_cycle(a, j))

    return GeneratorCurve(lambda a: dv(a, 0), dv, domain=domain, kind="circle")


def parabola_generator(domain=(-1.0, 1.0)) -> GeneratorCurve:
    def dv(a, j):
        if j == 0:
            return np.array([a, a * a / 2.0])
        if j == 1:
            return np.array([1.0, a])
        if j == 2:
            return np.array([0.0, 1.0])
        return np.zeros(2)

    return GeneratorCurve(lambda a: dv(a, 0), dv, domain=domain, kind="parabola")


def tilted_circle_generator(a: float, b: float, rho: float,
                            domain=(-np.pi, np.pi)) -> GeneratorCurve:
    def dv(al, j):
        cx, sx = trig_cycle(al, j)
        if j == 0:
            return np.array([a + rho * cx, b + rho * sx])
        return np.array([rho * cx, rho * sx])

    return GeneratorCurve(lambda al: dv(al, 0), dv, domain=domain,
                          kind="tilted_circle")


def binormal_generator(curve: Curve, interval: Optional[tuple[float, float]] = None,
                       samples: int = 257) -> GeneratorCurve:
    """Level-curve generator g = (B1/B3, B2/B3) of the binormal cone."""
    lo, hi = interval if interval is not None else curve.domain
    grid = np.linspace(lo, hi, samples)
    fr = frenet_frame(curve, grid)
    bad = (np.abs(fr.tau) < CURVATURE_FLOOR) | (fr.B[:, 2] <= 0.5)
    if bad.any():
        i = np.argmax(bad)
        if abs(fr.tau[i]) < CURVATURE_FLOOR:
            raise DegenerateCurvature(
                f"torsion {fr.tau[i]:.3e} below floor at s={grid[i]}")
        raise B3TooSmall(f"B3(s) = {fr.B[i, 2]:.4f} <= 1/2 at s={grid[i]}")

    def ev(s):
        B = frenet_frame(curve, s).B
        return np.array([B[0] / B[2], B[1] / B[2]])

    return GeneratorCurve(ev, None, domain=(lo, hi), kind="binormal")


def generator_det_identity(curve: Curve, s: float) -> tuple[float, float, float]:
    """Generator determinant vs the two closed-form candidates.

    lhs = g1'g2'' - g2'g1'' for g = (B1/B3, B2/B3).  rhs_frenet uses
    det(B', B'', B) = kappa tau^2; rhs_alt is the kappa tau / B3^3 variant
    returned for comparison (it does not match lhs; see the test suite).
    """
    fr = frenet_frame(curve, s)
    if abs(fr.tau) < CURVATURE_FLOOR:
        raise DegenerateCurvature(f"torsion below floor at s={s}")

    def g(sig):
        B = frenet_frame(curve, sig).B
        return np.array([B[0] / B[2], B[1] / B[2]])

    g1 = nested_diff(g, s, 1)
    g2 = nested_diff(g, s, 2)
    lhs = float(g1[0] * g2[1] - g1[1] * g2[0])
    b3 = fr.B[2]
    rhs_alt = fr.kappa * fr.tau / b3**3
    rhs_frenet = fr.kappa * fr.tau**2 / b3**3
    return lhs, float(rhs_alt), float(rhs_frenet)


# ---------------------------------------------------------------------------
# cone chart (r, u, sigma) and its gradients
# ---------------------------------------------------------------------------


def cone_point(curve: Curve, r: float, u: float, sigma: float) -> np.ndarray:
    """xi = r B(sigma) + u T(sigma)."""
    fr = frenet_frame(curve, sigma)
    return r * fr.B + u * fr.T


def cone_coordinates(
    curve: Curve,
    xi: np.ndarray,
    u_over_r_cap: float = 0.2,
    grid_points: int = 64,
    max_iter: int = 60,
) -> tuple[float, float, float]:
    """Invert xi = r B(sigma) + u T(sigma): bracketed root of <xi, N(sigma)> = 0."""
    xi = np.asarray(xi, dtype=float)
    lo, hi = curve.domain
    grid = np.linspace(lo, hi, grid_points)
    vals = frenet_frame(curve, grid).N @ xi

    def fN(s):
        return float(np.dot(xi, frenet_frame(curve, s).N))

    candidates = []
    for i in range(grid_points - 1):
        a, b = grid[i], grid[i + 1]
        if vals[i] == 0.0:
            candidates.append(a)
        elif vals[i] * vals[i + 1] < 0.0:
            candidates.append(brentq(fN, a, b, maxiter=max_iter, xtol=1e-14))
    if vals[-1] == 0.0:
        candidates.append(hi)

    best = None
    for sig in candidates:
        fr = frenet_frame(curve, sig)
        r = float(np.dot(xi, fr.B))
        u = float(np.dot(xi, fr.T))
        if r <= 0.0 or abs(u) > u_over_r_cap * r:
            continue
        if best is None or abs(u) < abs(best[1]):
            best = (r, u, float(sig))
    if best is None:
        raise OutsideCone("no root of <xi, N(sigma)> with r > 0 and |u|/r "
                          f"<= {u_over_r_cap} in {curve.domain}")
    r, u, sigma = best
    recon = cone_point(curve, r, u, sigma)
    if np.linalg.norm(recon - xi) > 1e-9 * np.linalg.norm(xi):
        raise NotConverged(
            f"chart reconstruction residual {np.linalg.norm(recon - xi):.3e}")
    return r, u, sigma


def scr_gradients(curve: Curve, xi: np.ndarray,
                  floor: float = CURVATURE_FLOOR) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the chart: grad r = B, grad u = T, grad sigma = N/(u kappa - r tau)."""
    r, u, sigma = cone_coordinates(curve, xi)
    fr = frenet_frame(curve, sigma)
    denom = u * fr.kappa - r * fr.tau
    if abs(denom) < floor:
        raise SingularJacobian(f"u*kappa - r*tau = {denom:.3e} below floor")
    return fr.B.copy(), fr.T.copy(), fr.N / denom


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def curve_samples_csv(curve: Curve, n: int = 100) -> str:
    """CSV with columns (s, x, y, z, kappa, tau) on a uniform parameter grid."""
    lo, hi = curve.domain
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["s", "x", "y", "z", "kappa", "tau"])
    for s in np.linspace(lo, hi, n):
        p = curve.eval(s)
        try:
            fr = frenet_frame(curve, s)
            kappa, tau = fr.kappa, fr.tau
        except DegenerateCurvature:
            kappa, tau = float("nan"), float("nan")
        writer.writerow([f"{v:.12g}" for v in (s, p[0], p[1], p[2], kappa, tau)])
    return buf.getvalue()
