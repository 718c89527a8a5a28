"""Space curves, Frenet data, finite type, and the binormal cone chart.

Provides the Curve / FrenetFrame / FiniteTypeReport types, benchmark curve
constructors, arclength reparametrization, the finite-type rescaling of a
curve at a point, the plane generator curves of the cone, and the chart
(r, u, sigma) on the cone of binormal directions together with its gradient
formulas.  A Curve is one derivative function dv(s, j), orders 0..MAX_ORDER,
with d components: space curves have 3, and the plane generators (unit,
tilted and osculating circles, the parabola, the binormal generator) are
2-component Curves, all evaluated on scalars or arrays of the parameter.
Every dv is in closed form except the binormal generator's, which takes
finite differences.  finite_type_rescale returns a RescaledCurve, itself a
Curve, whose case n = (1, 2, 3) is the (l, nu) section rescaling.  The
chart has one inversion, cone_chart, which resolves many frequencies in one
call; cone_coordinates is its scalar form.  fit_line is the one
least-squares line fit behind every sweep's slope, gauss_legendre the one
Gauss-Legendre rule builder behind every integral over a curve parameter,
and derivative_sup, on nested_diff, the one difference routine behind
every symbol-estimate check (plate bumps, Hormander constants, localized
pieces).
"""

from __future__ import annotations

from math import factorial, perm
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    B3TooSmall,
    DegenerateCurvature,
    DegenerateExpansion,
    NotConverged,
    OutsideCone,
    SingularJacobian,
    TypeExceedsNMax,
)

CURVATURE_FLOOR = 1e-10
FD_STEP = 1e-4
MAX_ORDER = 5  # the highest derivative order a Curve supplies
TYPE_FLOOR = 1e-6  # finite_type's lower bound on sum_j |<gamma^(j), xi>|

# ---------------------------------------------------------------------------
# finite differences (central, Richardson-extrapolated)
# ---------------------------------------------------------------------------


def nested_diff(f: Callable[[float], np.ndarray], x: float, order: int):
    """order-th derivative of f at x: central differences of step FD_STEP
    and one Richardson step, applied to the (order - 1)-th derivative."""
    if order == 0:
        return np.asarray(f(x), dtype=float)
    g = f if order == 1 else (lambda t: nested_diff(f, t, order - 1))
    h = FD_STEP
    d_h = (np.asarray(g(x + h)) - np.asarray(g(x - h))) / (2.0 * h)
    d_h2 = (np.asarray(g(x + h / 2)) - np.asarray(g(x - h / 2))) / h
    return (4.0 * d_h2 - d_h) / 3.0


def derivative_sup(f: Callable[[np.ndarray], np.ndarray], x, steps
                   ) -> np.ndarray:
    """Per point of x, the largest |d_t^alpha f(x + sum_i t_i steps[i])| at
    t = 0 over |alpha| <= 2, alpha = 0 included: every partial is
    nested_diff of f on whole arrays.  Each step broadcasts against x, so a
    bound |d^alpha f| <= C h^-alpha reads derivative_sup <= C at steps h."""
    x = np.asarray(x, dtype=float)
    steps = [np.asarray(h, dtype=float) for h in steps]
    worst = np.abs(f(x))
    for i, hi in enumerate(steps):
        for order in (1, 2):
            d = nested_diff(lambda t: f(x + t * hi), 0.0, order)
            worst = np.maximum(worst, np.abs(d))
        for hj in steps[i + 1:]:
            d = nested_diff(lambda t: nested_diff(
                lambda s: f(x + t * hi + s * hj), 0.0, 1), 0.0, 1)
            worst = np.maximum(worst, np.abs(d))
    return worst


# ---------------------------------------------------------------------------
# sweep slopes
# ---------------------------------------------------------------------------


def fit_line(x, y) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y on x; both nan without two
    distinct x values, which determine no line."""
    if np.unique(x).size < 2:
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gl_table(order: int):
    """numpy's [-1, 1] rule (O(order^3)), built once per order, read-only."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(a, b, order: int, panels: int = 1):
    """Nodes (panel by panel, ascending) and weights, new arrays each call, of
    the order-point Gauss-Legendre rule on `panels` equal panels of [a, b].

    Scalar ends give two arrays of shape (order * panels,).  Arrays of q
    ends give one rule per interval, shape (q, order * panels), each row
    equal bit for bit to the scalar call on its ends."""
    x, w = _gl_table(order)
    e = np.linspace(a, b, panels + 1, axis=-1)[..., None]  # panel edges
    lo, hi = e[..., :-1, :], e[..., 1:, :]
    half = 0.5 * (hi - lo)
    shape = e.shape[:-2] + (-1,)
    return (0.5 * (lo + hi) + half * x).reshape(shape), \
        (half * w).reshape(shape)


# ---------------------------------------------------------------------------
# truncated Taylor series arithmetic (for exact chain-rule reparametrization)
# ---------------------------------------------------------------------------

# Coefficients run along the last axis; leading axes broadcast, so one call
# handles the series of many points at once.
_SERIES_LEN = MAX_ORDER + 1  # coefficients 0..MAX_ORDER
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
    """A curve of d components given by one derivative function.

    dv(s, j) takes a scalar or an array of parameters and returns
    gamma^(j)(s), shape (d, *s.shape), for every order j = 0..MAX_ORDER;
    higher orders are refused with ValueError.  Every curve supplies its
    derivatives in closed form except the binormal generator, whose dv
    takes finite differences (nested_diff).  jet_fn(s, n), if given,
    returns the derivatives of orders 0..n, shape (n + 1, d, *s.shape), from
    one computation.  A call on an array of s costs a handful of numpy
    operations on that array, so callers should evaluate many parameters
    per call rather than loop over scalars.
    """

    def __init__(self, dv: Callable, domain: tuple[float, float] = (-1.0, 1.0),
                 arclength: bool = False, name: str = "curve",
                 jet_fn: Optional[Callable] = None):
        self._dv = dv
        self._jet = jet_fn
        self.domain = (float(domain[0]), float(domain[1]))
        self.arclength_flag = bool(arclength)
        self.name = name

    def eval(self, s) -> np.ndarray:
        """gamma(s), shape (d, *np.shape(s))."""
        return np.asarray(self._dv(s, 0), dtype=float)

    def derivative(self, s, order: int) -> np.ndarray:
        """gamma^(order)(s), shape (d, *np.shape(s))."""
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"derivative order {order} not in 0..{MAX_ORDER}")
        return np.asarray(self._dv(s, order), dtype=float)

    def derivatives(self, s, orders: Sequence[int]) -> list[np.ndarray]:
        """gamma^(j)(s) for each j in orders, each of shape (d, *np.shape(s));
        a curve with a jet function computes all of them from one jet."""
        top = max(orders)
        if self._jet is None or not 0 <= min(orders) <= top <= MAX_ORDER:
            return [self.derivative(s, j) for j in orders]
        jet = self._jet(s, top)
        return [jet[j] for j in orders]


# ---------------------------------------------------------------------------
# benchmark curves
# ---------------------------------------------------------------------------


def vec(s, *comps) -> np.ndarray:
    """Components that are scalars or arrays of s's shape, as
    (len(comps), *s.shape)."""
    if np.ndim(s) == 0:
        return np.array(comps, dtype=float)
    out = np.empty((len(comps),) + np.shape(s))
    for i, c in enumerate(comps):
        out[i] = c
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
        return vec(u, a * cx * w, a * sx * w, z)

    return Curve(dv, domain=domain, arclength=True, name=f"helix({a},{b})")


def planar_circle() -> Curve:
    def dv(s, j):
        cx, sx = trig_cycle(s, j)
        return vec(s, cx, sx, 0.0)

    return Curve(dv, domain=(-1.0, 1.0), arclength=True, name="circle")


def line() -> Curve:
    def dv(s, j):
        x = s if j == 0 else (1.0 if j == 1 else 0.0)
        return vec(s, x, 0.0, 0.0)

    return Curve(dv, domain=(-1.0, 1.0), arclength=True, name="line")


def _poly_curve(powers, domain, name) -> Curve:
    def dv(s, j):
        out = np.zeros((3,) + np.shape(s))
        for axis, p in enumerate(powers):
            if j <= p:
                out[axis] = perm(p, j) * s ** (p - j)
        return out

    return Curve(dv, domain=domain, arclength=False, name=name)


def twisted_cubic(domain=(-1.0, 1.0)) -> Curve:
    return _poly_curve((1, 2, 3), domain, "twisted_cubic")


def quartic_curve() -> Curve:
    return _poly_curve((1, 2, 4), (-1.0, 1.0), "quartic")


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end, set to 0 where its sign
    differs from m0 and to 3 m0 where it exceeds 3|m0| across a sign
    change of the data (Moler, Numerical Computing with MATLAB, 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: np.ndarray, y: np.ndarray) -> Callable:
    """Monotone piecewise-cubic Hermite interpolant of (x, y), x increasing:
    scipy's PchipInterpolator, with its arithmetic.  Interior slopes are
    Fritsch-Butland weighted harmonic means of the neighbouring secants (0
    where they differ in sign or one is 0); points beyond either end follow
    the end cubics.  An array is evaluated by one searchsorted and one
    gather of (coefficients, left knot) columns."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty(len(y))
    if len(m) == 1:  # two points: the line through them
        d[:] = m[0]
    else:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) \
            | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(
                flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    # cubic on [x_i, x_i+1] in u = x - x_i: c0 u^3 + c1 u^2 + c2 u + c3
    table = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1], x[:-1]])
    inner = x[1:-1]  # a point beyond an end knot falls in that end's cubic

    def interp(xq):
        xq = np.asarray(xq, dtype=float)
        c0, c1, c2, c3, left = table.take(
            np.searchsorted(inner, xq, side="right"), axis=1)
        u = xq - left
        u2 = u * u
        return c3 + c2 * u + c1 * u2 + c0 * (u2 * u)

    return interp


def reparametrize_arclength(curve: Curve) -> Curve:
    """Reparametrize by arclength (centered so that parameter 0 maps to 0).

    Arclength is accumulated over 1024 10-point Gauss-Legendre panels (one
    derivative call for all their points).  The maps t -> s and s -> t are
    monotone cubic (PCHIP, `_pchip`) interpolants of the accumulated
    arclength; the inverse map is refined by four Newton steps on t -> s,
    and derivatives are obtained by exact chain rule via truncated Taylor
    series of the original curve.  The new curve takes arrays of s: its
    point is one evaluation of the original curve at t(s), and one jet
    (MAX_ORDER + 1 derivative calls of the original curve on the array)
    gives all its derivatives.
    """
    t0, t1 = curve.domain

    def speed(t):
        return np.linalg.norm(curve.derivative(t, 1), axis=0)

    grid = np.linspace(t0, t1, 1025)  # the panel edges of gauss_legendre
    tq, wq = gauss_legendre(t0, t1, 10, 1024)
    seg = (speed(tq) * wq).reshape(1024, 10).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s_of_t = _pchip(grid, cum)
    t_of_s = _pchip(cum, grid)
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
        return curve.eval(param_at(s)) if j == 0 else jet(s, j)[j]

    new_domain = (cum[0] - s_center, cum[-1] - s_center)
    return Curve(dv, domain=new_domain, arclength=True,
                 name=curve.name + "_arclen", jet_fn=jet)


_BENCHMARKS = {
    "helix": helix,
    "circle": planar_circle,
    "twisted_cubic": lambda: reparametrize_arclength(
        twisted_cubic(domain=(-0.4, 0.4))),
    "quartic": quartic_curve,
    "line": line,
}


def benchmark_curve(name: str) -> Curve:
    """The named curve of _BENCHMARKS, built with its fixed parameters."""
    try:
        return _BENCHMARKS[name]()
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


def frenet_frame(curve: Curve, s) -> FrenetFrame:
    """Orthonormal (T, N, B) with curvature and torsion at s.

    s is a scalar or a 1-d array of n parameters; an array gives T, N, B of
    shape (n, 3) and kappa, tau of shape (n,) from one derivatives call
    (orders 1-3) on the whole array.  Raises DegenerateCurvature naming the
    first parameter whose |gamma' x gamma''| is below CURVATURE_FLOOR.
    """
    s = np.asarray(s, dtype=float)
    d1, d2, d3 = curve.derivatives(s, (1, 2, 3))
    speed = np.sqrt(_dot3(d1, d1))
    cross = _cross3(d1, d2)
    cn = np.sqrt(_dot3(cross, cross))
    low = cn < CURVATURE_FLOOR * np.maximum(1.0, speed**2)
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


def finite_type(
    curve: Curve,
    s_samples: Sequence[float],
    xi_samples: Sequence[np.ndarray],
    n_max: int,
) -> FiniteTypeReport:
    """Smallest n per point with sum_{j<=n} |<gamma^(j), xi>| >= TYPE_FLOOR."""
    if n_max > MAX_ORDER:
        raise ValueError(f"n_max={n_max} exceeds MAX_ORDER={MAX_ORDER}")
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
        ok = np.nonzero(mins >= TYPE_FLOOR)[0]
        if len(ok) == 0:
            raise TypeExceedsNMax(
                f"type exceeds n_max={n_max} at s={s} (min sum {mins[-1]:.3e})")
        n = int(ok[0]) + 1
        types.append(n)
        witness = min(witness, float(mins[n - 1]))
    return FiniteTypeReport(types=types, max_type=max(types),
                            witness_constant=witness)


def exponent_triple(curve: Curve, s0: float) -> tuple[int, int, int]:
    """Orders (n1 < n2 < n3 <= MAX_ORDER) at which span{gamma', ...,
    gamma^(j)} grows at s0 (by more than 1e-8 max(1, |gamma^(j)|))."""
    basis: list[np.ndarray] = []
    orders: list[int] = []
    for j in range(1, MAX_ORDER + 1):
        v = curve.derivative(s0, j)
        w = v.copy()
        for b in basis:
            w = w - np.dot(w, b) * b
        if np.linalg.norm(w) > 1e-8 * max(1.0, np.linalg.norm(v)):
            basis.append(w / np.linalg.norm(w))
            orders.append(j)
        if len(orders) == 3:
            return (orders[0], orders[1], orders[2])
    raise TypeExceedsNMax(
        f"derivatives to order {MAX_ORDER} do not span R^3 at s={s0}")


@dataclass(frozen=True)
class Dilation:
    """x -> (2^{j n1} x1, 2^{j n2} x2, 2^{j n3} x3) on the last axis of x."""

    j: int
    exponents: tuple[int, int, int]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scales = np.ldexp(np.ones(3), [self.j * n for n in self.exponents])
        return x * scales

    def inverse(self) -> "Dilation":
        return Dilation(-self.j, self.exponents)


class RescaledCurve(Curve):
    """curve near s0 in adapted coordinates, dilated so that component i,
    Gamma_i(u) = 2^{j n_i} <frame_i, gamma(s0 + 2^-j u) - gamma(s0)>,
    behaves like betas_i u^{n_i} (1 + O(2^-j)).

    Gamma^(m) is 2^{j (n_i - m)} <frame_i, gamma^(m)> for m <= MAX_ORDER,
    from the parent's derivative.  u takes scalars or arrays, and the
    domain is the unit section |u| <= 1 clipped to the parent's domain.
    """

    def __init__(self, curve: Curve, s0: float, j: int,
                 exponents: tuple[int, int, int], betas: np.ndarray,
                 frame: np.ndarray):
        lo, hi = np.ldexp(np.subtract(curve.domain, s0), j)
        super().__init__(self.derivative, domain=(max(lo, -1.0), min(hi, 1.0)),
                         name=f"{curve.name}@{s0:g},j={j}")
        self.curve, self.s0, self.j = curve, float(s0), int(j)
        self.exponents, self.betas = exponents, betas
        self.frame = frame  # rows: adapted orthonormal coordinates
        self.origin = curve.eval(s0)

    def derivative(self, u, order: int) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        axis = (3,) + (1,) * u.ndim  # broadcasts a 3-vector over u
        d = self.curve.derivative(self.s0 + np.ldexp(u, -self.j), order)
        if order == 0:
            d = d - self.origin.reshape(axis)
        shift = self.j * (np.array(self.exponents) - order)
        return np.ldexp(np.tensordot(self.frame, d, axes=1),
                        shift.reshape(axis))

    def det(self, u: float) -> float:
        m = np.column_stack([self.derivative(u, m) for m in (1, 2, 3)])
        return float(np.linalg.det(m))

    def limit_det(self, u: float) -> float:
        """Determinant of the monomial limit curve (beta_i u^{n_i})."""
        m = [[b * perm(n, k) * float(u) ** max(n - k, 0) for k in (1, 2, 3)]
             for n, b in zip(self.exponents, self.betas)]
        return float(np.linalg.det(np.array(m)))

    def c5_norm(self) -> float:
        """Translation-invariant C^5 size: the sup over 21 equispaced u of
        the domain of |Gamma(u)| (the displacement from u = 0) and of
        |Gamma^(m)(u)| for m = 1..MAX_ORDER, one array call per order."""
        u = np.linspace(*self.domain, 21)
        return max(float(np.linalg.norm(self.derivative(u, m), axis=0).max())
                   for m in range(MAX_ORDER + 1))


_BETA_FLOOR = 1e-8  # smallest adapted direction and leading coefficient


def finite_type_rescale(curve: Curve, s0: float,
                        j: int) -> tuple[Dilation, RescaledCurve]:
    """Adapted dilation and rescaled curve at a point s0 of curve's domain.

    The frame is Gram-Schmidt (a QR) on gamma^(n_i)(s0) for the exponent
    triple (n1, n2, n3) of s0, and beta_i is the component of
    gamma^(n_i)(s0) / n_i! along frame row i.  At a type-(1, 2, 3) point
    the frame is (T, N, sign(tau) B) and the dilation is the (l, nu)
    section rescaling's (2^j, 2^2j, 2^3j).  Raises ValueError for s0
    outside the domain and DegenerateExpansion when a beta_i is below
    _BETA_FLOOR.
    """
    if not curve.domain[0] <= s0 <= curve.domain[1]:
        raise ValueError(f"rescaling point s0={s0} lies outside the domain "
                         f"{curve.domain} of {curve.name}")
    exps = exponent_triple(curve, s0)
    q, r = np.linalg.qr(np.column_stack(
        [curve.derivative(s0, n) / factorial(n) for n in exps]))
    betas, signs = np.abs(np.diag(r)), np.sign(np.diag(r))
    low = betas < _BETA_FLOOR
    if low.any():
        raise DegenerateExpansion(f"adapted direction degenerate at order "
                                  f"{exps[np.argmax(low)]}")
    frame = (q * signs).T
    return Dilation(j, exps), RescaledCurve(curve, s0, j, exps, betas, frame)


# ---------------------------------------------------------------------------
# plane generator curves of the cone
# ---------------------------------------------------------------------------


def _circle(center, rho: float, speed: float, alpha0: float, domain,
            name: str) -> Curve:
    """The plane circle center + rho (cos, sin)(speed (alpha - alpha0)); its
    j-th derivative is rho speed^j trig_cycle(speed (alpha - alpha0), j),
    plus center at j = 0."""
    c0, c1 = center

    def dv(a, j):
        cx, sx = trig_cycle(speed * (a - alpha0), j)
        w = rho * speed**j
        if j == 0:
            return np.array([c0 + w * cx, c1 + w * sx])
        return np.array([w * cx, w * sx])

    return Curve(dv, domain=domain, name=name)


def unit_circle_generator(domain=(-np.pi, np.pi)) -> Curve:
    return _circle((0.0, 0.0), 1.0, 1.0, 0.0, domain, "unit_circle")


def parabola_generator() -> Curve:
    def dv(a, j):
        j = min(j, 3)
        return vec(a, (a, 1.0, 0.0, 0.0)[j], (a * a / 2.0, a, 1.0, 0.0)[j])

    return Curve(dv, domain=(-1.0, 1.0), name="parabola")


def tilted_circle_generator(a: float, b: float, rho: float) -> Curve:
    return _circle((a, b), rho, 1.0, 0.0, (-np.pi, np.pi),
                   f"tilted_circle({a},{b},{rho})")


def _binormal_ratio(curve: Curve, s) -> np.ndarray:
    """g(s) = (B1/B3, B2/B3), shape (2, *np.shape(s))."""
    B = frenet_frame(curve, s).B.T
    return B[:2] / B[2]


def binormal_generator(curve: Curve) -> Curve:
    """Level-curve generator g = (B1/B3, B2/B3) of the binormal cone over
    the curve's domain (tau and B3 > 1/2 checked at 257 points); its
    derivatives are finite differences of g."""
    lo, hi = curve.domain
    grid = np.linspace(lo, hi, 257)
    fr = frenet_frame(curve, grid)
    bad = (np.abs(fr.tau) < CURVATURE_FLOOR) | (fr.B[:, 2] <= 0.5)
    if bad.any():
        i = np.argmax(bad)
        if abs(fr.tau[i]) < CURVATURE_FLOOR:
            raise DegenerateCurvature(
                f"torsion {fr.tau[i]:.3e} below floor at s={grid[i]}")
        raise B3TooSmall(f"B3(s) = {fr.B[i, 2]:.4f} <= 1/2 at s={grid[i]}")
    def dv(s, j):
        return nested_diff(lambda t: _binormal_ratio(curve, t), s, j)

    return Curve(dv, domain=(lo, hi), name=f"binormal({curve.name})")


def generator_det_identity(curve: Curve, s: float) -> tuple[float, float, float]:
    """Generator determinant vs the two closed-form candidates.

    lhs = g1'g2'' - g2'g1'' for g = (B1/B3, B2/B3).  rhs_frenet uses
    det(B', B'', B) = kappa tau^2; rhs_alt is the kappa tau / B3^3 variant
    returned for comparison (it does not match lhs; see the test suite).
    """
    fr = frenet_frame(curve, s)
    if abs(fr.tau) < CURVATURE_FLOOR:
        raise DegenerateCurvature(f"torsion below floor at s={s}")
    g1, g2 = (nested_diff(lambda sig: _binormal_ratio(curve, sig), s, j)
              for j in (1, 2))
    lhs = float(g1[0] * g2[1] - g1[1] * g2[0])
    b3 = fr.B[2]
    rhs_alt = fr.kappa * fr.tau / b3**3
    rhs_frenet = fr.kappa * fr.tau**2 / b3**3
    return lhs, float(rhs_alt), float(rhs_frenet)


# ---------------------------------------------------------------------------
# cone chart (r, u, sigma) and its gradients
# ---------------------------------------------------------------------------


def cone_point(curve: Curve, r, u, sigma) -> np.ndarray:
    """xi = r B(sigma) + u T(sigma): a (3,) point for scalars, or (m, 3)
    rows for 1-d arrays of r, u and sigma (broadcast against each other)."""
    fr = frenet_frame(curve, sigma)
    return (np.asarray(r, dtype=float)[..., None] * fr.B
            + np.asarray(u, dtype=float)[..., None] * fr.T)


_CHART_SCAN = 64  # bracket-scan points over the curve's domain
_CHART_CAP = 0.2  # an admissible root has |u| <= _CHART_CAP * r
_CHART_TOL = 1e-9  # reconstruction residual allowed, relative to |xi|
_NEWTON_MAX = 60  # enough to bisect a scan cell down to a few ulps


def _bracket_roots(grid: np.ndarray, vals: np.ndarray, f_slope: Callable
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of one function per row, from its values vals at grid, (m, G).

    One bracket per exact zero on a node and per sign change in a cell, in
    row-major order; f_slope(rows, s) gives f and f' of row rows[i] at s[i].
    All brackets take Newton steps together, bisecting when a step leaves
    its bracket, until a step of 4 ulps or _NEWTON_MAX steps.  Returns per
    bracket its row, its last evaluated point and f there.
    """
    zero = vals == 0.0
    start = zero.copy()
    start[:, :-1] |= vals[:, :-1] * vals[:, 1:] < 0.0
    row, j = np.nonzero(start)
    jb = np.where(zero[row, j], j, j + 1)
    a, b, fa, fb = grid[row, j], grid[row, jb], vals[row, j], vals[row, jb]
    sig = a + fa / np.where(zero[row, j], 1.0, fa - fb) * (b - a)
    at, f_at = np.empty((2, len(row)))
    tol = 4.0 * np.finfo(float).eps * max(1.0, np.abs(grid).max(initial=0.0))
    act = np.arange(len(row))
    for _ in range(_NEWTON_MAX):
        if not act.size:
            break
        s = sig[act]
        f, slope = f_slope(row[act], s)
        at[act], f_at[act] = s, f
        left = np.sign(f) == np.sign(fa[act])  # the root lies right of s
        a[act[left]], fa[act[left]] = s[left], f[left]
        b[act[~left]] = s[~left]
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = s - f / slope
        lo_b, hi_b = a[act], b[act]
        nxt = np.where((nxt >= lo_b) & (nxt <= hi_b), nxt, 0.5 * (lo_b + hi_b))
        sig[act] = nxt
        act = act[np.abs(nxt - s) > tol]
    return row, at, f_at


def cone_chart(curve: Curve, xi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Invert xi = r B(sigma) + u T(sigma) for every row of xi, shape (n, 3).

    Returns r, u, sigma and the mask inside, each of shape (n,).  The roots
    of f(sigma) = <xi, N(sigma)> on a _CHART_SCAN-point grid of the domain
    go through _bracket_roots with the Frenet slope f' = tau r - kappa u
    (exact for an arclength parameter).  Per row the root with r > 0,
    |u| <= _CHART_CAP r and the smallest |u| (the first in sigma on a tie)
    is kept; inside marks the rows that have one, and r, u, sigma are nan
    on the others.  Raises NotConverged if a kept root's reconstruction
    r B + u T is farther than _CHART_TOL |xi| from xi.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1, 3)
    grid = np.linspace(*curve.domain, _CHART_SCAN)
    vals = xi @ frenet_frame(curve, grid).N.T

    def f_slope(rows, s):
        fr = frenet_frame(curve, s)
        f, r, u = (np.einsum("ij,ij->i", xi[rows], e)
                   for e in (fr.N, fr.B, fr.T))
        return f, fr.tau * r - fr.kappa * u

    row, at, f_at = _bracket_roots(np.broadcast_to(grid, vals.shape), vals,
                                   f_slope)
    fr = frenet_frame(curve, at)
    r, u = (np.einsum("ij,ij->i", xi[row], e) for e in (fr.B, fr.T))
    key = np.where((r > 0.0) & (np.abs(u) <= _CHART_CAP * r), np.abs(u),
                   np.inf)
    order = np.lexsort((key, row))  # by row, then |u|, then sigma
    best = order[np.diff(row[order], prepend=-1) != 0]
    best = best[np.isfinite(key[best])]
    # |r B + u T - xi| = |<xi, N>| in the orthonormal frame at sigma
    rel = np.abs(f_at[best]) / np.linalg.norm(xi[row[best]], axis=1)
    if (rel > _CHART_TOL).any():
        i = np.argmax(rel)
        raise NotConverged(f"chart reconstruction residual {rel[i]:.3e} |xi| "
                           f"at sigma={at[best[i]]}")
    out = np.full((3, len(xi)), np.nan)
    out[:, row[best]] = r[best], u[best], at[best]
    inside = np.zeros(len(xi), dtype=bool)
    inside[row[best]] = True
    return out[0], out[1], out[2], inside


def cone_coordinates(curve: Curve, xi: np.ndarray) -> tuple[float, float, float]:
    """(r, u, sigma) of one frequency: the scalar form of cone_chart.

    Raises OutsideCone when no root is admissible and NotConverged when the
    reconstruction check fails.
    """
    r, u, sigma, inside = cone_chart(curve, xi)
    if not inside[0]:
        raise OutsideCone("no root of <xi, N(sigma)> with r > 0 and |u|/r "
                          f"<= {_CHART_CAP} in {curve.domain}")
    return float(r[0]), float(u[0]), float(sigma[0])


def scr_gradients(curve: Curve, xi: np.ndarray,
                  floor: float = CURVATURE_FLOOR) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the chart: grad r = B, grad u = T, grad sigma = N/(u kappa - r tau)."""
    r, u, sigma = cone_coordinates(curve, xi)
    fr = frenet_frame(curve, sigma)
    denom = u * fr.kappa - r * fr.tau
    if abs(denom) < floor:
        raise SingularJacobian(f"u*kappa - r*tau = {denom:.3e} below floor")
    return fr.B.copy(), fr.T.copy(), fr.N / denom
