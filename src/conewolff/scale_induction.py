"""Two-scale refinement machinery for symbols near a curve's critical point.

Shear/dilation normalizations of multipliers, the critical-point quantity U
and its quadratic approximation with explicit constants, plate membership of
the two-scale cutoff pieces, a support census with multiplicity bounds, the
geometric radius schedule, an FFT kernel-decay probe, and the curvature
band of a curve section's (l, nu) rescaling, the curve that
curve_geometry.finite_type_rescale returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .curve_geometry import (Curve, Dilation, RescaledCurve, _bracket_roots,
                             _dot3, fit_line, frenet_frame, gauss_legendre)
from .errors import (
    DivByZeroGamma2,
    GridTooLarge,
    NotConverged,
    ScheduleEmpty,
)
from .symbol_decomposition import eta0, eta1, zeta


def _embed(v: np.ndarray) -> np.ndarray:
    """Append a zero time-frequency component to a spatial vector."""
    return np.append(np.asarray(v, dtype=float), 0.0)


# ---------------------------------------------------------------------------
# shear / dilation normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShearDilation:
    """Composition of the time-frequency shear with the anisotropic dilation.

    The shear maps (xi, tau) -> (xi, tau - <gamma(s), xi>); the dilation
    scales the tau axis by r^2, the tangent direction of the curve by r,
    and fixes the orthogonal complement of those two directions.
    """

    curve: Curve
    s: float
    r: float
    L1: np.ndarray = field(init=False, repr=False)
    L2: np.ndarray = field(init=False, repr=False)
    L: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = 3
        gam = self.curve.eval(self.s)
        dgam = self.curve.derivative(self.s, 1)
        g = _embed(dgam / np.linalg.norm(dgam))
        e = np.zeros(d + 1)
        e[d] = 1.0
        L1 = np.eye(d + 1)
        L1[d, :d] = -gam
        L2 = np.eye(d + 1) + (self.r - 1.0) * np.outer(g, g) \
            + (self.r**2 - 1.0) * np.outer(e, e)
        object.__setattr__(self, "L1", L1)
        object.__setattr__(self, "L2", L2)
        object.__setattr__(self, "L", L1 @ L2)

    def apply(self, Xi: np.ndarray) -> np.ndarray:
        return np.asarray(Xi, dtype=float) @ self.L.T

    def inverse_apply(self, Xi: np.ndarray) -> np.ndarray:
        return np.asarray(Xi, dtype=float) @ np.linalg.inv(self.L).T

    def basis_residual(self) -> float:
        """Max deviation of the defining actions on the distinguished vectors."""
        d = 3
        gam = self.curve.eval(self.s)
        dgam = self.curve.derivative(self.s, 1)
        g = _embed(dgam / np.linalg.norm(dgam))
        e = np.zeros(d + 1)
        e[d] = 1.0
        devs = [
            np.max(np.abs(self.L2 @ e - self.r**2 * e)),
            np.max(np.abs(self.L2 @ g - self.r * g)),
        ]
        # complement vectors: complete {g, e} to an orthonormal basis
        basis = np.linalg.qr(
            np.column_stack([g, e, np.eye(d + 1)])
        )[0][:, 2:]
        for j in range(basis.shape[1]):
            v = basis[:, j]
            devs.append(np.max(np.abs(self.L2 @ v - v)))
        # shear action on a generic vector
        Xi = np.array([0.3, -1.2, 0.7, 0.25])
        out = self.L1 @ Xi
        expect = Xi.copy()
        expect[d] = Xi[d] - float(np.dot(gam, Xi[:d]))
        devs.append(np.max(np.abs(out - expect)))
        return float(max(devs))


def pullback_bump(shear: ShearDilation, k: int) -> Callable:
    """Canonical multiplier adapted to the shear: a tensor bump in the
    annulus, the tangent pairing, and the sheared time frequency."""
    curve, s, r = shear.curve, shear.s, shear.r
    gam = curve.eval(s)
    dgam = curve.derivative(s, 1)
    g1 = dgam / np.linalg.norm(dgam)

    def m(xi, tau):
        xi = np.asarray(xi, dtype=float)
        tau = np.asarray(tau, dtype=float)
        norm = np.linalg.norm(xi, axis=-1)
        v1 = xi @ g1
        v4 = tau + xi @ gam
        return (eta0((norm * 2.0**-k - 1.25) / 0.75)
                * eta0(v1 / (2.0**(k + 2) * r))
                * eta0(v4 / (2.0**(k + 3) * r**2)))

    return m


def sample_symbol_support(shear: ShearDilation, k: int, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Random points (xi, tau) inside the support box of the pulled-back bump."""
    curve, s, r = shear.curve, shear.s, shear.r
    gam = curve.eval(s)
    dgam = curve.derivative(s, 1)
    g1 = dgam / np.linalg.norm(dgam)
    # orthonormal complement of g1
    q = np.linalg.qr(np.column_stack([g1, np.eye(3)]))[0][:, 1:]
    out = np.empty((n, 4))
    for i in range(n):
        rho = rng.uniform(0.6, 1.9) * 2.0**k
        v1 = rng.uniform(-1.0, 1.0) * 2.0**(k + 1) * r
        v1 = np.clip(v1, -0.5 * rho, 0.5 * rho)
        w = np.sqrt(rho**2 - v1**2)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        xi = v1 * g1 + w * (np.cos(ang) * q[:, 0] + np.sin(ang) * q[:, 1])
        tau = -float(np.dot(gam, xi)) + rng.uniform(-1, 1) * 2.0**(k + 2) * r**2
        out[i, :3] = xi
        out[i, 3] = tau
    return out


def hormander_constant(shear: ShearDilation, m: Callable, k: int,
                       n_samples: int = 60) -> float:
    """Max of |Xi|^{|alpha|} |d^alpha (m o L)(Xi)| over sampled support points
    (seed 0) and |alpha| <= 2, by central differences of step 2^k / 1000."""
    rng = np.random.default_rng(0)
    pts = sample_symbol_support(shear, k, n_samples, rng)
    Linv = np.linalg.inv(shear.L)

    def g(Xi):
        Y = shear.L @ Xi
        return float(m(Y[:3], Y[3]))

    h = 1e-3 * 2.0**k
    worst = 0.0
    eye = np.eye(4)
    for row in pts:
        Xi = Linv @ row
        scale = np.linalg.norm(Xi)
        g0 = g(Xi)
        worst = max(worst, abs(g0))
        for i in range(4):
            gp = g(Xi + h * eye[i])
            gm = g(Xi - h * eye[i])
            worst = max(worst, abs(gp - gm) / (2 * h) * scale)
            worst = max(worst, abs(gp - 2 * g0 + gm) / h**2 * scale**2)
        for i in range(4):
            for j in range(i + 1, 4):
                gpp = g(Xi + h * (eye[i] + eye[j]))
                gpm = g(Xi + h * (eye[i] - eye[j]))
                gmp = g(Xi - h * (eye[i] - eye[j]))
                gmm = g(Xi - h * (eye[i] + eye[j]))
                worst = max(worst,
                            abs(gpp - gpm - gmp + gmm) / (4 * h**2) * scale**2)
    return worst


# ---------------------------------------------------------------------------
# critical point, U and its approximation
# ---------------------------------------------------------------------------


_ROOT_SCAN = 9  # bracket-scan points per critical_s window


def critical_s(curve: Curve, xi: np.ndarray, lo=None, hi=None):
    """First root of <gamma'(s), xi> = 0 in each window [lo, hi] (scalars
    or (m,) arrays, default and clipped to the domain): a float for xi of
    shape (3,), shape (m,) for xi (m, 3).  Each window is scanned at
    _ROOT_SCAN points and its brackets polished by _bracket_roots with the
    slope <gamma''(s), xi>.  Raises NotConverged naming the first row with
    no zero and no sign change in its scan.
    """
    xi = np.asarray(xi, dtype=float)
    rows = xi.reshape(-1, 3)
    m = len(rows)
    dom_lo, dom_hi = curve.domain
    lo = np.broadcast_to(np.maximum(dom_lo if lo is None else lo, dom_lo), m)
    hi = np.broadcast_to(np.minimum(dom_hi if hi is None else hi, dom_hi), m)
    grid = np.linspace(lo, hi, _ROOT_SCAN, axis=1)
    vals = np.einsum("mi,img->mg", rows, curve.derivative(grid, 1))

    def f_slope(r, s):
        d1, d2 = curve.derivatives(s, (1, 2))
        x = rows[r].T
        return _dot3(d1, x), _dot3(d2, x)

    row, at, _ = _bracket_roots(grid, vals, f_slope)
    missing = np.setdiff1d(np.arange(m), row)
    if missing.size:
        i = missing[0]
        raise NotConverged(f"no sign change of <gamma'(s), xi> in "
                           f"[{lo[i]}, {hi[i]}] (row {i})")
    # brackets come in row-major scan order: a row's first is its first root
    roots = at[np.searchsorted(row, np.arange(m))]
    return float(roots[0]) if xi.ndim == 1 else roots


def u_mu(curve: Curve, s_mu: float, xi: np.ndarray, tau):
    """tau + <gamma(s_mu), xi> - <gamma'(s_mu), xi>^2 / (2 <gamma''(s_mu), xi>)."""
    xi = np.asarray(xi, dtype=float)
    gam = curve.eval(s_mu)
    d1 = curve.derivative(s_mu, 1)
    d2 = curve.derivative(s_mu, 2)
    g2 = xi @ d2
    norm = np.linalg.norm(xi, axis=-1)
    if np.any(np.abs(g2) < 1e-10 * norm):
        raise DivByZeroGamma2("second-derivative pairing below floor")
    return tau + xi @ gam - 0.5 * (xi @ d1) ** 2 / g2


def _uniform_draws(seed: int, m: int, *bounds) -> np.ndarray:
    """m rounds of Generator.uniform(lo, hi) over bounds, in order, from
    one block of random() draws (bit for bit); row j holds bound j."""
    lo, hi = np.array(bounds, dtype=float).T
    return (lo + (hi - lo) * np.random.default_rng(seed).random(
        (m, len(bounds)))).T


def _critical_frequencies(curve: Curve, s_star, psi, rho) -> np.ndarray:
    """rho (cos psi N + sin psi B) at s_star, (m, 3): makes s_star critical."""
    fr = frenet_frame(curve, s_star)
    return (rho * (np.cos(psi) * fr.N.T + np.sin(psi) * fr.B.T)).T


def verify_umu_approximation(curve: Curve, r0: float = 2.0**-4,
                             n_samples: int = 10_000, M: float = 10.0,
                             seed: int = 0) -> dict:
    """Sample constrained frequencies and check the two quadratic-approximation
    bounds at s_mu = 0 with explicit constants 6M and 13M; report max ratios.
    All samples are evaluated on arrays, with one critical_s call."""
    s_star, psi, rho, ds_test, dtau = _uniform_draws(
        seed, n_samples, (-2.0 * r0, 2.0 * r0), (-np.pi / 3, np.pi / 3),
        (0.55, 1.9), (-2.0 * r0, 2.0 * r0), (-1, 1))
    xi = _critical_frequencies(curve, s_star, psi, rho)
    scr = critical_s(curve, xi, s_star - 4 * r0, s_star + 4 * r0)
    # first bound, at s = s_mu and at a random admissible s
    s = np.stack([np.zeros(n_samples), scr + ds_test])
    d1, d2 = curve.derivatives(s, (1, 2))
    err = np.abs((s - scr) - _dot3(d1, xi.T) / _dot3(d2, xi.T))
    bound = 6.0 * M * (s - scr) ** 2
    ratio_one = np.divide(err, bound, out=np.zeros_like(err),
                          where=bound > 1e-30)
    # second bound
    tau = -(xi @ curve.eval(0.0)) + dtau * 8.0 * r0**2
    err2 = np.abs(u_mu(curve, 0.0, xi, tau)
                  - (tau + _dot3(curve.eval(scr), xi.T)))
    bound2 = 13.0 * M * np.abs(scr) ** 3 * np.linalg.norm(xi, axis=1)
    ratio_two = np.divide(err2, bound2, out=np.zeros_like(err2),
                          where=bound2 > 1e-30)
    max_ratio_one = float(np.max(ratio_one, initial=0.0))
    max_ratio_two = float(np.max(ratio_two, initial=0.0))
    return {
        "n_samples": n_samples,
        "r0": r0,
        "M": M,
        "max_ratio_one": max_ratio_one,
        "max_ratio_two": max_ratio_two,
        "pass": bool(max_ratio_one <= 1.0 and max_ratio_two <= 1.0),
    }


# ---------------------------------------------------------------------------
# frequency-side map with the three distinguished rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OmegaMap:
    """Linear map R^4 -> R^3 with rows <gamma'(s_mu), xi>,
    tau + <gamma(s_mu), xi>, <gamma''(s_mu), xi>."""

    curve: Curve
    s_mu: float
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c, s = self.curve, self.s_mu
        mat = np.zeros((3, 4))
        mat[0, :3] = c.derivative(s, 1)
        mat[1, :3] = c.eval(s)
        mat[1, 3] = 1.0
        mat[2, :3] = c.derivative(s, 2)
        object.__setattr__(self, "matrix", mat)

    def apply(self, xi, tau) -> np.ndarray:
        """The three rows at one point (xi of shape (3,), tau a float),
        shape (3,), or at m points (xi (m, 3), tau (m,)), shape (m, 3)."""
        Xi = np.concatenate([np.asarray(xi, dtype=float),
                             np.asarray(tau, dtype=float)[..., None]], axis=-1)
        return Xi @ self.matrix.T

    def smallest_singular_value(self) -> float:
        return float(np.linalg.svd(self.matrix, compute_uv=False)[-1])


def _u_vectors(abar: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    u1 = np.array([abar, abar**2 / 2.0, 1.0])
    u2 = np.array([1.0, abar, 0.0])
    u3 = np.array([-abar, 1.0, abar**2 / 2.0])
    return u1, u2, u3


def pl_plate_membership(omega: OmegaMap, s_nnu: float, n: int, r1: float,
                        k: int, xi, tau):
    """Test the three plate inequalities at one frequency point, giving a
    bool, or at the rows of xi (m, 3) and tau (m,), giving m bools."""
    abar = omega.s_mu - s_nnu
    u1, u2, u3 = _u_vectors(abar)
    w = omega.apply(xi, tau)
    c1 = np.abs(w @ u1) <= 2.0**(k + 2)
    c2 = np.abs((w - w[..., 2, None] * u1) @ u2) <= 2.0**(k + 4) * 2.0**n * r1
    c3 = np.abs(w @ u3) <= 2.0**(k + 3) * 2.0**(2 * n) * r1**2
    return c1 & c2 & c3


# ---------------------------------------------------------------------------
# support census for the two-scale cutoff pieces
# ---------------------------------------------------------------------------


_CENSUS_K = 48  # dyadic scale of the census, echoed in its report
_CENSUS_M = 10.0  # the constant M of the r1 >= 100 M r0^(3/2) hypothesis
_CENSUS_TOL = 1e-12  # a piece counts where it exceeds this


def support_census(curve: Curve, r0: float = 2.0**-22, r1: float = 2.0**-23,
                   sample_count: int = 300, seed: int = 0) -> dict:
    """Build the two-scale cutoff pieces around a family of anchor points,
    sample frequency points, and report vanishing thresholds, multiplicity,
    reconstruction error, and plate membership.

    It runs at k = _CENSUS_K and M = _CENSUS_M on anchors r0 * (-4..4),
    shells n = 0..12 and 165 s-grid points.

    Frequencies are handled in scale-normalized form (divided by 2^k); every
    quantity entering the cutoffs and plate inequalities is homogeneous of
    degree one, so the normalization is exact. Multiplicity is counted at
    fixed (s, xi, tau) and maximized over an s-grid: at a fixed point the
    anchor separation, the dyadic shells, and the window partition each give
    a finite overlap, which is what the 75 ceiling packages.

    One critical_s call resolves all samples; each anchor, shell n and
    window nu then acts on (samples, s-grid) arrays.  A sample is masked
    out of an anchor whose cutoff, or of a shell whose mass, stays below
    _CENSUS_TOL: none of its pieces there could exceed it and be counted.
    """
    if r1 > r0:
        raise ValueError("need r1 <= r0")
    if r1 < 100.0 * _CENSUS_M * r0**1.5:
        raise ValueError("need r1 >= 100 M r0^(3/2)")
    s_star, psi, rho, dtau = _uniform_draws(
        seed, sample_count, (-3.0 * r0, 3.0 * r0), (-np.pi / 3, np.pi / 3),
        (0.55, 1.9), (-1, 1))
    xi = _critical_frequencies(curve, s_star, psi, rho)
    tau = -_dot3(curve.eval(s_star), xi.T) + dtau * 8.0 * r0**2
    scr = critical_s(curve, xi, s_star - 10 * r0, s_star + 10 * r0)
    s_mu_list = r0 * np.arange(-4, 5)
    s_grid = np.linspace(s_mu_list[0] - 2.2 * r0, s_mu_list[-1] + 2.2 * r0,
                         165)
    max_n = [-1, -1]  # a and b pieces
    mult = np.zeros((2, sample_count, len(s_grid)), dtype=int)
    recon_err = 0.0
    plate_checked = 0
    plate_failures = 0

    for s_mu in s_mu_list:
        omega = OmegaMap(curve, float(s_mu))
        scalar = (eta0(xi @ curve.derivative(s_mu, 1) / (8.0 * r0))
                  * eta0((tau + xi @ curve.eval(s_mu)) / (16.0 * r0**2))
                  * eta0((np.linalg.norm(xi, axis=1) - 1.25) / 0.75))
        live = np.nonzero(scalar >= _CENSUS_TOL)[0]
        x, t = xi[live], tau[live]
        amu = scalar[live, None] * eta0((s_grid - s_mu) / (2.0 * r0))
        u_hat = u_mu(curve, s_mu, x, t)[:, None]
        ds2 = (s_grid - scr[live, None]) ** 2
        base = (np.abs(u_hat) + ds2) / r1**2
        with np.errstate(divide="ignore", invalid="ignore"):
            split_arg = np.divide(ds2 * 2.0**8, u_hat, where=(u_hat != 0.0),
                                  out=np.full_like(ds2, np.inf))
        split = eta0(np.where(ds2 == 0.0, 0.0, split_arg))
        recon = np.zeros_like(amu)
        for n in range(13):
            shell = eta0(base) if n == 0 else eta1(2.0**(2 - 2 * n) * base)
            win = s_grid / (2.0**n * r1)
            split_n = 1.0 if n == 0 else split  # no b piece at n = 0
            mass = amu * shell
            skip = np.max(mass, axis=1, initial=0.0) < _CENSUS_TOL
            kept = np.where(skip[:, None], 0.0, mass)
            recon += mass - kept  # skipped rows take their mass whole
            if skip.all():
                continue
            for nu in range(int(np.floor(win.min())) - 1,
                            int(np.ceil(win.max())) + 2):
                zf = zeta(win - nu)
                pieces = (kept * split_n * zf, kept * (1.0 - split_n) * zf)
                recon += pieces[0] + pieces[1]
                outside = ~pl_plate_membership(omega, 2.0**n * r1 * nu, n,
                                               r1, 0, x, t)
                for i, piece in enumerate(pieces):
                    hit = piece > _CENSUS_TOL
                    rows = hit.any(axis=1)
                    if rows.any():
                        mult[i, live] += hit
                        max_n[i] = max(max_n[i], n)
                        plate_checked += int(rows.sum())
                        plate_failures += int((rows & outside).sum())
        recon_err = max(recon_err,
                        float(np.max(np.abs(recon - amu), initial=0.0)))
    max_n_a, max_n_b = max_n
    max_mult_a, max_mult_b = mult.max(axis=(1, 2), initial=0).tolist()

    a_threshold_ok = (max_n_a < 0) or (2.0**max_n_a * r1 <= 2.0**4 * r0)
    b_threshold_ok = (max_n_b < 0) or (2.0**max_n_b * r1 <= 2.0**7 * r0)
    return {
        "k": _CENSUS_K, "r0": r0, "r1": r1, "M": _CENSUS_M,
        "sample_count": sample_count,
        "max_n_a": max_n_a, "max_n_b": max_n_b,
        "a_vanishing_ok": bool(a_threshold_ok),
        "b_vanishing_ok": bool(b_threshold_ok),
        "max_multiplicity_a": max_mult_a,
        "max_multiplicity_b": max_mult_b,
        "multiplicity_ok": bool(max_mult_a <= 75 and max_mult_b <= 75),
        "reconstruction_error": recon_err,
        "plate_checked": plate_checked,
        "plate_failures": plate_failures,
    }


# ---------------------------------------------------------------------------
# radius schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RSchedule:
    """Two-scale radius schedule with exact log2 bookkeeping."""

    k: int
    eps0: float
    eps1: float
    M: float
    d: int
    N: int
    capped: bool
    descending: bool
    log2_r0: tuple
    log2_r1: tuple
    r0: tuple
    r1: tuple
    hypothesis_ok: bool
    terminal_lower_ok: bool
    terminal_upper_ok: bool
    c_over_eps1: float


def _pow2_or_inf(x: float) -> float:
    try:
        return 2.0**x
    except OverflowError:
        return math.inf


_SCHEDULE_CAP = 64  # largest schedule index n


def r_schedule(k: int, eps0: float, M: float) -> RSchedule:
    """Geometric radius schedule r0(n), r1(n) with exponent (3/2)^n, d = 3.

    All arithmetic is carried in log2 space. N is the largest n <=
    _SCHEDULE_CAP whose fine radius stays above the terminal scale
    2^{-k(1/2 - eps1)}; when the base exceeds 1 (small k) the sequence never
    descends and the cap binds (the `capped`/`descending` flags).
    """
    if k < 10:
        raise ValueError("need k >= 10")
    eps1 = eps0**2 / (3 * M)
    base0 = math.log2(M) - k * eps1
    base1 = math.log2(100.0 * M) - k * eps1
    threshold = -k * (0.5 - eps1)
    log2_r0 = [(1.5**n) * base0 for n in range(_SCHEDULE_CAP + 1)]
    log2_r1 = [(1.5**(n + 1)) * base1 for n in range(_SCHEDULE_CAP + 1)]
    qual = [n for n in range(_SCHEDULE_CAP + 1) if log2_r1[n] >= threshold]
    if not qual:
        raise ScheduleEmpty("fine radius starts below the terminal scale")
    N = max(qual)
    hyp_ok = all(
        log2_r1[n] - 1.5 * log2_r0[n] >= math.log2(100.0 * M) - 1e-9
        for n in range(N + 1)
    )
    return RSchedule(
        k=k, eps0=eps0, eps1=eps1, M=M, d=3, N=N,
        capped=(N == _SCHEDULE_CAP),
        descending=(base1 < 0.0),
        log2_r0=tuple(log2_r0[: N + 1]),
        log2_r1=tuple(log2_r1[: N + 1]),
        r0=tuple(_pow2_or_inf(x) for x in log2_r0[: N + 1]),
        r1=tuple(_pow2_or_inf(x) for x in log2_r1[: N + 1]),
        hypothesis_ok=hyp_ok,
        terminal_lower_ok=(log2_r1[N] >= threshold),
        terminal_upper_ok=(log2_r1[N] <= -k / 2.0 + 2.0 * k * eps1),
        c_over_eps1=N * eps1,
    )


# ---------------------------------------------------------------------------
# kernel decay probe
# ---------------------------------------------------------------------------


_MAX_BUMP_NODES = 2**20  # largest trapezoid rule of _bump_transform


def _bump_transform(width: float, args: np.ndarray, nodes: int) -> np.ndarray:
    """Numerical 1-D Fourier transform of eta0(v / width) at the given args
    (nodes-point trapezoid rule), once per distinct argument."""
    if nodes > _MAX_BUMP_NODES:
        raise GridTooLarge(
            f"{nodes} frequency nodes exceed budget {_MAX_BUMP_NODES}")
    v = np.linspace(-width, width, nodes)
    w = np.full(nodes, v[1] - v[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    vals = eta0(v / width) * w
    uniq, inverse = np.unique(args, return_inverse=True)
    return (np.exp(1j * np.outer(uniq, v)) @ vals)[inverse]


def _half_width(lam: np.ndarray, mag: np.ndarray) -> float:
    """First crossing of |K| below half its value at 0 (linear interp)."""
    target = 0.5 * mag[0]
    below = np.nonzero(mag < target)[0]
    if len(below) == 0:
        return float(lam[-1])
    i = below[0]
    if i == 0:
        return float(lam[0])
    frac = (mag[i - 1] - target) / (mag[i - 1] - mag[i])
    return float(lam[i - 1] + frac * (lam[i] - lam[i - 1]))


def _unit_half_position(nodes: int) -> float:
    y = np.linspace(0.0, 6.0, 601)
    mag = np.abs(_bump_transform(1.0, y, nodes))
    return _half_width(y, mag)


_T_CENTER = 1.25  # the probe's rays start at x0 = _T_CENTER gamma(s)


def kernel_decay_probe(curve: Curve, k: int, r: float, s: float = 0.0,
                       nodes: int = 513, t_nodes: int = 65,
                       n_ray: int = 81) -> dict:
    """Evaluate the space-time kernel of a canonical class multiplier along
    three distinguished rays from x0 = _T_CENTER gamma(s), at time
    _T_CENTER, and measure its decay scales.

    The multiplier is a tensor bump in the frame coordinates built from the
    tangent at s, the in-plane unit vector along the curve point, their cross
    product, and the sheared time frequency. The kernel is computed by exact
    1-D transforms of the bump factors and an adapted quadrature in the time
    variable. Reported fitted scales are normalized by the half-max position
    of the unit bump transform, a declared shape constant of the probe.
    l1_bound is the product of the four factors' transform masses over
    (2 pi)^4; each mass is scale-free, so l1_bound is a shape constant too
    and does not depend on k, r or s.
    """
    gam = curve.eval(s)
    d1 = curve.derivative(s, 1)
    g1 = d1 / np.linalg.norm(d1)
    gperp = gam - np.dot(gam, g1) * g1
    a2 = float(np.linalg.norm(gperp))
    if a2 < 1e-3:
        raise ValueError("curve point too close to the tangent line; "
                         "time pinning unavailable at this s")
    g2 = gperp / a2
    ep = np.cross(g1, g2)
    a1 = float(np.dot(gam, g1))

    W1 = 2.0**(k + 2) * r
    W2 = 2.0**(k - 2)
    W3 = 2.0**(k - 2)
    W4 = 2.0**(k + 3) * r**2

    c_ref = _unit_half_position(nodes)

    # time quadrature adapted to the narrowest factor in t
    win = 60.0 / max(W2 * a2, W4)
    t_q, t_w = gauss_legendre(_T_CENTER - win, _T_CENTER + win, t_nodes)

    def kernel_on_rays(x_pts: np.ndarray, tprime: np.ndarray) -> np.ndarray:
        # coordinates of x - t*gamma(s) in the frame, per (ray point, t node)
        c1 = x_pts @ g1
        c2 = x_pts @ g2
        c3 = x_pts @ ep
        A1 = c1[:, None] - np.outer(np.ones(len(x_pts)), t_q) * a1
        A2 = c2[:, None] - np.outer(np.ones(len(x_pts)), t_q) * a2
        A3 = np.repeat(c3[:, None], t_nodes, axis=1)
        Aw = tprime[:, None] - t_q[None, :]
        f1 = _bump_transform(W1, A1.ravel(), nodes)
        f2 = _bump_transform(W2, A2.ravel(), nodes)
        f3 = (_bump_transform(W3, A3.ravel(), nodes)
              * np.exp(1j * 0.85 * 2.0**k * A3.ravel()))
        f4 = _bump_transform(W4, Aw.ravel(), nodes)
        prod = (f1 * f2 * f3 * f4).reshape(len(x_pts), t_nodes)
        return prod @ (eta0((t_q - 1.25) / 0.75) * t_w)

    x0 = _T_CENTER * gam
    results = {}
    for name, direction, width in (
        ("gamma1", g1, W1),
        ("perp", ep, W3),
    ):
        lam = np.linspace(0.0, 8.0 * c_ref / width, n_ray)
        pts = x0[None, :] + lam[:, None] * direction[None, :]
        mag = np.abs(kernel_on_rays(pts, np.full(n_ray, _T_CENTER)))
        w_half = _half_width(lam, mag)
        results[name] = {"half_width": w_half,
                         "fitted_scale": c_ref / w_half,
                         "target_scale": width}
    lam_t = np.linspace(0.0, 8.0 * c_ref / W4, n_ray)
    pts = np.repeat(x0[None, :], n_ray, axis=0)
    mag = np.abs(kernel_on_rays(pts, _T_CENTER + lam_t))
    w_half = _half_width(lam_t, mag)
    results["time"] = {"half_width": w_half,
                       "fitted_scale": c_ref / w_half,
                       "target_scale": W4}

    # integrable-kernel constant: z = W y makes each factor's mass the unit
    # bump's
    y = np.linspace(-40.0, 40.0, 1601)
    mass = float(np.trapezoid(np.abs(_bump_transform(1.0, y, nodes)), y))
    l1_bound = mass**4 / (2.0 * np.pi) ** 4
    sup_center = float(np.abs(kernel_on_rays(x0[None, :],
                                             np.array([_T_CENTER])))[0])
    return {"k": k, "r": r, "s": s,
            "scales": {name: v["fitted_scale"] for name, v in results.items()},
            "targets": {name: v["target_scale"] for name, v in results.items()},
            "detail": results,
            "l1_bound": l1_bound,
            "sup_center": sup_center}


def kernel_decay_sweep(curve: Curve, k_list: Sequence[int],
                       r_list: Sequence[float]) -> dict:
    """Fit the decay-scale exponents of the probe at s = 0 against r (at
    fixed k) and against k (at fixed r); targets are (1, 0, 2) in r, 1 in k."""
    k_fix = k_list[len(k_list) // 2]
    r_fix = r_list[len(r_list) // 2]
    names = ("gamma1", "perp", "time")
    out = {"r_slopes": {}, "k_slopes": {}, "k_fixed": k_fix, "r_fixed": r_fix}
    logs = {nm: [] for nm in names}
    for r in r_list:
        rep = kernel_decay_probe(curve, k_fix, r)
        for nm in names:
            logs[nm].append(math.log2(rep["scales"][nm]))
    lr = np.log2(np.asarray(r_list, dtype=float))
    for nm in names:
        out["r_slopes"][nm] = fit_line(lr, logs[nm])[0]
    logs = {nm: [] for nm in names}
    for k in k_list:
        rep = kernel_decay_probe(curve, k, r_fix)
        for nm in names:
            logs[nm].append(math.log2(rep["scales"][nm]))
    kk = np.asarray(k_list, dtype=float)
    for nm in names:
        out["k_slopes"][nm] = fit_line(kk, logs[nm])[0]
    out["r_targets"] = {"gamma1": 1.0, "perp": 0.0, "time": 2.0}
    out["k_targets"] = {"gamma1": 1.0, "perp": 1.0, "time": 1.0}
    return out


# ---------------------------------------------------------------------------
# the (l, nu) section rescaling
# ---------------------------------------------------------------------------


def curvature_band(rc: RescaledCurve, n_samples: int = 500,
                   seed: int = 0) -> dict:
    """Ratio |<Gamma''(u), eta>| / |eta| over sampled support-style (u, eta).

    rc is the (l, nu) section rescaling finite_type_rescale(curve,
    nu 2^-l, l).  eta is the exact image, under rc.frame and then
    Dilation(-l, rc.exponents), of frequency points near the binormal cone,
    with the curve offset u kept a definite distance (in rescaled units)
    from the cone tangency parameter, matching where the localized shell
    pieces carry their mass.
    """
    rng = np.random.default_rng(seed)
    l = rc.j
    draws = np.empty((4, n_samples))
    for i in range(n_samples):
        u = rng.uniform(-1.0, 1.0)
        w = u + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        uhat = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 1.0) * 2.0**(-2 * l)
        draws[:, i] = u, w, uhat, rng.uniform(0.9, 1.6)
    u, w, uhat, rhat = draws
    fr = frenet_frame(rc.curve, rc.s0 + np.ldexp(w, -l))
    xi = rhat[:, None] * fr.B + uhat[:, None] * fr.T
    eta = Dilation(-l, rc.exponents)(xi @ rc.frame.T)
    ratio = (np.abs(_dot3(rc.derivative(u, 2), eta.T))
             / np.linalg.norm(eta, axis=1))
    return {"min_ratio": float(ratio.min()), "max_ratio": float(ratio.max()),
            "n_samples": n_samples}
