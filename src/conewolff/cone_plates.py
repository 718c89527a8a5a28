"""Plate families on cones, their rescalings, and the induction exponent schedule.

A (delta, lambda)-plate at anchor alpha is the parallelepiped

    lambda/2 <= |<u1, xi>| <= 2 lambda,
    |<u2, xi - xi3 u1>| <= lambda delta^{1/2},
    |<u3, xi>| <= lambda delta,

with frame u1 = (g(alpha), 1), u2 = (g'(alpha), 0), u3 = u1 x u2.  The
A-extension scales each bound by A (and the lower bound by 1/A).
Plate.unit_coords scales Plate.coords so that the A=1 box is |a| < 1; the
plate bump, BumpFunction, is prod eta0(unit_coords), the decoupling's
lattice envelope, and its derivative check is derivative_sup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curve_geometry import (CURVATURE_FLOOR, Curve, _circle,
                             derivative_sup, fit_line)
from .errors import DegenerateCurvature, EmptyFamily, NotCircular
from .symbol_decomposition import eta0

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Plate
# ---------------------------------------------------------------------------


@dataclass
class Plate:
    alpha: float
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    delta: float
    lam: float
    A: float = 1.0

    def __post_init__(self):
        self.u1 = np.asarray(self.u1, dtype=float)
        self.u2 = np.asarray(self.u2, dtype=float)
        self.u3 = np.asarray(self.u3, dtype=float)
        # rows of the coordinate map xi -> (t1, t2, t3)
        f2 = self.u2 - np.dot(self.u1, self.u2) * np.array([0.0, 0.0, 1.0])
        self._M = np.stack([self.u1, f2, self.u3])
        self._Minv = np.linalg.inv(self._M)

    def coords(self, xi) -> np.ndarray:
        """Rows (t1, t2, t3) = (<u1,xi>, <u2, xi - xi3 u1>, <u3,xi>) of xi
        given component first: a (3,) vector, a (3, ...) array, or a triple
        of broadcastable arrays such as Grid3.freq_mesh's."""
        x, y, z = (np.asarray(c, dtype=float) for c in xi)
        M = self._M
        return np.stack([M[i, 0] * x + M[i, 1] * y + M[i, 2] * z
                         for i in range(3)])

    def unit_coords(self, xi) -> np.ndarray:
        """coords(xi) scaled so that the A=1 box is |a| < 1 in every row:
        a1 = (t1/lam - 1.25)/0.75, a2 = t2/(lam sqrt(delta)) and
        a3 = t3/(lam delta)."""
        a = self.coords(xi)
        b = self.bounds
        a[0] = (a[0] / self.lam - 1.25) / 0.75
        a[1] /= b[1]
        a[2] /= b[2]
        return a

    def point(self, t: np.ndarray) -> np.ndarray:
        return self._Minv @ np.asarray(t, dtype=float)

    @property
    def bounds(self) -> np.ndarray:
        """Upper bounds (2*lam, lam*sqrt(delta), lam*delta) at A=1."""
        return np.array([2.0 * self.lam,
                         self.lam * math.sqrt(self.delta),
                         self.lam * self.delta])

    def min_extension(self, xi):
        """Smallest A >= 1 for which xi lies in the A-extension (inf where
        t1 = 0); a (3, m) batch of points, component first, gives m values."""
        t = np.abs(self.coords(xi))
        b = self.bounds
        with np.errstate(divide="ignore"):
            return np.maximum.reduce([np.ones_like(t[0]),
                                      self.lam / (2.0 * t[0]), t[0] / b[0],
                                      t[1] / b[1], t[2] / b[2]])

    def center(self) -> np.ndarray:
        """Canonical center point with <u1,xi> = lam and t2 = t3 = 0."""
        return self.point(np.array([self.lam, 0.0, 0.0]))

    def corners(self) -> np.ndarray:
        """The 8 corners of the positive-t1 box in t-coordinates, mapped to xi."""
        b = self.bounds
        return np.array([self.point(np.array(t)) for t in itertools.product(
            (self.lam / 2.0, 2.0 * self.lam), (-b[1], b[1]), (-b[2], b[2]))])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform interior samples of the positive-t1 box."""
        t1 = rng.uniform(self.lam / 2.0, 2.0 * self.lam, n)
        t2 = rng.uniform(-1.0, 1.0, n) * self.bounds[1]
        t3 = rng.uniform(-1.0, 1.0, n) * self.bounds[2]
        return (np.stack([t1, t2, t3], axis=1) @ self._Minv.T)


def make_plate(g: Curve, alpha: float, delta: float, lam: float,
               A: float = 1.0) -> Plate:
    if not (g.domain[0] <= alpha <= g.domain[1]):
        raise ValueError(f"alpha={alpha} outside generator domain {g.domain}")
    if not (0.0 < delta <= 1.0 and 0.0 < lam < math.inf):
        raise ValueError("require 0 < delta <= 1 and finite lam > 0, got "
                         f"delta={delta}, lam={lam}")
    gv = g.eval(alpha)
    gp = g.derivative(alpha, 1)
    u1 = np.array([gv[0], gv[1], 1.0])
    u2 = np.array([gp[0], gp[1], 0.0])
    u3 = np.cross(u1, u2)
    return Plate(alpha=alpha, u1=u1, u2=u2, u3=u3, delta=delta, lam=lam, A=A)


def plate_contains(plate: Plate, xi):
    """Whether xi (a point or a (3, m) batch) lies in the A-extension."""
    t = np.abs(plate.coords(xi))
    A = plate.A
    b = plate.bounds
    return ((plate.lam / (2.0 * A) <= t[0]) & (t[0] <= A * b[0])
            & (t[1] <= A * b[1]) & (t[2] <= A * b[2]))


# ---------------------------------------------------------------------------
# PlateFamily
# ---------------------------------------------------------------------------


@dataclass
class PlateFamily:
    plates: list[Plate]
    delta: float
    lam: float
    theta: float
    sigma: float
    generator: Curve

    def __post_init__(self):
        alphas = sorted(p.alpha for p in self.plates)
        if len(alphas) == 0:
            raise EmptyFamily("plate family has no plates")
        if self.sigma > math.sqrt(self.delta) + 1e-12:
            raise ValueError("separation sigma must satisfy sigma <= sqrt(delta)")
        for a, b in zip(alphas, alphas[1:]):
            if b - a < self.sigma - 1e-12:
                raise ValueError("plate anchors violate sigma-separation")
        if alphas[-1] - alphas[0] > self.theta + 1e-12:
            raise ValueError("plate anchors exceed the theta-window")


def make_family(g: Curve, delta: float, lam: float, theta: float,
                sigma: float, alpha0: Optional[float] = None) -> PlateFamily:
    """Anchors on a uniform sigma-grid inside a theta-window starting at alpha0."""
    if math.isnan(theta) or not 0.0 < sigma < math.inf:
        raise ValueError("require a number theta and finite sigma > 0, got "
                         f"theta={theta}, sigma={sigma}")
    lo, hi = g.domain
    start = lo if alpha0 is None else alpha0
    if start < lo or start > hi:
        raise ValueError("alpha0 outside generator domain")
    end = min(start + theta, hi)
    count = int(math.floor((end - start) / sigma + 1e-9)) + 1
    anchors = [start + i * sigma for i in range(count)]
    anchors = [a for a in anchors if a <= hi + 1e-12]
    if not anchors:
        raise EmptyFamily("theta-window admits no anchor")
    plates = [make_plate(g, a, delta, lam) for a in anchors]
    return PlateFamily(plates=plates, delta=delta, lam=lam, theta=theta,
                       sigma=sigma, generator=g)


# ---------------------------------------------------------------------------
# reduction steps
# ---------------------------------------------------------------------------


def rotate_step1(family: PlateFamily, alpha0: float) -> PlateFamily:
    """Rotate every plate frame about the xi3 axis by the angle alpha0.

    For the unit circle generator this maps the plate at alpha to the plate
    at alpha + alpha0; the geometry is congruent.
    """
    if family.generator.name != "unit_circle":
        raise NotCircular("rotation step requires the unit circle generator")
    c, s = math.cos(alpha0), math.sin(alpha0)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    plates = [Plate(alpha=p.alpha + alpha0, u1=R @ p.u1, u2=R @ p.u2,
                    u3=R @ p.u3, delta=p.delta, lam=p.lam, A=p.A)
              for p in family.plates]
    return PlateFamily(plates=plates, delta=family.delta, lam=family.lam,
                       theta=family.theta, sigma=family.sigma,
                       generator=family.generator)


def parabolic_rescale_step1(theta: float) -> np.ndarray:
    """Linear map fixing (1,0,1), scaling (0,1,0) by 1/theta and (1,0,-1) by
    1/theta^2; it leaves the light cone invariant."""
    if not (0.0 < theta <= 1.0):
        raise ValueError("require 0 < theta <= 1")
    basis = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]]).T
    images = np.array([[1.0, 0.0, 1.0],
                       [0.0, 1.0 / theta, 0.0],
                       [1.0 / theta**2, 0.0, -1.0 / theta**2]]).T
    return images @ np.linalg.inv(basis)


def tilt_normalize(a: float, b: float, rho: float, K: float = 10.0) -> np.ndarray:
    """Map Xi = ((xi1 - a xi3)/rho, (xi2 - b xi3)/rho, xi3) normalizing the
    cone over the tilted circle (a + rho cos, b + rho sin) to the light cone."""
    if abs(a) + abs(b) + rho + 1.0 / rho > K:
        raise ValueError(f"|a|+|b|+rho+1/rho exceeds K={K}")
    return np.array([[1.0 / rho, 0.0, -a / rho],
                     [0.0, 1.0 / rho, -b / rho],
                     [0.0, 0.0, 1.0]])


def osculating_circle(g: Curve, alpha_mu: float):
    """Second-order circular approximation of g at alpha_mu.

    Returns (center, rho, phi_mu, circle) where circle is the plane Curve

        g_mu(alpha) = g(alpha_mu) + rho n(alpha_mu)
                      + rho (cos((alpha - alpha_mu - phi_mu)/rho),
                             sin((alpha - alpha_mu - phi_mu)/rho))

    with n = (-g2', g1')/|g'| and rho the reciprocal curvature.  Raises
    DegenerateCurvature where |g1'g2'' - g2'g1''| < CURVATURE_FLOOR.
    """
    g0 = g.eval(alpha_mu)
    g1 = g.derivative(alpha_mu, 1)
    g2 = g.derivative(alpha_mu, 2)
    det2 = g1[0] * g2[1] - g1[1] * g2[0]
    if abs(det2) < CURVATURE_FLOOR:
        raise DegenerateCurvature(f"|g1'g2'' - g2'g1''| = {abs(det2):.3e} at "
                                  f"alpha={alpha_mu}")
    speed = float(np.linalg.norm(g1))
    curv = abs(det2) / speed**3
    rho = 1.0 / curv
    # n and the phase equations give second-order contact for positively
    # oriented g (det2 > 0); signed rho handles the clockwise case too.
    rho = math.copysign(rho, det2)
    n = np.array([-g1[1], g1[0]]) / speed
    center = g0 + rho * n
    # phase: |g'| sin(phi/rho) = g1', |g'| cos(phi/rho) = g2'
    phi = rho * math.atan2(g1[0], g1[1])
    phi %= TWO_PI * abs(rho)
    circle = _circle(center, rho, 1.0 / rho, alpha_mu + phi, g.domain,
                     "osculating_circle")
    return center, rho, phi, circle


def osculating_deviation_sweep(g: Curve, alpha_mu: float,
                               deltas: Sequence[float]) -> dict:
    """Max |g - g_mu| on 400 points of |alpha - alpha_mu| <= delta^{1/3} per
    delta, a log-log slope fit and the fitted constant C = max dev/delta."""
    _, _, _, circle = osculating_circle(g, alpha_mu)
    devs = []
    for d in deltas:
        w = d ** (1.0 / 3.0)
        lo = max(g.domain[0], alpha_mu - w)
        hi = min(g.domain[1], alpha_mu + w)
        grid = np.linspace(lo, hi, 400)
        devs.append(float(np.linalg.norm(g.eval(grid) - circle.eval(grid),
                                         axis=0).max()))
    logs_d = np.log2(np.asarray(deltas, dtype=float))
    logs_v = np.log2(np.maximum(devs, 1e-300))
    return {
        "deltas": list(map(float, deltas)),
        "max_deviation": devs,
        "slope": fit_line(logs_d, logs_v)[0],
        "fitted_constant": float(max(dv / d for dv, d in zip(devs, deltas))),
    }


# ---------------------------------------------------------------------------
# exponent schedule
# ---------------------------------------------------------------------------


@dataclass
class ExponentSchedule:
    p: float
    eps: float
    betas: list[float]
    n_star: int

    @property
    def fixed_point(self) -> float:
        return 0.5 - 2.0 / self.p + self.eps / 2.0


def exponent_schedule(p: float, eps: float) -> ExponentSchedule:
    """Iterate beta' = (2/3) beta + (1/3)(1/2 - 2/p + eps/2) from beta_0 = 1.

    n_star is the smallest integer exceeding log(2/eps)/log(3/2); the closed
    form beta_n = (2/3)^n + (1 - (2/3)^n)(1/2 - 2/p + eps/2) holds exactly.
    """
    if p <= 2.0:
        raise ValueError("require p > 2")
    if eps <= 0.0:
        raise ValueError("require eps > 0")
    target = 0.5 - 2.0 / p + eps / 2.0
    threshold = math.log(2.0 / eps) / math.log(1.5)
    n_star = max(1, math.floor(threshold) + 1)
    betas = [1.0]
    for _ in range(n_star):
        betas.append((2.0 / 3.0) * betas[-1] + (1.0 / 3.0) * target)
    return ExponentSchedule(p=p, eps=eps, betas=betas, n_star=n_star)


# ---------------------------------------------------------------------------
# containment verification
# ---------------------------------------------------------------------------


def verify_containment(mapped_plates: Sequence[Plate], target_family: PlateFamily,
                       A: float, linear_map: Optional[np.ndarray] = None,
                       samples: int = 10000, seed: int = 0) -> dict:
    """Sample each source plate (8 corners + random interior points), apply the
    optional linear map, and report the smallest sufficient extension factor of
    the best-matching target plate.  Failures are data, not exceptions."""
    rng = np.random.default_rng(seed)
    L = np.eye(3) if linear_map is None else np.asarray(linear_map, dtype=float)
    per_plate = []
    for plate in mapped_plates:
        pts = (np.vstack([plate.corners(), plate.sample(samples, rng)])
               @ L.T).T
        best = math.inf
        best_alpha = None
        for target in target_family.plates:
            need = float(target.min_extension(pts).max())
            if need < best:
                best = need
                best_alpha = target.alpha
        per_plate.append({"alpha": plate.alpha, "required_A": best,
                          "matched_alpha": best_alpha})
    max_A = max(e["required_A"] for e in per_plate)
    return {"per_plate": per_plate, "max_required_A": max_A,
            "A": A, "pass": bool(max_A <= A * (1.0 + 1e-9))}


# ---------------------------------------------------------------------------
# admissible bump functions
# ---------------------------------------------------------------------------


class BumpFunction:
    """Tensor bump in the plate's frame, supported inside the A=1 plate:
    eval(xi) = eta0(a1) eta0(a2) eta0(a3) at a = plate.unit_coords(xi),
    which is 1 at the center.  It is the decoupling's plate envelope."""

    def __init__(self, plate: Plate):
        self.plate = plate

    def eval(self, xi):
        """The bump at xi, component first as in Plate.coords."""
        e = eta0(self.plate.unit_coords(xi))
        return e[0] * e[1] * e[2]

    def verify_derivative_bounds(self, grid_n: int = 5) -> dict:
        """Max ratio of |<u1,grad>^n1 <u2,grad>^n2 <u3,grad>^n3 eval| (unit
        u_i) to the scaling lam^{-n1-n2-n3} delta^{-n2/2 - n3}, orders
        n1+n2+n3 <= 2, at the center and grid_n^3 interior samples (seed
        0): derivative_sup with steps lam, lam sqrt(delta), lam delta."""
        p = self.plate
        pts = np.vstack([p.center(),
                         p.sample(grid_n**3, np.random.default_rng(0))]).T
        steps = [(h * u / np.linalg.norm(u))[:, None]
                 for h, u in zip((p.lam, *p.bounds[1:]), (p.u1, p.u2, p.u3))]
        worst = derivative_sup(self.eval, pts, steps).max()
        return {"max_ratio": float(worst), "max_order": 2}


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


# edges of the box whose corners Plate.corners lists as bits (t1, t2, t3):
# the pairs i < j that differ in one bit
_BOX_EDGES = [(i, j) for i in range(8) for j in range(i + 1, 8)
              if bin(i ^ j).count("1") == 1]


def _slice_polygon(plate: Plate, xi3: float) -> list[tuple[float, float]]:
    """Cross-section polygon of the (positive-branch) plate at fixed xi3."""
    corners = plate.corners()
    pts = []
    for i, j in _BOX_EDGES:
        a, c = corners[i], corners[j]
        da, dc = a[2] - xi3, c[2] - xi3
        if da == dc:
            continue
        t = da / (da - dc)
        if 0.0 <= t <= 1.0:
            q = a + t * (c - a)
            pts.append((q[0], q[1]))
    if len(pts) < 3:
        return []
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return pts


def family_svg_cross_section(family: PlateFamily) -> str:
    """SVG drawing of all plate cross-sections at the level xi3 = lam."""
    size = 600  # pixels per side
    polys = [_slice_polygon(p, family.lam) for p in family.plates]
    polys = [p for p in polys if p]
    allpts = [q for poly in polys for q in poly] or [(0, 0), (1, 1)]
    xs = [q[0] for q in allpts]
    ys = [q[1] for q in allpts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = 0.05 * span

    def sx(x):
        return (x - x0 + pad) / (span + 2 * pad) * size

    def sy(y):
        return size - (y - y0 + pad) / (span + 2 * pad) * size

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">']
    for poly in polys:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in poly)
        parts.append(f'<polygon points="{pts}" fill="none" '
                     f'stroke="steelblue" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts)
