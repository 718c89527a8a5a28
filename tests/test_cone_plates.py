import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conewolff import cone_plates as cp
from conewolff import curve_geometry as cg
from conewolff.errors import DegenerateCurvature, NotCircular


CIRCLE = cg.unit_circle_generator()
PARABOLA = cg.parabola_generator()


# ---------------------------------------------------------------------------
# generators on arrays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["unit", "parabola", "tilted", "binormal",
                                  "osculating"])
def test_generator_arrays_equal_scalar_calls(name):
    g = {"unit": lambda: CIRCLE, "parabola": lambda: PARABOLA,
         "tilted": lambda: cg.tilted_circle_generator(0.5, -0.4, 0.9),
         "binormal": lambda: cg.binormal_generator(cg.helix(1, 1)),
         "osculating": lambda: cp.osculating_circle(PARABOLA, 0.3)[3]}[name]()
    alphas = np.linspace(g.domain[0] + 0.01, g.domain[1] - 0.01, 17)
    assert np.array_equal(g.eval(alphas),
                          np.stack([g.eval(a) for a in alphas], axis=1))
    for j in range(4):
        got = g.derivative(alphas, j)
        assert got.shape == (2, alphas.size)
        assert np.array_equal(
            got, np.stack([g.derivative(a, j) for a in alphas], axis=1)), j


# ---------------------------------------------------------------------------
# make_plate / plate_contains
# ---------------------------------------------------------------------------


def test_parabola_frame_at_zero():
    pl = cp.make_plate(PARABOLA, 0.0, 2**-6, 1.0)
    assert np.allclose(pl.u1, [0, 0, 1])
    assert np.allclose(pl.u2, [1, 0, 0])
    assert np.allclose(pl.u3, [0, 1, 0])


def test_unit_circle_plate_frames_exact():
    fam = cp.make_family(CIRCLE, 2**-6, 24.0, 1.0, 2**-3)
    for p in fam.plates:
        c, s = np.cos(p.alpha), np.sin(p.alpha)
        assert np.array_equal(p.u1, [c, s, 1.0])
        assert np.array_equal(p.u2, [-s, c, 0.0])


def test_u3_is_cross_product():
    for g in (CIRCLE, PARABOLA):
        for a in np.linspace(g.domain[0] + 0.1, g.domain[1] - 0.1, 7):
            pl = cp.make_plate(g, a, 2**-4, 2.0)
            assert np.allclose(pl.u3, np.cross(pl.u1, pl.u2), atol=1e-12)


def test_membership_center_and_boundary():
    lam, d = 4.0, 2**-6
    pl = cp.make_plate(PARABOLA, 0.0, d, lam)
    assert cp.plate_contains(pl, np.array([0.0, 0.0, lam]))
    # twice the third bound fails
    assert not cp.plate_contains(pl, np.array([0.0, 2 * lam * d, lam]))


def test_canonical_center_accepted():
    for g, a in [(CIRCLE, 0.4), (PARABOLA, 0.3)]:
        pl = cp.make_plate(g, a, 2**-5, 3.0)
        c = pl.center()
        assert cp.plate_contains(pl, c)
        assert abs(np.dot(pl.u1, c) - pl.lam) < 1e-10


def test_a_extension():
    lam, d = 4.0, 2**-6
    pl = cp.make_plate(PARABOLA, 0.0, d, lam, A=2.0)
    assert cp.plate_contains(pl, np.array([0.0, 1.5 * lam * d, lam]))
    assert not cp.plate_contains(pl, np.array([0.0, 0.0, 3 * pl.A * lam]))
    # monotone in A: everything in the unextended plate stays in
    base = cp.make_plate(PARABOLA, 0.0, d, lam, A=1.0)
    rng = np.random.default_rng(5)
    for xi in base.sample(200, rng):
        assert cp.plate_contains(base, xi)
        assert cp.plate_contains(pl, xi)


def test_plate_tests_on_a_batch_equal_per_point_calls():
    # points component first, as Curve.eval returns them: a (3, m) batch of
    # interior samples, the corners, points outside and xi = 0 (t1 = 0)
    # gives the per-point values of coords, min_extension and plate_contains
    pl = cp.make_plate(CIRCLE, 0.4, 2**-5, 3.0, A=1.5)
    rng = np.random.default_rng(11)
    pts = np.vstack([pl.sample(50, rng), pl.corners(),
                     3.0 * pl.sample(20, rng), np.zeros((1, 3))])
    t = pl.coords(pts.T)
    assert np.array_equal(t, np.stack([pl.coords(x) for x in pts], axis=1))
    assert np.array_equal(pl.coords(tuple(pts.T)), t)
    need = pl.min_extension(pts.T)
    inside = cp.plate_contains(pl, pts.T)
    assert need.shape == inside.shape == (len(pts),)
    assert np.array_equal(need, [pl.min_extension(x) for x in pts])
    assert np.array_equal(inside, [cp.plate_contains(pl, x) for x in pts])
    assert inside[:58].all() and not inside[58:].all()
    assert math.isinf(need[-1]) and not inside[-1]


@pytest.mark.parametrize("build, match", [
    (lambda: cp.make_plate(CIRCLE, 0.0, 2**-4, math.nan), "lam=nan"),
    (lambda: cp.make_plate(CIRCLE, 0.0, 2**-4, math.inf), "lam=inf"),
    (lambda: cp.make_family(CIRCLE, 2**-4, 1.0, 1.0, 0.0), "sigma=0.0"),
    (lambda: cp.make_family(CIRCLE, 2**-4, 1.0, 1.0, math.nan), "sigma=nan"),
    (lambda: cp.make_family(CIRCLE, 2**-4, 1.0, math.nan, 0.25), "theta=nan"),
])
def test_plates_refuse_non_finite_parameters(build, match):
    # refused by name, not built from NaN or stopped by a ZeroDivisionError
    with pytest.raises(ValueError, match=match):
        build()


# ---------------------------------------------------------------------------
# make_family
# ---------------------------------------------------------------------------


def test_family_uniform_grid_count():
    g = cg.unit_circle_generator(domain=(0.0, 1.0))
    fam = cp.make_family(g, 2**-6, 1.0, 1.0, 2**-3)
    assert len(fam.plates) == 9
    alphas = [p.alpha for p in fam.plates]
    assert np.allclose(alphas, np.arange(9) / 8.0)


def test_family_wolff_normalization():
    g = cg.unit_circle_generator(domain=(0.0, 1.0))
    fam = cp.make_family(g, 2**-6, 1.0, 1.0, 2**-3)  # sigma = sqrt(delta)
    assert len(fam.plates) == 9


def test_family_window_shorter_than_spacing():
    g = cg.unit_circle_generator(domain=(0.0, 1.0))
    fam = cp.make_family(g, 2**-2, 1.0, 0.1, 0.5)
    assert len(fam.plates) == 1


def test_family_separation_validated():
    g = cg.unit_circle_generator(domain=(0.0, 1.0))
    with pytest.raises(ValueError):
        cp.make_family(g, 2**-6, 1.0, 1.0, 0.5)  # sigma > sqrt(delta)


# ---------------------------------------------------------------------------
# rotation step
# ---------------------------------------------------------------------------


def test_rotation_identity_and_periodicity():
    fam = cp.make_family(CIRCLE, 2**-6, 1.0, 0.5, 2**-3, alpha0=0.0)
    r0 = cp.rotate_step1(fam, 0.0)
    r2pi = cp.rotate_step1(fam, 2 * math.pi)
    for p, q0, q2 in zip(fam.plates, r0.plates, r2pi.plates):
        assert np.allclose(p.u1, q0.u1, atol=1e-15)
        assert np.allclose(p.u1, q2.u1, atol=1e-12)
        assert np.allclose(p.u2, q2.u2, atol=1e-12)


def test_rotation_is_isometry():
    fam = cp.make_family(CIRCLE, 2**-6, 1.0, 0.5, 2**-3, alpha0=0.0)
    rng = np.random.default_rng(1)
    for a0 in rng.uniform(-3, 3, 5):
        rot = cp.rotate_step1(fam, a0)
        for p, q in zip(fam.plates, rot.plates):
            for u, v in [(p.u1, q.u1), (p.u2, q.u2), (p.u3, q.u3)]:
                assert abs(np.linalg.norm(u) - np.linalg.norm(v)) < 1e-12
            # pairwise inner products preserved
            assert abs(np.dot(p.u1, p.u2) - np.dot(q.u1, q.u2)) < 1e-12


def test_rotation_requires_circle():
    # only the unit circle: a circle of another center and radius is refused
    for g in (PARABOLA, cg.tilted_circle_generator(0.5, -0.4, 0.9)):
        fam = cp.make_family(g, 2**-6, 1.0, 0.5, 2**-3, alpha0=-0.25)
        with pytest.raises(NotCircular):
            cp.rotate_step1(fam, 0.3)


# ---------------------------------------------------------------------------
# parabolic rescale
# ---------------------------------------------------------------------------


def test_parabolic_rescale_basis_action():
    th = 0.5
    L = cp.parabolic_rescale_step1(th)
    assert np.allclose(L @ [1, 0, 1], [1, 0, 1], atol=1e-14)
    assert np.allclose(L @ [0, 1, 0], [0, 1 / th, 0], atol=1e-14)
    assert np.allclose(L @ [1, 0, -1], [1 / th**2, 0, -1 / th**2], atol=1e-14)


def test_parabolic_rescale_theta_one_identity():
    assert np.allclose(cp.parabolic_rescale_step1(1.0), np.eye(3), atol=1e-14)


def test_light_cone_invariance():
    rng = np.random.default_rng(3)
    for th in (1.0, 0.5, 0.25, 0.125):
        L = cp.parabolic_rescale_step1(th)
        al = rng.uniform(-np.pi, np.pi, 25000)
        r = rng.uniform(0.5, 2.0, 25000)
        pts = np.stack([r * np.cos(al), r * np.sin(al), r], axis=1)
        y = pts @ L.T
        res = np.abs(y[:, 0] ** 2 + y[:, 1] ** 2 - y[:, 2] ** 2)
        assert (res < 1e-10 * np.linalg.norm(y, axis=1) ** 2).all()


# ---------------------------------------------------------------------------
# tilt map
# ---------------------------------------------------------------------------


def test_tilt_identity():
    assert np.allclose(cp.tilt_normalize(0.0, 0.0, 1.0), np.eye(3), atol=1e-15)


def test_tilt_alpha_zero_point():
    a, b, rho = 0.5, -0.4, 0.9
    L = cp.tilt_normalize(a, b, rho, K=4)
    assert np.allclose(L @ [a + rho, b, 1.0], [1, 0, 1], atol=1e-14)


def test_tilt_maps_tilted_cone_to_light_cone():
    rng = np.random.default_rng(4)
    a, b, rho = 0.5, -0.4, 0.9
    L = cp.tilt_normalize(a, b, rho, K=4)
    for _ in range(500):
        al = rng.uniform(-np.pi, np.pi)
        lam = rng.uniform(0.5, 2.0)
        xi = lam * np.array([a + rho * np.cos(al), b + rho * np.sin(al), 1.0])
        y = L @ xi
        assert abs(y[0] ** 2 + y[1] ** 2 - y[2] ** 2) < 1e-10


def test_tilt_k_bound():
    with pytest.raises(ValueError):
        cp.tilt_normalize(5.0, 5.0, 1.0, K=10.0)


# ---------------------------------------------------------------------------
# osculating circle
# ---------------------------------------------------------------------------


def test_circle_is_own_osculating_circle():
    for a_mu in (-0.7, 0.0, 1.3):
        _, rho, _, circ = cp.osculating_circle(CIRCLE, a_mu)
        assert abs(rho - 1.0) < 1e-12
        for a in np.linspace(-2, 2, 21):
            assert np.linalg.norm(CIRCLE.eval(a) - circ.eval(a)) < 1e-12


def test_parabola_osculating_at_vertex():
    center, rho, _, _ = cp.osculating_circle(PARABOLA, 0.0)
    assert abs(rho - 1.0) < 1e-12
    assert np.allclose(center, [0.0, 1.0], atol=1e-12)


def test_parabola_deviation_cubic():
    # deviation <= C * delta on |alpha| <= delta^{1/3}; C ~ 1/6 for the parabola
    _, _, _, circ = cp.osculating_circle(PARABOLA, 0.0)
    d = 2**-9
    w = d ** (1 / 3)
    devs = [np.linalg.norm(PARABOLA.eval(a) - circ.eval(a))
            for a in np.linspace(-w, w, 200)]
    assert max(devs) <= 1.0 * d


def test_deviation_sweep_slope():
    sweep = cp.osculating_deviation_sweep(PARABOLA, 0.0,
                                          [2.0**-k for k in range(6, 13)])
    assert sweep["slope"] >= 0.95
    assert sweep["fitted_constant"] <= 1.0


def test_osculating_degenerate():
    flat = cg.Curve(lambda a, j: np.array([a, 0.0]) if j == 0
                    else np.array([1.0, 0.0]) if j == 1
                    else np.zeros(2), domain=(-1, 1))
    with pytest.raises(DegenerateCurvature):
        cp.osculating_circle(flat, 0.0)


# ---------------------------------------------------------------------------
# exponent schedule
# ---------------------------------------------------------------------------


def test_schedule_p74():
    sch = cp.exponent_schedule(74.0, 0.1)
    assert sch.n_star == 8
    assert abs(sch.betas[1] - (2 / 3 + (1 / 3) * (0.5 - 1 / 37 + 0.05))) < 1e-14


def test_schedule_large_eps():
    assert cp.exponent_schedule(74.0, 2.0).n_star == 1


def test_schedule_recursion_exact():
    sch = cp.exponent_schedule(74.0, 0.1)
    fp = sch.fixed_point
    for bn, bn1 in zip(sch.betas, sch.betas[1:]):
        assert abs(bn1 - ((2 / 3) * bn + fp / 3)) < 1e-14
    # closed form
    for n, bn in enumerate(sch.betas):
        closed = (2 / 3) ** n + (1 - (2 / 3) ** n) * fp
        assert abs(bn - closed) < 1e-13


def test_schedule_monotone_to_fixed_point():
    sch = cp.exponent_schedule(74.0, 0.1)
    fp = sch.fixed_point
    diffs = [b - fp for b in sch.betas]
    assert all(d > 0 for d in diffs)
    assert all(b > c for b, c in zip(sch.betas, sch.betas[1:]))
    # terminal gap bound: beta_n - fp == (2/3)^n (1 - fp) exactly
    n = sch.n_star
    assert sch.betas[n] - fp <= (2 / 3) ** n * (0.5 + 2 / 74 - 0.05) + 1e-13
    # final beta within eps of 1/2 - 2/p
    assert sch.betas[n] <= 0.5 - 2 / 74 + 0.1


@settings(max_examples=30, deadline=None)
@given(p=st.floats(4.0, 200.0), eps=st.floats(0.01, 1.0))
def test_schedule_property(p, eps):
    sch = cp.exponent_schedule(p, eps)
    assert sch.betas[0] == 1.0
    assert sch.betas[sch.n_star] <= 0.5 - 2.0 / p + eps + 1e-12


# ---------------------------------------------------------------------------
# containment verification
# ---------------------------------------------------------------------------


def test_containment_identity():
    fam = cp.make_family(CIRCLE, 2**-6, 1.0, 0.5, 2**-3, alpha0=-0.25)
    rep = cp.verify_containment(fam.plates, fam, A=1.0, samples=500, seed=0)
    assert rep["pass"]
    assert rep["max_required_A"] <= 1.0 + 1e-9


def test_containment_step1_rescaling():
    # (delta, lam, theta) family maps into extensions of a (delta/theta^2, lam, 1)
    # family; fitted extension stays below 8 on the circle (measured ~1.23)
    delta, theta, lam = 2**-8, 2**-2, 1.0
    src = cp.make_family(CIRCLE, delta, lam, theta, math.sqrt(delta),
                         alpha0=-theta / 2)
    L2 = cp.parabolic_rescale_step1(theta)
    tgt_plates = [cp.make_plate(CIRCLE, p.alpha / theta, delta / theta**2, lam)
                  for p in src.plates]
    tgt = cp.PlateFamily(tgt_plates, delta / theta**2, lam, 1.0,
                         math.sqrt(delta) / theta, CIRCLE)
    rep = cp.verify_containment(src.plates, tgt, A=8.0, linear_map=L2,
                                samples=2000, seed=1)
    assert rep["pass"]
    assert rep["max_required_A"] <= 8.0


def test_containment_tilt():
    # tilt normalization with K=4; measured extension ~1.79, ceiling 4
    a, b, rho = 0.5, -0.4, 0.9
    tg = cg.tilted_circle_generator(a, b, rho)
    src = cp.make_family(tg, 2**-6, 1.0, 0.5, 2**-3, alpha0=-0.25)
    L = cp.tilt_normalize(a, b, rho, K=4)
    tgt_plates = [cp.make_plate(CIRCLE, p.alpha, 2**-6, 1.0) for p in src.plates]
    tgt = cp.PlateFamily(tgt_plates, 2**-6, 1.0, 0.5, 2**-3, CIRCLE)
    rep = cp.verify_containment(src.plates, tgt, A=4.0, linear_map=L,
                                samples=2000, seed=2)
    assert rep["pass"]
    assert rep["max_required_A"] <= 4.0


# ---------------------------------------------------------------------------
# bump functions
# ---------------------------------------------------------------------------


def test_bump_supported_in_plate():
    pl = cp.make_plate(CIRCLE, 0.2, 2**-5, 2.0)
    bump = cp.BumpFunction(pl)
    rng = np.random.default_rng(9)
    assert bump.eval(pl.center()) == 1.0
    for xi in pl.sample(300, rng):
        if bump.eval(xi) != 0.0:
            assert cp.plate_contains(pl, xi)
    # outside the plate the bump vanishes
    assert bump.eval(np.array([100.0, 100.0, 100.0])) == 0.0


def test_bump_derivative_scalings():
    # ratios to lam^{-n} delta^{-n2/2-n3} bounded by the template constant,
    # independent of (lam, delta); measured ~160, frozen ceiling 200
    ratios = []
    for lam, d in [(2.0, 2**-4), (4.0, 2**-6)]:
        pl = cp.make_plate(CIRCLE, 0.1, d, lam)
        rep = cp.BumpFunction(pl).verify_derivative_bounds(grid_n=3)
        ratios.append(rep["max_ratio"])
        assert rep["max_ratio"] <= 200.0
    # scale invariance of the normalized ratios
    assert abs(ratios[0] - ratios[1]) <= 1e-6 * ratios[0]


def test_bump_is_the_decoupling_envelope():
    # the lattice envelope is the bump the derivative check measures
    from conewolff import operator_lab as ol
    grid = ol.Grid3(64, 8.0)
    pl = cp.make_plate(CIRCLE, 0.7, 2.0**-2, 8.0)
    idx, env = ol._plate_envelope(pl, grid)
    assert env.size > 100 and env.max() == 1.0
    ax = grid.freq_axis()
    assert np.array_equal(env, cp.BumpFunction(pl).eval(
        tuple(ax[i] for i in idx)))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_svg_export():
    fam = cp.make_family(CIRCLE, 2**-6, 1.0, 0.5, 2**-3, alpha0=0.0)
    svg = cp.family_svg_cross_section(fam)
    assert svg.startswith("<svg")
    assert svg.count("<polygon") >= 1
