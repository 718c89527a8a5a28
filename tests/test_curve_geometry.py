import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conewolff import curve_geometry as cg
from conewolff import operator_lab as ol
from conewolff.errors import (
    B3TooSmall,
    DegenerateCurvature,
    NotConverged,
    OutsideCone,
    SingularJacobian,
    TypeExceedsNMax,
)

RNG = np.random.default_rng(20260823)

BENCHMARKS = [
    cg.helix(1, 1),
    cg.helix(1.5, 0.7),
    cg.benchmark_curve("twisted_cubic"),
    cg.planar_circle(),
    cg.line(),
]


# ---------------------------------------------------------------------------
# Curve basics
# ---------------------------------------------------------------------------


def test_derivative_order_zero_is_eval():
    for c in BENCHMARKS:
        for s in np.linspace(*c.domain, 7):
            assert np.allclose(c.derivative(s, 0), c.eval(s))


def test_arclength_flag_unit_speed():
    for c in BENCHMARKS:
        if not c.arclength_flag:
            continue
        for s in np.linspace(c.domain[0] + 0.01, c.domain[1] - 0.01, 11):
            assert abs(np.linalg.norm(c.derivative(s, 1)) - 1.0) < 1e-8


def test_derivatives_match_finite_differences():
    for c in BENCHMARKS:
        for s in np.linspace(c.domain[0] + 0.05, c.domain[1] - 0.05, 5):
            for j in range(1, 4):
                fd = cg.nested_diff(lambda t: c.derivative(t, j - 1), s, 1)
                assert np.allclose(fd, c.derivative(s, j), atol=1e-6), (c.name, s, j)


def test_derivative_sup_matches_closed_forms():
    # exp(c.x): d_t^alpha = exp(c.x) (c.h1)^a1 (c.h2)^a2, with a per-point
    # first step broadcast against (m, 2) points
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (50, 2))
    s = rng.uniform(0.2, 2.0, 50)
    c = np.array([1.5, -0.7])
    steps = [s[:, None] * np.array([1.0, 0.0]), np.array([0.0, 0.5])]
    a, b = (h @ c * np.ones(50) for h in steps)
    exact = np.exp(x @ c) * np.max(np.abs([np.ones(50), a, b, a * a, b * b,
                                           a * b]), axis=0)
    got = cg.derivative_sup(lambda y: np.exp(y @ c), x, steps)
    assert np.allclose(got, exact, rtol=1e-7, atol=0)
    # x0 x1 near the origin: only the mixed partial h1 h2 reaches 6
    got = cg.derivative_sup(lambda y: y[0] * y[1], np.array([0.01, 0.02]),
                            [np.array([2.0, 0.0]), np.array([0.0, 3.0])])
    assert got == pytest.approx(6.0, rel=1e-7)


def test_reparametrization_preserves_image():
    base = cg.twisted_cubic(domain=(-0.4, 0.4))
    arc = cg.reparametrize_arclength(base)
    # point at arclength 0 is the original point at t=0
    assert np.allclose(arc.eval(0.0), base.eval(0.0), atol=1e-12)
    # unit speed everywhere
    for s in np.linspace(arc.domain[0] + 0.01, arc.domain[1] - 0.01, 9):
        assert abs(np.linalg.norm(arc.derivative(s, 1)) - 1.0) < 1e-10


# (x, y) pairs: each end-slope clamp of the PCHIP edge rule is hit by one case
PCHIP_DATA = {
    "monotone": ([0.0, 0.3, 1.0, 1.1, 2.5, 4.0],
                 [-1.0, -0.2, 0.5, 2.0, 2.1, 7.0]),
    "sign_changing": (np.cumsum(RNG.uniform(0.1, 1.0, 12)),
                      RNG.normal(size=12)),
    "flat_segments": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                      [1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 0.0]),
    "end_slope_zeroed": ([0.0, 1.0, 2.0, 3.0], [0.0, 0.1, 2.0, 2.5]),
    "end_slope_three_secants": ([0.0, 10.0, 11.0, 12.0],
                                [0.0, 10.0, 5.0, 6.0]),
    "two_points": ([0.0, 2.0], [1.0, -3.0]),
}


@pytest.mark.parametrize("case", sorted(PCHIP_DATA))
def test_pchip_matches_scipy(case):
    from scipy.interpolate import PchipInterpolator

    x, y = (np.asarray(v, dtype=float) for v in PCHIP_DATA[case])
    span = x[-1] - x[0]
    # the knots, points between them, and points beyond both ends
    xq = np.concatenate([x, np.linspace(x[0] - 0.5 * span,
                                        x[-1] + 0.5 * span, 301)])
    got = cg._pchip(x, y)(xq)
    np.testing.assert_allclose(got, PchipInterpolator(x, y)(xq),
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(got[: len(x)], y, rtol=1e-14, atol=1e-14)
    assert cg._pchip(x, y)(xq[len(x):].reshape(7, 43)).shape == (7, 43)


# (order, panels) of every rule the package builds: _panel_quad's doubling
# levels, reparametrize_arclength, l1_kernel_bound, and _curve_quadrature at
# its smallest node count
GL_RULES = [(16, 1), (16, 2), (16, 3), (16, 4), (10, 1024), (20, 1),
            (201, 1)]


@pytest.mark.parametrize("order,panels", GL_RULES,
                         ids=[f"{o}x{p}" for o, p in GL_RULES])
def test_gauss_legendre_rule(order, panels):
    from numpy.polynomial import legendre

    a, b = -0.7, 1.3
    x, w = cg.gauss_legendre(a, b, order, panels)
    assert x.shape == w.shape == (order * panels,)
    assert a < x[0] and x[-1] < b and np.all(np.diff(x) > 0)
    assert w.sum() == pytest.approx(b - a, rel=1e-13)
    # 1 + P_D + P_{D-1} in v = 2 (x - a) / (b - a) - 1, D = 2 order - 1:
    # well conditioned at every degree, and its integral is b - a
    v = 2.0 * (x - a) / (b - a) - 1.0
    deg = 2 * order - 1
    coef = np.zeros(deg + 1)
    coef[[0, deg - 1, deg]] = 1.0
    assert legendre.legval(v, coef) @ w == pytest.approx(b - a, rel=1e-13)
    if panels == 1:  # one degree more is not exact: P_{D+1} integrates to 0
        top = np.zeros(deg + 2)
        top[deg + 1] = 1.0
        assert abs(legendre.legval(v, top) @ w) > 1e-3


def test_gauss_legendre_returns_fresh_arrays():
    x, w = cg.gauss_legendre(-1.0, 1.0, 16)
    x[:] = 0.0
    w[:] = 0.0
    x2, w2 = cg.gauss_legendre(-1.0, 1.0, 16)
    np.testing.assert_array_equal(x2, np.polynomial.legendre.leggauss(16)[0])
    np.testing.assert_array_equal(w2, np.polynomial.legendre.leggauss(16)[1])
    for table in cg._gl_table(16):
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_twisted_cubic_arclength_curve_pinned():
    # the benchmark twisted cubic by arclength, as it stood with scipy's
    # PchipInterpolator for the arclength maps
    c = cg.benchmark_curve("twisted_cubic")
    assert c.domain == pytest.approx((-0.4468029918549114, 0.4468029918549104),
                                     rel=1e-12)
    s = np.array([-0.35, 0.0, 0.2])
    pinned = {
        0: [[-0.32544188840854515, 0.10591242273091996, -0.034468338859474715],
            [0.0, 0.0, 0.0],
            [0.19492877734014627, 0.037997228235324323, 0.007406753242226253]],
        1: [[0.8098807816568103, -0.5271382619363619, 0.25732930712545193],
            [1.0, 0.0, 0.0],
            [0.9264888622298922, 0.36119868226747226, 0.10561202626690551]],
        2: [[0.8269560256681884, 0.7735614997455309, -1.0180026943433478],
            [0.0, 2.0, 0.0],
            [-0.6727427567473686, 1.4544893775976724, 0.9272525883034072]],
        3: [[-0.008841867522835839, 4.024169782911151, -0.738852587023035],
            [-4.0, 0.0, 6.0],
            [-2.1773535859486093, -4.588589772325915, 2.336541638812105]],
    }
    for j, rows in pinned.items():
        np.testing.assert_allclose(c.derivative(s, j).T, rows,
                                   rtol=1e-12, atol=1e-12)
    fr = cg.frenet_frame(c, s)
    np.testing.assert_allclose(fr.T, pinned[1], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        fr.N, [[0.5430890901736061, 0.5080231572781341, -0.6685556908766549],
               [0.0, 1.0, 0.0],
               [-0.36335715914112865, 0.7855887305276525, 0.5008212469223325]],
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        fr.B, [[0.22169203783031682, 0.6812031447900603, 0.6977212307868907],
               [0.0, 0.0, 1.0],
               [0.09792835679642749, -0.5023801930771088, 0.859083336201418]],
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        fr.kappa, [1.5226894456742643, 2.0, 1.8514641581234785], rtol=1e-12)
    np.testing.assert_allclose(
        fr.tau, [1.4604447476723212, 3.0, 2.214072535616877], rtol=1e-12)


def _rescaled(build, s0, j):
    return lambda: cg.finite_type_rescale(build(), s0, j)[1]


# the registry curves and rescaled pieces at finite-type points
_ARRAY_CURVES = [
    pytest.param(lambda name=name: cg.benchmark_curve(name), id=name)
    for name in sorted(cg._BENCHMARKS)
] + [
    pytest.param(_rescaled(cg.twisted_cubic, 0.0, 3),
                 id="rescaled_twisted_cubic"),
    pytest.param(_rescaled(cg.quartic_curve, 0.0, 2), id="rescaled_quartic"),
    pytest.param(_rescaled(lambda: cg.helix(0.5, 0.5), 0.25, 2),
                 id="rescaled_helix"),
]


@pytest.mark.parametrize("build", _ARRAY_CURVES)
def test_array_evaluation_matches_scalar(build):
    c = build()
    lo, hi = c.domain
    s = np.linspace(lo + 0.01, hi - 0.01, 17)
    for j in range(6):
        arr = c.derivative(s, j)
        assert arr.shape == (3, 17)
        scalar = np.stack([c.derivative(x, j) for x in s], axis=-1)
        np.testing.assert_allclose(arr, scalar, rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(c.eval(s), c.derivative(s, 0))
    assert c.eval(s.reshape(1, 17)).shape == (3, 1, 17)
    if c.name == "line":
        return
    fr = cg.frenet_frame(c, s)
    assert fr.T.shape == fr.N.shape == fr.B.shape == (17, 3)
    assert fr.kappa.shape == fr.tau.shape == (17,)
    one = [cg.frenet_frame(c, x) for x in s]
    for field in ("T", "N", "B", "kappa", "tau"):
        scalar = np.array([getattr(f, field) for f in one])
        np.testing.assert_allclose(getattr(fr, field), scalar,
                                   rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("build", _ARRAY_CURVES + [
    pytest.param(lambda: cg.binormal_generator(cg.helix(1, 1)),
                 id="binormal_helix")])
def test_orders_above_max_order_refused(build):
    # a curve supplies the derivatives of orders 0..MAX_ORDER and no others
    c = build()
    s = 0.5 * (c.domain[0] + c.domain[1])
    assert np.isfinite(c.derivative(s, cg.MAX_ORDER)).all()
    with pytest.raises(ValueError, match="order 6"):
        c.derivative(s, cg.MAX_ORDER + 1)
    with pytest.raises(ValueError, match="order 6"):
        c.derivatives(s, (cg.MAX_ORDER + 1,))
    with pytest.raises(ValueError, match="order -1"):
        c.derivatives(s, (-1, 1))


def test_helix_family_curve_takes_arrays():
    c = ol.helix_family_curve(1.5, 1.3)
    s = np.linspace(-0.9, 0.9, 11)
    for j in range(6):
        scalar = np.stack([c.derivative(x, j) for x in s], axis=-1)
        np.testing.assert_allclose(c.derivative(s, j), scalar,
                                   rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# frenet_frame
# ---------------------------------------------------------------------------


def test_helix_closed_forms():
    # helix(a, b): kappa = a/(a^2+b^2), tau = b/(a^2+b^2)
    for a, b in [(1, 1), (1.5, 0.7), (2, 0.5)]:
        h = cg.helix(a, b)
        fr = cg.frenet_frame(h, 0.37)
        assert abs(fr.kappa - a / (a * a + b * b)) < 1e-10
        assert abs(fr.tau - b / (a * a + b * b)) < 1e-10


def test_line_degenerate():
    with pytest.raises(DegenerateCurvature):
        cg.frenet_frame(cg.line(), 0.1)


def test_array_frame_degenerate_names_first_parameter():
    with pytest.raises(DegenerateCurvature, match=r"at s=-1\.0$"):
        cg.frenet_frame(cg.line(), np.linspace(-1.0, 1.0, 5))
    # gamma = (s, s^3, s^4) has gamma'' = 0 only at s = 0
    flat = cg._poly_curve((1, 3, 4), (-1.0, 1.0), "flat_at_zero")
    with pytest.raises(DegenerateCurvature, match=r"at s=0\.0$"):
        cg.frenet_frame(flat, np.linspace(-1.0, 1.0, 5))
    assert cg.frenet_frame(flat, np.array([-0.5, 0.5])).kappa.min() > 0.0


def test_circle_planar():
    fr = cg.frenet_frame(cg.planar_circle(), 0.2)
    assert abs(fr.kappa - 1.0) < 1e-10
    assert abs(fr.tau) < 1e-10


def test_frame_orthonormal_and_frenet_odes():
    # orthonormality, det=+1, and the Frenet ODE residuals on random s
    for c in BENCHMARKS:
        if c.name in ("line",):
            continue
        lo, hi = c.domain
        for s in RNG.uniform(lo + 0.05, hi - 0.05, 20):
            fr = cg.frenet_frame(c, s)
            M = np.stack([fr.T, fr.N, fr.B])
            assert np.allclose(M @ M.T, np.eye(3), atol=1e-8)
            assert abs(np.linalg.det(M) - 1.0) < 1e-8
            h = 1e-5
            frp = cg.frenet_frame(c, s + h)
            frm = cg.frenet_frame(c, s - h)
            Tp = (frp.T - frm.T) / (2 * h)
            Np = (frp.N - frm.N) / (2 * h)
            Bp = (frp.B - frm.B) / (2 * h)
            sp = np.linalg.norm(c.derivative(s, 1))  # d/ds = speed * d/darclen
            assert np.linalg.norm(Tp - sp * fr.kappa * fr.N) < 1e-5
            assert np.linalg.norm(Np + sp * (fr.kappa * fr.T - fr.tau * fr.B)) < 1e-5
            assert np.linalg.norm(Bp + sp * fr.tau * fr.N) < 1e-5


# ---------------------------------------------------------------------------
# finite_type
# ---------------------------------------------------------------------------


def _sphere_grid(n=80, seed=1):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return list(v / np.linalg.norm(v, axis=1, keepdims=True))


def test_helix_type_three():
    h = cg.helix(1, 1)
    xi = _sphere_grid() + [cg.frenet_frame(h, 0.0).B]
    rep = cg.finite_type(h, [0.0], xi, 5)
    assert rep.types == [3]
    assert rep.witness_constant > 0


def test_quartic_type_four_at_zero():
    q = cg.quartic_curve()
    rep = cg.finite_type(q, [0.0], [np.array([0.0, 0.0, 1.0])], 5)
    assert rep.types == [4]


def test_cubic_type_three_at_zero():
    # include the adversarial direction orthogonal to gamma'(0), gamma''(0)
    xi = _sphere_grid(120, 2) + [np.array([0.0, 0.0, 1.0])]
    rep = cg.finite_type(cg.twisted_cubic(), [0.0], xi, 5)
    assert rep.types == [3]


def test_type_monotone_in_nmax():
    h = cg.helix(1, 1)
    xi = _sphere_grid(40, 3) + [cg.frenet_frame(h, 0.1).B]
    t5 = cg.finite_type(h, [0.1], xi, 5).types[0]
    t4 = cg.finite_type(h, [0.1], xi, 4).types[0]
    assert t4 == t5  # enlarging n_max never increases the type


def test_line_exceeds_nmax():
    with pytest.raises(TypeExceedsNMax):
        cg.finite_type(cg.line(), [0.0], [np.array([0.0, 1.0, 0.0])], 5)


def test_rescaled_curve_is_a_curve_on_the_unit_section():
    _, rc = cg.finite_type_rescale(cg.helix(0.5, 0.5), 0.25, 2)
    assert isinstance(rc, cg.Curve)
    # the parent's (-1, 1) is (-5, 3) in u = 4 (s - 0.25), clipped to |u| <= 1
    assert rc.domain == (-1.0, 1.0)
    # near the parent's end: (-1, 1) is (-31.5, 0.5) in u = 16 (s - 31/32)
    _, edge = cg.finite_type_rescale(cg.twisted_cubic(), 0.96875, 4)
    assert edge.domain == (-1.0, 0.5)


def test_rescale_point_outside_domain_refused():
    # s0 = 3 on the twisted cubic, and the (l, nu) = (0, 5) section point
    # s_nu = 5 on the helix; both domains are (-1, 1)
    for curve, s0, j in ((cg.twisted_cubic(), 3.0, 1),
                         (cg.helix(0.5, 0.5), 5.0, 0)):
        with pytest.raises(ValueError,
                           match=rf"s0={s0} .*\(-1\.0, 1\.0\)"):
            cg.finite_type_rescale(curve, s0, j)


def test_exponent_triples():
    assert cg.exponent_triple(cg.twisted_cubic(), 0.0) == (1, 2, 3)
    assert cg.exponent_triple(cg.quartic_curve(), 0.0) == (1, 2, 4)
    assert cg.exponent_triple(cg.helix(1, 1), 0.0) == (1, 2, 3)


# ---------------------------------------------------------------------------
# binormal generator and determinant identity
# ---------------------------------------------------------------------------


def test_helix_generator_is_unit_circle():
    h = cg.helix(1, 1)
    g = cg.binormal_generator(h)
    for s in np.linspace(-0.9, 0.9, 7):
        expected = np.array([np.sin(s / np.sqrt(2)), -np.cos(s / np.sqrt(2))])
        assert np.allclose(g.eval(s), expected, atol=1e-10)
    lo, hi = g.domain
    alphas = np.linspace(lo + 2e-4, hi - 2e-4, 129)
    min_speed = np.linalg.norm(g.derivative(alphas, 1), axis=0).min()
    assert abs(min_speed - 1 / np.sqrt(2)) < 1e-8


def test_circle_generator_rejected():
    with pytest.raises((B3TooSmall, DegenerateCurvature)):
        cg.binormal_generator(cg.planar_circle())


def test_det_identity_helix():
    lhs, rhs_alt, rhs_frenet = cg.generator_det_identity(cg.helix(1, 1), 0.2)
    target = 1 / (2 * np.sqrt(2))
    assert abs(lhs - target) < 1e-7
    assert abs(rhs_frenet - target) < 1e-12
    assert abs(rhs_alt - np.sqrt(2) / 2) < 1e-12
    # the kappa*tau/B3^3 variant does NOT match the direct determinant
    assert abs(lhs - rhs_alt) > 0.1


def test_det_identity_frenet_on_benchmarks():
    # lhs = kappa tau^2 / B3^3 within 1e-6 relative wherever kappa*tau != 0
    for c in [cg.helix(1, 1), cg.helix(1.5, 0.7),
              cg.benchmark_curve("twisted_cubic")]:
        for s in np.linspace(c.domain[0] + 0.1, c.domain[1] - 0.1, 5):
            lhs, _, rhs_frenet = cg.generator_det_identity(c, s)
            assert abs(lhs - rhs_frenet) < 1e-6 * abs(rhs_frenet), (c.name, s)


# ---------------------------------------------------------------------------
# cone chart
# ---------------------------------------------------------------------------


def test_cone_coordinates_exact_points():
    h = cg.helix(1, 1)
    for s0 in [-0.5, 0.0, 0.4]:
        fr = cg.frenet_frame(h, s0)
        r, u, sig = cg.cone_coordinates(h, 2.0 * fr.B)
        assert abs(r - 2.0) < 1e-9 and abs(u) < 1e-9 and abs(sig - s0) < 1e-9
        r, u, sig = cg.cone_coordinates(h, fr.B + 0.1 * fr.T)
        assert abs(r - 1.0) < 1e-9 and abs(u - 0.1) < 1e-9 and abs(sig - s0) < 1e-9


def test_cone_roundtrip_random():
    h = cg.helix(1, 1)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        r = rng.uniform(0.5, 4.0)
        u = rng.uniform(-0.15, 0.15) * r
        sig = rng.uniform(-0.9, 0.9)
        xi = cg.cone_point(h, r, u, sig)
        r2, u2, s2 = cg.cone_coordinates(h, xi)
        assert np.linalg.norm(cg.cone_point(h, r2, u2, s2) - xi) < 1e-9 * np.linalg.norm(xi)
        assert abs(r2 - r) < 1e-8 and abs(u2 - u) < 1e-8 and abs(s2 - sig) < 1e-8


def test_cone_point_on_arrays():
    # rows (m, 3) from one frenet_frame call: exactly r B + u T of the
    # array frame, and the scalar calls' points
    h = cg.helix(1, 1)
    rng = np.random.default_rng(3)
    r, u, sig = (rng.uniform(0.5, 2.0, 9), rng.uniform(-0.2, 0.2, 9),
                 rng.uniform(-0.9, 0.9, 9))
    got = cg.cone_point(h, r, u, sig)
    fr = cg.frenet_frame(h, sig)
    assert np.array_equal(got, r[:, None] * fr.B + u[:, None] * fr.T)
    want = np.array([cg.cone_point(h, *a) for a in zip(r, u, sig)])
    assert want.shape == got.shape == (9, 3)
    assert np.allclose(got, want, rtol=0.0, atol=1e-14)


def test_outside_cone():
    h = cg.helix(1, 1)
    fr = cg.frenet_frame(h, 0.0)
    with pytest.raises(OutsideCone):
        cg.cone_coordinates(h, fr.B + 0.9 * fr.T)  # |u|/r above cap


def test_scr_gradients_formula_and_fd():
    h = cg.helix(1, 1)
    fr = cg.frenet_frame(h, 0.3)
    gr, gu, gs = cg.scr_gradients(h, fr.B)  # u=0, r=1: grad sigma = N/(-tau) = -2N
    assert np.allclose(gr, fr.B, atol=1e-9)
    assert np.allclose(gu, fr.T, atol=1e-9)
    assert np.allclose(gs, -2.0 * fr.N, atol=1e-8)
    assert abs(np.dot(gr, fr.N)) < 1e-10  # B perp N

    rng = np.random.default_rng(11)
    for _ in range(10):
        xi = cg.cone_point(h, rng.uniform(1, 3), rng.uniform(-0.1, 0.1),
                           rng.uniform(-0.7, 0.7))
        gr, gu, gs = cg.scr_gradients(h, xi)
        h_fd = 1e-5
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h_fd
            rp, up, sp = cg.cone_coordinates(h, xi + e)
            rm, um, sm = cg.cone_coordinates(h, xi - e)
            assert abs((rp - rm) / (2 * h_fd) - gr[axis]) < 1e-4
            assert abs((up - um) / (2 * h_fd) - gu[axis]) < 1e-4
            assert abs((sp - sm) / (2 * h_fd) - gs[axis]) < 1e-4 * max(1, abs(gs[axis]))


def test_singular_jacobian():
    # u*kappa - r*tau = 0 along u/r = tau/kappa = 1 for the unit helix,
    # but that ratio is outside the chart cap; construct a near-singular case
    # with a doctored floor instead.
    h = cg.helix(1, 1)
    xi = cg.cone_point(h, 1.0, 0.0, 0.1)
    with pytest.raises(SingularJacobian):
        cg.scr_gradients(h, xi, floor=10.0)


# ---------------------------------------------------------------------------
# property-based chart roundtrip
# ---------------------------------------------------------------------------


def test_cone_chart_array_roundtrip():
    # one call over draws that reach |sigma| = 0.95, near the domain's ends
    h = cg.helix(1, 1)
    rng = np.random.default_rng(3)
    r = rng.uniform(0.5, 4.0, 2000)
    u = rng.uniform(-0.15, 0.15, 2000) * r
    sig = rng.uniform(-0.95, 0.95, 2000)
    xi = np.array([cg.cone_point(h, *p) for p in zip(r, u, sig)])
    got = cg.cone_chart(h, xi)
    assert got[3].all()
    assert np.abs(sig).max() > 0.94
    for g, want in zip(got, (r, u, sig)):
        assert np.abs(g - want).max() < 1e-8


def test_cone_chart_flags_rows_outside():
    h = cg.helix(1, 1)
    fr = cg.frenet_frame(h, 0.2)
    rows = np.array([fr.B + 0.1 * fr.T,   # inside
                     fr.B + 0.3 * fr.T,   # |u|/r = 0.3 above the 0.2 cap
                     -fr.B,               # r < 0
                     2.0 * fr.B - 0.5 * fr.T,  # |u|/r = 0.25
                     fr.B - 0.19 * fr.T])  # inside, near the cap
    r, u, sig, inside = cg.cone_chart(h, rows)
    assert inside.tolist() == [True, False, False, False, True]
    assert np.isnan(r[~inside]).all()
    assert abs(sig[0] - 0.2) < 1e-12 and abs(u[4] + 0.19) < 1e-12
    for xi in rows[~inside]:
        with pytest.raises(OutsideCone):
            cg.cone_coordinates(h, xi)


def test_cone_chart_keeps_smallest_u():
    # a flat helix over one and a half turns: xi = B(0) is also nearly
    # binormal at the parameters of u = -pi and pi, where |u| is about
    # 0.1 r, so three roots are admissible and sigma = 0 (u = 0) must win
    flat = cg.helix(1.0, 0.05, domain=(-4.0, 4.0))
    xi = cg.frenet_frame(flat, 0.0).B
    r, u, sig, inside = cg.cone_chart(flat, xi)
    assert inside[0] and abs(r[0] - 1.0) < 1e-12
    assert abs(sig[0]) < 1e-12 and abs(u[0]) < 1e-12
    for side in ((-4.0, -2.0), (2.0, 4.0)):  # each rival root on its own
        r, u, sig, inside = cg.cone_chart(cg.helix(1.0, 0.05, domain=side),
                                          xi)
        assert inside[0] and abs(abs(sig[0]) - np.pi * np.hypot(1, 0.05)) \
            < 1e-12
        assert 0.09 < abs(u[0]) / r[0] < 0.11


def test_cone_chart_reconstruction_failure(monkeypatch):
    h = cg.helix(1, 1)
    xi = cg.cone_point(h, 1.3, 0.05, 0.4)
    monkeypatch.setattr(cg, "_CHART_TOL", -1.0)  # no residual passes
    with pytest.raises(NotConverged):
        cg.cone_chart(h, xi[None])
    with pytest.raises(NotConverged):
        cg.cone_coordinates(h, xi)


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.5, 4.0), ur=st.floats(-0.15, 0.15), sig=st.floats(-0.9, 0.9))
def test_chart_roundtrip_property(r, ur, sig):
    h = cg.helix(1, 1)
    xi = cg.cone_point(h, r, ur * r, sig)
    r2, u2, s2 = cg.cone_coordinates(h, xi)
    assert np.linalg.norm(cg.cone_point(h, r2, u2, s2) - xi) < 1e-9 * np.linalg.norm(xi)
