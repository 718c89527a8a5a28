"""Tests for the two-scale refinement machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewolff import scale_induction as si
from conewolff.curve_geometry import (Curve, Dilation, finite_type_rescale,
                                      frenet_frame, helix, line,
                                      quartic_curve, twisted_cubic, vec)
from conewolff.errors import (
    DivByZeroGamma2,
    GridTooLarge,
    NotConverged,
    ScheduleEmpty,
)
from conewolff.symbol_decomposition import eta0, eta1, zeta

HELIX = helix(0.5, 0.5)  # arclength, curvature = torsion = 1


# ---------------------------------------------------------------------------
# shear / dilation
# ---------------------------------------------------------------------------


def test_shear_basis_action_exact():
    for s, r in ((0.0, 0.125), (0.3, 0.05), (-0.4, 0.4)):
        sh = si.ShearDilation(HELIX, s, r)
        assert sh.basis_residual() <= 1e-14


def test_shear_l1_action_generic_point():
    sh = si.ShearDilation(HELIX, 0.2, 0.1)
    gam = HELIX.eval(0.2)
    Xi = np.array([0.7, -0.4, 1.1, 0.9])
    out = sh.L1 @ Xi
    assert np.allclose(out[:3], Xi[:3], rtol=0, atol=0)
    assert abs(out[3] - (Xi[3] - gam @ Xi[:3])) <= 1e-15


def test_shear_composition_and_inverse():
    sh = si.ShearDilation(HELIX, -0.1, 0.2)
    assert np.allclose(sh.L, sh.L1 @ sh.L2, atol=1e-15)
    rng = np.random.default_rng(0)
    Xi = rng.normal(size=(20, 4))
    back = sh.inverse_apply(sh.apply(Xi))
    assert np.max(np.abs(back - Xi)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(s=st.floats(-0.5, 0.5), r=st.floats(0.05, 0.5))
def test_shear_roundtrip_property(s, r):
    sh = si.ShearDilation(HELIX, s, r)
    Xi = np.array([0.3, -1.0, 0.8, -0.2])
    assert np.max(np.abs(sh.inverse_apply(sh.apply(Xi)) - Xi)) <= 1e-10


def test_pullback_bump_support_box():
    k, r, s = 10, 2.0**-3, 0.1
    sh = si.ShearDilation(HELIX, s, r)
    m = si.pullback_bump(sh, k)
    gam = HELIX.eval(s)
    g1 = HELIX.derivative(s, 1)
    rng = np.random.default_rng(1)
    pts = si.sample_symbol_support(sh, k, 200, rng)
    inside = 0
    for row in pts:
        xi, tau = row[:3], row[3]
        val = float(m(xi, tau))
        if val > 0:
            inside += 1
            nrm = np.linalg.norm(xi)
            assert 2.0 ** (k - 1) <= nrm <= 2.0 ** (k + 1)
            assert abs(g1 @ xi) <= 2.0 ** (k + 3) * r
            assert abs(tau + gam @ xi) <= 2.0 ** (k + 4) * r**2
    assert inside > 100
    # far outside the annulus the bump vanishes
    assert float(m(np.array([1.0, 0.0, 0.0]), 0.0)) == 0.0


def test_pullback_bump_derivative_bounds():
    # finite-difference Hormander-type constant, frozen ceiling;
    # the constant is invariant under (k, r) changes
    sh1 = si.ShearDilation(HELIX, 0.1, 2.0**-3)
    c1 = si.hormander_constant(sh1, si.pullback_bump(sh1, 10), 10,
                               n_samples=40)
    sh2 = si.ShearDilation(HELIX, 0.1, 2.0**-4)
    c2 = si.hormander_constant(sh2, si.pullback_bump(sh2, 12), 12,
                               n_samples=40)
    assert c1 <= 800.0
    assert c2 <= 800.0


# ---------------------------------------------------------------------------
# U and its approximation
# ---------------------------------------------------------------------------


def test_u_mu_perpendicular_reduces():
    s_mu = 0.2
    fr_xi = HELIX.derivative(s_mu, 1)
    # xi orthogonal to the tangent: quadratic term vanishes
    xi = np.cross(fr_xi, np.array([0.0, 0.0, 1.0]))
    xi /= np.linalg.norm(xi)
    gam = HELIX.eval(s_mu)
    tau = 0.7
    val = si.u_mu(HELIX, s_mu, xi, tau)
    assert abs(val - (tau + gam @ xi)) <= 1e-12
    # and with tau = -<gamma, xi> the value is zero
    assert abs(si.u_mu(HELIX, s_mu, xi, -float(gam @ xi))) <= 1e-12


def test_u_mu_transcription():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s_mu = rng.uniform(-0.5, 0.5)
        xi = rng.normal(size=3)
        tau = rng.normal()
        g2 = float(HELIX.derivative(s_mu, 2) @ xi)
        if abs(g2) < 1e-3:
            continue
        direct = (tau + float(HELIX.eval(s_mu) @ xi)
                  - 0.5 * float(HELIX.derivative(s_mu, 1) @ xi) ** 2 / g2)
        assert abs(si.u_mu(HELIX, s_mu, xi, tau) - direct) <= 1e-12


def test_u_mu_divzero():
    # xi orthogonal to the second derivative direction
    d2 = HELIX.derivative(0.0, 2)
    xi = np.cross(d2, np.array([0.0, 1.0, 0.0]))
    xi /= np.linalg.norm(xi)
    assert abs(d2 @ xi) < 1e-12
    with pytest.raises(DivByZeroGamma2):
        si.u_mu(HELIX, 0.0, xi, 0.3)


def test_omega_map_rows_and_rank():
    for s_mu in (-0.3, 0.0, 0.4):
        om = si.OmegaMap(HELIX, s_mu)
        xi = np.array([0.4, -0.8, 1.2])
        tau = 0.6
        w = om.apply(xi, tau)
        assert abs(w[0] - HELIX.derivative(s_mu, 1) @ xi) <= 1e-14
        assert abs(w[1] - (tau + HELIX.eval(s_mu) @ xi)) <= 1e-14
        assert abs(w[2] - HELIX.derivative(s_mu, 2) @ xi) <= 1e-14
        assert om.smallest_singular_value() > 0.1


def test_umu_approximation_explicit_constants():
    report = si.verify_umu_approximation(HELIX, r0=2.0**-4,
                                         n_samples=10_000, M=10.0, seed=0)
    assert report["pass"]
    # frozen margins: 0.0204 and 0.0015 observed
    assert report["max_ratio_one"] <= 0.05
    assert report["max_ratio_two"] <= 0.01


def test_umu_approximation_frozen_draws():
    # seed 0 pins the draw order (s_star, psi, rho, second s, tau offset)
    report = si.verify_umu_approximation(helix(1.0, 1.0), r0=2.0**-4,
                                         n_samples=10_000, M=10.0, seed=0)
    assert report["max_ratio_one"] == pytest.approx(0.008491529497151727,
                                                    rel=1e-9)
    assert report["max_ratio_two"] == pytest.approx(0.002228728550169398,
                                                    rel=1e-9)


@pytest.mark.parametrize("n_samples", [0, -1])
def test_umu_approximation_refuses_no_samples(n_samples):
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        si.verify_umu_approximation(HELIX, n_samples=n_samples)


def test_umu_approximation_quadratic_exact():
    # planar quadratic normal form: the first-order identity is exact
    def dv(s, j):
        x = (s, 1.0, 0.0, 0.0, 0.0, 0.0)[j]
        y = (s**2 / 2.0, s, 1.0, 0.0, 0.0, 0.0)[j]
        return vec(s, x, y, 0.0)

    quad = Curve(dv, domain=(-1.0, 1.0), name="quadratic")
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi = np.array([rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.5),
                       rng.normal()])
        s = rng.uniform(-0.4, 0.4)
        scr = si.critical_s(quad, xi)
        g1 = float(quad.derivative(s, 1) @ xi)
        g2 = float(quad.derivative(s, 2) @ xi)
        assert abs((s - scr) - g1 / g2) <= 1e-12


def test_critical_s_no_root():
    xi = np.array([0.0, 0.0, 1.0])  # pairs with constant sign for the helix
    with pytest.raises(Exception):
        si.critical_s(HELIX, xi)


def _two_root_frequency():
    # on helix(1,1) this xi in span{N(0.2), B(0.2)} makes <gamma', xi>
    # vanish at s = 0.2 and again at s = -0.4767
    fr = frenet_frame(helix(1.0, 1.0), 0.2)
    return np.cos(1.4) * fr.N + np.sin(1.4) * fr.B


def test_critical_s_first_root():
    h11 = helix(1.0, 1.0)
    xi = _two_root_frequency()
    first = si.critical_s(h11, xi)
    assert isinstance(first, float)
    assert abs(first + 0.4767) <= 1e-4
    assert abs(si.critical_s(h11, xi, lo=0.0) - 0.2) <= 1e-14
    # row form: per-row windows, the same roots as the scalar form
    roots = si.critical_s(h11, np.stack([xi, xi, xi]),
                          lo=np.array([-1.0, 0.0, -1.0]), hi=1.0)
    assert roots.shape == (3,)
    assert np.abs(roots[[0, 2]] - first).max() <= 1e-14
    assert abs(roots[1] - 0.2) <= 1e-14


def test_critical_s_names_row_without_root():
    rows = np.stack([_two_root_frequency(), [0.0, 0.0, 1.0],
                     [0.0, 0.0, -1.0]])
    with pytest.raises(NotConverged, match=r"\(row 1\)"):
        si.critical_s(helix(1.0, 1.0), rows)


# ---------------------------------------------------------------------------
# plate membership and census
# ---------------------------------------------------------------------------


def test_pl_membership_matches_manual_check():
    om = si.OmegaMap(HELIX, 0.0)
    rng = np.random.default_rng(4)
    n, r1, k = 2, 2.0**-23, 0
    for _ in range(50):
        xi = rng.normal(size=3)
        tau = rng.normal() * 1e-6
        s_nnu = 2.0**n * r1 * rng.integers(-3, 4)
        abar = 0.0 - s_nnu
        u1 = np.array([abar, abar**2 / 2, 1.0])
        u2 = np.array([1.0, abar, 0.0])
        u3 = np.array([-abar, 1.0, abar**2 / 2])
        w = om.apply(xi, tau)
        manual = (abs(u1 @ w) <= 2.0 ** (k + 2)
                  and abs(u2 @ (w - w[2] * u1)) <= 2.0 ** (k + 4) * 2**n * r1
                  and abs(u3 @ w) <= 2.0 ** (k + 3) * 4**n * r1**2)
        assert si.pl_plate_membership(om, s_nnu, n, r1, k, xi, tau) == manual


def test_pl_membership_alpha_zero_reduction():
    # at coincident anchors the three tests act on the plain rows
    om = si.OmegaMap(HELIX, 0.0)
    n, r1 = 1, 2.0**-23
    xi = 1e-9 * np.array([0.3, -0.2, 0.1])
    tau = -float(HELIX.eval(0.0) @ xi)  # second row ~ 0
    assert si.pl_plate_membership(om, 0.0, n, r1, 0, xi, tau)
    # a large second row violates the third inequality at alpha-bar = 0
    tau_bad = 1.0
    assert not si.pl_plate_membership(om, 0.0, n, r1, 0, xi, tau_bad)


def test_support_census_thresholds_and_multiplicity():
    report = si.support_census(helix(0.5, 0.5), sample_count=300, seed=0)
    assert report["a_vanishing_ok"]
    assert report["b_vanishing_ok"]
    assert report["multiplicity_ok"]
    # frozen: both maxima observed at 16 with this seed
    assert 1 <= report["max_multiplicity_a"] <= 30
    assert 1 <= report["max_multiplicity_b"] <= 30
    assert report["reconstruction_error"] <= 1e-12
    assert report["plate_checked"] > 1000
    assert report["plate_failures"] == 0
    # vanishing thresholds in explicit form
    assert 2.0 ** report["max_n_a"] * report["r1"] <= 16 * report["r0"]
    assert 2.0 ** report["max_n_b"] * report["r1"] <= 128 * report["r0"]


def test_support_census_frozen_draws():
    # seed 0 pins the draw order (s_star, psi, rho, tau offset per sample)
    report = si.support_census(helix(0.5, 0.5), sample_count=300, seed=0)
    assert report["plate_checked"] == 17285
    assert report["max_n_a"] == 3
    assert report["max_n_b"] == 5
    assert report["max_multiplicity_a"] == 16
    assert report["max_multiplicity_b"] == 16
    assert report["plate_failures"] == 0


def test_support_census_preconditions():
    with pytest.raises(ValueError):
        si.support_census(HELIX, r0=2.0**-22, r1=2.0**-40)
    with pytest.raises(ValueError):
        si.support_census(HELIX, r0=2.0**-23, r1=2.0**-22)



@pytest.mark.parametrize("sample_count", [0, -3])
def test_support_census_refuses_no_samples(sample_count):
    with pytest.raises(ValueError, match="sample_count must be at least 1"):
        si.support_census(HELIX, sample_count=sample_count)


@pytest.mark.parametrize("name", ["r0", "r1"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0,
                                 -2.0**-23])
def test_support_census_refuses_bad_radii(name, bad):
    # before the r1 <= r0 and r1 >= 100 M r0^(3/2) comparisons, which a NaN
    # passes
    radii = {"r0": 2.0**-22, "r1": 2.0**-23, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite and "
                                         f"positive"):
        si.support_census(HELIX, sample_count=4, **radii)


def _census_every_window(curve, sample_count, seed, r0=2.0**-22,
                         r1=2.0**-23):
    # reference census: the loop over every window nu of the s-grid's range,
    # each acting on whole (samples, s-grid) arrays
    s_star, psi, rho, dtau = si._uniform_draws(
        seed, sample_count, (-3.0 * r0, 3.0 * r0), (-np.pi / 3, np.pi / 3),
        (0.55, 1.9), (-1, 1))
    xi = si._critical_frequencies(curve, s_star, psi, rho)
    tau = -si._dot3(curve.eval(s_star), xi.T) + dtau * 8.0 * r0**2
    scr = si.critical_s(curve, xi, s_star - 10 * r0, s_star + 10 * r0)
    s_mu_list = r0 * np.arange(-4, 5)
    s_grid = np.linspace(s_mu_list[0] - 2.2 * r0, s_mu_list[-1] + 2.2 * r0,
                         165)
    tol = si._CENSUS_TOL
    max_n = [-1, -1]
    mult = np.zeros((2, sample_count, len(s_grid)), dtype=int)
    recon_err, checked, failures = 0.0, 0, 0
    for s_mu in s_mu_list:
        omega = si.OmegaMap(curve, float(s_mu))
        scalar = (eta0(xi @ curve.derivative(s_mu, 1) / (8.0 * r0))
                  * eta0((tau + xi @ curve.eval(s_mu)) / (16.0 * r0**2))
                  * eta0((np.linalg.norm(xi, axis=1) - 1.25) / 0.75))
        live = np.nonzero(scalar >= tol)[0]
        x, t = xi[live], tau[live]
        amu = scalar[live, None] * eta0((s_grid - s_mu) / (2.0 * r0))
        u_hat = si.u_mu(curve, s_mu, x, t)[:, None]
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
            split_n = 1.0 if n == 0 else split
            mass = amu * shell
            skip = np.max(mass, axis=1, initial=0.0) < tol
            kept = np.where(skip[:, None], 0.0, mass)
            recon += mass - kept
            if skip.all():
                continue
            for nu in range(int(np.floor(win.min())) - 1,
                            int(np.ceil(win.max())) + 2):
                zf = zeta(win - nu)
                pieces = (kept * split_n * zf, kept * (1.0 - split_n) * zf)
                recon += pieces[0] + pieces[1]
                outside = ~si.pl_plate_membership(omega, 2.0**n * r1 * nu,
                                                  n, r1, 0, x, t)
                for i, piece in enumerate(pieces):
                    hit = piece > tol
                    rows = hit.any(axis=1)
                    if rows.any():
                        mult[i, live] += hit
                        max_n[i] = max(max_n[i], n)
                        checked += int(rows.sum())
                        failures += int((rows & outside).sum())
        recon_err = max(recon_err,
                        float(np.max(np.abs(recon - amu), initial=0.0)))
    return {"max_n_a": max_n[0], "max_n_b": max_n[1],
            "max_multiplicity_a": int(mult[0].max()),
            "max_multiplicity_b": int(mult[1].max()),
            "reconstruction_error": recon_err,
            "plate_checked": checked, "plate_failures": failures}


_CENSUS_CURVES = {"helix(0.5,0.5)": helix(0.5, 0.5),
                  "helix(1,1)": helix(1.0, 1.0),
                  "twisted_cubic": twisted_cubic(),
                  "quartic": quartic_curve()}


@pytest.mark.parametrize("sample_count", [4, 20, 300])
@pytest.mark.parametrize("seed", [0, 3, 7, 15])
@pytest.mark.parametrize("curve_name", sorted(_CENSUS_CURVES))
def test_support_census_matches_every_window_loop(curve_name, seed,
                                                  sample_count):
    # the census visits each grid point's two live translates; the loop over
    # every window must give the same report, bit for bit
    curve = _CENSUS_CURVES[curve_name]
    report = si.support_census(curve, sample_count=sample_count, seed=seed)
    want = _census_every_window(curve, sample_count, seed)
    got = {key: report[key] for key in want}
    assert got == want
    assert (got["reconstruction_error"].hex()
            == want["reconstruction_error"].hex())
    assert got["plate_checked"] > 0


# ---------------------------------------------------------------------------
# radius schedule
# ---------------------------------------------------------------------------


def test_r_schedule_reference_point():
    rs = si.r_schedule(20, 0.3, 10.0)
    assert abs(rs.eps1 - 0.003) <= 1e-15
    assert rs.hypothesis_ok
    assert rs.terminal_lower_ok
    assert rs.N >= 0 and rs.capped and not rs.descending
    assert math.isfinite(rs.c_over_eps1)
    # exact exponent algebra: r1(n) / r0(n)^{3/2} = 100^{(3/2)^{n+1}}
    for n in range(rs.N + 1):
        gap = rs.log2_r1[n] - 1.5 * rs.log2_r0[n]
        assert abs(gap - 1.5 ** (n + 1) * math.log2(100.0)) <= 1e-6 * (1 + gap)
    # n = 0 sits exactly at the hypothesis boundary when M = 10
    assert abs((rs.log2_r1[0] - 1.5 * rs.log2_r0[0])
               - math.log2(100.0 * 10.0)) <= 1e-12


def test_r_schedule_descending_regime():
    # k chosen so the last geometric step lands inside the narrow
    # terminal window [2^{-k/2+2k*eps1} bracket]; nearby k only satisfy
    # the lower bound
    rs = si.r_schedule(4437, 0.3, 10.0)
    assert rs.descending and not rs.capped
    assert rs.terminal_lower_ok and rs.terminal_upper_ok
    rs2 = si.r_schedule(4000, 0.3, 10.0)
    assert rs2.descending and rs2.terminal_lower_ok
    assert not rs2.terminal_upper_ok
    assert all(rs.log2_r1[n + 1] < rs.log2_r1[n] for n in range(rs.N))
    assert rs.hypothesis_ok
    assert rs.N * rs.eps1 <= 2.0  # N <= C / eps1 with small C


def test_r_schedule_empty():
    with pytest.raises(ScheduleEmpty):
        si.r_schedule(100, 3.0, 10.0)


def test_r_schedule_validation():
    with pytest.raises(ValueError):
        si.r_schedule(5, 0.3, 10.0)


# ---------------------------------------------------------------------------
# kernel decay probe
# ---------------------------------------------------------------------------


def test_kernel_probe_scales_match_targets():
    rep = si.kernel_decay_probe(HELIX, 10, 2.0**-3)
    for name in ("gamma1", "perp", "time"):
        ratio = rep["scales"][name] / rep["targets"][name]
        assert abs(math.log2(ratio)) <= 0.2
    # frozen: l1 constant 6.70 observed; band asserts k,r-independence below
    assert 3.0 <= rep["l1_bound"] <= 15.0
    assert rep["sup_center"] > 0


def test_kernel_probe_doubling_r():
    rep1 = si.kernel_decay_probe(HELIX, 10, 2.0**-3)
    rep2 = si.kernel_decay_probe(HELIX, 10, 2.0**-4)
    ratio = rep1["scales"]["gamma1"] / rep2["scales"]["gamma1"]
    assert abs(ratio - 2.0) <= 0.4
    assert abs(rep1["l1_bound"] - rep2["l1_bound"]) <= 0.2 * rep1["l1_bound"]


def test_kernel_probe_l1_bound_is_a_shape_constant():
    # z = W y turns each factor's transform mass into the unit bump's, so
    # the bound cannot move with k or r, down to the last bit
    a = si.kernel_decay_probe(HELIX, 10, 2.0**-3, t_nodes=9, n_ray=9)
    b = si.kernel_decay_probe(HELIX, 8, 0.3, t_nodes=9, n_ray=9)
    assert a["l1_bound"] == b["l1_bound"]


def test_kernel_decay_sweep_exponents():
    sw = si.kernel_decay_sweep(HELIX, [8, 10, 12],
                               [2.0**-3, 2.0**-4, 2.0**-5])
    assert abs(sw["r_slopes"]["gamma1"] - 1.0) <= 0.2
    assert abs(sw["r_slopes"]["perp"] - 0.0) <= 0.2
    assert abs(sw["r_slopes"]["time"] - 2.0) <= 0.2  # frozen: 1.95
    for name in ("gamma1", "perp", "time"):
        assert abs(sw["k_slopes"][name] - 1.0) <= 0.2


def test_kernel_probe_grid_too_large():
    with pytest.raises(GridTooLarge):
        si.kernel_decay_probe(HELIX, 10, 2.0**-3, nodes=2**21)


def test_kernel_probe_degenerate_point():
    # a curve through the origin with tangent along the position direction
    with pytest.raises(ValueError):
        si.kernel_decay_probe(line(), 10, 2.0**-3, s=0.5)


# ---------------------------------------------------------------------------
# section rescaling
# ---------------------------------------------------------------------------


def _section(l, nu):
    """The (l, nu) section rescaling of HELIX at s_nu = nu 2^-l."""
    return finite_type_rescale(HELIX, nu * 2.0**-l, l)[1]


def test_rescale_l0_isometry():
    rc = _section(0, 0)
    for u in (-0.5, 0.1, 0.8):
        for j in range(1, 6):
            lhs = np.linalg.norm(rc.derivative(u, j))
            rhs = np.linalg.norm(HELIX.derivative(u, j))
            assert abs(lhs - rhs) <= 1e-10 * (1 + rhs)


def test_delta_dilation_roundtrip():
    # the (l, nu) section rescaling's dilation (2^l, 2^2l, 2^3l) on rows
    rng = np.random.default_rng(5)
    eta = rng.normal(size=(10, 3))
    dil = Dilation(3, (1, 2, 3))
    assert np.array_equal(dil.inverse()(dil(eta)), eta)


def test_rescale_curvature_band():
    for l in (2, 3, 4, 5):
        for nu in (-1, 0, 1):
            band = si.curvature_band(_section(l, nu), n_samples=400,
                                     seed=10 * l + nu)
            assert band["min_ratio"] >= 1.0 / 8.0
            assert band["max_ratio"] <= 8.0


def test_rescale_c5_uniform_in_l():
    norms = [_section(l, 0).c5_norm() for l in (2, 3, 4, 5)]
    assert max(norms) / min(norms) <= 4.0
    assert max(norms) <= 8.0  # frozen: ~1.5 observed


# frozen from the section rescaling built as the Frenet rotation (T, N, B)
# at s_nu followed by the dilation (2^l, 2^2l, 2^3l): c5_norm at nu = 0 for
# l = 2..5, and per l the curvature band (min, max) at nu = -1, 0, 1
_C5_FROZEN = [1.4638874872020344, 1.4909070961179922, 1.4977227101605584,
              1.4994304233073625]
_BAND_FROZEN = {
    2: [(0.22245123512260678, 1.1881195488752727),
        (0.2018900030180491, 1.2081923155010197),
        (0.23999865579064467, 1.24300704860361)],
    3: [(0.20776387128705023, 1.2795069251908462),
        (0.20662324897167145, 1.2167653326221544),
        (0.2150512955342245, 1.2094236635844842)],
    4: [(0.23349225263128287, 1.2483008225485814),
        (0.20968391971402284, 1.3103332131845964),
        (0.21308037882698294, 1.2264835049125133)],
    5: [(0.23326319872365434, 1.2798195934326877),
        (0.2144488866679849, 1.2507085581269486),
        (0.2164899790576842, 1.2805986077013634)],
}


def test_rescale_frozen_c5_and_band():
    norms = [_section(l, 0).c5_norm() for l in (2, 3, 4, 5)]
    np.testing.assert_allclose(norms, _C5_FROZEN, rtol=1e-12, atol=0)
    for l, frozen in _BAND_FROZEN.items():
        for nu, (lo, hi) in zip((-1, 0, 1), frozen):
            band = si.curvature_band(_section(l, nu), n_samples=400,
                                     seed=10 * l + nu)
            assert band["min_ratio"] == pytest.approx(lo, rel=1e-12, abs=0)
            assert band["max_ratio"] == pytest.approx(hi, rel=1e-12, abs=0)
