import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conewolff import curve_geometry as cg
from conewolff import symbol_decomposition as sd
from conewolff.errors import (
    GridTooLarge,
    NotConverged,
    OutsideCone,
    QuadratureFailure,
    TypeExceedsNMax,
)


HELIX = cg.helix(1.0, 1.0)


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------


def _smoothstep_everywhere(x):
    # reference form of the step: two exponentials and four selects over
    # every entry
    x = np.asarray(x, dtype=float)
    lo = np.exp(np.where(x > 0, -1.0 / np.maximum(x, 1e-300), 0.0))
    lo = np.where(x > 0, lo, 0.0)
    hi = np.exp(np.where(x < 1, -1.0 / np.maximum(1.0 - x, 1e-300), 0.0))
    hi = np.where(x < 1, hi, 0.0)
    return lo / (lo + hi)


_TINY = np.finfo(float).smallest_subnormal
_STEP_EDGES = np.array([
    0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e-300,
    -1e-300, _TINY, 7 * _TINY, -_TINY, np.finfo(float).tiny, 1e-17,
    np.inf, -np.inf, np.nan, 0.5, 2.0, -3.0])


def test_smoothstep_matches_the_exponential_everywhere_form_bit_for_bit():
    draws = np.random.default_rng(0).uniform(-1.0, 2.0, 20_000)
    x = np.concatenate([_STEP_EDGES, draws]).reshape(-1, 2)
    with np.errstate(invalid="ignore"):  # 0/0 at NaN
        want = _smoothstep_everywhere(x)
    got = sd._smoothstep(x)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64),
                          want[~nan].view(np.uint64))
    # outside (0, 1) the step is exactly 0.0 (never -0.0) or 1.0
    flat = x.ravel()
    lows = got.ravel()[flat <= 0.0].view(np.uint64)
    assert np.all(lows == np.float64(0.0).view(np.uint64))
    assert np.all(got.ravel()[flat >= 1.0] == 1.0)


def test_smoothstep_keeps_scalars_and_empty_shapes():
    for v in _STEP_EDGES[~np.isnan(_STEP_EDGES)]:
        got = sd._smoothstep(v)
        assert type(got) is np.float64
        assert got.view(np.uint64) == _smoothstep_everywhere(v).view(
            np.uint64)
    assert type(sd._smoothstep(np.nan)) is np.float64
    assert math.isnan(sd._smoothstep(np.nan))
    for shape in ((0,), (0, 3), (4, 0)):
        assert sd._smoothstep(np.empty(shape)).shape == shape


def test_eta0_plateau_and_support():
    assert sd.eta0(0.0) == 1.0
    t = np.linspace(-0.5, 0.5, 101)
    assert np.all(sd.eta0(t) == 1.0)
    t = np.linspace(1.0, 3.0, 50)
    assert np.all(sd.eta0(t) == 0.0)
    assert np.all(sd.eta0(-t) == 0.0)


def test_eta1_shell():
    assert np.abs(sd.eta1(np.linspace(-0.5, 0.5, 51))).max() == 0.0
    assert np.abs(sd.eta1(np.linspace(4.0, 9.0, 51))).max() == 0.0
    assert sd.eta1(1.5) > 0.0


def test_zeta_partition_of_unity():
    t = np.linspace(-2, 2, 801)
    assert np.abs(sd.zeta_partition(t) - 1.0).max() < 1e-12
    assert abs(sd.zeta_partition(0.3) - 1.0) < 1e-12
    assert np.all(sd.zeta(np.linspace(1.0, 2.0, 20)) == 0.0)


def test_telescoping_identity():
    x = np.linspace(0.0, 1.9, 97)
    total = sd.telescope(x, -2, 4)
    assert np.abs(total - sd.eta0(2.0**-6 * x)).max() < 1e-12


def test_cutoffs_smooth():
    # no jumps at the glue points of the piecewise construction
    for f in (sd.eta0, sd.zeta):
        t = np.linspace(-1.5, 1.5, 30001)
        v = f(t)
        assert np.abs(np.diff(v)).max() < 5e-4


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _chart_draws(rng, n):
    r = rng.uniform(0.6, 1.8, n)
    u = rng.uniform(-0.15, 0.15, n)
    sg = rng.uniform(-0.6, 0.6, n)
    s = rng.uniform(-0.5, 0.5, n)
    return r, u, sg, s


@pytest.mark.parametrize("k", [9, 12, 15])
def test_reconstruction(k):
    ak = sd.make_ak(HELIX, k)
    pieces = sd.decompose(ak)
    rng = np.random.default_rng(k)
    r, u, sg, s = _chart_draws(rng, 2000)
    fr = cg.frenet_frame(HELIX, sg)
    nm = np.linalg.norm(r[:, None] * fr.B + u[:, None] * fr.T, axis=1)
    tot = sum(p.coord_eval(s, r, u, sg, nm) for p in pieces)
    base = ak.coord_eval(s, r, u, sg, nm)
    assert tot.shape == base.shape == (2000,)
    assert np.abs(tot - base).max() < 1e-12


def test_shell_index_structural_cap():
    ak = sd.make_ak(HELIX, 12)
    with pytest.raises(ValueError):
        sd.decompose(ak, l_max=5)  # 5 > 12/3


def test_dyadic_shell_localization():
    # a point at distance exactly 2^{-2*l0} from the cone only activates
    # shells l in {l0-1, l0, l0+1}
    ak = sd.make_ak(HELIX, 15)
    A0 = sd.default_a0(HELIX)
    l0 = 3
    u = 2.0 ** (-2 * l0)
    xi = cg.cone_point(HELIX, 1.0, u, 0.0)
    nm = float(np.linalg.norm(xi))
    active = []
    for l in range(-1, 6):
        p = sd._shell_piece(ak, "a_{k,l}", l, A0)
        q = sd._shell_piece(ak, "b_{k,l}", l, A0)
        v = float(p.coord_eval(0.0, 1.0, u, 0.0, nm)) + float(
            q.coord_eval(0.0, 1.0, u, 0.0, nm))
        if v > 0:
            active.append(l)
    assert active
    assert set(active) <= {l0 - 1, l0, l0 + 1}


def test_on_cone_point_goes_to_near_piece():
    # u = 0 and s = sigma: the near-cone piece carries full weight, shells 0
    k = 12
    ak = sd.make_ak(HELIX, k)
    pieces = sd.decompose(ak)
    nm = float(np.linalg.norm(cg.cone_point(HELIX, 1.0, 0.0, 0.2)))
    vals = {p.kind if p.l is None else (p.kind, p.l):
            float(p.coord_eval(0.2, 1.0, 0.0, 0.2, nm)) for p in pieces}
    base = float(ak.coord_eval(0.2, 1.0, 0.0, 0.2, nm))
    assert vals["a~_k"] == pytest.approx(base, abs=1e-14)
    for key, v in vals.items():
        if key != "a~_k":
            assert v == 0.0


def test_a0_default_value():
    # helix(1,1): tau = 1/2 so sup 1/tau = 2
    assert sd.default_a0(HELIX) == pytest.approx(32.0, rel=1e-10)


# ---------------------------------------------------------------------------
# nu localization
# ---------------------------------------------------------------------------


def test_nu_localization_sums_back():
    ak = sd.make_ak(HELIX, 12)
    piece = sd._shell_piece(ak, "a_{k,l}", 3, sd.default_a0(HELIX))
    locs = sd.nu_localize(piece)
    rng = np.random.default_rng(1)
    r, u, sg, s = _chart_draws(rng, 300)
    for i in range(300):
        nm = float(np.linalg.norm(cg.cone_point(HELIX, r[i], u[i], sg[i])))
        tot = sum(float(q.coord_eval(s[i], r[i], u[i], sg[i], nm))
                  for q in locs)
        assert abs(tot - float(piece.coord_eval(s[i], r[i], u[i], sg[i], nm))) < 1e-12


def test_nu_window_and_overlap():
    ak = sd.make_ak(HELIX, 12)
    piece = sd._shell_piece(ak, "a_{k,l}", 3, sd.default_a0(HELIX))
    locs = sd.nu_localize(piece)
    scale = 8.0
    rng = np.random.default_rng(2)
    for s in rng.uniform(-0.45, 0.45, 50):
        live = 0
        for q in locs:
            v = float(q.coord_eval(s, 1.0, 2.0**-6, s, 1.0))
            if v != 0.0:
                assert abs(scale * s - q.nu) < 1.0
                live += 1
        assert live <= 2


def test_lnu_pair_overlap_bounded():
    # at any fixed (s, xi) the number of live (l, nu) pairs is small:
    # dyadic shells overlap in at most 2 values of l, zeta in at most 2 nu
    ak = sd.make_ak(HELIX, 15)
    A0 = sd.default_a0(HELIX)
    rng = np.random.default_rng(3)
    s_grid = np.linspace(-0.45, 0.45, 61)
    for _ in range(25):
        r = rng.uniform(0.7, 1.6)
        u = rng.uniform(-0.05, 0.05)
        sg = rng.uniform(-0.4, 0.4)
        nm = float(np.linalg.norm(cg.cone_point(HELIX, r, u, sg)))
        live = np.zeros(len(s_grid), dtype=int)
        for l in range(1, 6):
            shell = sd._shell_piece(ak, "a_{k,l}", l, A0)
            for q in sd.nu_localize(shell):
                vals = np.asarray(q.coord_eval(s_grid, r, u, sg, nm))
                live += (vals > 1e-12).astype(int)
        assert live.max() <= 6


# ---------------------------------------------------------------------------
# plate support
# ---------------------------------------------------------------------------


def test_plate_support_helix():
    ak = sd.make_ak(HELIX, 12)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "a_{k,l}", 3, sd.default_a0(HELIX)), [0])[0]
    rep = sd.verify_plate_support(piece, C=16.0, n_samples=4000, seed=0)
    assert rep["n_support"] > 100
    assert rep["required_C"] <= 16.0
    assert rep["pass"]
    assert rep["derivative_C"] <= 150.0


def test_plate_support_derivative_constant_is_converged(monkeypatch):
    # derivative_C bounds the second difference along T at t-step 1e-4
    # (the T step is 2^{-2l} per unit t) at the points it checked; a step
    # of 5 % of 2^{-2l} read 458.8 on this piece against about 8070
    ak = sd.make_ak(HELIX, 12)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "b_{k,l}", 3, sd.default_a0(HELIX)), [0])[0]
    seen = []
    real = sd._support_derivative_constant

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(sd, "_support_derivative_constant", spy)
    rep = sd.verify_plate_support(piece, n_samples=4000, seed=0)
    ((_, xis, ss, steps),) = seen
    assert np.allclose(steps[0], 2.0**-6 * cg.frenet_frame(HELIX, 0.0).T,
                       rtol=0, atol=1e-15)

    def f(pts):
        r, u, sg, ok = cg.cone_chart(HELIX, pts)
        vals = np.zeros(len(pts))
        vals[ok] = piece.coord_eval(ss[ok], r[ok], u[ok], sg[ok],
                                    np.linalg.norm(pts[ok], axis=1))
        return vals

    h = 1e-4
    step = h * steps[0]
    d2 = np.abs(f(xis + step) - 2.0 * f(xis) + f(xis - step)) / h**2
    assert d2.max() > 1000.0
    assert rep["derivative_C"] >= (1.0 - 1e-3) * d2.max()


def test_plate_support_exact_cone_point():
    fr = cg.frenet_frame(HELIX, 0.0)
    xi = fr.B
    assert abs(xi @ fr.T) < 1e-12
    assert abs(xi @ fr.N) < 1e-12
    assert abs(abs(xi @ fr.B) - 1.0) < 1e-12


def test_plate_support_requires_localized():
    ak = sd.make_ak(HELIX, 12)
    piece = sd._shell_piece(ak, "a_{k,l}", 3, sd.default_a0(HELIX))
    with pytest.raises(ValueError):
        sd.verify_plate_support(piece)


# ---------------------------------------------------------------------------
# multiplier quadrature
# ---------------------------------------------------------------------------


def test_model_phase_against_riemann():
    val, oracle, err = sd.oscillatory_selfcheck(100.0)
    assert abs(val - oracle) < 1e-8
    assert abs(abs(val) - 0.0886) < 0.01  # large-frequency asymptotic level
    assert err < 1e-10


def test_zero_piece_gives_zero():
    ak = sd.make_ak(HELIX, 12)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "a_{k,l}", 3, sd.default_a0(HELIX)), [0])[0]
    # frequency far off the cone tube
    m = sd.mk_multiplier(piece, np.array([4096.0, 0.0, 0.0]))
    assert m.value == 0.0


def test_modulus_bound_by_support_length():
    ak = sd.make_ak(HELIX, 10)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "a_{k,l}", 2, sd.default_a0(HELIX)), [0])[0]
    lo, hi = piece.s_interval()
    rng = np.random.default_rng(4)
    for _ in range(5):
        xi_hat = cg.cone_point(HELIX, rng.uniform(0.8, 1.5),
                               rng.uniform(-0.05, 0.05),
                               rng.uniform(-0.2, 0.2))
        m = sd.mk_multiplier(piece, np.ldexp(xi_hat, 10))
        assert abs(m.value) <= (hi - lo) + 1e-12


def test_quadrature_matches_dense_riemann():
    # vectorized midpoint oracle on 2^18 points vs adaptive quadrature
    ak = sd.make_ak(HELIX, 8)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "a_{k,l}", 2, sd.default_a0(HELIX)), [0])[0]
    lo, hi = piece.s_interval()
    n = 2**18
    s = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    c = math.hypot(1.0, 1.0)
    gam = np.stack([np.cos(s / c), np.sin(s / c), s / c], axis=1)
    rng = np.random.default_rng(5)
    for _ in range(6):
        xi = np.ldexp(cg.cone_point(HELIX, rng.uniform(0.9, 1.4),
                                    -rng.uniform(0.02, 0.06),
                                    rng.uniform(-0.1, 0.1)), 8)
        r, u, sg = cg.cone_coordinates(HELIX, np.ldexp(xi, -8))
        amp = np.asarray(piece.coord_eval(s, r, u, sg,
                                          float(np.linalg.norm(xi) / 2**8)))
        oracle = (amp * np.exp(-1j * gam @ xi)).mean() * (hi - lo)
        m = sd.mk_multiplier(piece, xi, tol=1e-10)
        assert abs(m.value - oracle) < 1e-8


def _scipy_multiplier(piece, xi):
    """mk_multiplier's integral by scalar scipy quad at tolerance 1e-11."""
    xin = np.ldexp(xi, -piece.k)
    r, u, sg = cg.cone_coordinates(piece.curve, xin)
    norm = float(np.linalg.norm(xin))

    def f(s):
        amp = float(piece.coord_eval(s, r, u, sg, norm))
        return amp * np.exp(-1j * float(piece.curve.eval(s) @ xi))

    a, b = piece.s_interval()
    kw = dict(epsabs=1e-11, epsrel=0.0, limit=400,
              points=[sg] if a < sg < b else None)
    re = quad(lambda s: f(s).real, a, b, **kw)[0]
    im = quad(lambda s: f(s).imag, a, b, **kw)[0]
    return complex(re, im)


@pytest.mark.parametrize("curve_name,kind,k,n_xi", [
    ("helix", "a", 12, 4), ("helix", "b", 12, 4), ("helix", "atilde", 12, 4),
    ("twisted_cubic", "a", 10, 2), ("twisted_cubic", "atilde", 10, 2),
])
def test_multiplier_matches_tight_scipy_quad(curve_name, kind, k, n_xi):
    curve = cg.benchmark_curve(curve_name)
    A0 = sd.default_a0(curve)
    piece = sd._sweep_piece(curve, kind, k, 2, A0, 0)
    hats = sd._sweep_xi_hats(curve, kind, 2, n_xi, np.random.default_rng(3),
                             A0, k=k)
    for hat in hats:
        xi = np.ldexp(hat, k)
        m = sd.mk_multiplier(piece, xi)
        assert abs(m.value) > 1e-6
        assert abs(m.value - _scipy_multiplier(piece, xi)) < 1e-10
        assert m.quadrature_error <= 2 * 1e-3 * 1e-8  # two sides of sigma


def test_panel_cap_raises_quadrature_failure(monkeypatch):
    ak = sd.make_ak(HELIX, 12)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "a_{k,l}", 2, sd.default_a0(HELIX)), [0])[0]
    xi = np.ldexp(cg.cone_point(HELIX, 1.2, -0.03, 0.05), 12)
    assert abs(sd.mk_multiplier(piece, xi).value) > 1e-6
    monkeypatch.setattr(sd, "_MAX_PANELS", 4)
    with pytest.raises(QuadratureFailure, match="4 Gauss-Legendre panels"):
        sd.mk_multiplier(piece, xi)


# ---------------------------------------------------------------------------
# row batches against the per-frequency loop
# ---------------------------------------------------------------------------


def _scalar_panel_quad(f, a, b, tol):
    """The one-interval doubling loop the row batches replaced: f(s) on
    the 16 x panels nodes of [a, b], panels 1, 2, 4 .. until two levels
    differ by at most tol."""
    prev = None
    for level in range(sd._MAX_PANELS.bit_length()):
        s, w = cg.gauss_legendre(a, b, 16, 2**level)
        value = f(s) @ w
        if prev is not None and abs(value - prev) <= tol:
            return value, abs(value - prev)
        prev = value
    raise QuadratureFailure(f"[{a}, {b}] did not converge")


def _scalar_multiplier(piece, xi, tol):
    """One frequency at a time: a cone_coordinates inversion, then
    _scalar_panel_quad on each side of sigma at tol / 1000.  Returns the
    value and the summed error estimate."""
    xin = np.ldexp(xi, -piece.k)
    a, b = piece.s_interval()
    if a >= b:
        return 0j, 0.0
    try:
        r, u, sigma = cg.cone_coordinates(piece.curve, xin)
    except OutsideCone:
        return 0j, 0.0
    norm = float(np.linalg.norm(xin))

    def integrand(s):
        amp = piece.coord_eval(s, r, u, sigma, norm)
        return amp * np.exp(-1j * (xi @ piece.curve.eval(s)))

    edges = [a, sigma, b] if a < sigma < b else [a, b]
    value, err = 0j, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _scalar_panel_quad(integrand, lo, hi, 1e-3 * tol)
        value, err = value + v, err + e
    return value, err


ROW_CURVES = {"helix(0.5,0.5)": cg.helix(0.5, 0.5), "helix(1,1)": HELIX,
              "twisted_cubic": cg.benchmark_curve("twisted_cubic")}
ROW_KS = list(range(8, 15))
ROW_N_XI = 8


@pytest.mark.parametrize("seed", [0, 3, 15])
@pytest.mark.parametrize("curve_name,kind", [
    ("helix(0.5,0.5)", "a"), ("helix(1,1)", "b"), ("helix(1,1)", "atilde"),
    ("twisted_cubic", "a"), ("twisted_cubic", "atilde"),
])
def test_row_batches_match_the_per_frequency_loop(curve_name, kind, seed):
    # every sample of every band, and the sweep's sups, against the scalar
    # loop; the gate is the two rules' summed error estimates (each rule
    # stops a side at tol / 1000 = 1e-10)
    curve = ROW_CURVES[curve_name]
    A0 = sd.default_a0(curve)
    rng = np.random.default_rng(seed)
    fixed = (None if kind == "atilde"
             else sd._sweep_xi_hats(curve, kind, 2, ROW_N_XI, rng, A0))
    rep = sd.vdc_decay_sweep(curve, kind, 2, ROW_KS, n_xi=ROW_N_XI,
                             seed=seed)
    for k, sup in zip(ROW_KS, rep["sups"]):
        hats = fixed if fixed is not None else sd._sweep_xi_hats(
            curve, kind, 2, ROW_N_XI, rng, A0, k=k)
        piece = sd._sweep_piece(curve, kind, k, 2, A0, 0)
        xi = np.ldexp(hats, k)
        value, err = sd._multiplier_rows(piece, xi, *cg.cone_chart(curve, hats),
                                         1e-7)
        ref = [_scalar_multiplier(piece, x, 1e-7) for x in xi]
        gate = err + [e for _, e in ref]
        assert gate.max() <= 4e-10
        assert np.all(np.abs(value - [v for v, _ in ref]) <= gate)
        assert abs(sup - max(abs(v) for v, _ in ref)) <= gate.max()
        assert sup > 1e-6


def test_row_batch_mixes_rows_outside_the_cone_and_beyond_the_interval():
    A0 = sd.default_a0(HELIX)
    piece = sd._sweep_piece(HELIX, "a", 8, 2, A0, 0)
    a, b = piece.s_interval()
    hats = np.array([
        cg.cone_point(HELIX, 1.2, 0.01, 0.1),  # sigma splits [a, b]
        [1.0, 0.0, 0.0],  # <xi, N(sigma)> = -cos(sigma / sqrt 2): no root
        cg.cone_point(HELIX, 1.2, 0.01, 0.4),  # sigma beyond b = 0.25
        cg.cone_point(HELIX, 1.1, 0.02, -0.05),
    ])
    r, u, sigma, inside = cg.cone_chart(HELIX, hats)
    assert list(inside) == [True, False, True, True]
    assert a < sigma[0] < b and sigma[2] > b
    xi = np.ldexp(hats, 8)
    value, err = sd._multiplier_rows(piece, xi, r, u, sigma, inside, 1e-7)
    assert value[1] == 0 and err[1] == 0
    for i in (0, 2, 3):
        ref, ref_err = _scalar_multiplier(piece, xi[i], 1e-7)
        assert abs(ref) > 1e-6
        assert abs(value[i] - ref) <= err[i] + ref_err
        assert abs(value[i] - sd.mk_multiplier(piece, xi[i], 1e-7).value) \
            <= 1e-14
    # a translate whose window misses the a_k window has an empty
    # s-interval: every row, inside or not, is 0 with error 0
    empty = sd.nu_localize(sd._shell_piece(sd.make_ak(HELIX, 8), "a_{k,l}",
                                           2, A0), [10])[0]
    lo, hi = empty.s_interval()
    assert lo >= hi
    value, err = sd._multiplier_rows(empty, xi, r, u, sigma, inside, 1e-7)
    assert not value.any() and not err.any()
    assert sd.mk_multiplier(empty, xi[0]).value == 0


def test_row_batch_names_the_interval_that_does_not_converge(monkeypatch):
    ak = sd.make_ak(HELIX, 12)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "a_{k,l}", 2, sd.default_a0(HELIX)), [0])[0]
    a, _ = piece.s_interval()
    # the first row's radius 2.5 lies beyond a_k's annulus, so its
    # integrand is 0 and both its sides converge at two panels; the second
    # is test_panel_cap_raises_quadrature_failure's oscillating sample
    hats = np.array([cg.cone_point(HELIX, 2.5, -0.03, -0.1),
                     cg.cone_point(HELIX, 1.2, -0.03, 0.05)])
    chart = cg.cone_chart(HELIX, hats)
    xi = np.ldexp(hats, 12)
    monkeypatch.setattr(sd, "_MAX_PANELS", 4)
    value, err = sd._multiplier_rows(piece, xi[:1], *(c[:1] for c in chart),
                                     1e-8)
    assert value[0] == 0 and err[0] == 0
    name = re.escape(f"on [{a:.6g}, {chart[2][1]:.6g}] did not reach")
    with pytest.raises(QuadratureFailure, match=name):
        sd._multiplier_rows(piece, xi, *chart, 1e-8)


def test_panel_quad_stops_each_interval_at_its_own_level():
    # exp(i lam s) on [0, 1] for lam = 1 and 200: the slow interval stops
    # levels before the fast one, each with its own difference, and both
    # agree with the closed form
    lam = np.array([1.0, 200.0])
    levels = []

    def f(idx, s):
        levels.append(list(idx))
        return np.exp(1j * lam[idx, None] * s)

    value, err = sd._panel_quad(f, [0.0, 0.0], [1.0, 1.0], 1e-12)
    exact = (np.exp(1j * lam) - 1.0) / (1j * lam)
    assert np.all(np.abs(value - exact) <= 1e-12)
    assert levels[0] == levels[1] == [0, 1] and levels[-1] == [1]
    assert np.all(err <= 1e-12)


@pytest.mark.parametrize("kind", ["a", "b", "atilde"])
def test_sweep_inverts_the_chart_once(kind, monkeypatch):
    # one cone_chart call over every band's samples (a and b reuse one
    # set for every k); a per-frequency loop makes one call per sample
    rows = []
    chart = cg.cone_chart

    def spy(curve, xi):
        rows.append(len(np.reshape(xi, (-1, 3))))
        return chart(curve, xi)

    monkeypatch.setattr(cg, "cone_chart", spy)
    monkeypatch.setattr(sd, "cone_chart", spy)
    sd.vdc_decay_sweep(HELIX, kind, 2, [8, 10], n_xi=2)
    assert rows == [4 if kind == "atilde" else 2]


# ---------------------------------------------------------------------------
# decay sweeps (frozen oracle slopes)
# ---------------------------------------------------------------------------


def test_sweep_a_band():
    # unit curvature-torsion helix: oscillatory regime starts inside the window
    rep = sd.vdc_decay_sweep(cg.helix(0.5, 0.5), "a", 2, [8, 10, 12, 14],
                             n_xi=8, seed=0)
    assert -0.6 <= rep["slope"] <= -0.4


def test_sweep_b_and_atilde_bands():
    rep_b = sd.vdc_decay_sweep(HELIX, "b", 2, [8, 10, 12, 14], n_xi=8, seed=0)
    assert -1.15 <= rep_b["slope"] <= -0.85
    rep_t = sd.vdc_decay_sweep(HELIX, "atilde", 2, [8, 10, 12, 14],
                               n_xi=8, seed=0)
    assert rep_t["slope"] <= -1.0 / 3.0 + 0.05


def test_sweep_twisted_cubic_one_sided():
    cub = cg.benchmark_curve("twisted_cubic")
    assert sd.vdc_decay_sweep(cub, "a", 2, [8, 10, 12, 14],
                              n_xi=8, seed=0)["slope"] <= -0.4
    assert sd.vdc_decay_sweep(cub, "b", 2, [8, 10, 12, 14],
                              n_xi=8, seed=0)["slope"] <= -0.85


def test_sweep_l_cap():
    with pytest.raises(ValueError):
        sd.vdc_decay_sweep(HELIX, "a", 3, [8, 10])


@pytest.mark.parametrize("l", [0, 5])
def test_sweep_refuses_an_unknown_kind_first(l, monkeypatch):
    # the kind is checked before the shell-index cap (l = 5 > 8/3), before
    # A0 and before any draw
    def no_a0(curve):
        raise AssertionError("default_a0 called")

    monkeypatch.setattr(sd, "default_a0", no_a0)
    with pytest.raises(ValueError, match="unknown sweep kind 'c'"):
        sd.vdc_decay_sweep(HELIX, "c", l, [8, 10])


@pytest.mark.parametrize("kind", ["a", "b", "atilde"])
def test_sweep_refuses_an_empty_k_list(kind):
    # by name, before the shell-index cap takes the smallest k
    with pytest.raises(ValueError, match="needs at least one band k"):
        sd.vdc_decay_sweep(HELIX, kind, 0, [])


@pytest.mark.parametrize("n_xi", [0, -2])
def test_sweep_refuses_n_xi_below_one(n_xi):
    # no frequency sample would leave every sup at 0 and fit a slope
    # through the 1e-300 floors
    with pytest.raises(ValueError, match="n_xi must be at least 1"):
        sd.vdc_decay_sweep(HELIX, "b", 2, [8, 10], n_xi=n_xi)


def test_sweep_one_band_has_no_slope():
    # one k determines no line: slope and constant are nan, with no
    # RankWarning from a fit through one abscissa
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sd.vdc_decay_sweep(HELIX, "b", 2, [8], n_xi=2)
    assert len(rep["sups"]) == 1 and rep["sups"][0] > 0.0
    assert math.isnan(rep["slope"]) and math.isnan(rep["constant"])


# ---------------------------------------------------------------------------
# kernel bound
# ---------------------------------------------------------------------------


def test_l1_kernel_bound_scaling():
    ak = sd.make_ak(HELIX, 12)
    A0 = sd.default_a0(HELIX)
    vals = {}
    for l in (2, 3):
        piece = sd.nu_localize(sd._shell_piece(ak, "a_{k,l}", l, A0), [0])[0]
        rep = sd.l1_kernel_bound(piece, n=32)
        vals[l] = rep["value"]
        assert rep["value"] <= 16.0 * 2.0**-l
    # doubling the shell index halves the bound within a factor of 2
    assert 1.0 <= vals[2] / vals[3] <= 4.0


def test_l1_kernel_bound_whole_domain_chart():
    # frozen values: l = 3 is unchanged from the spline chart on s +- 0.35;
    # l = 2 counts the grid rows with |sigma| > 0.35 that chart dropped
    # (it gave 1.5980854795)
    ak = sd.make_ak(HELIX, 12)
    A0 = sd.default_a0(HELIX)
    for l, want in ((2, 1.6499831923464), (3, 0.9440362713557)):
        piece = sd.nu_localize(sd._shell_piece(ak, "a_{k,l}", l, A0), [0])[0]
        got = sd.l1_kernel_bound(piece, n=32)["value"]
        assert abs(got - want) <= 1e-10 * want


def test_chart_failures_raise(monkeypatch):
    # a row whose chart fails to reconstruct is an error, not a zero
    piece = sd.nu_localize(
        sd._shell_piece(sd.make_ak(HELIX, 12), "a_{k,l}", 3,
                        sd.default_a0(HELIX)), [0])[0]
    monkeypatch.setattr(cg, "_CHART_TOL", -1.0)  # no residual passes
    with pytest.raises(NotConverged):
        sd.l1_kernel_bound(piece, n=16)
    with pytest.raises(NotConverged):
        sd.verify_plate_support(piece, n_samples=500, seed=0)


def test_l1_kernel_grid_cap():
    ak = sd.make_ak(HELIX, 12)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "a_{k,l}", 2, sd.default_a0(HELIX)), [0])[0]
    with pytest.raises(GridTooLarge):
        sd.l1_kernel_bound(piece, n=256)


def test_l1_kernel_zero_piece():
    # a nu far outside the parameter window has empty support
    ak = sd.make_ak(HELIX, 12)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "a_{k,l}", 2, sd.default_a0(HELIX)), [40])[0]
    rep = sd.l1_kernel_bound(piece, n=16)
    assert rep["value"] == 0.0


# ---------------------------------------------------------------------------
# finite-type rescaling (curve_geometry.finite_type_rescale)
# ---------------------------------------------------------------------------


def test_cubic_rescale_exact():
    cub = cg.twisted_cubic()
    dil, rc = cg.finite_type_rescale(cub, 0.0, 3)
    assert rc.exponents == (1, 2, 3)
    assert np.allclose(rc.betas, 1.0, atol=1e-12)
    for u in (-0.7, 0.3, 0.9):
        assert np.allclose(rc.eval(u), [u, u**2, u**3], atol=1e-12)
        assert rc.det(u) == pytest.approx(12.0, abs=1e-10)
        assert rc.limit_det(u) == pytest.approx(12.0, abs=1e-12)


def test_quartic_exponents():
    _, rq = cg.finite_type_rescale(cg.quartic_curve(), 0.0, 2)
    assert rq.exponents == (1, 2, 4)


def test_dilation_roundtrip():
    dil, _ = cg.finite_type_rescale(cg.quartic_curve(), 0.0, 3)
    x = np.array([3.0, -2.0, 5.0])
    assert np.allclose(dil(dil.inverse()(x)), x, atol=0)
    assert np.allclose(dil.inverse()(dil(x)), x, atol=0)


def test_det_deviation_decays_in_j():
    # non-monomial type-(1,2,4) curve: relative deviation halves with j
    def dv(s, j):
        table = {0: [s, s * s + s**3, s**4],
                 1: [1, 2 * s + 3 * s * s, 4 * s**3],
                 2: [0, 2 + 6 * s, 12 * s * s],
                 3: [0, 6.0, 24 * s], 4: [0, 0, 24.0]}
        return np.array(table.get(j, [0.0, 0.0, 0.0]), dtype=float)

    c = cg.Curve(dv, domain=(-1, 1), name="pq")
    devs = []
    for j in (0, 2, 4, 6):
        _, rc = cg.finite_type_rescale(c, 0.0, j)
        devs.append(max(abs(rc.det(u) - rc.limit_det(u)) / abs(rc.limit_det(u))
                        for u in (-0.9, -0.5, 0.5, 0.9)))
    assert devs[0] > devs[1] > devs[2] > devs[3]
    assert devs[3] < 0.05
    assert devs[1] == pytest.approx(devs[0] / 4.0, rel=1e-6)


def test_degenerate_curve_rejected():
    with pytest.raises(TypeExceedsNMax):
        cg.finite_type_rescale(cg.line(), 0.0, 1)


def test_nu_localize_labels():
    ak = sd.make_ak(HELIX, 12)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "b_{k,l}", 3, sd.default_a0(HELIX)), [1])[0]
    assert piece.kind == "b_{k,l,nu}"
    assert piece.k == 12 and piece.l == 3 and piece.nu == 1
