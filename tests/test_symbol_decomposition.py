import math

import numpy as np
import pytest
from scipy.integrate import quad

from conewolff import curve_geometry as cg
from conewolff import symbol_decomposition as sd
from conewolff.errors import GridTooLarge, QuadratureFailure, TypeExceedsNMax


HELIX = cg.helix(1.0, 1.0)


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------


def test_eta0_plateau_and_support():
    cs = sd.build_cutoffs()
    assert cs.eta0(0.0) == 1.0
    t = np.linspace(-0.5, 0.5, 101)
    assert np.all(cs.eta0(t) == 1.0)
    t = np.linspace(1.0, 3.0, 50)
    assert np.all(cs.eta0(t) == 0.0)
    assert np.all(cs.eta0(-t) == 0.0)


def test_eta1_shell():
    cs = sd.build_cutoffs()
    assert np.abs(cs.eta1(np.linspace(-0.5, 0.5, 51))).max() == 0.0
    assert np.abs(cs.eta1(np.linspace(4.0, 9.0, 51))).max() == 0.0
    assert cs.eta1(1.5) > 0.0


def test_zeta_partition_of_unity():
    cs = sd.build_cutoffs()
    t = np.linspace(-2, 2, 801)
    assert np.abs(cs.zeta_partition(t) - 1.0).max() < 1e-12
    assert abs(cs.zeta_partition(0.3) - 1.0) < 1e-12
    assert np.all(cs.zeta(np.linspace(1.0, 2.0, 20)) == 0.0)


def test_telescoping_identity():
    cs = sd.build_cutoffs()
    x = np.linspace(0.0, 1.9, 97)
    total = cs.telescope(x, -2, 4)
    assert np.abs(total - cs.eta0(2.0**-6 * x)).max() < 1e-12


def test_cutoffs_smooth():
    # no jumps at the glue points of the piecewise construction
    cs = sd.build_cutoffs()
    for f in (cs.eta0, cs.zeta):
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
    for i in range(2000):
        xi = cg.cone_point(HELIX, r[i], u[i], sg[i])
        nm = float(np.linalg.norm(xi))
        tot = sum(float(p.coord_eval(s[i], r[i], u[i], sg[i], nm))
                  for p in pieces)
        base = float(ak.coord_eval(s[i], r[i], u[i], sg[i], nm))
        assert abs(tot - base) < 1e-12


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


def test_sweep_reports():
    rep = sd.vdc_decay_sweep(HELIX, "atilde", 2, [8, 10], n_xi=2, seed=0)
    csv = sd.sweep_to_csv(rep)
    assert csv.splitlines()[0] == "k,l,sup,slope,constant"
    assert len(csv.splitlines()) == 3
    import json
    assert json.loads(sd.sweep_to_json(rep))["kind"] == "atilde"


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
# finite-type rescaling
# ---------------------------------------------------------------------------


def test_cubic_rescale_exact():
    cub = cg.twisted_cubic()
    dil, rc = sd.finite_type_rescale(cub, 0.0, 3)
    assert rc.exponents == (1, 2, 3)
    assert np.allclose(rc.betas, 1.0, atol=1e-12)
    for u in (-0.7, 0.3, 0.9):
        assert np.allclose(rc.eval(u), [u, u**2, u**3], atol=1e-12)
        assert rc.det(u) == pytest.approx(12.0, abs=1e-10)
        assert rc.limit_det(u) == pytest.approx(12.0, abs=1e-12)


def test_quartic_exponents():
    _, rq = sd.finite_type_rescale(cg.quartic_curve(), 0.0, 2)
    assert rq.exponents == (1, 2, 4)


def test_dilation_roundtrip():
    dil, _ = sd.finite_type_rescale(cg.quartic_curve(), 0.0, 3)
    x = np.array([3.0, -2.0, 5.0])
    assert np.allclose(dil(dil.inverse()(x)), x, atol=0)
    assert np.allclose(dil.inverse()(dil(x)), x, atol=0)


def test_det_deviation_decays_in_j():
    # non-monomial type-(1,2,4) curve: relative deviation halves with j
    def ev(s):
        return np.array([s, s * s + s**3, s**4])

    def dv(s, j):
        table = {1: [1, 2 * s + 3 * s * s, 4 * s**3],
                 2: [0, 2 + 6 * s, 12 * s * s],
                 3: [0, 6.0, 24 * s], 4: [0, 0, 24.0]}
        return np.array(table.get(j, [0.0, 0.0, 0.0]), dtype=float)

    c = cg.Curve(ev, dv, domain=(-1, 1), analytic_order=4, name="pq")
    devs = []
    for j in (0, 2, 4, 6):
        _, rc = sd.finite_type_rescale(c, 0.0, j)
        devs.append(max(abs(rc.det(u) - rc.limit_det(u)) / abs(rc.limit_det(u))
                        for u in (-0.9, -0.5, 0.5, 0.9)))
    assert devs[0] > devs[1] > devs[2] > devs[3]
    assert devs[3] < 0.05
    assert devs[1] == pytest.approx(devs[0] / 4.0, rel=1e-6)


def test_degenerate_curve_rejected():
    with pytest.raises(TypeExceedsNMax):
        sd.finite_type_rescale(cg.line(), 0.0, 1)


def test_piece_json():
    import json

    ak = sd.make_ak(HELIX, 12)
    piece = sd.nu_localize(
        sd._shell_piece(ak, "b_{k,l}", 3, sd.default_a0(HELIX)), [1])[0]
    data = json.loads(piece.to_json())
    assert data["kind"] == "b_{k,l,nu}"
    assert data["k"] == 12 and data["l"] == 3 and data["nu"] == 1
