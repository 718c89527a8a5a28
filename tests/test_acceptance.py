"""End-to-end acceptance checks for the toolkit.

Each test exercises one headline guarantee at full scale and asserts its
stated runtime budget.  Frozen reference values (pinned to the seeded,
deterministic pipelines) guard against silent regressions.
"""

import time

import numpy as np
import pytest

from conewolff import cone_plates as cp
from conewolff import curve_geometry as cg
from conewolff import operator_lab as ol
from conewolff import scale_induction as si
from conewolff import symbol_decomposition as sd
from conewolff.cone_plates import make_family


HELIX = cg.helix(1.0, 1.0)
CIRCLE = cg.unit_circle_generator()


class _Budget:
    """Context manager asserting a wall-clock budget in seconds."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, (
                f"budget exceeded: {elapsed:.1f}s > {self.seconds}s")


# ---------------------------------------------------------------------------
# 1. closed-form curvature and torsion of the circular helix
# ---------------------------------------------------------------------------


def test_acc01_helix_frenet_closed_forms():
    rng = np.random.default_rng(1)
    with _Budget(1.0):
        for _ in range(20):
            a = rng.uniform(0.3, 3.0)
            b = rng.uniform(0.2, 2.0)
            fr = cg.frenet_frame(cg.helix(a, b), rng.uniform(-0.5, 0.5))
            assert abs(fr.kappa - a / (a * a + b * b)) < 1e-8
            assert abs(fr.tau - b / (a * a + b * b)) < 1e-8


# ---------------------------------------------------------------------------
# 2. generator determinant: kappa tau^2 / B3^3 matches, the kappa tau / B3^3
#    variant is flagged as mismatching by the same computation
# ---------------------------------------------------------------------------


def test_acc02_generator_determinant_identity():
    curves = [cg.helix(1, 1), cg.helix(1.5, 0.7),
              cg.benchmark_curve("twisted_cubic")]
    with _Budget(1.0):
        for c in curves:
            for s in np.linspace(c.domain[0] + 0.1, c.domain[1] - 0.1, 5):
                lhs, rhs_alt, rhs_frenet = cg.generator_det_identity(c, s)
                assert abs(lhs - rhs_frenet) < 1e-6 * abs(rhs_frenet), (
                    c.name, s)
        # the kappa*tau/B3^3 candidate disagrees with the direct determinant
        lhs, rhs_alt, _ = cg.generator_det_identity(cg.helix(1, 1), 0.2)
        assert abs(rhs_alt - np.sqrt(2) / 2) < 1e-12
        assert abs(lhs - rhs_alt) > 0.1


# ---------------------------------------------------------------------------
# 3. cone chart inversion and gradient formulas
# ---------------------------------------------------------------------------


def test_acc03_cone_chart_roundtrip_and_gradients():
    rng = np.random.default_rng(7)
    with _Budget(5.0):
        for _ in range(1000):
            r = rng.uniform(0.5, 4.0)
            u = rng.uniform(-0.15, 0.15) * r
            sig = rng.uniform(-0.9, 0.9)
            xi = cg.cone_point(HELIX, r, u, sig)
            r2, u2, s2 = cg.cone_coordinates(HELIX, xi)
            assert np.linalg.norm(cg.cone_point(HELIX, r2, u2, s2) - xi) \
                < 1e-9 * np.linalg.norm(xi)

        for _ in range(10):
            xi = cg.cone_point(HELIX, rng.uniform(1, 3),
                               rng.uniform(-0.1, 0.1), rng.uniform(-0.7, 0.7))
            gr, gu, gs = cg.scr_gradients(HELIX, xi)
            h = 1e-5
            for axis in range(3):
                e = np.zeros(3)
                e[axis] = h
                rp, up, sp = cg.cone_coordinates(HELIX, xi + e)
                rm, um, sm = cg.cone_coordinates(HELIX, xi - e)
                assert abs((rp - rm) / (2 * h) - gr[axis]) < 1e-4
                assert abs((up - um) / (2 * h) - gu[axis]) < 1e-4
                assert abs((sp - sm) / (2 * h) - gs[axis]) \
                    < 1e-4 * max(1, abs(gs[axis]))


# ---------------------------------------------------------------------------
# 4. the rescaling and tilt maps preserve the light cone
# ---------------------------------------------------------------------------


def test_acc04_light_cone_invariance_of_maps():
    rng = np.random.default_rng(3)
    with _Budget(5.0):
        for th in (1.0, 0.5, 0.25, 0.125):
            L = cp.parabolic_rescale_step1(th)
            al = rng.uniform(-np.pi, np.pi, 25000)
            r = rng.uniform(0.5, 2.0, 25000)
            pts = np.stack([r * np.cos(al), r * np.sin(al), r], axis=1)
            y = pts @ L.T
            res = np.abs(y[:, 0] ** 2 + y[:, 1] ** 2 - y[:, 2] ** 2)
            assert (res < 1e-10 * np.linalg.norm(y, axis=1) ** 2).all()

        a, b, rho = 0.5, -0.4, 0.9
        L = cp.tilt_normalize(a, b, rho, K=4)
        al = rng.uniform(-np.pi, np.pi, 2000)
        lam = rng.uniform(0.5, 2.0, 2000)
        xi = lam[:, None] * np.stack(
            [a + rho * np.cos(al), b + rho * np.sin(al), np.ones_like(al)],
            axis=1)
        y = xi @ L.T
        res = np.abs(y[:, 0] ** 2 + y[:, 1] ** 2 - y[:, 2] ** 2)
        assert (res < 1e-10).all()


# ---------------------------------------------------------------------------
# 5. osculating circle approximates the generator to third order
# ---------------------------------------------------------------------------


def test_acc05_osculating_deviation_rate():
    with _Budget(10.0):
        sweep = cp.osculating_deviation_sweep(
            cg.parabola_generator(), 0.0, [2.0**-k for k in range(6, 13)])
        assert sweep["slope"] >= 0.95
        assert sweep["fitted_constant"] <= 1.0


# ---------------------------------------------------------------------------
# 6. exponent and radius schedules
# ---------------------------------------------------------------------------


def test_acc06_schedules():
    with _Budget(1.0):
        sch = cp.exponent_schedule(74.0, 0.1)
        assert sch.n_star == 8
        fp = sch.fixed_point
        for bn, bn1 in zip(sch.betas, sch.betas[1:]):
            assert abs(bn1 - ((2 / 3) * bn + fp / 3)) < 1e-14

        rs = si.r_schedule(20, 0.3, 10.0)
        assert rs.hypothesis_ok
        # the growth hypothesis in explicit form: r1 >= 100 M r0^{3/2}
        for l0, l1 in zip(rs.log2_r0, rs.log2_r1):
            assert l1 >= np.log2(100.0 * 10.0) + 1.5 * l0 - 1e-9
        assert rs.terminal_lower_ok
        # the terminal upper bound needs the geometric step to land inside a
        # ~0.6% window of -k/2; k=20 misses it while k=4437 hits it exactly
        assert not rs.terminal_upper_ok
        rs_big = si.r_schedule(4437, 0.3, 10.0)
        assert rs_big.hypothesis_ok
        assert rs_big.terminal_lower_ok and rs_big.terminal_upper_ok


# ---------------------------------------------------------------------------
# 7. dyadic symbol decomposition reconstructs the base symbol
# ---------------------------------------------------------------------------


def test_acc07_decomposition_reconstruction_and_overlap():
    with _Budget(30.0):
        for k in (9, 12, 15):
            ak = sd.make_ak(HELIX, k)
            pieces = sd.decompose(ak)
            rng = np.random.default_rng(k)
            n = 10_000
            r = rng.uniform(0.6, 1.8, n)
            u = rng.uniform(-0.15, 0.15, n)
            sg = rng.uniform(-0.6, 0.6, n)
            s = rng.uniform(-0.5, 0.5, n)
            nm = np.array([np.linalg.norm(cg.cone_point(HELIX, r[i], u[i],
                                                        sg[i]))
                           for i in range(n)])
            tot = sum(np.asarray(p.coord_eval(s, r, u, sg, nm))
                      for p in pieces)
            base = np.asarray(ak.coord_eval(s, r, u, sg, nm))
            assert float(np.max(np.abs(tot - base))) < 1e-12

        # parameter localization: at most 2 windows live at any s
        ak = sd.make_ak(HELIX, 12)
        piece = sd._shell_piece(ak, "a_{k,l}", 3, sd.default_a0(HELIX))
        locs = sd.nu_localize(piece)
        rng = np.random.default_rng(2)
        for s in rng.uniform(-0.45, 0.45, 50):
            live = 0
            for q in locs:
                if float(q.coord_eval(s, 1.0, 2.0**-6, s, 1.0)) != 0.0:
                    assert abs(8.0 * s - q.nu) < 1.0
                    live += 1
            assert live <= 2


# ---------------------------------------------------------------------------
# 8. oscillatory decay rates of the multiplier pieces
# ---------------------------------------------------------------------------


def test_acc08_multiplier_decay_rates():
    with _Budget(300.0):
        rep_a = sd.vdc_decay_sweep(cg.helix(0.5, 0.5), "a", 2,
                                   [8, 10, 12, 14], n_xi=8, seed=0)
        assert -0.6 <= rep_a["slope"] <= -0.4
        rep_b = sd.vdc_decay_sweep(HELIX, "b", 2, [8, 10, 12, 14],
                                   n_xi=8, seed=0)
        assert -1.15 <= rep_b["slope"] <= -0.85
        rep_t = sd.vdc_decay_sweep(HELIX, "atilde", 2, [8, 10, 12, 14],
                                   n_xi=8, seed=0)
        assert rep_t["slope"] <= -0.28


# ---------------------------------------------------------------------------
# 9. first-order critical-phase approximation with explicit constants
# ---------------------------------------------------------------------------


def test_acc09_critical_phase_approximation_constants():
    with _Budget(30.0):
        report = si.verify_umu_approximation(HELIX, r0=2.0**-4,
                                             n_samples=10_000, M=10.0,
                                             seed=0)
        assert report["pass"]
        assert report["max_ratio_one"] <= 0.05
        assert report["max_ratio_two"] <= 0.01


# ---------------------------------------------------------------------------
# 10. two-scale support census: multiplicity, vanishing, plate membership
# ---------------------------------------------------------------------------


def test_acc10_support_census():
    with _Budget(120.0):
        report = si.support_census(cg.helix(0.5, 0.5), sample_count=300,
                                   seed=0)
        assert report["multiplicity_ok"]
        assert report["max_multiplicity_a"] <= 75
        assert report["max_multiplicity_b"] <= 75
        assert report["a_vanishing_ok"]
        assert report["b_vanishing_ok"]
        assert 2.0 ** report["max_n_a"] * report["r1"] <= 2**4 * report["r0"]
        assert 2.0 ** report["max_n_b"] * report["r1"] <= 2**7 * report["r0"]
        assert report["plate_checked"] > 1000
        assert report["plate_failures"] == 0


# ---------------------------------------------------------------------------
# 11. plate decoupling ratios on the light cone
# ---------------------------------------------------------------------------


def test_acc11_decoupling_experiment():
    with _Budget(1200.0):
        fam1 = make_family(CIRCLE, 2.0**-4, 64.0, 0.1, 0.25)
        assert len(fam1.plates) == 1
        r1 = ol.decoupling_ratio(CIRCLE, 64.0, 0.1, 8.0, [2.0**-4], 1,
                                 "all_ones", n=256)
        assert abs(r1["D"][0] - 1.0) <= 1e-12

        r2 = ol.decoupling_ratio(CIRCLE, 64.0, 1.0, 2.0, [2.0**-4, 2.0**-6],
                                 2, "random_sign", n=256)
        for d in r2["D"]:
            assert abs(d - 1.0) <= 1e-8

        deltas = [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7]
        rep = ol.decoupling_ratio(CIRCLE, 64.0, 1.0, 8.0, deltas, 8,
                                  "all_ones", n=256, seed=0)
        norm = np.asarray(rep["normalized"])
        assert rep["band_ratio"] <= 4.0
        assert norm.max() / norm.min() == pytest.approx(rep["band_ratio"])
        # frozen reference values for this seeded run
        assert rep["band_ratio"] == pytest.approx(1.2120705, rel=1e-5)
        assert np.allclose(rep["D"], [1.7800767, 1.9338574, 2.2885923,
                                      2.4699225], rtol=1e-5)


# ---------------------------------------------------------------------------
# 12. exact operator identities
# ---------------------------------------------------------------------------


def test_acc12_operator_identities():
    with _Budget(10.0):
        g = ol.Grid3(32, 8.0)
        chi = ol.default_chi(HELIX)
        # the real part of a band field, and A_t by _averages on the box of
        # the whole lattice
        rows, box = ol._band_box(g, 3, 11)
        fhat = np.zeros((g.n,) * 3, dtype=complex)
        fhat[np.ix_(*rows)] = box
        f = np.fft.ifftn(fhat).real
        lattice = [np.arange(g.n)] * 3

        def average(phys):
            return np.fft.ifftn(next(ol._averages(
                g, lattice, np.fft.fftn(phys), HELIX, chi, [1.3])))

        a_then_shift = np.roll(average(f), (5, -3, 2), axis=(0, 1, 2))
        shift_then_a = average(np.roll(f, (5, -3, 2), axis=(0, 1, 2)))
        scale = np.max(np.abs(a_then_shift))
        assert np.max(np.abs(a_then_shift - shift_then_a)) <= 1e-12 * scale

        g16 = ol.Grid3(16, 8.0)
        rows, f1 = ol._band_box(g16, 2, 1)
        _, f2 = ol._band_box(g16, 2, 2)
        ts = [1.0, 1.25, 1.5]
        m_sum = ol.maximal_operator(g16, rows, f1 + f2, HELIX, chi, ts)
        m_sep = (ol.maximal_operator(g16, rows, f1, HELIX, chi, ts)
                 + ol.maximal_operator(g16, rows, f2, HELIX, chi, ts))
        assert np.all(m_sum <= m_sep + 1e-12)

        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100_000):
            a, b = rng.uniform(1.0, 2.0, 2)
            s = rng.uniform(-1.0, 1.0)
            xi = rng.normal(size=3)
            lhs, rhs = ol.helix_phase_identity(a, b, s, xi)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 13. per-band regularity ratios are uniform at alpha = 1/p
# ---------------------------------------------------------------------------


def test_acc13_sobolev_uniformity_sweep():
    with _Budget(600.0):
        chi = ol.default_chi(HELIX, shrink=0.5)
        rep = ol.sobolev_sweep(HELIX, chi, 40.0, 1.0 / 40.0, [4, 5, 6, 7],
                               n=128, box=3.0, seed=0)
        assert rep["slope"] <= 0.05
        # frozen reference slope for this seeded run
        assert rep["slope"] == pytest.approx(-0.5020097, rel=1e-4)
