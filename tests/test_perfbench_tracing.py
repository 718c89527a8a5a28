"""The benchmark's tracer wraps program functions by name: a rename or an
inlined call makes its counters read 0 without failing anything.  These
tests load perfbench/tracing.py by path and check that it still sees the
functions it is meant to count."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from conewolff import curve_geometry as cg
from conewolff import operator_lab as ol
from conewolff import scale_induction as si
from conewolff import symbol_decomposition as sd
from conewolff.cone_plates import make_family

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_cone_coordinates_in_mk_multiplier():
    tracing = _load_tracing()
    helix = cg.helix(1.0, 1.0)
    piece = sd.nu_localize(
        sd._shell_piece(sd.make_ak(helix, 8), "a_{k,l}", 2,
                        sd.default_a0(helix)), [0])[0]
    xi = np.ldexp(cg.cone_point(helix, 1.2, -0.03, 0.05), 8)
    originals = {
        (cg, "cone_coordinates"): cg.cone_coordinates,
        (sd, "cone_coordinates"): sd.cone_coordinates,
        (cg, "frenet_frame"): cg.frenet_frame,
        (sd, "frenet_frame"): sd.frenet_frame,
        (sd, "mk_multiplier"): sd.mk_multiplier,
        (cg.Curve, "eval"): cg.Curve.eval,
        (cg.Curve, "derivative"): cg.Curve.derivative,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sd.mk_multiplier is not originals[(sd, "mk_multiplier")]
        sample = sd.mk_multiplier(piece, xi)
    finally:
        tracer.uninstall()
    assert sample.value != 0
    assert tracer.calls["symbol_decomposition.mk_multiplier"] == 1
    assert tracer.calls["curve_geometry.cone_coordinates"] == 1
    assert tracer.calls["curve_geometry.frenet_frame"] >= 1
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn, attr


def test_tracer_counts_transforms_in_decoupling_ratio():
    # the power sums' 1-D passes must go through operator_lab.sfft, the
    # attribute the tracer replaces
    tracing = _load_tracing()
    n, p = 128, 8.0
    fam = make_family(cg.unit_circle_generator(), 2.0**-4, 24.0, 1.0, 0.25)

    def run():
        # looks ol.decoupling_ratio up at call time, so the traced run goes
        # through the tracer's wrapper
        return ol.decoupling_ratio(fam.generator, 24.0, 1.0, p, [2.0**-4],
                                   1, "all_ones", n=n)

    untraced = run()
    originals = {
        (ol, "sfft"): ol.sfft,
        (ol, "lp_norm"): ol.lp_norm,
        (ol, "decoupling_ratio"): ol.decoupling_ratio,
        (ol, "make_family"): ol.make_family,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ol.sfft is not originals[(ol, "sfft")]
        traced = run()
    finally:
        tracer.uninstall()
    assert traced["D"] == untraced["D"]
    assert tracer.calls["operator_lab.decoupling_ratio"] == 1
    # one box per kept piece and one for their sum on the union of their
    # rows, each on its sheared layout; each box takes one pass over the
    # whole box and two per slab of its widest axis, every one through the
    # proxy
    grid = ol.Grid3(n, 8.0)
    kept = ol._disjoint_pieces(
        [ol._plate_envelope(plate, grid) for plate in fam.plates], n)
    union = tuple(map(np.concatenate, zip(*(idx for idx, _ in kept))))
    layouts = [ol._baseband(idx, n, p)
               for idx in [idx for idx, _ in kept] + [union]]

    def passes(layout):
        a, b, c = sorted(range(3), key=lambda d: -layout.rows[d].size)
        m = layout.lengths
        return 1 + 2 * math.ceil(m[a] / max(1, ol._BLOCK // (m[b] * m[c])))

    assert tracer.calls["operator_lab.fft"] == sum(map(passes, layouts)) > 0
    # the sums are _box_power_sum's: the decoupling calls no lp_norm
    assert tracer.calls["operator_lab.lp_norm"] == 0
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn, attr


def test_tracer_counts_transforms_in_curve_averages():
    # the maximal function and the smoothing probe transform through
    # operator_lab.sfft; install() also looks up mu_hat, lp_norm and
    # leggauss by name, so a rename of any of them fails here
    tracing = _load_tracing()
    helix = cg.helix(0.5, 0.5)
    grid = ol.Grid3(16, 8.0)
    rows, box = ol._band_box(grid, 2, 0)
    ts = ol.default_t_samples(5)
    k_list = [2, 3]
    n_t = 5

    def run():
        m = ol.maximal_operator(grid, rows, box, helix, ol.default_chi(helix),
                                ts)
        rep = ol.local_smoothing_probe(
            helix, ol.default_chi(helix, shrink=0.5), 6.0, 0.5, k_list,
            n=16, n_t=n_t)
        return m, rep

    untraced = run()
    originals = {name: getattr(ol, name) for name in
                 ("mu_hat", "maximal_operator", "lp_norm", "leggauss",
                  "sfft")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ol.maximal_operator is not originals["maximal_operator"]
        assert ol.sfft is not originals["sfft"]
        traced = run()
    finally:
        tracer.uninstall()
    assert np.array_equal(traced[0], untraced[0])
    assert traced[1] == untraced[1]
    assert tracer.calls["operator_lab.maximal_operator"] == 1
    # every 3-D inverse is a pruned one of three 1-D passes: one per t
    # sample; per band of the probe one FFT and one inverse FFT in t, one
    # inverse per t-plane and one of f for ||f||_p
    assert tracer.calls["operator_lab.fft"] == (
        3 * len(ts) + len(k_list) * (2 + 3 * n_t + 3))
    for name, fn in originals.items():
        assert getattr(ol, name) is fn, name


def test_tracer_counts_one_critical_s_call_per_sample_job():
    # the umu check and the census resolve all their samples' critical
    # points in one array call of scale_induction.critical_s
    tracing = _load_tracing()
    jobs = {
        "verify_umu_approximation": lambda: si.verify_umu_approximation(
            cg.helix(1.0, 1.0), n_samples=200, seed=3),
        "support_census": lambda: si.support_census(
            cg.helix(0.5, 0.5), sample_count=20, seed=3),
    }
    originals = {name: getattr(si, name) for name in
                 ("critical_s", "frenet_frame", *jobs)}
    for name, job in jobs.items():
        untraced = job()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert getattr(si, name) is not originals[name]
            traced = job()
        finally:
            tracer.uninstall()
        assert traced == untraced, name
        assert tracer.calls[f"scale_induction.{name}"] == 1
        assert tracer.calls["scale_induction.critical_s"] == 1, name
        for attr, fn in originals.items():
            assert getattr(si, attr) is fn, attr
