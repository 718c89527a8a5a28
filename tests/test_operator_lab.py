"""Tests for the FFT field engine and averaging-operator experiments."""

import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.integrate import quad

from conewolff import curve_geometry as cg
from conewolff import operator_lab as ol
from conewolff import symbol_decomposition as sd
from conewolff.cone_plates import make_family, make_plate, plate_contains
from conewolff.curve_geometry import helix, unit_circle_generator
from conewolff.errors import (
    GridTooLarge,
    PlateUnresolved,
    QuadratureFailure,
    WraparoundRisk,
)

HELIX = helix(0.5, 0.5)
CIRCLE = unit_circle_generator()


def _dc_box(grid, c):
    # the constant field c as (rows, box): its one Fourier coefficient,
    # c n^3 at xi = 0
    return [np.array([0])] * 3, np.full((1, 1, 1), c * grid.n**3,
                                        dtype=complex)


def _scatter(grid, rows, box):
    # the n^3 frequency array that is `box` on `rows` and 0 off them
    fhat = np.zeros((grid.n,) * 3, dtype=complex)
    fhat[np.ix_(*rows)] = box
    return fhat


def _dense_average(grid, fhat, curve, chi, t):
    # the dense reference for A_t f-hat on an n^3 frequency array: mu_hat
    # at every support point, times f-hat there
    mask = fhat != 0
    at = np.zeros_like(fhat)
    at[mask] = ol.mu_hat(curve, chi, t, grid.freq_points(mask)) * fhat[mask]
    return at


def _dense_lp_norm(grid, phys, p):
    # the Riemann sum over every point of the physical grid
    return (grid.cell_volume * np.sum(np.abs(phys) ** p)) ** (1.0 / p)


def _random_plate_field(plate, grid, seed):
    # a plate bump with seeded random phases from the decoupling's one
    # draw, _phases: (index triple, values)
    idx, env = ol._plate_envelope(plate, grid)
    return idx, env * ol._phases(seed, env.size)


# ---------------------------------------------------------------------------
# grid / field plumbing
# ---------------------------------------------------------------------------


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        ol.Grid3(48)
    g = ol.Grid3(16, 8.0)
    assert g.spacing == 0.5
    ax = g.freq_axis()
    assert np.isclose(ax[1], 2.0 * np.pi / 8.0)
    assert ax.size == 16


def test_lp_norm_constant_and_holder():
    g = ol.Grid3(16, 8.0)
    c = _dc_box(g, 2.0 - 1.0j)
    vol = 8.0**3
    for p in (1.0, 2.0, 3.0, 8.0):
        want = abs(2.0 - 1.0j) * vol ** (1.0 / p)
        assert abs(ol.lp_norm(g, *c, p) - want) <= 1e-10
    rng = np.random.default_rng(4)
    f = rng.normal(size=(g.n,) * 3) + 1j * rng.normal(size=(g.n,) * 3)
    fhat = ol.sfft.fftn(f)
    lattice = [np.arange(g.n)] * 3
    # normalized norms nondecreasing in p on a probability-normalized box
    vals = [ol.lp_norm(g, lattice, fhat, p) * vol ** (-1.0 / p)
            for p in (2.0, 4.0, 6.0, 8.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    l2 = _dense_lp_norm(g, f, 2.0)
    assert abs(ol.lp_norm(g, lattice, fhat, 2.0) - l2) <= 1e-10 * l2


# ---------------------------------------------------------------------------
# plate fields and decoupling
# ---------------------------------------------------------------------------


def test_random_plate_field_support_and_seeding():
    grid = ol.Grid3(256, 8.0)
    plate = make_plate(CIRCLE, 0.0, 2.0**-4, 64.0)
    idx, f = _random_plate_field(plate, grid, 0)
    pts = np.stack([grid.freq_axis()[i] for i in idx], axis=1)
    assert pts.shape[0] > 1000
    assert all(plate_contains(plate, xi) for xi in pts[::29])
    _, g2 = _random_plate_field(plate, grid, 1)
    # same envelope, different phases
    l2 = np.linalg.norm(f)
    assert abs(l2 - np.linalg.norm(g2)) <= 0.05 * l2
    assert np.max(np.abs(f - g2)) > 0
    # deterministic per seed
    _, again = _random_plate_field(plate, grid, 0)
    assert np.array_equal(f, again)


def test_random_plate_field_unresolved():
    grid = ol.Grid3(32, 8.0)
    plate = make_plate(CIRCLE, 0.0, 2.0**-8, 4.0)
    with pytest.raises(PlateUnresolved):
        _random_plate_field(plate, grid, 0)


def test_decoupling_single_plate_and_p2():
    fam1 = make_family(CIRCLE, 2.0**-4, 64.0, 0.1, 0.25)
    assert len(fam1.plates) == 1
    r1 = ol.decoupling_ratio(CIRCLE, 64.0, 0.1, 8.0, [2.0**-4], 1,
                             "all_ones", n=256)
    assert abs(r1["D"][0] - 1.0) <= 1e-12

    r2 = ol.decoupling_ratio(CIRCLE, 64.0, 1.0, 2.0, [2.0**-4, 2.0**-6], 2,
                             "random_sign", n=256)
    for d in r2["D"]:
        assert abs(d - 1.0) <= 1e-8


@pytest.mark.parametrize("deltas, trials, match", [
    ([], 1, "delta"), ([2.0**-4], 0, "trials"), ([2.0**-4], -1, "trials")])
def test_decoupling_experiment_refuses_empty_runs(deltas, trials, match):
    # no delta or no trial measures nothing: refused, not reported as D = 0
    with pytest.raises(ValueError, match=match):
        ol.decoupling_ratio(CIRCLE, 24.0, 1.0, 8.0, deltas, trials)


@pytest.mark.parametrize("change, match", [
    ({"p": math.nan}, "p=nan"), ({"p": math.inf}, "p=inf"),
    ({"p": 1.5}, "p=1.5"), ({"coefficient_mode": "ones"}, "mode 'ones'"),
    ({"deltas": []}, "delta"), ({"trials": 0}, "trials=0")])
def test_decoupling_checks_its_parameters_first(monkeypatch, change, match):
    # p = nan used to run and report D = [0.0]; every refusal comes before
    # the grid, the memory check or any plate
    def untouched(*args, **kwargs):
        raise AssertionError("built before the parameter checks")

    for name in ("Grid3", "_require_memory", "make_family"):
        monkeypatch.setattr(ol, name, untouched)
    kw = dict(generator=CIRCLE, lam=24.0, theta=1.0, p=8.0,
              deltas=[2.0**-4], trials=1, n=64)
    kw.update(change)
    with pytest.raises(ValueError, match=match):
        ol.decoupling_ratio(**kw)


@pytest.mark.parametrize("build, match", [
    (lambda: ol.Grid3(16, math.nan), "box=nan"),
    (lambda: ol.Grid3(16, math.inf), "box=inf"),
    (lambda: ol.lp_norm(ol.Grid3(16), *_dc_box(ol.Grid3(16), 1.0), math.nan),
     "p=nan"),
    (lambda: ol.lp_norm(ol.Grid3(16), *_dc_box(ol.Grid3(16), 1.0), math.inf),
     "p=inf"),
    (lambda: ol.lp_norm(ol.Grid3(16), *_dc_box(ol.Grid3(16), 1.0), 0.5),
     "p=0.5")])
def test_grid_and_norm_refuse_non_finite(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_decoupling_global_phase_invariance():
    # D uses |.|-norms only, so multiplying every coefficient by a phase
    # cannot change it; all-ones twice must also agree bit-for-bit
    # lam=64 plates overflow an n=128 lattice
    with pytest.raises(PlateUnresolved):
        ol.decoupling_ratio(CIRCLE, 64.0, 1.0, 4.0, [2.0**-4], 1, "all_ones",
                            n=128, seed=3)
    args = (CIRCLE, 24.0, 1.0, 4.0, [2.0**-4], 1, "all_ones")
    r1 = ol.decoupling_ratio(*args, n=128, seed=3)
    r2 = ol.decoupling_ratio(*args, n=128, seed=3)
    assert r1["D"] == r2["D"]


def _boxes(n, seed):
    """Seeded row sets: short runs that wrap past index 0 into the negative
    frequencies, a whole axis, and a single point."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        rows = []
        for _ in range(3):
            start = int(rng.integers(n - 6, n))
            rows.append(np.unique((start + np.arange(rng.integers(3, 12)))
                                  % n))
        yield rows
    yield [np.arange(n), np.array([3, 4]), np.array([0, 1, n - 1])]
    yield [np.array([5]), np.array([n - 2]), np.array([0])]


@pytest.mark.parametrize("n", [32, 64])
def test_sup_abs_slabs_match_full_ifftn(n):
    # one slab spans the 32^3 grid; the 64^3 grid runs in four slabs
    assert ol._planes(n, n, n) == {32: 32, 64: 16}[n]
    # the seeded boxes, and one whose widest axis is the last, so that its
    # slabs land in a transposed view of the maximum
    boxes = list(_boxes(n, n)) + [
        [np.array([2]), np.array([0, 1, n - 1]), np.arange(n)]]
    # the seeded boxes wrap: their rows hold both index 0 and index n - 1
    assert any(r[0] == 0 and r[-1] == n - 1
               for rows in boxes[:3] for r in rows)
    g = ol.Grid3(n)
    rng = np.random.default_rng(n)
    for rows in boxes:
        shape = [r.size for r in rows]
        pair = [rng.normal(size=shape) + 1j * rng.normal(size=shape)
                for _ in range(2)]
        want = np.maximum(*(np.abs(ol.sfft.ifftn(_scatter(g, rows, box)))
                            for box in pair))
        got = ol._sup_abs(g, rows, pair)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def _box_entries(rows, rng):
    """Every point of the box on `rows`, as an index triple, with seeded
    complex values."""
    idx = tuple(m.ravel() for m in np.meshgrid(*rows, indexing="ij"))
    size = idx[0].size
    return idx, rng.normal(size=size) + 1j * rng.normal(size=size)


def _cyclic_span(r, n):
    # the shortest run of rows, modulo n, holding all of r (by brute force)
    return min(int(np.max((r - s) % n)) + 1 for s in r)


def _axis_baseband(idx, n, p):
    # _baseband with its shear fixed to the identity: the layout on the
    # lattice axes, in axis order, that the sheared one is compared with
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ol, "_shear_matrix",
                   lambda m: np.eye(3, dtype=np.int64))
        return ol._baseband(idx, n, p)


def _moved(idx, n):
    # the entries as _shear_matrix takes them: each axis moved by _move
    return np.stack([ol._move(i, n)[0] for i in idx])


@pytest.mark.parametrize("p", [4.0, 8.0])
def test_baseband_power_sum_is_the_full_grid_sum(p):
    n = 64
    rng = np.random.default_rng(int(p))
    # the seeded boxes, and one whose rows leave gaps inside their spans
    boxes = list(_boxes(n, 7)) + [
        [np.array([1, 4, 5, 9]), np.array([0, 2, n - 3]), np.array([7, 8])]]
    # rows that wrap past index 0, and a whole axis, whose span needs
    # (p/2)(n - 1) + 1 > n points: there the sum stays on M = n
    assert any(r[0] == 0 and r[-1] == n - 1
               for rows in boxes[:3] for r in rows)
    lengths, shortened = set(), 0
    for rows in boxes:
        idx, vals = _box_entries(rows, rng)
        full = np.zeros((n,) * 3, dtype=complex)
        full[idx] = vals
        want = np.sum(np.abs(ol.sfft.ifftn(full)) ** p)
        spans = [_cyclic_span(r, n) for r in rows]
        bound = [int(p // 2) * (s - 1) + 1 for s in spans]
        layout = _axis_baseband(idx, n, p)
        assert list(layout.lengths) == [
            min(n, ol._fast_len(b)) for b in bound]
        lengths.update(layout.lengths)
        assert abs(layout.power_sum(vals) - want) <= 1e-12 * want
        # the sheared layout: the same sum, on a grid no larger
        sheared = ol._baseband(idx, n, p)
        assert abs(sheared.power_sum(vals) - want) <= 1e-12 * want
        assert math.prod(sheared.lengths) <= math.prod(layout.lengths)
        # one point fewer than the bound on the widest reduced axis aliases
        # a coefficient of |f|^p onto its mean: the sum moves, so the check
        # above can fail
        d = max((d for d in range(3) if 1 < bound[d] < n),
                key=lambda d: bound[d], default=None)
        if d is None:
            continue
        short = list(layout.lengths)
        short[d] = bound[d] - 1
        box = np.zeros([r.size for r in layout.rows], dtype=complex)
        box[layout.at] = vals
        got = (ol._box_power_sum(layout.rows, box, p, short)
               * (math.prod(short) / n**3) ** (p - 1.0))
        assert abs(got - want) > 1e-6 * want
        shortened += 1
    assert n in lengths and min(lengths - {1}) < n / 2 and shortened >= 3


def test_fast_len_matches_scipy_next_fast_len():
    # scipy's next_fast_len, a test-only reference, sized the baseband
    # grids before _fast_len: the same lengths keep the layouts and sums
    m = range(1, 4097)
    assert [ol._fast_len(x) for x in m] == [next_fast_len(x) for x in m]


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_baseband_power_sum_odd_p_and_parseval(p):
    # p = 3 has no reduced grid: every axis keeps n points; p = 2 runs no
    # transform (Parseval on the box) and matches the transform's sum
    n = 32
    rng = np.random.default_rng(5)
    for rows in _boxes(n, 3):
        idx, vals = _box_entries(rows, rng)
        full = np.zeros((n,) * 3, dtype=complex)
        full[idx] = vals
        want = np.sum(np.abs(ol.sfft.ifftn(full)) ** p)
        layout = ol._baseband(idx, n, p)
        if p == 3.0:
            assert layout.lengths == (n, n, n) and layout.scale == 1.0
        assert abs(layout.power_sum(vals) - want) <= 1e-12 * want


def _kernel_bytes(rows, n):
    """Bytes of the arrays _box_power_sum holds on the n^3 grid: the
    first-pass stage, the two complex slab buffers and the float one, each
    of min(slab, n) planes."""
    _, rb, rc = sorted(r.size for r in rows)[::-1]
    planes = min(max(1, ol._BLOCK // n**2), n)
    return 16 * (n * rb * rc + planes * n * rc + planes * n * n) \
        + 8 * planes * n * n


@pytest.mark.parametrize("p", [5.0, 6.0, 40.0])
def test_box_power_sum_even_powers_by_squaring(p, monkeypatch):
    # rows with three or more runs and inner gaps on every axis, wrapping
    # past index 0: the slab buffers are filled a run at a time and zeroed
    # on the gaps only, so a gap left unzeroed keeps the previous slab's
    # values (n = 64 runs 4 slabs of 16 planes); at n = 32 a slab of
    # _BLOCK elements exceeds the grid and the buffers hold its 32 planes
    boxes = {64: [np.array([0, 1, 2, 9, 10, 33, 62, 63]),
                  np.array([0, 4, 5, 6, 20, 63]),
                  np.array([0, 2, 30, 31, 32, 60, 63])],
             32: [np.array([0, 1, 7, 8, 9, 31]),
                  np.array([0, 2, 3, 30, 31]),
                  np.array([0, 5, 6, 16, 29, 30, 31])]}
    assert 32**3 < ol._BLOCK < 64**3

    def no_power(*args, **kwargs):
        raise AssertionError("np.power called for an even integer p")

    rng = np.random.default_rng(int(p))
    for n, rows in boxes.items():
        for r in rows:
            assert r[0] == 0 and r[-1] == n - 1
            assert np.count_nonzero(np.diff(r) > 1) >= 2
        box = rng.normal(size=[r.size for r in rows]) \
            + 1j * rng.normal(size=[r.size for r in rows])
        full = np.zeros((n,) * 3, dtype=complex)
        full[np.ix_(*rows)] = box
        want = np.sum(np.abs(ol.sfft.ifftn(full)) ** p)
        if p % 2.0 == 0.0:
            monkeypatch.setattr(np, "power", no_power)
        tracemalloc.start()
        try:
            got = ol._box_power_sum(rows, box, p, (n,) * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        assert abs(got - want) <= 1e-12 * want
        # the stage and three buffers allocated once per call: a float
        # slab allocated per slab, or buffers of _BLOCK elements at n = 32,
        # would add 128 KB or more
        assert peak <= _kernel_bytes(rows, n) + 2**16


def _slab_entries(n, base, steps, counts, rng):
    """The distinct lattice points base + sum_i s_i steps[i] mod n,
    0 <= s_i < counts[i], as an index triple, with seeded complex values."""
    s = np.meshgrid(*map(np.arange, counts), indexing="ij")
    pts = np.asarray(base)[:, None] + sum(
        np.outer(step, si.ravel()) for step, si in zip(steps, s))
    idx = tuple(np.unique(pts % n, axis=1))
    size = idx[0].size
    return idx, rng.normal(size=size) + 1j * rng.normal(size=size)


@pytest.mark.parametrize("p", [4.0, 8.0])
def test_sheared_baseband_sum_is_the_full_grid_sum(p):
    n = 64
    rng = np.random.default_rng(int(p) + 1)
    # diagonal supports: a thin slab whose rows wrap past index 0 on two
    # axes, and a long thick line whose sheared span needs more than n
    # points on one axis, so that axis stays on M = n
    supports = [_slab_entries(n, (60, 62, 5), [(1, 1, 0), (0, 1, 1),
                                               (1, -1, 1)], (18, 6, 2), rng),
                _slab_entries(n, (3, 10, 30), [(1, 1, -1), (0, 1, 1)],
                              (40, 3), rng)]
    assert sum(r.min() == 0 and r.max() == n - 1
               for r in supports[0][0]) == 2
    bounds = []
    for idx, vals in supports:
        full = np.zeros((n,) * 3, dtype=complex)
        full[idx] = vals
        want = np.sum(np.abs(ol.sfft.ifftn(full)) ** p)
        u = ol._shear_matrix(_moved(idx, n))
        assert abs(round(np.linalg.det(u))) == 1
        assert not np.array_equal(u, np.eye(3))
        sheared = (u @ np.stack(idx)) % n
        layout = ol._baseband(idx, n, p)
        assert abs(layout.power_sum(vals) - want) <= 1e-12 * want
        assert (math.prod(layout.lengths)
                < math.prod(_axis_baseband(idx, n, p).lengths))
        spans = [_cyclic_span(np.unique(r), n) for r in sheared]
        assert list(layout.lengths) == [
            min(n, ol._fast_len(int(p // 2) * (s - 1) + 1))
            for s in spans]
        bounds += [int(p // 2) * (s - 1) + 1 for s in spans]
        # a det-2 map in the shear's place is no permutation of the grid:
        # doubling the widest row moves the sum, so the check above can
        # fail (a row too narrow for |f|^p to reach frequency n/2 along
        # it would not)
        u2 = u.copy()
        u2[int(np.argmax(spans))] *= 2
        moved = tuple((u2 @ np.stack(idx)) % n)
        got = ol._baseband(moved, n, p).power_sum(vals)
        assert abs(got - want) > 1e-6 * want
    assert max(bounds) > n


def test_shear_falls_back_to_the_identity(monkeypatch):
    # entries on a line along c = (9, -3, 2) = (1, 3, 0) x (0, 2, 3): both
    # rows are narrowest (one value each), but no axis completes them to
    # det +-1 (c's entries are 9, -3 and 2), so with only these candidates
    # the search returns the identity; the full set completes the pair
    n = 64
    idx = tuple((np.array([[5], [60], [7]])
                 + np.outer([9, -3, 2], np.arange(6))) % n)
    monkeypatch.setattr(ol, "_SHEAR_ROWS", np.array(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 3, 0], [0, 2, 3]]))
    assert np.array_equal(ol._shear_matrix(_moved(idx, n)), np.eye(3))
    monkeypatch.undo()
    u = ol._shear_matrix(_moved(idx, n))
    assert abs(round(np.linalg.det(u))) == 1
    assert sorted(np.ptp(u @ np.stack(idx), axis=1)) == [0, 0, 5]
    empty = (np.array([], dtype=int),) * 3
    assert np.array_equal(ol._shear_matrix(_moved(empty, n)), np.eye(3))
    assert ol._baseband(empty, n, 8.0).lengths == (1, 1, 1)


def test_shear_shrinks_the_decouple_grid_pieces():
    # the decouple-grid benchmark's pieces and unions, and the same family
    # on the parabola: the pieces' sheared grids hold at least 4x fewer
    # points than the axis-aligned ones in total (7.6x on the circle, 4.2x
    # on the parabola measured), no piece's grid grows and every union's
    # shrinks (for example 128 x 128 x 98 -> 96 x 98 x 105 on the circle
    # at delta = 2^-4)
    n, p = 128, 8.0
    grid = ol.Grid3(n, 8.0)
    for generator in (CIRCLE, cg.parabola_generator()):
        plain = fitted = 0
        for delta in (2.0**-4, 2.0**-5, 2.0**-6):
            fam = make_family(generator, delta, 24.0, 1.0, math.sqrt(delta))
            pieces = [idx for idx, _ in ol._disjoint_pieces(
                [ol._plate_envelope(plate, grid) for plate in fam.plates], n)]
            union = tuple(map(np.concatenate, zip(*pieces)))
            for idx in pieces + [union]:
                u = ol._shear_matrix(_moved(idx, n))
                assert abs(round(np.linalg.det(u))) == 1
                axes = math.prod(_axis_baseband(idx, n, p).lengths)
                sheared = math.prod(ol._baseband(idx, n, p).lengths)
                assert sheared < axes if idx is union else sheared <= axes
                if idx is not union:
                    plain += axes
                    fitted += sheared
        assert 4 * fitted <= plain


def _owner_reference(pieces, n):
    """The full-grid rule: plates in order, a strictly larger envelope
    takes a lattice point over from the plates before it."""
    best_env = np.zeros((n,) * 3)
    owner = np.full((n,) * 3, -1)
    for pi, (idx, env) in enumerate(pieces):
        better = env > best_env[idx]
        sel = tuple(ix[better] for ix in idx)
        best_env[sel] = env[better]
        owner[sel] = pi
    return [(tuple(ix[owner[idx] == pi] for ix in idx), env[owner[idx] == pi])
            for pi, (idx, env) in enumerate(pieces)]


def _assert_same_pieces(got, want):
    assert len(got) == len(want)
    for (gi, ge), (wi, we) in zip(got, want):
        for a, b in zip(gi, wi):
            assert np.array_equal(a, b)
        assert np.array_equal(ge, we)


@pytest.mark.parametrize("delta", [2.0**-4, 2.0**-5, 2.0**-6])
def test_disjoint_pieces_match_full_grid_rule(delta):
    grid = ol.Grid3(128, 8.0)
    fam = make_family(CIRCLE, delta, 24.0, 1.0, math.sqrt(delta))
    pieces = [ol._plate_envelope(plate, grid) for plate in fam.plates]
    got = ol._disjoint_pieces(pieces, grid.n)
    # the plates overlap, so the rule has work to do
    assert sum(e.size for _, e in got) < sum(e.size for _, e in pieces)
    _assert_same_pieces(got, _owner_reference(pieces, grid.n))


def test_disjoint_pieces_ties_and_zero_envelope():
    n = 8
    a = (np.array([1, 2, 3]), np.array([0, 0, 0]), np.array([5, 5, 5]))
    b = (np.array([2, 3, 4]), np.array([0, 0, 0]), np.array([5, 5, 5]))
    pieces = [(a, np.array([0.5, 0.25, 0.0])),
              (b, np.array([0.25, 0.75, 0.0]))]
    got = ol._disjoint_pieces(pieces, n)
    # point 2: equal envelopes, the earlier piece keeps it; point 3: the
    # larger envelope wins; point 4: envelope 0 belongs to no piece
    assert [list(idx[0]) for idx, _ in got] == [[1, 2], [3]]
    assert [list(env) for _, env in got] == [[0.5, 0.25], [0.75]]
    _assert_same_pieces(got, _owner_reference(pieces, n))


def test_decoupling_refuses_grid_beyond_memory(monkeypatch):
    def untouched(*args, **kwargs):
        raise AssertionError("built before the memory check")

    monkeypatch.setattr(ol, "make_family", untouched)
    monkeypatch.setattr(ol, "_plate_envelope", untouched)
    with pytest.raises(GridTooLarge, match="4096"):
        ol.decoupling_ratio(CIRCLE, 24.0, 1.0, 8.0, [2.0**-4], 1, "all_ones",
                            n=4096)


def test_decoupling_memory_guard_counts_two_complex_grids(monkeypatch):
    # the guard counts the sum's box on the union of the pieces' rows and
    # the stage of its first pass, each at most one complex128 n^3 grid:
    # 2 * 16 * 64^3 bytes of memory hold them, one byte less does not, and
    # not a band field's complex128 pair on a box that fills the grid
    args = (CIRCLE, 8.0, 1.0, 8.0, [2.0**-4], 1, "all_ones")
    want = ol.decoupling_ratio(*args, n=64)
    need = 2 * 16 * 64**3
    phys = {"SC_PHYS_PAGES": need, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(ol, "os", types.SimpleNamespace(
        sysconf=phys.__getitem__))
    assert ol.decoupling_ratio(*args, n=64)["D"] == want["D"]
    phys["SC_PHYS_PAGES"] = need - 1
    with pytest.raises(GridTooLarge, match=str(need)):
        ol.decoupling_ratio(*args, n=64)
    with pytest.raises(GridTooLarge, match="band field on a 64"):
        ol._band_box(ol.Grid3(64, 2.0 * np.pi), 5, 0)


def test_decoupling_frozen_decouple_grid_inputs():
    # the decouple-grid benchmark's seed-0 inputs; the reference D are a
    # complex128 run on the whole n^3 grid, and the complex128 baseband
    # sums stay within 7e-16 relative of them
    rep = ol.decoupling_ratio(CIRCLE, 24.0, 1.0, 8.0,
                              [2.0**-4, 2.0**-5, 2.0**-6], 1, "all_ones",
                              n=128, seed=0)
    assert np.allclose(rep["D"], [1.7586908857775454, 1.9653070636515169,
                                  2.1127896024118593], rtol=1e-12, atol=0.0)


def test_decoupling_holds_two_complex_grids():
    n = 128
    tracemalloc.start()
    try:
        ol.decoupling_ratio(CIRCLE, 24.0, 1.0, 8.0, [2.0**-4], 1, "all_ones",
                            n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no n^3 grid is held: the sum's box on the union of the pieces' rows,
    # the stage of its first pass and the two slab buffers (0.22 * 8 * n^3
    # measured; one complex64 n^3 grid alone would be 8 * n^3)
    assert peak < 8 * n**3


# ---------------------------------------------------------------------------
# averaging operator
# ---------------------------------------------------------------------------


def test_averaging_dc_component():
    g = ol.Grid3(16, 8.0)
    chi = ol.default_chi(HELIX)
    rows, box = _dc_box(g, 1.0)
    at = next(ol._averages(g, rows, box, HELIX, chi, [1.0]))
    af = np.fft.ifftn(_scatter(g, rows, at))
    integral = quad(lambda s: float(chi(s)), -1.0, 1.0, limit=400)[0]
    assert np.max(np.abs(af - integral)) <= 1e-6
    assert np.max(np.abs(af - af.flat[0])) <= 1e-12
    # mu-hat at the origin is the quadrature's own chi-integral
    mu0 = ol.mu_hat(HELIX, chi, 1.0, np.zeros((1, 3)))[0]
    assert abs(mu0 - integral) <= 1e-8


def _assert_lattice_matches_rows(grid, mask, curve, chi, t):
    # the per-axis table contraction against the row-wise reference
    Xi = grid.freq_points(mask)
    gam, w = ol._curve_quadrature(curve, chi, t * ol._kmax(Xi))
    idx = np.nonzero(mask)
    rows = [np.unique(i) for i in idx]
    box = ol._lattice_symbol(grid, rows, gam, w, t)
    got = box[tuple(np.searchsorted(r, i) for r, i in zip(rows, idx))]
    ref = ol.mu_hat(curve, chi, t, Xi)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("t", [0.5, 1.3, 2.0])
def test_lattice_symbol_matches_mu_hat_on_band(t):
    g = ol.Grid3(32, 8.0)
    mask = _scatter(g, *ol._band_box(g, 3, 0)) != 0
    _assert_lattice_matches_rows(g, mask, HELIX, ol.default_chi(HELIX), t)


def test_lattice_symbol_matches_mu_hat_on_plate_support():
    # sparse, asymmetric and far from its bounding box
    g = ol.Grid3(64, 8.0)
    idx, _ = ol._plate_envelope(make_plate(CIRCLE, 0.7, 2.0**-2, 8.0), g)
    mask = np.zeros((g.n,) * 3, dtype=bool)
    mask[idx] = True
    assert 0 < mask.sum() < 0.5 * np.prod([np.ptp(i) + 1 for i in idx])
    _assert_lattice_matches_rows(g, mask, HELIX, ol.default_chi(HELIX), 1.3)


def test_lattice_symbol_matches_mu_hat_on_full_axis(monkeypatch):
    # a small chunk budget makes every axis-0 row its own chunk
    monkeypatch.setattr(ol, "_CHUNK", 2**10)
    g = ol.Grid3(16, 8.0)
    mask = np.zeros((g.n,) * 3, dtype=bool)
    mask[:, 3, 12] = True
    mask[5, 0, 7] = True
    mask[9, 15, 8] = True
    _assert_lattice_matches_rows(g, mask, HELIX, ol.default_chi(HELIX), 1.7)


_SYMBOL_DIGEST = """
import hashlib
import numpy as np
from conewolff import operator_lab as ol
rng = np.random.default_rng(0)
gam, w = rng.uniform(-1.0, 1.0, (300, 3)), rng.uniform(0.0, 1.0, 300)
g = ol.Grid3(32, 8.0)
sym = ol._lattice_symbol(g, [np.arange(32)] * 3, gam, w, 1.3)
print(hashlib.sha1(sym.tobytes()).hexdigest())
"""


def test_lattice_symbol_independent_of_blas_threads():
    # report.json must not change with the machine's core count; 300 nodes
    # is an inner dimension that OpenBLAS splits by thread count.  The child
    # imports conewolff from where this process did, installed or not
    path = os.pathsep.join(
        [os.path.dirname(os.path.dirname(ol.__file__))]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    digests = {
        subprocess.run([sys.executable, "-c", _SYMBOL_DIGEST],
                       env={**os.environ, "OPENBLAS_NUM_THREADS": str(k),
                            "OMP_NUM_THREADS": str(k), "PYTHONPATH": path},
                       capture_output=True, text=True, check=True,
                       timeout=120).stdout
        for k in (1, 2)}
    assert len(digests) == 1


def test_mu_hat_on_rescaled_quartic_piece():
    # the rescaled piece is a Curve with a domain, so default_chi and the
    # quadrature apply to it; adaptive quadrature is the reference
    _, piece = cg.finite_type_rescale(cg.quartic_curve(), 0.0, 2)
    chi = ol.default_chi(piece)
    Xi = np.array([[0.0, 0.0, 0.0], [3.0, -5.0, 7.0], [-20.0, 10.0, 30.0]])
    got = ol.mu_hat(piece, chi, 1.3, Xi)
    for xi, m in zip(Xi, got):
        re, im = (quad(lambda u: float(chi(u))
                       * f(1.3 * float(xi @ piece.eval(u))),
                       -1.0, 1.0, limit=400, epsabs=1e-13)[0]
                  for f in (math.cos, math.sin))
        assert abs(m - (re - 1j * im)) <= 1e-12


def test_mu_hat_refuses_unresolvable_phase():
    chi = ol.default_chi(HELIX)
    with pytest.raises(QuadratureFailure, match=r"needs \d+ Gauss"):
        ol.mu_hat(HELIX, chi, 1.0, np.array([[1.0e4, 0.0, 0.0]]))


def _real_band_field(grid, k, seed):
    # the real part of a band field, in physical space
    return np.fft.ifftn(_scatter(grid, *ol._band_box(grid, k, seed))).real


def _box_average(grid, f, curve, chi, t):
    # A_t f of a physical field, by _averages on the box of the whole
    # lattice
    lattice = [np.arange(grid.n)] * 3
    at = next(ol._averages(grid, lattice, np.fft.fftn(f), curve, chi, [t]))
    return np.fft.ifftn(at)


def test_averaging_real_in_real_out():
    g = ol.Grid3(32, 8.0)
    chi = ol.default_chi(HELIX)
    out = _box_average(g, _real_band_field(g, 3, 7), HELIX, chi, 1.3)
    scale = np.max(np.abs(out.real))
    assert np.max(np.abs(out.imag)) <= 1e-10 * scale


def test_averaging_translation_commutes():
    g = ol.Grid3(32, 8.0)
    chi = ol.default_chi(HELIX)
    f = _real_band_field(g, 3, 11)
    a_then_shift = np.roll(_box_average(g, f, HELIX, chi, 1.3),
                           (5, -3, 2), axis=(0, 1, 2))
    shifted = np.roll(f, (5, -3, 2), axis=(0, 1, 2))
    shift_then_a = _box_average(g, shifted, HELIX, chi, 1.3)
    scale = np.max(np.abs(a_then_shift))
    assert np.max(np.abs(a_then_shift - shift_then_a)) <= 1e-12 * scale


def test_averaging_lipschitz_in_t():
    g = ol.Grid3(32, 8.0)
    chi = ol.default_chi(HELIX)
    rows, box = ol._band_box(g, 3, 5)
    a1, a2 = ol._averages(g, rows, box, HELIX, chi, [1.30, 1.31])
    diff = ol.lp_norm(g, rows, a1 - a2, 2.0)
    gmax = max(np.linalg.norm(HELIX.eval(s)) for s in np.linspace(-1, 1, 65))
    bound = 0.01 * gmax * 2.0**3 * ol.lp_norm(g, rows, box, 2.0) * quad(
        lambda s: float(chi(s)), -1, 1, limit=400)[0]
    assert diff <= bound * 1.05


def test_averaging_wraparound_risk():
    g = ol.Grid3(16, 2.0)
    chi = ol.default_chi(HELIX)
    with pytest.raises(WraparoundRisk):
        ol._averages(g, *_dc_box(g, 1.0), HELIX, chi, [2.0])


@pytest.mark.parametrize("curve", [cg.helix(1.0, 1.0), cg.twisted_cubic()],
                         ids=["helix11", "twisted_cubic"])
def test_wraparound_diameter_is_the_pairwise_one(curve):
    chi = ol.default_chi(curve)
    lo, hi = ol._chi_support(curve, chi)
    pts = curve.eval(np.linspace(lo, hi, 257)).T
    want = np.linalg.norm(pts[:, None] - pts[None, :], axis=2).max()
    ol._diameter(curve, chi)  # a first call outside the trace
    tracemalloc.start()
    try:
        got = ol._diameter(curve, chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    # blocks of the pairwise table (0.27 MB measured), less than one
    # 257 x 257 float table; the whole table's differences took 4.2 MB
    assert peak < 257 * 257 * 8


def test_averaging_t_range():
    g = ol.Grid3(16, 8.0)
    with pytest.raises(ValueError):
        ol._averages(g, *_dc_box(g, 1.0), HELIX, ol.default_chi(HELIX), [0.1])


# ---------------------------------------------------------------------------
# maximal operators
# ---------------------------------------------------------------------------


def test_maximal_single_t_and_monotone():
    g = ol.Grid3(32, 8.0)
    chi = ol.default_chi(HELIX)
    rows, box = ol._band_box(g, 3, 5)
    a = np.fft.ifftn(_dense_average(g, _scatter(g, rows, box), HELIX, chi,
                                    1.3))
    m1 = ol.maximal_operator(g, rows, box, HELIX, chi, [1.3])
    assert np.max(np.abs(m1 - np.abs(a))) <= 1e-10
    m2 = ol.maximal_operator(g, rows, box, HELIX, chi, [1.3, 1.7])
    assert np.all(m2 >= m1 - 1e-12)


def test_maximal_sublinear():
    g = ol.Grid3(16, 8.0)
    chi = ol.default_chi(HELIX)
    rows, f = ol._band_box(g, 2, 1)
    _, h = ol._band_box(g, 2, 2)
    ts = [1.0, 1.25, 1.5]
    m_sum = ol.maximal_operator(g, rows, f + h, HELIX, chi, ts)
    m_sep = (ol.maximal_operator(g, rows, f, HELIX, chi, ts)
             + ol.maximal_operator(g, rows, h, HELIX, chi, ts))
    assert np.all(m_sum <= m_sep + 1e-12)


def test_maximal_t_range():
    g = ol.Grid3(16, 8.0)
    rows, box = ol._band_box(g, 2, 0)
    chi = ol.default_chi(HELIX)
    with pytest.raises(ValueError, match=r"\[1/2, 2\]"):
        ol.maximal_operator(g, rows, box, HELIX, chi, [0.25, 1.0])
    with pytest.raises(ValueError):
        ol.maximal_operator(g, rows, box, HELIX, chi, [])


def test_default_t_samples():
    ts = ol.default_t_samples()
    assert ts[0] == 0.5 and ts[-1] == 2.0
    assert np.all(np.diff(ts) > 0)
    assert np.sum((ts >= 1.0) & (ts <= 2.0)) >= 65


def test_two_param_maximal_single_pair():
    g = ol.Grid3(16, 8.0)
    rows, box = ol._band_box(g, 2, 0)
    single = ol.two_param_maximal(g, rows, box, 1.0, [(1.3, 1.5)])
    curve = ol.helix_family_curve(1.3, 1.5)
    want = np.abs(np.fft.ifftn(_dense_average(
        g, _scatter(g, rows, box), curve, ol.default_chi(curve, shrink=0.5),
        1.0)))
    assert np.max(np.abs(single - want)) <= 1e-12 * np.max(want)
    # a second pair only raises the sup
    both = ol.two_param_maximal(g, rows, box, 1.0, [(1.3, 1.5), (1.6, 1.2)])
    assert np.all(both >= single - 1e-12)
    with pytest.raises(ValueError):
        ol.two_param_maximal(g, rows, box, 1.0, [(2.5, 1.5)])


def test_two_param_maximal_matches_dense_reference():
    # helix2's grid, band and three (a, b) pairs
    g = ol.Grid3(16, 8.0)
    rows, box = ol._band_box(g, 2, 0)
    pairs = [(1.2, 1.4), (1.5, 1.5), (1.4, 1.2)]
    fhat = _scatter(g, rows, box)
    want = np.zeros((16,) * 3)
    for a, b in pairs:
        curve = ol.helix_family_curve(a, b)
        at = _dense_average(g, fhat, curve, ol.default_chi(curve, shrink=0.5),
                            1.0)
        want = np.maximum(want, np.abs(np.fft.ifftn(at)))
    got = ol.two_param_maximal(g, rows, box, 1.0, pairs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


# ---------------------------------------------------------------------------
# band fields and Sobolev ratios
# ---------------------------------------------------------------------------


def test_random_band_field_support():
    g = ol.Grid3(32, 8.0)
    rows, box = ol._band_box(g, 3, 0)
    pts = g.freq_points(box != 0, rows)
    r = np.linalg.norm(pts, axis=1)
    assert np.all((r >= 4.0 - 1e-12) & (r <= 8.0 + 1e-12))
    with pytest.raises(GridTooLarge):
        ol._band_box(g, 9, 0)


def test_band_field_and_averages_check_memory_first(monkeypatch):
    # on a machine of one page both refuse a 16^3 grid before building it
    g = ol.Grid3(16, 8.0)
    rows, box = ol._band_box(g, 2, 0)
    monkeypatch.setattr(ol, "os", types.SimpleNamespace(sysconf=lambda k: 1))
    with pytest.raises(GridTooLarge, match="band field on a 16"):
        ol._band_box(g, 2, 0)
    with pytest.raises(GridTooLarge, match="averaging on a 16"):
        ol.maximal_operator(g, rows, box, HELIX, ol.default_chi(HELIX), [1.0])


@pytest.mark.parametrize("n, side, k", [(32, 6.0, 3), (32, 6.0, 4),
                                         (128, 3.0, 5), (128, 3.0, 6)])
def test_averages_reads_kmax_off_the_box_mesh(n, side, k, monkeypatch):
    # the benchmark's sobolev and smoothing bands, and an empty support:
    # the quadrature gets the same t * kmax (the largest t is 1), to the
    # bit, and so the same node count, as from the support's point array,
    # which is not built
    curve = helix(1.0, 1.0)
    chi = ol.default_chi(curve, shrink=0.5)
    g = ol.Grid3(n, side)
    rows, box = ol._band_box(g, k, 0)
    quadrature = ol._curve_quadrature
    nodes = []

    def counted(curve, chi, t_kmax):
        gam, w = quadrature(curve, chi, t_kmax)
        nodes.append((t_kmax, gam.shape[0]))
        return gam, w

    def no_points(*args, **kwargs):
        raise AssertionError("freq_points called")

    for fbox in (box, np.zeros_like(box)):
        t_kmax = ol._kmax(g.freq_points(fbox != 0, rows))
        want = (t_kmax, quadrature(curve, chi, t_kmax)[0].shape[0])
        with monkeypatch.context() as mp:
            mp.setattr(ol, "_curve_quadrature", counted)
            mp.setattr(ol.Grid3, "freq_points", no_points)
            ol._averages(g, rows, fbox, curve, chi, [0.75, 1.0])
        assert nodes.pop() == want
    assert want == (0.0, 201)


def test_averages_builds_no_box_before_its_memory_check():
    # the 61^3 sobolev band (n = 128, box 3, k = 6): the largest |xi| is
    # taken over blocks of at most _BLOCK elements, so the call (checks
    # and quadrature, no symbol) peaks at 0.65 MB, one block's |xi|^2 and
    # mask; the whole-box mesh and mask took it to 2.05 MB.  The gate is
    # half a float64 box (0.91 MB).
    curve = helix(1.0, 1.0)
    chi = ol.default_chi(curve, shrink=0.5)
    g = ol.Grid3(128, 3.0)
    rows, box = ol._band_box(g, 6, 0)
    assert box.shape == (61, 61, 61)
    ol._averages(g, rows, box, curve, chi, [1.0])
    tracemalloc.start()
    try:
        ol._averages(g, rows, box, curve, chi, [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * box.size


def test_band_box_holds_what_its_memory_check_counts(monkeypatch):
    # the 61^3 sobolev band (n = 128, box 3, k = 6): the mask is drawn over
    # blocks and the phases before the box, so the call peaks at 5.5 MB,
    # within the 7.49 MB (33 bytes a point) its check counts; the whole-box
    # |xi| and masks took it to 9.0 MB, beyond the 7.26 MB counted then
    counted = []
    check = ol._require_memory

    def recorded(what, n, grids, dtype):
        counted.append(grids * np.dtype(dtype).itemsize * n**3)
        check(what, n, grids, dtype)

    monkeypatch.setattr(ol, "_require_memory", recorded)
    g = ol.Grid3(128, 3.0)
    want = ol._band_box(g, 6, 0)[1]  # the first draw imports numpy.random
    tracemalloc.start()
    try:
        box = ol._band_box(g, 6, 0)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert box.shape == (61, 61, 61) and np.array_equal(box, want)
    assert peak <= counted[-1]


def test_one_phase_draw_serves_bands_and_plates(monkeypatch):
    # _band_box and decoupling_ratio draw every phase through _phases: the
    # band's points with its seed, each plate piece's entries with
    # [seed, delta index, trial, piece]
    draws = []
    phases = ol._phases

    def recorded(seed, m):
        draws.append((seed, m))
        return phases(seed, m)

    monkeypatch.setattr(ol, "_phases", recorded)
    g = ol.Grid3(32, 8.0)
    _, box = ol._band_box(g, 3, [4, 3])
    assert draws == [([4, 3], np.count_nonzero(box))]
    draws.clear()
    ol.decoupling_ratio(CIRCLE, 24.0, 1.0, 8.0, [2.0**-4], 2, n=128, seed=5)
    assert {tuple(seed[:3]) for seed, _ in draws} == {(5, 0, 0), (5, 0, 1)}
    assert [seed[3] for seed, _ in draws] == 2 * list(range(len(draws) // 2))


def test_maximal_function_checks_its_own_grid(monkeypatch):
    # the averaging counts what one t holds (three band boxes, one symbol
    # chunk and its tables: 1.13 complex 32^3 grids here) and what its
    # caller holds beside them: sobolev's first-pass stage (0.12 grids),
    # the maximal function's float maximum, previous A_t f-hat and _slabs'
    # stage and slab buffers, one slab spanning the grid (2.00 grids).  With
    # 1.5 grids of memory sobolev runs and the maximal function is refused
    g = ol.Grid3(32, 8.0)
    rows, box = ol._band_box(g, 2, 0)
    chi = ol.default_chi(HELIX)
    want = ol.sobolev_ratio(g, rows, box, HELIX, chi, 8.0, 0.0)
    monkeypatch.setattr(ol, "os", types.SimpleNamespace(
        sysconf=lambda k: 24 * 32**3 if k == "SC_PHYS_PAGES" else 1))
    assert ol.sobolev_ratio(g, rows, box, HELIX, chi, 8.0, 0.0) == want
    with pytest.raises(GridTooLarge, match="averaging on a 32"):
        ol.maximal_operator(g, rows, box, HELIX, chi, [1.0])


def test_maximal_function_counts_its_grids_beside_the_boxes(monkeypatch):
    # a band box that fills the 32^3 grid, with the symbol chunk capped
    # low, as _CHUNK caps it on grids of n >= 256.  Five complex grids,
    # less a byte, hold sobolev's boxes, chunk, tables and stage, but not
    # the maximal function's maximum, stage and slab buffers beside its boxes:
    # 8.5 grids in all, although its boxes alone (4.0) or its own arrays
    # alone (3.5) would fit
    g = ol.Grid3(32, 2.0 * np.pi)
    rows, box = ol._band_box(g, 4, 0)
    assert all(r.size == 32 for r in rows)
    chi = ol.default_chi(HELIX)
    want = ol.sobolev_ratio(g, rows, box, HELIX, chi, 8.0, 0.0)
    monkeypatch.setattr(ol, "_CHUNK", 2**10)
    monkeypatch.setattr(ol, "os", types.SimpleNamespace(
        sysconf=lambda k: 5 * 16 * 32**3 - 1 if k == "SC_PHYS_PAGES" else 1))
    assert ol.sobolev_ratio(g, rows, box, HELIX, chi, 8.0, 0.0) == want
    with pytest.raises(GridTooLarge, match="averaging on a 32"):
        ol.maximal_operator(g, rows, box, HELIX, chi, [0.5, 1.0])


def test_sobolev_alpha0_bounded_by_chi_mass():
    g = ol.Grid3(16, 8.0)
    chi = ol.default_chi(HELIX)
    rows, box = ol._band_box(g, 2, 3)
    ratio = ol.sobolev_ratio(g, rows, box, HELIX, chi, 4.0, 0.0)
    mass = quad(lambda s: float(chi(s)), -1, 1, limit=400)[0]
    assert 0.0 < ratio <= mass * 1.01


def test_sobolev_weight_monotone_in_alpha():
    g = ol.Grid3(16, 8.0)
    chi = ol.default_chi(HELIX)
    rows, box = ol._band_box(g, 2, 3)
    r0 = ol.sobolev_ratio(g, rows, box, HELIX, chi, 4.0, 0.0)
    r1 = ol.sobolev_ratio(g, rows, box, HELIX, chi, 4.0, 0.5)
    assert r1 >= r0


# the curve-averages benchmark's sobolev inputs: helix(1,1), chi shrunk by
# 1/2, p = 40, alpha = 1/40, n = 128, box 3
BENCH_HELIX = helix(1.0, 1.0)
BENCH_CHI = ol.default_chi(BENCH_HELIX, shrink=0.5)


def _dense_band(grid, k, seed):
    # the band drawn on the whole grid: |xi| at every lattice point and one
    # phase per band point, in row-major order
    kx, ky, kz = grid.freq_mesh()
    r = np.sqrt(kx**2 + ky**2 + kz**2)
    idx = np.nonzero((r >= 2.0 ** (k - 1)) & (r <= 2.0**k))
    rng = np.random.default_rng(seed)
    vals = np.zeros((grid.n,) * 3, dtype=complex)
    vals[idx] = np.exp(2j * np.pi * rng.random(idx[0].size))
    return vals


def _dense_sobolev_ratio(grid, fhat, curve, chi, p, alpha):
    kx, ky, kz = grid.freq_mesh()
    weighted = (_dense_average(grid, fhat, curve, chi, 1.0)
                * (1.0 + kx**2 + ky**2 + kz**2) ** (alpha / 2.0))
    return (_dense_lp_norm(grid, np.fft.ifftn(weighted), p)
            / _dense_lp_norm(grid, np.fft.ifftn(fhat), p))


@pytest.mark.parametrize("k", [5, 6])
def test_sobolev_box_path_matches_dense_path(k):
    grid = ol.Grid3(128, 3.0)
    f = _dense_band(grid, k, [0, k])
    rows, box = ol._band_box(grid, k, [0, k])
    assert np.array_equal(_scatter(grid, rows, box), f)
    want = _dense_sobolev_ratio(grid, f, BENCH_HELIX, BENCH_CHI, 40.0, 0.025)
    got = ol.sobolev_ratio(grid, rows, box, BENCH_HELIX, BENCH_CHI, 40.0,
                           0.025)
    swept = ol.sobolev_sweep(BENCH_HELIX, BENCH_CHI, 40.0, 0.025, [k],
                             n=128, box=3.0, seed=0)["ratios"][0]
    assert abs(got - want) <= 1e-12 * want
    assert abs(swept - want) <= 1e-12 * want


def test_sobolev_frozen_curve_averages_inputs():
    rep = ol.sobolev_sweep(BENCH_HELIX, BENCH_CHI, 40.0, 0.025, [5, 6],
                           n=128, box=3.0, seed=0)
    assert np.allclose(rep["ratios"], [0.2971696593367626,
                                       0.2266336174223032],
                       rtol=1e-12, atol=0.0)


def test_sobolev_sweep_holds_one_complex_grid():
    n = 128
    tracemalloc.start()
    try:
        ol.sobolev_sweep(BENCH_HELIX, BENCH_CHI, 40.0, 0.025, [5], n=n,
                         box=3.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 31^3 band boxes, the first-pass stage of a box (n*31*31) and the
    # slab buffers, no n^3 grid (0.16 * 16 * n^3 measured; the n^3
    # transform buffer alone was 16 * n^3, and the dense path held
    # 4.0 * 16 * n^3)
    assert peak < 0.5 * 16 * n**3


def test_maximal_and_smoothing_box_paths_match_dense_paths():
    # the n = 16 cases of the tracer's transform count
    g = ol.Grid3(16, 8.0)
    fhat = _dense_band(g, 2, 0)
    ts = ol.default_t_samples(5)
    chi = ol.default_chi(HELIX)
    dense = np.zeros((16,) * 3)
    for t in ts:
        at = _dense_average(g, fhat, HELIX, chi, t)
        dense = np.maximum(dense, np.abs(np.fft.ifftn(at)))
    got = ol.maximal_operator(g, *ol._band_box(g, 2, 0), HELIX, chi, ts)
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(dense)
    chi = ol.default_chi(HELIX, shrink=0.5)
    rep = ol.local_smoothing_probe(HELIX, chi, 6.0, 0.5, [2, 3], n=16,
                                   n_t=5)
    ref = _smoothing_round_trip(HELIX, chi, 6.0, 0.5, [2, 3], 16, 6.0, 5, 0)
    assert np.allclose(rep["ratios"], ref, rtol=1e-12, atol=0.0)


def test_local_smoothing_alpha0_uniform():
    chi = ol.default_chi(HELIX, shrink=0.5)
    rep = ol.local_smoothing_probe(HELIX, chi, 6.0, 0.0, [3, 4],
                                   n=32, box=6.0, n_t=9, seed=0)
    assert rep["slope"] <= 0.05
    rep_up = ol.local_smoothing_probe(HELIX, chi, 6.0, 1.0, [3, 4],
                                      n=32, box=6.0, n_t=9, seed=0)
    # a positive weight exponent can only increase each ratio
    assert all(b >= a for a, b in zip(rep["ratios"], rep_up["ratios"]))
    with pytest.raises(GridTooLarge):
        ol.local_smoothing_probe(HELIX, chi, 6.0, 0.0, [3], n=256, n_t=65)


def _smoothing_round_trip(curve, chi, p, alpha, k_list, n, box, n_t, seed):
    # the space-time ratio by the physical round trip: each A_t f (the
    # dense reference) taken to physical space and windowed, a 4-D forward
    # FFT, the weight, a 4-D inverse FFT and the mixed norm over the whole
    # array
    grid = ol.Grid3(n, box)
    t_grid = np.linspace(1.0, 2.0, n_t)
    dt = t_grid[1] - t_grid[0]
    window = sd.eta0((t_grid - 1.5) / 0.5)
    tau = 2.0 * np.pi * np.fft.fftfreq(n_t, d=dt)
    kx, ky, kz = grid.freq_mesh()
    weight = (1.0 + (kx**2 + ky**2 + kz**2)[None]
              + tau[:, None, None, None] ** 2) ** (alpha / 2.0)
    ratios = []
    for k in k_list:
        fhat = _dense_band(grid, k, [seed, k])
        stack = np.stack([
            wt * np.fft.ifftn(_dense_average(grid, fhat, curve, chi, t))
            for wt, t in zip(window, t_grid)])
        spec = np.fft.fft(np.fft.fftn(stack, axes=(1, 2, 3)), axis=0)
        back = np.fft.ifftn(np.fft.ifft(spec * weight, axis=0),
                            axes=(1, 2, 3))
        mixed = (np.sum(np.abs(back) ** p) * grid.cell_volume * dt) \
            ** (1.0 / p)
        ratios.append(mixed / _dense_lp_norm(grid, np.fft.ifftn(fhat), p))
    return ratios


@pytest.mark.parametrize("n,k_list", [(16, [2, 3]), (32, [2, 3, 4])])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_local_smoothing_matches_round_trip(n, k_list, alpha):
    chi = ol.default_chi(HELIX, shrink=0.5)
    rep = ol.local_smoothing_probe(HELIX, chi, 6.0, alpha, k_list, n=n,
                                   box=6.0, n_t=9, seed=3)
    ref = _smoothing_round_trip(HELIX, chi, 6.0, alpha, k_list, n, 6.0, 9, 3)
    assert np.allclose(rep["ratios"], ref, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# helix family identity
# ---------------------------------------------------------------------------


def test_helix_phase_identity_examples():
    lhs, rhs = ol.helix_phase_identity(1.5, 1.2, 0.0, np.array([1.0, 0, 0]))
    assert abs(lhs - 1.0) <= 1e-12 and abs(rhs - 1.0) <= 1e-12
    lhs, rhs = ol.helix_phase_identity(1.5, 1.2, 0.3, np.array([0.0, 0, 1.0]))
    assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12


def test_helix_phase_identity_random():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100_000):
        a, b = rng.uniform(1.0, 2.0, 2)
        s = rng.uniform(-1.0, 1.0)
        xi = rng.normal(size=3)
        lhs, rhs = ol.helix_phase_identity(a, b, s, xi)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_helix_phase_identity_matches_fd():
    # lhs really is the a-derivative of the phase (finite differences)
    xi = np.array([0.7, -0.4, 1.1])
    a, b, s = 1.4, 1.7, 0.23
    h = 1e-6
    up = ol.helix_family_curve(a + h, b).eval(s) @ xi
    dn = ol.helix_family_curve(a - h, b).eval(s) @ xi
    lhs, _ = ol.helix_phase_identity(a, b, s, xi)
    assert abs((up - dn) / (2 * h) - lhs) <= 1e-8


# ---------------------------------------------------------------------------
# frozen experiment oracles (small-scale counterparts of the full sweeps)
# ---------------------------------------------------------------------------


def test_decoupling_all_ones_band_small():
    rep = ol.decoupling_ratio(CIRCLE, 24.0, 1.0, 8.0, [2.0**-4, 2.0**-5], 2,
                              "all_ones", n=128, seed=0)
    assert all(d >= 1.0 for d in rep["D"])
    assert rep["band_ratio"] <= 4.0


def test_sobolev_sweep_small():
    chi = ol.default_chi(HELIX, shrink=0.5)
    rep = ol.sobolev_sweep(HELIX, chi, 40.0, 1.0 / 40.0, [4, 5],
                           n=64, box=3.0, seed=0)
    assert rep["slope"] <= 0.05
    assert all(r > 0 for r in rep["ratios"])


@pytest.mark.parametrize("sweep", [ol.sobolev_sweep, ol.local_smoothing_probe],
                         ids=["sobolev", "smoothing"])
def test_band_sweeps_refuse_an_empty_k_list(sweep):
    with pytest.raises(ValueError, match="needs at least one band k"):
        sweep(HELIX, ol.default_chi(HELIX, shrink=0.5), 8.0, 0.0, [], n=16)


def test_slope_needs_two_distinct_abscissae():
    # one band, or one delta listed twice, determines no slope: the report
    # says nan instead of fitting a line through one abscissa
    chi = ol.default_chi(HELIX, shrink=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RankWarning either
        rep = ol.sobolev_sweep(HELIX, chi, 40.0, 1.0 / 40.0, [4],
                               n=64, box=3.0, seed=0)
        dup = ol.decoupling_ratio(CIRCLE, 8.0, 1.0, 8.0, [2.0**-4, 2.0**-4],
                                  1, "all_ones", n=64, seed=0)
    assert len(rep["ratios"]) == 1 and math.isnan(rep["slope"])
    assert len(dup["D"]) == 2 and math.isnan(dup["slope"])
