"""Geometry instruments and the sweep driver: grid validation, the
crossing-count curve test on shapes with known answers, and verdict rows
for representative parameter slices of each case."""

import gc
import json
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmconv import convo, geochk, harness
from harmconv.convo import convolve, mobius_power_dilatation
from harmconv.geochk import (
    CASE_IDS,
    CASES,
    DEFAULT_CURVE_RADIUS,
    IMAGE_CURVE_ORDER,
    IMAGE_CURVE_POINTS,
    LEVEL_TIE_ATOL,
    DiskGrid,
    _MapCache,
    convex_in_direction,
    hengartner_schober,
    image_curves,
    line_crossing_counts,
    row_param_id,
    sweep_report,
)
from harmconv.hmap import (
    EDGE_ATOL,
    FAMILY_ALPHA_MAX,
    HarmonicMap,
    f_a_alpha,
    slanted_halfplane,
)
from harmconv.series import PowerSeries, geometric, monomial, ring_values

# smaller than the default grid; plenty for unit-level assertions
GRID = DiskGrid(0.9)


class TestDiskGrid:
    def test_points_cover_the_rings_inside_the_radius(self):
        g = DiskGrid(0.5)
        assert g.radii == (0.1, 0.2, 0.3, 0.4, 0.5)
        assert g.points.shape == (5 * convo.ANGLES_PER_RING,)
        np.testing.assert_allclose(
            sorted(set(np.round(np.abs(g.points), 12))), g.radii
        )

    def test_default_grid_is_every_ring(self):
        assert DiskGrid() == convo.DEFAULT_GRID
        assert convo.DEFAULT_GRID.radii == convo.DEFAULT_RADII
        # a ring a rounding step past the radius still counts
        assert DiskGrid(0.95 - 1e-13).radii[-1] == 0.95

    def test_radius_inside_the_innermost_ring_is_refused(self):
        with pytest.raises(ValueError, match="holds no ring"):
            DiskGrid(0.05)

    def test_curve_grid_is_the_rings_inside_the_curve(self):
        assert geochk.CURVE_GRID == DiskGrid(DEFAULT_CURVE_RADIUS) == GRID
        assert GRID.radii == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def test_sample_on_the_default_grid(self):
        g = DiskGrid()
        F = slanted_halfplane(0.0, monomial(2, 384)).h
        m = convo.ANGLES_PER_RING
        want = np.concatenate([ring_values(F.coeffs, (r,), m)[0] for r in g.radii])
        assert np.array_equal(g.sample(F).view(np.uint64), want.view(np.uint64))


class TestInstruments:
    def test_hengartner_schober_of_identity(self):
        # Re((1-z^2) * 1) = 1 - Re z^2 >= 1 - r_max^2
        got = hengartner_schober(monomial(1, 8), GRID)
        assert got == pytest.approx(1 - GRID.radii[-1] ** 2, abs=1e-12)

    def test_hengartner_schober_positive_for_halfplane_target(self):
        # (1-z^2)/(1-z)^2 = (1+z)/(1-z) has positive real part
        assert hengartner_schober(geometric(512), GRID) > 0.0

    def test_hengartner_schober_is_nan_on_non_finite_values(self):
        s = PowerSeries([0.0, 1.0, float("nan")])
        assert np.isnan(hengartner_schober(s, GRID))


def full_grid_hengartner_schober(F, grid):
    """Horner at every grid point: the reference for the FFT-sampled
    hengartner_schober."""
    p = grid.points
    vals = (1 - p * p) * F.differentiate()(p)
    if not np.isfinite(vals).all():
        return float("nan")
    return float(np.min(vals.real))


def hs_rounding_bound(F, grid):
    """64 (n + 1) eps 2 max_r sum |a_k| r^k for F' = sum a_k z^k of order
    n: |1 - p^2| < 2 times S_r = sum |a_k| r^k, which bounds |F'| on the
    ring of radius r, times a generous count of rounding units for Horner,
    the FFT and the rounding of the grid points."""
    a = np.abs(F.differentiate().coeffs)
    s_r = (a * np.asarray(grid.radii)[:, None] ** np.arange(len(a))).sum(axis=1)
    return 64 * len(a) * np.finfo(float).eps * 2.0 * s_r.max()


# the sampled check's rings (|z| <= 0.9), the full default grid and a small one
HS_GRIDS = {
    "curve": geochk.CURVE_GRID,
    "default": convo.DEFAULT_GRID,
    "small": DiskGrid(0.5),
}


class TestHengartnerSchoberScreen:
    """The FFT-sampled minimum agrees with full-grid Horner within the
    rounding bound, and keeps its NaN rule."""

    @pytest.mark.parametrize("grid", HS_GRIDS)
    @pytest.mark.parametrize("kind", ["dense", "sparse", "k2"])
    @pytest.mark.parametrize("order", [8, 9, 64, 255, 384, 1024])
    def test_random_series_match_full_grid(self, order, kind, grid):
        g = HS_GRIDS[grid]
        rng = np.random.default_rng([order, len(kind), len(g.radii)])
        c = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        if kind == "sparse":
            c[rng.random(order + 1) < 0.9] = 0.0
        if kind == "k2":
            c *= np.arange(order + 1) ** 2.0
        F = PowerSeries(c)
        got = hengartner_schober(F, g)
        assert abs(got - full_grid_hengartner_schober(F, g)) <= hs_rounding_bound(F, g)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficient_is_nan(self, bad):
        F = PowerSeries([0.0, 1.0, 0.5, bad])
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.isnan(hengartner_schober(F, GRID))

    def test_series_near_overflow_stays_finite(self):
        # every value is near 1e305, finite
        F = PowerSeries([0.0, 1e305, -3e304j, 1e304])
        g = convo.DEFAULT_GRID
        got = hengartner_schober(F, g)
        assert np.isfinite(got)
        assert abs(got - full_grid_hengartner_schober(F, g)) <= hs_rounding_bound(F, g)


# the dense reference nudges samples within LEVEL_TIE_ATOL of a level off it
NUDGE = 1e-8


def dense_crossing_counts(ys, levels=256):
    """The O(n L) level matrix that line_crossing_counts must agree with."""
    ys = np.asarray(ys, dtype=float)
    lo, hi = float(ys.min()), float(ys.max())
    if hi - lo <= LEVEL_TIE_ATOL:
        return np.array([lo]), np.zeros(1, dtype=int)
    lv = np.linspace(lo, hi, levels)
    d = ys[None, :] - lv[:, None]
    d = d + (np.abs(d) < LEVEL_TIE_ATOL) * NUDGE
    crossing = d * np.roll(d, -1, axis=1) < 0.0
    return lv, crossing.sum(axis=1)


def assert_same_counts(ys, levels=256):
    lv, counts = line_crossing_counts(ys, levels)
    ref_lv, ref_counts = dense_crossing_counts(ys, levels)
    np.testing.assert_array_equal(lv, ref_lv)
    np.testing.assert_array_equal(counts, ref_counts)


# offsets from a level that sit on, inside, at and just past the tie band
_TIE_OFFSETS = (
    0.0,
    LEVEL_TIE_ATOL,
    -LEVEL_TIE_ATOL,
    np.nextafter(LEVEL_TIE_ATOL, 0.0),
    np.nextafter(-LEVEL_TIE_ATOL, 0.0),
    np.nextafter(LEVEL_TIE_ATOL, 1.0),
    np.nextafter(-LEVEL_TIE_ATOL, -1.0),
    2 * LEVEL_TIE_ATOL,
    -2 * LEVEL_TIE_ATOL,
    NUDGE,
    -NUDGE,
)


class TestLineCrossingsMatchDenseReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_samples_on_and_near_levels(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 300))
        th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        scale = 10.0 ** rng.uniform(-6, 3)
        ys = scale * (np.sin(th) + 0.4 * np.sin(rng.integers(2, 6) * th + rng.uniform()))
        ys = ys + rng.choice([0.0, 1.0, 1e4])
        lv = np.linspace(ys.min(), ys.max(), 256)
        snap = rng.random(n) < 0.6
        picks = rng.integers(0, 256, n)
        offs = rng.choice(_TIE_OFFSETS, n)
        ys = np.where(snap, lv[picks] + offs, ys)
        assert_same_counts(ys)

    def test_samples_exactly_on_every_level(self):
        lv = np.linspace(-1.0, 2.0, 256)
        ys = np.concatenate([lv, lv[::-1], lv[::3], lv[::-7]])
        assert_same_counts(ys)

    @pytest.mark.parametrize("offset", _TIE_OFFSETS)
    def test_samples_at_tie_offsets(self, offset):
        th = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        ys = np.sin(2 * th)
        lv = np.linspace(ys.min(), ys.max(), 256)
        ys[1:-1:2] = lv[np.arange(1, 511, 2) % 256] + offset
        assert_same_counts(ys)

    @pytest.mark.parametrize("spread", [0.0, 0.5e-9, 1e-9, 1.5e-9, 3e-9, 1e-8])
    def test_flat_and_nearly_flat_curves(self, spread):
        ys = 0.3 + spread * np.sin(np.linspace(0.0, 2 * np.pi, 97, endpoint=False))
        assert_same_counts(ys)

    @pytest.mark.parametrize("decimals", [0, 1, 2, 3])
    def test_rounded_samples(self, decimals):
        th = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
        ys = np.round(3.0 * np.sin(th) + np.sin(5 * th), decimals)
        assert_same_counts(ys)

    @pytest.mark.parametrize("levels", [1, 2, 3, 17])
    def test_other_level_counts(self, levels):
        th = np.linspace(0.0, 2 * np.pi, 200, endpoint=False)
        assert_same_counts(np.cos(3 * th) + 0.1 * th, levels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_raise(self, bad):
        ys = np.sin(2 * np.linspace(0.0, 2 * np.pi, 256, endpoint=False))
        ys[17] = bad
        with pytest.raises(ValueError, match="finite"):
            line_crossing_counts(ys)


class TestLineCrossings:
    def test_circle_crosses_each_level_twice(self):
        th = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
        _, counts = line_crossing_counts(np.sin(th))
        assert counts.max() == 2

    def test_figure_eight_crosses_four_times(self):
        th = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
        _, counts = line_crossing_counts(np.sin(2 * th))
        assert counts.max() == 4

    def test_flat_curve_has_no_crossings(self):
        lv, counts = line_crossing_counts(np.zeros(64))
        assert len(lv) == 1 and counts.tolist() == [0]

    def test_counts_are_even(self):
        rng = np.random.default_rng(5)
        ys = np.cumsum(rng.normal(size=512))
        ys -= np.linspace(0.0, ys[-1] - ys[0], 512)  # close the cycle
        _, counts = line_crossing_counts(ys)
        assert np.all(counts % 2 == 0)


class TestConvexInDirection:
    def test_halfplane_image_is_convex_everywhere(self):
        f = f_a_alpha(0.5, 0.0, 256)
        for phi in (0.0, np.pi / 2, 0.7):
            rep = convex_in_direction(f, phi)
            assert rep.passed is True
            assert rep.crossing_max <= 2

    def test_imaginary_direction_reports_hs_functional(self):
        f = f_a_alpha(0.3, 0.0, 256)
        rep = convex_in_direction(f, 0.0)
        assert rep.min_hs_value is not None

    def test_detects_nonconvex_subdisk_image(self):
        # convolving the a = 0.95 half-plane extremal with the z^2 shear
        # gives a map whose |z| < 0.9 image genuinely wiggles, even though
        # the full-disk image is convex in the real direction
        f = convolve(
            f_a_alpha(0.95, 0.0, 384),
            slanted_halfplane(0.0, monomial(2, 384)),
        )
        rep = convex_in_direction(f, 0.0)
        assert rep.passed is False
        assert rep.crossing_max >= 4

    @pytest.mark.parametrize("part", ["h", "g"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_withholds(self, part, bad):
        # a non-finite coefficient of A withholds, and sampling it warns
        # nothing (the suite turns numpy RuntimeWarnings into errors)
        cs = [0.0, 1.0, 0.0, 0.5, bad]
        f = HarmonicMap(h=PowerSeries(cs), g=PowerSeries([0.0] * 5))
        if part == "g":
            f = HarmonicMap(h=monomial(1, 4), g=PowerSeries([0.0, 0.1, 0.0, 0.0, bad]))
        rep = convex_in_direction(f, 0.0)
        assert rep.passed is None
        assert "non-finite" in rep.note

    def test_boundary_overflow_withholds(self):
        # h and g are finite, but A = h - g = 2e308 z is past the largest
        # double
        f = HarmonicMap(h=PowerSeries([0.0, 1e308]), g=PowerSeries([0.0, -1e308]))
        with np.errstate(over="ignore", invalid="ignore"):
            rep = convex_in_direction(f, 0.0)
        assert rep.passed is None
        assert "non-finite boundary" in rep.note

    @pytest.mark.parametrize(
        "case, params",
        [
            ("t2.3", {"a": 0.5}),
            ("t3.9", {"n": 1, "alpha1": -0.5, "alpha2": 0.5, "t": 0.25}),
        ],
    )
    @pytest.mark.parametrize("phi", [0.0, 0.7, np.pi / 2])
    def test_one_curve_carries_the_harmonic_image_height(self, case, params, phi):
        # the shear identity: Im(e^{-i phi} f) = Im(e^{-i phi} (h - e^{2i phi} g))
        f = CASES[case].build(params, 256, _MapCache())
        m = 1024
        zs = 0.9 * np.exp(2j * np.pi * np.arange(m) / m)
        image = (f(zs) * np.exp(-1j * phi)).imag
        A = f.h.subtract(f.g.scale(np.exp(2j * phi)))
        reduction = (ring_values(A.coeffs, (0.9,), m)[0] * np.exp(-1j * phi)).imag
        assert np.max(np.abs(image - reduction)) <= 1e-12 * np.max(np.abs(image))


class TestSweepReport:
    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="t2.2"):
            sweep_report("t9.9")

    def test_case_id_list_is_stable(self):
        assert CASE_IDS == (
            "t2.2", "t2.3", "t2.4", "t2.5",
            "t3.8", "t3.9", "t3.10", "t3.11",
            "oq1", "oq2", "oq3",
        )

    def test_unknown_param_key_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            sweep_report("t2.5", {"bogus": [0.5]})

    def test_out_of_domain_value_rejected(self):
        with pytest.raises(ValueError):
            sweep_report("t2.5", {"a": [1.2]})

    @pytest.mark.parametrize(
        "case, most",
        [("t2.2", 256), ("t3.8", 10), ("t3.9", 10), ("t3.10", 10), ("t3.11", 10),
         ("oq1", 256), ("oq2", 256), ("oq3", 256)],
    )
    def test_n_is_bounded_per_case(self, case, most):
        # setting up the points builds no map, so the cap itself is cheap here
        assert {p["n"] for p in CASES[case].points({"n": [most]})} == {most}
        with pytest.raises(ValueError, match=f"n must be at most {most}, got {most + 1}"):
            CASES[case].points({"n": [most + 1]})

    def test_t25_rows_pass_with_identity_note(self):
        rows = sweep_report("t2.5", {"a": [-0.5, 0.0, 0.5]})
        assert [r["params"]["a"] for r in rows] == [-0.5, 0.0, 0.5]
        for r in rows:
            assert r["verdict"] == "pass"
            assert "collapses to z^2" in r["note"]
            assert set(r) == {"case", "params", "verdict", "metrics", "note"}

    def test_t23_rows_certify_and_report_roots(self):
        rows = sweep_report("t2.3", {"a": [0.25, 0.75]})
        for r in rows:
            assert r["verdict"] == "pass"
            assert "matches the reduced quartic form" in r["note"]
            roots = r["metrics"]["roots"]
            assert len(roots) == 4
            assert all(re * re + im * im < 1.0 for re, im in roots)

    def test_t22_below_threshold_is_exploratory(self):
        rows = sweep_report("t2.2", {"n": [5], "a": [0.2], "gamma": [0.0], "theta": [0.0]})
        assert len(rows) == 1
        assert rows[0]["verdict"] == "exploratory"
        assert "below the monomial threshold" in rows[0]["note"]

    def test_t39_equal_weights_use_shared_target(self):
        rows = sweep_report(
            "t3.9", {"n": [1], "alpha1": [0.3], "alpha2": [0.3], "t": [0.5]}
        )
        assert rows[0]["verdict"] == "pass"
        assert "shared-target reduction" in rows[0]["note"]

    def test_t39_reversed_alphas_are_exploratory(self):
        rows = sweep_report(
            "t3.9", {"n": [1], "alpha1": [0.5], "alpha2": [-0.5], "t": [0.5]}
        )
        assert rows[0]["verdict"] == "exploratory"
        assert "outside the claimed range" in rows[0]["note"]

    def test_open_ended_cases_never_assert(self):
        rows = sweep_report("oq1", {"n": [3], "theta": [0.0], "a": [0.5], "b": [0.5]})
        assert rows and all(r["verdict"] == "exploratory" for r in rows)
        assert all("no assertion" in r["note"] for r in rows)

    def test_paired_point_repeats_only_when_both_halves_do(self):
        # the command line's repeated values are in tests/test_harness.py
        points = CASES["t3.9"].points(
            {"n": [1], "alpha1": [0.1, 0.1], "alpha2": [0.2, 0.3], "t": [0.5]}
        )
        assert [(p["alpha1"], p["alpha2"]) for p in points] == [(0.1, 0.2), (0.1, 0.3)]
        with pytest.raises(ValueError, match="point alpha1=0.1,alpha2=0.2,n=1,t=0.5 more"):
            CASES["t3.9"].points({"n": [1], "alpha1": [0.1, 0.1], "alpha2": [0.2, 0.2], "t": [0.5]})

    def test_paired_axes_need_matching_lengths(self):
        # a one-value column is not repeated to the other's length either
        for alpha2 in ([0.3, 0.4, 0.5], [0.3]):
            with pytest.raises(ValueError) as err:
                sweep_report("t3.9", {"alpha1": [0.1, 0.2], "alpha2": alpha2})
            assert str(err.value) == (
                "alpha1 and alpha2 must have matching lengths (they are paired, not crossed)"
            )

    @pytest.mark.parametrize(
        "case, params, missing",
        [
            ("t3.9", {"alpha1": [0.1]}, "alpha2"),
            ("t3.11", {"alpha2": [0.1]}, "alpha1"),
            ("t3.10", {"variant": [1], "alpha1": [-0.5]}, "alpha2"),
        ],
    )
    def test_half_of_a_paired_axis_names_the_missing_half(self, case, params, missing):
        with pytest.raises(ValueError) as err:
            sweep_report(case, params)
        assert str(err.value) == f"{missing} is missing: alpha1 and alpha2 are set together"

    def test_menu_axis_is_not_a_parameter(self):
        with pytest.raises(ValueError, match="omega1"):
            sweep_report("t3.8", {"omega1": ["z^1"]})

    @pytest.mark.parametrize(
        "case, params, says",
        [
            ("t2.3", {"a": [0.5]}, "DISAGREES with the reduced quartic form"),
            ("t2.5", {"a": [0.5]}, "z^2 identity FAILED"),
        ],
    )
    def test_failed_identity_fails_the_row(self, case, params, says, monkeypatch):
        monkeypatch.setattr(convo, "rationals_equal", lambda r1, r2: False)
        (row,) = sweep_report(case, params)
        assert row["verdict"] == "fail"
        assert says in row["note"]

    def test_extremal_map_is_built_once_per_sweep(self, tmp_path, monkeypatch):
        built = []

        def counted(a, alpha, N):
            built.append((a, alpha, N))
            return f_a_alpha(a, alpha, N)

        monkeypatch.setattr(geochk, "f_a_alpha", counted)
        # three strip rows, each built once at IMAGE_CURVE_ORDER, share f_{0,0}
        rows = sweep_report("t2.5", {"a": [-0.5, 0.0, 0.5]})
        assert [r["verdict"] for r in rows] == ["pass"] * 3
        assert built == [(0.0, 0.0, IMAGE_CURVE_ORDER)]
        # the cache lives for one sweep: a second sweep builds it again
        sweep_report("t2.5", {"a": [0.5]})
        assert len(built) == 2
        # a run's image curves take the sweep's map and build nothing, and
        # the hand-over lives for one run: a second run builds its maps again
        config = harness.RunConfig(case="t2.5", params={"a": [0.5]}, outdir=str(tmp_path))
        for runs in (1, 2):
            assert harness.run(config) == 0
            assert len(built) == 2 + runs

    def test_sweep_clears_its_member_caches(self, monkeypatch):
        made = []

        class Recorded(_MapCache):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(geochk, "_MapCache", Recorded)
        curve_maps = {}
        rows = sweep_report(
            "t3.9", {"n": [1], "alpha1": [-0.5], "alpha2": [0.5]}, curve_maps=curve_maps
        )
        # the member maps die with the sweep's own memo
        gc.collect()
        assert len(made) == 1 and made[0]() is None
        # what stays is one map per row, at IMAGE_CURVE_ORDER, in arrays of its own
        assert len(curve_maps) == len(rows) == 5
        for f in curve_maps.values():
            for part in (f.h, f.g):
                assert part.order == IMAGE_CURVE_ORDER
                assert part.coeffs.base is None

    def test_cached_extremal_map_is_the_built_one(self):
        cache = _MapCache()
        f = cache.extremal(0.3, 64)
        assert cache.extremal(0.3, 64) is f
        assert f == f_a_alpha(0.3, 0.0, 64)
        assert cache.extremal(0.3, 32) == f_a_alpha(0.3, 0.0, 32)

    def test_sweep_certifies_each_dilatation_and_roots_each_polynomial_once(
        self, monkeypatch
    ):
        certified, rooted = [], []
        certify, find_roots = convo.certify_bounded, geochk.roots
        monkeypatch.setattr(convo, "certify_bounded", lambda r: certified.append(r) or certify(r))
        monkeypatch.setattr(geochk, "roots", lambda p: rooted.append(p) or find_roots(p))
        rows = sweep_report("t3.8")
        assert (len(rows), len(certified), len(set(certified))) == (180, 47, 47)
        # rows that share a certificate read the same max_omega and phrase
        shared = {}
        for row in rows:
            closed = CASES["t3.8"].point(row["params"]).closed
            phrase = re.search(r"dilatation \w+ \([^)]*\)", row["note"]).group()
            seen = shared.setdefault(closed, (row["metrics"]["max_omega"], phrase))
            assert seen == (row["metrics"]["max_omega"], phrase), row_param_id(row)
        assert len(shared) == 47
        # t3.10 reports roots: one root run per distinct polynomial, and
        # each row its own lists
        rows = sweep_report("t3.10")
        polys = {CASES["t3.10"].point(r["params"]).roots_of for r in rows}
        assert len(rooted) == len(set(rooted)) == len(polys - {None}) < len(rows)
        lists = [r["metrics"]["roots"] for r in rows if r["metrics"]["roots"]]
        assert len({id(z) for zs in lists for z in [zs, *zs]}) == sum(1 + len(zs) for zs in lists)

    @pytest.mark.parametrize(
        "case, params",
        [("t2.5", {"a": [0.5]}), ("t3.8", {"n": [1], "alpha": [0.0], "t": [0.5]})],
    )
    def test_a_row_without_roots_says_why(self, case, params):
        for row in sweep_report(case, params):
            assert row["metrics"]["roots"] is None
            assert row["note"].endswith("; roots: none (the point reports no polynomial)")

    def test_t311_reports_the_zeros_of_its_displayed_sextic(self):
        # t3.11 reports the zeros of its dilatation's w-polynomial, as t3.9
        # and t3.10 do.  That polynomial is the displayed sextic up to the
        # signs of zero imaginary parts, which move no zero: on every
        # default row and on 1,000 seeded points (t = 0 and t = 1 among
        # them) the reported pairs are the sextic's, repr for repr.
        rng = np.random.default_rng(311)
        t = rng.uniform(0.0, 1.0, 1000)
        t[::10], t[1::10] = 0.0, 1.0
        alphas = rng.uniform(-1.99, 1.99, (1000, 2))
        seeded = [(a1, a2, tk) for (a1, a2), tk in zip(alphas.tolist(), t.tolist())]
        default = [(p["alpha1"], p["alpha2"], p["t"]) for p in CASES["t3.11"].points({})]
        assert len(default) == 50
        for point in default + seeded:
            reported = geochk._root_pairs(geochk._w_poly(convo.quarter_power_sextic(*point)))
            displayed = geochk._root_pairs(convo.quarter_power_sextic_poly(*point))
            assert repr(reported) == repr(displayed), point
        # and a sweep's rows report just those
        for p in CASES["t3.11"].points({})[:10]:
            pt = CASES["t3.11"].point(p)
            sextic = convo.quarter_power_sextic(p["alpha1"], p["alpha2"], p["t"])
            assert pt.roots_in_w and pt.roots_of == geochk._w_poly(sextic)

    @pytest.mark.parametrize(
        "case, params, memo",
        [
            ("t2.2", {"n": [1, 2]}, "halfplane"),
            ("t2.5", {"a": [0.0, 0.5]}, "extremal"),
            ("t3.8", {"n": [1], "alpha": [0.0]}, "family"),
        ],
    )
    def test_sweep_memos_die_without_the_collector(self, case, params, memo, monkeypatch):
        made, built = [], []

        class Recorded(_MapCache):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))
                build = getattr(self, memo)

                def recorded(*args):
                    f = build(*args)
                    built.append(weakref.ref(f))
                    return f

                setattr(self, memo, recorded)

        monkeypatch.setattr(geochk, "_MapCache", Recorded)
        gc.collect()
        gc.disable()
        try:
            sweep_report(case, params)
            # no reference cycle: reference counting alone frees the memos
            assert len(made) == 1 and made[0]() is None
            assert built and all(f() is None for f in built)
        finally:
            gc.enable()

    def test_sweep_builds_each_shear_and_family_target_once(self, monkeypatch):
        sheared, targets = [], []
        shear, target = geochk.slanted_halfplane, geochk.family_target
        monkeypatch.setattr(
            geochk, "slanted_halfplane", lambda g, w: sheared.append(w) or shear(g, w)
        )
        monkeypatch.setattr(
            geochk, "family_target", lambda *k: targets.append(k) or target(*k)
        )
        # t2.2's shear depends on n, not on a: 3 shears for 12 rows
        assert len(sweep_report("t2.2")) == 12 and len(sheared) == 3
        # t3.8's five members per (n, alpha) share one target
        assert len(sweep_report("t3.8", {"n": [1, 2]})) == 120
        assert sorted(targets) == sorted(
            (alpha, n, IMAGE_CURVE_ORDER) for n in (1, 2)
            for alpha in (-FAMILY_ALPHA_MAX, 0.0, FAMILY_ALPHA_MAX)
        )

    def test_rows_sorted_by_parameters(self):
        rows = sweep_report("t2.5", {"a": [0.5, -0.5, 0.0]})
        assert [r["params"]["a"] for r in rows] == [-0.5, 0.0, 0.5]


# One probe per constraint of every claim: the constraint's text, whether
# it is strict, a point on its edge, the parameter that moves, and the step
# that parts the constraint's two sides by 2 EDGE_ATOL (toward inside when
# added, outside when subtracted).  The other constraints that bind the
# point hold throughout.
EDGE_PROBES = [
    *(
        ("t2.2", "a >= (n - 2)/(n + 2)", False,
         {"n": n, "gamma": 0.0, "theta": 0.0, "a": (n - 2) / (n + 2)}, "a", 2 * EDGE_ATOL)
        for n in range(1, 6)
    ),
    ("t3.9", "alpha1 <= alpha2", False, {"n": 1, "alpha1": 0.3, "alpha2": 0.3, "t": 0.5},
     "alpha2", 2 * EDGE_ATOL),
    ("t3.11", "alpha1 <= alpha2", False, {"n": 2, "alpha1": -0.5, "alpha2": -0.5, "t": 0.5},
     "alpha2", 2 * EDGE_ATOL),
    ("t3.10", "alpha1 < alpha2", True,
     {"n": 1, "variant": 1, "alpha1": 0.3, "alpha2": 0.3, "t": 0.5}, "alpha2", 2 * EDGE_ATOL),
    ("t3.10", "abs(alpha1) > abs(alpha2)", True,
     {"n": 1, "variant": 2, "alpha1": 0.5, "alpha2": 0.5, "t": 0.5}, "alpha1", 2 * EDGE_ATOL),
    # alpha1 * alpha2 moves by 0.5 * 4 EDGE_ATOL
    ("t3.10", "alpha1*alpha2 > 0", True,
     {"n": 1, "variant": 2, "alpha1": 0.5, "alpha2": 0.0, "t": 0.5}, "alpha2", 4 * EDGE_ATOL),
    # the family bound, at -FAMILY_ALPHA_MAX (inside is up) and at
    # +FAMILY_ALPHA_MAX (inside is down)
    ("t3.8", "abs(alpha) <= 2*(sqrt(2) - 1)", False,
     {"n": 1, "alpha": -FAMILY_ALPHA_MAX, "t": 0.5}, "alpha", 2 * EDGE_ATOL),
    ("t3.8", "abs(alpha) <= 2*(sqrt(2) - 1)", False,
     {"n": 2, "alpha": FAMILY_ALPHA_MAX, "t": 0.5}, "alpha", -2 * EDGE_ATOL),
    *(
        probe
        for case, n in (("t3.9", 1), ("t3.11", 2))
        for probe in (
            (case, "abs(alpha1) <= 2*(sqrt(2) - 1)", False,
             {"n": n, "alpha1": -FAMILY_ALPHA_MAX, "alpha2": 0.5, "t": 0.5}, "alpha1",
             2 * EDGE_ATOL),
            (case, "abs(alpha2) <= 2*(sqrt(2) - 1)", False,
             {"n": n, "alpha1": -0.5, "alpha2": FAMILY_ALPHA_MAX, "t": 0.5}, "alpha2",
             -2 * EDGE_ATOL),
        )
    ),
    # variant 1 orders alpha1 < alpha2, variant 2 wants |alpha1| > |alpha2|
    # of one sign
    ("t3.10", "abs(alpha1) <= 2*(sqrt(2) - 1)", False,
     {"n": 1, "variant": 1, "alpha1": -FAMILY_ALPHA_MAX, "alpha2": 0.5, "t": 0.5}, "alpha1",
     2 * EDGE_ATOL),
    ("t3.10", "abs(alpha1) <= 2*(sqrt(2) - 1)", False,
     {"n": 2, "variant": 2, "alpha1": FAMILY_ALPHA_MAX, "alpha2": 0.5, "t": 0.5}, "alpha1",
     -2 * EDGE_ATOL),
    ("t3.10", "abs(alpha2) <= 2*(sqrt(2) - 1)", False,
     {"n": 1, "variant": 1, "alpha1": -0.5, "alpha2": FAMILY_ALPHA_MAX, "t": 0.5}, "alpha2",
     -2 * EDGE_ATOL),
    ("t2.3", "a >= 0", False, {"a": 0.0}, "a", 2 * EDGE_ATOL),
    ("t2.4", "a > 0", True, {"a": 0.0}, "a", 2 * EDGE_ATOL),
]


def _constraint(case, text):
    (c,) = [c for c in CASES[case].claim.hypothesis if c.text == text]
    return c


class TestClaims:
    def test_every_constraint_is_probed(self):
        stated = {
            (case, c.text)
            for case, spec in CASES.items()
            for c in spec.claim.hypothesis or ()
        }
        assert stated == {(case, text) for case, text, *_ in EDGE_PROBES}

    # side: (the step's share, whether the row asserts); within EDGE_ATOL of
    # the edge (a quarter step) counts as on it
    SIDES = {
        "edge": (0.0, None),
        "within-tolerance-inside": (0.25, None),
        "within-tolerance-outside": (-0.25, None),
        "inside": (1.0, True),
        "outside": (-1.0, False),
    }

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize(
        "case, text, strict, edge, name, step", EDGE_PROBES,
        ids=[
            f"{case}-{text}" + (f"-{edge['n']}" if "n" in edge else "")
            for case, text, _, edge, *_ in EDGE_PROBES
        ],
    )
    def test_edges_assert_as_the_constraint_says(
        self, case, text, strict, edge, name, step, side
    ):
        constraint = _constraint(case, text)
        assert constraint.strict is strict
        share, asserts = self.SIDES[side]
        if asserts is None:
            asserts = not strict
        p = {**edge, name: edge[name] + share * step}
        assert constraint.holds(p) is asserts
        assert (CASES[case].claim.unmet(p) is None) is asserts

    def test_constraint_binds_only_where_it_says(self):
        # variant 1's strict ordering says nothing about variant 2's points
        v1 = _constraint("t3.10", "alpha1 < alpha2")
        p = {"n": 1, "alpha1": 0.8, "alpha2": 0.3, "t": 0.5}
        assert not v1.holds({**p, "variant": 1})
        assert v1.holds({**p, "variant": 2})
        assert CASES["t3.10"].claim.unmet({**p, "variant": 2}) is None

    def test_unmet_hypothesis_opens_the_note(self):
        p = {"n": 1, "alpha1": 0.5, "alpha2": 0.5, "t": 0.5}
        claim = CASES["t3.10"].claim
        assert claim.unmet({**p, "variant": 1}) == "needs alpha1 < alpha2 strictly; "
        assert claim.unmet({**p, "variant": 2}) == (
            "needs |alpha1| > |alpha2| and alpha1*alpha2 > 0; "
        )
        assert CASES["t3.9"].claim.unmet({**p, "alpha1": 0.6}) == (
            "alpha1 > alpha2, outside the claimed range; "
        )

    @pytest.mark.parametrize("case", ["oq1", "oq2", "oq3"])
    def test_open_ended_cases_assert_nothing(self, case):
        claim = CASES[case].claim
        assert claim.hypothesis is None
        for p in CASES[case].points({}):
            assert claim.unmet(p) == "exploratory: no assertion; "
            assert claim.phi(p) == (0.0, "phi=0")

    @pytest.mark.parametrize(
        "case, p, phi, label",
        [
            ("t2.2", {"gamma": 0.0}, 0.0, "phi=-gamma=0"),
            ("t2.2", {"gamma": 0.25}, -0.25, "phi=-gamma=-0.25"),
            ("t2.3", {"a": 0.5}, 0.0, "phi=0"),
            ("t3.8", {"t": 0.5}, np.pi / 2, "phi=pi/2"),
        ],
    )
    def test_direction_and_label(self, case, p, phi, label):
        assert CASES[case].claim.phi(p) == (phi, label)

    @pytest.mark.parametrize(
        "case, name", [("t3.8", "alpha"), ("t3.9", "alpha1"), ("t3.10", "alpha2"),
                       ("t3.11", "alpha2")],
    )
    def test_family_bound_is_hmap_s_constant(self, case, name):
        # perfbench, scripts/family_margin.py and t3.8's default alphas use
        # the constant; the claims state the same float
        edge = _constraint(case, f"abs({name}) <= 2*(sqrt(2) - 1)").sides[2]
        assert geochk._value(edge, {}).hex() == FAMILY_ALPHA_MAX.hex()

    def test_default_points_meet_the_family_and_quartic_bounds(self):
        bounds = {"a >= 0", "a > 0", *(f"abs({k}) <= 2*(sqrt(2) - 1)"
                                       for k in ("alpha", "alpha1", "alpha2"))}
        checked = 0
        for spec in CASES.values():
            for c in spec.claim.hypothesis or ():
                if c.text in bounds:
                    assert all(c.holds(p) for p in spec.points({}))
                    checked += 1
        assert checked == 9

    @pytest.mark.parametrize(
        "case, params, opening",
        [
            ("t3.9", {"n": [1], "alpha1": [-1.2], "alpha2": [0.5], "t": [0.5]},
             "|alpha1| past the family bound; "),
            ("t3.8", {"n": [1], "alpha": [1.5], "t": [0.5]},
             "|alpha| past the family bound; "),
            ("t2.4", {"a": [-0.5, 0.0]}, "a <= 0, below the claimed range; "),
            ("t2.3", {"a": [-0.5]}, "a < 0, below the claimed range; "),
        ],
        ids=["t3.9-alpha1", "t3.8-alpha", "t2.4-a", "t2.3-a"],
    )
    def test_rows_past_an_edge_are_exploratory(self, case, params, opening):
        rows = sweep_report(case, params)
        assert rows and all(r["verdict"] == "exploratory" for r in rows)
        assert all(r["note"].startswith(opening) for r in rows)

    def test_below_the_quartic_range_the_grid_sees_the_excursion(self):
        (row,) = sweep_report("t2.4", {"a": [-0.5]})
        assert "dilatation exceeds (grid)" in row["note"]
        assert row["metrics"]["max_omega"] > 1.0

    def test_slant_threshold_values(self):
        edge = _constraint("t2.2", "a >= (n - 2)/(n + 2)").sides[2]
        assert geochk._value(edge, {"n": 1}) == pytest.approx(-1 / 3)
        assert geochk._value(edge, {"n": 2}) == 0.0
        assert geochk._value(edge, {"n": 4}) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 77, 78, 79, 256])
    def test_default_threshold_axis_is_distinct(self, n):
        a = [p["a"] for p in CASES["t2.2"].points({"n": [n]})]
        assert len(set(a)) == len(a)
        assert 0.95 in a

    def test_default_threshold_axis_where_the_threshold_reaches_top(self):
        assert [p["a"] for p in CASES["t2.2"].points({"n": [78]})] == [0.95, 0.8]

    def test_default_thresholds_keep_their_bits(self):
        for n in range(1, 257):
            a = [p["a"] for p in CASES["t2.2"].points({"n": [n]})]
            assert a[0].hex() == ((n - 2.0) / (n + 2.0)).hex()

    def test_t22_rows_at_the_threshold_edge(self):
        # one sweep per point: the three share the curve label a=0.2
        rows = [
            sweep_report("t2.2", {"n": [3], "a": [a]})[0] for a in (0.2 - 2e-12, 0.2, 0.2 + 2e-12)
        ]
        assert [r["verdict"] for r in rows] == ["exploratory", "pass", "pass"]
        below = "below the monomial threshold, no claim made; dilatation "
        assert rows[0]["note"].startswith(below)
        assert all(r["note"].startswith("dilatation certified") for r in rows[1:])


# The convexity routes' closed forms for weight * A', A = h - e^{2i phi} g,
# written out here from the identities, independently of the builders.
def _cayley(u):
    return (1.0 - u) / (1.0 + u)


def _halfplane_form(p, z, omega):
    """(1 - e^{i gamma} z)^2 and 1/2 C(e^{-2i gamma} omega) + kappa C(-e^{i gamma} z)."""
    e = np.exp(1j * p.get("gamma", 0.0))
    kappa = (1.0 - p["a"]) / (2.0 * (1.0 + p["a"]))
    return (1.0 - e * z) ** 2, 0.5 * _cayley(omega / (e * e)) + kappa * _cayley(-e * z)


def _strip_form(p, z, omega):
    """(1 + z^2) and 1/2 C(omega) + 1/2 C(z^2)."""
    return 1.0 + z * z, 0.5 * _cayley(omega) + 0.5 * _cayley(z * z)


def _residue_sum(alpha, w):
    """q_alpha(w) as sum_k c_k (zeta_k + w)/(zeta_k - w) over zeta_k^4 = -1."""
    total = 0.0
    for zeta in np.exp(1j * np.pi * np.array([0.25, 0.75, 1.25, 1.75])):
        c = (2.0 + np.sign(zeta.real) * np.sqrt(2.0) * alpha) / 8.0
        total = total + c * (zeta + w) / (zeta - w)
    return total


def _family_form(p, z):
    """(1 - z^2) and t q_alpha1(w) + (1 - t) q_alpha2(w), w = z^{2^(n-1)}."""
    w = z ** (2 ** (p["n"] - 1))
    a1, a2 = (p["alpha"],) * 2 if "alpha" in p else (p["alpha1"], p["alpha2"])
    return 1.0 - z * z, p["t"] * _residue_sum(a1, w) + (1.0 - p["t"]) * _residue_sum(a2, w)


def _mobius_power(b, theta, n, z):
    return np.exp(1j * theta) * (b - z**n) / (1.0 - b * z**n)


def _blaschke_power(b, theta, n, z):
    return np.exp(1j * theta) * ((b - z) / (1.0 - b * z)) ** n


_ROUTE_FORMS = {
    "t2.2": lambda p, z: _halfplane_form(p, z, np.exp(1j * p["theta"]) * z ** p["n"]),
    "t2.3": lambda p, z: _halfplane_form(p, z, _mobius_power(p["a"], 0.0, 2, z)),
    "t2.4": lambda p, z: _halfplane_form(p, z, _blaschke_power(p["a"], np.pi, 2, z)),
    "t2.5": lambda p, z: _strip_form(p, z, _mobius_power(p["a"], 0.0, 2, z)),
    "t3.8": _family_form,
    "t3.9": _family_form,
    "t3.10": _family_form,
    "t3.11": _family_form,
    "oq1": lambda p, z: _halfplane_form(p, z, _mobius_power(p["b"], p["theta"], p["n"], z)),
    "oq2": lambda p, z: _halfplane_form(p, z, _blaschke_power(p["b"], p["theta"], p["n"], z)),
    "oq3": lambda p, z: _strip_form(p, z, _blaschke_power(p["a"], p["theta"], p["n"], z)),
}

_DISK = st.floats(-0.9, 0.9)
_ANGLE = st.floats(-3.0, 3.0)
_ALPHA = st.floats(-1.9, 1.9)
_WEIGHT = st.floats(0.0, 1.0)


def _family_points(ns, **axes):
    return st.fixed_dictionaries(
        {"n": st.sampled_from(ns), "alpha1": _ALPHA, "alpha2": _ALPHA, "t": _WEIGHT, **axes}
    )


def _t38_point(n, alpha, pair, t):
    omega1, omega2 = (label for label, _ in geochk._t38_menu(n)[pair])
    return {"n": n, "alpha": alpha, "omega1": omega1, "omega2": omega2, "t": t}


# random in-domain points of each case
_ROUTE_POINTS = {
    "t2.2": st.fixed_dictionaries(
        {"n": st.integers(1, 5), "gamma": _ANGLE, "theta": _ANGLE, "a": _DISK}
    ),
    "t2.3": st.fixed_dictionaries({"a": _DISK}),
    "t2.4": st.fixed_dictionaries({"a": _DISK}),
    "t2.5": st.fixed_dictionaries({"a": _DISK}),
    "t3.8": st.builds(_t38_point, st.integers(1, 3), _ALPHA, st.integers(0, 3), _WEIGHT),
    "t3.9": _family_points((1, 2)),
    "t3.10": _family_points((1, 2), variant=st.sampled_from((1, 2))),
    "t3.11": _family_points((2, 3)),
    "oq1": st.fixed_dictionaries(
        {"n": st.integers(1, 4), "theta": _ANGLE, "a": _DISK, "b": _DISK}
    ),
    "oq2": st.fixed_dictionaries(
        {"n": st.integers(1, 4), "theta": _ANGLE, "a": _DISK, "b": _DISK}
    ),
    "oq3": st.fixed_dictionaries({"n": st.integers(1, 4), "theta": _ANGLE, "a": _DISK}),
}

# 200 seeded points with |z| <= 0.6
_RNG = np.random.default_rng(20170)
ROUTE_ZS = 0.6 * np.sqrt(_RNG.random(200)) * np.exp(2j * np.pi * _RNG.random(200))


class TestConvexityRoutes:
    @pytest.mark.parametrize("case", CASE_IDS)
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(data=st.data())
    def test_weight_times_a_prime_is_the_routes_closed_form(self, case, data):
        # the built series map against the identity its claim's route rests on
        spec = CASES[case]
        p = data.draw(_ROUTE_POINTS[case])
        f = spec.build(p, IMAGE_CURVE_ORDER, _MapCache())
        phi, _ = spec.claim.phi(p)
        A = f.h.subtract(f.g.scale(np.exp(2j * phi)))
        weight, closed = _ROUTE_FORMS[case](p, ROUTE_ZS)
        got = weight * A.differentiate()(ROUTE_ZS)
        assert np.max(np.abs(got - closed)) <= 1e-12 * np.max(np.abs(closed)), p

    def test_routes_name_their_identity(self):
        family = {"t3.8", "t3.9", "t3.10", "t3.11"}
        for case, spec in CASES.items():
            assert spec.claim.route == ("family-residues" if case in family else "cayley-sum")
            # the Cayley sum holds for every in-domain point
            assert (spec.claim.premises == ()) is (case not in family)

    @pytest.mark.parametrize(
        "alpha, certified",
        [
            (0.0, True),
            (np.sqrt(2.0) - 4 * EDGE_ATOL, True),
            # strict: within EDGE_ATOL of the edge, and on it, no certificate
            (np.sqrt(2.0) - EDGE_ATOL / 2, False),
            (np.sqrt(2.0), False),
            (-np.sqrt(2.0), False),
            (1.5, False),
        ],
    )
    def test_family_premise_is_strict_at_sqrt_2(self, alpha, certified):
        p = {"n": 1, "alpha1": -0.5, "alpha2": alpha, "t": 0.5}
        missed = CASES["t3.9"].claim.missed_premise(p)
        assert (missed is None) is certified
        assert certified or missed == "|alpha2| >= sqrt(2)"

    def test_default_rows_are_certified(self):
        for spec in CASES.values():
            assert all(spec.claim.missed_premise(p) is None for p in spec.points({}))

    def test_past_sqrt_2_rows_say_no_certificate(self, tmp_path):
        code = harness.main(
            ["explore", "t3.8", "--alpha", "1.5", "--formats", "json", "--outdir", str(tmp_path)]
        )
        assert code == 0
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert len(rows) == 60
        for r in rows:
            assert r["verdict"] == "exploratory"
            assert "convexity phi=pi/2: no certificate (|alpha| >= sqrt(2)); sampled" in r["note"]

    def test_a_withheld_sampled_check_decides_nothing(self, monkeypatch):
        monkeypatch.setattr(
            geochk, "convex_in_direction", lambda *args, **kw: geochk.ConvexityReport(note="stub")
        )
        (row,) = sweep_report("t2.3", {"a": [0.5]})
        assert row["verdict"] == "pass"
        assert row["note"].endswith(
            "convexity phi=0: certified (cayley-sum); sampled |z|=0.9: withheld (stub)"
        )
        assert row["metrics"]["min_hs"] is None

    @pytest.mark.parametrize("case, a", [("t2.3", 0.05), ("t2.3", 0.1), ("t2.4", 0.05)])
    def test_a_truncated_series_withholds_no_certified_row(self, case, a):
        # an order-384 series read |g'/h'| > 1 near |z| = 0.95 on these
        # rows, where the closed form gives 0.80305 (t2.3, a = 0.05); local
        # univalence is the certificate's to judge, and it holds
        (row,) = sweep_report(case, {"a": [a]})
        assert row["verdict"] == "pass"
        assert "dilatation certified (cohn-chain)" in row["note"]
        assert row["note"].endswith("sampled |z|=0.9: max 2 crossings")
        assert np.isfinite(row["metrics"]["min_hs"])

    def test_the_sampled_check_reads_no_dilatation(self):
        # |g'/h'| = 1.2: not sense-preserving, yet A = h - g = -0.2 z is
        # counted; the row's certificate, not this check, says so
        f = HarmonicMap(h=monomial(1, 8), g=monomial(1, 8).scale(1.2))
        rep = convex_in_direction(f, 0.0)
        assert (rep.passed, rep.crossing_max) == (True, 2)

    @pytest.mark.parametrize(
        "case, params, verdict",
        [
            ("t3.9", {"n": 1, "alpha1": 0.5, "alpha2": -0.5, "t": 0.5}, "exceeds"),
            ("t3.10", {"n": 1, "variant": 1, "alpha1": 0.3, "alpha2": 0.3, "t": 0.5},
             "indeterminate"),
            ("oq3", {"n": 2, "a": 0.5}, "exceeds"),
        ],
    )
    def test_an_uncertified_row_states_its_certificates_reason(self, case, params, verdict):
        (row,) = sweep_report(case, params)
        cert = convo.certify_bounded(CASES[case].point(row["params"]).closed)
        assert cert.verdict == verdict
        assert f"dilatation {verdict} (grid); {cert.note}; convexity" in row["note"]

    def test_a_missed_premise_leaves_an_asserted_row_indeterminate(self, monkeypatch):
        claim = replace(
            CASES["t3.8"].claim, premises=(geochk.Constraint("abs(alpha) < 0.1", "|alpha| >= 0.1"),)
        )
        monkeypatch.setitem(CASES, "t3.8", replace(CASES["t3.8"], claim=claim))
        rows = sweep_report("t3.8", {"n": [1], "alpha": [0.0, 0.5], "t": [0.5]})
        assert [r["verdict"] for r in rows] == ["pass"] * 4 + ["indeterminate"] * 4
        assert all("convexity phi=pi/2: no certificate (|alpha| >= 0.1)" in r["note"]
                   for r in rows[4:])


class TestOneMapPerRow:
    @pytest.mark.parametrize("case", CASE_IDS)
    def test_each_row_builds_its_map_once_at_the_curve_order(self, case, monkeypatch):
        # the sampled check reads the very map the image curves draw
        built, checked = [], []
        spec = CASES[case]

        def build(p, order, maps):
            f = spec.build(p, order, maps)
            built.append((order, f))
            return f

        check = geochk.convex_in_direction
        monkeypatch.setitem(CASES, case, replace(spec, build=build))
        monkeypatch.setattr(
            geochk, "convex_in_direction", lambda f, phi: checked.append(f) or check(f, phi)
        )
        curve_maps = {}
        rows = sweep_report(case, curve_maps=curve_maps)
        assert [order for order, _ in built] == [IMAGE_CURVE_ORDER] * len(rows)
        assert [id(f) for _, f in built] == [id(f) for f in checked]
        stored = {id(f) for f in curve_maps.values()}
        assert stored == {id(f) for f in checked} and len(stored) == len(rows)

    # The default rows whose crossing count reads 4 on |z| = 0.9 or on
    # |z| = 0.95: the order-128 map counts what a build at 1024 counts.
    @pytest.mark.parametrize(
        "case, params",
        [
            ("t2.2", {"n": 1, "a": 0.95}),
            ("t2.2", {"n": 2, "a": 0.95}),
            ("t2.2", {"n": 3, "a": 0.95}),
            ("t2.4", {"a": 0.85}),
            ("t2.4", {"a": 0.9}),
            ("t2.4", {"a": 0.95}),
        ],
    )
    def test_the_curve_order_counts_what_order_1024_counts(self, case, params):
        spec = CASES[case]
        (p,) = spec.points({k: [v] for k, v in params.items()})
        phi, _ = spec.claim.phi(p)
        maps = _MapCache()
        got = convex_in_direction(spec.build(p, IMAGE_CURVE_ORDER, maps), phi)
        want = convex_in_direction(spec.build(p, 1024, maps), phi)
        assert got.crossing_max == want.crossing_max
        assert got.min_hs_value == pytest.approx(want.min_hs_value, rel=1e-3)


class TestImageCurves:
    def test_param_id_is_deterministic(self):
        row = {"params": {"a": 0.5, "n": 2, "gamma": 0.0}}
        assert row_param_id(row) == "a=0.5,gamma=0,n=2"

    def test_curves_align_with_rows(self):
        curve_maps = {}
        rows = sweep_report("t2.5", {"a": [0.0, 0.5]}, curve_maps=curve_maps)
        curves = image_curves(rows, curve_maps)
        assert [pid for pid, _ in curves] == [row_param_id(r) for r in rows]
        assert not curve_maps  # the curves took every map out
        for _, curve in curves:
            assert curve.shape == (IMAGE_CURVE_POINTS,)
            assert np.all(np.isfinite(curve.view(float)))

    def test_a_row_not_handed_over_is_a_key_error(self):
        curve_maps = {}
        rows = sweep_report("t2.5", {"a": [0.0, 0.5]}, curve_maps=curve_maps)
        curve_maps.popitem()
        with pytest.raises(KeyError):
            image_curves(rows, curve_maps)

    @pytest.mark.parametrize(
        "case, params",
        [
            ("t2.3", {"a": [0.25, 0.75]}),
            ("t2.5", {"a": [-0.5, 0.5]}),
            ("t3.9", {"n": [2], "alpha1": [-0.5], "alpha2": [0.5]}),
        ],
        ids=["halfplane", "strip", "combined"],
    )
    def test_run_curves_are_the_maps_built_at_their_order(
        self, case, params, tmp_path, monkeypatch
    ):
        handed = []

        def recording(rows, curve_maps):
            assert len(curve_maps) == len(rows)
            handed.append((rows, image_curves(rows, curve_maps)))
            assert not curve_maps  # the curves took every map out
            return handed[-1][1]

        monkeypatch.setattr(harness, "image_curves", recording)
        cfg = harness.RunConfig(case=case, params=params, outdir=str(tmp_path), formats=("csv",))
        harness.run(cfg)
        ((rows, curves),) = handed
        m = IMAGE_CURVE_POINTS
        zs = DEFAULT_CURVE_RADIUS * np.exp(1j * (2.0 * np.pi) * np.arange(m) / m)
        assert [pid for pid, _ in curves] == [row_param_id(r) for r in rows]
        for row, (_, curve) in zip(rows, curves):
            f = CASES[case].build(row["params"], IMAGE_CURVE_ORDER, _MapCache())
            assert f(zs).tobytes() == curve.tobytes(), row_param_id(row)

    def test_curves_match_direct_reconstruction(self):
        curve_maps = {}
        rows = sweep_report("t2.3", {"a": [0.5]}, curve_maps=curve_maps)
        (_, curve), = image_curves(rows, curve_maps)
        N = IMAGE_CURVE_ORDER
        f = convolve(
            f_a_alpha(0.5, 0.0, N),
            slanted_halfplane(0.0, mobius_power_dilatation(0.5, 0.0, 2).series(N)),
        )
        m = IMAGE_CURVE_POINTS
        zs = DEFAULT_CURVE_RADIUS * np.exp(1j * 2 * np.pi * np.arange(m) / m)
        np.testing.assert_allclose(curve, f(zs), atol=1e-12)
