"""Geometry instruments and the sweep driver: grid validation, the
crossing-count curve test on shapes with known answers, and verdict rows
for representative parameter slices of each case."""

import numpy as np
import pytest

from harmconv import convo, geochk
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
from harmconv.hmap import HarmonicMap, f_a_alpha, slanted_halfplane
from harmconv.series import PowerSeries, geometric, monomial

# smaller than the default grid; plenty for unit-level assertions
GRID = DiskGrid(radii=(0.2, 0.5, 0.8, 0.9), angles_per_ring=180)


class TestDiskGrid:
    def test_points_cover_rings(self):
        g = DiskGrid(radii=(0.5, 0.9), angles_per_ring=8)
        assert g.points.shape == (16,)
        np.testing.assert_allclose(
            sorted(set(np.round(np.abs(g.points), 12))), [0.5, 0.9]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskGrid(radii=())
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.0, 0.5))
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5, 1.0))
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5, 0.5))
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5,), angles_per_ring=3)

    def test_capped_keeps_inner_rings(self):
        g = DiskGrid(radii=(0.2, 0.5, 0.9))
        assert g.capped(0.6).radii == (0.2, 0.5)
        # capping below the innermost ring falls back to a single ring
        assert g.capped(0.1).radii == (0.1,)

    def test_capped_grid_is_built_once(self):
        g = DiskGrid()
        assert g.capped(0.95) is g.capped(0.95)

    @pytest.mark.parametrize("radii", [(0.5,), (0.2, 0.5, 0.9)])
    @pytest.mark.parametrize("order", [5, 7, 8, 30])
    def test_sample_is_each_rings_on_circle_bit_for_bit(self, radii, order):
        # 8 angles per ring: orders below, at and past one fold
        g = DiskGrid(radii=radii, angles_per_ring=8)
        rng = np.random.default_rng(order)
        cs = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        cs[::3] = complex(-0.0, -0.0)
        F = PowerSeries(cs)
        want = np.concatenate([F.on_circle(r, 8) for r in radii])
        got = g.sample(F)
        assert got.shape == g.points.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sample_on_the_default_grid(self):
        g = DiskGrid()
        F = slanted_halfplane(0.0, monomial(2, 384), 384).h
        want = np.concatenate([F.on_circle(r, g.angles_per_ring) for r in g.radii])
        assert np.array_equal(g.sample(F).view(np.uint64), want.view(np.uint64))

    def test_angles_per_ring_is_bounded_before_anything_is_allocated(self, monkeypatch):
        def never(self):
            raise AssertionError("grid points were computed")

        monkeypatch.setattr(DiskGrid, "points", property(never))
        with pytest.raises(ValueError, match="angles_per_ring must be at most 65536"):
            DiskGrid(angles_per_ring=10**8)
        edge = DiskGrid(radii=(0.5,), angles_per_ring=convo.MAX_ANGLES_PER_RING)
        assert edge.angles_per_ring == 65536


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


# the curve ladder's gate grid, the full default grid and the small one
HS_GRIDS = {
    "gate": convo.DEFAULT_GRID.capped(0.95),
    "default": convo.DEFAULT_GRID,
    "small": GRID,
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
            slanted_halfplane(0.0, monomial(2, 384), 384),
        )
        rep = convex_in_direction(f, 0.0, r_max=0.9)
        assert rep.passed is False
        assert rep.crossing_max >= 4

    def test_sense_reversal_withholds_verdict(self):
        f = HarmonicMap(h=monomial(1, 8), g=monomial(1, 8, coeff=1.2))
        rep = convex_in_direction(f, 0.0)
        assert rep.passed is None
        assert "> 1 at z = " in rep.note
        assert "sense-preserving" in rep.note

    def test_gate_accepts_ratio_just_below_one(self):
        c = 1.0 - 1e-12
        f = HarmonicMap(h=monomial(1, 8), g=monomial(1, 8, coeff=c))
        rep = convex_in_direction(f, 0.0)
        assert rep.passed is True

    def test_gate_passes_analytic_map(self):
        f = HarmonicMap(h=geometric(32), g=PowerSeries([0.0] * 33))
        rep = convex_in_direction(f, 0.0)
        assert rep.passed is not None

    def test_gate_reads_mobius_dilatation_modulus(self):
        # |(a-z)/(1-az)| over |z| <= r peaks at z = -r, so scaling g by
        # (1 +- 1e-6) / that peak puts the gate's maximum at 1 +- 1e-6
        a, r = 0.5, convo.DEFAULT_GRID.capped(DEFAULT_CURVE_RADIUS).radii[-1]
        f = f_a_alpha(a, 0.0, 256)
        peak = (a + r) / (1 + a * r)
        over = HarmonicMap(h=f.h, g=f.g.scale((1.0 + 1e-6) / peak))
        rep = convex_in_direction(over, 0.0)
        assert rep.passed is None
        assert f"> 1 at z = {complex(-r, 0.0):.6f}; not sense-preserving" in rep.note
        under = HarmonicMap(h=f.h, g=f.g.scale((1.0 - 1e-6) / peak))
        rep = convex_in_direction(under, 0.0)
        assert rep.passed is not None

    def test_gate_withholds_on_vanishing_derivative(self):
        # h' = 1 - 5z vanishes at z = 0.2, a grid point
        f = HarmonicMap(h=PowerSeries([0.0, 1.0, -2.5]), g=PowerSeries([0.0] * 3))
        rep = convex_in_direction(f, 0.0)
        assert rep.passed is None
        assert "at z = 0.200000+0.000000j; local univalence unresolved" in rep.note

    @pytest.mark.parametrize("part", ["h", "g"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gate_withholds(self, part, bad):
        cs = [0.0, 1.0, 0.0, 0.5, bad]
        f = HarmonicMap(h=PowerSeries(cs), g=PowerSeries([0.0] * 5))
        if part == "g":
            f = HarmonicMap(h=monomial(1, 4), g=PowerSeries([0.0, 0.1, 0.0, 0.0, bad]))
        rep = convex_in_direction(f, 0.0)
        assert rep.passed is None
        assert "non-finite" in rep.note

    def test_boundary_overflow_withholds(self):
        # every coefficient of h' is 1.4e308: h' stays finite on the gate
        # ring 0.2, even inside Horner's scheme, while h on |z| = 0.99
        # sums to about 2.6e308, past the largest double
        h = PowerSeries([0.0] * 10 + [1.4e308 / k for k in range(10, 2001)])
        f = HarmonicMap(h=h, g=PowerSeries([0.0] * 2001))
        assert np.isfinite(hengartner_schober(h, DiskGrid(radii=(0.2,))))
        with np.errstate(over="ignore", invalid="ignore"):
            rep = convex_in_direction(f, 0.0, r_max=0.99, gate_radius=0.2)
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
        reduction = (A.on_circle(0.9, m) * np.exp(-1j * phi)).imag
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

    def test_paired_axes_need_matching_lengths(self):
        with pytest.raises(ValueError, match="paired, not crossed"):
            sweep_report("t3.9", {"alpha1": [0.1, 0.2], "alpha2": [0.3, 0.4, 0.5]})
        with pytest.raises(ValueError, match="paired, not crossed"):
            sweep_report("t3.9", {"alpha1": [0.1]})

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

    def test_extremal_map_is_built_once_per_sweep(self, monkeypatch):
        built = []

        def counted(a, alpha, N):
            built.append((a, alpha, N))
            return f_a_alpha(a, alpha, N)

        monkeypatch.setattr(geochk, "f_a_alpha", counted)
        # three strip rows, each decided on the first rung, share f_{0,0}
        rows = sweep_report("t2.5", {"a": [-0.5, 0.0, 0.5]})
        assert [r["verdict"] for r in rows] == ["pass"] * 3
        assert built == [(0.0, 0.0, geochk.CURVE_LADDER[0][1])]
        # the cache lives for one sweep: a second sweep builds it again
        sweep_report("t2.5", {"a": [0.5]})
        assert len(built) == 2

    def test_cached_extremal_map_is_the_built_one(self):
        cache = _MapCache()
        f = cache.extremal(0.3, 64)
        assert cache.extremal(0.3, 64) is f
        assert f == f_a_alpha(0.3, 0.0, 64)
        assert cache.extremal(0.3, 32) == f_a_alpha(0.3, 0.0, 32)

    def test_rows_sorted_by_parameters(self):
        rows = sweep_report("t2.5", {"a": [0.5, -0.5, 0.0]})
        assert [r["params"]["a"] for r in rows] == [-0.5, 0.0, 0.5]


class TestImageCurves:
    def test_param_id_is_deterministic(self):
        row = {"params": {"a": 0.5, "n": 2, "gamma": 0.0}}
        assert row_param_id(row) == "a=0.5,gamma=0,n=2"

    def test_curves_align_with_rows(self):
        rows = sweep_report("t2.5", {"a": [0.0, 0.5]})
        curves = image_curves("t2.5", rows)
        assert [pid for pid, _ in curves] == [row_param_id(r) for r in rows]
        for _, curve in curves:
            assert curve.shape == (IMAGE_CURVE_POINTS,)
            assert np.all(np.isfinite(curve.view(float)))

    def test_curves_match_direct_reconstruction(self):
        rows = sweep_report("t2.3", {"a": [0.5]})
        (_, curve), = image_curves("t2.3", rows)
        N = IMAGE_CURVE_ORDER
        f = convolve(
            f_a_alpha(0.5, 0.0, N),
            slanted_halfplane(0.0, mobius_power_dilatation(0.5, 0.0, 2).series(N), N),
        )
        m = IMAGE_CURVE_POINTS
        zs = DEFAULT_CURVE_RADIUS * np.exp(1j * 2 * np.pi * np.arange(m) / m)
        np.testing.assert_allclose(curve, f(zs), atol=1e-12)
