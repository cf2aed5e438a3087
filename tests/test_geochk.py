"""Geometry instruments and the sweep driver: grid validation, the
crossing-count curve test on shapes with known answers, and verdict rows
for representative parameter slices of each case."""

import numpy as np
import pytest

from harmconv import convo
from harmconv.convo import RationalFunction, convolve, mobius_power_dilatation
from harmconv.cpoly import ComplexPolynomial
from harmconv.geochk import (
    CASE_IDS,
    DiskGrid,
    LocalUnivalenceFailure,
    convex_in_direction,
    hengartner_schober,
    image_curves,
    line_crossing_counts,
    max_dilatation_modulus,
    row_param_id,
    sweep_report,
)
from harmconv.hmap import HarmonicMap, f_a_alpha, slanted_halfplane
from harmconv.series import PowerSeries, geometric, monomial, zeros

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


class TestInstruments:
    def test_max_dilatation_of_analytic_map_is_zero(self):
        f = HarmonicMap(h=geometric(32), g=zeros(32))
        assert max_dilatation_modulus(f, GRID) == 0.0

    def test_max_dilatation_of_mobius(self):
        # |(a-z)/(1-az)| over |z| <= r peaks at z = -r
        a = 0.5
        f = f_a_alpha(a, 0.0, 256)
        r = GRID.radii[-1]
        expect = (a + r) / (1 + a * r)
        assert max_dilatation_modulus(f, GRID) == pytest.approx(expect, abs=1e-6)

    def test_vanishing_derivative_raises(self):
        # h' = 1 - 5z vanishes at z = 0.2, a grid point
        f = HarmonicMap(h=PowerSeries([0.0, 1.0, -2.5]), g=zeros(2))
        with pytest.raises(LocalUnivalenceFailure):
            max_dilatation_modulus(f, DiskGrid(radii=(0.2,), angles_per_ring=4))

    def test_hengartner_schober_of_identity(self):
        # Re((1-z^2) * 1) = 1 - Re z^2 >= 1 - r_max^2
        got = hengartner_schober(monomial(1, 8), GRID)
        assert got == pytest.approx(1 - GRID.radii[-1] ** 2, abs=1e-12)

    def test_hengartner_schober_positive_for_halfplane_target(self):
        # (1-z^2)/(1-z)^2 = (1+z)/(1-z) has positive real part
        assert hengartner_schober(geometric(512), GRID) > 0.0


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
            rep = convex_in_direction(f, phi, grid=GRID)
            assert rep.passed is True
            assert rep.crossing_max <= 2

    def test_imaginary_direction_reports_hs_functional(self):
        f = f_a_alpha(0.3, 0.0, 256)
        rep = convex_in_direction(f, 0.0, grid=GRID)
        assert rep.min_hs_value is not None

    def test_detects_nonconvex_subdisk_image(self):
        # convolving the a = 0.95 half-plane extremal with the z^2 shear
        # gives a map whose |z| < 0.9 image genuinely wiggles, even though
        # the full-disk image is convex in the real direction
        f = convolve(
            f_a_alpha(0.95, 0.0, 384),
            slanted_halfplane(0.0, monomial(2, 384), 384),
        )
        rep = convex_in_direction(f, 0.0, grid=GRID, r_max=0.9)
        assert rep.passed is False
        assert rep.crossing_max >= 4

    def test_sense_reversal_withholds_verdict(self):
        f = HarmonicMap(h=monomial(1, 8), g=monomial(1, 8, coeff=1.2))
        rep = convex_in_direction(f, 0.0, grid=GRID)
        assert rep.passed is None
        assert rep.univalence_failure is not None
        assert "sense-preserving" in rep.note

    def test_boundary_tight_flag(self):
        c = 1.0 - 1e-12
        f = HarmonicMap(h=monomial(1, 8), g=monomial(1, 8, coeff=c))
        rep = convex_in_direction(f, 0.0, grid=GRID)
        assert rep.passed is True
        assert rep.boundary_tight


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

    def test_rows_sorted_by_parameters(self):
        rows = sweep_report("t2.5", {"a": [0.5, -0.5, 0.0]})
        assert [r["params"]["a"] for r in rows] == [-0.5, 0.0, 0.5]


class TestImageCurves:
    def test_param_id_is_deterministic(self):
        row = {"params": {"a": 0.5, "n": 2, "gamma": 0.0}}
        assert row_param_id(row) == "a=0.5,gamma=0,n=2"

    def test_curves_align_with_rows(self):
        rows = sweep_report("t2.5", {"a": [0.0, 0.5]})
        curves = image_curves("t2.5", rows, order=64, n_points=128)
        assert [pid for pid, _ in curves] == [row_param_id(r) for r in rows]
        for _, curve in curves:
            assert curve.shape == (128,)
            assert np.all(np.isfinite(curve.view(float)))

    def test_curves_match_direct_reconstruction(self):
        rows = sweep_report("t2.3", {"a": [0.5]})
        (_, curve), = image_curves("t2.3", rows, order=64, n_points=64, radius=0.8)
        f = convolve(
            f_a_alpha(0.5, 0.0, 64),
            slanted_halfplane(0.0, mobius_power_dilatation(0.5, 0.0, 2).series(64), 64),
        )
        zs = 0.8 * np.exp(1j * 2 * np.pi * np.arange(64) / 64)
        np.testing.assert_allclose(curve, f(zs), atol=1e-12)
