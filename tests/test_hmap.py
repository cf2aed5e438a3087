"""Harmonic-map layer: the shear construction and its inverse identity, the
named target families, and parameter validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmconv.hmap import (
    FAMILY_ALPHA_MAX,
    FamilyParams,
    HarmonicMap,
    SlantParams,
    dilatation_series,
    f_a_alpha,
    family_f_alpha_n,
    shear,
    slanted_halfplane,
    strip_map,
)
from harmconv.series import (
    PowerSeries,
    arctangent,
    family_sum_polynomials,
    geometric,
    halfplane_parts,
    log_inverse,
    monomial,
    rational_series,
)

finite = st.floats(-1.5, 1.5, allow_nan=False)
coefficient = st.builds(complex, finite, finite)

PTS = np.array([0.25 + 0.3j, -0.4, 0.1 - 0.45j, -0.3 + 0.2j, 0.5j])


def assert_series_close(s, t, atol=1e-11):
    assert s.order == t.order
    np.testing.assert_allclose(
        np.asarray(s.coeffs), np.asarray(t.coeffs), atol=atol, rtol=0
    )


@st.composite
def targets(draw, order=10):
    """Analytic targets with F(0) = 0 and F'(0) = 1."""
    tail = draw(st.lists(coefficient, min_size=0, max_size=order - 1))
    return PowerSeries([0j, 1.0 + 0j] + tail + [0j] * (order - 1 - len(tail)))


@st.composite
def dilatations(draw, order=10):
    """Series kept well inside the unit ball near 0 so the shear
    denominator is safely invertible."""
    cs = draw(st.lists(coefficient, min_size=1, max_size=order + 1))
    cs = cs + [0j] * (order + 1 - len(cs))
    scale = 0.5 / max(1.0, max(abs(c) for c in cs))
    return PowerSeries([c * scale for c in cs])


class TestHarmonicMap:
    def test_call_conjugates_coanalytic_part(self):
        f = HarmonicMap(h=monomial(1, 4), g=monomial(2, 4, coeff=0.5j))
        z = 0.3 + 0.2j
        assert f(z) == pytest.approx(z + np.conjugate(0.5j * z * z))

    def test_normalization_reads_low_coefficients(self):
        f = f_a_alpha(0.4, 0.0, 8)
        assert f.h.at_order(0) == 0 and f.g.at_order(0) == 0
        assert f.h.at_order(1) == pytest.approx(1 / 1.4)
        assert f.g.at_order(1) == pytest.approx(0.4 / 1.4)


class TestShear:
    @given(targets(), dilatations(), st.floats(-1.5, 1.5))
    def test_recovers_target(self, F, omega, gamma):
        f = shear(F, omega, gamma)
        recovered = f.h.add(f.g.scale(np.exp(-2j * gamma)))
        assert_series_close(recovered, F, atol=1e-9)

    @given(targets(), dilatations(), st.floats(-1.5, 1.5))
    def test_dilatation_round_trips(self, F, omega, gamma):
        f = shear(F, omega, gamma)
        w = dilatation_series(f)  # one order short: differentiation drops one
        assert_series_close(w, omega.truncated(w.order), atol=1e-8)

    def test_rejects_nonvanishing_target(self):
        F = PowerSeries([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="vanish"):
            shear(F, monomial(1, 2), 0.0)

    def test_rejects_singular_denominator(self):
        # omega(0) = -e^{2i gamma} makes 1 + e^{-2i gamma} omega vanish
        gamma = 0.6
        omega = PowerSeries([-np.exp(2j * gamma), 0.0, 0.0])
        with pytest.raises(ValueError, match="denominator"):
            shear(geometric(2), omega, gamma)

    def test_truncation_argument_pads_short_dilatations(self):
        f = shear(geometric(32), monomial(2, 2), 0.0, N=32)
        assert f.h.order == f.g.order == 32
        # the monomial's implicit zero tail is exact, so the full-order
        # construction agrees with the padded one
        g = shear(geometric(32), monomial(2, 32), 0.0)
        assert f == g


class TestHalfplaneExtremal:
    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.3, 0.9])
    @pytest.mark.parametrize("alpha", [0.0, 0.8, -2.0])
    def test_matches_coefficient_formulas(self, a, alpha):
        f = f_a_alpha(a, alpha, 32)
        h, g = halfplane_parts(a, alpha, 32)
        assert_series_close(f.h, h)
        assert_series_close(f.g, g)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.3, 0.9])
    def test_shear_target_identity(self, a):
        alpha = 0.9
        f = f_a_alpha(a, alpha, 32)
        recovered = f.h.add(f.g.scale(np.exp(-2j * alpha)))
        assert_series_close(recovered, geometric(32, alpha))

    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.3, 0.9])
    def test_dilatation_is_mobius(self, a):
        w = dilatation_series(f_a_alpha(a, 0.0, 48))
        np.testing.assert_allclose(
            w(PTS), (a - PTS) / (1 - a * PTS), atol=1e-10
        )

    def test_rotation_identity(self):
        a, alpha = 0.6, 1.2
        rot = np.exp(1j * alpha)
        f = f_a_alpha(a, alpha, 64)
        f0 = f_a_alpha(a, 0.0, 64)
        np.testing.assert_allclose(
            f(PTS), np.exp(-1j * alpha) * f0(rot * PTS), atol=1e-10
        )

    def test_is_its_own_shear(self):
        # feeding the map's dilatation back through the construction
        # reproduces it
        a, alpha = 0.5, 0.4
        f = f_a_alpha(a, alpha, 24)
        rebuilt = shear(geometric(24, alpha), dilatation_series(f), alpha)
        assert_series_close(rebuilt.h, f.h, atol=1e-9)
        assert_series_close(rebuilt.g, f.g, atol=1e-9)

    def test_rejects_boundary_parameter(self):
        with pytest.raises(ValueError):
            f_a_alpha(1.0, 0.0, 8)
        with pytest.raises(ValueError):
            f_a_alpha(-1.0, 0.0, 8)


class TestNamedTargets:
    def test_slanted_halfplane_normalization(self):
        f = slanted_halfplane(0.7, monomial(1, 16), 16)
        assert (f.h.at_order(0), f.g.at_order(0), f.g.at_order(1)) == (0, 0, 0)
        assert f.h.at_order(1) == pytest.approx(1.0)

    def test_strip_map_target(self):
        f = strip_map(monomial(2, 20), 20)
        assert_series_close(f.h.add(f.g), arctangent(20))

    def test_family_target_is_coefficient_product(self):
        alpha, n = 0.5, 2
        f = family_f_alpha_n(alpha, n, monomial(1, 32), 32)
        prefactor = rational_series(*family_sum_polynomials(n, alpha), 32)
        assert_series_close(f.h.add(f.g), prefactor.hadamard(log_inverse(32)))

    def test_family_rejects_alpha_outside_interval(self):
        with pytest.raises(ValueError):
            family_f_alpha_n(FAMILY_ALPHA_MAX + 0.01, 1, monomial(1, 8), 8)


class TestParams:
    def test_slant_validation(self):
        with pytest.raises(ValueError):
            SlantParams(0.0, 0.0, 0, 0.5)
        with pytest.raises(ValueError):
            SlantParams(0.0, 0.0, 2, 1.0)

    def test_family_validation(self):
        FamilyParams(alpha=0.0, n=1, t=0.5)
        with pytest.raises(ValueError):
            FamilyParams(alpha=0.0, n=0)
        with pytest.raises(ValueError):
            FamilyParams(alpha=1.0, n=1)
        with pytest.raises(ValueError):
            FamilyParams(alpha=0.0, n=1, t=1.5)
