"""Series layer: arithmetic against pointwise and convolution oracles, the
coefficient product, and the named closed-form expansions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

finite = st.floats(-2.0, 2.0, allow_nan=False)
coefficient = st.builds(complex, finite, finite)
series_coeffs = st.lists(coefficient, min_size=1, max_size=12)


@st.composite
def dominant_divisors(draw):
    """Divisors with |b_0| >= 1 + sum_{k>=1} |b_k|.  Then |b| >= 1 on the
    closed unit disk, so by Cauchy's estimate every coefficient of 1/b has
    modulus at most 1, and long division cannot amplify rounding."""
    tail = draw(st.lists(coefficient, min_size=0, max_size=11))
    phase = draw(st.floats(0.0, 2.0 * np.pi))
    extra = draw(st.floats(0.0, 2.0))
    b0 = (1.0 + sum(abs(c) for c in tail) + extra) * np.exp(1j * phase)
    return [complex(b0)] + tail

# small enough that an order-48 tail of any series we compare is below 1e-12
SMALL_PTS = np.array([0.3 + 0.2j, -0.35, 0.1 - 0.38j, -0.25 + 0.25j, 0.4j])
ORDER = 48


def assert_series_close(s, t, atol=1e-12):
    assert s.order == t.order
    np.testing.assert_allclose(
        np.asarray(s.coeffs), np.asarray(t.coeffs), atol=atol, rtol=0
    )


class TestBasics:
    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries([])

    def test_order_counts_from_constant_term(self):
        assert PowerSeries([1.0]).order == 0
        assert PowerSeries([0.0, 1.0, 2.0]).order == 2

    def test_at_order_bounds(self):
        s = PowerSeries([1.0, 2.0, 3.0])
        assert s.at_order(2) == 3.0
        with pytest.raises(IndexError):
            s.at_order(3)
        with pytest.raises(IndexError):
            s.at_order(-1)

    def test_truncated_shortens_but_never_extends(self):
        s = PowerSeries([1.0, 2.0, 3.0])
        assert s.truncated(1).coeffs == (1.0, 2.0)
        with pytest.raises(ValueError):
            s.truncated(5)

    def test_trailing_zeros_are_significant(self):
        # unlike a polynomial, order-3 zero and order-1 zero differ
        assert PowerSeries([0j] * 4) != PowerSeries([0j] * 2)
        assert PowerSeries([0j] * 4).order == 3


class TestArithmetic:
    @given(series_coeffs, series_coeffs)
    def test_add_is_pointwise_on_common_order(self, a, b):
        n = min(len(a), len(b))
        s = PowerSeries(a).add(PowerSeries(b))
        assert s.order == n - 1
        expect = np.asarray(a[:n]) + np.asarray(b[:n])
        np.testing.assert_allclose(np.asarray(s.coeffs), expect, atol=1e-14)

    @given(series_coeffs, coefficient)
    def test_scale_then_subtract_cancels(self, cs, c):
        s = PowerSeries(cs)
        d = s.scale(c).subtract(s.scale(c))
        assert np.all(np.abs(np.asarray(d.coeffs)) < 1e-12)

    @given(series_coeffs, series_coeffs)
    def test_multiply_matches_convolution_oracle(self, a, b):
        n = min(len(a), len(b))
        s = PowerSeries(a).multiply(PowerSeries(b))
        expect = np.convolve(np.asarray(a[:n]), np.asarray(b[:n]))[:n]
        np.testing.assert_allclose(np.asarray(s.coeffs), expect, atol=1e-10)

    @given(series_coeffs, dominant_divisors())
    def test_divide_inverts_multiply(self, a, b):
        pa, pb = PowerSeries(a), PowerSeries(b)
        q = pa.multiply(pb).divide(pb)
        n = q.order
        np.testing.assert_allclose(
            np.asarray(q.coeffs), np.asarray(a[: n + 1]), atol=1e-6
        )

    def test_divide_refuses_small_constant_term(self):
        with pytest.raises(ZeroDivisionError):
            geometric(4).divide(PowerSeries([0.0, 1.0, 1.0, 1.0, 1.0]))

    def test_divide_reproduces_geometric(self):
        one_minus_z = PowerSeries([1.0, -1.0] + [0.0] * (ORDER - 1))
        z = monomial(1, ORDER)
        assert_series_close(z.divide(one_minus_z), geometric(ORDER))

    @given(series_coeffs, series_coeffs)
    def test_hadamard_is_coefficientwise(self, a, b):
        n = min(len(a), len(b))
        s = PowerSeries(a).hadamard(PowerSeries(b))
        expect = np.asarray(a[:n]) * np.asarray(b[:n])
        np.testing.assert_allclose(np.asarray(s.coeffs), expect, atol=1e-12)

    @given(series_coeffs)
    def test_geometric_is_hadamard_identity(self, cs):
        s = PowerSeries([0j] + cs)  # zero constant term
        assert s.hadamard(geometric(s.order)) == s

    @given(series_coeffs)
    def test_ramp_hadamard_is_z_d_dz(self, cs):
        s = PowerSeries(cs)
        ramp = PowerSeries(range(s.order + 1))  # z/(1-z)**2
        lhs = s.hadamard(ramp)
        rhs = PowerSeries([k * c for k, c in enumerate(s.coeffs)])
        assert lhs == rhs

    @given(series_coeffs)
    def test_differentiate_inverts_integrate(self, cs):
        s = PowerSeries(cs)
        back = s.integrate().differentiate()
        assert back.order == s.order
        np.testing.assert_allclose(
            np.asarray(back.coeffs), np.asarray(s.coeffs), atol=1e-12
        )

    def test_derivative_of_geometric(self):
        # d/dz z/(1-z) has coefficients 1, 2, 3, ...
        d = geometric(6).differentiate()
        assert d.coeffs == tuple(complex(k) for k in range(1, 7))

    @given(series_coeffs)
    def test_evaluate_matches_polyval(self, cs):
        s = PowerSeries(cs)
        expect = np.polyval(np.asarray(cs)[::-1], SMALL_PTS)
        np.testing.assert_allclose(s(SMALL_PTS), expect, atol=1e-9)

    @pytest.mark.parametrize("order", [15, 16, 17, 40, 200])
    @pytest.mark.parametrize("radius", [0.5, 0.9, 0.99])
    def test_on_circle_matches_horner(self, order, radius):
        # m = 16: orders 16 and up fold one or more coefficients onto others
        m = 16
        rng = np.random.default_rng(order)
        s = PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        zs = radius * np.exp(2j * np.pi * np.arange(m) / m)
        expect = s(zs)
        got = s.on_circle(radius, m)
        assert got.shape == (m,)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestFactories:
    def test_monomial_places_single_coefficient(self):
        m = monomial(2, 4, coeff=3.0)
        assert m.coeffs == (0j, 0j, 3.0 + 0j, 0j, 0j)
        with pytest.raises(ValueError):
            monomial(5, 4)

    def test_geometric_closed_form(self):
        s = geometric(ORDER)
        np.testing.assert_allclose(
            s(SMALL_PTS), SMALL_PTS / (1 - SMALL_PTS), atol=1e-12
        )

    def test_log_inverse_closed_form(self):
        s = log_inverse(ORDER)
        np.testing.assert_allclose(
            s(SMALL_PTS), -np.log(1 - SMALL_PTS), atol=1e-12
        )

    def test_arctangent_closed_form(self):
        s = arctangent(ORDER)
        expect = np.log((1 + 1j * SMALL_PTS) / (1 - 1j * SMALL_PTS)) / 2j
        np.testing.assert_allclose(s(SMALL_PTS), expect, atol=1e-12)


class TestFamilySumPolynomials:
    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            family_sum_polynomials(0, 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_degrees(self, n):
        num, den = family_sum_polynomials(n, 0.3)
        assert len(num) - 1 == 2 ** (n + 1) - 1
        assert len(den) - 1 == 2 ** (n + 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [-0.8, 0.0, 0.5])
    def test_matches_product_form(self, n, alpha):
        num, den = family_sum_polynomials(n, alpha)
        z = SMALL_PTS
        got = np.polyval(np.asarray(num)[::-1], z) / np.polyval(
            np.asarray(den)[::-1], z
        )
        expect = z.astype(complex).copy()
        for j in range(1, n):
            expect *= 1 + z ** (2**j)
        expect *= 1 + alpha * z ** (2 ** (n - 1)) + z ** (2**n)
        expect /= 1 + z ** (2 ** (n + 1))
        np.testing.assert_allclose(got, expect, atol=1e-12)


class TestNamedSeries:
    def test_geometric_kind_with_rotation(self):
        alpha = 0.7
        s = geometric(ORDER, alpha)
        rot = np.exp(1j * alpha)
        np.testing.assert_allclose(
            s(SMALL_PTS), SMALL_PTS / (1 - rot * SMALL_PTS), atol=1e-12
        )

    @pytest.mark.parametrize("a", [-0.6, 0.0, 0.3, 0.9])
    def test_halfplane_parts_sum_to_geometric(self, a):
        # with no slant the analytic and co-analytic coefficient families
        # satisfy h_k + g_k = 1 and h_k - g_k = k (1-a)/(1+a) exactly
        h, g = halfplane_parts(a, 0.0, ORDER)
        assert_series_close(h.add(g), geometric(ORDER))
        ramp = PowerSeries(range(ORDER + 1))
        assert_series_close(h.subtract(g), ramp.scale((1 - a) / (1 + a)))

    def test_halfplane_slant_twists_coefficients(self):
        a, alpha = 0.4, 1.1
        rot = complex(np.exp(1j * alpha))
        h0, g0 = halfplane_parts(a, 0.0, 16)
        h, g = halfplane_parts(a, alpha, 16)

        def rotated(s, c):  # the series of c * s(rot * z)
            return PowerSeries(c * rot**k * b for k, b in enumerate(s.coeffs))

        assert_series_close(h, rotated(h0, 1 / rot), atol=1e-13)
        assert_series_close(g, rotated(g0, rot), atol=1e-13)

    def test_halfplane_requires_interior_parameter(self):
        with pytest.raises(ValueError):
            halfplane_parts(1.0, 0.0, 8)

    def test_family_sum_kind_expands_rational(self):
        num, den = family_sum_polynomials(2, 0.5)
        s = rational_series(num, den, ORDER)
        expect = np.polyval(np.asarray(num)[::-1], SMALL_PTS) / np.polyval(
            np.asarray(den)[::-1], SMALL_PTS
        )
        np.testing.assert_allclose(s(SMALL_PTS), expect, atol=1e-12)

