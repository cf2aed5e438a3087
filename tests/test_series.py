"""Series layer: arithmetic against pointwise and convolution oracles, the
coefficient product, and the named closed-form expansions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    ring_values,
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
        np.testing.assert_array_equal(s.truncated(1).coeffs, [1.0, 2.0])
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
        np.testing.assert_array_equal(d.coeffs, np.arange(1, 7))

    @given(series_coeffs)
    def test_evaluate_matches_polyval(self, cs):
        s = PowerSeries(cs)
        expect = np.polyval(np.asarray(cs)[::-1], SMALL_PTS)
        np.testing.assert_allclose(s(SMALL_PTS), expect, atol=1e-9)

    @pytest.mark.parametrize("order", [15, 16, 17, 40, 200])
    @pytest.mark.parametrize("radius", [0.5, 0.9, 0.99])
    def test_ring_values_matches_horner(self, order, radius):
        # m = 16: orders 16 and up fold one or more coefficients onto others
        m = 16
        rng = np.random.default_rng(order)
        s = PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        zs = radius * np.exp(2j * np.pi * np.arange(m) / m)
        expect = s(zs)
        got = ring_values(s.coeffs, (radius,), m)[0]
        assert got.shape == (m,)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestFactories:
    def test_monomial_places_single_coefficient(self):
        m = monomial(2, 4)
        np.testing.assert_array_equal(m.coeffs, [0j, 0j, 1.0 + 0j, 0j, 0j])
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



# ---------------------------------------------------------------------------
# The coefficient array against the tuple arithmetic it replaced: the same
# operations on Python complex numbers, compared bit for bit.

signed_part = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6, allow_nan=False)
)
signed_coefficient = st.builds(complex, signed_part, signed_part)
signed_coeffs = st.lists(signed_coefficient, min_size=1, max_size=40)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)


def assert_same_bits(series, values):
    assert np.array_equal(bits(series.coeffs), bits(values))


def tuple_divide(a, b):
    """Long division as it ran on tuple storage: a reversed-slice dot."""
    n = min(len(a), len(b)) - 1
    b0 = b[0]
    a = np.asarray(a[: n + 1])
    b = np.asarray(b[: n + 1])
    q = np.empty(n + 1, dtype=complex)
    q[0] = a[0] / b0
    for k in range(1, n + 1):
        q[k] = (a[k] - np.dot(b[1 : k + 1], q[:k][::-1])) / b0
    return q


@st.composite
def one_term_divisors(draw):
    """b0 + c z**m over a tail of signed zeros, for b0 of modulus at least
    1/2 and any phase; m runs past the order, where only b0 is left."""
    order = draw(st.integers(0, 40))
    b0 = draw(coefficient.filter(lambda z: abs(z) >= 0.5))
    zero = st.builds(complex, st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0]))
    b = [b0] + draw(st.lists(zero, min_size=order, max_size=order))
    m = draw(st.integers(1, order + 3))
    if m <= order:
        b[m] = draw(coefficient)
    return b


def tuple_on_circle(coeffs, radius, m):
    """One ring by a padded fold and a 1-d inverse FFT."""
    c = np.asarray(coeffs) * float(radius) ** np.arange(len(coeffs))
    c = np.pad(c, (0, -len(c) % m))
    return np.fft.ifft(c.reshape(-1, m).sum(axis=0)) * m


class TestArrayStorage:
    def test_coefficients_are_one_read_only_complex_array(self):
        s = PowerSeries([1, 2.5, 3j])
        assert s.coeffs.dtype == np.complex128 and s.coeffs.ndim == 1
        with pytest.raises(ValueError):
            s.coeffs[0] = 0.0
        assert not s.truncated(1).coeffs.flags.writeable
        assert not s.integrate().coeffs.flags.writeable

    def test_constructor_copies_its_input(self):
        raw = np.array([1.0, 2.0, 3.0], dtype=complex)
        s = PowerSeries(raw)
        raw[0] = 9.0
        assert s.at_order(0) == 1.0
        assert s.coeffs.base is not raw

    def test_constructor_takes_a_generator(self):
        s = PowerSeries(k * 1j for k in range(3))
        np.testing.assert_array_equal(s.coeffs, [0, 1j, 2j])

    @given(signed_coeffs, signed_coeffs)
    def test_add_and_hadamard(self, a, b):
        n = min(len(a), len(b))
        sa, sb = PowerSeries(a), PowerSeries(b)
        assert_same_bits(sa.add(sb), [x + y for x, y in zip(a[:n], b[:n])])
        assert_same_bits(sa.hadamard(sb), [x * y for x, y in zip(a[:n], b[:n])])

    @given(signed_coeffs, signed_coefficient)
    def test_scale_and_subtract(self, a, c):
        assert_same_bits(PowerSeries(a).scale(c), [c * x for x in a])
        assert_same_bits(PowerSeries(a).subtract(PowerSeries(a[::-1])),
                         [x + complex(-1.0) * y for x, y in zip(a, a[::-1])])

    @given(signed_coeffs)
    def test_differentiate_and_integrate(self, a):
        s = PowerSeries(a)
        derived = [k * c for k, c in enumerate(a) if k] or [0j]
        assert_same_bits(s.differentiate(), derived)
        assert_same_bits(s.integrate(), [0j] + [c / (k + 1) for k, c in enumerate(a)])

    @given(signed_coeffs, dominant_divisors())
    def test_divide(self, a, b):
        assert_same_bits(PowerSeries(a).divide(PowerSeries(b)), tuple_divide(a, b))

    # the recurrence for b0 + c z**m must keep the dot loop's signed zeros
    @example([-1.0, complex(-0.0, -0.0)], [1.0, 0j])
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(signed_coeffs, one_term_divisors())
    def test_divide_by_one_term_divisor(self, a, b):
        assert_same_bits(PowerSeries(a).divide(PowerSeries(b)), tuple_divide(a, b))

    def test_divide_long_series(self):
        rng = np.random.default_rng(17)
        a = (rng.normal(size=300) + 1j * rng.normal(size=300)).tolist()
        b = [3.0 + 0j] + (0.01 * rng.normal(size=299)).tolist()
        assert_same_bits(PowerSeries(a).divide(PowerSeries(b)), tuple_divide(a, b))

    @pytest.mark.parametrize("m", [8, 16])
    @pytest.mark.parametrize("excess", [-5, -1, 0, 1, 9, 40])
    @settings(max_examples=20)
    @given(data=st.data())
    def test_ring_values_keeps_the_padded_fold(self, m, excess, data):
        # orders below, equal to and above the number of angles m
        order = m + excess
        cs = data.draw(st.lists(signed_coefficient, min_size=order + 1, max_size=order + 1))
        radius = data.draw(st.sampled_from([0.1, 0.5, 0.95, 0.99]))
        got = ring_values(PowerSeries(cs).coeffs, (radius,), m)[0]
        assert np.array_equal(bits(got), bits(tuple_on_circle(cs, radius, m)))

    @pytest.mark.parametrize("radii", [(0.5,), (0.2, 0.5, 0.9)])
    @pytest.mark.parametrize("order", [5, 7, 8, 30])
    def test_ring_values_rows_are_each_ring_bit_for_bit(self, radii, order):
        # 8 angles per ring: orders below, at and past one fold
        rng = np.random.default_rng(order)
        cs = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        cs[::3] = complex(-0.0, -0.0)
        got = ring_values(PowerSeries(cs).coeffs, radii, 8)
        assert got.shape == (len(radii), 8)
        for row, r in zip(got, radii):
            assert np.array_equal(bits(row), bits(tuple_on_circle(cs, r, 8)))
