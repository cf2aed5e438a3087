"""Polynomial layer: arithmetic identities, the reduction chain against an
independent root oracle, and the unit-disk zero count."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harmconv import cpoly
from harmconv.cpoly import (
    ComplexPolynomial,
    NumericFailure,
    ReductionNotApplicable,
    cohn_reduce,
    count_zeros_in_disk,
    reciprocal_adjoint,
    roots,
)

finite = st.floats(-3.0, 3.0, allow_nan=False)
coefficient = st.builds(complex, finite, finite)
poly_coeffs = st.lists(coefficient, min_size=1, max_size=8)

EVAL_PTS = np.array([0.3 + 0.4j, -0.7j, 1.1 - 0.2j, -0.5 - 0.5j, 2.0])


def from_roots(rts) -> ComplexPolynomial:
    return ComplexPolynomial(np.poly(np.asarray(rts, dtype=complex))[::-1])


# strictly off-circle moduli, well separated from 1; the lower cutoff stays
# above the root finder's absolute step tolerance (exact zeros at the
# origin are factored out separately and have their own test)
inside_root = st.builds(
    lambda r, th: r * np.exp(1j * th), st.floats(0.02, 0.85), st.floats(0.0, 6.28)
)
outside_root = st.builds(
    lambda r, th: r * np.exp(1j * th), st.floats(1.15, 2.0), st.floats(0.0, 6.28)
)


def separated(rts, gap=0.05) -> bool:
    """Root-finding accuracy degrades like eps**(1/k) near k-fold clusters,
    for any method; oracle concordance is only meaningful away from them."""
    rts = list(rts)
    return all(
        abs(a - b) > gap for i, a in enumerate(rts) for b in rts[i + 1 :]
    )


class TestArithmetic:
    def test_trims_trailing_zeros(self):
        assert ComplexPolynomial([1.0, 2.0, 0.0, 0.0]).degree == 1
        assert ComplexPolynomial([0.0, 0.0]).is_zero
        assert ComplexPolynomial().degree == -1

    def test_zero_polynomial_evaluates_to_zero(self):
        z = ComplexPolynomial()
        assert np.all(z(EVAL_PTS) == 0.0)

    @given(poly_coeffs, poly_coeffs)
    def test_product_evaluates_pointwise(self, a, b):
        p, q = ComplexPolynomial(a), ComplexPolynomial(b)
        lhs = (p * q)(EVAL_PTS)
        rhs = p(EVAL_PTS) * q(EVAL_PTS)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @given(poly_coeffs, poly_coeffs)
    def test_sum_evaluates_pointwise(self, a, b):
        p, q = ComplexPolynomial(a), ComplexPolynomial(b)
        assert np.allclose((p + q)(EVAL_PTS), p(EVAL_PTS) + q(EVAL_PTS), atol=1e-12)

    @given(poly_coeffs)
    def test_derivative_matches_difference_quotient(self, a):
        p = ComplexPolynomial(a)
        h = 1e-7
        z0 = 0.37 - 0.21j
        approx = (p(z0 + h) - p(z0 - h)) / (2 * h)
        assert abs(p.derivative()(z0) - approx) < 1e-5 * max(1.0, abs(approx))

    @given(poly_coeffs, st.builds(complex, finite, finite))
    def test_rotate_is_composition_with_scaling(self, a, lam):
        p = ComplexPolynomial(a)
        pts = 0.3 * EVAL_PTS
        assert np.allclose(p.rotate(lam)(pts), p(lam * pts), atol=1e-8)

    @given(poly_coeffs, st.integers(1, 4))
    def test_compose_power_substitutes_monomial(self, a, m):
        p = ComplexPolynomial(a)
        pts = 0.8 * EVAL_PTS / np.abs(EVAL_PTS)
        assert np.allclose(p.compose_power(m)(pts), p(pts**m), atol=1e-9)

    def test_pow_matches_repeated_multiplication(self):
        p = ComplexPolynomial([1.0, -0.5j])
        assert p**3 == p * p * p
        assert (p**0).coeffs == (1.0 + 0j,)


class TestReciprocalAdjoint:
    @given(poly_coeffs)
    def test_same_modulus_on_circle(self, a):
        p = ComplexPolynomial(a)
        unit = np.exp(1j * np.linspace(0.1, 6.0, 17))
        assert np.allclose(
            np.abs(reciprocal_adjoint(p)(unit)), np.abs(p(unit)), atol=1e-9
        )

    def test_zeros_are_circle_reflections(self):
        p = from_roots([0.5, 0.2 - 0.3j])
        reflected = sorted(roots(reciprocal_adjoint(p)), key=lambda z: z.real)
        expected = sorted(
            [1 / np.conj(0.5), 1 / np.conj(0.2 - 0.3j)], key=lambda z: z.real
        )
        assert np.allclose(reflected, expected, atol=1e-9)

    def test_involution_when_constant_term_nonzero(self):
        p = ComplexPolynomial([1.0 + 2.0j, -0.5, 3.0j])
        assert reciprocal_adjoint(reciprocal_adjoint(p)) == p


class TestCohnReduce:
    def test_degree_drops_by_exactly_one(self):
        p = from_roots([0.1, 0.4j, -0.3])
        assert cohn_reduce(p).degree == p.degree - 1

    def test_refuses_dominant_constant_term(self):
        p = ComplexPolynomial([2.0, 0.0, 1.0])  # |a0| > |an|
        with pytest.raises(ReductionNotApplicable) as exc:
            cohn_reduce(p)
        assert not exc.value.tie

    def test_flags_tie(self):
        p = ComplexPolynomial([1.0, 0.7, 1.0])
        with pytest.raises(ReductionNotApplicable) as exc:
            cohn_reduce(p)
        assert exc.value.tie

    @given(st.lists(inside_root, min_size=2, max_size=6))
    def test_reduction_preserves_inside_count_minus_one(self, rts):
        p = from_roots(rts)
        reduced = cohn_reduce(p)
        if reduced.degree >= 1:
            inside = np.sum(np.abs(np.roots(reduced.coeffs[::-1])) < 1.0)
            assert inside == len(rts) - 1


class TestRoots:
    @given(st.lists(st.one_of(inside_root, outside_root), min_size=1, max_size=7))
    @settings(max_examples=60)
    def test_matches_numpy_eigenvalue_oracle(self, rts):
        assume(separated(rts))
        p = from_roots(rts)
        ours = np.sort_complex(roots(p))
        theirs = np.sort_complex(np.roots(p.coeffs[::-1]))
        assert len(ours) == len(theirs)
        unused = list(theirs)
        for z in ours:
            j = int(np.argmin([abs(z - w) for w in unused]))
            assert abs(z - unused[j]) < 1e-6 * max(1.0, abs(z))
            unused.pop(j)

    def test_zeros_at_origin_are_factored_out(self):
        p = ComplexPolynomial([0.0, 0.0, 0.0, -0.5, 1.0])
        rts = np.sort_complex(roots(p))
        assert np.count_nonzero(rts == 0.0) == 3
        assert np.isclose(rts[-1], 0.5)

    def test_repeated_root_passes_backward_error(self):
        p = from_roots([0.5, 0.5, 0.5, 0.5])
        rts = roots(p)
        assert np.allclose(rts, 0.5, atol=5e-3)

    def test_constant_has_no_roots(self):
        assert roots(ComplexPolynomial([3.0])).size == 0

    def test_numeric_failure_carries_best_iterate(self):
        p = from_roots([0.3, 0.6])
        with pytest.raises(NumericFailure) as exc:
            roots(p, tol=1e-30, max_iter=1)
        assert exc.value.best is not None


class TestCountZeros:
    @given(st.lists(inside_root, min_size=1, max_size=7))
    @settings(max_examples=60)
    def test_all_inside_counted_even_when_chain_degenerates(self, rts):
        report = count_zeros_in_disk(from_roots(rts))
        assert report.all_inside
        assert report.on_circle == 0
        if report.method == "cohn-chain":
            assert not report.degenerate
            assert len(report.chain) == len(rts)
        else:
            # even with every zero interior, an intermediate reduction can
            # acquire a circle zero and stall the chain; the oracle
            # fallback must still deliver the exact count
            assert report.method == "roots"
            assert report.degenerate

    @given(
        st.lists(inside_root, min_size=0, max_size=4),
        st.lists(outside_root, min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_mixed_counts_match_truth(self, ins, outs):
        assume(separated(ins + outs))
        report = count_zeros_in_disk(from_roots(ins + outs))
        assert report.inside == len(ins)
        assert report.outside == len(outs)
        assert report.on_circle == 0
        assert report.degenerate == (report.method == "roots")

    @pytest.mark.parametrize(
        "rts",
        [
            [0.3, 2.0],
            # unscaled, the flipped chain overflows on these moduli
            np.array([0.6352, 2.7838, 0.5614, 1.2807, 1.9574, 2.8041, 3.4897, 0.5629])
            * np.exp(1j * np.array([2.2673, 4.6308, 0.4969, 0.8006, 1.2681, 5.1821, 1.0984, 2.7817])),
        ],
    )
    def test_mixed_counts_proved_by_chain_alone(self, rts, monkeypatch):
        def no_oracle(p):
            raise AssertionError("a reversal must not reach the root oracle")

        monkeypatch.setattr(cpoly, "roots", no_oracle)
        rts = np.asarray(rts, dtype=complex)
        report = count_zeros_in_disk(from_roots(rts))
        assert report.method == "cohn-chain" and not report.degenerate
        assert len(report.chain) == report.total == len(rts)
        assert report.inside == int(np.sum(np.abs(rts) < 1.0))
        assert report.outside == int(np.sum(np.abs(rts) > 1.0))

    def test_circle_zero_detected(self):
        report = count_zeros_in_disk(from_roots([1.0, 0.3]))
        assert report.on_circle == 1
        assert report.inside == 1

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError):
            count_zeros_in_disk(ComplexPolynomial())
