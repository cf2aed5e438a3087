"""Convolution layer: every closed-form dilatation is checked against the
independent series route (build the maps, convolve coefficientwise, divide
the derivatives), the displayed reduction chains are replayed step by step,
and the boundedness certifier is exercised on each of its paths."""

import numpy as np
import pytest
from conftest import sample_points

from harmconv.convo import (
    RationalFunction,
    adjacent_negative_cubic,
    adjacent_positive_quartic,
    blaschke_power_dilatation,
    cancel_unit_root,
    certify_bounded,
    combination,
    combination_dilatation,
    convolve,
    even_mobius_cohn_chain,
    even_mobius_convolution_dilatation,
    even_mobius_quartic,
    halfplane_convolution_dilatation,
    mobius_power_dilatation,
    monomial_convolution_dilatation,
    negated_square_cohn_chain,
    negated_square_convolution_dilatation,
    negated_square_quartic,
    opposed_monomial_cubic,
    quarter_power_cohn_chain,
    quarter_power_sextic,
    quarter_power_sextic_poly,
    rationals_equal,
    shared_target_combination_dilatation,
    strip_convolution_dilatation,
)
from harmconv import convo
from harmconv.cpoly import (
    ComplexPolynomial,
    NumericFailure,
    cohn_reduce,
    count_zeros_in_disk,
    reciprocal_adjoint,
    roots,
)
from harmconv.hmap import (
    FamilyParams,
    HarmonicMap,
    SlantParams,
    dilatation_series,
    f_a_alpha,
    family_f_alpha_n,
    slanted_halfplane,
    strip_map,
)
from harmconv.series import PowerSeries, geometric

N = 128


def rational(num, den=(1.0,)) -> RationalFunction:
    return RationalFunction(ComplexPolynomial(num), ComplexPolynomial(den))


def monomial_rf(k: int, coeff=1.0) -> RationalFunction:
    return rational([0.0] * k + [coeff])


PTS = np.array([0.2 + 0.3j, -0.45, 0.15 - 0.4j, -0.25 + 0.3j, 0.5j])

# the dilatation menu shared by the half-plane concordance tests
OMEGAS = [
    ("z", monomial_rf(1)),
    ("z2", monomial_rf(2)),
    ("rotated-cubic", monomial_rf(3, np.exp(0.9j))),
    ("even-mobius", mobius_power_dilatation(0.7, 0.0, 2)),
]


def halfplane_series_dilatation(a, gamma, omega, order=N):
    """The series route: build both maps, convolve, divide derivatives."""
    f = convolve(
        f_a_alpha(a, 0.0, order),
        slanted_halfplane(gamma, omega.series(order), order),
    )
    return dilatation_series(f)


class TestRationalFunction:
    def test_call_divides(self):
        r = rational([1.0, 2.0], [1.0, 0.0, 1.0])
        z = 0.5j
        assert r(z) == pytest.approx((1 + 2 * z) / (1 + z * z))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rational([1.0], [0.0])

    def test_series_matches_evaluation(self):
        r = rational([1.0, 0.5j, -0.25], [1.0, -0.5, 0.125])
        s = r.series(40)
        np.testing.assert_allclose(s(PTS), r(PTS), atol=1e-11)

    def test_compose_power(self):
        r = rational([0.3, 1.0], [1.0, -0.3])
        np.testing.assert_allclose(r.compose_power(3)(PTS), r(PTS**3), atol=1e-13)

    def test_rationals_equal_ignores_common_factors(self):
        r = rational([0.3, 1.0], [1.0, -0.3])
        blown = RationalFunction(
            r.num * ComplexPolynomial([1.0, -1.0]),
            r.den * ComplexPolynomial([1.0, -1.0]),
        )
        assert rationals_equal(r, blown)
        assert not rationals_equal(r, rational([0.31, 1.0], [1.0, -0.3]))


class TestMapOperations:
    def test_convolve_is_coefficientwise_on_both_parts(self):
        f1 = HarmonicMap(h=PowerSeries([0, 1, 2, 3]), g=PowerSeries([0, 4, 5, 6]))
        f2 = HarmonicMap(h=PowerSeries([0, 7, 8, 9]), g=PowerSeries([0, 1, -1, 1]))
        c = convolve(f1, f2)
        np.testing.assert_array_equal(c.h.coeffs, [0, 7, 16, 27])
        np.testing.assert_array_equal(c.g.coeffs, [0, 4, -5, 6])

    def test_geometric_pair_is_convolution_identity(self):
        f = f_a_alpha(0.3, 0.5, 16)
        ident = HarmonicMap(h=geometric(16), g=geometric(16))
        assert convolve(f, ident) == f

    def test_combination_is_pointwise_affine(self):
        f1 = f_a_alpha(0.3, 0.0, 24)
        f2 = f_a_alpha(-0.4, 0.0, 24)
        t = 0.3
        c = combination(f1, f2, t)
        np.testing.assert_allclose(
            c(PTS), t * f1(PTS) + (1 - t) * f2(PTS), atol=1e-12
        )

    def test_combination_weight_validated(self):
        f = f_a_alpha(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            combination(f, f, 1.2)


class TestDilatationInputs:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mobius_power_values(self, n):
        a, theta = 0.6, 0.8
        w = mobius_power_dilatation(a, theta, n)
        zn = PTS**n
        np.testing.assert_allclose(
            w(PTS), np.exp(1j * theta) * (a - zn) / (1 - a * zn), atol=1e-13
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blaschke_power_values(self, n):
        a, theta = 0.6, -0.4
        w = blaschke_power_dilatation(a, theta, n)
        b = (a - PTS) / (1 - a * PTS)
        np.testing.assert_allclose(w(PTS), np.exp(1j * theta) * b**n, atol=1e-13)

    def test_both_are_unimodular_on_circle(self):
        circle = np.exp(1j * np.linspace(0.0, 2 * np.pi, 64, endpoint=False))
        for w in (
            mobius_power_dilatation(0.8, 0.2, 2),
            blaschke_power_dilatation(-0.5, 1.0, 3),
        ):
            np.testing.assert_allclose(np.abs(w(circle)), 1.0, atol=1e-12)

    def test_power_is_composition_of_first(self):
        w1 = mobius_power_dilatation(0.4, 0.9, 1)
        w3 = mobius_power_dilatation(0.4, 0.9, 3)
        assert rationals_equal(w1.compose_power(3), w3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mobius_power_dilatation(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            blaschke_power_dilatation(-1.0, 0.0, 2)


class TestHalfplaneConcordance:
    @pytest.mark.parametrize("label,omega", OMEGAS)
    @pytest.mark.parametrize("a,gamma", [(0.3, 0.0), (0.5, np.pi / 4), (-0.4, 1.1)])
    def test_closed_form_matches_series_route(self, label, omega, a, gamma, rng):
        closed = halfplane_convolution_dilatation(a, gamma, omega)
        ws = halfplane_series_dilatation(a, gamma, omega)
        z = sample_points(closed, rng)
        np.testing.assert_allclose(ws(z), closed(z), atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_monomial_form_agrees_with_general_assembly(self, n):
        sp = SlantParams(gamma=0.7, theta=1.3, n=n, a=0.45)
        special = monomial_convolution_dilatation(sp)
        general = halfplane_convolution_dilatation(
            sp.a, sp.gamma, monomial_rf(n, np.exp(1j * sp.theta))
        )
        assert rationals_equal(special, general)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("gamma", [0.3, np.pi / 4, np.pi / 2])
    def test_slant_substitution_identity(self, n, gamma):
        # slanting the target is a rotation of the slant-free dilatation
        # with the monomial phase shifted by -(n+2) gamma
        theta, a = 1.0, 0.45
        wg = monomial_convolution_dilatation(
            SlantParams(gamma=gamma, theta=theta, n=n, a=a)
        )
        w0 = monomial_convolution_dilatation(
            SlantParams(gamma=0.0, theta=theta - (n + 2) * gamma, n=n, a=a)
        )
        np.testing.assert_allclose(
            wg(PTS), np.exp(2j * gamma) * w0(np.exp(1j * gamma) * PTS), atol=1e-12
        )

    @pytest.mark.parametrize("a", [0.05, 0.35, 0.75, 0.95])
    def test_even_mobius_quartic_matches_assembly(self, a):
        assembled = halfplane_convolution_dilatation(
            a, 0.0, mobius_power_dilatation(a, 0.0, 2)
        )
        assert rationals_equal(even_mobius_convolution_dilatation(a), assembled)

    @pytest.mark.parametrize("a", [0.05, 0.35, 0.75, 0.95])
    def test_negated_square_quartic_matches_assembly(self, a):
        # omega = -((a-z)/(1-az))**2 is the pi-rotated squared automorphism
        assembled = halfplane_convolution_dilatation(
            a, 0.0, blaschke_power_dilatation(a, np.pi, 2)
        )
        assert rationals_equal(negated_square_convolution_dilatation(a), assembled)

    def test_quartic_parameter_ranges(self):
        with pytest.raises(ValueError):
            even_mobius_quartic(-0.1)
        with pytest.raises(ValueError):
            negated_square_quartic(0.0)

    def test_cancel_unit_root_strips_shared_factor(self):
        a = 0.5
        assembled = halfplane_convolution_dilatation(
            a, 0.0, mobius_power_dilatation(a, 0.0, 2)
        )
        reduced = cancel_unit_root(assembled)
        assert reduced is not None
        assert reduced.num.degree == assembled.num.degree - 1
        assert rationals_equal(reduced, assembled)

    def test_cancel_unit_root_refuses_without_zero(self):
        # the reduced quartic form has no root at 1 (value 3(1-a)^2 there)
        assert cancel_unit_root(even_mobius_convolution_dilatation(0.5)) is None


class TestStripConvolution:
    @pytest.mark.parametrize("label,omega", OMEGAS)
    def test_closed_form_matches_series_route(self, label, omega, rng):
        closed = strip_convolution_dilatation(omega)
        f = convolve(f_a_alpha(0.0, 0.0, N), strip_map(omega.series(N), N))
        ws = dilatation_series(f)
        z = sample_points(closed, rng)
        np.testing.assert_allclose(ws(z), closed(z), atol=1e-9)

    @pytest.mark.parametrize("a", [-0.9, -0.3, 0.0, 0.4, 0.9])
    def test_even_mobius_shear_collapses_to_square(self, a):
        closed = strip_convolution_dilatation(mobius_power_dilatation(a, 0.0, 2))
        assert rationals_equal(closed, monomial_rf(2))


class TestCohnChains:
    """Replays of the displayed reduction chains: each step's cohn_reduce
    output must equal the stated multiplier times the stated polynomial."""

    @staticmethod
    def check_chain(chain, rtol=1e-12):
        for (_, prev), (mult, stated) in zip(chain, chain[1:]):
            got = cohn_reduce(prev)
            want = np.asarray((mult * stated).coeffs)
            scale = float(np.max(np.abs(want)))
            np.testing.assert_allclose(
                np.asarray(got.coeffs), want, atol=rtol * scale, rtol=0
            )

    @pytest.mark.parametrize("a", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_even_mobius_chain_replays(self, a):
        self.check_chain(even_mobius_cohn_chain(a))

    @pytest.mark.parametrize("a", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_negated_square_chain_replays(self, a):
        self.check_chain(negated_square_cohn_chain(a))

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("alphas", [(-0.5, 0.5), (-0.8, -0.2), (0.0, 0.8)])
    def test_quarter_power_chain_replays(self, t, alphas):
        self.check_chain(quarter_power_cohn_chain(*alphas, t), rtol=1e-11)

    @pytest.mark.parametrize("a", [0.05, 0.5, 0.95])
    def test_quartics_have_all_four_roots_inside(self, a):
        for p in (even_mobius_quartic(a), negated_square_quartic(a)):
            report = count_zeros_in_disk(p)
            assert report.all_inside and report.total == 4
            assert max(abs(r) for r in roots(p)) < 1.0

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_sextic_has_all_six_roots_inside(self, t):
        p = quarter_power_sextic_poly(-0.5, 0.5, t)
        report = count_zeros_in_disk(p)
        assert report.all_inside and report.total == 6
        assert max(abs(r) for r in roots(p)) < 1.0


class TestCombinations:
    @pytest.mark.parametrize("n", [1, 2])
    def test_general_form_matches_series_route(self, n, rng):
        alpha1, alpha2, t = 0.5, -0.3, 0.3
        half = 2 ** (n - 1)
        w1, w2 = monomial_rf(half, -1.0), monomial_rf(half, 1.0)
        closed = combination_dilatation(
            FamilyParams(alpha1, n), FamilyParams(alpha2, n), w1, w2, t
        )
        f = combination(
            family_f_alpha_n(alpha1, n, w1.series(N), N),
            family_f_alpha_n(alpha2, n, w2.series(N), N),
            t,
        )
        z = sample_points(closed, rng)
        np.testing.assert_allclose(dilatation_series(f)(z), closed(z), atol=1e-9)

    def test_mixed_generations_match_series_route(self, rng):
        alpha1, alpha2, t = 0.4, -0.2, 0.6
        w1, w2 = monomial_rf(2, -1.0), monomial_rf(1, 1.0)
        closed = combination_dilatation(
            FamilyParams(alpha1, 2), FamilyParams(alpha2, 1), w1, w2, t
        )
        f = combination(
            family_f_alpha_n(alpha1, 2, w1.series(N), N),
            family_f_alpha_n(alpha2, 1, w2.series(N), N),
            t,
        )
        z = sample_points(closed, rng)
        np.testing.assert_allclose(dilatation_series(f)(z), closed(z), atol=1e-9)

    def test_generation_order_enforced(self):
        w = monomial_rf(1)
        with pytest.raises(ValueError, match="swap"):
            combination_dilatation(
                FamilyParams(0.0, 1), FamilyParams(0.0, 2), w, w, 0.5
            )

    def test_weight_validated(self):
        w = monomial_rf(1)
        with pytest.raises(ValueError):
            combination_dilatation(
                FamilyParams(0.0, 1), FamilyParams(0.0, 1), w, w, -0.1
            )
        with pytest.raises(ValueError):
            shared_target_combination_dilatation(w, w, 2.0)

    def test_shared_target_formula(self):
        w1 = mobius_power_dilatation(0.3, 0.0, 1)
        w2 = monomial_rf(1, -1.0)
        t = 0.4
        r = shared_target_combination_dilatation(w1, w2, t)
        a, b = w1(PTS), w2(PTS)
        expect = (t * a + (1 - t) * b + a * b) / (1 + t * b + (1 - t) * a)
        np.testing.assert_allclose(r(PTS), expect, atol=1e-12)

    def test_shared_target_agrees_with_general_form(self):
        alpha, n, t = 0.4, 1, 0.3
        w1, w2 = monomial_rf(1, -1.0), monomial_rf(1, 1.0)
        general = combination_dilatation(
            FamilyParams(alpha, n), FamilyParams(alpha, n), w1, w2, t
        )
        assert rationals_equal(
            shared_target_combination_dilatation(w1, w2, t), general
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_opposed_monomial_cubic_concords(self, n):
        alpha1, alpha2, t = 0.3, -0.2, 0.4
        half = 2 ** (n - 1)
        combo = combination_dilatation(
            FamilyParams(alpha1, n),
            FamilyParams(alpha2, n),
            monomial_rf(half, -1.0),
            monomial_rf(half, 1.0),
            t,
        )
        disp = opposed_monomial_cubic(alpha1, alpha2, t).compose_power(half)
        assert rationals_equal(combo, disp)

    @pytest.mark.parametrize("n", [1, 2])
    def test_adjacent_cubic_and_quartic_concord(self, n):
        alpha1, alpha2, t = 0.3, -0.2, 0.4
        half = 2 ** (n - 1)
        p1, p2 = FamilyParams(alpha1, n), FamilyParams(alpha2, n)
        w1 = monomial_rf(half, -1.0)
        combo = combination_dilatation(p1, p2, w1, monomial_rf(2 * half, -1.0), t)
        disp = adjacent_negative_cubic(alpha1, alpha2, t).compose_power(half)
        assert rationals_equal(combo, disp)
        combo = combination_dilatation(p1, p2, w1, monomial_rf(2 * half, 1.0), t)
        disp = adjacent_positive_quartic(alpha1, alpha2, t).compose_power(half)
        assert rationals_equal(combo, disp)

    @pytest.mark.parametrize("n", [2, 3])
    def test_quarter_power_sextic_concords(self, n):
        alpha1, alpha2, t = 0.3, -0.2, 0.4
        quarter = 2 ** (n - 2)
        combo = combination_dilatation(
            FamilyParams(alpha1, n),
            FamilyParams(alpha2, n),
            monomial_rf(quarter, -1.0),
            monomial_rf(2 * quarter, 1.0),
            t,
        )
        disp = quarter_power_sextic(alpha1, alpha2, t).compose_power(quarter)
        assert rationals_equal(combo, disp)


class TestCertifyBounded:
    def test_grid_pole_is_masked(self):
        # 1/(1 - 5z) has its pole at z = 0.2, a grid point
        r = rational([1.0], [1.0, -5.0])
        z = convo.DEFAULT_GRID.points
        rest = z[z != 0.2]
        assert convo._grid_scan(r, convo.DEFAULT_GRID) == (np.max(np.abs(1.0 / r.den(rest))), True)
        rep = certify_bounded(r)
        assert rep.verdict == "indeterminate" and "denominator vanishes" in rep.note

    def test_zero_function_is_trivially_certified(self):
        rep = certify_bounded(rational([0.0]))
        assert rep.certified and rep.shape == "zero"

    def test_blaschke_shape_certified_by_zero_count(self):
        rep = certify_bounded(even_mobius_convolution_dilatation(0.5))
        assert rep.certified
        assert rep.shape == "blaschke"
        assert rep.zero_report is not None and rep.zero_report.total == 4

    def test_monomial_prefactor_detected(self):
        w = quarter_power_sextic(-0.5, 0.5, 0.3)
        rep = certify_bounded(w)
        assert rep.certified and rep.monomial_power == 1

    def test_self_inversive_collapse_certified(self):
        # z * p/p* with self-inversive p collapses to a rotation of z
        p = ComplexPolynomial([1.0, 0.7, 1.0])
        w = RationalFunction(ComplexPolynomial([0.0]) + p * ComplexPolynomial([0.0, 1.0]), reciprocal_adjoint(p))
        rep = certify_bounded(w)
        assert rep.certified and rep.method == "self-inversive"

    def test_self_inversive_certified_without_zero_count(self, monkeypatch):
        def fail(p):
            raise NumericFailure("root residual exceeds tolerance")

        monkeypatch.setattr(convo, "count_zeros_in_disk", fail)
        p = ComplexPolynomial([1.0, 0.7, 1.0])
        w = RationalFunction(p * ComplexPolynomial([0.0, 1.0]), reciprocal_adjoint(p))
        rep = certify_bounded(w)
        assert rep.certified and rep.method == "self-inversive"
        assert rep.zero_report is None

    def test_grid_max_scans_the_default_grid(self):
        grid = convo.DEFAULT_GRID
        r = rational([0.3, 1.0, 0.2j], [1.0, -0.4])
        rep = certify_bounded(r)
        assert rep.grid_max == pytest.approx(float(np.max(np.abs(r(grid.points)))), abs=1e-15)
        # the scan reaches the outer ring, r = 0.99
        inner = grid.capped(0.5).points
        assert rep.grid_max > float(np.max(np.abs(r(inner)))) + 0.1

    def test_excursion_witnessed(self):
        rep = certify_bounded(rational([0.0, 1.2]))
        assert rep.verdict == "exceeds"
        assert rep.grid_max > 1.1

    def test_generic_shape_stays_indeterminate(self):
        rep = certify_bounded(rational([0.0, 0.5, 0.1], [1.0, 0.2]))
        assert rep.verdict == "indeterminate"
        assert not rep.certified

    def test_unresolved_zero_count_falls_back_to_grid(self):
        # three zeros of the t2.4 quartic cluster at z = 1 here, and the
        # root oracle misses its residual tolerance on them
        rep = certify_bounded(negated_square_convolution_dilatation(0.9999996764456546))
        assert rep.method == "grid" and rep.verdict == "indeterminate"
        assert rep.shape == "blaschke" and rep.zero_report is None
        assert "zero count of the core failed" in rep.note

    def test_failed_zero_count_never_certifies(self, monkeypatch):
        def fail(p):
            raise NumericFailure("root residual exceeds tolerance")

        monkeypatch.setattr(convo, "count_zeros_in_disk", fail)
        rep = certify_bounded(even_mobius_convolution_dilatation(0.5))
        assert rep.method == "grid" and rep.verdict == "indeterminate"
        # a zero outside the disk: the grid witnesses the excursion
        p = ComplexPolynomial([1.5, 1.0])
        rep = certify_bounded(RationalFunction(p, reciprocal_adjoint(p)))
        assert rep.method == "grid" and rep.verdict == "exceeds"
