"""Acceptance gate: the end-to-end checks the package must pass, one test
per criterion, each printing a single PASS/FAIL line on the terminal.

Every check here runs against the public API at the stated tolerances and
within the stated time budgets.  Randomness is seeded so reruns are
deterministic.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import sample_points

from harmconv.convo import (
    RationalFunction,
    blaschke_power_dilatation,
    combination,
    convolve,
    even_mobius_cohn_chain,
    even_mobius_quartic,
    halfplane_convolution_dilatation,
    mobius_power_dilatation,
    monomial_convolution_dilatation,
    negated_square_cohn_chain,
    negated_square_quartic,
    quarter_power_cohn_chain,
    quarter_power_sextic_poly,
    strip_convolution_dilatation,
)
from harmconv.cpoly import (
    ComplexPolynomial,
    cohn_reduce,
    count_zeros_in_disk,
    roots,
)
from harmconv.geochk import DiskGrid, convex_in_direction, hengartner_schober
from harmconv.hmap import (
    FAMILY_ALPHA_MAX,
    SlantParams,
    dilatation_series,
    f_a_alpha,
    family_f_alpha_n,
    shear,
    slanted_halfplane,
    strip_map,
)
from harmconv.series import PowerSeries, family_sum_polynomials

GRID = DiskGrid()  # rings out to 0.99, 720 angles per ring


@pytest.fixture
def announce(capfd):
    """Emit exactly one PASS/FAIL line per criterion on the real terminal."""

    @contextmanager
    def runner(label):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"{label}: FAIL")
            raise
        else:
            with capfd.disabled():
                print(f"{label}: PASS")

    return runner


def monomial_rf(k: int, coeff=1.0) -> RationalFunction:
    return RationalFunction(
        ComplexPolynomial([0.0] * k + [coeff]), ComplexPolynomial([1.0])
    )


def disk_points(rng, count, radius):
    rr = radius * np.sqrt(rng.uniform(0.01, 1.0, count))
    return rr * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def replay_chain(chain, rtol):
    """Each displayed reduction must equal its stated multiplier times the
    stated polynomial, coefficientwise relative to the step's scale."""
    for (_, prev), (mult, stated) in zip(chain, chain[1:]):
        got = np.asarray(cohn_reduce(prev).coeffs)
        want = np.asarray((mult * stated).coeffs)
        scale = float(np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


def test_1_strip_convolution_collapses_to_square(announce):
    with announce("criterion 1: strip convolution dilatation collapses to z^2"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        pts = disk_points(rng, 50, 0.9)
        e2 = np.zeros(64, dtype=complex)
        e2[2] = 1.0
        for a in np.arange(-0.9, 0.95, 0.1):
            omega = mobius_power_dilatation(float(a), 0.0, 2)
            f = convolve(
                f_a_alpha(0.0, 0.0, 64), strip_map(omega.series(64))
            )
            w = dilatation_series(f)  # order 63 after differentiation
            dev = np.max(np.abs(np.asarray(w.coeffs) - e2))
            assert dev < 1e-10, f"series deviation {dev:.3e} at a={a:.2f}"
            closed = strip_convolution_dilatation(omega)
            pdev = np.max(np.abs(closed(pts) - pts**2))
            assert pdev < 1e-10, f"pointwise deviation {pdev:.3e} at a={a:.2f}"
        assert time.perf_counter() - start < 5.0


def test_2_even_mobius_chain_and_roots(announce):
    with announce("criterion 2: even-Mobius quartic chain replays, 4 roots inside"):
        start = time.perf_counter()
        for a in np.arange(0.05, 0.96, 0.05):
            a = float(a)
            replay_chain(even_mobius_cohn_chain(a), rtol=1e-12)
            p = even_mobius_quartic(a)
            report = count_zeros_in_disk(p)
            assert report.all_inside and report.total == 4
            assert max(abs(r) for r in roots(p)) < 1.0
        assert time.perf_counter() - start < 2.0


def test_3_negated_square_chain_and_roots(announce):
    with announce("criterion 3: negated-square quartic chain replays, 4 roots inside"):
        start = time.perf_counter()
        for a in np.arange(0.05, 0.96, 0.05):
            a = float(a)
            replay_chain(negated_square_cohn_chain(a), rtol=1e-12)
            p = negated_square_quartic(a)
            report = count_zeros_in_disk(p)
            assert report.all_inside and report.total == 4
            assert max(abs(r) for r in roots(p)) < 1.0
        assert time.perf_counter() - start < 2.0


def test_4_monomial_shear_bound_and_slant_substitution(announce):
    with announce(
        "criterion 4: monomial convolution dilatation bounded on the grid, "
        "slant substitution identity"
    ):
        start = time.perf_counter()
        rng = np.random.default_rng(104)
        pts = disk_points(rng, 100, 0.95)
        for n in range(1, 6):
            threshold = (n - 2.0) / (n + 2.0)
            for gamma in (0.0, np.pi / 4.0, np.pi / 2.0):
                for theta in (0.0, 1.0):
                    for a in (threshold, (threshold + 0.95) / 2.0, 0.95):
                        sp = SlantParams(gamma=gamma, theta=theta, n=n, a=a)
                        w = monomial_convolution_dilatation(sp)
                        assert float(np.max(np.abs(w(GRID.points)))) < 1.0
                        # slanting the target rotates the slant-free
                        # dilatation and shifts the monomial phase
                        w0 = monomial_convolution_dilatation(
                            SlantParams(
                                gamma=0.0,
                                theta=theta - (n + 2) * gamma,
                                n=n,
                                a=a,
                            )
                        )
                        dev = np.max(
                            np.abs(
                                w(pts)
                                - np.exp(2j * gamma) * w0(np.exp(1j * gamma) * pts)
                            )
                        )
                        assert dev < 1e-10
        assert time.perf_counter() - start < 30.0


def test_5_halfplane_closed_form_concordance(announce):
    with announce(
        "criterion 5: half-plane convolution dilatation matches the series route"
    ):
        rng = np.random.default_rng(105)
        order = 128
        for _ in range(20):
            a = float(rng.uniform(-0.9, 0.9))
            gamma = float(rng.uniform(0.0, 2.0 * np.pi))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            menu = (
                monomial_rf(1),
                monomial_rf(2),
                monomial_rf(3, np.exp(1j * theta)),
                mobius_power_dilatation(a, 0.0, 2),
            )
            for omega in menu:
                closed = halfplane_convolution_dilatation(a, gamma, omega)
                f = convolve(
                    f_a_alpha(a, 0.0, order),
                    slanted_halfplane(gamma, omega.series(order)),
                )
                ws = dilatation_series(f)
                z = sample_points(closed, rng)
                dev = np.max(np.abs(ws(z) - closed(z)))
                assert dev < 1e-9, (
                    f"deviation {dev:.3e} at a={a:.3f}, gamma={gamma:.3f}"
                )


def test_6_family_target_positivity(announce):
    with announce(
        "criterion 6: family targets keep Re((1-z^2)(h'+g')) positive on the grid"
    ):
        z = GRID.points
        for alpha in (-FAMILY_ALPHA_MAX, -0.5, 0.0, 0.5, FAMILY_ALPHA_MAX):
            for n in (1, 2, 3):
                # h' + g' is the dyadic-product rational divided by its
                # leading z, so the whole grid can be checked exactly
                num, den = family_sum_polynomials(n, alpha)
                closed = RationalFunction(
                    ComplexPolynomial(num[1:]), ComplexPolynomial(den)
                )
                low = np.min(np.real((1.0 - z * z) * closed(z)))
                assert low > 0.0, f"min {low:.3e} at alpha={alpha:.4f}, n={n}"

                # the N = 128 series route must concur on the rings where
                # its truncation tail is far below the minimum itself
                omega = monomial_rf(2 ** (n - 1), -1.0)
                f = family_f_alpha_n(alpha, n, omega.series(128))
                low_series = hengartner_schober(f.h.add(f.g), DiskGrid(0.9))
                assert low_series > 0.0, (
                    f"series min {low_series:.3e} at alpha={alpha:.4f}, n={n}"
                )


def test_7_sextic_roots_chain_and_convexity(announce):
    with announce(
        "criterion 7: combination sextic roots inside, chain replays, "
        "imaginary-direction convexity holds"
    ):
        order = 256
        w1s = monomial_rf(1, -1.0).series(order)
        w2s = monomial_rf(2, 1.0).series(order)
        for alpha1, alpha2 in ((-0.5, 0.5), (-0.8, -0.2), (0.0, 0.8)):
            for t in (0.1, 0.3, 0.5, 0.7, 0.9):
                p = quarter_power_sextic_poly(alpha1, alpha2, t)
                rts = roots(p)
                assert len(rts) == 6
                assert max(abs(r) for r in rts) < 1.0
                # all sampled points sit away from the degenerate edges
                # (t in {0,1}, alpha1 = alpha2), so the chain must replay
                replay_chain(quarter_power_cohn_chain(alpha1, alpha2, t), rtol=1e-11)
                f = combination(
                    family_f_alpha_n(alpha1, 2, w1s),
                    family_f_alpha_n(alpha2, 2, w2s),
                    t,
                )
                rep = convex_in_direction(f, np.pi / 2.0)
                assert rep.passed is True, rep.note


def test_8_zero_count_matches_constructed_roots(announce):
    with announce(
        "criterion 8: disk zero count agrees with 1000 constructed root sets"
    ):
        start = time.perf_counter()
        rng = np.random.default_rng(108)
        for _ in range(1000):
            degree = int(rng.integers(1, 9))
            moduli = rng.uniform(0.0, 2.0 - 2e-6, degree)
            moduli = np.where(moduli > 1.0 - 1e-6, moduli + 2e-6, moduli)
            rts = moduli * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, degree))
            p = ComplexPolynomial(np.poly(rts)[::-1])
            truth = int(np.sum(moduli < 1.0))
            report = count_zeros_in_disk(p)
            assert report.inside == truth, (
                f"count {report.inside} != {truth} ({report.method}) for {rts}"
            )
        assert time.perf_counter() - start < 10.0


def test_9_structural_identities(announce):
    with announce(
        "criterion 9: shear inverse, half-plane target identity, rotation identity"
    ):
        rng = np.random.default_rng(109)

        # shearing any vanishing target recovers it from h + e^{-2i gamma} g
        for _ in range(25):
            order = 12
            F = PowerSeries(
                [0j, 1.0] + list(rng.uniform(-1, 1, order - 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, order - 1)))
            )
            wcs = rng.uniform(-1, 1, order + 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, order + 1))
            omega = PowerSeries(0.5 * wcs / max(1.0, np.max(np.abs(wcs))))
            gamma = float(rng.uniform(-np.pi, np.pi))
            f = shear(F, omega, gamma)
            recovered = f.h.add(f.g.scale(np.exp(-2j * gamma)))
            dev = np.max(np.abs(np.asarray(recovered.coeffs) - np.asarray(F.coeffs)))
            assert dev < 1e-11

        # the half-plane extremal family satisfies its defining identity
        # h + e^{-2i alpha} g = z/(1 - e^{i alpha} z)
        order = 64
        for a, alpha in ((0.5, 0.0), (-0.3, 0.9), (0.9, 2.5), (0.0, 4.0)):
            f = f_a_alpha(a, alpha, order)
            lhs = f.h.add(f.g.scale(np.exp(-2j * alpha)))
            rot = np.exp(1j * alpha)
            target = PowerSeries([0j] + [rot ** (k - 1) for k in range(1, order + 1)])
            dev = np.max(np.abs(np.asarray(lhs.coeffs) - np.asarray(target.coeffs)))
            assert dev < 1e-11

        # slanting is a rotation of the slant-free map
        pts = disk_points(rng, 20, 0.9)
        for a, alpha in ((0.5, 0.7), (-0.4, 2.0), (0.9, 5.5)):
            f = f_a_alpha(a, alpha, 128)
            f0 = f_a_alpha(a, 0.0, 128)
            dev = np.max(
                np.abs(f(pts) - np.exp(-1j * alpha) * f0(np.exp(1j * alpha) * pts))
            )
            assert dev < 1e-10
