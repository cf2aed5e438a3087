"""Harmonic convolution, convex combination, and their closed-form dilatations.

Every construction here follows the same pattern: two harmonic maps are
combined (coefficientwise convolution, or a pointwise affine combination),
and the dilatation of the result is assembled as an exact rational function
of z by polynomial arithmetic, with no series round-trip.  The series path
through ``convolve``/``combination`` plus ``dilatation_series`` exists
independently, and the test suite holds the two against each other.

Boundedness of a dilatation by 1 is what makes the combined map locally
univalent, so the rational forms are arranged to expose the quotient
p(z)/p*(z) of a polynomial against its reciprocal adjoint: once every zero
of p lies strictly inside the unit disk, the quotient is a finite Blaschke
product and the bound is automatic.  ``certify_bounded`` runs that argument
end to end and falls back to grid evaluation when the structure is absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cpoly import (
    ComplexPolynomial,
    NumericFailure,
    ZeroCountReport,
    count_zeros_in_disk,
    reciprocal_adjoint,
)
from .hmap import EDGE_ATOL, FamilyParams, HarmonicMap, SlantParams
from .series import PowerSeries, rational_series, ring_values

# Relative tolerance for structural coefficient matches (Blaschke shape,
# self-inversive factors).  Constructions are exact arithmetic on exact
# inputs, so matches are far tighter in practice.
SHAPE_RTOL = 1e-9
# A detected prefactor constant must be unimodular to within this.
UNIMODULAR_ATOL = 1e-10
# Grid |omega| within this of 1 is flagged boundary-tight, and values above
# 1 by more than this count as a witnessed excursion outside the disk.
GRID_ATOL = 1e-9

DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
DEFAULT_ANGLES_PER_RING = 720
# A grid holds radii x angles complex values (about 17 GB at 1e8 angles on
# the 11 default rings), so DiskGrid refuses more angles than this, 91
# times the default, before it allocates any.
MAX_ANGLES_PER_RING = 65536

_Z = ComplexPolynomial([0.0, 1.0])
_ONE = ComplexPolynomial([1.0])


@dataclass(frozen=True)
class RationalFunction:
    """num/den, never reduced; common factors stay where the algebra put them."""

    num: ComplexPolynomial
    den: ComplexPolynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def series(self, N: int) -> PowerSeries:
        """Taylor expansion to order N; needs den(0) away from zero."""
        return rational_series(self.num.coeffs, self.den.coeffs, N)

    def compose_power(self, m: int) -> "RationalFunction":
        """The function z -> self(z**m)."""
        return RationalFunction(self.num.compose_power(m), self.den.compose_power(m))


def rationals_equal(r1: RationalFunction, r2: RationalFunction) -> bool:
    """Equality as functions: num1*den2 and num2*den1 agree to 1e-9,
    relative to max(1, their moduli), at 20 seeded points of |z| < 0.9.

    Common factors (which this module never cancels) drop out of
    num1*den2 = num2*den1, so representations that differ by them
    still compare equal.  numpy.random loads on the first call, not on
    import: callers that never compare pay nothing for it.
    """
    rng = np.random.default_rng(714025)
    z = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 20)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 20))
    lhs = r1.num(z) * r2.den(z)
    rhs = r2.num(z) * r1.den(z)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return bool(np.all(np.abs(lhs - rhs) <= 1e-9 * scale))


# ---------------------------------------------------------------------------
# map-level operations


def convolve(f1: HarmonicMap, f2: HarmonicMap) -> HarmonicMap:
    """Coefficientwise convolution, analytic and co-analytic parts separately."""
    return HarmonicMap(h=f1.h.hadamard(f2.h), g=f1.g.hadamard(f2.g))


def combination(f1: HarmonicMap, f2: HarmonicMap, t: float) -> HarmonicMap:
    """The affine combination t*f1 + (1-t)*f2, componentwise."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"combination weight t must lie in [0, 1], got {t}")
    return HarmonicMap(
        h=f1.h.scale(t).add(f2.h.scale(1.0 - t)),
        g=f1.g.scale(t).add(f2.g.scale(1.0 - t)),
    )


# ---------------------------------------------------------------------------
# dilatation inputs used by the half-plane and strip constructions


def mobius_power_dilatation(a: float, theta: float, n: int) -> RationalFunction:
    """omega(z) = e^{i theta} (a - z**n)/(1 - a z**n), a disk automorphism of z**n."""
    if not -1.0 < a < 1.0:
        raise ValueError(f"need -1 < a < 1, got a={a}")
    zn = _Z ** n
    phase = complex(np.exp(1j * theta))
    return RationalFunction(phase * (a * _ONE - zn), _ONE - a * zn)


def blaschke_power_dilatation(a: float, theta: float, n: int) -> RationalFunction:
    """omega(z) = e^{i theta} (a - z)**n / (1 - a z)**n, an automorphism power."""
    if not -1.0 < a < 1.0:
        raise ValueError(f"need -1 < a < 1, got a={a}")
    phase = complex(np.exp(1j * theta))
    return RationalFunction(
        phase * ComplexPolynomial([a, -1.0]) ** n,
        ComplexPolynomial([1.0, -a]) ** n,
    )


# ---------------------------------------------------------------------------
# closed-form convolution dilatations


def halfplane_convolution_dilatation(
    a: float, gamma: float, omega: RationalFunction
) -> RationalFunction:
    """Dilatation of f_{a,0} convolved with the slanted half-plane map
    sheared by omega.

    With omega = u/v and W = u'v - uv' (the numerator of omega'), the
    display clears to
        P = 2u(v + Eu)(a - cz) + (a-1) z W (1 - cz)
        Q = 2v(v + Eu)(1 - acz) + E (a-1) z W (1 - cz)
    where E = e^{-2i gamma}, c = e^{i gamma}.
    """
    if not -1.0 < a < 1.0:
        raise ValueError(f"need -1 < a < 1, got a={a}")
    u, v = omega.num, omega.den
    E = complex(np.exp(-2j * gamma))
    c = complex(np.exp(1j * gamma))
    W = u.derivative() * v - u * v.derivative()
    v_plus_Eu = v + E * u
    a_minus_cz = ComplexPolynomial([a, -c])
    one_minus_acz = ComplexPolynomial([1.0, -a * c])
    one_minus_cz = ComplexPolynomial([1.0, -c])
    tail = (a - 1.0) * (_Z * W * one_minus_cz)
    P = 2.0 * (u * v_plus_Eu * a_minus_cz) + tail
    Q = 2.0 * (v * v_plus_Eu * one_minus_acz) + E * tail
    return RationalFunction(P, Q)


def cancel_unit_root(r: RationalFunction) -> RationalFunction | None:
    """Divide numerator and denominator by (z - 1) when both vanish at 1.

    Returns the reduced rational, or None when either side has a residual
    at 1 above 1e-10 times its coefficient scale.  The gamma = 0 half-plane
    assembly carries such a factor whenever omega(1) = -1 (every Moebius
    power does; Blaschke powers do when the exponent is odd), and its
    circle zero blocks the structural boundedness routes.
    """
    reduced = []
    for poly in (r.num, r.den):
        scale = max(abs(c) for c in poly.coeffs)
        if scale == 0.0 or abs(poly(1.0)) > 1e-10 * scale:
            return None
        desc = np.asarray(poly.coeffs[::-1], dtype=complex)
        quo, rem = np.polydiv(desc, np.array([1.0, -1.0], dtype=complex))
        reduced.append(ComplexPolynomial(quo[::-1]))
    return RationalFunction(reduced[0], reduced[1])


def monomial_convolution_dilatation(params: SlantParams) -> RationalFunction:
    """Dilatation of f_{a,0} convolved with the gamma-slanted half-plane map
    sheared by omega = e^{i theta} z**n.

    Returns -e^{2i theta} e^{-i gamma} z**n * N(z)/N~(z) where N~ is the
    reciprocal adjoint of N, so the whole thing is Blaschke-shaped with
    monomial power n.  Coefficients accumulate with += because n = 1 makes
    the z**n and z terms collide.
    """
    a, gamma, theta, n = params.a, params.gamma, params.theta, params.n
    ei = np.exp
    half_lo = 0.5 * (2.0 - n + a * n)  # multiplies z in the numerator core
    half_const = 0.5 * (n - 2.0 * a - a * n)
    core = np.zeros(n + 2, dtype=complex)
    core[n + 1] += 1.0
    core[n] += -a * ei(-1j * gamma)
    core[1] += half_lo * ei(-1j * theta) * ei(2j * gamma)
    core[0] += half_const * ei(-1j * theta) * ei(1j * gamma)
    den = np.zeros(n + 2, dtype=complex)
    den[n + 1] += half_const * ei(1j * theta) * ei(-1j * gamma)
    den[n] += half_lo * ei(1j * theta) * ei(-2j * gamma)
    den[1] += -a * ei(1j * gamma)
    den[0] += 1.0
    prefactor = -ei(2j * theta) * ei(-1j * gamma)
    num = np.concatenate([np.zeros(n, dtype=complex), prefactor * core])
    return RationalFunction(ComplexPolynomial(num), ComplexPolynomial(den))


def even_mobius_quartic(a: float) -> ComplexPolynomial:
    """The quartic p with p/p* the dilatation of f_{a,0} convolved with the
    half-plane map sheared by omega = (a - z**2)/(1 - a z**2)."""
    if not 0.0 <= a < 1.0:
        raise ValueError(f"need 0 <= a < 1, got a={a}")
    return ComplexPolynomial([a * a, a * (a - 1.0), 1.0 + a * a - 4.0 * a, 1.0 - a, 1.0])


def even_mobius_convolution_dilatation(a: float) -> RationalFunction:
    p = even_mobius_quartic(a)
    return RationalFunction(p, reciprocal_adjoint(p))


def even_mobius_cohn_chain(a: float) -> tuple[tuple[complex, ComplexPolynomial], ...]:
    """The displayed reduction chain for the even-Mobius quartic.

    Entry 0 is (1, p); entry i >= 1 is (m_i, p_i) with the property that one
    reduction step applied to p_{i-1} gives exactly m_i * p_i.
    """
    p = even_mobius_quartic(a)
    p1 = ComplexPolynomial([-a, 1.0 + a * a - 4.0 * a, 1.0 - a + a * a, 1.0 + a * a])
    p2 = ComplexPolynomial(
        [
            1.0 - 3.0 * a + a * a - 3.0 * a**3 + a**4,
            1.0 - 2.0 * a * a + a**4,
            1.0 + a * a + a**4,
        ]
    )
    p3 = ComplexPolynomial([(1.0 + a) ** 2, 2.0 + a + 2.0 * a * a])
    return (
        (1.0, p),
        (1.0 - a * a, p1),
        (1.0, p2),
        (3.0 * a * (a - 1.0) ** 2 * (1.0 + a * a), p3),
    )


def negated_square_quartic(a: float) -> ComplexPolynomial:
    """The quartic p with p/p* the dilatation of f_{a,0} convolved with the
    half-plane map sheared by omega = -(a - z)**2/(1 - a z)**2."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"need 0 < a < 1, got a={a}")
    return ComplexPolynomial(
        [
            -(a**3),
            -a + 4.0 * a * a - a**3,
            1.0 - 4.0 * a + 4.0 * a * a - a**3,
            1.0 - 4.0 * a + a * a,
            1.0,
        ]
    )


def negated_square_convolution_dilatation(a: float) -> RationalFunction:
    p = negated_square_quartic(a)
    return RationalFunction(p, reciprocal_adjoint(p))


def negated_square_cohn_chain(a: float) -> tuple[tuple[complex, ComplexPolynomial], ...]:
    """The displayed reduction chain for the negated-square quartic."""
    p = negated_square_quartic(a)
    p1 = ComplexPolynomial(
        [
            -(a - 4.0 * a * a + a**3),
            1.0 - 4.0 * a + 5.0 * a * a - 4.0 * a**3 + a**4,
            1.0 - 4.0 * a + 2.0 * a * a - 4.0 * a**3 + a**4,
            1.0 + a * a + a**4,
        ]
    )
    A = 1.0 + a * a + 8.0 * a**3 - 15.0 * a**4 + 8.0 * a**5 + a**6 + a**8
    B = (
        1.0
        - 3.0 * a
        - 2.0 * a * a
        + 11.0 * a**3
        - 9.0 * a**4
        + 11.0 * a**5
        - 2.0 * a**6
        - 3.0 * a**7
        + a**8
    )
    C = (
        (1.0 - 4.0 * a + a * a)
        * (1.0 - a + a * a) ** 2
        * (1.0 + 3.0 * a + a * a)
    )
    p2 = ComplexPolynomial([B, C, A])
    p3 = ComplexPolynomial(
        [
            1.0 - 2.0 * a - 8.0 * a * a + 8.0 * a**3 - 8.0 * a**4 - 2.0 * a**5 + a**6,
            2.0 - a - 4.0 * a * a + 16.0 * a**3 - 4.0 * a**4 - a**5 + 2.0 * a**6,
        ]
    )
    return (
        (1.0, p),
        (1.0 - a * a, p1),
        (1.0, p2),
        (3.0 * a * (a * a - 1.0) ** 2 * (1.0 + a * a + a**4), p3),
    )


def strip_convolution_dilatation(omega: RationalFunction) -> RationalFunction:
    """Dilatation of f_{0,0} convolved with the strip map sheared by omega.

    With omega = u/v and W = u'v - uv', the display
        -z [omega'(1+z^2) - 2 z omega (1+omega)] / [2(1+omega) - omega' z (1+z^2)]
    clears to
        num = 2 z^2 u (v+u) - z W (1+z^2),   den = 2 v (v+u) - z W (1+z^2).
    """
    u, v = omega.num, omega.den
    W = u.derivative() * v - u * v.derivative()
    v_plus_u = v + u
    z_one_plus_z2 = ComplexPolynomial([0.0, 1.0, 0.0, 1.0])
    tail = W * z_one_plus_z2
    num = 2.0 * ((_Z * _Z) * u * v_plus_u) - tail
    den = 2.0 * (v * v_plus_u) - tail
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# combinations of the dyadic-product family


def _one_plus_z_pow(k: int) -> ComplexPolynomial:
    out = [0j] * (k + 1)
    out[0] = 1.0
    out[k] = 1.0
    return ComplexPolynomial(out)


def _family_factor(n: int, alpha: float) -> ComplexPolynomial:
    """1 + z**(2**n) + alpha z**(2**(n-1))."""
    out = [0j] * (2**n + 1)
    out[0] = 1.0
    out[2 ** (n - 1)] += alpha
    out[2**n] += 1.0
    return ComplexPolynomial(out)


def combination_dilatation(
    params1: FamilyParams,
    params2: FamilyParams,
    omega1: RationalFunction,
    omega2: RationalFunction,
    t: float,
) -> RationalFunction:
    """Dilatation of t*f_{alpha1,n} + (1-t)*f_{alpha2,m} for n >= m.

    With omega_i = u_i/v_i, the cleared form is
        P = t u1 A (v2+u2) B + (1-t) u2 C D (v1+u1)
        Q = t v1 A (v2+u2) B + (1-t) v2 C D (v1+u1)
    where A carries the dyadic factors from 2**m up through the first
    family's top factor, B = 1+z^{2^{m+1}}, C = 1+z^{2^{n+1}}, and D is the
    second family's top factor.  When n = m, B and C are the same
    polynomial and are dropped from both P and Q, which is exactly the
    shared-target reduction this specializes to.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"combination weight t must lie in [0, 1], got {t}")
    n, m = params1.n, params2.n
    if n < m:
        raise ValueError(f"need n >= m (got n={n}, m={m}); swap the arguments")
    u1, v1 = omega1.num, omega1.den
    u2, v2 = omega2.num, omega2.den
    A = _ONE
    for j in range(m, n):
        A = A * _one_plus_z_pow(2**j)
    A = A * _family_factor(n, params1.alpha)
    D = _family_factor(m, params2.alpha)
    first = t * (u1 * A * (v2 + u2))
    first_den = t * (v1 * A * (v2 + u2))
    second = (1.0 - t) * (u2 * D * (v1 + u1))
    second_den = (1.0 - t) * (v2 * D * (v1 + u1))
    if n == m:
        return RationalFunction(first + second, first_den + second_den)
    B = _one_plus_z_pow(2 ** (m + 1))
    C = _one_plus_z_pow(2 ** (n + 1))
    return RationalFunction(
        first * B + second * C,
        first_den * B + second_den * C,
    )


def shared_target_combination_dilatation(
    omega1: RationalFunction, omega2: RationalFunction, t: float
) -> RationalFunction:
    """Dilatation of the combination when both members share one target
    (same alpha, same n):
        (t w1 + (1-t) w2 + w1 w2) / (1 + t w2 + (1-t) w1).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"combination weight t must lie in [0, 1], got {t}")
    u1, v1 = omega1.num, omega1.den
    u2, v2 = omega2.num, omega2.den
    return RationalFunction(
        t * (u1 * v2) + (1.0 - t) * (u2 * v1) + u1 * u2,
        v1 * v2 + t * (u2 * v1) + (1.0 - t) * (u1 * v2),
    )


def _check_family_combo(alpha1: float, alpha2: float, t: float):
    FamilyParams(alpha=alpha1, n=1, t=t)
    FamilyParams(alpha=alpha2, n=1, t=t)


def opposed_monomial_cubic(alpha1: float, alpha2: float, t: float) -> RationalFunction:
    """Combination dilatation for the pair omega1 = -w, omega2 = +w, written
    in the substituted variable w = z**(2**(n-1)).

    Returns -w * c(w)/c*(w) with the displayed cubic c.
    """
    _check_family_combo(alpha1, alpha2, t)
    c = ComplexPolynomial(
        [
            2.0 * t - 1.0,
            1.0 - alpha2 * (1.0 - t) + alpha1 * t,
            2.0 * t - 1.0 + alpha1 * t + alpha2 * (1.0 - t),
            1.0,
        ]
    )
    return RationalFunction(-1.0 * (_Z * c), reciprocal_adjoint(c))


def adjacent_negative_cubic(alpha1: float, alpha2: float, t: float) -> RationalFunction:
    """Combination dilatation for omega1 = -w, omega2 = -w**2 in
    w = z**(2**(n-1)), after the common factor (1-w) is cancelled.

    Returns -w * P(w)/P*(w) with cubic P.
    """
    _check_family_combo(alpha1, alpha2, t)
    P = ComplexPolynomial(
        [
            t,
            1.0 + alpha1 * t,
            t + alpha1 * t + alpha2 * (1.0 - t),
            1.0,
        ]
    )
    return RationalFunction(-1.0 * (_Z * P), reciprocal_adjoint(P))


def adjacent_positive_quartic(alpha1: float, alpha2: float, t: float) -> RationalFunction:
    """Combination dilatation for omega1 = -w, omega2 = +w**2 in
    w = z**(2**(n-1)).

    Returns -w * P(w)/P*(w) with quartic P.
    """
    _check_family_combo(alpha1, alpha2, t)
    P = ComplexPolynomial(
        [
            t,
            t * alpha1 - (1.0 - t),
            2.0 * t + (1.0 - t) * (1.0 - alpha2),
            t * alpha1 - (1.0 - t) * (1.0 - alpha2),
            1.0,
        ]
    )
    return RationalFunction(-1.0 * (_Z * P), reciprocal_adjoint(P))


def quarter_power_sextic_poly(alpha1: float, alpha2: float, t: float) -> ComplexPolynomial:
    """The sextic p(w) for omega1 = -z**(2**(n-2)), omega2 = +z**(2**(n-1)),
    n >= 2, in the substituted variable w = z**(2**(n-2))."""
    _check_family_combo(alpha1, alpha2, t)
    return ComplexPolynomial(
        [
            t,
            t - 1.0,
            1.0 + alpha1 * t,
            alpha2 * (t - 1.0),
            alpha2 + (1.0 + alpha1 - alpha2) * t,
            t - 1.0,
            1.0,
        ]
    )


def quarter_power_sextic(alpha1: float, alpha2: float, t: float) -> RationalFunction:
    """Combination dilatation -w * p(w)/p*(w) with the sextic p."""
    p = quarter_power_sextic_poly(alpha1, alpha2, t)
    return RationalFunction(-1.0 * (_Z * p), reciprocal_adjoint(p))


def quarter_power_cohn_chain(
    alpha1: float, alpha2: float, t: float
) -> tuple[tuple[complex, ComplexPolynomial], ...]:
    """The displayed reduction chain for the sextic.

    Degenerates at t=0 (second step ties), t=1 (first step ties) and
    alpha1=alpha2 (third multiplier vanishes); elsewhere each reduction of
    p_{i-1} equals m_i * p_i exactly.
    """
    p = quarter_power_sextic_poly(alpha1, alpha2, t)
    d = alpha1 - alpha2
    p1 = ComplexPolynomial(
        [
            -(1.0 - t),
            1.0 + (1.0 + alpha1 - alpha2) * t,
            -alpha2 * (1.0 - t),
            alpha2 + alpha1 * t,
            -(1.0 - t),
            1.0 + t,
        ]
    )
    p2 = ComplexPolynomial(
        [
            4.0 + d * (1.0 + t),
            d * (1.0 - t),
            alpha1 + 3.0 * alpha2 + d * t,
            d * (1.0 - t),
            4.0,
        ]
    )
    p3 = ComplexPolynomial(
        [
            d * (1.0 - t),
            alpha1 + 3.0 * alpha2 + d * t,
            d * (1.0 - t),
            8.0 + d * (1.0 + t),
        ]
    )
    return (
        (1.0, p),
        (1.0 - t, p1),
        (t, p2),
        (-d * (1.0 + t), p3),
    )


# ---------------------------------------------------------------------------
# boundedness certification


@dataclass(frozen=True)
class DiskGrid:
    """Concentric sampling rings inside the unit disk.

    One grid serves a whole run: the certificate's scan of |omega~|, the
    univalence gate and the Hengartner-Schober minimum all sample it.
    """

    radii: tuple[float, ...] = DEFAULT_RADII
    angles_per_ring: int = DEFAULT_ANGLES_PER_RING

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("grid needs at least one radius")
        if radii[0] <= 0.0 or radii[-1] >= 1.0:
            raise ValueError("grid radii must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("grid radii must be strictly increasing")
        if self.angles_per_ring < 4:
            raise ValueError("angles_per_ring must be at least 4")
        if self.angles_per_ring > MAX_ANGLES_PER_RING:
            raise ValueError(
                f"angles_per_ring must be at most {MAX_ANGLES_PER_RING}, got "
                f"{self.angles_per_ring}: the grid holds radii x angles complex "
                "values, and more angles only refine sampled evidence"
            )
        object.__setattr__(self, "radii", radii)

    @cached_property
    def points(self) -> np.ndarray:
        """Ring by ring, angles 2 pi j / angles_per_ring; read-only, since
        every caller shares the one cached array."""
        ang = np.exp(
            1j * (2.0 * np.pi) * np.arange(self.angles_per_ring) / self.angles_per_ring
        )
        pts = (np.asarray(self.radii)[:, None] * ang[None, :]).ravel()
        pts.flags.writeable = False
        return pts

    def sample(self, F: PowerSeries) -> np.ndarray:
        """F at self.points, in the same order, by one row-wise FFT over
        all rings (series.ring_values)."""
        return ring_values(F.coeffs, self.radii, self.angles_per_ring).ravel()

    @lru_cache(maxsize=64)
    def capped(self, r_max: float) -> "DiskGrid":
        """The sub-grid of rings with radius <= r_max (at least one ring),
        memoised so each run builds it, and its points, once."""
        kept = tuple(r for r in self.radii if r <= r_max + EDGE_ATOL)
        if not kept:
            kept = (float(r_max),)
        return DiskGrid(kept, self.angles_per_ring)


# The one sampling grid: every run's certificate scan, gate and min_hs.
DEFAULT_GRID = DiskGrid()


@dataclass(frozen=True)
class BoundednessReport:
    """Outcome of trying to certify |omega~| < 1 on the unit disk.

    verdict is one of "certified", "exceeds", "indeterminate".  A verdict
    of "exceeds" is only ever issued on a witnessed grid value above 1; no
    structural argument here can prove unboundedness, because common
    factors between numerator and denominator could cancel an apparent
    pole.
    """

    verdict: str
    method: str
    shape: str  # "zero", "blaschke", "generic"
    monomial_power: int
    shape_constant: complex | None
    zero_report: ZeroCountReport | None
    grid_max: float | None
    boundary_tight: bool
    note: str

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def _strip_monomial(p: ComplexPolynomial) -> tuple[int, ComplexPolynomial]:
    """Split p = z**k * core with core(0) significantly nonzero."""
    cs = list(p.coeffs)
    cut = SHAPE_RTOL * max(abs(c) for c in cs) * 1e-3
    k = 0
    while k < len(cs) - 1 and abs(cs[k]) <= cut:
        k += 1
    return k, ComplexPolynomial(cs[k:])


def _proportionality(
    p: ComplexPolynomial, q: ComplexPolynomial
) -> complex | None:
    """Return c with q = c * p coefficientwise (within SHAPE_RTOL), or None."""
    if p.degree != q.degree or p.is_zero or q.is_zero:
        return None
    pa = np.asarray(p.coeffs)
    qa = np.asarray(q.coeffs)
    anchor = int(np.argmax(np.abs(pa)))
    if abs(pa[anchor]) == 0.0:
        return None
    c = qa[anchor] / pa[anchor]
    scale = max(float(np.max(np.abs(qa))), 1e-300)
    if float(np.max(np.abs(qa - c * pa))) > SHAPE_RTOL * scale:
        return None
    return complex(c)


def _grid_scan(r: RationalFunction, grid: DiskGrid) -> tuple[float, bool]:
    """(max |r| over the grid, pole detected) with pole points masked."""
    z = grid.points
    nu = r.num(z)
    de = r.den(z)
    de_abs = np.abs(de)
    pole = de_abs <= 1e-12 * max(float(np.max(de_abs)), 1e-300)
    if pole.all():
        return float("inf"), True
    if pole.any():
        nu, de = nu[~pole], de[~pole]
    return float(np.max(np.abs(nu / de))), bool(pole.any())


def certify_bounded(r: RationalFunction) -> BoundednessReport:
    """Certify |r(z)| < 1 on the unit disk, structurally when possible.

    Path 1: the function has the Blaschke shape z**k * core / (c * core*)
    with unimodular c, and every zero of core lies strictly inside: then it
    is a finite Blaschke product (times z**k), hence strictly bounded by 1.

    Path 2: same shape, but core is itself a unimodular multiple of its own
    adjoint.  Then core/core* is a constant of modulus 1 and the function
    collapses to a rotation of z**k, bounded whenever k >= 1.  This covers
    the boundary cases where core's zeros sit exactly on the circle, and
    holds whether or not the zero count succeeded.

    Otherwise the verdict rests on the values at DEFAULT_GRID.points only:
    above 1 + GRID_ATOL is a witnessed excursion ("exceeds"); anything else
    is "indeterminate", never a certificate.
    """
    k, c, shape, zero_report, verdict = 0, None, "zero", None, None
    if r.num.is_zero:
        grid_max, pole = 0.0, False
        verdict, method, note = "certified", "trivial", "identically zero"
    else:
        grid_max, pole = _grid_scan(r, DEFAULT_GRID)
        k, core = _strip_monomial(r.num)
        adjoint = reciprocal_adjoint(core)
        c = _proportionality(adjoint, r.den)
        blaschke = c is not None and abs(abs(c) - 1.0) <= UNIMODULAR_ATOL
        shape = "blaschke" if blaschke else "generic"
        detail = "numeric-only: no Blaschke shape detected"
    if shape == "blaschke":
        try:
            zero_report = count_zeros_in_disk(core)
        except NumericFailure as exc:
            # The root oracle could not vouch for the zeros (clustered
            # zeros defeat it), so the count proves nothing.
            detail = f"zero count of the core failed: {exc}"
        else:
            if zero_report.all_inside and k + zero_report.total >= 1:
                verdict, method = "certified", zero_report.method
                note = f"finite Blaschke product of degree {k + zero_report.total}"
            else:
                detail = (
                    f"{zero_report.on_circle} zero(s) on the circle, "
                    f"{zero_report.outside} outside; no structural cancellation found"
                )
        if verdict is None and k >= 1:
            lam = _proportionality(core, adjoint)
            if lam is not None and abs(abs(lam) - 1.0) <= UNIMODULAR_ATOL:
                verdict, method = "certified", "self-inversive"
                note = (
                    "core equals a unimodular multiple of its own adjoint; "
                    f"the quotient collapses to a rotation of z**{k}"
                )
    if verdict is None:
        method = "grid"
        if pole:
            verdict = "indeterminate"
            note = "denominator vanishes on the sample grid; certificate withheld"
        elif grid_max > 1.0 + GRID_ATOL:
            verdict = "exceeds"
            note = f"grid maximum {grid_max:.6g} exceeds 1; {detail}"
        else:
            verdict = "indeterminate"
            note = f"grid maximum {grid_max:.6g} stays at or below 1 but proves nothing; {detail}"
    return BoundednessReport(
        verdict=verdict,
        method=method,
        shape=shape,
        monomial_power=k,
        shape_constant=c,
        zero_report=zero_report,
        grid_max=grid_max,
        boundary_tight=grid_max >= 1.0 - GRID_ATOL,
        note=note,
    )
