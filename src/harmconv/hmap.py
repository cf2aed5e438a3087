"""Planar harmonic mappings f = h + conj(g) and the shearing construction.

The central constructor is ``shear``: given a prescribed analytic target F
and a dilatation series omega, it produces the harmonic map whose analytic
and co-analytic parts satisfy h' = F'/(1 + e^{-2i gamma} omega) and
g' = omega * h', so that h + e^{-2i gamma} g reproduces F.  The named
families below are all instances of this with specific targets: a slanted
half-plane, a vertical strip, and a dyadic-product family convolved against
log(1/(1-z)).  Each builds its target to its dilatation series' order, so
a map's order is its dilatation's.

Closed rational forms are expanded by series division rather than by typing
out their coefficients; the independently coded coefficient formulas in
``series.halfplane_parts`` serve as a cross-check in the tests, not as the
construction path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .series import (
    PowerSeries,
    arctangent,
    family_sum_polynomials,
    geometric,
    log_inverse,
    monomial,
    rational_series,
)

# The dyadic family's bound on |alpha|, the edge of the t3.8-t3.11 claims
# (geochk.CASES), which state it as 2*(sqrt(2) - 1).
FAMILY_ALPHA_MAX = 2.0 * (math.sqrt(2.0) - 1.0)

# A shear denominator 1 + e^{-2i gamma} omega(0) below this modulus means
# the construction divides by (numerically) zero.
SHEAR_ATOL = 1e-12
# Slack on a hypothesis edge: a parameter within it lies on the edge.
EDGE_ATOL = 1e-12


@dataclass(frozen=True)
class HarmonicMap:
    """f = h + conj(g), with g stored unconjugated."""

    h: PowerSeries
    g: PowerSeries

    def __call__(self, z):
        return self.h(z) + np.conjugate(self.g(z))

    def truncated(self, order: int) -> "HarmonicMap":
        """Both parts truncated at order, as copies."""
        return HarmonicMap(h=self.h.truncated(order), g=self.g.truncated(order))


@dataclass(frozen=True)
class SlantParams:
    """Parameters of the slanted half-plane convolution setup."""

    gamma: float
    theta: float
    n: int
    a: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"dilatation power n must be a positive integer, got {self.n!r}")
        if not -1.0 < self.a < 1.0:
            raise ValueError(f"need -1 < a < 1, got a={self.a}")


def family_alpha(name: str, alpha) -> float:
    """alpha as a float strictly inside (-2, 2), where the family factor
    1 + alpha w + w^2 keeps its zeros on the unit circle."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not -2.0 < alpha < 2.0:
        raise ValueError(f"need -2 < {name} < 2, got {name}={alpha}")
    return float(alpha)


def shear(F: PowerSeries, omega: PowerSeries, gamma: float) -> HarmonicMap:
    """Shear the analytic target F into a harmonic map with dilatation omega.

    Solves h' = F' / (1 + e^{-2i gamma} omega), g' = omega h', integrating
    both with zero constant term, so h + e^{-2i gamma} g = F and f(0) = 0.
    h and g have order min(F.order, omega.order + 1).
    """
    if abs(F.at_order(0)) > SHEAR_ATOL:
        raise ValueError(f"target must vanish at 0, got F(0)={F.at_order(0):.3e}")
    phase = complex(np.exp(-2j * gamma))
    denom = phase * omega.at_order(0) + 1.0
    if abs(denom) <= SHEAR_ATOL:
        raise ValueError(
            "shear denominator 1 + e^{-2i gamma} omega vanishes at the origin"
        )
    one_plus = omega.scale(phase).add(monomial(0, omega.order))
    hp = F.differentiate().divide(one_plus)
    gp = omega.multiply(hp)
    return HarmonicMap(h=hp.integrate(), g=gp.integrate())


def f_a_alpha(a: float, alpha: float, N: int) -> HarmonicMap:
    """The slanted half-plane extremal map with parameter a and slant alpha.

    Both parts are quadratics over (1 - e^{i alpha} z)^2, expanded by
    series division.  Satisfies h + e^{-2i alpha} g = z/(1 - e^{i alpha} z).
    """
    if not -1.0 < a < 1.0:
        raise ValueError(f"need -1 < a < 1, got a={a}")
    e1 = complex(np.exp(1j * alpha))
    den = [1.0 + 0j, -2.0 * e1, e1 * e1]
    h = rational_series([0j, 1.0 / (1.0 + a), -e1 / 2.0], den, N)
    g = rational_series([0j, a * e1 * e1 / (1.0 + a), -e1 * e1 * e1 / 2.0], den, N)
    return HarmonicMap(h=h, g=g)


def slanted_halfplane(gamma: float, omega: PowerSeries) -> HarmonicMap:
    """Shear of the slanted half-plane target z/(1 - e^{i gamma} z)."""
    return shear(geometric(omega.order, gamma), omega, gamma)


def strip_map(omega: PowerSeries) -> HarmonicMap:
    """Shear of the vertical strip target (1/2i) log((1+iz)/(1-iz))."""
    return shear(arctangent(omega.order), omega, 0.0)


def family_f_alpha_n(alpha: float, n: int, omega: PowerSeries) -> HarmonicMap:
    """Shear of the dyadic-product family target.

    The target is the coefficientwise product of the family-sum rational
    prefactor with log(1/(1-z)), per the family's defining display.
    """
    family_alpha("alpha", alpha)
    prefactor = rational_series(*family_sum_polynomials(n, alpha), omega.order)
    F = prefactor.hadamard(log_inverse(omega.order))
    return shear(F, omega, 0.0)


def dilatation_series(f: HarmonicMap) -> PowerSeries:
    """g'/h' as a series; needs h'(0) away from zero."""
    return f.g.differentiate().divide(f.h.differentiate())
