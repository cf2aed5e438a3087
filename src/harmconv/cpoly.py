"""Polynomials over the complex numbers and unit-disk zero counting.

Coefficients are kept in ascending order, so ``coeffs[k]`` multiplies
``z**k``.  The counting routine is the Schur-Cohn reduction chain: each
step strips exactly one zero from one side of the unit circle and keeps
zeros on it, and a reversed step goes on with the reciprocal adjoint, so
the chain counts both sides.  Only a tie (or a degree collapse from
trimming) falls back to an explicit simultaneous root iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Trailing coefficients at or below TRIM_RTOL * max|c_k| are treated as zero.
TRIM_RTOL = 1e-15
# |a_n| - |a_0| margins at or below this (relative) make a reduction step
# numerically untrustworthy.
DEGENERACY_RTOL = 1e-12
# Root moduli within CIRCLE_ATOL of 1 count as "on the circle".
CIRCLE_ATOL = 1e-9

DK_MAX_ITER = 500
DK_STEP_TOL = 1e-13
DK_RESIDUAL_RTOL = 1e-10


class ReductionNotApplicable(Exception):
    """A reduction step's coefficient inequality failed or tied.

    ``tie`` is True when the moduli were equal up to the degeneracy
    tolerance, i.e. the step was abandoned because the answer would hinge
    on noise rather than because the inequality clearly reversed.
    """

    def __init__(self, message: str, tie: bool = False):
        super().__init__(message)
        self.tie = tie


class NumericFailure(Exception):
    """The root iteration could not vouch for its output."""


def horner(coeffs, z):
    """sum coeffs[k] * z**k by Horner's scheme, at a scalar or numpy array.

    At an array the accumulator, a fresh array, is updated in place, without
    a temporary per coefficient; at a scalar the same statements rebind it
    and round as acc * z + c does.
    """
    acc = z * 0j
    for c in coeffs[::-1]:
        acc *= z
        acc += c
    return acc


class ComplexPolynomial:
    """Immutable dense polynomial with complex coefficients, ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [complex(c) for c in coeffs]
        if cs:
            cut = TRIM_RTOL * max(abs(c) for c in cs)
            while cs and abs(cs[-1]) <= cut:
                cs.pop()
        self.coeffs: tuple[complex, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the trimmed polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z):
        """Evaluate by Horner's scheme; accepts scalars or numpy arrays."""
        return horner(self.coeffs, z)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return ComplexPolynomial(out)

    def __neg__(self) -> "ComplexPolynomial":
        return ComplexPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ComplexPolynomial):
            if self.is_zero or other.is_zero:
                return ComplexPolynomial()
            return ComplexPolynomial(
                np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs))
            )
        return ComplexPolynomial(complex(other) * c for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ComplexPolynomial":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        out = ComplexPolynomial([1.0])
        for _ in range(k):
            out = out * self
        return out

    def derivative(self) -> "ComplexPolynomial":
        return ComplexPolynomial(k * c for k, c in enumerate(self.coeffs) if k)

    def compose_power(self, m: int) -> "ComplexPolynomial":
        """Return p(z**m), spreading coefficient k to index m*k."""
        if m < 1:
            raise ValueError("power must be a positive integer")
        if self.is_zero:
            return ComplexPolynomial()
        out = [0j] * (m * self.degree + 1)
        for k, c in enumerate(self.coeffs):
            out[m * k] = c
        return ComplexPolynomial(out)

    def __repr__(self) -> str:
        return f"ComplexPolynomial({list(self.coeffs)!r})"


def reciprocal_adjoint(p: ComplexPolynomial) -> ComplexPolynomial:
    """Return p*(z) = z**n * conj(p(1/conj(z))): conjugated, reversed.

    On |z| = 1 the adjoint satisfies |p*(z)| = |p(z)|, and its zeros are
    the circle reflections 1/conj(w) of the zeros w of p.
    """
    return ComplexPolynomial(c.conjugate() for c in reversed(p.coeffs))


def cohn_reduce(p: ComplexPolynomial) -> ComplexPolynomial:
    """One reduction step: (conj(a_n) * p - a_0 * p*) / z.

    Applicable when |a_0| < |a_n| with a safe margin.  The result has
    degree exactly one less than p, one fewer zero inside the unit disk,
    and the same zeros on the circle.  Raises ReductionNotApplicable
    otherwise, with ``tie=True`` when the moduli agree up to tolerance.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1 to reduce")
    a0, an = p.coeffs[0], p.coeffs[-1]
    margin = abs(an) - abs(a0)
    tol = DEGENERACY_RTOL * max(abs(a0), abs(an), 1.0)
    if margin <= tol:
        raise ReductionNotApplicable(
            f"|a0|={abs(a0):.3e} vs |an|={abs(an):.3e}", tie=abs(margin) <= tol
        )
    t = an.conjugate() * p - a0 * reciprocal_adjoint(p)
    # The constant term cancels exactly (same two factors multiplied in the
    # same order), so dropping index 0 is the division by z.
    return ComplexPolynomial(t.coeffs[1:])


@dataclass(frozen=True)
class ZeroCountReport:
    """Where the zeros of a polynomial sit relative to the unit circle.

    ``length`` counts the reduction steps taken.  A complete chain (method
    "cohn-chain") has length ``total``: each step drops the degree by
    exactly one, and the counts are proved.  On a tie or a degree collapse
    the counts come from the root oracle (method "roots") and the length
    is that of whatever prefix succeeded.
    """

    total: int
    inside: int
    on_circle: int
    method: str  # "cohn-chain" or "roots"
    length: int

    @property
    def outside(self) -> int:
        return self.total - self.inside - self.on_circle

    @property
    def all_inside(self) -> bool:
        return self.inside == self.total


def roots(p: ComplexPolynomial) -> np.ndarray:
    """All zeros, by simultaneous Durand-Kerner iteration.

    Exact zero coefficients at the low end are factored out first (those
    are zeros at the origin).  The iteration runs at most DK_MAX_ITER Jacobi
    updates from guesses spread on a circle of radius 1 + max|c_k/c_n|,
    offset by 0.4 radians so no guess starts on the real axis.  Acceptance
    is a backward error test: |p(z)| must not exceed DK_RESIDUAL_RTOL *
    sum|c_k||z|^k; a violating (or NaN) residual raises NumericFailure, and
    so does a non-finite step as soon as one appears.
    """
    if p.degree < 1:
        return np.zeros(0, dtype=complex)
    cs = np.asarray(p.coeffs, dtype=complex)
    at_origin = 0
    while cs[0] == 0:
        at_origin += 1
        cs = cs[1:]
    origin = np.zeros(at_origin, dtype=complex)
    if len(cs) == 1:
        return origin
    monic = cs / cs[-1]
    n = len(monic) - 1
    radius = 1.0 + float(np.max(np.abs(monic[:-1])))
    guess = radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n + 0.4))
    desc = monic[::-1]
    # An overflowing iteration is caught by the checks below (a non-finite
    # step, a NaN residual), not by numpy's floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DK_MAX_ITER):
            diff = guess[:, None] - guess[None, :]
            np.fill_diagonal(diff, 1.0)
            denom = diff.prod(axis=1)
            collided = denom == 0
            if collided.any():
                guess = guess + np.where(collided, 1e-8 * radius, 0.0)
                continue
            step = np.polyval(desc, guess) / denom
            guess = guess - step
            size = np.max(np.abs(step))
            if size < DK_STEP_TOL:
                break
            if not math.isfinite(size):
                raise NumericFailure(f"Durand-Kerner step is {size}: the iteration overflowed")
        resid = np.abs(np.polyval(desc, guess))
        bound = np.polyval(np.abs(monic)[::-1], np.abs(guess))
        if not np.all(resid <= DK_RESIDUAL_RTOL * bound):
            worst = float(np.max(resid / bound))
            raise NumericFailure(
                f"root residual {worst:.3e} exceeds tolerance {DK_RESIDUAL_RTOL:.1e}"
            )
    return np.concatenate([origin, guess])


def _classify(moduli: np.ndarray) -> tuple[int, int]:
    on = int(np.sum(np.abs(moduli - 1.0) <= CIRCLE_ATOL))
    inside = int(np.sum(moduli < 1.0 - CIRCLE_ATOL))
    return inside, on


def _unit_scaled(p: ComplexPolynomial) -> ComplexPolynomial:
    """p / max|c_k|: the same zeros, with coefficients of modulus <= 1."""
    scale = max(abs(c) for c in p.coeffs)
    return ComplexPolynomial(c / scale for c in p.coeffs)


def count_zeros_in_disk(p: ComplexPolynomial) -> ZeroCountReport:
    """Count zeros inside / on the unit circle, proved when possible.

    Runs the Schur-Cohn chain: each step strips one zero from the side of
    the circle being counted, and a clear reversal (|a_0| > |a_n|) goes on
    with the reciprocal adjoint, whose inside zeros are the current outside
    ones.  A chain reaching a nonzero constant in exactly deg(p) steps
    proves both counts and that no zero lies on the circle (method
    "cohn-chain").  Only a tie, or trimming that collapses the degree
    faster than one per step, falls back to the root oracle on the
    original polynomial, with CIRCLE_ATOL deciding "on the circle".
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no zero count")
    total = p.degree
    cur = p
    inside = reversals = steps = 0
    while cur.degree >= 1:
        try:
            nxt = cohn_reduce(cur)
        except ReductionNotApplicable as exc:
            if exc.tie:
                break
            reversals += 1
            cur = _unit_scaled(reciprocal_adjoint(cur))
            continue
        # Unscaled, the coefficient scale squares per step; scaling only
        # past a reversal keeps the tie decisions of reversal-free chains.
        cur = _unit_scaled(nxt) if reversals else nxt
        steps += 1
        inside += reversals % 2 == 0
    degenerate = not (cur.degree == 0 and steps == total)
    on = 0
    if degenerate:
        # A step tied, or trimming collapsed the degree faster than one per
        # step: the chain proves nothing further, so count the original's roots.
        inside, on = _classify(np.abs(roots(p)))
    return ZeroCountReport(
        total=total,
        inside=inside,
        on_circle=on,
        method="roots" if degenerate else "cohn-chain",
        length=steps,
    )
