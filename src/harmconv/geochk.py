"""Sampling-based geometry checks and the per-case sweeps.

The algebraic certificates (Cohn chains, Blaschke shape detection) live in
cpoly and convo.  This module adds the disk-sampling side: dilatation
bounds on grids, the Hengartner-Schober positivity functional, directional
convexity of image curves, and the CASES table.  Each entry defines one
named construction: its parameter axes, its harmonic map (build), what
each parameter point certifies (point) and what the case claims (claim:
the direction of convexity and the hypothesis under which a row asserts
it).  sweep_report runs an entry across its parameter grid, decides from
the claim which rows assert, and returns verdict rows.

Adding a case takes one CASES entry, plus its build and point helpers when
the existing ones (_halfplane, _strip, _combined; _quartic_point,
_combination_point, ...) do not fit.

Geometric verdicts here are numeric evidence at a declared sampling
resolution, never proofs; the rows say which kind of evidence backs them.
The polynomial certificates that do amount to proofs are folded in through
convo.certify_bounded.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import islice
from typing import Callable, Mapping, Sequence

import numpy as np

from . import convo
from .convo import DEFAULT_GRID, GRID_ATOL, BoundednessReport, DiskGrid, RationalFunction
from .cpoly import ComplexPolynomial, NumericFailure, roots
from .hmap import (
    EDGE_ATOL,
    FAMILY_ALPHA_MAX,
    HarmonicMap,
    SlantParams,
    f_a_alpha,
    family_alpha,
    family_f_alpha_n,
    slanted_halfplane,
    strip_map,
)
from .series import ring_values

# Boundary curves are sampled on a circle strictly inside the disk.  The
# radius default stays at 0.9 because the maps arrive as truncated series:
# at order 128 the tail at 0.9 is harmless, while at 0.995 it would drown
# the curve.  Callers holding exact representations can push r_max up.
DEFAULT_CURVE_RADIUS = 0.9
DEFAULT_BOUNDARY_POINTS = 4096
IMAGE_CURVE_POINTS = 512
# Truncation order of the image curves: the curve ladder's first-rung map
# truncated, when the sweep hands its maps over (image_curves).
IMAGE_CURVE_ORDER = 128
# (radius, truncation order) rungs for the sweeps' curve checks.  Each
# radius is paired with an order that keeps the series tail a few orders
# of magnitude below the curve scale even for maps whose coefficients grow
# like k^2 (the half-plane convolutions).
CURVE_LADDER = ((0.95, 384), (0.9, 256), (0.98, 1024))
SWEEP_LEVELS = 256
LEVEL_TIE_ATOL = 1e-9
HP_VANISH_ATOL = 1e-12


def hengartner_schober(F, grid: DiskGrid) -> float:
    """Min over the grid of Re((1 - z^2) F'(z)) for an analytic series F.

    Positivity of this functional (plus a boundary normalization that has
    no finite-sample analogue and is not checked here) forces F to be
    convex in the direction of the imaginary axis.  F' is sampled by the
    grid's row-wise FFT (DiskGrid.sample).  NaN when any sampled value is
    not finite, since the minimum would then hide it.
    """
    pts = grid.points
    vals = (1.0 - pts * pts) * grid.sample(F.differentiate())
    if not np.isfinite(vals).all():
        return math.nan
    return float(np.min(vals.real))


def line_crossing_counts(
    ys: np.ndarray, levels: int = SWEEP_LEVELS
) -> tuple[np.ndarray, np.ndarray]:
    """Crossings of horizontal levels against a closed sampled curve.

    Returns (levels, counts).  A sample within LEVEL_TIE_ATOL of a level
    counts as above it, so tangential touches never register; each count
    is then a number of strict sign changes around a cycle and therefore
    even.

    The count is exact, not an approximation of that rule.  Sample i lies
    above level j iff fl(ys[i] - lv[j]) > -LEVEL_TIE_ATOL, and since the
    levels never decrease this holds for a prefix j < k[i].  k comes from a
    binary search, corrected on that very predicate; the edge from sample i
    to i + 1 then crosses exactly the levels between k[i] and k[i + 1],
    which a difference array sums in O(n log L) rather than O(n L).
    Non-finite samples raise ValueError: they compare false against every
    level and would read as no crossing.
    """
    ys = np.asarray(ys, dtype=float)
    if not np.isfinite(ys).all():
        raise ValueError("line_crossing_counts needs finite samples")
    lo, hi = float(ys.min()), float(ys.max())
    if hi - lo <= LEVEL_TIE_ATOL:
        return np.array([lo]), np.zeros(1, dtype=int)
    lv = np.linspace(lo, hi, levels)
    k = np.searchsorted(lv, ys + LEVEL_TIE_ATOL)
    while True:
        # above(i, k-1) must hold and above(i, k) must not
        drop = (k > 0) & ~(ys - lv[np.maximum(k - 1, 0)] > -LEVEL_TIE_ATOL)
        rise = (k < levels) & (ys - lv[np.minimum(k, levels - 1)] > -LEVEL_TIE_ATOL)
        if not (drop.any() or rise.any()):
            break
        k = k - drop + rise
    k_next = np.roll(k, -1)
    edges = np.bincount(np.minimum(k, k_next), minlength=levels + 1)
    edges -= np.bincount(np.maximum(k, k_next), minlength=levels + 1)
    return lv, np.cumsum(edges)[:levels]


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of the directional convexity check.

    passed is None when the verdict was withheld (the default): local
    univalence could not be confirmed on the sampled grid (the note then
    names the offending point), or a sample was not finite.  Otherwise
    passed == (crossing_max <= 2), counted on the one curve Im(e^{-i phi} A)
    of the analytic reduction, which is also the height of the harmonic
    image.
    """

    passed: bool | None = None
    crossing_max: int | None = None
    min_hs_value: float | None = None
    note: str = ""


def convex_in_direction(
    f: HarmonicMap,
    phi: float,
    r_max: float = DEFAULT_CURVE_RADIUS,
    gate_radius: float | None = None,
) -> ConvexityReport:
    """Check convexity of the image of |z| < r_max in the direction phi.

    One curve decides it.  Turned by e^{-i phi}, so that direction-phi
    lines become horizontal, the harmonic image and the analytic reduction
    A = h - e^{2i phi} g have the same height:
    Im(e^{-i phi} f) = Im(e^{-i phi} h) - Im(e^{i phi} g) = Im(e^{-i phi} A),
    the shear identity of Clunie and Sheil-Small.  So only A is sampled, at
    DEFAULT_BOUNDARY_POINTS points on |z| = r_max, and swept with SWEEP_LEVELS
    horizontal levels.  A closed curve bounding a region convex in that
    direction meets each line at most twice.

    Local univalence is sampled first on the rings of DEFAULT_GRID at or
    inside gate_radius (r_max when not given), which must reach the
    innermost ring; failure withholds the verdict, and so does any
    non-finite gate value, boundary sample or Hengartner-Schober value.
    The gate uses the derivative series, which loses accuracy faster than
    the curve itself, so callers pushing r_max outward can keep the gate on
    a safer ring.  The gate rings, the Hengartner-Schober minimum on the
    same rings and the boundary circle are all evaluated by FFT
    (series.ring_values, behind DiskGrid.sample).
    """
    gate = DEFAULT_GRID.capped(r_max if gate_radius is None else gate_radius)
    pts = gate.points
    hv = gate.sample(f.h.differentiate())
    gv = gate.sample(f.g.differentiate())
    if not (np.isfinite(hv).all() and np.isfinite(gv).all()):
        return ConvexityReport(
            note="non-finite h' or g' samples on the grid, convexity verdict withheld"
        )
    small = np.abs(hv) < HP_VANISH_ATOL
    if small.any():
        i = int(np.argmax(small))
        return ConvexityReport(
            note=f"|h'| = {abs(hv[i]):.3e} at z = {pts[i]:.6f}; local "
            "univalence unresolved, convexity verdict withheld"
        )
    ratio = np.abs(gv) / np.abs(hv)
    i = int(np.argmax(ratio))
    if ratio[i] > 1.0 + GRID_ATOL:
        return ConvexityReport(
            note=f"|g'/h'| = {ratio[i]:.6f} > 1 at z = {pts[i]:.6f}; not "
            "sense-preserving on the grid, convexity verdict withheld"
        )

    A = f.h.subtract(f.g.scale(np.exp(2j * phi)))
    min_hs = hengartner_schober(A.scale(np.exp(1j * (math.pi / 2.0 - phi))), gate)
    boundary = ring_values(A.coeffs, (r_max,), DEFAULT_BOUNDARY_POINTS)[0]
    ys = (boundary * np.exp(-1j * phi)).imag
    if not (math.isfinite(min_hs) and np.isfinite(ys).all()):
        return ConvexityReport(
            note="non-finite boundary or Hengartner-Schober samples, convexity "
            "verdict withheld"
        )
    _, counts = line_crossing_counts(ys)
    crossing_max = int(counts.max())
    return ConvexityReport(
        passed=crossing_max <= 2,
        crossing_max=crossing_max,
        min_hs_value=min_hs,
        note=f"sampled at {DEFAULT_BOUNDARY_POINTS} boundary points on |z| = "
        f"{r_max:g}; evidence, not proof",
    )


def _curve_evidence(
    build: Callable[[int], HarmonicMap], phi: float
) -> tuple[ConvexityReport, HarmonicMap]:
    """Directional convexity evidence across the CURVE_LADDER radii.

    A map whose full-disk image is convex in a direction can still have
    subdisk images that are not: the half-plane convolution at a = 0.95
    has real bumps in its image curve at every radius r <= 0.99, whose
    depth shrinks like 1 - r (checked against closed-form curves), and
    even f_{0.5,0}, which maps onto a half-plane, has a bump 0.006 deep on
    |z| = 0.9 in direction 0.7.  So a wiggle at one interior radius is not
    counter-evidence.
    The ladder accepts a pass at any radius whose truncation tail is
    trusted, and an all-rung failure withholds the verdict rather than
    failing it; decisive failures must come from the algebraic side.

    build(N) returns the map truncated at order N.  It runs only for a rung
    whose order no map built so far reaches; a rung below a built order
    takes that map truncated, which is bit for bit what build would give
    (each coefficient of a built series depends only on those before it).
    Returns the report and the first rung's map.
    """
    built: list[HarmonicMap] = []
    attempts: list[tuple[float, ConvexityReport]] = []
    for r, order in CURVE_LADDER:
        f = next((f for f in built if f.h.order >= order), None)
        if f is None:
            f = build(order)
            built.append(f)
        if f.h.order > order:
            f = f.truncated(order)
        rep = convex_in_direction(f, phi, r_max=r, gate_radius=min(r, 0.95))
        if rep.passed:
            return rep, built[0]
        attempts.append((r, rep))
    bits = ", ".join(
        f"|z|={r:g}: " + ("withheld" if rep.passed is None else f"{rep.crossing_max} crossings")
        for r, rep in attempts
    )
    withheld = replace(
        attempts[-1][1],
        passed=None,
        note=f"no sampled radius gave a two-crossing curve ({bits}); interior samples "
        "cannot decide the full-image claim, verdict withheld",
    )
    return withheld, built[0]


# ---------------------------------------------------------------------------
# case table


# A sweep holds at most this many parameter points; the 11 default sweeps
# hold 464 together.  A range's value count, and the points of the crossed
# axes, are checked against it before anything larger is built.
MAX_SWEEP_POINTS = 10_000


def _frange(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... through hi when step divides the span (to 1e-9),
    else up to the last value below hi; rounded to 10 decimals.  More than
    MAX_SWEEP_POINTS values raise ValueError before any is built."""
    span = (hi - lo) / step
    if not span < MAX_SWEEP_POINTS - 0.5:  # also an infinite or NaN span
        raise ValueError(
            f"it has {span + 1:.0f} values; a sweep holds at most {MAX_SWEEP_POINTS} points"
        )
    n = int(round(span))
    if abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
        n = int(math.floor(span + 1e-9))
    return [round(lo + k * step, 10) for k in range(n + 1)]


def _listed(val) -> list:
    if isinstance(val, (list, tuple, np.ndarray)):
        return list(val)
    return [val]


def _real(name: str, v) -> float:
    """v as a float; only a finite number (never a string or a bool, nor an
    integer past the float range) is one."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return float(v)
    raise ValueError(f"{name} must be a finite number, got {v!r}")


def _unit(name: str, v) -> float:
    """v as a float strictly inside (-1, 1), the range of a disk automorphism's
    parameter."""
    v = _real(name, v)
    if not -1.0 < v < 1.0:
        raise ValueError(f"need -1 < {name} < 1, got {name}={v}")
    return v


def _angle(name: str, v) -> float:
    """v as a float whose phase e^{2i v} is finite, that is 2 v does not
    overflow; t2.2 forms it for gamma and for theta.  (oq1-oq3 form only
    e^{i theta}, finite for every float theta.)"""
    v = _real(name, v)
    if not math.isfinite(2.0 * v):
        raise ValueError(f"{name}={v:g} is too large an angle: e^{{2i {name}}} is not finite")
    return v


def _count(name: str, v) -> int:
    """v as an int; an integral float such as 2.0 counts, 2.5 or "2" does not."""
    if isinstance(v, float) and v.is_integer() or isinstance(v, numbers.Integral):
        if not isinstance(v, bool) and v >= 1:
            return int(v)
    raise ValueError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class Axis:
    """One swept parameter, or several swept together (paired, not crossed).

    names is space-separated.  default lists the values (tuples when there
    are several names), or is a function of the values already chosen on
    the earlier axes.  kind(name, value) coerces each value a caller gives
    and rejects what it cannot represent.  A fixed axis takes no values
    from the caller, and its names are not parameters of the case.
    """

    names: str
    default: Sequence | Callable[[dict], Sequence]
    kind: Callable[[str, object], object] = _real
    fixed: bool = False

    @property
    def keys(self) -> list[str]:
        return self.names.split()

    def values(self, params: Mapping, point: dict) -> list[dict]:
        keys = self.keys
        if self.fixed or not any(k in params for k in keys):
            vals = self.default(point) if callable(self.default) else self.default
            rows = [v if len(keys) > 1 else (v,) for v in vals]
        else:
            missing = [k for k in keys if k not in params]
            if missing:
                raise ValueError(
                    f"{' and '.join(missing)} is missing: {' and '.join(keys)} are set together"
                )
            cols = [[self.kind(k, v) for v in _listed(params[k])] for k in keys]
            for k, col in zip(keys, cols):
                if not col:
                    raise ValueError(f"{k} needs at least one value")
            size = max(len(c) for c in cols)
            if any(len(c) not in (1, size) for c in cols):
                raise ValueError(
                    f"{' and '.join(keys)} must have matching lengths "
                    "(they are paired, not crossed)"
                )
            rows = zip(*(c * size if len(c) == 1 else c for c in cols))
        return [dict(zip(keys, row)) for row in rows]


@dataclass(frozen=True)
class Point:
    """What one parameter point certifies and reports; what it asserts is
    its case's claim.  closed is the dilatation handed to certify_bounded,
    roots_of the polynomial whose zeros the row reports (in the substituted
    variable w when roots_in_w), and note says which reduction was
    certified and how the identity check came out.  A failed identity
    (identity False) fails the row.
    """

    closed: RationalFunction
    roots_of: ComplexPolynomial | None
    note: str = ""
    identity: bool = True
    roots_in_w: bool = False


# Claim expressions: Python syntax in the parameters, with abs, sqrt and pi,
# compiled once and evaluated in floats.
_compiled = cache(lambda expr: compile(expr, expr, "eval"))
_NAMESPACE = {"__builtins__": {}, "abs": abs, "sqrt": math.sqrt, "pi": math.pi}


def _value(expr: str, p: Mapping):
    return eval(_compiled(expr), _NAMESPACE, p)


@dataclass(frozen=True)
class Constraint:
    """One inequality of a claim's hypothesis, text "lhs op rhs": op is <,
    <=, > or >=, and rhs the exact edge, such as (n - 2)/(n + 2).  It binds
    the points where the expression when holds (all, when empty); unmet
    opens the note of a row that misses it.  The float sides are compared
    once against EDGE_ATOL: on the edge a non-strict constraint holds and a
    strict one does not."""

    text: str
    unmet: str
    when: str = ""

    @property
    def sides(self) -> list[str]:  # [lhs, op, rhs]
        return re.split(r" ([<>]=?) ", self.text)

    @property
    def strict(self) -> bool:
        return self.sides[1] in ("<", ">")

    def holds(self, p: Mapping) -> bool:
        if self.when and not _value(self.when, p):
            return True
        lhs, op, rhs = self.sides
        margin = _value(lhs, p) - _value(rhs, p)
        margin = -margin if op[0] == "<" else margin
        return margin > EDGE_ATOL if self.strict else margin >= -EDGE_ATOL


@dataclass(frozen=True)
class Claim:
    """What a case asserts: convexity in the direction phi, an exact
    expression such as -gamma, at each point that meets every constraint
    of its hypothesis.  The open-ended cases have hypothesis None: they
    name the direction they test and assert nothing."""

    direction: str
    hypothesis: tuple[Constraint, ...] | None = ()

    def unmet(self, p: Mapping) -> str | None:
        """The note opening of a row that asserts nothing; None if it asserts."""
        if self.hypothesis is None:
            return "exploratory: no assertion; "
        return next((c.unmet for c in self.hypothesis if not c.holds(p)), None)

    def phi(self, p: Mapping) -> tuple[float, str]:
        """The direction at p, and its label, which adds the value when the
        direction names a parameter."""
        phi = float(_value(self.direction, p))
        named = set(_compiled(self.direction).co_names) - {"pi"}
        return phi, f"phi={self.direction}" + (f"={phi + 0.0:g}" if named else "")


class _MapCache:
    """Maps reused within one sweep: the family members, and f_{a,0}, the
    half-plane and strip cases' convolution partner, across t values and
    rows; the sweep clears both when it ends.  curves hands each row's
    first-rung map, truncated at IMAGE_CURVE_ORDER, from sweep_report to
    image_curves, which takes it out; it is keyed by the row's parameters
    (_row_key).  A cache lives as long as one sweep_report or image_curves
    call, or one harness.run that hands it from the one to the other, never
    longer, so repeated runs in a process rebuild their maps."""

    def __init__(self):
        self.family = cache(
            lambda alpha, n, omega, order: family_f_alpha_n(alpha, n, omega.series(order))
        )
        self.extremal = cache(lambda a, order: f_a_alpha(a, 0.0, order))
        self.curves: dict[tuple, HarmonicMap] = {}


@dataclass(frozen=True)
class Case:
    """One construction, swept across its parameter axes.

    build(params, N, maps) is the only definition of the case's harmonic
    map, truncated at order N; it serves the curve ladder and the image
    curves alike.  point(params) says what the row certifies, and claim
    what it asserts.
    """

    blurb: str
    axes: tuple[Axis, ...]
    build: Callable[[dict, int, _MapCache], HarmonicMap]
    point: Callable[[dict], Point]
    claim: Claim

    @property
    def parameters(self) -> list[str]:
        """The parameter names a caller may set."""
        return [k for axis in self.axes if not axis.fixed for k in axis.keys]

    def points(self, params: Mapping) -> list[dict]:
        """Every parameter point of the sweep, the axes crossed in order;
        ValueError as soon as there are more than MAX_SWEEP_POINTS, or on a
        point that comes twice."""
        unknown = sorted(set(params) - set(self.parameters))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(unknown)}; "
                f"this case accepts: {', '.join(sorted(self.parameters))}"
            )
        points = [{}]
        for axis in self.axes:
            crossed = ({**p, **v} for p in points for v in axis.values(params, p))
            points = list(islice(crossed, MAX_SWEEP_POINTS + 1))
            if len(points) > MAX_SWEEP_POINTS:
                raise ValueError(f"the sweep crosses to more than {MAX_SWEEP_POINTS} points")
        seen = set()
        for p in points:
            if tuple(p.items()) in seen:
                label = row_param_id({"params": p})
                raise ValueError(f"the sweep holds the point {label} more than once")
            seen.add(tuple(p.items()))
        return points


def _monomial(power: int, coeff) -> RationalFunction:
    return RationalFunction(
        ComplexPolynomial([0.0] * power + [coeff]), ComplexPolynomial([1.0])
    )


def _core(closed: RationalFunction) -> ComplexPolynomial:
    """The numerator with its power of z split off."""
    return convo._strip_monomial(closed.num)[1]


def _w_poly(closed: RationalFunction) -> ComplexPolynomial:
    """P from a dilatation -w * P(w)/P*(w)."""
    return ComplexPolynomial((-1.0 * closed.num).coeffs[1:])


# The maps: a case's build is one of these with its first argument bound.


def _halfplane(omega, p: dict, N: int, maps: _MapCache) -> HarmonicMap:
    """f_{a,0} convolved with the gamma-slanted half-plane map sheared by
    omega(params)."""
    return convo.convolve(
        maps.extremal(p["a"], N),
        slanted_halfplane(p.get("gamma", 0.0), omega(p).series(N)),
    )


def _strip(omega, p: dict, N: int, maps: _MapCache) -> HarmonicMap:
    """f_{0,0} convolved with the strip map sheared by omega(params)."""
    return convo.convolve(maps.extremal(0.0, N), strip_map(omega(p).series(N)))


def _combined(members, p: dict, N: int, maps: _MapCache) -> HarmonicMap:
    """t f1 + (1 - t) f2 for the dyadic-family members
    members(params) = ((alpha1, omega1), (alpha2, omega2))."""
    (alpha1, w1), (alpha2, w2) = members(p)
    return convo.combination(
        maps.family(alpha1, p["n"], w1, N),
        maps.family(alpha2, p["n"], w2, N),
        p["t"],
    )


def _even_mobius(p):
    return convo.mobius_power_dilatation(p["a"], 0.0, 2)


def _negated_square(p):
    return convo.blaschke_power_dilatation(p["a"], math.pi, 2)


def _mobius_power_b(p):
    return convo.mobius_power_dilatation(p["b"], p["theta"], p["n"])


def _blaschke_power_b(p):
    return convo.blaschke_power_dilatation(p["b"], p["theta"], p["n"])


def _blaschke_power_a(p):
    return convo.blaschke_power_dilatation(p["a"], p["theta"], p["n"])


def _t38_menu(n: int):
    """Labelled dilatation pairs for the equal-weight combinations: two
    monomial pairs plus Moebius pairs, chosen so no pair shares an
    on-circle factor at interior t."""
    half = 2 ** (n - 1)
    minus = (f"-z^{half}", _monomial(half, -1.0))
    plus = (f"z^{half}", _monomial(half, 1.0))
    square = (f"z^{2 * half}", _monomial(2 * half, 1.0))
    w3 = RationalFunction(ComplexPolynomial([0.3, -1.0]), ComplexPolynomial([1.0, -0.3]))
    w6 = RationalFunction(ComplexPolynomial([-0.6, 1.0]), ComplexPolynomial([1.0, -0.6]))
    m3 = (f"(0.3-z^{half})/(1-0.3z^{half})", w3.compose_power(half))
    m6 = (f"-(0.6-z^{half})/(1-0.6z^{half})", w6.compose_power(half))
    return ((minus, plus), (plus, square), (m3, plus), (m3, m6))


def _t38_members(p):
    omegas = dict(m for pair in _t38_menu(p["n"]) for m in pair)
    return (p["alpha"], omegas[p["omega1"]]), (p["alpha"], omegas[p["omega2"]])


def _t39_members(p):
    half = 2 ** (p["n"] - 1)
    return (p["alpha1"], _monomial(half, -1.0)), (p["alpha2"], _monomial(half, 1.0))


def _t310_members(p):
    if p["variant"] not in (1, 2):
        raise ValueError("variant must be 1 (omega2=-z^{2^n}) or 2 (+z^{2^n})")
    half = 2 ** (p["n"] - 1)
    sign = -1.0 if p["variant"] == 1 else 1.0
    return (p["alpha1"], _monomial(half, -1.0)), (p["alpha2"], _monomial(2 * half, sign))


def _t311_members(p):
    if p["n"] < 2:
        raise ValueError("this case needs n >= 2 (the quarter power must be integral)")
    quarter = 2 ** (p["n"] - 2)
    return (
        (p["alpha1"], _monomial(quarter, -1.0)),
        (p["alpha2"], _monomial(2 * quarter, 1.0)),
    )


# What each parameter point certifies.


def _t22_point(p) -> Point:
    sp = SlantParams(gamma=p["gamma"], theta=p["theta"], n=p["n"], a=p["a"])
    closed = convo.monomial_convolution_dilatation(sp)
    return Point(closed, _core(closed))


def _quartic_point(omega, reduced, p) -> Point:
    """The two coupled quartic convolutions.

    The certificate runs on the reduced quartic form p/p* (the row reports
    the zeros of p), not on the rational the general half-plane formula
    assembles: at gamma = 0 that assembly keeps a removable (1 - z) in both
    numerator and denominator, and its circle zero defeats the structural
    routes.  The two forms are checked against each other at random points
    so the reduction itself is part of the verdict.  The case's range of a
    is its claim's: a row outside it runs as exploratory.
    """
    closed = reduced(p["a"])
    assembled = convo.halfplane_convolution_dilatation(p["a"], 0.0, omega(p))
    agree = convo.rationals_equal(assembled, closed)
    verb = "matches" if agree else "DISAGREES with"
    note = f"assembled dilatation {verb} the reduced quartic form; "
    return Point(closed, closed.num, note, identity=agree)


def _t25_point(p) -> Point:
    closed = convo.strip_convolution_dilatation(_even_mobius(p))
    identity = convo.rationals_equal(closed, _monomial(2, 1.0))
    note = "dilatation collapses to z^2; " if identity else "z^2 identity FAILED; "
    return Point(closed, None, note, identity)


def _combination_point(p, w1, w2, closed, roots_of=None, ordered=False) -> Point:
    """Combination rows.

    With equal weights the displayed polynomial of an ordered case (t3.9,
    t3.11) keeps a self-inversive factor that cancels against its
    reflection; certify the shared-target reduction, which is that
    cancellation carried out.  At t = 0 or t = 1 the combination is a
    single member and its dilatation equals that member's omega exactly,
    while the assembled rational keeps removable factors that can defeat
    the shape detector; certify the pure factor instead and say so.
    """
    note = ""
    if ordered and abs(p["alpha1"] - p["alpha2"]) <= EDGE_ATOL:
        closed = convo.shared_target_combination_dilatation(w1, w2, p["t"])
        note = "equal weights: certified via the shared-target reduction; "
    if p["t"] <= EDGE_ATOL:
        closed, note = w2, note + "endpoint t=0: dilatation is omega2 itself; "
    elif p["t"] >= 1.0 - EDGE_ATOL:
        closed, note = w1, note + "endpoint t=1: dilatation is omega1 itself; "
    return Point(closed, roots_of, note, roots_in_w=roots_of is not None)


def _t38_point(p) -> Point:
    (_, w1), (_, w2) = _t38_members(p)
    closed = convo.shared_target_combination_dilatation(w1, w2, p["t"])
    return _combination_point(p, w1, w2, closed)


def _t39_point(p) -> Point:
    (alpha1, w1), (alpha2, w2) = _t39_members(p)
    closed = convo.opposed_monomial_cubic(alpha1, alpha2, p["t"])
    return _combination_point(p, w1, w2, closed, _w_poly(closed), ordered=True)


def _t310_point(p) -> Point:
    (alpha1, w1), (alpha2, w2) = _t310_members(p)
    reduce = {1: convo.adjacent_negative_cubic, 2: convo.adjacent_positive_quartic}
    closed = reduce[p["variant"]](alpha1, alpha2, p["t"])
    return _combination_point(p, w1, w2, closed, _w_poly(closed))


def _t311_point(p) -> Point:
    # Certify in the substituted variable w; boundedness on the disk is
    # invariant under z -> z**k substitution.
    (alpha1, w1), (alpha2, w2) = _t311_members(p)
    closed = convo.quarter_power_sextic(alpha1, alpha2, p["t"])
    sextic = convo.quarter_power_sextic_poly(alpha1, alpha2, p["t"])
    return _combination_point(p, w1, w2, closed, sextic, ordered=True)


def _exploration_point(omega, p) -> Point:
    """The open-ended half-plane explorations.  A shared (z - 1) factor of
    the gamma = 0 assembly is cancelled first."""
    closed = convo.halfplane_convolution_dilatation(p["a"], 0.0, omega(p))
    reduced = convo.cancel_unit_root(closed)
    if reduced is None:
        return Point(closed, _core(closed))
    return Point(reduced, _core(reduced), "shared (z - 1) factor cancelled; ")


def _oq3_point(p) -> Point:
    closed = convo.strip_convolution_dilatation(_blaschke_power_a(p))
    return Point(closed, _core(closed))


# The monomial-dilatation convolution is locally univalent from here on.
_T22_THRESHOLD = Constraint("a >= (n - 2)/(n + 2)", "below the monomial threshold, no claim made; ")


def _family_bound(k: str) -> Constraint:
    """|k| <= 2(sqrt(2) - 1), the dyadic family's bound (hmap.FAMILY_ALPHA_MAX)."""
    return Constraint(f"abs({k}) <= 2*(sqrt(2) - 1)", f"|{k}| past the family bound; ")


_ORDERING = Constraint("alpha1 <= alpha2", "alpha1 > alpha2, outside the claimed range; ")
_ORDERED = Claim("pi/2", (_ORDERING, _family_bound("alpha1"), _family_bound("alpha2")))
_T310_V2_UNMET = "needs |alpha1| > |alpha2| and alpha1*alpha2 > 0; "


def _t22_a(p) -> list[float]:
    """The threshold (n-2)/(n+2), 0.95, their midpoint and, while it stays
    above -0.95, the value 0.15 below the threshold; each value once (at
    n = 78 the threshold is 0.95, and from n = 79 it lies above it)."""
    threshold = _value(_T22_THRESHOLD.sides[2], p)
    below = round(threshold - 0.15, 10)
    mid = round((threshold + 0.95) / 2.0, 10)
    return list(dict.fromkeys([threshold, mid, 0.95] + ([below] if below > -0.95 else [])))


def _n(most: int, *default: int) -> Axis:
    """The n axis.  A row's cost grows fast with n, so a value above most is
    refused before anything is built."""

    def kind(name: str, v) -> int:
        n = _count(name, v)
        if n > most:
            raise ValueError(f"{name} must be at most {most}, got {n}")
        return n

    return Axis("n", default, kind)


# Largest n: the dyadic family's degree 2^(n+1) stays within twice the top
# CURVE_LADDER order; the power cases build polynomials of degree about n,
# and the oq2 and oq3 dilatations overflow the float range from n = 514.
_FAMILY_N_MAX = 10
_POWER_N_MAX = 256

_THETA = Axis("theta", (0.0,))
_T = Axis("t", (0.0, 0.25, 0.5, 0.75, 1.0))
_A_EXPLORED = Axis("a", (0.25, 0.5, 0.75))
_B_EXPLORED = Axis("b", lambda p: (p["a"],), _unit)
_PAIRS = Axis(
    "alpha1 alpha2",
    ((-0.5, 0.5), (-0.8, -0.2), (0.0, 0.8), (0.3, 0.3), (0.5, -0.5)),
    family_alpha,
)
_T310_PAIRS = Axis(
    "alpha1 alpha2",
    lambda p: (
        ((-0.5, 0.5), (0.0, 0.5), (-0.8, -0.2), (0.3, 0.3), (0.5, -0.5))
        if p["variant"] == 1
        else ((0.8, 0.3), (-0.8, -0.3), (0.3, 0.8), (0.5, 0.0), (-0.5, 0.5))
    ),
    family_alpha,
)

CASES: dict[str, Case] = {
    "t2.2": Case(
        "slanted half-plane target, monomial dilatation e^{i theta} z^n",
        (
            _n(_POWER_N_MAX, 1, 2, 3),
            Axis("gamma", (0.0,), _angle),
            Axis("theta", (0.0,), _angle),
            Axis("a", _t22_a),
        ),
        partial(_halfplane, lambda p: _monomial(p["n"], np.exp(1j * p["theta"]))),
        _t22_point,
        Claim("-gamma", (_T22_THRESHOLD,)),
    ),
    "t2.3": Case(
        "half-plane target, even Moebius dilatation, quartic certificate",
        (Axis("a", _frange(0.05, 0.95, 0.05)),),
        partial(_halfplane, _even_mobius),
        partial(_quartic_point, _even_mobius, convo.even_mobius_convolution_dilatation),
        Claim("0", (Constraint("a >= 0", "a < 0, below the claimed range; "),)),
    ),
    "t2.4": Case(
        "half-plane target, negated squared-Blaschke dilatation",
        (Axis("a", _frange(0.05, 0.95, 0.05)),),
        partial(_halfplane, _negated_square),
        partial(_quartic_point, _negated_square, convo.negated_square_convolution_dilatation),
        Claim("0", (Constraint("a > 0", "a <= 0, below the claimed range; "),)),
    ),
    "t2.5": Case(
        "strip target, even Moebius dilatation collapsing to z^2",
        (Axis("a", _frange(-0.9, 0.9, 0.1)),),
        partial(_strip, _even_mobius),
        _t25_point,
        Claim("0"),
    ),
    "t3.8": Case(
        "equal-weight family combinations, assorted bounded dilatations",
        (
            _n(_FAMILY_N_MAX, 1, 2, 3),
            Axis("alpha", (-FAMILY_ALPHA_MAX, 0.0, FAMILY_ALPHA_MAX), family_alpha),
            Axis(
                "omega1 omega2",
                lambda p: [(m1[0], m2[0]) for m1, m2 in _t38_menu(p["n"])],
                fixed=True,
            ),
            _T,
        ),
        partial(_combined, _t38_members),
        _t38_point,
        Claim("pi/2", (_family_bound("alpha"),)),
    ),
    "t3.9": Case(
        "family combinations with opposed monomial dilatations",
        (_n(_FAMILY_N_MAX, 1, 2), _PAIRS, _T),
        partial(_combined, _t39_members),
        _t39_point,
        _ORDERED,
    ),
    "t3.10": Case(
        "family combinations with adjacent power dilatations (2 variants)",
        (_n(_FAMILY_N_MAX, 1, 2), Axis("variant", (1, 2), _count), _T310_PAIRS, _T),
        partial(_combined, _t310_members),
        _t310_point,
        Claim(
            "pi/2",
            (
                Constraint("alpha1 < alpha2", "needs alpha1 < alpha2 strictly; ", "variant == 1"),
                Constraint("abs(alpha1) > abs(alpha2)", _T310_V2_UNMET, "variant == 2"),
                Constraint("alpha1*alpha2 > 0", _T310_V2_UNMET, "variant == 2"),
                _family_bound("alpha1"),
                _family_bound("alpha2"),
            ),
        ),
    ),
    "t3.11": Case(
        "family combinations with quarter-power members, sextic certificate",
        (_n(_FAMILY_N_MAX, 2, 3), _PAIRS, _T),
        partial(_combined, _t311_members),
        _t311_point,
        _ORDERED,
    ),
    "oq1": Case(
        "exploration: half-plane target, Moebius power dilatation",
        (_n(_POWER_N_MAX, 3), _THETA, _A_EXPLORED, _B_EXPLORED),
        partial(_halfplane, _mobius_power_b),
        partial(_exploration_point, _mobius_power_b),
        Claim("0", hypothesis=None),
    ),
    "oq2": Case(
        "exploration: half-plane target, Blaschke power dilatation",
        (_n(_POWER_N_MAX, 2), _THETA, _A_EXPLORED, _B_EXPLORED),
        partial(_halfplane, _blaschke_power_b),
        partial(_exploration_point, _blaschke_power_b),
        Claim("0", hypothesis=None),
    ),
    "oq3": Case(
        "exploration: strip target, Blaschke power dilatation",
        (_n(_POWER_N_MAX, 1, 2, 3), _THETA, _A_EXPLORED),
        partial(_strip, _blaschke_power_a),
        _oq3_point,
        Claim("0", hypothesis=None),
    ),
}

CASE_IDS = tuple(CASES)


def _case(case: str) -> tuple[str, Case]:
    key = str(case).strip().lower()
    if key not in CASES:
        raise ValueError(f"unknown case id {case!r}; known ids: {', '.join(CASE_IDS)}")
    return key, CASES[key]


# ---------------------------------------------------------------------------
# sweep driver


# The root oracle reports the zeros of polynomials up to this degree.
ROOTS_MAX_DEGREE = 24


def _root_pairs(poly: ComplexPolynomial | None) -> tuple[list[list[float]] | None, str]:
    """Sorted [re, im] zeros of poly, or None and why the row reports none
    ("" when the point reports no polynomial)."""
    if poly is None or poly.degree < 1:
        return None, ""
    if poly.degree > ROOTS_MAX_DEGREE:
        return None, f"; roots withheld: degree {poly.degree} > {ROOTS_MAX_DEGREE}"
    try:
        return sorted([float(v.real), float(v.imag)] for v in roots(poly)), ""
    except NumericFailure as exc:
        return None, f"; roots withheld: {exc}"


def _verdict(asserted: bool, pt: Point, cert: BoundednessReport, conv: ConvexityReport) -> str:
    """A row that asserts passes on a certificate, a sampled convexity pass
    and a holding identity, fails on a failed identity or a witnessed
    dilatation excursion, and is indeterminate otherwise."""
    if not asserted:
        return "exploratory"
    if not pt.identity or cert.verdict == "exceeds":
        return "fail"
    if not cert.certified or conv.passed is None:
        return "indeterminate"
    return "pass"


def _row_key(row: dict):
    """Numbers by value, then labels (t3.8's omegas) as text."""
    return tuple((k, isinstance(v, str), v) for k, v in sorted(row["params"].items()))


def sweep_report(
    case: str, params: Mapping | None = None, *, maps: _MapCache | None = None
) -> list[dict]:
    """Run one case's construction and certificates across a parameter grid.

    Returns verdict rows sorted by parameter tuple.  The case's claim,
    evaluated once per point, decides what a row asserts: rows outside its
    hypothesis, and all rows of the open-ended cases, carry verdict
    "exploratory", assert nothing and open their note with why.  A row's
    map is built once per CURVE_LADDER order that a rung needs and no
    earlier rung reached (_curve_evidence).  Given maps, the sweep leaves
    in maps.curves a copy of each row's first-rung map truncated at
    IMAGE_CURVE_ORDER, for image_curves.
    """
    key, spec = _case(case)
    hand_over = maps is not None
    maps = _MapCache() if maps is None else maps
    # Every point is set up (and its parameters validated) before any runs.
    points = [(p, spec.point(p)) for p in spec.points(dict(params or {}))]
    rows = []
    for p, pt in points:
        unmet = spec.claim.unmet(p)
        phi, phi_label = spec.claim.phi(p)
        cert = convo.certify_bounded(pt.closed)
        conv, f = _curve_evidence(lambda N: spec.build(p, N, maps), phi)
        convexity = f"passed, max {conv.crossing_max} crossings"
        if conv.passed is None:
            convexity = f"withheld ({conv.note})"
        note = f"{unmet or ''}{pt.note}dilatation {cert.verdict} ({cert.method}); "
        if cert.count_failed and not cert.certified:
            note += f"{cert.note}; "
        note += f"convexity {phi_label}: {convexity}"
        if pt.roots_in_w:
            note += "; roots reported in the substituted variable w"
        root_pairs, withheld = _root_pairs(pt.roots_of)
        note += withheld
        row = {
            "case": key,
            "params": p,
            "verdict": _verdict(unmet is None, pt, cert, conv),
            "metrics": {
                "max_omega": cert.grid_max,
                "min_hs": conv.min_hs_value,
                "roots": root_pairs,
            },
            "note": note,
        }
        rows.append(row)
        if hand_over:
            maps.curves[_row_key(row)] = f.truncated(IMAGE_CURVE_ORDER)
    maps.family.cache_clear()
    maps.extremal.cache_clear()
    rows.sort(key=_row_key)
    return rows


# ---------------------------------------------------------------------------
# image curve export


def row_param_id(row: Mapping) -> str:
    """Compact deterministic label for one verdict row's parameter point."""
    return ",".join(
        f"{k}={v:.10g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in sorted(row["params"].items())
    )


def image_curves(
    case: str, rows: Sequence[Mapping], *, maps: _MapCache | None = None
) -> list[tuple[str, np.ndarray]]:
    """Sampled image curves f(r e^{i theta}) for verdict rows, at
    IMAGE_CURVE_POINTS equally spaced angles on r = DEFAULT_CURVE_RADIUS,
    with each map truncated at IMAGE_CURVE_ORDER and evaluated by Horner.

    A row's map is the one maps.curves holds for it, which sweep_report
    left there when given the same maps: the first rung's map truncated.
    It is taken out, so the hand-over empties as the curves are drawn.  A
    row it does not hold, and every row when maps is not given, is built
    at IMAGE_CURVE_ORDER, which gives the same bits.

    Returns (param-id, curve) pairs in row order, for CSV and SVG export.
    """
    _, spec = _case(case)
    m = IMAGE_CURVE_POINTS
    zs = DEFAULT_CURVE_RADIUS * np.exp(1j * (2.0 * math.pi) * np.arange(m) / m)
    maps = _MapCache() if maps is None else maps
    curves = []
    for row in rows:
        f = maps.curves.pop(_row_key(row), None)
        if f is None:
            f = spec.build(row["params"], IMAGE_CURVE_ORDER, maps)
        curves.append((row_param_id(row), f(zs)))
    return curves
