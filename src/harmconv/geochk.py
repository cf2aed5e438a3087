"""Sampling-based geometry checks and the per-case sweeps.

The algebraic certificates (Cohn chains, Blaschke shape detection) live in
cpoly and convo.  This module adds the disk-sampling side: dilatation
bounds on grids, the Hengartner-Schober positivity functional, directional
convexity of image curves, and the CASES table.  Each entry defines one
named construction: its parameter axes, its harmonic map (build) and what
each parameter point certifies and asserts (point).  sweep_report runs an
entry across its parameter grid and returns verdict rows.

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
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import convo
from .convo import GRID_ATOL, BoundednessReport, DiskGrid, RationalFunction
from .cpoly import ComplexPolynomial, NumericFailure, roots
from .hmap import (
    FAMILY_ALPHA_MAX,
    HarmonicMap,
    SlantParams,
    f_a_alpha,
    family_f_alpha_n,
    slanted_halfplane,
    strip_map,
)

# Boundary curves are sampled on a circle strictly inside the disk.  The
# radius default stays at 0.9 because the maps arrive as truncated series:
# at order 128 the tail at 0.9 is harmless, while at 0.995 it would drown
# the curve.  Callers holding exact representations can push r_max up.
DEFAULT_CURVE_RADIUS = 0.9
DEFAULT_BOUNDARY_POINTS = 4096
# (radius, minimum truncation order) rungs for the sweep drivers' curve
# checks.  Each radius is paired with an order that keeps the series tail
# a few orders of magnitude below the curve scale even for maps whose
# coefficients grow like k^2 (the half-plane convolutions).
CURVE_LADDER = ((0.95, 384), (0.9, 256), (0.98, 1024))
SWEEP_LEVELS = 256
LEVEL_TIE_ATOL = 1e-9
HP_VANISH_ATOL = 1e-12
# Slack on a hypothesis edge: a parameter within it lies on the edge.
EDGE_ATOL = 1e-12


def hengartner_schober(F, grid: DiskGrid) -> float:
    """Min over the grid of Re((1 - z^2) F'(z)) for an analytic series F.

    Positivity of this functional (plus a boundary normalization that has
    no finite-sample analogue and is not checked here) forces F to be
    convex in the direction of the imaginary axis.  NaN when any sampled
    value is not finite, since the minimum would then hide it.
    """
    pts = grid.points
    vals = (1.0 - pts * pts) * F.differentiate()(pts)
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

    passed is None when the verdict was withheld: local univalence could
    not be confirmed on the sampled grid (univalence_failure then carries
    the offending point), or a sample was not finite.  Otherwise passed ==
    (crossing_max <= 2), counted on the one curve Im(e^{-i phi} A) of the
    analytic reduction, which is also the height of the harmonic image.
    """

    direction: float
    passed: bool | None
    crossing_max: int | None
    min_hs_value: float | None
    boundary_tight: bool = False
    univalence_failure: complex | None = None
    note: str = ""


def _withheld(phi: float, note: str, point: complex | None = None) -> ConvexityReport:
    return ConvexityReport(
        direction=phi,
        passed=None,
        crossing_max=None,
        min_hs_value=None,
        univalence_failure=point,
        note=note,
    )


def convex_in_direction(
    f: HarmonicMap,
    phi: float,
    grid: DiskGrid | None = None,
    r_max: float = DEFAULT_CURVE_RADIUS,
    n_boundary: int = DEFAULT_BOUNDARY_POINTS,
    gate_radius: float | None = None,
) -> ConvexityReport:
    """Check convexity of the image of |z| < r_max in the direction phi.

    One curve decides it.  Turned by e^{-i phi}, so that direction-phi
    lines become horizontal, the harmonic image and the analytic reduction
    A = h - e^{2i phi} g have the same height:
    Im(e^{-i phi} f) = Im(e^{-i phi} h) - Im(e^{i phi} g) = Im(e^{-i phi} A),
    the shear identity of Clunie and Sheil-Small.  So only A is sampled, at
    n_boundary points on |z| = r_max, and swept with SWEEP_LEVELS
    horizontal levels.  A closed curve bounding a region convex in that
    direction meets each line at most twice.

    Local univalence is sampled first on the grid, capped at gate_radius
    (r_max when not given); failure withholds the verdict, and so does any
    non-finite gate value, boundary sample or Hengartner-Schober value.
    The gate uses the derivative series, which loses accuracy faster than
    the curve itself, so callers pushing r_max outward can keep the gate on
    a safer ring.  Gate rings and the boundary circle are evaluated by FFT
    (PowerSeries.on_circle); the Hengartner-Schober minimum stays on Horner.
    """
    grid = grid if grid is not None else DiskGrid()
    gate = grid.capped(r_max if gate_radius is None else gate_radius)
    pts = gate.points
    hv = gate.sample(f.h.differentiate())
    gv = gate.sample(f.g.differentiate())
    if not (np.isfinite(hv).all() and np.isfinite(gv).all()):
        return _withheld(
            phi, "non-finite h' or g' samples on the grid, convexity verdict withheld"
        )
    small = np.abs(hv) < HP_VANISH_ATOL
    if small.any():
        i = int(np.argmax(small))
        return _withheld(
            phi,
            f"|h'| = {abs(hv[i]):.3e} at z = {pts[i]:.6f}; local "
            "univalence unresolved, convexity verdict withheld",
            complex(pts[i]),
        )
    ratio = np.abs(gv) / np.abs(hv)
    i = int(np.argmax(ratio))
    worst_ratio = float(ratio[i])
    if worst_ratio > 1.0 + GRID_ATOL:
        return _withheld(
            phi,
            f"|g'/h'| = {worst_ratio:.6f} > 1 at z = {pts[i]:.6f}; not "
            "sense-preserving on the grid, convexity verdict withheld",
            complex(pts[i]),
        )
    tight = worst_ratio >= 1.0 - GRID_ATOL

    A = f.h.subtract(f.g.scale(np.exp(2j * phi)))
    min_hs = hengartner_schober(A.scale(np.exp(1j * (math.pi / 2.0 - phi))), gate)
    ys = (A.on_circle(r_max, n_boundary) * np.exp(-1j * phi)).imag
    if not (math.isfinite(min_hs) and np.isfinite(ys).all()):
        return _withheld(
            phi,
            "non-finite boundary or Hengartner-Schober samples, convexity "
            "verdict withheld",
        )
    _, counts = line_crossing_counts(ys)
    crossing_max = int(counts.max())
    note = f"sampled at {n_boundary} boundary points on |z| = {r_max:g}; evidence, not proof"
    if tight:
        note += "; dilatation modulus is boundary-tight on the grid"
    return ConvexityReport(
        direction=phi,
        passed=crossing_max <= 2,
        crossing_max=crossing_max,
        min_hs_value=min_hs,
        boundary_tight=tight,
        note=note,
    )


def _curve_evidence(
    build: Callable[[int], HarmonicMap], phi: float, order: int, grid: DiskGrid
) -> ConvexityReport:
    """Directional convexity evidence across the CURVE_LADDER radii.

    A map whose full-disk image is convex in a direction can still have
    subdisk images that are not: the half-plane convolution at a = 0.95
    with omega = z^2 fails the two-crossing test on |z| <= 0.97 and passes
    from 0.98 on, while the squared-Blaschke variant fails exactly on
    [0.95, 0.98] and is clean on either side (checked against closed-form
    curves).  So a wiggle at one interior radius is not counter-evidence.
    The ladder accepts a pass at any radius whose truncation tail is
    trusted, and an all-rung failure withholds the verdict rather than
    failing it; decisive failures must come from the algebraic side.

    build(N) must return the map truncated at order N; it is called once
    per rung with max(order, rung minimum).
    """
    attempts: list[tuple[float, ConvexityReport]] = []
    for r, min_order in CURVE_LADDER:
        f = build(max(order, min_order))
        rep = convex_in_direction(
            f, phi, grid=grid, r_max=r, gate_radius=min(r, 0.95)
        )
        if rep.passed:
            return rep
        attempts.append((r, rep))
    bits = []
    for r, rep in attempts:
        if rep.passed is None:
            bits.append(f"|z|={r:g}: withheld")
        else:
            bits.append(f"|z|={r:g}: {rep.crossing_max} crossings")
    last = attempts[-1][1]
    return replace(
        last,
        passed=None,
        note=(
            "no sampled radius gave a two-crossing curve ("
            + ", ".join(bits)
            + "); interior samples cannot decide the full-image claim, "
            "verdict withheld"
        ),
    )


# ---------------------------------------------------------------------------
# case table


def _frange(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step))
    return [round(lo + k * step, 10) for k in range(n + 1)]


def _listed(val) -> list:
    if isinstance(val, (list, tuple, np.ndarray)):
        return list(val)
    return [val]


def _real(name: str, v) -> float:
    try:
        if math.isfinite(float(v)):
            return float(v)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be a finite number, got {v}")


def _count(name: str, v) -> int:
    try:
        if float(v).is_integer() and float(v) >= 1:
            return int(float(v))
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be a positive integer, got {v}")


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
            cols = [[self.kind(k, v) for v in _listed(params.get(k, []))] for k in keys]
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
    """What one parameter point certifies, reports and asserts.

    closed is the dilatation handed to certify_bounded, and roots_of the
    polynomial whose zeros the row reports (in the substituted variable w
    when roots_in_w).  note opens the row's note: why nothing is asserted,
    which reduction was certified, how the identity check came out.  A
    failed algebraic identity (identity False) fails the row.
    """

    closed: RationalFunction
    roots_of: ComplexPolynomial | None
    phi: float
    phi_label: str
    asserted: bool = True
    note: str = ""
    identity: bool = True
    roots_in_w: bool = False


class _MapCache:
    """Family maps are reused across t values, ladder rungs and rows."""

    def __init__(self):
        self._store: dict = {}

    def family(
        self, alpha: float, n: int, omega: RationalFunction, order: int
    ) -> HarmonicMap:
        k = (alpha, n, omega, order)
        if k not in self._store:
            self._store[k] = family_f_alpha_n(alpha, n, omega.series(order), order)
        return self._store[k]


@dataclass(frozen=True)
class Case:
    """One construction, swept across its parameter axes.

    build(params, N, cache) is the only definition of the case's harmonic
    map, truncated at order N; it serves the curve ladder and the image
    curves alike.  point(params) says what the row certifies and asserts.
    """

    blurb: str
    axes: tuple[Axis, ...]
    build: Callable[[dict, int, _MapCache], HarmonicMap]
    point: Callable[[dict], Point]

    @property
    def parameters(self) -> list[str]:
        """The parameter names a caller may set."""
        return [k for axis in self.axes if not axis.fixed for k in axis.keys]

    def points(self, params: Mapping) -> list[dict]:
        """Every parameter point of the sweep, the axes crossed in order."""
        unknown = sorted(set(params) - set(self.parameters))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(unknown)}; "
                f"this case accepts: {', '.join(sorted(self.parameters))}"
            )
        points = [{}]
        for axis in self.axes:
            points = [{**p, **v} for p in points for v in axis.values(params, p)]
        return points


def _monomial(power: int, coeff) -> RationalFunction:
    return RationalFunction(
        ComplexPolynomial([0.0] * power + [coeff]), ComplexPolynomial([1.0])
    )


_Z2 = _monomial(2, 1.0)


def _core(closed: RationalFunction) -> ComplexPolynomial:
    """The numerator with its power of z split off."""
    return convo._strip_monomial(closed.num)[1]


def _w_poly(closed: RationalFunction) -> ComplexPolynomial:
    """P from a dilatation -w * P(w)/P*(w)."""
    return ComplexPolynomial((-1.0 * closed.num).coeffs[1:])


# The maps: each build(params, N, cache) below is a case's harmonic map.


def _halfplane(omega):
    """f_{a,0} convolved with the gamma-slanted half-plane map sheared by
    omega(params)."""

    def build(p: dict, N: int, cache: _MapCache) -> HarmonicMap:
        return convo.convolve(
            f_a_alpha(p["a"], 0.0, N),
            slanted_halfplane(p.get("gamma", 0.0), omega(p).series(N), N),
        )

    return build


def _strip(omega):
    """f_{0,0} convolved with the strip map sheared by omega(params)."""

    def build(p: dict, N: int, cache: _MapCache) -> HarmonicMap:
        return convo.convolve(f_a_alpha(0.0, 0.0, N), strip_map(omega(p).series(N), N))

    return build


def _combined(members):
    """t f1 + (1 - t) f2 for the dyadic-family members
    members(params) = ((alpha1, omega1), (alpha2, omega2))."""

    def build(p: dict, N: int, cache: _MapCache) -> HarmonicMap:
        (alpha1, w1), (alpha2, w2) = members(p)
        return convo.combination(
            cache.family(alpha1, p["n"], w1, N),
            cache.family(alpha2, p["n"], w2, N),
            p["t"],
        )

    return build


def _t22_omega(p):
    return _monomial(p["n"], np.exp(1j * p["theta"]))


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


# What each parameter point certifies and asserts.


def _t22_point(p) -> Point:
    sp = SlantParams(gamma=p["gamma"], theta=p["theta"], n=p["n"], a=p["a"])
    closed = convo.monomial_convolution_dilatation(sp)
    asserted = sp.a >= sp.a_threshold - EDGE_ATOL
    note = "" if asserted else "below the monomial threshold, no claim made; "
    label = f"phi=-gamma={-sp.gamma + 0.0:g}"
    return Point(closed, _core(closed), -sp.gamma, label, asserted, note)


def _quartic_point(omega, reduced, quartic):
    """The two coupled quartic convolutions.

    The certificate runs on the reduced quartic form, not on the rational
    the general half-plane formula assembles: at gamma = 0 that assembly
    keeps a removable (1 - z) in both numerator and denominator, and its
    circle zero defeats the structural routes.  The two forms are checked
    against each other at random points so the reduction itself is part of
    the verdict.  reduced(a) also enforces the case's range of a.
    """

    def point(p) -> Point:
        closed = reduced(p["a"])
        assembled = convo.halfplane_convolution_dilatation(p["a"], 0.0, omega(p))
        agree = convo.rationals_equal(assembled, closed)
        note = (
            "assembled dilatation matches the reduced quartic form; "
            if agree
            else "assembled dilatation DISAGREES with the reduced quartic form; "
        )
        return Point(closed, quartic(p["a"]), 0.0, "phi=0", note=note, identity=agree)

    return point


def _t25_point(p) -> Point:
    closed = convo.strip_convolution_dilatation(_even_mobius(p))
    identity = convo.rationals_equal(closed, _Z2)
    note = "dilatation collapses to z^2; " if identity else "z^2 identity FAILED; "
    return Point(closed, None, 0.0, "phi=0", note=note, identity=identity)


def _combination_point(p, w1, w2, closed, roots_of=None, asserted=True, note="") -> Point:
    """Combination rows, convexity in direction pi/2.

    At t = 0 or t = 1 the combination is a single member and its dilatation
    equals that member's omega exactly, while the assembled rational keeps
    removable factors that can defeat the shape detector; certify the pure
    factor instead and say so.
    """
    if p["t"] <= EDGE_ATOL:
        closed, note = w2, note + "endpoint t=0: dilatation is omega2 itself; "
    elif p["t"] >= 1.0 - EDGE_ATOL:
        closed, note = w1, note + "endpoint t=1: dilatation is omega1 itself; "
    return Point(
        closed, roots_of, math.pi / 2.0, "phi=pi/2", asserted, note,
        roots_in_w=roots_of is not None,
    )


def _t38_point(p) -> Point:
    (_, w1), (_, w2) = _t38_members(p)
    closed = convo.shared_target_combination_dilatation(w1, w2, p["t"])
    return _combination_point(p, w1, w2, closed)


def _ordered_point(p, w1, w2, closed, roots_of) -> Point:
    """The claim for alpha1 <= alpha2.  With equal weights the displayed
    polynomial keeps a self-inversive factor that cancels against its
    reflection; certify the shared-target reduction, which is that
    cancellation carried out."""
    asserted = p["alpha1"] <= p["alpha2"] + EDGE_ATOL
    note = "" if asserted else "alpha1 > alpha2, outside the claimed range; "
    if abs(p["alpha1"] - p["alpha2"]) <= EDGE_ATOL:
        closed = convo.shared_target_combination_dilatation(w1, w2, p["t"])
        note += "equal weights: certified via the shared-target reduction; "
    return _combination_point(p, w1, w2, closed, roots_of, asserted, note)


def _t39_point(p) -> Point:
    (alpha1, w1), (alpha2, w2) = _t39_members(p)
    closed = convo.opposed_monomial_cubic(alpha1, alpha2, p["t"])
    return _ordered_point(p, w1, w2, closed, _w_poly(closed))


def _t310_point(p) -> Point:
    (alpha1, w1), (alpha2, w2) = _t310_members(p)
    if p["variant"] == 1:
        closed = convo.adjacent_negative_cubic(alpha1, alpha2, p["t"])
        asserted = alpha1 < alpha2 - EDGE_ATOL
        reason = "needs alpha1 < alpha2 strictly; "
    else:
        closed = convo.adjacent_positive_quartic(alpha1, alpha2, p["t"])
        asserted = abs(alpha1) > abs(alpha2) + EDGE_ATOL and alpha1 * alpha2 > EDGE_ATOL
        reason = "needs |alpha1| > |alpha2| and alpha1*alpha2 > 0; "
    return _combination_point(
        p, w1, w2, closed, _w_poly(closed), asserted, "" if asserted else reason
    )


def _t311_point(p) -> Point:
    # Certify in the substituted variable w; boundedness on the disk is
    # invariant under z -> z**k substitution.
    (alpha1, w1), (alpha2, w2) = _t311_members(p)
    closed = convo.quarter_power_sextic(alpha1, alpha2, p["t"])
    sextic = convo.quarter_power_sextic_poly(alpha1, alpha2, p["t"])
    return _ordered_point(p, w1, w2, closed, sextic)


def _exploration_point(omega):
    """The open-ended half-plane explorations, which assert nothing.  A
    shared (z - 1) factor of the gamma = 0 assembly is cancelled first."""

    def point(p) -> Point:
        closed = convo.halfplane_convolution_dilatation(p["a"], 0.0, omega(p))
        note = "exploratory: no assertion; "
        reduced = convo.cancel_unit_root(closed)
        if reduced is not None:
            closed, note = reduced, note + "shared (z - 1) factor cancelled; "
        return Point(closed, _core(closed), 0.0, "phi=0", asserted=False, note=note)

    return point


def _oq3_point(p) -> Point:
    closed = convo.strip_convolution_dilatation(_blaschke_power_a(p))
    return Point(
        closed, _core(closed), 0.0, "phi=0", asserted=False,
        note="exploratory: no assertion; ",
    )


def _t22_a(p) -> list[float]:
    """The threshold (n-2)/(n+2), two values above it, and one below it."""
    threshold = (p["n"] - 2.0) / (p["n"] + 2.0)
    below = round(threshold - 0.15, 10)
    mid = round((threshold + 0.95) / 2.0, 10)
    return [threshold, mid, 0.95] + ([below] if below > -0.95 else [])


def _n(*default: int) -> Axis:
    return Axis("n", default, _count)


_THETA = Axis("theta", (0.0,))
_T = Axis("t", (0.0, 0.25, 0.5, 0.75, 1.0))
_A_EXPLORED = Axis("a", (0.25, 0.5, 0.75))
_B_EXPLORED = Axis("b", lambda p: (p["a"],))
_PAIRS = Axis(
    "alpha1 alpha2", ((-0.5, 0.5), (-0.8, -0.2), (0.0, 0.8), (0.3, 0.3), (0.5, -0.5))
)
_T310_PAIRS = Axis(
    "alpha1 alpha2",
    lambda p: (
        ((-0.5, 0.5), (0.0, 0.5), (-0.8, -0.2), (0.3, 0.3), (0.5, -0.5))
        if p["variant"] == 1
        else ((0.8, 0.3), (-0.8, -0.3), (0.3, 0.8), (0.5, 0.0), (-0.5, 0.5))
    ),
)

CASES: dict[str, Case] = {
    "t2.2": Case(
        "slanted half-plane target, monomial dilatation e^{i theta} z^n",
        (_n(1, 2, 3), Axis("gamma", (0.0,)), _THETA, Axis("a", _t22_a)),
        _halfplane(_t22_omega),
        _t22_point,
    ),
    "t2.3": Case(
        "half-plane target, even Moebius dilatation, quartic certificate",
        (Axis("a", _frange(0.05, 0.95, 0.05)),),
        _halfplane(_even_mobius),
        _quartic_point(
            _even_mobius,
            convo.even_mobius_convolution_dilatation,
            convo.even_mobius_quartic,
        ),
    ),
    "t2.4": Case(
        "half-plane target, negated squared-Blaschke dilatation",
        (Axis("a", _frange(0.05, 0.95, 0.05)),),
        _halfplane(_negated_square),
        _quartic_point(
            _negated_square,
            convo.negated_square_convolution_dilatation,
            convo.negated_square_quartic,
        ),
    ),
    "t2.5": Case(
        "strip target, even Moebius dilatation collapsing to z^2",
        (Axis("a", _frange(-0.9, 0.9, 0.1)),),
        _strip(_even_mobius),
        _t25_point,
    ),
    "t3.8": Case(
        "equal-weight family combinations, assorted bounded dilatations",
        (
            _n(1, 2, 3),
            Axis("alpha", (-FAMILY_ALPHA_MAX, 0.0, FAMILY_ALPHA_MAX)),
            Axis(
                "omega1 omega2",
                lambda p: [(m1[0], m2[0]) for m1, m2 in _t38_menu(p["n"])],
                fixed=True,
            ),
            _T,
        ),
        _combined(_t38_members),
        _t38_point,
    ),
    "t3.9": Case(
        "family combinations with opposed monomial dilatations",
        (_n(1, 2), _PAIRS, _T),
        _combined(_t39_members),
        _t39_point,
    ),
    "t3.10": Case(
        "family combinations with adjacent power dilatations (2 variants)",
        (_n(1, 2), Axis("variant", (1, 2), _count), _T310_PAIRS, _T),
        _combined(_t310_members),
        _t310_point,
    ),
    "t3.11": Case(
        "family combinations with quarter-power members, sextic certificate",
        (_n(2, 3), _PAIRS, _T),
        _combined(_t311_members),
        _t311_point,
    ),
    "oq1": Case(
        "exploration: half-plane target, Moebius power dilatation",
        (_n(3), _THETA, _A_EXPLORED, _B_EXPLORED),
        _halfplane(_mobius_power_b),
        _exploration_point(_mobius_power_b),
    ),
    "oq2": Case(
        "exploration: half-plane target, Blaschke power dilatation",
        (_n(2), _THETA, _A_EXPLORED, _B_EXPLORED),
        _halfplane(_blaschke_power_b),
        _exploration_point(_blaschke_power_b),
    ),
    "oq3": Case(
        "exploration: strip target, Blaschke power dilatation",
        (_n(1, 2, 3), _THETA, _A_EXPLORED),
        _strip(_blaschke_power_a),
        _oq3_point,
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


def _root_pairs(poly: ComplexPolynomial | None) -> list[list[float]] | None:
    """Sorted [re, im] zeros of poly; None when the root oracle cannot say."""
    if poly is None or poly.degree < 1 or poly.degree > 24:
        return None
    try:
        values = roots(poly)
    except NumericFailure:
        return None
    pairs = sorted((float(v.real), float(v.imag)) for v in values)
    return [[re, im] for re, im in pairs]


def _judge(cert: BoundednessReport, conv: ConvexityReport) -> bool | None:
    """Collapse certificate + convexity into pass (True), fail (False) or
    indeterminate (None)."""
    if cert.verdict == "exceeds" or conv.passed is False:
        return False
    if not cert.certified or conv.passed is None:
        return None
    return True


def _verdict_of(asserted: bool, ok: bool | None) -> str:
    if not asserted:
        return "exploratory"
    if ok is None:
        return "indeterminate"
    return "pass" if ok else "fail"


def _describe(cert: BoundednessReport, conv: ConvexityReport, phi_label: str) -> str:
    bits = [f"dilatation {cert.verdict} ({cert.method})"]
    if conv.passed is None:
        bits.append(f"convexity {phi_label}: withheld ({conv.note})")
    else:
        word = "passed" if conv.passed else "FAILED"
        bits.append(f"convexity {phi_label}: {word}, max {conv.crossing_max} crossings")
    return "; ".join(bits)


def _row_key(row: dict):
    items = []
    for k in sorted(row["params"]):
        v = row["params"][k]
        if isinstance(v, (int, float)):
            items.append((k, 0, float(v), ""))
        else:
            items.append((k, 1, 0.0, str(v)))
    return tuple(items)


def sweep_report(
    case: str,
    params: Mapping | None = None,
    *,
    order: int = 128,
    grid: DiskGrid | None = None,
) -> list[dict]:
    """Run one case's construction and certificates across a parameter grid.

    Returns verdict rows sorted by parameter tuple.  Rows outside a case's
    claimed hypothesis range, and all rows of the open-ended cases, carry
    verdict "exploratory" and assert nothing.

    order only floors the truncation of each CURVE_LADDER rung, which
    otherwise uses the rung's own minimum order.
    """
    key, spec = _case(case)
    grid = grid if grid is not None else DiskGrid()
    cache = _MapCache()
    # Every point is set up (and its parameters validated) before any runs.
    points = [(p, spec.point(p)) for p in spec.points(dict(params or {}))]
    rows = []
    for p, pt in points:
        cert = convo.certify_bounded(pt.closed, grid)
        conv = _curve_evidence(
            lambda N: spec.build(p, N, cache), pt.phi, order, grid
        )
        ok = _judge(cert, conv) if pt.identity else False
        note = pt.note + _describe(cert, conv, pt.phi_label)
        if pt.roots_in_w:
            note += "; roots reported in the substituted variable w"
        rows.append(
            {
                "case": key,
                "params": p,
                "verdict": _verdict_of(pt.asserted, ok),
                "metrics": {
                    "max_omega": cert.grid_max,
                    "min_hs": conv.min_hs_value,
                    "roots": _root_pairs(pt.roots_of),
                },
                "note": note,
            }
        )
    rows.sort(key=_row_key)
    return rows


# ---------------------------------------------------------------------------
# image curve export


def row_param_id(row: Mapping) -> str:
    """Compact deterministic label for one verdict row's parameter point."""
    parts = []
    for k in sorted(row["params"]):
        v = row["params"][k]
        parts.append(f"{k}={v:.10g}" if isinstance(v, float) else f"{k}={v}")
    return ",".join(parts)


def image_curves(
    case: str,
    rows: Sequence[Mapping],
    *,
    order: int = 128,
    n_points: int = 512,
    radius: float = DEFAULT_CURVE_RADIUS,
) -> list[tuple[str, np.ndarray]]:
    """Sampled image curves f(radius * e^{i theta}) for verdict rows.

    Returns (param-id, curve) pairs in row order, for CSV and SVG export.
    """
    _, spec = _case(case)
    zs = radius * np.exp(1j * (2.0 * math.pi) * np.arange(n_points) / n_points)
    cache = _MapCache()
    return [
        (row_param_id(row), spec.build(row["params"], order, cache)(zs)) for row in rows
    ]
