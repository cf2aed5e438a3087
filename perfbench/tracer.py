"""Per-layer tracing of harmconv, installed from outside the package.

Each wrapper replaces a name where the calling code looks it up at call
time: a class attribute, or a module global.  Names imported with
``from ... import`` are bound in the importing module, so those are patched
there as well (``geochk.roots``, ``convo.count_zeros_in_disk``, ...);
patching only the defining module would leave the layer reading 0.

Span wrappers time the call and keep a stack, so a span's self time is its
duration minus the time of the spans directly inside it.  Counter wrappers
only count work (terms, calls) and add no span, so they do not split the
self time of their caller.  Stats live in memory on the Tracer and are
read out when the traced pass ends.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from harmconv import convo, cpoly, geochk, harness, hmap, series
from harmconv.cpoly import NumericFailure

HMAP_BUILDERS = ("f_a_alpha", "slanted_halfplane", "strip_map", "family_f_alpha_n")


class Tracer:
    """Accumulates ``<layer>.<stat>`` values from the installed wrappers."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    def span(self, layer: str, fn, count=None):
        """Wrap fn in a timed span; count(args, result) yields (stat, value)."""
        stats, stack = self.stats, self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[f"{layer}.busy_s"] += dt
                stats[f"{layer}.self_s"] += dt - frame[0]
                stats[f"{layer}.calls"] += 1
            if count is not None:
                for stat, value in count(args, result):
                    stats[f"{layer}.{stat}"] += value
            return result

        return wrapper

    def counter(self, layer: str, fn, count):
        """Wrap fn so it only adds count(args, result) to the layer's stats."""
        stats = self.stats

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for stat, value in count(args, result):
                stats[f"{layer}.{stat}"] += value
            return result

        return wrapper

    def failures(self, layer: str, fn, exc_type):
        """Wrap a span-wrapped fn so raised exc_type adds to layer.failures."""
        stats = self.stats

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except exc_type:
                stats[f"{layer}.failures"] += 1
                raise

        return wrapper


def _horner_terms(args, result):
    self, z = args[0], args[1]
    yield "terms", len(self.coeffs) * np.size(z)


def _divide_terms(args, result):
    yield "terms", len(result.coeffs)


def _crossing_cells(args, result):
    levels, _ = result
    yield "cells", levels.size * np.size(args[0])


def _ladder_rung(args, result):
    yield "passed", 1 if result.passed else 0


def _certificate_method(args, result):
    yield f"method.{result.method}", 1


def _chain_success(args, result):
    yield "chain_certified", 1 if result.method == "cohn-chain" else 0


def _one_call(args, result):
    yield "calls", 1


def _sweep_rows(args, result):
    yield "rows", len(result)


def _artifact_bytes(args, result):
    outdir = Path(args[0].outdir)
    yield "bytes", sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


def _patches(tracer: Tracer):
    """(owner, attribute, wrapper) for every lookup site the trace covers."""
    t = tracer
    evaluate = t.span("series.evaluate", series.PowerSeries.evaluate, _horner_terms)
    roots = t.failures(
        "cpoly.roots", t.span("cpoly.roots", cpoly.roots), NumericFailure
    )
    count_zeros = t.span(
        "cpoly.count_zeros_in_disk", cpoly.count_zeros_in_disk, _chain_success
    )
    out = [
        (series.PowerSeries, "evaluate", evaluate),
        (series.PowerSeries, "__call__", evaluate),
        (
            series.PowerSeries,
            "divide",
            t.span("series.divide", series.PowerSeries.divide, _divide_terms),
        ),
        (
            cpoly.ComplexPolynomial,
            "__call__",
            t.counter("cpoly.evaluate", cpoly.ComplexPolynomial.__call__, _horner_terms),
        ),
        (cpoly, "cohn_reduce", t.counter("cpoly.cohn_reduce", cpoly.cohn_reduce, _one_call)),
        (cpoly, "roots", roots),
        (geochk, "roots", roots),
        (cpoly, "count_zeros_in_disk", count_zeros),
        (convo, "count_zeros_in_disk", count_zeros),
        (
            convo,
            "certify_bounded",
            t.span("convo.certify_bounded", convo.certify_bounded, _certificate_method),
        ),
        (
            geochk,
            "line_crossing_counts",
            t.span("geochk.line_crossing_counts", geochk.line_crossing_counts, _crossing_cells),
        ),
        (
            geochk,
            "hengartner_schober",
            t.span("geochk.hengartner_schober", geochk.hengartner_schober),
        ),
        (
            geochk,
            "convex_in_direction",
            t.span("geochk.convex_in_direction", geochk.convex_in_direction, _ladder_rung),
        ),
        (
            harness,
            "sweep_report",
            t.span("geochk.sweep_report", geochk.sweep_report, _sweep_rows),
        ),
        (harness, "image_curves", t.span("geochk.image_curves", geochk.image_curves)),
        (harness, "run", t.span("harness.run", harness.run, _artifact_bytes)),
        (harness, "main", t.span("harness.main", harness.main)),
    ]
    for name in HMAP_BUILDERS:
        wrapped = t.span("hmap.build", getattr(hmap, name))
        out.extend((module, name, wrapped) for module in (hmap, geochk, harness)
                   if hasattr(module, name))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    patches = _patches(tracer)
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict[str, float], passes: int) -> dict[str, float]:
    """Per-pass values of every per-layer metric, from the raw stats."""
    s = {k: v / passes for k, v in stats.items()}
    g = lambda key: s.get(key, 0.0)  # noqa: E731
    rows = g("geochk.sweep_report.rows")
    rungs = g("geochk.convex_in_direction.calls")
    out = {
        key: g(key)
        for key in (
            "series.evaluate.busy_s",
            "series.evaluate.calls",
            "series.evaluate.terms",
            "series.divide.busy_s",
            "series.divide.terms",
            "hmap.build.busy_s",
            "hmap.build.calls",
            "geochk.line_crossing_counts.busy_s",
            "geochk.line_crossing_counts.calls",
            "geochk.line_crossing_counts.cells",
            "geochk.convex_in_direction.busy_s",
            "geochk.convex_in_direction.self_s",
            "geochk.convex_in_direction.calls",
            "geochk.hengartner_schober.busy_s",
            "geochk.sweep_report.busy_s",
            "geochk.image_curves.busy_s",
            "convo.certify_bounded.busy_s",
            "convo.certify_bounded.self_s",
            "convo.certify_bounded.calls",
            "cpoly.evaluate.terms",
            "cpoly.count_zeros_in_disk.busy_s",
            "cpoly.count_zeros_in_disk.calls",
            "cpoly.cohn_reduce.calls",
            "cpoly.roots.busy_s",
            "cpoly.roots.calls",
            "cpoly.roots.failures",
            "harness.main.self_s",
        )
    }
    for method in ("cohn-chain", "roots", "self-inversive", "grid", "trivial"):
        out[f"convo.certify.method.{method}"] = g(f"convo.certify_bounded.method.{method}")
    out["geochk.ladder.rungs_per_row"] = _ratio(rungs, rows)
    out["geochk.ladder.withheld_frac"] = _ratio(
        rows - g("geochk.convex_in_direction.passed"), rows
    )
    out["cpoly.chain_success_frac"] = _ratio(
        g("cpoly.count_zeros_in_disk.chain_certified"), g("cpoly.count_zeros_in_disk.calls")
    )
    out["harness.write.busy_s"] = g("harness.run.self_s")
    out["harness.write.bytes"] = g("harness.run.bytes")
    return out
