"""Command-line front end: named cases to reproducible artifact runs.

Verbs:
    verify <case>    run the case's sweep, write artifacts, exit by verdicts
    explore <case>   same machinery; meant for the open-ended cases
    plot <case>      write only the curve artifacts (csv, svg)

Each parameter a case accepts is one option, --<name>, which takes a
comma-separated list of values or a range LO:HI:STEP (LO, LO + STEP, ...
through HI); a value that starts with "-" goes after "=", as in
--a=-0.9:0.9:0.1.  A sweep holds at most geochk.MAX_SWEEP_POINTS points.

Every run writes into --outdir: report.json (verdict rows, deterministic
and byte-identical across reruns of the same case and parameters),
samples.csv (image curves, columns param-id, t-index, re, im) and
<case>.svg (one autoscaled 1000x1000 plot per run, one polyline per row).

Exit codes: 0 all asserted rows pass (exploratory rows assert nothing),
1 invalid configuration, 2 some asserted row failed, 3 no failures but
some verdict indeterminate, 4 I/O trouble while writing artifacts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .convo import DEFAULT_GRID
from .geochk import CASE_IDS, CASES, IMAGE_CURVE_ORDER, _frange, image_curves, sweep_report

# every parameter any case accepts, in table order
_PARAM_NAMES = tuple(dict.fromkeys(k for c in CASES.values() for k in c.parameters))

_FORMATS = ("json", "csv", "svg")


class ConfigError(ValueError):
    """Invalid run configuration; the message says what to change."""


class _ArgumentParser(argparse.ArgumentParser):
    """Malformed command lines raise ConfigError (exit 1), not argparse's
    exit 2, which means a failed row."""

    def error(self, message):
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """One run: a case, its parameter values, where the artifacts go and
    which of them to write.  The sampling grid (DEFAULT_GRID) and the
    image curves' truncation order (IMAGE_CURVE_ORDER) are the same for
    every run; case is kept stripped and lower-cased."""

    case: str
    params: dict = field(default_factory=dict)
    outdir: str = "."
    formats: tuple = _FORMATS

    def __post_init__(self):
        object.__setattr__(self, "case", str(self.case).strip().lower())
        bad = sorted({str(f) for f in self.formats if f not in _FORMATS})
        if bad:
            raise ConfigError(
                f"unknown output format(s) {', '.join(bad)}; choose from {', '.join(_FORMATS)}"
            )
        if not self.formats:
            raise ConfigError(f"no output format given; choose from {', '.join(_FORMATS)}")
        if self.outdir == "":
            raise ConfigError("empty output directory; use . for the working directory")
        if self.case not in CASE_IDS:
            raise ConfigError(
                f"unknown case id {self.case!r}; known ids: {', '.join(CASE_IDS)}"
            )


# ---------------------------------------------------------------------------
# deterministic serialization


def _round15(x: float) -> float | None:
    if not math.isfinite(x):
        return None
    return float(f"{x:.15g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round15(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return [_round15(obj.real), _round15(obj.imag)]
    return obj


def _dump_json(obj, path: Path):
    path.write_text(
        json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    )


def _summary_note(rows) -> str:
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    tally = ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
    return (
        f"verdicts: {tally}; certificates are algebraic, curve and grid "
        "verdicts are sampled evidence at the stated resolution"
    )


def _write_report(config: RunConfig, rows, path: Path):
    _dump_json(
        {
            "case": config.case,
            "config": {
                "order": IMAGE_CURVE_ORDER,
                "radii": list(DEFAULT_GRID.radii),
                "angles_per_ring": DEFAULT_GRID.angles_per_ring,
                "params": config.params,
            },
            "note": _summary_note(rows),
            "rows": rows,
        },
        path,
    )


def _csv_field(value: str) -> str:
    """value as csv.writer writes it inside a row (quoted when it holds a
    comma or a quote)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _write_samples(curves, path: Path):
    """One CSV row per sample; each curve's rows are joined into one write,
    with the param-id quoted once, byte for byte what csv.writer gives."""
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(["param-id", "t-index", "re", "im"])
        for param_id, curve in curves:
            q = _csv_field(param_id)
            fh.write(
                "".join(
                    f"{q},{k},{z.real:.15g},{z.imag:.15g}\r\n"
                    for k, z in enumerate(curve.tolist())
                )
            )


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _write_svg(case: str, curves, path: Path):
    """Hand-rolled SVG: one autoscaled 1000x1000 viewport, one closed
    polyline per parameter point."""
    pts = np.concatenate([c for _, c in curves])
    lo_x, hi_x = float(pts.real.min()), float(pts.real.max())
    lo_y, hi_y = float(pts.imag.min()), float(pts.imag.max())
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-12)
    pad = 0.05 * span
    span = span + 2.0 * pad
    x0 = 0.5 * (lo_x + hi_x) - 0.5 * span
    y0 = 0.5 * (lo_y + hi_y) - 0.5 * span
    scale = 1000.0 / span

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="1000" '
        'viewBox="0 0 1000 1000">',
        f"<title>{case}: image curves</title>",
        '<rect width="1000" height="1000" fill="white"/>',
    ]
    for i, (param_id, curve) in enumerate(curves):
        xs = (curve.real - x0) * scale
        ys = 1000.0 - (curve.imag - y0) * scale
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        color = _SVG_PALETTE[i % len(_SVG_PALETTE)]
        lines.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1"><title>{param_id}</title></polygon>'
        )
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# run


def run(config: RunConfig) -> int:
    """Execute one sweep and write the requested artifacts.

    Returns the process exit code; raises ConfigError for bad input and
    lets OSError from the writes escape to the caller.
    """
    try:
        rows = sweep_report(config.case, config.params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if "json" in config.formats:
        _write_report(config, rows, outdir / "report.json")
    if "csv" in config.formats or "svg" in config.formats:
        curves = image_curves(config.case, rows)
        if "csv" in config.formats:
            _write_samples(curves, outdir / "samples.csv")
        if "svg" in config.formats:
            _write_svg(config.case, curves, outdir / f"{config.case}.svg")

    verdicts = {r["verdict"] for r in rows}
    if "fail" in verdicts:
        return 2
    if "indeterminate" in verdicts:
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument handling


_RANGE_RE = re.compile(r"^(-?[\d.eE+-]+):(-?[\d.eE+-]+):(-?[\d.eE+-]+)$")


def _parse_range(text: str) -> list[float]:
    m = _RANGE_RE.match(text)
    if not m:
        raise ConfigError(f"range {text!r} is not of the form lo:hi:step")
    try:
        lo, hi, step = (float(g) for g in m.groups())
    except ValueError as exc:
        raise ConfigError(f"range {text!r} has a non-numeric part") from exc
    if step <= 0.0:
        raise ConfigError(f"range step must be positive, got {step}")
    if hi < lo:
        raise ConfigError(f"range {text!r} is empty (hi < lo)")
    try:
        return _frange(lo, hi, step)
    except ValueError as exc:
        raise ConfigError(f"range {text!r}: {exc}") from exc


def _parse_values(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"could not parse {text!r} as comma-separated numbers") from exc


def _build_parser() -> argparse.ArgumentParser:
    case_lines = "\n".join(f"  {cid:<6} {CASES[cid].blurb}" for cid in CASE_IDS)
    parser = _ArgumentParser(
        prog="harmconv",
        description="numerically certify convolution and combination "
        "constructions on planar harmonic mappings",
        epilog="cases:\n" + case_lines,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument(
        "verb", choices=("verify", "explore", "plot"),
        help="verify a case's claims, explore an open-ended case, or plot its curves only",
    )
    parser.add_argument("case", nargs="?", help="case id (see list below)")
    for p in _PARAM_NAMES:
        parser.add_argument(
            f"--{p}", metavar="V[,V...]|LO:HI:STEP", help=f"{p} values, listed or swept"
        )
    parser.add_argument("--outdir", help="artifact directory (default: .)")
    parser.add_argument("--formats", metavar="F[,F...]", help="subset of json,csv,svg")
    return parser


def _config_from_args(args) -> RunConfig:
    """The run the options ask for; an option not given keeps its RunConfig
    default, and plot never writes report.json."""
    if not args.case:
        raise ConfigError("no case id given")
    params = {}
    for p in _PARAM_NAMES:
        text = getattr(args, p)
        if text is not None:
            params[p] = _parse_range(text) if ":" in text else _parse_values(text)
    formats = _FORMATS
    if args.formats is not None:
        formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())
        if args.verb == "plot" and "json" in formats:
            raise ConfigError("plot writes no report.json; its formats are csv and svg")
    if args.verb == "plot":
        formats = tuple(f for f in formats if f != "json")
    return RunConfig(args.case, params, "." if args.outdir is None else args.outdir, formats)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_intermixed_args(argv)
        config = _config_from_args(args)
        code = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    if args.verb == "plot":
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
