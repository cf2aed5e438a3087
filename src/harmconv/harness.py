"""Command-line front end: named cases to reproducible artifact runs.

Verbs:
    verify <case>    run the case's sweep, write artifacts, exit by verdicts
    explore <case>   same machinery; meant for the open-ended cases
    plot <case>      write only the curve artifacts (csv, svg)

Every run writes into --outdir: report.json (verdict rows, deterministic
and byte-identical across reruns of the same config), samples.csv (image
curves, columns param-id, t-index, re, im) and <case>.svg (one autoscaled
1000x1000 plot per run, one polyline per row).

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

from .convo import DEFAULT_ANGLES_PER_RING, DEFAULT_RADII, DiskGrid
from .geochk import CASE_IDS, CASES, image_curves, sweep_report

# every parameter any case accepts, in table order
_PARAM_NAMES = tuple(dict.fromkeys(k for c in CASES.values() for k in c.parameters))

MIN_ORDER, MAX_ORDER = 16, 512

_FORMATS = ("json", "csv", "svg")


class ConfigError(ValueError):
    """Invalid run configuration; the message says what to change."""


class _ArgumentParser(argparse.ArgumentParser):
    """Malformed command lines raise ConfigError (exit 1), not argparse's
    exit 2, which means a failed row.  Subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    case: str
    params: dict = field(default_factory=dict)
    order: int = 128
    radii: tuple = DEFAULT_RADII
    angles_per_ring: int = DEFAULT_ANGLES_PER_RING
    outdir: str = "."
    formats: tuple = _FORMATS

    def __post_init__(self):
        if not (MIN_ORDER <= int(self.order) <= MAX_ORDER):
            raise ConfigError(
                f"truncation order must lie in [{MIN_ORDER}, {MAX_ORDER}], got {self.order}"
            )
        bad = sorted(set(self.formats) - set(_FORMATS))
        if bad:
            raise ConfigError(
                f"unknown output format(s) {', '.join(bad)}; choose from {', '.join(_FORMATS)}"
            )
        if str(self.case).strip().lower() not in CASE_IDS:
            raise ConfigError(
                f"unknown case id {self.case!r}; known ids: {', '.join(CASE_IDS)}"
            )

    def grid(self) -> DiskGrid:
        try:
            return DiskGrid(tuple(self.radii), int(self.angles_per_ring))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


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
            "case": str(config.case).strip().lower(),
            "config": {
                "order": config.order,
                "radii": list(config.radii),
                "angles_per_ring": config.angles_per_ring,
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
    case = str(config.case).strip().lower()
    try:
        rows = sweep_report(case, config.params, order=config.order, grid=config.grid())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if "json" in config.formats:
        _write_report(config, rows, outdir / "report.json")
    if "csv" in config.formats or "svg" in config.formats:
        curves = image_curves(case, rows, order=config.order)
        if "csv" in config.formats:
            _write_samples(curves, outdir / "samples.csv")
        if "svg" in config.formats:
            _write_svg(case, curves, outdir / f"{case}.svg")

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
    count = int(round((hi - lo) / step))
    if abs(lo + count * step - hi) > 1e-9 * max(1.0, abs(hi)):
        count = int(math.floor((hi - lo) / step + 1e-9))
    return [round(lo + k * step, 10) for k in range(count + 1)]


def _parse_values(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"could not parse {text!r} as comma-separated numbers") from exc


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ['--a-range', '-0.9:0.9:0.1'] as ['--a-range=-0.9:0.9:0.1'].

    argparse refuses option values that start with '-' unless they parse as
    plain negative numbers, which the colon range syntax does not.
    """
    glued = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and nxt.startswith("-")
            and (":" in nxt or "," in nxt)
        ):
            glued.append(f"{tok}={nxt}")
            i += 2
        else:
            glued.append(tok)
            i += 1
    return glued


def _build_parser() -> argparse.ArgumentParser:
    case_lines = "\n".join(f"  {cid:<6} {CASES[cid].blurb}" for cid in CASE_IDS)
    parser = _ArgumentParser(
        prog="harmconv",
        description="numerically certify convolution and combination "
        "constructions on planar harmonic mappings",
        epilog="cases:\n" + case_lines,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_sweep_verb(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(
            name,
            help=help_text,
            epilog="cases:\n" + case_lines,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sp.add_argument("case", nargs="?", help="case id (see list below)")
        for p in _PARAM_NAMES:
            sp.add_argument(f"--{p}", metavar="V[,V...]", help=f"explicit {p} values")
            sp.add_argument(
                f"--{p}-range", metavar="LO:HI:STEP", help=f"swept {p} values"
            )
        sp.add_argument("--order", "-N", type=int, help="series truncation order")
        sp.add_argument("--outdir", help="artifact directory (default: .)")
        sp.add_argument(
            "--formats", metavar="F[,F...]", help="subset of json,csv,svg"
        )
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        return sp

    add_sweep_verb("verify", "run a case and assert its claimed rows")
    add_sweep_verb("explore", "run an open-ended case; rows assert nothing")
    add_sweep_verb("plot", "write only the curve artifacts for a case")
    return parser


def _config_from_args(args) -> RunConfig:
    file_cfg = {}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(
            set(file_cfg)
            - {"case", "params", "order", "radii", "angles_per_ring", "outdir", "formats"}
        )
        if unknown:
            raise ConfigError(f"unknown config file key(s): {', '.join(unknown)}")

    case = args.case or file_cfg.get("case")
    if not case:
        raise ConfigError("no case id given (positional argument or config file)")

    params = dict(file_cfg.get("params") or {})
    for p in _PARAM_NAMES:
        vals = getattr(args, p.replace("-", "_"))
        rng = getattr(args, f"{p}_range")
        if vals is not None and rng is not None:
            raise ConfigError(f"give either --{p} or --{p}-range, not both")
        if vals is not None:
            params[p] = _parse_values(vals)
        elif rng is not None:
            params[p] = _parse_range(rng)

    formats = file_cfg.get("formats", _FORMATS)
    if args.formats is not None:
        formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    if args.verb == "plot":
        formats = [f for f in formats if f != "json"] or ["svg"]

    return RunConfig(
        case=str(case),
        params=params,
        order=args.order if args.order is not None else int(file_cfg.get("order", 128)),
        radii=tuple(file_cfg.get("radii", DEFAULT_RADII)),
        angles_per_ring=int(file_cfg.get("angles_per_ring", DEFAULT_ANGLES_PER_RING)),
        outdir=args.outdir or file_cfg.get("outdir", "."),
        formats=tuple(formats),
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_glue_negative_values(argv))
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
