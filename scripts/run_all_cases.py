#!/usr/bin/env python3
"""Run every registered case over its default parameter sweep.

One subdirectory of artifacts per case (report.json, samples.csv, SVG),
one tally line per case on stdout, nonzero exit if any asserted row
fails or lands indeterminate.  This is the full-reproduction driver:
it should finish in a couple of minutes at the default order.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from harmconv.geochk import CASE_IDS
from harmconv.harness import RunConfig, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="artifacts", help="artifact tree root")
    parser.add_argument("--order", "-N", type=int, default=128)
    parser.add_argument(
        "--skip-curves",
        action="store_true",
        help="write report.json only (skips samples.csv and the SVGs)",
    )
    args = parser.parse_args()

    formats = ("json",) if args.skip_curves else ("json", "csv", "svg")
    worst = 0
    for case in CASE_IDS:
        config = RunConfig(
            case=case,
            order=args.order,
            outdir=str(Path(args.outdir) / case.replace(".", "_")),
            formats=formats,
        )
        code = run(config)
        label = {0: "ok", 2: "FAIL", 3: "indeterminate"}.get(code, f"exit {code}")
        print(f"{case:<6} {label}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
