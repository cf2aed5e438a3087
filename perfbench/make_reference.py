#!/usr/bin/env python3
"""Write perfbench/reference.json: the verdict of every default sweep row.

    python3 perfbench/make_reference.py

The committed table was taken from the seed code.  Regenerate it only in
a change that alters verdicts on purpose and says which rows moved.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads
from harmconv import geochk, harness


def main() -> int:
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in geochk.CASE_IDS:
            outdir = Path(tmp) / case
            code = harness.run(harness.RunConfig(case=case, outdir=str(outdir), formats=("json",)))
            rows = json.loads((outdir / "report.json").read_text())["rows"]
            cases[case] = {
                "exit_code": code,
                "verdicts": {geochk.row_param_id(r): r["verdict"] for r in rows},
            }
    workloads.REFERENCE.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"{sum(len(c['verdicts']) for c in cases.values())} rows -> {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
