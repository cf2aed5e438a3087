"""Golden reports: one small sweep per case, byte for byte.

Each file under tests/golden/ is a report.json written by an earlier,
independently structured version of the sweep drivers; its "case" and
"config.params" entries say how to rerun it, and the rest of "config"
records the grid and image-curve order that every run uses.  The
parameter slices cover every note branch: below-threshold and
out-of-range rows, the t = 0 and t = 1 endpoints, equal weights, both
t3.10 variants, and the (z - 1) cancellation in the half-plane
explorations.  These files are fixtures, not outputs: never regenerate
them from the code under test.
"""

import json
from pathlib import Path

import pytest

from harmconv.geochk import CASE_IDS
from harmconv.harness import RunConfig, run

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_every_case_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASE_IDS)


@pytest.mark.parametrize("case", CASE_IDS)
def test_report_is_byte_identical(case, tmp_path):
    golden = GOLDEN / f"{case}.json"
    cfg = json.loads(golden.read_text())["config"]
    run(RunConfig(case, cfg["params"], str(tmp_path), ("json",)))
    assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()
