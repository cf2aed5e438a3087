"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They check the benchmark, not harmconv: generators are deterministic,
every declared metric is emitted, each correctness check trips on a
doctored input, and the tracer covers the layers it claims.
"""

import json
import subprocess
import sys

import pytest

import measure
import tracer
import workloads
from harmconv import convo, cpoly, geochk, harness, series
from harmconv.convo import BoundednessReport, RationalFunction
from harmconv.cpoly import ComplexPolynomial

BENCH = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((measure.HERE / "layers.json").read_text())["layers"]


def _snapshot(inputs):
    return [(i.family, i.params) if isinstance(i, workloads.CertifyItem) else i for i in inputs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name):
    w = workloads.WORKLOADS[name]()
    first = _snapshot(w.inputs(7, 2))
    assert first == _snapshot(w.inputs(7, 2))
    assert first != _snapshot(w.inputs(8, 2))


def test_declared_workloads_exist():
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


def test_every_per_layer_metric_is_emitted_and_mapped():
    declared = {m["name"] for m in BENCH["per_layer"]}
    emitted = set(tracer.layer_metrics({}, 1)) | {"trace.overhead_s"}
    assert emitted == declared
    mapped = [m for entry in LAYERS.values() for m in entry["metrics"]]
    assert sorted(mapped) == sorted(declared)
    for entry in LAYERS.values():
        assert entry["guard"] in entry["metrics"]
        assert set(entry["moves"]) <= set(workloads.WORKLOADS)


def test_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-scan",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_repro_check_trips_on_a_wrong_reference_verdict(tmp_path):
    code = harness.run(harness.RunConfig(case="oq1", outdir=str(tmp_path), formats=("json",)))
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    ref = workloads.load_reference()["cases"]["oq1"]
    assert workloads.check_repro_case(ref, code, rows) == (3, 0)

    doctored = json.loads(json.dumps(ref))
    pid = next(iter(doctored["verdicts"]))
    doctored["verdicts"][pid] = "pass"
    assert workloads.check_repro_case(doctored, code, rows) == (3, 1)
    assert workloads.check_repro_case(dict(ref, exit_code=2), code, rows) == (3, 3)
    assert workloads.check_repro_case(ref, code, rows[1:]) == (3, 1)


def test_repro_flags_report_bytes_that_change_for_the_same_code(tmp_path):
    w = workloads.Repro(state_dir=tmp_path)
    assert not w._digest_changed("t2.3", "aa")
    assert not w._digest_changed("t2.3", "aa")
    w.save_state()
    again = workloads.Repro(state_dir=tmp_path)
    again.load_state()
    assert again._digest_changed("t2.3", "bb")


def _report(verdict, grid_max):
    return BoundednessReport(
        verdict=verdict, method="grid", shape="generic", monomial_power=0,
        shape_constant=None, zero_report=None, grid_max=grid_max,
        boundary_tight=False, note="doctored",
    )


def test_certificate_check_trips_on_a_fake_certified_verdict():
    unbounded = RationalFunction(ComplexPolynomial([0.0, 2.0]), ComplexPolynomial([1.0]))
    item = workloads.CertifyItem("doctored", ("2z",), unbounded)
    assert not workloads.check_certificate(item, _report("certified", 0.5))
    assert workloads.check_certificate(item, _report("exceeds", 1.98))
    assert not workloads.check_certificate(item, _report("exceeds", 0.99))
    assert not workloads.check_certificate(item, ValueError("raised"))


def test_certificate_check_accepts_a_true_certificate():
    r = convo.even_mobius_convolution_dilatation(1.0 - 1e-6)
    item = workloads.CertifyItem("t2.3-quartic", (1.0 - 1e-6,), r)
    report = convo.certify_bounded(r)
    assert report.verdict == "certified"
    assert workloads.check_certificate(item, report)


def test_certify_scan_names_each_failing_item(monkeypatch, tmp_path):
    def fail(r):
        raise cpoly.NumericFailure("doctored")

    monkeypatch.setattr(convo, "certify_bounded", fail)
    items = workloads.CertifyScan().inputs(seed=3, index=0)[:2]
    result = workloads.CertifyScan().run_pass(items, tmp_path)
    assert (result.attempted, result.failed) == (2, 2)
    assert result.info["verdicts"] == {"NumericFailure": 2}
    assert [f["family"] for f in result.info["failures"]] == [i.family for i in items]
    assert result.info["failures"][0]["outcome"] == "NumericFailure: doctored"


def test_cli_check_counts_a_failing_exit_code(tmp_path):
    result = workloads.VerifyCli().run_pass([["verify", "no-such-case"]], tmp_path)
    assert (result.attempted, result.failed) == (1, 1)
    assert result.info["exit_codes"] == {"1": 1}


def test_tracer_wraps_every_lookup_site_and_restores_them(tmp_path):
    before = (series.PowerSeries.__call__, cpoly.roots, geochk.roots, convo.count_zeros_in_disk,
              harness.sweep_report, harness.image_curves, geochk.f_a_alpha)
    t = tracer.Tracer()
    with tracer.installed(t):
        code = harness.main(["explore", "oq1", "--a=0.5", f"--outdir={tmp_path}"])
    assert code == 0
    after = (series.PowerSeries.__call__, cpoly.roots, geochk.roots, convo.count_zeros_in_disk,
             harness.sweep_report, harness.image_curves, geochk.f_a_alpha)
    assert after == before
    metrics = tracer.layer_metrics(t.stats, 1)
    metrics["trace.overhead_s"] = 0.0
    assert measure.coverage_failures("verify-cli", metrics) == []
    assert metrics["geochk.ladder.rungs_per_row"] >= 1.0


def test_coverage_guard_flags_a_silent_layer_and_unexpected_work():
    metrics = dict.fromkeys((m["name"] for m in BENCH["per_layer"]), 1.0)
    bad = measure.coverage_failures("certify-scan", metrics)
    assert any(b.startswith("series.evaluate:") for b in bad)
    metrics["series.evaluate.calls"] = 0.0
    assert any("series.evaluate.calls is 0" in b for b in measure.coverage_failures("repro", metrics))
