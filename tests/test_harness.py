"""Command-line harness: argument parsing, config precedence, exit codes,
artifact schemas, and byte-identical reruns."""

import csv
import io
import json

import numpy as np
import pytest

from harmconv import harness
from harmconv.harness import (
    ConfigError,
    RunConfig,
    _glue_negative_values,
    _parse_range,
    _parse_values,
    main,
)


class TestParseRange:
    def test_inclusive_endpoints(self):
        assert _parse_range("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_negative_lo(self):
        vals = _parse_range("-0.9:0.9:0.1")
        assert len(vals) == 19
        assert vals[0] == -0.9 and vals[-1] == 0.9

    def test_step_not_dividing_span_floors(self):
        assert _parse_range("0:1:0.3") == [0.0, 0.3, 0.6, 0.9]

    def test_single_point(self):
        assert _parse_range("0.5:0.5:0.1") == [0.5]

    @pytest.mark.parametrize("text", ["1:2", "a:b:c", "0:1:0", "0:1:-0.1", "1:0:0.1"])
    def test_malformed_ranges_rejected(self, text):
        with pytest.raises(ConfigError):
            _parse_range(text)

    def test_values_list(self):
        assert _parse_values("0.1,0.5,-0.3") == [0.1, 0.5, -0.3]
        with pytest.raises(ConfigError):
            _parse_values("0.1,zebra")


class TestGlueNegativeValues:
    def test_negative_range_value_is_glued(self):
        assert _glue_negative_values(["--a-range", "-0.9:0.9:0.1"]) == [
            "--a-range=-0.9:0.9:0.1"
        ]

    def test_plain_negative_number_left_alone(self):
        assert _glue_negative_values(["--a", "-0.5"]) == ["--a", "-0.5"]

    def test_comma_list_is_glued(self):
        assert _glue_negative_values(["--alpha1", "-0.5,0.5"]) == [
            "--alpha1=-0.5,0.5"
        ]

    def test_other_tokens_untouched(self):
        argv = ["verify", "t2.5", "--order", "64"]
        assert _glue_negative_values(argv) == argv


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(case="t2.5")
        assert cfg.order == 128
        assert cfg.formats == ("json", "csv", "svg")
        cfg.grid()  # default grid is valid

    @pytest.mark.parametrize("order", [15, 513])
    def test_order_bounds(self, order):
        with pytest.raises(ConfigError, match="order"):
            RunConfig(case="t2.5", order=order)

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            RunConfig(case="t2.5", formats=("json", "pdf"))

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigError, match="case id"):
            RunConfig(case="t9.1")

    def test_bad_grid_surfaces_as_config_error(self):
        cfg = RunConfig(case="t2.5", radii=(0.9, 0.5))
        with pytest.raises(ConfigError):
            cfg.grid()

    def test_certificate_scans_the_configured_grid(self, tmp_path):
        # t2.5's dilatation is z^2, so its maximum over the rings 0.1 and
        # 0.5 is 0.25; a scan of the default rings would read 0.99^2
        cfg = RunConfig(
            case="t2.5", params={"a": [0.5]}, radii=(0.1, 0.5),
            outdir=str(tmp_path), formats=("json",),
        )
        assert harness.run(cfg) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["radii"] == [0.1, 0.5]
        assert abs(report["rows"][0]["metrics"]["max_omega"] - 0.25) <= 1e-12


class TestMainExitCodes:
    def test_verify_pass_is_zero(self, tmp_path):
        code = main(
            ["verify", "t2.5", "--a", "0.5", "--outdir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "samples.csv").exists()
        assert (tmp_path / "t2.5.svg").exists()

    def test_failing_row_is_two(self, tmp_path, monkeypatch):
        def fake(case, params, *, order, grid):
            return [{"case": case, "params": {}, "verdict": "fail",
                     "metrics": {}, "note": ""}]

        monkeypatch.setattr(harness, "sweep_report", fake)
        code = main(
            ["verify", "t2.5", "--formats", "json", "--outdir", str(tmp_path)]
        )
        assert code == 2

    def test_indeterminate_row_is_three(self, tmp_path, monkeypatch):
        def fake(case, params, *, order, grid):
            return [{"case": case, "params": {}, "verdict": "indeterminate",
                     "metrics": {}, "note": ""}]

        monkeypatch.setattr(harness, "sweep_report", fake)
        code = main(
            ["verify", "t2.5", "--formats", "json", "--outdir", str(tmp_path)]
        )
        assert code == 3

    def test_unknown_case_is_one(self, capsys):
        assert main(["verify", "t9.9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_case_is_one(self, capsys):
        assert main(["verify"]) == 1
        assert "no case id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "t2.3", "--bogus", "1"],
            ["verify", "t2.3", "--a", "0.5", "--order", "abc"],
            [],
        ],
    )
    def test_malformed_command_line_is_one(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0

    def test_conflicting_param_styles_is_one(self, capsys):
        code = main(["verify", "t2.5", "--a", "0.5", "--a-range", "0:1:0.5"])
        assert code == 1
        assert "not both" in capsys.readouterr().err

    def test_out_of_domain_value_is_one(self, tmp_path, capsys):
        code = main(["verify", "t2.5", "--a", "1.5", "--outdir", str(tmp_path)])
        assert code == 1

    def test_unwritable_outdir_is_four(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(
            ["verify", "t2.5", "--a", "0.5", "--outdir", str(blocker / "sub")]
        )
        assert code == 4

    def test_plot_returns_zero_and_skips_report(self, tmp_path):
        code = main(["plot", "t2.5", "--a", "0.5", "--outdir", str(tmp_path)])
        assert code == 0
        assert not (tmp_path / "report.json").exists()
        assert (tmp_path / "t2.5.svg").exists()


class TestIntegerAxes:
    @pytest.mark.parametrize(
        "case, option, value",
        [
            ("t2.2", "n", "2.5"),
            ("t3.10", "variant", "1.7"),
            ("t2.2", "n", "inf"),
            ("t2.2", "n", "nan"),
            ("t3.9", "n", "0"),
        ],
    )
    def test_non_integer_is_one(self, case, option, value, tmp_path, capsys):
        code = main(["verify", case, f"--{option}", value, "--outdir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{option} must be a positive integer, got {float(value)}" in err
        assert not (tmp_path / "report.json").exists()

    def test_integral_float_runs_as_int(self, tmp_path):
        code = main(
            ["verify", "t2.2", "--n", "2", "--a", "0.5", "--formats", "json",
             "--outdir", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [r["params"]["n"] for r in report["rows"]] == [2]


class TestRootOracleFailure:
    def test_clustered_zeros_are_indeterminate(self, tmp_path, capsys):
        # the t2.4 quartic has three zeros clustered at z = 1 here, and the
        # root oracle cannot resolve them
        code = main(
            ["verify", "t2.4", "--a", "0.9999996764456546", "--formats", "json",
             "--outdir", str(tmp_path)]
        )
        assert code == 3
        (row,) = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert row["verdict"] == "indeterminate"
        assert "dilatation indeterminate (grid)" in row["note"]
        assert capsys.readouterr().err == ""


class TestConfigFile:
    def test_config_file_supplies_case_and_params(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "t2.5", "params": {"a": [0.5]},
                                   "order": 64, "outdir": str(tmp_path)}))
        assert main(["verify", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["order"] == 64

    def test_cli_params_override_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "t2.5", "params": {"a": [0.1]}}))
        code = main(
            ["verify", "--config", str(cfg), "--a", "0.7",
             "--outdir", str(tmp_path), "--formats", "json"]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["params"]["a"] == [0.7]

    def test_unknown_file_key_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "t2.5", "tolerance": 1e-9}))
        assert main(["verify", "--config", str(cfg)]) == 1
        assert "tolerance" in capsys.readouterr().err

    def test_invalid_json_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert main(["verify", "--config", str(cfg)]) == 1


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    code = main(
        ["verify", "t2.5", "--a", "0.3,0.6", "--order", "64",
         "--outdir", str(out)]
    )
    assert code == 0
    return out


class TestArtifacts:
    def test_report_schema(self, artifact_dir):
        report = json.loads((artifact_dir / "report.json").read_text())
        assert set(report) == {"case", "config", "note", "rows"}
        assert report["case"] == "t2.5"
        assert set(report["config"]) == {"order", "radii", "angles_per_ring", "params"}
        assert "verdicts: pass=2" in report["note"]
        for row in report["rows"]:
            assert set(row) == {"case", "params", "verdict", "metrics", "note"}
            assert set(row["metrics"]) == {"max_omega", "min_hs", "roots"}

    def test_samples_schema(self, artifact_dir):
        with (artifact_dir / "samples.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["param-id", "t-index", "re", "im"]
        body = rows[1:]
        assert len(body) == 2 * 512
        assert {r[0] for r in body} == {"a=0.3", "a=0.6"}
        float(body[0][2]), float(body[0][3])  # numeric columns parse

    def test_samples_bytes_match_row_by_row_csv_writer(self, tmp_path):
        curves = [
            ("a=0.5,n=2", np.array([0.25 - 1e-7j, -0.0 + 3j, 1e-20 + 12345.678j])),
            ('quote"d', np.array([np.pi + 0j])),
            ("", np.array([-1.5 - 0j])),
        ]
        path = tmp_path / "samples.csv"
        harness._write_samples(curves, path)
        expect = io.StringIO(newline="")
        writer = csv.writer(expect)
        writer.writerow(["param-id", "t-index", "re", "im"])
        for param_id, curve in curves:
            for k, z in enumerate(curve):
                writer.writerow([param_id, k, f"{z.real:.15g}", f"{z.imag:.15g}"])
        assert path.read_bytes() == expect.getvalue().encode()

    def test_svg_shape(self, artifact_dir):
        svg = (artifact_dir / "t2.5.svg").read_text()
        assert svg.startswith("<svg ")
        assert 'viewBox="0 0 1000 1000"' in svg
        assert svg.count("<polygon") == 2
        assert "<title>a=0.3</title>" in svg

    def test_rerun_is_byte_identical(self, artifact_dir, tmp_path):
        code = main(
            ["verify", "t2.5", "--a", "0.3,0.6", "--order", "64",
             "--outdir", str(tmp_path)]
        )
        assert code == 0
        for name in ("report.json", "samples.csv", "t2.5.svg"):
            assert (tmp_path / name).read_bytes() == (
                artifact_dir / name
            ).read_bytes()

