"""Command-line harness: argument parsing, exit codes, artifact schemas,
and byte-identical reruns."""

import csv
import io
import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

from harmconv import convo, geochk, harness
from harmconv.harness import (
    ConfigError,
    RunConfig,
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

    def test_value_count_is_bounded(self):
        most = geochk.MAX_SWEEP_POINTS
        assert len(_parse_range(f"1:{most}:1")) == most
        with pytest.raises(ConfigError, match=f"{most + 1} values; a sweep holds at most {most}"):
            _parse_range(f"0:{most}:1")
        for text in ("0:1e308:1e-300", "1e999:1e999:1"):
            with pytest.raises(ConfigError, match="a sweep holds at most"):
                _parse_range(text)


def _params(argv: list[str]) -> dict:
    """config.params for a verify call of t2.2 with these options."""
    args = harness._build_parser().parse_intermixed_args(["verify", "t2.2", *argv])
    return harness._config_from_args(args).params


class TestParamOptions:
    def test_one_option_per_parameter(self):
        options = [a for a in harness._build_parser()._actions if a.option_strings]
        assert len(options) == 13  # --help, one per parameter, --outdir, --formats

    @pytest.mark.parametrize("name", harness._PARAM_NAMES)
    def test_list_and_range_through_one_option(self, name):
        # the values --<name> and --<name>-range gave before the two merged
        assert _params([f"--{name}", "0.25,0.5"]) == {name: [0.25, 0.5]}
        assert _params([f"--{name}", "-0.5"]) == {name: [-0.5]}
        assert _params([f"--{name}=-0.5,0.25"]) == {name: [-0.5, 0.25]}
        assert _params([f"--{name}", "0:1:0.25"]) == {name: [0.0, 0.25, 0.5, 0.75, 1.0]}
        assert _params([f"--{name}=-0.9:0.9:0.1"]) == {name: _parse_range("-0.9:0.9:0.1")}

    @pytest.mark.parametrize("name", harness._PARAM_NAMES)
    def test_range_suffix_is_one(self, name, capsys):
        assert main(["verify", "t2.2", f"--{name}-range", "0:1:0.5"]) == 1
        assert f"unrecognized arguments: --{name}-range" in capsys.readouterr().err


class TestRunConfig:
    def test_defaults(self):
        assert [f.name for f in fields(RunConfig)] == ["case", "params", "outdir", "formats"]
        cfg = RunConfig(case=" T2.5 ")
        assert (cfg.case, cfg.params, cfg.outdir) == ("t2.5", {}, ".")
        assert cfg.formats == ("json", "csv", "svg")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            RunConfig(case="t2.5", formats=("json", "pdf"))

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigError, match="case id"):
            RunConfig(case="t9.1")

    def test_order_sets_only_the_image_curves(self, tmp_path, monkeypatch):
        # every rung withholds, so each is tried, and each builds at its own
        # order; only the image curves are built at IMAGE_CURVE_ORDER, which
        # the report records with the default grid
        built = []
        f_a_alpha = geochk.f_a_alpha

        def counting(a, alpha, N):
            built.append(N)
            return f_a_alpha(a, alpha, N)

        monkeypatch.setattr(geochk, "f_a_alpha", counting)
        monkeypatch.setattr(
            geochk, "convex_in_direction", lambda *args, **kw: geochk._withheld("stub")
        )
        cfg = RunConfig(case="t2.5", params={"a": [0.5]}, outdir=str(tmp_path))
        assert harness.run(cfg) == 3
        assert built == [384, 256, 1024, geochk.IMAGE_CURVE_ORDER]
        config = json.loads((tmp_path / "report.json").read_text())["config"]
        assert config == {
            "order": 128,
            "radii": list(convo.DEFAULT_RADII),
            "angles_per_ring": convo.DEFAULT_ANGLES_PER_RING,
            "params": {"a": [0.5]},
        }


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
        def fake(case, params):
            return [{"case": case, "params": {}, "verdict": "fail",
                     "metrics": {}, "note": ""}]

        monkeypatch.setattr(harness, "sweep_report", fake)
        code = main(
            ["verify", "t2.5", "--formats", "json", "--outdir", str(tmp_path)]
        )
        assert code == 2

    def test_indeterminate_row_is_three(self, tmp_path, monkeypatch):
        def fake(case, params):
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
            ["verify", "t2.5", "--a", "0.5", "--order", "64"],
            ["verify", "t2.5", "--a", "0.5", "-N", "64"],
            ["verify", "t2.5", "--config", "run.json"],
            [],
            # an option's prefix is not a second spelling of it
            ["verify", "t3.10", "--var", "2", "--n", "1", "--t", "0.5",
             "--formats", "json", "--out", "DIR"],
            # a format list that names no format, json for plot, an empty
            # directory name
            ["verify", "t2.5", "--a", "0.5", "--formats", ","],
            ["verify", "t2.5", "--a", "0.5", "--formats", ""],
            ["plot", "t2.5", "--a", "0.5", "--formats", "json"],
            ["verify", "t2.5", "--a", "0.5", "--formats", "json", "--outdir="],
        ],
    )
    def test_malformed_command_line_is_one(self, argv, capsys, tmp_path, monkeypatch):
        # a command line that did run would write into the working directory
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0

    def test_empty_value_list_is_one(self, tmp_path, capsys):
        code = main(["verify", "t2.3", "--a", ",", "--formats", "json",
                     "--outdir", str(tmp_path)])
        assert code == 1
        assert "error: a needs at least one value" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

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

    @pytest.mark.parametrize("case, n, most", [("t3.9", "40", 10), ("t2.2", "1000000000", 256)])
    def test_n_above_its_bound_is_one_before_building(
        self, case, n, most, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("an n above the bound must be refused before any build")

        monkeypatch.setattr(geochk, "_monomial", refuse)
        monkeypatch.setattr(convo, "monomial_convolution_dilatation", refuse)
        assert main(["verify", case, "--n", n, "--outdir", str(tmp_path)]) == 1
        assert f"error: n must be at most {most}, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestSweepBound:
    def test_huge_range_is_one_before_expanding(self, tmp_path, capsys):
        code = main(["verify", "t2.3", "--a", "0:0.9:1e-9", "--outdir", str(tmp_path)])
        assert code == 1
        most = geochk.MAX_SWEEP_POINTS
        assert (
            f"error: range '0:0.9:1e-9': it has 900000001 values; a sweep holds at most {most}"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "report.json").exists()

    def test_crossed_axes_stop_at_the_bound(self, monkeypatch):
        calls = []

        def fifty(point):
            calls.append(point)
            return range(50)

        case = geochk.Case("", (geochk.Axis("x", range(50)), geochk.Axis("y", fifty)), None, None)
        monkeypatch.setattr(geochk, "MAX_SWEEP_POINTS", 100)
        with pytest.raises(ValueError, match="more than 100 points"):
            case.points({})
        # 50 x 50 points, but the third x value already crosses past 100
        assert len(calls) == 3

    def test_crossed_sweep_above_the_bound_is_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(geochk, "MAX_SWEEP_POINTS", 100)  # t3.8 crosses to 180
        assert main(["verify", "t3.8", "--outdir", str(tmp_path)]) == 1
        assert "error: the sweep crosses to more than 100 points" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


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

    def test_overflowing_iteration_warns_nothing(self, tmp_path):
        # the zero count of this row's core ends in the root oracle, whose
        # iteration overflows and raises NumericFailure; numpy's warnings
        # stay inside it, so the row is indeterminate (grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["verify", "t2.2", "--n", "64", "--a", "0.95", "--formats", "json",
                         "--outdir", str(tmp_path)])
        assert code == 3
        (row,) = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert row["note"] == (
            "dilatation indeterminate (grid); convexity phi=-gamma=0: passed, max 2 crossings"
        )


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    code = main(
        ["verify", "t2.5", "--a", "0.3,0.6", "--outdir", str(out)]
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
            ["verify", "t2.5", "--a", "0.3,0.6", "--outdir", str(tmp_path)]
        )
        assert code == 0
        for name in ("report.json", "samples.csv", "t2.5.svg"):
            assert (tmp_path / name).read_bytes() == (
                artifact_dir / name
            ).read_bytes()

