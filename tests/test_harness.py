"""Command-line harness: argument parsing, exit codes, artifact schemas,
and byte-identical reruns."""

import csv
import io
import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from harmconv import convo, cpoly, geochk, harness
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
        # the sampled check withholds and decides nothing, so the row still
        # passes; the image curves draw the sweep's map, so the one build is
        # at IMAGE_CURVE_ORDER, which the report records with the default grid
        built = []
        f_a_alpha = geochk.f_a_alpha

        def counting(a, alpha, N):
            built.append(N)
            return f_a_alpha(a, alpha, N)

        monkeypatch.setattr(geochk, "f_a_alpha", counting)
        monkeypatch.setattr(
            geochk, "convex_in_direction", lambda *args, **kw: geochk.ConvexityReport(note="stub")
        )
        cfg = RunConfig(case="t2.5", params={"a": [0.5]}, outdir=str(tmp_path))
        assert harness.run(cfg) == 0
        assert built == [128]
        config = json.loads((tmp_path / "report.json").read_text())["config"]
        assert config == {
            "order": 128,
            "radii": list(convo.DEFAULT_RADII),
            "angles_per_ring": convo.ANGLES_PER_RING,
            "params": {"a": [0.5]},
        }

    def test_array_params_write_the_list_runs_report(self, tmp_path):
        reports = []
        for name, values in (("list", [0.5, 0.6]), ("array", np.array([0.5, 0.6]))):
            cfg = RunConfig("t2.3", {"a": values}, str(tmp_path / name), ("json",))
            assert harness.run(cfg) == 0
            reports.append((tmp_path / name / "report.json").read_bytes())
        assert reports[1] == reports[0]

    def test_numpy_scalar_param_runs_as_its_float(self, tmp_path):
        # the suite turns numpy's RuntimeWarnings into errors, so a float32
        # compared against the float range would fail here
        assert harness.run(RunConfig("t2.3", {"a": np.float32(0.5)}, str(tmp_path), ("json",))) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["params"] == {"a": 0.5}
        assert [row["params"] for row in report["rows"]] == [{"a": 0.5}]

    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), float("inf"), np.float64("nan"), np.array(0.5)],
        ids=["huge-int", "huge-negative-int", "inf", "nan", "0-d-array"],
    )
    def test_no_finite_float_is_a_config_error(self, value, tmp_path):
        with pytest.raises(ConfigError, match="a must be a finite number"):
            harness.run(RunConfig("t2.3", {"a": value}, str(tmp_path), ("json",)))
        assert not (tmp_path / "report.json").exists()


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
        def fake(case, params, curve_maps=None):
            return [{"case": case, "params": {}, "verdict": "fail",
                     "metrics": {}, "note": ""}]

        monkeypatch.setattr(harness, "sweep_report", fake)
        code = main(
            ["verify", "t2.5", "--formats", "json", "--outdir", str(tmp_path)]
        )
        assert code == 2

    def test_indeterminate_row_is_three(self, tmp_path, monkeypatch):
        def fake(case, params, curve_maps=None):
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
            # an empty item in a value list or a format list
            ["verify", "t2.5", "--a", "0.5,,0.6", "--formats", "json"],
            ["verify", "t2.5", "--a", "0.5", "--formats", "json,,csv"],
            # b outside (-1, 1); half of a paired axis
            ["explore", "oq1", "--b", "1.5", "--a", "0.5"],
            ["explore", "oq2", "--b=-1"],
            ["verify", "t3.11", "--alpha2", "0.1"],
            ["verify", "t3.10", "--variant", "1", "--alpha1=-0.5"],
            # an option given twice: its last value must not silently win
            ["verify", "t2.3", "--a", "0.5", "--a", "0.6", "--formats", "json",
             "--outdir", "DIR"],
            ["verify", "t2.3", "--a", "0.5", "--formats", "json", "--formats", "csv"],
            ["verify", "t2.3", "--a", "0.5", "--outdir", "x1", "--outdir", "x2"],
            # a point given twice, listed or through a range's rounding
            ["verify", "t2.3", "--a", "0.5,0.5", "--formats", "json"],
            ["verify", "t2.3", "--a", "0.5:0.50000000004:1e-11", "--formats", "json"],
            # alpha outside (-2, 2), or not a number
            ["verify", "t3.9", "--alpha1=-2", "--alpha2", "0.5"],
            ["verify", "t3.8", "--alpha", "2.5"],
            ["verify", "t3.9", "--alpha1", "nan", "--alpha2", "0.5"],
            # an angle whose phase e^{2i gamma} or e^{2i theta} overflows
            ["verify", "t2.2", "--gamma=-1e308", "--n", "1", "--a", "0.5"],
            ["verify", "t2.2", "--theta", "1e308"],
            # paired columns of unequal lengths: a one-value half is not repeated
            ["verify", "t3.9", "--n", "1", "--alpha1=-0.5,-0.4", "--alpha2", "0.5"],
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

    def test_help_shows_every_claim(self):
        epilog = harness._build_parser().epilog
        for spec in geochk.CASES.values():
            assert spec.blurb in epilog
            assert f"phi = {spec.claim.direction}" in epilog
            for c in spec.claim.hypothesis or ():
                assert f"needs {c.text}" + (f" when {c.when}" if c.when else "") in epilog
        assert epilog.count("asserts nothing") == 3  # oq1-oq3

    @pytest.mark.parametrize(
        "option, text, says",
        [
            ("--a", "0.5,,0.6", "value list '0.5,,0.6': item 2 is empty"),
            ("--a", "0.5,", "value list '0.5,': item 2 is empty"),
            ("--formats", "json,,csv", "format list 'json,,csv': item 2 is empty"),
            ("--formats", " ,json", "format list ' ,json': item 1 is empty"),
        ],
    )
    def test_empty_item_is_named(self, option, text, says, tmp_path, capsys):
        argv = ["verify", "t2.5", "--a", "0.5", "--formats", "json", "--outdir", str(tmp_path)]
        argv[argv.index(option) + 1] = text
        assert main(argv) == 1
        assert f"error: {says}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, says",
        [
            (["explore", "oq1", "--b", "1.5", "--a", "0.5"], "need -1 < b < 1, got b=1.5"),
            (["explore", "oq2", "--b=-1"], "need -1 < b < 1, got b=-1.0"),
            (["verify", "t3.11", "--alpha2", "0.1"],
             "alpha1 is missing: alpha1 and alpha2 are set together"),
            (["verify", "t3.10", "--variant", "1", "--alpha1=-0.5"],
             "alpha2 is missing: alpha1 and alpha2 are set together"),
            (["verify", "t2.3", "--a", "0.5", "--a", "0.6"], "option --a given more than once"),
            (["verify", "t2.3", "--a=0.5", "--formats", "json", "--formats", "csv"],
             "option --formats given more than once"),
            # the test's own --outdir comes second
            (["verify", "t2.3", "--a", "0.5", "--outdir", "x1"],
             "option --outdir given more than once"),
            (["verify", "t2.3", "--a", "0.5,0.5"],
             "the sweep holds the point a=0.5 more than once"),
            (["verify", "t2.3", "--a", "0.5:0.50000000004:1e-11"],
             "the sweep holds the point a=0.5 more than once"),
            # distinct values, one curve label: the label names the point
            (["verify", "t2.3", "--a", "0.5,0.50000000001"],
             "the sweep holds the point a=0.5 more than once"),
            (["verify", "t3.9", "--alpha1=-0.5,-0.50000000001", "--alpha2", "0.5,0.5", "--t", "0"],
             "the sweep holds the point alpha1=-0.5,alpha2=0.5,n=1,t=0 more than once"),
            (["verify", "t3.9", "--alpha1=-2", "--alpha2", "0.5"],
             "need -2 < alpha1 < 2, got alpha1=-2.0"),
            (["verify", "t3.8", "--alpha", "2.5"], "need -2 < alpha < 2, got alpha=2.5"),
            (["verify", "t3.9", "--alpha1", "nan", "--alpha2", "0.5"],
             "need -2 < alpha1 < 2, got alpha1=nan"),
            (["verify", "t3.10", "--alpha1", "0.5", "--alpha2", "2"],
             "need -2 < alpha2 < 2, got alpha2=2.0"),
            (["verify", "t2.2", "--gamma=-1e308", "--n", "1", "--a", "0.5"],
             "gamma=-1e+308 is too large an angle: e^{2i gamma} is not finite"),
            (["verify", "t2.2", "--theta", "1e308"],
             "theta=1e+308 is too large an angle: e^{2i theta} is not finite"),
        ],
        ids=["b-above-1", "b-at-minus-1", "lone-alpha2", "lone-alpha1", "repeated-a",
             "repeated-formats", "repeated-outdir", "repeated-point", "range-repeats-a-point",
             "points-share-a-label", "family-points-share-a-label",
             "alpha1-at-minus-2", "alpha-above-2", "alpha1-nan", "alpha2-at-2",
             "gamma-overflows", "theta-overflows"],
    )
    def test_error_names_the_parameter_set(self, argv, says, capsys, tmp_path):
        assert main(argv + ["--outdir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {says}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, opening",
        [
            (["t3.9", "--n", "1", "--alpha1=-1.2", "--alpha2", "0.5", "--t", "0.5"],
             "|alpha1| past the family bound; "),
            (["t2.4", "--a=-0.5"], "a <= 0, below the claimed range; "),
        ],
        ids=["t3.9-past-the-family-bound", "t2.4-below-its-range"],
    )
    def test_past_a_hypothesis_edge_is_exploratory(self, argv, opening, tmp_path):
        code = main(["verify", *argv, "--formats", "json", "--outdir", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert rows and all(r["verdict"] == "exploratory" for r in rows)
        assert all(r["note"].startswith(opening) for r in rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "t2.2", "--gamma", "8e307", "--n", "1", "--a", "0.5"],
            # oq1 forms only e^{i theta}, finite for every float theta
            ["explore", "oq1", "--theta", "1e308"],
        ],
        ids=["t2.2-gamma-below-the-overflow", "oq1-theta-1e308"],
    )
    def test_large_angle_with_finite_phases_runs(self, argv, tmp_path):
        assert main(argv + ["--formats", "json", "--outdir", str(tmp_path)]) == 0

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

        case = geochk.Case(
            blurb="",
            axes=(geochk.Axis("x", range(50)), geochk.Axis("y", fifty)),
            build=None,
            point=None,
            claim=None,
        )
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
        # the float-built t2.4 quartic has a zero exactly at z = 1 here and
        # three more within 4.1e-7 inside the circle (mpmath, 50 digits);
        # the root oracle reads the cluster as one zero outside and none on
        # the circle, which the exact sum of the coefficients refutes, so the
        # row must stay indeterminate
        code = main(
            ["verify", "t2.4", "--a", "0.9999996764456546", "--formats", "json",
             "--outdir", str(tmp_path)]
        )
        assert code == 3
        (row,) = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert row["verdict"] == "indeterminate"
        assert row["note"] == (
            "assembled dilatation matches the reduced quartic form; "
            "dilatation indeterminate (grid); grid maximum 1 stays at or below 1 but "
            "proves nothing; zero count of the core failed: the coefficients sum to "
            "exactly 0 at z = 1, a zero on the circle that the root oracle does not "
            "place there; "
            "convexity phi=0: conditional on the dilatation (cayley-sum); "
            "sampled |z|=0.9: max 2 crossings"
        )
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "a, says",
        [
            # the chain ties and the oracle finds a zero outside
            ("0.99999845", "0 zero(s) on the circle, 1 outside; no structural cancellation"),
            # the float core's coefficients sum to exactly 0 at z = 1, where
            # the oracle puts no zero, so its count of 4 inside is false
            ("0.999998503764344", "zero count of the core failed: the coefficients sum "
             "to exactly 0 at z = 1"),
        ],
    )
    def test_an_uncounted_quartic_says_why(self, a, says, tmp_path):
        code = main(["verify", "t2.4", "--a", a, "--formats", "json", "--outdir", str(tmp_path)])
        assert code == 3
        (row,) = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert row["verdict"] == "indeterminate"
        assert f"dilatation indeterminate (grid); grid maximum 1 stays at or below 1 but " \
            f"proves nothing; {says}" in row["note"]

    def test_failed_zero_count_warns_nothing(self, tmp_path, monkeypatch):
        # the zero count of this row's core ends in the root oracle, and no
        # zero it finds meets a tolerance of 1e-30, so it raises
        # NumericFailure; numpy's warnings stay inside it, the row is
        # indeterminate (grid), and its note says why, as it says why roots
        # is null
        monkeypatch.setattr(cpoly, "ROOT_RESIDUAL_RTOL", 1e-30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["verify", "t2.2", "--n", "64", "--a", "0.95", "--formats", "json",
                         "--outdir", str(tmp_path)])
        assert code == 3
        (row,) = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert row["metrics"]["roots"] is None
        assert re.fullmatch(
            r"dilatation indeterminate \(grid\); grid maximum 0\.491522 stays at or below 1 "
            r"but proves nothing; zero count of the core failed: root residual \S+ exceeds "
            r"tolerance 1\.0e-30; convexity phi=-gamma=0: conditional on the dilatation "
            r"\(cayley-sum\); sampled \|z\|=0\.9: max 2 crossings; roots withheld: degree 65 > 24",
            row["note"],
        )

    def test_tied_degree_65_core_passes_on_its_zeros(self, tmp_path):
        code = main(["verify", "t2.2", "--n", "64", "--a", "0.95", "--formats", "json",
                     "--outdir", str(tmp_path)])
        assert code == 0
        (row,) = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert row["verdict"] == "pass"
        assert row["note"].startswith("dilatation certified (roots); ")


class TestPoleOnTheGrid:
    # each dilatation's denominator vanishes at a grid point (z = -0.8 for
    # the first), and the grid witnesses an excursion elsewhere
    @pytest.mark.parametrize(
        "argv, max_omega",
        [
            (["oq2", "--n", "2", "--a", "0.1", "--b=-0.5"], 19.29),
            (["oq1", "--n", "3", "--a=-0.5", "--b=-0.8"], 31.26),
            (["oq2", "--n", "3", "--a", "0", "--b=-0.5"], 12.38),
        ],
        ids=["oq2-n2", "oq1-n3", "oq2-n3"],
    )
    def test_excursion_is_exceeds(self, argv, max_omega, tmp_path):
        code = main(["explore", *argv, "--formats", "json", "--outdir", str(tmp_path)])
        assert code == 0
        (row,) = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert row["verdict"] == "exploratory"
        assert "dilatation exceeds (grid)" in row["note"]
        assert row["metrics"]["max_omega"] == pytest.approx(max_omega, abs=0.005)


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

    @pytest.mark.parametrize(
        "curves",
        [
            [
                ("a=0.5,n=2", np.array([0.25 - 1e-7j, -0.0 + 3j, 1e-20 + 12345.678j])),
                ('quote"d', np.array([np.pi + 0j])),
                ("", np.array([-1.5 - 0j])),
            ],
            # a param-id's % signs are not format directives
            [
                ("a=5%,b=%d", np.array([1.0 + 2j, 3.0 - 4j])),
                ('%s"%%,%', np.array([0.5 + 0j])),
                ("%(k)s", np.array([-0.25 + 0j])),
            ],
            [
                ("x", np.array([complex(np.nan, np.inf), complex(-np.inf, -0.0)])),
                ("y,%", np.array([complex(5e-324, 1e300), complex(-0.0, np.nan)])),
                ("z", np.array([complex(-5e-324, -1e300), complex(0.1, 1 / 3)])),
            ],
        ],
        ids=["plain", "percent", "non-finite-and-extreme"],
    )
    def test_samples_bytes_match_row_by_row_csv_writer(self, curves, tmp_path):
        path = tmp_path / "samples.csv"
        harness._write_samples(curves, path)
        expect = io.StringIO(newline="")
        writer = csv.writer(expect)
        writer.writerow(["param-id", "t-index", "re", "im"])
        for param_id, curve in curves:
            for k, z in enumerate(curve):
                writer.writerow([param_id, k, f"{z.real:.15g}", f"{z.imag:.15g}"])
        assert path.read_bytes() == expect.getvalue().encode()

    @pytest.mark.parametrize(
        "curves",
        [
            [
                ("a=0.3", np.exp(2j * np.pi * np.arange(7) / 7) * (1.0 + 0.3j)),
                ("a=0.6", np.array([-0.004 + 0.0049j, 0.0051 - 0.005j, 1e-300 + 0j])),
            ],
            [("far", np.array([1e300 + 0j, -1e300 - 1e300j, -0.0 + 5e-324j]))],
            [("flat", np.array([0.5 + 0.5j] * 3))],
        ],
        ids=["two-curves", "extreme", "one-point"],
    )
    def test_svg_polygons_are_the_per_point_format(self, curves, tmp_path):
        path = tmp_path / "c.svg"
        harness._write_svg("c", curves, path)
        pts = np.concatenate([c for _, c in curves])
        lo_x, hi_x = float(pts.real.min()), float(pts.real.max())
        lo_y, hi_y = float(pts.imag.min()), float(pts.imag.max())
        span = max(hi_x - lo_x, hi_y - lo_y, 1e-12)
        span = span + 2.0 * (0.05 * span)
        x0 = 0.5 * (lo_x + hi_x) - 0.5 * span
        y0 = 0.5 * (lo_y + hi_y) - 0.5 * span
        polygons = [line for line in path.read_text().splitlines() if "<polygon" in line]
        assert len(polygons) == len(curves)
        for line, (_, curve) in zip(polygons, curves):
            xs = (curve.real - x0) * (1000.0 / span)
            ys = 1000.0 - (curve.imag - y0) * (1000.0 / span)
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
            assert line.split('"')[1] == coords

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

