"""Command-line interface: dispatch, formats, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heunic import DomainError, FMethod, coincidence, eval_F
from heunic.cli import TARGETS, ExitReport, _build_parser, _parse_grid, emit_table, run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    report = run(argv, out=out, err=err)
    return report, out.getvalue(), err.getvalue()


class TestEval:
    def test_established_route_value(self):
        report, out, _ = invoke(["eval", "--target", "F", "--n", "2",
                                 "--x", "0.5", "--method", "established"])
        assert report.code == 0
        assert out.strip() == "0.375"

    def test_heun_target(self):
        report, out, _ = invoke(["eval", "--target", "heun", "--a", "0.5",
                                 "--q", "-1", "--alpha", "-2", "--beta", "1",
                                 "--gamma", "1", "--delta", "1", "--x", "0.25"])
        assert report.code == 0
        assert float(out) == pytest.approx(0.625, abs=1e-14)

    def test_usage_error_for_missing_parameter(self):
        report, _, err = invoke(["eval", "--target", "F", "--x", "0.5"])
        assert report.code == 2
        assert "requires" in err

    def test_domain_error_maps_to_usage_exit(self):
        report, _, err = invoke(["eval", "--target", "F", "--n", "2",
                                 "--x", "7", "--method", "definitional"])
        assert report.code == 2
        assert err

    def test_nonconvergence_maps_to_numerical_exit(self):
        report, out, _ = invoke(["eval", "--target", "heun", "--a", "0.5",
                                 "--q", "0.3", "--alpha", "1.2", "--beta", "0.7",
                                 "--gamma", "1.3", "--delta", "0.8",
                                 "--x", "0.4", "--max-terms", "4"])
        assert report.code == 3
        assert out  # the best available value is still printed

    def test_unknown_flag_is_usage_error(self):
        report, _, _ = invoke(["eval", "--bogus", "1"])
        assert report.code == 2

    def test_method_invalid_for_target_is_usage_error(self):
        report, _, _ = invoke(["eval", "--target", "G", "--n", "2",
                               "--x", "0.5", "--method", "expanded"])
        assert report.code == 2

    def test_unit_argument_target_needs_no_x(self):
        report, out, _ = invoke(["eval", "--target", "3f2", "--a1", "0",
                                 "--a2", "1", "--a3", "1", "--b1", "1.5",
                                 "--b2", "2"])
        assert report.code == 0
        assert float(out) == 1.0


# one in-domain point per target at which every route converges
POINTS = {
    "heun": ["--a", "0.5", "--q", "-1", "--alpha", "-2", "--beta", "1",
             "--gamma", "1", "--delta", "1", "--x", "0.2"],
    "confluent": ["--p", "0.5", "--gamma", "1", "--delta", "1", "--alpha", "0.5",
                  "--sigma", "1", "--x", "0.2"],
    "F": ["--n", "5", "--x", "0.2"],
    "G": ["--n", "5", "--x", "0.2"],
    "K": ["--n", "5", "--x", "0.2"],
    "Kderiv": ["--n", "3", "--j", "2", "--x", "0.2"],
    "2f1": ["--a", "0.5", "--b", "1", "--c", "1.5", "--x", "0.2"],
    "3f2": ["--a1", "0.5", "--a2", "1", "--a3", "1", "--b1", "1.5", "--b2", "3"],
    "hl-hyp": ["--q", "0.7", "--x", "0.2"],
    "family-neg": ["--n", "5", "--theta", "0.3", "--gamma", "1.5", "--x", "0.2"],
    "family-pos": ["--n", "5", "--theta", "0.3", "--gamma", "2", "--x", "0.2"],
    "sample-family": ["--n", "4", "--i", "2", "--x", "0.2"],
}


class TestTargetTable:
    @pytest.mark.parametrize("target", TARGETS)
    def test_no_parameters_names_exactly_the_required_flags(self, target):
        report, out, err = invoke(["eval", "--target", target])
        assert report.code == 2
        assert out == ""
        assert re.findall(r"--[\w-]+", err) == [f"--{f}" for f in TARGETS[target].flags]

    @pytest.mark.parametrize("target, route", [
        (target, route) for target in TARGETS for route in TARGETS[target].routes])
    def test_every_route_evaluates(self, target, route):
        report, out, _ = invoke(["eval", "--target", target, *POINTS[target],
                                 "--method", route])
        assert report.code == 0
        assert math.isfinite(float(out))

    @pytest.mark.parametrize("target", TARGETS)
    def test_method_outside_the_routes_is_usage_error(self, target):
        report, out, err = invoke(["eval", "--target", target, *POINTS[target],
                                   "--method", "bogus"])
        assert report.code == 2
        assert out == ""
        assert "bogus" in err

    def test_default_route_is_the_table_default(self):
        _, plain, _ = invoke(["eval", "--target", "K", *POINTS["K"]])
        _, chosen, _ = invoke(["eval", "--target", "K", *POINTS["K"],
                               "--method", TARGETS["K"].default])
        assert plain == chosen


    def test_readme_lists_the_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        for name, target in TARGETS.items():
            default = target.default or next(iter(target.routes))
            routes = [default, *(r for r in target.routes if r != default)]
            row = re.search(rf"^\| `{re.escape(name)}` \|(.*)\|(.*)\|$", readme, re.M)
            assert re.findall(r"--\w+", row[1]) == [f"--{f}" for f in target.flags]
            assert re.findall(r"`([\w-]+)`", row[2]) == routes


class TestRobustness:
    def test_arithmetic_error_is_numerical_exit(self, monkeypatch):
        def overflow(*args):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(coincidence, "_mode_sum", overflow)
        report, out, err = invoke(["eval", "--target", "F", "--n", "2000",
                                   "--x", "0.3", "--method", "definitional"])
        assert report.code == 3
        assert out == ""
        assert err.startswith("numerical failure")

    def test_large_order_definitional_route(self):
        report, out, err = invoke(["eval", "--target", "F", "--n", "2000",
                                   "--x", "0.3", "--method", "definitional"])
        assert report.code == 0
        assert err == ""
        assert abs(float(out) - eval_F(2000, 0.3).value) <= 1e-14
        assert float(out) == eval_F(2000, 0.3, FMethod.DEFINITIONAL).value

    def test_integer_beyond_float_range_is_usage_error(self):
        report, out, err = invoke(["eval", "--target", "K", "--n", "1" + "0" * 330,
                                   "--method", "confluent-series", "--x", "0.3"])
        assert report.code == 2
        assert out == ""
        assert "too large" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--target", "K"],
        ["eval", "--target", "K", "--method", "quadrature"],
        ["eval", "--target", "F", "--method", "definitional"],
        ["eval", "--target", "G", "--method", "definitional"],
        ["eval", "--target", "Kderiv", "--j", "1"],
    ], ids=lambda argv: "-".join(argv[2:]))
    def test_order_beyond_float_range_is_usage_error(self, argv):
        report, out, err = invoke([*argv, "--n", "1" + "0" * 330, "--x", "0.3"])
        assert report.code == 2
        assert out == ""
        assert "too large" in err

    @pytest.mark.parametrize("target", ["F", "G"])
    def test_closed_form_beyond_float_range_is_usage_error(self, target):
        # in a subprocess: an unchecked closed form at this n would not finish
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ["eval", "--target", target, "--n", "1" + "0" * 330, "--x", "0.3"]
        proc = subprocess.run([sys.executable, "-m", "heunic.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "too large" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["--target", "F", "--n", "100000000", "--x", "0.3"],
        ["--target", "F", "--n", "100000000", "--x", "0.3", "--method", "factored"],
        ["--target", "G", "--n", "100000000", "--x", "0.3"],
        ["--target", "F", "--n", "1000", "--x", "0.3", "--method", "power"],
    ], ids=lambda argv: "-".join(argv[1::2]))
    def test_closed_form_past_its_budget_is_usage_error(self, argv):
        # in a subprocess: an unbudgeted closed form here runs for seconds to hours
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "heunic.cli", "eval", *argv],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--method definitional" in proc.stderr
        start = time.perf_counter()
        assert invoke(["eval", *argv])[0].code == 2
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        ["table", "--target", "confluent", "--p", "-1000", "--gamma", "1", "--delta", "1",
         "--alpha", "1", "--sigma", "1", "--grid", "-0.95:0.95:0.05"],
        ["eval", "--target", "confluent", "--p", "1e200", "--gamma", "1", "--delta", "1",
         "--alpha", "1", "--sigma", "2e200", "--x", "-0.5"],
        ["eval", "--target", "heun", "--a", "0.5", "--q", "1", "--alpha", "400",
         "--beta", "400", "--gamma", "1", "--delta", "1", "--x", "0.49"],
    ], ids=["confluent-table", "confluent-eval", "heun-eval"])
    def test_overflowing_rescue_prefactor_keeps_the_direct_sum(self, argv):
        report, out, err = invoke(argv)
        assert out != ""
        assert "numerical failure" not in err
        if argv[0] == "table":
            assert len(out.splitlines()) == 1 + 39

    def test_max_terms_cap_is_usage_error(self):
        argv = ["eval", "--target", "K", "--n", "3", "--x", "0.3", "--max-terms"]
        report, out, err = invoke([*argv, "1000001"])
        assert report.code == 2
        assert out == ""
        assert "--max-terms" in err
        assert invoke([*argv, "1000000"])[0].code == 0

    @pytest.mark.parametrize("argv", [
        ["eval", "--target", "heun", *POINTS["heun"][:-1], "nan"],
        ["eval", "--target", "Kderiv", "--n", "3", "--j", "2", "--x", "nan"],
        ["eval", "--target", "K", "--n", "1", "--x", "inf"],
        ["eval", "--target", "2f1", "--a", "-inf", "--b", "1", "--c", "1.5",
         "--x", "0.2"],
        ["eval", "--target", "F", "--n", "2", "--x", "0.5", "--rel-tol", "nan"],
        ["table", "--target", "K", "--n", "1", "--grid", "0:inf:1"],
        ["table", "--target", "K", "--n", "1", "--grid", "0.1,nan"],
        ["crosscheck", "--target", "F", "--n", "3", "--grid", "0:1:0.5",
         "--tol", "nan"],
        ["verify", "--max-n", "2", "--trials", "2", "--tol", "inf"],
    ])
    def test_non_finite_input_is_usage_error(self, argv):
        report, out, _ = invoke(argv)
        assert report.code == 2
        assert out == ""

    def test_family_pos_rejects_non_integral_gamma(self):
        argv = ["eval", "--target", "family-pos", "--n", "5", "--theta", "0.3",
                "--x", "0.2", "--gamma"]
        report, out, err = invoke([*argv, "2.5"])
        assert report.code == 2
        assert out == ""
        assert "gamma" in err
        report, out, _ = invoke([*argv, "2"])
        assert report.code == 0
        assert out == "3.5682273467580981\n"


class TestEntropy:
    def test_renyi_from_index(self):
        report, out, _ = invoke(["entropy", "--target", "F", "--n", "2",
                                 "--x", "0.5", "--kind", "renyi"])
        assert report.code == 0
        assert float(out) == pytest.approx(0.9808292530117262, rel=1e-15)

    def test_tsallis_from_index(self):
        report, out, _ = invoke(["entropy", "--target", "K", "--n", "1",
                                 "--x", "0.0", "--kind", "tsallis"])
        assert report.code == 0
        assert float(out) == 0.0


class TestTable:
    def test_grid_row_count_csv(self):
        report, out, _ = invoke(["table", "--target", "K", "--n", "1",
                                 "--grid", "0:1:0.1", "--output", "csv"])
        assert report.code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value,error_estimate,method"
        assert len(lines) == 12  # header + 11 points

    def test_json_output_parses(self):
        report, out, _ = invoke(["table", "--target", "F", "--n", "2",
                                 "--grid", "0:1:0.5", "--output", "json"])
        assert report.code == 0
        rows = json.loads(out)
        assert [r["x"] for r in rows] == [0.0, 0.5, 1.0]
        assert rows[1]["value"] == pytest.approx(0.375)

    def test_file_sink(self, tmp_path):
        path = tmp_path / "rows.csv"
        report, out, _ = invoke(["table", "--target", "G", "--n", "1",
                                 "--grid", "0:2:1", "--output", "csv",
                                 "--path", str(path)])
        assert report.code == 0
        assert out == ""
        assert len(path.read_text().strip().splitlines()) == 4

    def test_point_list_grid(self):
        report, out, _ = invoke(["table", "--target", "F", "--n", "1",
                                 "--grid", "0.1,0.25,0.9", "--output", "json"])
        assert report.code == 0
        assert [r["x"] for r in json.loads(out)] == [0.1, 0.25, 0.9]

    @pytest.mark.parametrize("grid", ["-0.5:0.5:0.5", "-0.25,0.25"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_grid_start(self, grid, fmt):
        argv = ["table", "--target", "confluent", "--p", "1", "--gamma", "1.5",
                "--delta", "0", "--alpha", "0.5", "--sigma", "2", "--output", fmt]
        spaced = invoke([*argv, "--grid", grid])
        joined = invoke([*argv, f"--grid={grid}"])
        assert spaced[0].code == joined[0].code == 0
        assert spaced[1:] == joined[1:]
        assert spaced[1].count("-0.") >= 1

    @pytest.mark.parametrize("command", ["table", "crosscheck"])
    def test_grid_point_cap_is_usage_error(self, command):
        # 0:1:1e-6 asks for 1 000 001 points
        report, out, err = invoke([command, "--target", "F", "--n", "3",
                                   "--grid", "0:1:1e-6"])
        assert report.code == 2
        assert out == ""
        assert "100000 points" in err

    def test_grid_point_cap_boundary(self):
        assert len(_parse_grid("0:0.99999:1e-5")) == 100_000
        with pytest.raises(DomainError, match="100000 points"):
            _parse_grid("0:1:1e-5")
        with pytest.raises(DomainError, match="100000 points"):
            _parse_grid("0:1:1e-300")

    def test_definitional_F_reports_its_estimate(self):
        grid = "0.3,0.7,0.123,0.5,0.9"
        report, out, _ = invoke(["table", "--target", "F", "--n", "50",
                                 "--grid", grid, "--method", "definitional"])
        assert report.code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        for row in rows:
            estimate = float(row["error_estimate"])
            exact = eval_F(50, float(row["x"]), FMethod.ESTABLISHED).value
            assert estimate > 0.0
            assert abs(float(row["value"]) - exact) <= estimate

    def test_bad_grid_is_usage_error(self):
        report, _, _ = invoke(["table", "--target", "K", "--n", "1",
                               "--grid", "0:1:-0.1"])
        assert report.code == 2
        report, _, _ = invoke(["table", "--target", "K", "--n", "1",
                               "--grid", "a,b"])
        assert report.code == 2

    @pytest.mark.parametrize("command", ["table", "crosscheck"])
    @pytest.mark.parametrize("grid", ["", ",", " , "])
    def test_empty_grid_is_usage_error(self, command, grid):
        argv = [command, "--target", "F", "--n", "3", "--grid", grid]
        if command == "crosscheck":
            argv += ["--tol", "1e-9"]
        report, out, err = invoke(argv)
        assert report.code == 2
        assert out == ""
        assert "no point" in err


class TestEmitTable:
    def test_empty_rows_still_emit_header(self):
        sink = io.StringIO()
        assert emit_table([], "csv", sink) == 0
        assert sink.getvalue() == "x,value,error_estimate,method\n"

    def test_csv_round_trip_is_bit_exact(self):
        rows = [{"x": 0.1, "value": 0.8269385516343293,
                 "error_estimate": 1.2345678901234567e-16, "method": "definitional"},
                {"x": 2 / 3, "value": -1.0000000000000002e-10,
                 "error_estimate": 0.0, "method": "series"}]
        sink = io.StringIO()
        assert emit_table(rows, "csv", sink) == 2
        parsed = list(csv.DictReader(io.StringIO(sink.getvalue())))
        for original, echoed in zip(rows, parsed):
            for key in ("x", "value", "error_estimate"):
                assert float(echoed[key]) == original[key]
            assert echoed["method"] == original["method"]

    def test_json_round_trip_is_bit_exact(self):
        rows = [{"x": 0.1, "value": 1 / 3, "error_estimate": 5e-324,
                 "method": "m"}]
        sink = io.StringIO()
        assert emit_table(rows, "json", sink) == 1
        assert json.loads(sink.getvalue()) == rows


class TestCrosscheck:
    def test_reports_max_discrepancy(self):
        report, out, _ = invoke(["crosscheck", "--target", "F", "--n", "3",
                                 "--grid", "0:1:0.1"])
        assert report.code == 0
        assert "max discrepancy" in out

    def test_tolerance_gate(self):
        report, _, _ = invoke(["crosscheck", "--target", "G", "--n", "2",
                               "--grid", "0:1:0.5", "--tol", "1e-9"])
        assert report.code == 0
        # the series route for K needs |x| < 1, so stay inside that disk
        report, _, _ = invoke(["crosscheck", "--target", "K", "--n", "2",
                               "--grid", "0:0.9:0.45", "--tol", "1e-18"])
        assert report.code == 1

    @pytest.mark.parametrize("tol", [[], ["--tol", "1e-30"]])
    def test_unconverged_route_is_numerical_exit(self, tol):
        report, out, _ = invoke(["crosscheck", "--target", "G", "--n", "40",
                                 "--grid", "0.9", "--max-terms", "4", *tol])
        assert report.code == 3  # before the --tol gate
        lines = out.splitlines()
        assert lines[0] == "target G n=40 routes=definitional,factored,power,established"
        assert lines[1].startswith("max discrepancy ")
        assert len(lines) == 2

    @pytest.mark.parametrize("tol", ["-1", "-0.5"])
    def test_negative_tolerance_is_usage_error(self, tol):
        report, out, err = invoke(["crosscheck", "--target", "F", "--n", "10",
                                   "--grid", "0.5", "--tol", tol])
        assert (report.code, out, err) == (2, "", "error: --tol must be nonnegative\n")

    def test_zero_tolerance_is_accepted(self):
        report, out, _ = invoke(["crosscheck", "--target", "G", "--n", "2",
                                 "--grid", "0.5", "--tol", "0"])
        assert report.code in (0, 1)
        assert out.startswith("target G n=2 ")


class TestVerify:
    def test_clean_build_passes(self):
        report, out, _ = invoke(["verify", "--max-n", "10", "--trials", "10"])
        assert report.code == 0
        assert "verification: PASS" in out

    def test_identity_mutation_flips_exit_code(self):
        report, out, _ = invoke(["verify", "--max-n", "10", "--trials", "5",
                                 "--mutate-identity", "0"])
        assert report.code == 1
        assert "identity A: FAIL" in out

    @pytest.mark.parametrize("site", [2, 7, 9])
    def test_other_mutation_sites_also_flip(self, site):
        report, _, _ = invoke(["verify", "--max-n", "10", "--trials", "2",
                               "--mutate-identity", str(site)])
        assert report.code == 1

    @pytest.mark.parametrize("argv", [["--max-n", "-1", "--trials", "1"],
                                      ["--max-n", "3", "--trials", "0"],
                                      ["--max-n", "3", "--trials", "1", "--tol", "-1"]])
    def test_bad_arguments_are_usage_errors_before_any_output(self, argv):
        report, out, err = invoke(["verify", *argv])
        assert report.code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv, message", [
        (["--max-n", "100000"], "--max-n must be at most 200"),
        (["--max-n", "201"], "--max-n must be at most 200"),
        (["--max-n", "3", "--trials", "1000000000"], "--trials must be at most 10000"),
        (["--max-n", "3", "--trials", "10001"], "--trials must be at most 10000"),
    ], ids=["max-n-1e5", "max-n-201", "trials-1e9", "trials-10001"])
    def test_work_past_its_cap_is_usage_error(self, argv, message):
        # in a subprocess: an uncapped verify here runs for minutes to days
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "heunic.cli", "verify", *argv],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_caps_admit_their_bounds(self, monkeypatch):
        # no relation, so that 10000 trials cost nothing; --max-n 200 is
        # checked before --trials is refused, and refused before any work
        from heunic import relations

        monkeypatch.setattr(relations, "RELATION_IDS", ())
        report, out, _ = invoke(["verify", "--max-n", "2", "--trials", "10000"])
        assert report.code == 0
        assert out.endswith("verification: PASS\n")
        report, out, err = invoke(["verify", "--max-n", "200", "--trials", "0"])
        assert (report.code, out, err) == (2, "", "error: --trials must be positive\n")

    def test_negative_tolerance_is_usage_error(self):
        report, out, err = invoke(["verify", "--tol", "-1"])
        assert (report.code, out, err) == (2, "", "error: --tol must be nonnegative\n")

    def test_zero_tolerance_is_accepted(self):
        report, out, _ = invoke(["verify", "--max-n", "2", "--trials", "1", "--tol", "0"])
        assert report.code in (0, 1)
        assert out.startswith("identity A: PASS")

    def test_help_names_every_mutation_site(self, capsys):
        from heunic import IDENTITY_A_SITES

        assert invoke(["verify", "--help"])[0].code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(site 0..{len(IDENTITY_A_SITES) - 1})" in help_text

    def test_seed_changes_residuals_not_outcome(self):
        r0, out0, _ = invoke(["verify", "--max-n", "5", "--trials", "5",
                              "--seed", "0"])
        r1, out1, _ = invoke(["verify", "--max-n", "5", "--trials", "5",
                              "--seed", "1"])
        assert r0.code == r1.code == 0
        assert out0 != out1


class TestRun:
    def test_returns_exit_report(self):
        report, _, _ = invoke(["verify", "--max-n", "3", "--trials", "2"])
        assert isinstance(report, ExitReport)
        assert report.code in (0, 1, 2, 3)

    def test_help_is_not_an_error(self):
        report, _, _ = invoke(["--help"])
        assert report.code == 0


COMMANDS = ("eval", "entropy", "table", "crosscheck", "verify")
TARGETED = COMMANDS[:-1]
# argument vectors that argparse answers itself: help and usage errors
PARSER_ONLY = [[], ["--help"], ["--bogus"], ["nope"],
               *([cmd, "--help"] for cmd in COMMANDS),
               *([cmd, "--bogus", "1"] for cmd in COMMANDS),
               *([cmd] for cmd in TARGETED),
               *([cmd, "--target", "nope"] for cmd in TARGETED)]


class TestParser:
    """``run`` builds the arguments of the invoked command only; the parser
    with every subcommand built is the reference."""

    @pytest.mark.parametrize("argv", PARSER_ONLY, ids=lambda argv: " ".join(argv) or "none")
    def test_prints_what_the_full_parser_prints(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        expected = capsys.readouterr()
        report, out, err = invoke(argv)
        printed = capsys.readouterr()
        assert (out, err) == ("", "")
        assert (printed.out, printed.err) == (expected.out, expected.err)
        assert printed.out or printed.err
        assert report.code == (0 if exc.value.code == 0 else 2)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_builds_the_arguments_of_its_command_only(self, command):
        def options(parser):
            sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return {name: [a.option_strings for a in p._actions]
                    for name, p in sub.choices.items()}

        full, one = options(_build_parser()), options(_build_parser(command))
        assert list(one) == list(full) == list(COMMANDS)
        for name in COMMANDS:
            assert one[name] == (full[name] if name == command else [["-h", "--help"]])
        assert len(full[command]) > 1


def test_runtime_needs_only_the_standard_library():
    # -S keeps site-packages off sys.path, so only the stdlib and src/ remain
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from heunic.cli import run\n"
        "codes = [run(['verify', '--max-n', '8', '--trials', '5']).code,\n"
        "         run(['crosscheck', '--target', 'K', '--n', '20',\n"
        "              '--grid', '0.1,0.5', '--tol', '1e-9']).code]\n"
        "third_party = sorted({'numpy', 'mpmath'} & set(sys.modules))\n"
        "print(codes, third_party)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "verification: PASS" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


def test_underflowed_rescue_prefactor_prints_the_direct_sum():
    # e^(-4px) underflows for x <= -0.5 at p = -1000: the rows must not read 0 +- 0
    report, out, _ = invoke(["table", "--target", "confluent", "--p", "-1000", "--gamma", "1",
                             "--delta", "1", "--alpha", "1", "--sigma", "1",
                             "--grid", "-0.95:0.95:0.05"])
    assert report.code == 3
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 39
    for row in rows:
        assert float(row["error_estimate"]) > 0.0 or float(row["value"]) != 0.0, row


def test_hl_hyp_past_its_budget_is_usage_error():
    # in a subprocess: an unbudgeted power of 2e9 factors would not finish
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["eval", "--target", "hl-hyp", "--q", "1e9", "--x", "0.7"]
    proc = subprocess.run([sys.executable, "-m", "heunic.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "work budget" in proc.stderr
    start = time.perf_counter()
    assert invoke(argv)[0].code == 2
    assert time.perf_counter() - start < 1.0
    report, out, _ = invoke(["eval", "--target", "hl-hyp", "--q", "2", "--x", "0.7"])
    assert (report.code, out) == (0, "-9.0625000000000053\n")


def test_kept_direct_sum_without_a_correct_digit_exits_3():
    # the true value is 4.4e-32; neither the direct sum, -9.0e76 +- 8.8e78, nor
    # the conjugate series, stopped after 10000 terms that still grow, has a
    # correct digit.  The conjugate's estimate is infinite, not its last term,
    # so the direct sum is kept, with an estimate that shows no correct digit
    report, out, _ = invoke(["table", "--target", "heun", "--a", "0.5", "--q", "1",
                             "--alpha", "-200.5", "--beta", "-200.5", "--gamma", "1",
                             "--delta", "1", "--grid", "0.49"])
    assert report.code == 3
    value, estimate = map(float, out.splitlines()[1].split(",")[1:3])
    assert value == -9.0288860574992083e+76
    assert 1e78 < estimate < 1e79


@pytest.mark.parametrize("n, grid", [("500", "0.1,0.3,0.5,0.9"), ("2000", "0.9")])
def test_k_confluent_series_holds_where_n_x_is_large(n, grid):
    # the terms, not the coefficients, are summed, and e^(-4nx) is carried
    # apart from them: the three routes of K agree
    report, out, _ = invoke(["crosscheck", "--target", "K", "--n", n, "--grid", grid,
                             "--tol", "1e-12"])
    assert report.code == 0, out
    report, out, _ = invoke(["eval", "--target", "K", "--n", "500", "--x", "0.3",
                             "--method", "confluent-series"])
    assert report.code == 0
    assert abs(float(out) - 0.023042558415085432) <= 1e-13 * 0.023042558415085432


def test_k_confluent_series_past_max_terms_exits_3():
    # 4nx + 10 sqrt(4nx) = 11839 terms are more than the 10000 allowed
    report, _, _ = invoke(["eval", "--target", "K", "--n", "3000", "--x", "0.9",
                           "--method", "confluent-series"])
    assert report.code == 3


def test_f_definitional_past_max_terms_exits_3():
    # the sum to eps takes about 11 sqrt(n x (1 - x)) = 5e8 terms around
    # the mode; the walk stops at --max-terms
    argv = ["eval", "--target", "F", "--n", str(10**16), "--x", "0.3",
            "--method", "definitional"]
    # in a subprocess: an unbudgeted walk here would not finish
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "heunic.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3
    start = time.perf_counter()
    report, out, _ = invoke(argv)
    assert time.perf_counter() - start < 1.0
    assert report.code == 3 and math.isfinite(float(out))
    report, _, _ = invoke([*argv[:4], str(10**13), *argv[5:], "--max-terms", "100"])
    assert report.code == 3


def test_k_derivative_beyond_the_float_range_of_its_factors():
    # (-n)^j = 1e320 overflows and 4^j times the mean underflows; the
    # reference is mpmath's (-n)^j C(2j,j) 1F1(j+1/2; j+1; -4nx), 64.725896049128526
    report, out, _ = invoke(["eval", "--target", "Kderiv", "--n", "100000000", "--j", "40",
                             "--x", "10"])
    assert report.code == 0
    assert abs(float(out) - 64.725896049128526) <= 1e-12 * 64.725896049128526
    # at n = 1e9 the peak is narrower than the finest rule resolves
    report, out, err = invoke(["eval", "--target", "Kderiv", "--n", "1000000000", "--j", "40",
                               "--x", "10"])
    assert report.code == 3 and err == ""
    assert math.isfinite(float(out))


@pytest.mark.parametrize("n", ["1000000000000", "1" + "0" * 300], ids=["1e12", "1e300"])
def test_quadrature_past_its_node_cap_exits_3(n):
    # K is 5.150e-7 at n = 1e12, x = 0.3: a peak narrower than the finest rule resolves
    start = time.perf_counter()
    for target in (["--target", "K", "--method", "quadrature"], ["--target", "Kderiv", "--j", "1"]):
        report, out, _ = invoke(["eval", *target, "--n", n, "--x", "0.3"])
        assert report.code == 3, (target, out)
        assert math.isfinite(float(out))
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("argv, reference", [
    (["eval", "--target", "Kderiv", "--n", "10000000", "--j", "1", "--x", "0.5"],
     -1.2615663083188192e-4),
    (["table", "--target", "K", "--n", "10000000", "--grid", "0.5", "--method", "quadrature",
      "--output", "json"], 1.2615662767796592e-4),
])
def test_quadrature_resolves_a_narrow_peak(argv, reference):
    report, out, _ = invoke(argv)
    assert report.code == 0
    value = float(out) if argv[0] == "eval" else json.loads(out)[0]["value"]
    assert abs(value - reference) <= 1e-12 * abs(reference)
