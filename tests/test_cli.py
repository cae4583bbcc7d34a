"""CLI dispatch, rendering, exit codes, and determinism."""

import json
import math
import re
from pathlib import Path

import pytest

from ecomath.cli import (
    EXIT_INPUT,
    EXIT_NO_SOLUTION,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    dispatch,
)

LP_DOC = {"sense": "max", "c": [3, 2], "d": 0.0, "A": [[1, 1], [1, 0]], "b": [4, 2]}


@pytest.fixture
def lp_file(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(LP_DOC))
    return str(path)


def run(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLp:
    def test_worked_example(self, lp_file, capsys):
        code, out, _ = run(["--format", "json", "lp", "solve", lp_file], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        assert doc["x"] == [2.0, 2.0]
        assert doc["z"] == 10.0

    def test_infeasible_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sense": "max", "c": [1], "A": [[1]], "b": [-1]}))
        code, out, err = run(["lp", "solve", str(path)], capsys)
        assert code == EXIT_NO_SOLUTION
        assert "unsupported" in out or "unsupported" in err

    def test_trace_goes_to_stderr(self, lp_file, capsys):
        code, out, err = run(["lp", "solve", lp_file, "--trace"], capsys)
        assert code == EXIT_OK
        assert "RHS" in err
        assert "RHS" not in out

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(["lp", "solve", str(path)], capsys)
        assert code == EXIT_INPUT

    def test_missing_file_exit_1(self, capsys):
        code, _, _ = run(["lp", "solve", "/nonexistent.json"], capsys)
        assert code == EXIT_INPUT

    def test_missing_objective_is_named(self, tmp_path, capsys):
        path = tmp_path / "no_c.json"
        path.write_text(json.dumps({"A": [[1]], "b": [1]}))
        code, _, err = run(["lp", "solve", str(path)], capsys)
        assert code == EXIT_INPUT
        assert "missing the field 'c'" in err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"c": [1], "A": 5, "b": [1]}, "'A'"),
            ({"c": [1], "A": [[1, "2"]], "b": [1]}, "'A'"),
            ({"c": "12", "A": [[1]], "b": [1]}, "'c'"),
            ({"c": [1], "A": [[1]], "b": [1], "d": [0]}, "'d'"),
            ({"c": [1], "A": [[1]], "b": [1], "names": 5}, "'names'"),
        ],
    )
    def test_mistyped_field_is_named(self, doc, field, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["lp", "solve", str(path)], capsys)
        assert code == EXIT_INPUT
        assert field in err
        assert "Traceback" not in out + err


class TestCalc:
    def test_pole_exit_3(self, capsys):
        code, _, err = run(
            ["calc", "integrate", "1/x", "--from", "-1", "--to", "1"], capsys
        )
        assert code == EXIT_NUMERICAL
        assert "pole" in err

    def test_integrate(self, capsys):
        code, out, _ = run(
            ["--format", "json", "calc", "integrate", "x^2", "--from", "0", "--to", "3"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["integral"] == pytest.approx(9.0)

    def test_diff(self, capsys):
        code, out, _ = run(["calc", "diff", "x^2"], capsys)
        assert code == EXIT_OK
        assert "2*x" in out

    def test_syntax_error_exit_1(self, capsys):
        code, _, _ = run(["calc", "diff", "ln(x"], capsys)
        assert code == EXIT_INPUT

    def test_report(self, capsys):
        code, out, _ = run(
            ["--format", "json", "calc", "report", "x^3", "--window=-2:2"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["symmetry"] == "odd"

    def test_roots_past_overflow_exit_0(self, capsys):
        code, out, _ = run(
            ["--format", "json", "calc", "roots", "exp(x)-5", "--window", "0:1000"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["roots"] == pytest.approx([math.log(5.0)])

    def test_roots_and_elasticity(self, capsys):
        code, out, _ = run(
            ["--format", "json", "calc", "roots", "x^2-1", "--window=-2:2"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["roots"] == [-1.0, 1.0]
        code, out, _ = run(
            ["--format", "json", "calc", "elasticity", "x^3", "--at", "2"], capsys
        )
        assert json.loads(out)["elasticity"] == pytest.approx(3.0)


class TestExpressionLimits:
    @pytest.mark.parametrize("argv", [
        ["calc", "diff", "1e999*x"],
        ["calc", "roots", "1e999*x-1", "--window=-1:1"],
    ], ids=["diff", "roots"])
    def test_literal_past_float_range_exit_1(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_INPUT
        assert "Traceback" not in out + err
        assert "'1e999'" in err and "at position 0" in err

    @pytest.mark.parametrize("text", [
        "+".join(["x"] * 3000),
        "(" * 400 + "x" + ")" * 400,
    ], ids=["3000-term-sum", "400-parentheses"])
    def test_deep_expression_exit_1(self, text, capsys):
        code, out, err = run(["calc", "diff", "--", text], capsys)
        assert code == EXIT_INPUT
        assert "Traceback" not in out + err
        assert "levels deep at position" in err


class TestSolveAndLinalg:
    def test_unique_system(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1,1\n1,-1\n")
        (tmp_path / "b.txt").write_text("3\n1\n")
        code, out, _ = run(
            ["--format", "json", "solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt")],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "unique"
        assert doc["particular"] == pytest.approx([2.0, 1.0])

    def test_inconsistent_system_exit_2(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1,1\n1,1\n")
        (tmp_path / "b.txt").write_text("1\n2\n")
        code, out, _ = run(
            ["--format", "json", "solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt")],
            capsys,
        )
        assert code == EXIT_NO_SOLUTION
        assert json.loads(out)["kind"] == "none"

    def test_determinant(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1,2\n3,4\n")
        code, out, _ = run(
            ["--format", "json", "linalg", "det", str(tmp_path / "A.txt")], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["determinant"] == pytest.approx(-2.0)

    def test_determinant_beyond_float_range_exit_3(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1e200,0,0\n0,1e200,0\n0,0,1e200\n")
        code, out, err = run(["linalg", "det", str(tmp_path / "A.txt")], capsys)
        assert code == EXIT_NUMERICAL
        assert "float range" in err
        assert out == ""

    def test_singular_inverse_exit_1(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1,2\n2,4\n")
        code, _, _ = run(["linalg", "inverse", str(tmp_path / "A.txt")], capsys)
        assert code == EXIT_INPUT


class TestLeontief:
    def test_report(self, tmp_path, capsys):
        (tmp_path / "table.txt").write_text("0,2\n1,0\n")
        (tmp_path / "y.txt").write_text("2\n1\n")
        code, out, _ = run(
            [
                "--format",
                "json",
                "leontief",
                str(tmp_path / "table.txt"),
                str(tmp_path / "y.txt"),
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["total_output"] == pytest.approx([4.0, 2.0])
        assert doc["P"][0] == pytest.approx([0.0, 1.0])


class TestFinance:
    def test_compound(self, capsys):
        code, out, _ = run(
            ["--format", "json", "finance", "compound", "--K0", "100", "--q", "1.05", "--n", "2"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["Kn"] == pytest.approx(110.25)

    def test_pension_csv(self, capsys):
        code, out, _ = run(
            [
                "--format", "csv", "finance", "pension",
                "--K0", "100000", "--p", "5", "--m", "12", "--a", "500",
                "--horizon", "1",
            ],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "year,interest,payment,balance"
        assert lines[1] == "1,4837.50,6000.00,98837.50"

    def test_redemption_json_round_trip(self, capsys):
        args = [
            "--format", "json", "finance", "redemption",
            "--R0", "100000", "--p", "5", "--t", "5",
        ]
        code, out1, _ = run(args, capsys)
        assert code == EXIT_OK
        _, out2, _ = run(args, capsys)
        assert out1 == out2  # byte-identical determinism
        doc = json.loads(out1)
        assert doc["meta"]["duration_exact"] == pytest.approx(14.2067, abs=1e-4)

    def test_rate_without_root_exit_1(self, capsys):
        code, _, err = run(
            ["finance", "installment", "--Kn", "10", "--E", "100", "--n", "2"], capsys
        )
        assert code == EXIT_INPUT
        assert "no interest factor q in [1.000000000001, 1000]" in err

    def test_overdetermined_exit_1(self, capsys):
        code, _, _ = run(
            ["finance", "compound", "--K0", "1", "--Kn", "2", "--q", "1.05", "--n", "3"],
            capsys,
        )
        assert code == EXIT_INPUT


class TestEcon:
    def test_cost(self, capsys):
        code, out, _ = run(
            ["--format", "json", "econ", "cost", "--a3", "1", "--a2", "-6", "--a1", "15", "--a0", "40"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["x_W"] == pytest.approx(2.0)
        assert doc["x_g2"] == pytest.approx(4.157, abs=1e-3)

    def test_profit_with_cournot(self, capsys):
        code, out, _ = run(
            [
                "--format", "json", "econ", "profit",
                "--price", "20-x", "--cost", "1,-6,15,4", "--window", "0:10",
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["x_M"] == pytest.approx(3.775, abs=1e-3)
        assert doc["cournot"]["p_M"] == pytest.approx(16.225, abs=1e-3)

    def test_surplus(self, capsys):
        code, out, _ = run(
            [
                "--format", "json", "econ", "surplus",
                "--demand", "10-x", "--supply", "x", "--pu", "0", "--po", "10",
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["U1"] == pytest.approx(25.0)
        assert doc["U2"] == pytest.approx(37.5)

    def test_surplus_no_intersection_exit_2(self, capsys):
        code, _, _ = run(
            [
                "econ", "surplus",
                "--demand", "10-x", "--supply", "x+20", "--pu", "0", "--po", "10",
            ],
            capsys,
        )
        assert code == EXIT_NO_SOLUTION

    def test_value(self, capsys):
        code, out, _ = run(
            ["--format", "json", "econ", "value", "--a", "1", "--x", "9"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["value"] == pytest.approx(1.0)


class TestPlumbing:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert dispatch(["nosuch"]) == EXIT_INPUT
        capsys.readouterr()

    def test_unknown_flag_exit_1(self, capsys):
        assert dispatch(["calc", "diff", "x", "--bogus"]) == EXIT_INPUT
        capsys.readouterr()

    def test_output_flag_writes_file(self, tmp_path, lp_file, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run(
            ["--format", "json", "--output", str(target), "lp", "solve", lp_file], capsys
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["z"] == 10.0

    def test_global_flags_after_subcommand(self, lp_file, capsys):
        code, out, _ = run(["lp", "solve", lp_file, "--format", "json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["z"] == 10.0

    def test_readme_format_choices_match_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        documented = re.findall(r"--format \{([^}]*)\}", readme)
        (action,) = [a for a in build_parser()._actions if a.dest == "format"]
        assert documented
        for choices in documented:
            assert tuple(choices.split(",")) == action.choices

    def test_determinism(self, lp_file, capsys):
        _, out1, _ = run(["lp", "solve", lp_file], capsys)
        _, out2, _ = run(["lp", "solve", lp_file], capsys)
        assert out1 == out2


class TestNonFiniteInput:
    def test_nan_matrix_exit_1_without_traceback(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1,nan\n3,4\n")
        (tmp_path / "b.txt").write_text("1\n2\n")
        code, out, err = run(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt")], capsys)
        assert code == EXIT_INPUT
        assert "Traceback" not in out + err
        assert "finite" in err

    def test_whitespace_separated_matrix_file(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1 2\n3 4\n")
        code, out, _ = run(
            ["--format", "json", "linalg", "det", str(tmp_path / "A.txt")], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["determinant"] == pytest.approx(-2.0)
