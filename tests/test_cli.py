"""CLI dispatch, rendering, exit codes, and determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ecomath
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

    @pytest.mark.parametrize("n", [1, 7])  # a tableau of float tuples, an array
    def test_a_zero_optimum_prints_as_zero(self, n, tmp_path, capsys):
        # min -3 x1 s.t. 2 x1 <= 2, x1 <= 0: one degenerate pivot to z = 0,
        # the negated z of max 3 x1, so -0.0 unless it is normalized
        path = tmp_path / "lp.json"
        pad = [0] * (n - 1)
        path.write_text(json.dumps({"sense": "min", "c": [-3] + pad,
                                    "A": [[2] + pad, [1] + pad], "b": [2, 0]}))
        code, out, _ = run(["--format", "json", "lp", "solve", str(path)], capsys)
        doc = json.loads(out)
        assert code == EXIT_OK and doc["z"] == 0.0
        assert all(math.copysign(1.0, v) == 1.0 for v in [doc["z"], *doc["x"], *doc["slacks"]])
        code, out, _ = run(["lp", "solve", str(path)], capsys)
        assert code == EXIT_OK and "-0" not in out
        assert ["z", "0"] in [line.split() for line in out.splitlines()]

    def test_trace_goes_to_stderr(self, lp_file, capsys):
        code, out, err = run(["lp", "solve", lp_file, "--trace"], capsys)
        assert code == EXIT_OK
        assert "RHS" in err
        assert "RHS" not in out

    def test_iteration_limit_exit_3(self, lp_file, monkeypatch, capsys):
        from ecomath import simplex
        monkeypatch.setattr(simplex, "iteration_cap", lambda n, m: 0)
        code, _, err = run(["lp", "solve", lp_file], capsys)
        assert code == EXIT_NUMERICAL
        assert "presumed cycling" in err

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


GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", ["lp_worked", "lp_seeded12"])  # float tuples, an array
def test_lp_solve_prints_the_golden_trace_and_json(name, capsys):
    # the full-tableau solver's --trace stderr and --format json stdout, byte for byte
    problem = str(GOLDEN / f"{name}.json")
    code, _, err = run(["--trace", "lp", "solve", problem], capsys)
    assert code == EXIT_OK and err == (GOLDEN / f"{name}.trace.txt").read_text()
    code, out, _ = run(["--format", "json", "lp", "solve", problem], capsys)
    assert code == EXIT_OK and out == (GOLDEN / f"{name}.out.json").read_text()


# polynomial and rational functions through their coefficient lists, each
# output the file the code before the polynomial fast path printed
POLY_GOLDEN = {
    "econ_profit_lin": ["econ", "profit", "--price", "30-2*x", "--cost", "1,-6,15,10",
                        "--window", "0:10"],
    "econ_profit_quad": ["econ", "profit", "--price", "40-2*x-0.5*x^2", "--cost", "1,-6,15,10",
                         "--window", "0:10"],
    "econ_surplus_simpson": ["econ", "surplus", "--demand", "100/(1+0.01*x^2)",
                             "--supply", "2*x+5", "--pu", "0", "--po", "60"],
    "calc_report_cubic": ["calc", "report", "x^3-6*x^2+9*x+1", "--window=-1:5"],
    "calc_report_rational": ["calc", "report", "(x^2+1)/(x-1)", "--window=-3:4"],
}


@pytest.mark.parametrize("name", sorted(POLY_GOLDEN))
def test_polynomial_paths_print_the_golden_json(name, capsys):
    code, out, _ = run(["--format", "json", *POLY_GOLDEN[name]], capsys)
    assert code == EXIT_OK and out == (GOLDEN / f"{name}.out.json").read_text()


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

    @pytest.mark.parametrize("argv", [
        ["calc", "integrate", "1e300*x", "--from", "0", "--to", "1e10"],  # antiderivative
        ["calc", "integrate", "1.5e308/(1+x^2)", "--from", "0", "--to", "1e10"],  # quadrature
        ["calc", "elasticity", "1e300*x^3", "--at", "1e10"],
    ])
    def test_a_result_past_the_float_range_exits_3(self, argv, capsys):
        # the integral printed Infinity with exit 0; the elasticity, NaN, exited 1
        code, out, err = run(["--format", "json", *argv], capsys)
        assert code == EXIT_NUMERICAL and out == ""
        assert "must be a finite number" in err

    def test_report(self, capsys):
        code, out, _ = run(
            ["--format", "json", "calc", "report", "x^3", "--window=-2:2"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["symmetry"] == "odd"

    def test_report_reversed_window_exit_1(self, capsys):
        # it exited 0 with no roots and one convex piece from -5 to 5
        code, out, err = run(["calc", "report", "x^2-1", "--window", "5:-5"], capsys)
        assert code == EXIT_INPUT and out == ""
        assert "lo < hi" in err

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

    @pytest.mark.parametrize("text, position", [
        ("1e300*1e300*x", 5),
        ("exp(1000)*x", 0),
        ("2^2000*x", 1),
        ("x + (1e308 + 1e308)", 11),
    ], ids=["product", "exp", "power", "sum"])
    def test_folded_constant_past_float_range_exit_1(self, text, position, capsys):
        code, out, err = run(["calc", "diff", text], capsys)
        assert code == EXIT_INPUT
        assert "Traceback" not in out + err
        assert f"constant outside the float range at position {position}" in err

    def test_negative_constant_to_a_fractional_power_exit_1(self, capsys):
        code, out, err = run(["calc", "diff", "(-8)^(1/3)*x"], capsys)
        assert code == EXIT_INPUT
        assert "Traceback" not in out + err
        assert "negative constant -8.0 to the fractional power" in err

    def test_diff_of_a_negative_base_to_a_variable_power_names_it(self, capsys):
        code, out, err = run(["calc", "diff", "(-2)^x"], capsys)
        assert code == EXIT_INPUT
        assert out == "" and "(-2)^x" in err and "math domain error" not in err

    @pytest.mark.parametrize("text, derivative", [
        ("x/1e-200", 1e200),
        ("x/1e200", 1e-200),
    ], ids=["tiny-divisor", "huge-divisor"])
    def test_quotient_by_a_constant_exit_0(self, text, derivative, capsys):
        # the quotient rule would square the divisor out of the float range
        code, out, err = run(["--format", "json", "calc", "diff", text], capsys)
        assert code == EXIT_OK, err
        assert float(json.loads(out)["derivative"]) == derivative

    @pytest.mark.parametrize("text", [
        "+".join(["x"] * 3000),
        "(" * 400 + "x" + ")" * 400,
    ], ids=["3000-term-sum", "400-parentheses"])
    def test_deep_expression_exit_1(self, text, capsys):
        code, out, err = run(["calc", "diff", "--", text], capsys)
        assert code == EXIT_INPUT
        assert "Traceback" not in out + err
        assert "levels deep at position" in err

    def test_degree_past_max_degree_exit_3_quickly(self, capsys):
        # poly_real_roots' O(n^2) work at degree 20000 would take minutes
        start = time.perf_counter()
        code, out, err = run(["calc", "roots", "x^20000-1", "--window=-2:2"], capsys)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "degree 20000 exceeds MAX_DEGREE = 2000" in err
        assert time.perf_counter() - start < 10.0

    def test_over_degree_power_in_a_non_rational_tree_exit_0(self, capsys):
        code, out, err = run(
            ["--format", "json", "calc", "roots", "x^3000+exp(x)", "--window=-1:0.5"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["roots"] == []

    def test_over_degree_derivative_of_a_non_rational_tree_exit_0(self, capsys):
        code, out, err = run(
            ["--format", "json", "calc", "roots", "ln(x)+x^2002", "--window", "0.1:1"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["roots"] == [0.9970883705111784]

    def test_double_root_of_a_tree(self, capsys):
        code, out, _ = run(
            ["--format", "json", "calc", "roots", "(exp(x)-2)^2", "--window=-3:3"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["roots"] == [0.6931471805599453]

    def test_integral_across_a_double_pole_exit_3_quickly(self):
        # roots of the divisor (exp(x)-2)^2 once missed ln 2, and adaptive
        # Simpson then never ended; a fresh process, so a hang ends at the timeout
        src = str(Path(ecomath.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from ecomath.cli import dispatch; sys.exit(dispatch())",
             "calc", "integrate", "1/(exp(x)-2)^2", "--from", "0", "--to", "1.3"],
            capture_output=True, text=True, timeout=5,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_NUMERICAL
        assert "pole at x = 0.693147" in proc.stderr

    def test_integral_of_a_non_integrable_singularity_exit_3(self, capsys):
        # exact value 18.5153; adaptive Simpson printed 18.1106 and exited 0
        code, out, err = run(
            ["calc", "integrate", "abs(x-0.3)^-0.9", "--from", "0", "--to", "1"], capsys)
        assert code == EXIT_NUMERICAL
        assert out == "" and "integral undecided on [" in err and "Traceback" not in err

    def test_undecided_roots_exit_3(self, capsys):
        code, out, err = run(["calc", "roots", "exp(x)-exp(x)", "--window=-1:1"], capsys)
        assert code == EXIT_NUMERICAL
        assert out == "" and "undecided on [" in err and "Traceback" not in err


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 9, 40])  # float tuples, one array panel, panels
    def test_solution_beyond_float_range_exit_3(self, n, tmp_path, capsys):
        # x = 1e600: a result past the float range, not an input to refuse
        np.savetxt(tmp_path / "A.txt", 1e-300 * np.eye(n), delimiter=",")
        np.savetxt(tmp_path / "b.txt", np.full(n, 1e300))
        code, out, err = run(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt")], capsys)
        assert code == EXIT_NUMERICAL
        assert "beyond the float range" in err
        assert out == ""

    def test_singular_inverse_exit_1(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1,2\n2,4\n")
        code, _, _ = run(["linalg", "inverse", str(tmp_path / "A.txt")], capsys)
        assert code == EXIT_INPUT

    def test_inverse(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("4,7\n2,6\n")
        code, out, _ = run(
            ["--format", "json", "linalg", "inverse", str(tmp_path / "A.txt")], capsys
        )
        assert code == EXIT_OK
        assert np.allclose(json.loads(out)["inverse"], np.linalg.inv([[4, 7], [2, 6]]))

    def test_mul(self, tmp_path, capsys):
        A, B = [[1, 2, 3], [4, 5, 6]], [[1, 0], [2, -1], [0.5, 3]]
        (tmp_path / "A.txt").write_text("1,2,3\n4,5,6\n")
        (tmp_path / "B.txt").write_text("1,0\n2,-1\n0.5,3\n")
        code, out, _ = run(
            ["--format", "json", "linalg", "mul", str(tmp_path / "A.txt"), str(tmp_path / "B.txt")],
            capsys,
        )
        assert code == EXIT_OK
        assert np.allclose(json.loads(out)["product"], np.array(A) @ np.array(B))

    def test_matvec(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1,2,3\n4,5,6\n")
        (tmp_path / "v.txt").write_text("1\n-1\n2\n")
        code, out, _ = run(
            ["--format", "json", "linalg", "matvec", str(tmp_path / "A.txt"), str(tmp_path / "v.txt")],
            capsys,
        )
        assert code == EXIT_OK
        assert np.allclose(json.loads(out)["result"], np.array([[1, 2, 3], [4, 5, 6]]) @ [1, -1, 2])

    def test_angle(self, tmp_path, capsys):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        (tmp_path / "a.txt").write_text("1,2,3\n")
        (tmp_path / "b.txt").write_text("4,5,6\n")
        code, out, _ = run(
            ["--format", "json", "linalg", "angle", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["dot"] == pytest.approx(a @ b)
        assert doc["angle_rad"] == pytest.approx(
            np.arccos(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        )
        assert doc["orthogonal"] is False



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

    def test_resources_and_forecast(self, tmp_path, capsys):
        for name, text in (("table", "0,2\n1,0\n"), ("y", "2\n1\n"), ("R", "1,2\n3,1\n"),
                           ("y2", "4\n2\n")):
            (tmp_path / f"{name}.txt").write_text(text)
        code, out, _ = run(
            [
                "--format", "json", "leontief",
                str(tmp_path / "table.txt"), str(tmp_path / "y.txt"),
                "--resources", str(tmp_path / "R.txt"),
                "--next-demand", str(tmp_path / "y2.txt"),
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        R, P = np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([[0.0, 1.0], [0.25, 0.0]])
        assert doc["resource_requirements"] == pytest.approx(R @ [4.0, 2.0])
        q2 = np.linalg.solve(np.eye(2) - P, [4.0, 2.0])
        assert doc["forecast_total_output"] == pytest.approx(q2)
        assert doc["forecast_resources"] == pytest.approx(R @ q2)



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

    def test_effective(self, capsys):
        code, out, _ = run(
            ["--format", "json", "finance", "effective", "--p", "12", "--m", "12"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["q_eff"] == pytest.approx(1.01 ** 12)
        assert doc["p_eff"] == pytest.approx(100 * (1.01 ** 12 - 1))

    @pytest.mark.parametrize("flags, payments, balances", [
        (["--method", "linear", "--N", "5"], [200, 200, 200], [800, 600, 400]),
        (["--method", "declining", "--p", "10"], [100, 90, 81], [900, 810, 729]),
    ], ids=["linear", "declining"])
    def test_depreciation_schedule(self, flags, payments, balances, capsys):
        code, out, _ = run(
            ["--format", "json", "finance", "depreciation", "--K0", "1000", "--n", "3", *flags],
            capsys,
        )
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert [r["year"] for r in rows] == [1, 2, 3]
        assert [r["payment"] for r in rows] == pytest.approx(payments)
        assert [r["balance"] for r in rows] == pytest.approx(balances)

    def test_declining_rate_from_remaining_value(self, capsys):
        code, out, _ = run(
            ["--format", "json", "finance", "depreciation", "--method", "declining",
             "--K0", "1000", "--n", "2", "--Rn", "810"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["p"] == pytest.approx(10.0)

    def test_master(self, capsys):
        code, out, _ = run(
            ["--format", "json", "finance", "master",
             "--K0", "100", "--q", "1.05", "--R", "10", "--n", "3"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["Kn"] == pytest.approx(100 * 1.05 ** 3 + 10 * (1.05 ** 3 - 1) / 0.05)

    def test_installment_solves_for_E(self, capsys):
        from ecomath import finmath
        code, out, _ = run(
            ["--format", "json", "finance", "installment", "--Kn", "1000", "--q", "1.05",
             "--n", "10"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"E": finmath.installment_solve(Kn=1000.0, q=1.05, n=10)}

    def test_rate_without_root_exit_1(self, capsys):
        code, _, err = run(
            ["finance", "installment", "--Kn", "10", "--E", "100", "--n", "2"], capsys
        )
        assert code == EXIT_INPUT
        assert "no interest factor q in [1.000000000001, 1000]" in err

    def test_endless_redemption_exit_1(self):
        # duration_exact is ~1.6e9 years; a fresh process, so a build of
        # every row ends at the timeout instead of holding the suite
        src = str(Path(ecomath.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from ecomath.cli import dispatch; sys.exit(dispatch())",
             "finance", "redemption", "--R0", "1000", "--p", "1e-6", "--A", "1.0000001e-5"],
            capture_output=True, text=True, timeout=2,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_INPUT
        assert "past MAX_ROWS" in proc.stderr

    def test_compound_past_the_float_range_exit_1(self, capsys):
        code, _, err = run(["finance", "compound", "--K0", "1", "--q", "10", "--n", "400"], capsys)
        assert code == EXIT_INPUT
        assert "exceeds the float range" in err

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

    @pytest.mark.parametrize("window", ["5:10", "10:5"])
    def test_profit_window_not_from_zero_exit_1(self, window, capsys):
        # a market model lives on [0, x_max]; LO was read as 0 whatever it was
        code, out, err = run(
            ["econ", "profit", "--price", "20-x", "--cost", "1,-6,15,4", "--window", window],
            capsys,
        )
        assert code == EXIT_INPUT and out == ""
        assert repr(window) in err

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


def leaves(parser, path=()):
    """(path, parser) for every leaf of a parser tree."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)] or [None]
    if sub is None:
        yield path, parser
        return
    for name, child in sub.choices.items():
        yield from leaves(child, (*path, name))


def sample_argv(path, leaf):
    """path plus a value for every argument of the leaf: a valid command line."""
    argv = list(path)
    for action in leaf._actions:
        if not action.option_strings:
            argv.append("1")
        elif action.nargs == 0:
            argv += [] if isinstance(action, argparse._HelpAction) else action.option_strings[:1]
        else:
            argv += [action.option_strings[0], action.choices[-1] if action.choices else "1"]
    return argv


def node(parser, path):
    for name in path:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    return parser


class TestParserForArgv:
    """build_parser(argv) builds only the branch argv names; whatever argv
    reaches must parse and print as on the full tree."""

    FULL = list(leaves(build_parser()))

    def test_every_leaf_is_seen(self):
        assert len(self.FULL) == 24
        assert ("calc", "integrate") in dict(self.FULL)

    @pytest.mark.parametrize("path", [p for p, _ in FULL], ids=" ".join)
    def test_same_help_and_namespace(self, path):
        full = build_parser()
        argv = sample_argv(path, node(full, path))
        branch = build_parser(argv)
        assert branch.parse_args(argv) == full.parse_args(argv)
        for depth in range(len(path) + 1):  # the help at every level on the way
            want = node(full, path[:depth]).format_help()
            assert node(branch, path[:depth]).format_help() == want

    def test_dispatch_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["ecomath", "calc", "diff", "x^2"])
        assert dispatch() == EXIT_OK
        assert capsys.readouterr().out == "derivative  2*x\n"


class TestNonFiniteInput:
    def test_nan_matrix_exit_1_without_traceback(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1,nan\n3,4\n")
        (tmp_path / "b.txt").write_text("1\n2\n")
        code, out, err = run(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt")], capsys)
        assert code == EXIT_INPUT
        assert "Traceback" not in out + err
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ["calc", "integrate", "x", "--from", "nan", "--to", "1"],
        ["calc", "elasticity", "100-2*x", "--at", "nan"],
        ["calc", "report", "x^2", "--window=-inf:inf"],
        ["finance", "effective", "--p", "nan", "--m", "12"],
        ["finance", "compound", "--K0", "100", "--q", "1.05", "--n", "inf"],
        ["econ", "value", "--a", "1", "--x", "nan"],
        ["econ", "profit", "--price", "20-x", "--cost", "1,-6,nan,4", "--window", "0:10"],
        ["econ", "surplus", "--demand", "100-x", "--supply", "x", "--pu", "0", "--po", "nan"],
    ])
    def test_non_finite_number_exit_1(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_INPUT and out == ""
        assert "expected a finite number" in err

    def test_whitespace_separated_matrix_file(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1 2\n3 4\n")
        code, out, _ = run(
            ["--format", "json", "linalg", "det", str(tmp_path / "A.txt")], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["determinant"] == pytest.approx(-2.0)
