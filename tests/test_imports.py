"""Import hygiene: ``import ecomath`` and each CLI call load only the modules
that the call uses.  Every check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecomath

SRC = str(Path(ecomath.__file__).resolve().parents[1])


def loaded_after(code: str) -> set[str]:
    """Names in sys.modules after running code in a fresh interpreter."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def top_level(modules: set[str]) -> set[str]:
    return {m.split(".")[0] for m in modules}


def test_import_ecomath_loads_no_submodule_and_no_scipy():
    modules = loaded_after("import ecomath")
    assert "scipy" not in top_level(modules)
    assert {m for m in modules if m.startswith("ecomath.")} == set()


def test_finance_call_loads_neither_numpy_nor_scipy():
    modules = loaded_after(
        "from ecomath.cli import dispatch\n"
        "assert dispatch(['finance', 'installment', '--Kn', '215.25', '--E', '100',"
        " '--n', '2']) == 0"
    )
    assert "ecomath.finmath" in modules
    assert not {"numpy", "scipy"} & top_level(modules)


def test_calc_call_loads_neither_simplex_nor_leontief():
    modules = loaded_after(
        "from ecomath.cli import dispatch\n"
        "assert dispatch(['calc', 'diff', 'x^2']) == 0"
    )
    assert "ecomath.calculus" in modules
    assert not {"ecomath.simplex", "ecomath.leontief"} & modules


def test_calc_diff_loads_no_numpy():
    modules = loaded_after(
        "from ecomath.cli import dispatch\n"
        "assert dispatch(['calc', 'diff', 'x^2']) == 0"
    )
    assert "ecomath.calculus.expr" in modules
    assert "ecomath.calculus.analysis" not in modules
    assert not {"numpy", "scipy"} & top_level(modules)


def test_roots_of_a_tree_load_no_numpy():
    # the bisection on enclosures is pure Python
    modules = loaded_after(
        "from ecomath.cli import dispatch\n"
        "assert dispatch(['calc', 'roots', 'exp(x)-2*x-1.5', '--window=-3:3']) == 0"
    )
    assert "ecomath.calculus.analysis" in modules
    assert not {"numpy", "scipy"} & top_level(modules)


@pytest.mark.parametrize("argv", [
    ["calc", "integrate", "x^3-2*x+1", "--from", "0", "--to", "2"],
    ["calc", "elasticity", "100-2*x", "--at", "10"],
    ["econ", "cost", "--a3", "1", "--a2", "-6", "--a1", "15", "--a0", "20"],
    ["econ", "value", "--a", "1", "--x", "-2"],
])
def test_calls_on_no_array_load_no_numpy(argv):
    # the integral of a polynomial, an elasticity, cost phases and the value
    # function work on floats and lists, so they need no NumPy
    modules = loaded_after(f"from ecomath.cli import dispatch\nassert dispatch({argv!r}) == 0")
    assert f"ecomath.{argv[0] if argv[0] == 'econ' else 'calculus'}" in modules
    assert not {"numpy", "scipy"} & top_level(modules)


@pytest.mark.parametrize("argv", [
    ["calc", "report", "x^3-3*x", "--window=-3:3"],
    ["econ", "profit", "--price", "20-x", "--cost", "1,-6,15,4", "--window", "0:10"],
    ["econ", "surplus", "--demand", "100-2*x", "--supply", "10+x", "--pu", "0", "--po", "50"],
    ["calc", "roots", "x^3-6*x^2+11*x-6", "--window=-1:5"],
    ["calc", "integrate", "1/(1+x^2)", "--from", "0", "--to", "1"],
])
def test_calls_on_rational_functions_load_no_numpy(argv):
    # curve reports, profit, surplus, polynomial roots and the poles of a
    # rational integrand work on coefficient lists of floats
    modules = loaded_after(f"from ecomath.cli import dispatch\nassert dispatch({argv!r}) == 0")
    assert "ecomath.calculus.analysis" in modules
    assert not {"numpy", "scipy"} & top_level(modules)


def test_lazy_calculus_names_are_package_attributes():
    # however analysis is first imported, its names then sit in the package's
    # namespace, where monkeypatching (and the benchmark's span recorder) finds them
    loaded_after(
        "import importlib, ecomath.calculus as ca\n"
        "assert 'roots' not in vars(ca)\n"
        "importlib.import_module('ecomath.calculus.analysis')\n"
        "assert all(vars(ca)[n] is getattr(ca.analysis, n) for n in ca._LAZY)\n"
        "assert set(ca._LAZY) <= set(ca.__all__)"
    )


NUMPY_FREE_CALLS = [
    ["calc", "diff", "x^2"],
    ["calc", "integrate", "x^3-2*x+1", "--from", "0", "--to", "2"],
    ["econ", "cost", "--a3", "1", "--a2", "-6", "--a1", "15", "--a0", "20"],
    ["finance", "pension", "--K0", "100000", "--p", "5", "--m", "12", "--a", "800"],
    ["finance", "installment", "--Kn", "215.25", "--E", "100", "--n", "2"],
]


@pytest.mark.parametrize("argv", NUMPY_FREE_CALLS)
def test_numpy_free_calls_load_neither_dataclasses_nor_inspect(argv):
    # expression nodes and result records are plain slotted classes: importing
    # dataclasses (with inspect) and creating frozen dataclasses is import time
    # that a CLI call pays before it computes
    modules = loaded_after(f"from ecomath.cli import dispatch\nassert dispatch({argv!r}) == 0")
    assert not {"dataclasses", "inspect"} & modules


def test_array_calls_and_record_modules_load_no_dataclasses(tmp_path):
    lp = tmp_path / "lp.json"
    lp.write_text(json.dumps({"c": [3, 2], "A": [[1, 1], [1, 0]], "b": [4, 2]}))
    for code in (
        "from ecomath.cli import dispatch\n"
        "assert dispatch(['calc', 'report', 'x^3-3*x', '--window=-3:3']) == 0",
        f"from ecomath.cli import dispatch\nassert dispatch(['lp', 'solve', {str(lp)!r}]) == 0",
        "import ecomath.econ, ecomath.finmath, ecomath.simplex, ecomath.leontief",
    ):
        assert "dataclasses" not in loaded_after(code), code


def test_textbook_size_linear_algebra_loads_no_numpy(tmp_path):
    # 3x3 values are float tuples, eliminated in plain Python
    files = {"A.txt": "2,1,1\n1,3,2\n1,0,0\n", "b.txt": "4\n5\n6\n",
             "T.txt": "0,20,10\n30,0,15\n10,25,0\n", "y.txt": "40\n50\n60\n",
             "y2.txt": "45\n55\n65\n",
             "lp.json": json.dumps({"c": [3, 2, 1], "A": [[1, 1, 0], [1, 0, 1], [0, 2, 1]],
                                    "b": [4, 2, 5]})}
    path = {name: str(tmp_path / name) for name in files}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for argv in (
        ["solve", path["A.txt"], path["b.txt"]],
        ["leontief", path["T.txt"], path["y.txt"], "--next-demand", path["y2.txt"]],
        ["lp", "solve", path["lp.json"]],
        ["--trace", "lp", "solve", path["lp.json"]],
        ["linalg", "det", path["A.txt"]],
        ["linalg", "inverse", path["A.txt"]],
    ):
        modules = loaded_after(f"from ecomath.cli import dispatch\nassert dispatch({argv!r}) == 0")
        assert not {"numpy", "scipy"} & top_level(modules), argv


@pytest.mark.parametrize("n, m", [(2, 5), (4, 6), (8, 8)])
def test_textbook_size_programs_load_no_numpy(n, m, tmp_path):
    # a program holds float tuples while linalg would hold its A as such:
    # up to SMALL variables and SMALL restrictions
    lp = tmp_path / "lp.json"
    lp.write_text(json.dumps({"c": [1 + j % 3 for j in range(n)],
                              "A": [[1 + (i + j) % 4 for j in range(n)] for i in range(m)],
                              "b": [10 + i for i in range(m)]}))
    for argv in (["lp", "solve", str(lp)], ["--trace", "lp", "solve", str(lp)],
                 ["--format", "json", "lp", "solve", str(lp)]):
        modules = loaded_after(f"from ecomath.cli import dispatch\nassert dispatch({argv!r}) == 0")
        assert "ecomath.simplex" in modules
        assert not {"numpy", "scipy"} & top_level(modules), argv
