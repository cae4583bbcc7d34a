"""Expression nodes and result records: value semantics that callers rely on.

Every record compares equal field by field (and hashes so, unless a field is
unhashable), refuses assignment, survives pickle and deepcopy, and has the
repr ``Name(field=value, ...)`` over its fields in declaration order."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ecomath import calculus as ca
from ecomath import econ, finmath, leontief, linalg, linsolve, simplex
from ecomath.calculus import (
    Abs, Add, Const, Div, Exp, Ln, Mul, Neg, Pow, Sub, Var, X,
)
from ecomath.linalg import Matrix, Vector

COST = dict(a3=1.0, a2=-6.0, a1=15.0, a0=4.0)
LP = {"c": [3, 2], "A": [[1, 1], [1, 0]], "b": [4, 2]}


def market():
    return econ.MarketModel(ca.parse("20-x"), econ.CostModel(**COST), 10.0)


def strategies():
    return econ.market_strategies(ca.parse("10-x"), ca.parse("x"), 0.0, 10.0)


def table():
    return leontief.DeliveriesTable(Matrix.from_rows([[0, 2], [1, 0]]), Vector((2.0, 1.0)))


def system():
    return linsolve.LinearSystem(Matrix.from_rows([[2, 1], [1, 3]]), Vector((3.0, 5.0)))


# (factory of a fresh instance, its fields in order)
CASES = [
    (lambda: Const(2.0), ("value",)),
    (Var, ()),
    (lambda: Add(X, Const(1.0)), ("a", "b")),
    (lambda: Sub(X, Const(1.0)), ("a", "b")),
    (lambda: Mul(Const(3.0), X), ("a", "b")),
    (lambda: Div(Const(1.0), X), ("a", "b")),
    (lambda: Pow(X, Const(2.0)), ("base", "exponent")),
    (lambda: Neg(X), ("a",)),
    (lambda: Exp(X), ("a",)),
    (lambda: Ln(X), ("a",)),
    (lambda: Abs(X), ("a",)),
    (lambda: econ.CostModel(**COST), ("a3", "a2", "a1", "a0")),
    (lambda: econ.cost_analysis(econ.CostModel(**COST)),
     ("x_W", "x_g1", "x_g2", "marginal_min", "tangent_g1", "tangent_g2",
      "mes_coincides_with_g1")),
    (market, ("price", "cost", "x_max")),
    (lambda: econ.profit_analysis(market()),
     ("x_S", "x_G", "x_M", "G_max", "parallel_tangent_gap")),
    (lambda: econ.cournot(market()), ("x_M", "p_M", "amoroso_robinson_residual")),
    (lambda: econ.ratio_optimum(ca.parse("6*x^2-x^3"), X, 0.5, 5.5),
     ("x", "value", "elasticity_gap")),
    (lambda: strategies().equilibrium, ("p_M", "quantity", "p_prohibitive", "x_saturation")),
    (strategies, ("equilibrium", "U1", "U2", "U3", "consumer_surplus", "producer_surplus")),
    (lambda: finmath.SequenceSpec("geom", 1.0, 2.0), ("kind", "a1", "step")),
    (lambda: finmath.ScheduleRow(1, 2.0, 3.0, 4.0), ("year", "interest", "payment", "balance")),
    (lambda: finmath.pension_plan(100000.0, 5.0, 12, 800.0), ("rows", "meta")),
    (lambda: simplex.LinearProgram.from_dict(LP), ("sense", "c", "A", "b", "d", "names")),
    (lambda: simplex.solve_simplex(simplex.LinearProgram.from_dict(LP)),
     ("status", "x", "z", "slacks", "iterations")),
    (lambda: simplex.vertex_oracle(simplex.LinearProgram.from_dict(LP)),
     ("solution", "vertices", "optimal_vertices", "isoquant_slope")),
    (system, ("A", "b")),
    (lambda: linsolve.solve(system()), ("kind", "particular", "free_directions", "rank_A",
                                        "rank_Ab")),
    (table, ("deliveries", "final_demand")),
    (lambda: leontief.model_from_table(table())[0], ("P", "R", "labels")),
    (lambda: ca.curve_report(ca.parse("x^3-3*x"), -3.0, 3.0),
     ("domain", "symmetry", "roots", "extrema", "inflections", "monotone_intervals",
      "curvature_intervals", "vertical_asymptotes", "asymptote", "range_estimate")),
]
IDS = [make().__class__.__name__ for make, _ in CASES]
UNHASHABLE = {"Schedule"}  # a dict field


def test_every_record_class_is_covered():
    assert len(set(IDS)) == len(CASES) == 30


@pytest.mark.parametrize("make, fields", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    other = CASES[0][0]() if not isinstance(a, Const) else Var()
    assert a != other
    if type(a).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_a_different_field_compares_unequal():
    assert econ.CostModel(**COST) != econ.CostModel(**dict(COST, a0=5.0))
    assert Add(X, Const(1.0)) != Add(X, Const(2.0))
    assert Add(X, Const(1.0)) != Sub(X, Const(1.0))
    assert finmath.ScheduleRow(1, 2.0, 3.0, 4.0) != finmath.ScheduleRow(2, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("make, fields", CASES, ids=IDS)
def test_assignment_raises_attribute_error(make, fields):
    r = make()
    name = fields[0] if fields else "a"
    with pytest.raises(AttributeError):
        setattr(r, name, None)
    with pytest.raises(AttributeError):
        delattr(r, name)


@pytest.mark.parametrize("make, fields", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trips(make, fields):
    r = make()
    for again in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(again) is type(r) and again == r


@pytest.mark.parametrize("make, fields", CASES, ids=IDS)
def test_repr_lists_the_fields(make, fields):
    r = make()
    args = ", ".join(f"{f}={getattr(r, f)!r}" for f in fields)
    assert repr(r) == f"{type(r).__qualname__}({args})"


def test_market_model_kept_profit_is_no_field():
    m, fresh = market(), market()
    h, text = hash(m), repr(m)
    econ.profit_analysis(m)
    assert m.price_slope is not None
    assert m == fresh and hash(m) == h == hash(fresh) and repr(m) == text


def test_leontief_model_copies_still_solve():
    # the kept I - P is a slot: copies rebuild it, and == and hash see P only
    wide = leontief.LeontiefModel(Matrix(10, 10, [0.05] * 100))
    for m, y in ((leontief.model_from_table(table())[0], Vector((4.0, 3.0))),
                 (wide, Vector([4.0, 3.0] * 5))):
        want, _ = leontief.total_output(m, y)
        for again in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert again == m and hash(again) == hash(m) and repr(again) == repr(m)
            assert again.technology_matrix() == m.technology_matrix()
            got, _ = leontief.total_output(again, y)
            assert got == want


def test_to_dict_gives_the_fields_in_order_and_nested_records_as_dicts():
    ms = strategies()
    d = ms.to_dict()
    eq = ms.equilibrium
    assert list(d) == ["equilibrium", "U1", "U2", "U3", "consumer_surplus", "producer_surplus"]
    assert d["equilibrium"] == {"p_M": eq.p_M, "quantity": eq.quantity,
                                "p_prohibitive": eq.p_prohibitive,
                                "x_saturation": eq.x_saturation}
    assert list(d["equilibrium"]) == ["p_M", "quantity", "p_prohibitive", "x_saturation"]
    assert all(d[k] == getattr(ms, k) for k in list(d)[1:])
    pa = econ.profit_analysis(market())
    assert pa.to_dict() == {"x_S": pa.x_S, "x_G": pa.x_G, "x_M": pa.x_M, "G_max": pa.G_max,
                            "parallel_tangent_gap": pa.parallel_tangent_gap}
    assert list(pa.to_dict()) == ["x_S", "x_G", "x_M", "G_max", "parallel_tangent_gap"]


# ---------------------------------------------------------------------------
# One == and hash for every value: numeric._FrozenRecord reads an array field
# by its shape and bytes (-0.0 as 0.0) and every other field as it is
# ---------------------------------------------------------------------------

def signed_zero_pairs():
    """(value with 0.0, the same with -0.0) for each class and form."""
    for n in (3, linalg.SMALL + 1):  # a float tuple, an array
        plus = [1.0, 0.0] + [2.0] * (n - 2)
        minus = [1.0, -0.0] + [2.0] * (n - 2)
        yield Vector(plus), Vector(minus)
        yield Matrix(n, n, plus * n), Matrix(n, n, minus * n)


def test_signed_zeros_compare_and_hash_alike():
    pairs = [(Const(0.0), Const(-0.0)), *signed_zero_pairs()]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_array_values_compare_by_content():
    n = linalg.SMALL + 1
    a, b = Matrix(n, n, [0.5] * (n * n)), Matrix(n, n, [0.5] * (n * n))
    assert type(a._a) is not tuple and a._a is not b._a
    assert a == b and hash(a) == hash(b)
    assert a != Matrix(n, n, [0.5] * (n * n - 1) + [0.25])
    assert Vector([1.0] * n) != Vector([1.0] * n, "row")
    assert Vector([1.0] * n) != Vector([1.0] * (n + 1))


def test_a_numpy_scalar_field_equals_a_float():
    np = pytest.importorskip("numpy")
    a, b = econ.CostModel(**dict(COST, a3=np.float64(1.0))), econ.CostModel(**COST)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("n", [2, linalg.SMALL + 1], ids=["tuple", "array"])
def test_vectors_and_matrices_refuse_del(n):
    for v in (Vector([1.0] * n), Matrix(n, n, [1.0] * (n * n))):
        for name in ("_a", "_shape"):
            with pytest.raises(AttributeError, match="immutable"):
                delattr(v, name)
        assert v == copy.copy(v)


def test_linear_programs_compare_by_the_held_values():
    n = linalg.SMALL + 1  # variables: arrays, not tuples
    wide = dict(LP, c=[3, 2] + [1] * (n - 2), A=[[1, 1] + [0] * (n - 2), [1] * n])
    for doc in (LP, wide):
        a, b = simplex.LinearProgram.from_dict(doc), simplex.LinearProgram.from_dict(doc)
        assert (type(a._c) is tuple) == (doc is LP)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        for again in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert again == a and hash(again) == hash(a)
        assert a != simplex.LinearProgram.from_dict(dict(doc, b=[4, 3]))
        assert a != simplex.LinearProgram.from_dict(dict(doc, sense="min"))


def test_tuple_programs_compare_without_numpy():
    script = (
        "import sys\n"
        "from ecomath.simplex import LinearProgram\n"
        "a, b = (LinearProgram('max', (3, 2), ((1, 1), (1, 0)), (4, 2)) for _ in 'ab')\n"
        "assert a == b and hash(a) == hash(b) and len({a, b}) == 1\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(simplex.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", script], check=True,
                   env=dict(os.environ, PYTHONPATH=src))
