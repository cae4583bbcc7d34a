"""The list form of the elimination kernel against the array form.

Values of at most SMALL rows and columns hold float tuples and eliminate on
column lists in plain Python; with SMALL patched to 0 the same inputs run on
float64 arrays, the reference.  Both must agree bit for bit (repr tells -0.0
from 0.0): rank, pivot columns, RREF, det_factor, determinants, inverses,
replayed right-hand sides, Leontief models and every simplex tableau."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecomath import leontief, linalg, linsolve, simplex
from ecomath.linalg import SMALL, Matrix, Vector
from ecomath.numeric import NumericalError


def on_arrays(f, *args):
    """f(*args) with every value held as an array (SMALL = 0), and NumPy's
    floating-point warnings off, as plain Python floats have none."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(linalg, "SMALL", 0)
        return f(*args)


def bits(x):
    """A value as text that tells every float apart, -0.0 from 0.0 included."""
    if isinstance(x, (Matrix, Vector)):
        return repr((x.to_array().shape, x.entries))
    if isinstance(x, np.ndarray):
        return repr((x.shape, x.ravel().tolist()))
    if isinstance(x, (list, tuple)):
        return "(" + ", ".join(map(bits, x)) + ")"
    return repr(x)


def outcome(f, *args):
    try:
        return bits(f(*args))
    except ValueError as exc:  # singular, inconsistent: the same error on both
        return type(exc).__name__


@st.composite
def small_matrices(draw, square=False):
    m = draw(st.integers(1, SMALL))
    n = m if square else draw(st.integers(1, SMALL))
    kind = draw(st.sampled_from(["ints", "floats", "low rank"]))
    if kind == "ints":  # ties, zeros and repeated columns
        a = draw(hnp.arrays(np.float64, (m, n), elements=st.integers(-3, 3).map(float)))
    elif kind == "floats":
        a = draw(hnp.arrays(np.float64, (m, n), elements=st.floats(-10, 10)))
    else:
        k = draw(st.integers(0, max(min(m, n) - 1, 0)))
        ints = st.integers(-5, 5).map(float)
        B = draw(hnp.arrays(np.float64, (m, k), elements=ints))
        a = B @ draw(hnp.arrays(np.float64, (k, n), elements=ints)) / 3.0
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[:, j] = a[:, i] if draw(st.booleans()) else 0.0
    return a * draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))


@given(small_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_elimination_and_solve_match_the_array_kernel(a, data):
    M = Matrix.from_array(a)
    assert type(M._a) is tuple
    assert outcome(linsolve.rref, M) == on_arrays(
        outcome, lambda: linsolve.rref(Matrix.from_array(a)))

    elements = st.integers(-4, 4).map(float) | st.floats(-1e3, 1e3)
    b = data.draw(hnp.arrays(np.float64, a.shape[0], elements=elements))
    if data.draw(st.booleans()):
        b = a @ data.draw(hnp.arrays(np.float64, a.shape[1], elements=elements))  # consistent
    system = lambda: linsolve.LinearSystem(Matrix.from_array(a), Vector(b))
    assert outcome(lambda: linsolve.solve(system())) == on_arrays(
        outcome, lambda: linsolve.solve(system()))

    steps = []
    linsolve._gauss_jordan(linsolve._work(M), steps)
    want = []
    on_arrays(lambda: linsolve._gauss_jordan(linsolve._work(Matrix.from_array(a)), want))
    got = linsolve.replay(steps, b.tolist())
    assert bits(got) == bits(on_arrays(lambda: linsolve.replay(want, b).tolist()))
    assert bits([f for _, pivots, _ in steps for _, _, f in pivots]) == bits(
        [f.tolist() for _, pivots, _ in want for _, _, f in pivots])


@given(small_matrices(square=True))
@settings(max_examples=300, deadline=None)
def test_determinant_and_inverse_match_the_array_kernel(a):
    for f in (linsolve.determinant, linsolve.inverse, linsolve.rank):
        assert outcome(f, Matrix.from_array(a)) == on_arrays(
            outcome, lambda: f(Matrix.from_array(a)))
    # (mant, expo) of the column-equilibrated elimination behind determinant
    scaled = np.ldexp(a, -np.frexp(np.abs(a).max(axis=0))[1])
    got = linsolve._gauss_jordan(linsolve._work(Matrix.from_array(scaled)))
    assert bits(got) == bits(linsolve._gauss_jordan(scaled.copy()))


@given(st.integers(2, SMALL).flatmap(lambda n: hnp.arrays(
    np.float64, (n + 1, n), elements=st.floats(0, 50, allow_subnormal=False))))
@settings(max_examples=200, deadline=None)
def test_leontief_model_matches_the_array_path(table):
    # sector totals from 8 terms on are NumPy's pairwise sums, not left to right
    n = table.shape[1]
    y = table[n] + 1.0

    def model():
        t = leontief.DeliveriesTable(Matrix.from_array(table[:n]), Vector(y))
        m, q, _ = leontief.model_from_table(t)
        return m.P, q, m.total_demand_matrix(), leontief.total_output(m, Vector(y[::-1]))[0]

    assert outcome(model) == on_arrays(outcome, model)


@st.composite
def small_programs(draw):
    n = draw(st.integers(1, SMALL))
    m = draw(st.integers(0, SMALL))
    kind = draw(st.sampled_from([st.integers(0, 4).map(float), st.floats(0, 10)]))
    c = draw(hnp.arrays(np.float64, n, elements=st.integers(-3, 5).map(float)))
    A = draw(hnp.arrays(np.float64, (m, n), elements=kind))
    b = draw(hnp.arrays(np.float64, m, elements=st.integers(0, 9).map(float)))  # zeros: degenerate
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    return draw(st.sampled_from(["max", "min"])), c * scale, A, b * scale


@given(small_programs())
@settings(max_examples=300, deadline=None)
def test_simplex_tableaus_match_the_array_path(lp):
    def run():
        trace = []
        program = simplex.LinearProgram(*lp)
        try:
            solution = simplex.solve_simplex(program, trace=trace)
        except NumericalError as exc:  # past the float range, or cycling
            solution = type(exc).__name__
        return repr(solution), [(bits(t.grid), t.basis) for t in trace]

    assert run() == on_arrays(run)


def test_float_tuples_up_to_small_arrays_above():
    assert type(Matrix.zeros(SMALL, SMALL)._a) is tuple
    assert type(Matrix.zeros(1, SMALL + 1)._a) is not tuple
    assert type(Matrix.zeros(SMALL + 1, 1)._a) is not tuple
    assert type(Vector([1.0] * SMALL)._a) is tuple
    assert type(Vector([1.0] * (SMALL + 1))._a) is not tuple
    # a program holds what a Matrix of its A holds, c and b alike
    for n, m in ((SMALL, SMALL), (SMALL + 1, 1), (1, SMALL + 1)):
        lp = simplex.LinearProgram("max", [1.0] * n, [[1.0] * n] * m, [1.0] * m)
        tuples = max(n, m) <= SMALL
        assert {type(lp._c) is tuple, type(lp._A) is tuple, type(lp._b) is tuple} == {tuples}
        assert (type(simplex.canonicalize(lp).cells) is list) == tuples


def test_patching_linalg_small_alone_switches_every_form():
    def forms():
        lp = simplex.LinearProgram("max", [1.0], [[1.0]], [1.0])
        return [type(v) is tuple for v in (Vector([1.0])._a, Matrix.zeros(1, 1)._a, lp._A)]

    assert forms() == [True] * 3 and on_arrays(forms) == [False] * 3


def test_values_never_change_form_in_an_operation():
    A = Matrix.from_rows([[2.0, 1.0], [1.0, 3.0]])
    for value in (A.T, linsolve.inverse(A), linalg.mat_mul(A, A), linsolve.rref(A)[0],
                  linalg.mat_combine(1.0, A, -1.0, A), Matrix.identity(2)):
        assert type(value._a) is tuple
    big = Matrix.identity(SMALL + 1)
    assert type(linsolve.inverse(big)._a) is not tuple
    assert linsolve.inverse(big) == big


def test_equal_values_hash_alike_and_pickle():
    import pickle
    for make in (lambda s: Matrix.from_rows([[s * 0.0, 1.0]]), lambda s: Vector([s * 0.0, 2.0])):
        assert make(1.0) == make(-1.0) and hash(make(1.0)) == hash(make(-1.0))
        assert pickle.loads(pickle.dumps(make(-1.0))) == make(1.0)
    assert Matrix.from_rows([[1.0, 2.0]]) != Matrix.from_rows([[1.0], [2.0]])
    assert Vector([1.0, 2.0]) != Vector([1.0, 2.0], "row")
    assert Vector(range(SMALL + 1)) != Vector(range(SMALL + 2))


def test_float_tuples_accept_what_arrays_accept():
    assert Matrix(2, 2, np.array([[1, 2], [3, 4]])).entries == (1.0, 2.0, 3.0, 4.0)
    assert Vector(np.arange(3)).entries == (0.0, 1.0, 2.0)
    assert Matrix.from_rows([(1, 2), np.array([3, 4])]).row(-1) == (3.0, 4.0)
    assert Matrix.from_rows([[1, 2], [3, 4]])[-1, 0] == 3.0
    for bad in ([[1.0, 2.0], [3.0, 4.0]], "12"):
        with pytest.raises(linalg.DimensionError):
            Vector(bad)
    with pytest.raises(linalg.DimensionError):
        Matrix(1, 2, "12")
    with pytest.raises(ValueError, match="finite"):
        Vector([1.0, math.nan])


def test_float_tuples_refuse_what_arrays_refuse():
    for ragged in ([[1, 2, 3], [4]], [1, [2, 3], 4]):
        with pytest.raises(linalg.DimensionError):
            Matrix(2, 2, ragged)

    def refusal(c, A, b):
        with pytest.raises(simplex.SimplexError) as info:
            simplex.LinearProgram("max", c, A, b)
        return str(info.value)

    for n in (2, SMALL + 1):  # a program of float tuples, and one of arrays
        c, A, b = [1] * n, [[1] * n] * 2, (1, 1)
        for bad in ((c, ["1" * n] * 2, b), ("1" * n, A, b), (c, A, "11"), (c, "1" * 2 * n, b),
                    (["x"] + c[1:], A, b), (c, A, ("x", 1)), (c, [["x"] + c[1:]] * 2, b)):
            assert refusal(*bad) == on_arrays(refusal, *bad)


@pytest.mark.parametrize("n", [SMALL + 1, 20, 40])
def test_a_wide_matrix_solves_with_a_short_right_hand_side(n):
    # A wider than SMALL holds an array, its b of 3 entries a tuple; from 33
    # columns on the array kernel records panels, not multipliers
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((3, n)), rng.standard_normal(3)
    a[:, 1] = a[:, 0]
    system = lambda: linsolve.LinearSystem(Matrix.from_array(a), Vector(b))
    assert type(system().A._a) is not tuple and type(system().b._a) is tuple
    got = linsolve.solve(system())
    assert got.kind == "multiple" and all(type(v) is float for v in got.particular)
    assert outcome(lambda: linsolve.solve(system())) == on_arrays(
        outcome, lambda: linsolve.solve(system()))
