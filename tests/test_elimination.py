"""Guards on the shared Gauss-Jordan kernel: agreement with the textbook
row-by-row elimination, and one elimination per Leontief model."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecomath import leontief, linsolve
from ecomath.linalg import Matrix, Vector
from ecomath.numeric import NumericalError


def rref_row_loop(a, tol=1e-10):
    """Row-by-row Gauss-Jordan elimination with an absolute pivot tolerance,
    written out as a test oracle for ``linsolve.rref``."""
    a = np.array(a, dtype=float)
    m, n = a.shape
    det_factor = 1.0
    pivot_cols = []
    r = 0
    for j in range(n):
        if r >= m:
            break
        col = np.abs(a[r:, j])
        i_rel = int(np.argmax(col))
        if col[i_rel] <= tol:
            a[r:, j] = 0.0
            continue
        i = r + i_rel
        if i != r:
            a[[r, i]] = a[[i, r]]
            det_factor = -det_factor
        p = a[r, j]
        a[r] = a[r] / p
        det_factor *= p
        for k in range(m):
            if k != r and a[k, j] != 0.0:
                a[k] = a[k] - a[k, j] * a[r]
        a[:, j] = 0.0
        a[r, j] = 1.0
        pivot_cols.append(j)
        r += 1
    return a, r, tuple(pivot_cols), det_factor


def assert_same_elimination(a):
    want_R, want_rank, want_pivots, want_det = rref_row_loop(a)
    R, rank, pivots, det_factor = linsolve.rref(Matrix.from_array(a))
    # the tolerances differ (absolute there, column-relative here); compare
    # wherever both make the same pivot decisions
    assume(pivots == want_pivots)
    assert rank == want_rank
    assert np.array_equal(R.to_array(), want_R)
    assert det_factor == want_det


shapes = st.tuples(st.integers(1, 6), st.integers(1, 7))


@given(shapes.flatmap(lambda s: hnp.arrays(
    np.float64, s, elements=st.floats(-10, 10, allow_subnormal=False))))
@settings(max_examples=200, deadline=None)
def test_rref_matches_row_loop_on_dense_matrices(a):
    assert_same_elimination(a)


@st.composite
def rank_deficient(draw):
    m, n = draw(shapes)
    k = draw(st.integers(0, max(min(m, n) - 1, 0)))
    ints = st.integers(-5, 5).map(float)
    B = draw(hnp.arrays(np.float64, (m, k), elements=ints))
    C = draw(hnp.arrays(np.float64, (k, n), elements=ints))
    return B @ C / draw(st.sampled_from([1.0, 3.0, 7.0]))


@given(rank_deficient())
@settings(max_examples=200, deadline=None)
def test_rref_matches_row_loop_on_rank_deficient_matrices(a):
    assert_same_elimination(a)


def test_replay_equals_augmented_elimination():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 30))
    b = rng.standard_normal((30, 2))
    e = linsolve._Elimination()
    linsolve.rref(Matrix.from_array(A), e)
    R, _, _, _ = linsolve.rref(Matrix.from_array(np.hstack([A, b])))
    assert np.array_equal(linsolve.replay(e, b), R.to_array()[:, 30:])
    assert np.array_equal(linsolve.replay(e, b[:, 0]), R.to_array()[:, 30])


def test_leontief_model_eliminates_once(monkeypatch):
    calls = []
    rref = linsolve.rref

    def counting_rref(*args, **kwargs):
        calls.append(args[0].rows)
        return rref(*args, **kwargs)

    monkeypatch.setattr(linsolve, "rref", counting_rref)
    rng = np.random.default_rng(11)
    n = 200
    w = rng.random((n, n))
    P = w / w.sum(axis=0) * rng.uniform(0.3, 0.6, n)
    model = leontief.LeontiefModel(Matrix.from_array(P))
    for _ in range(2):
        y = rng.uniform(1.0, 10.0, n)
        q, _ = leontief.forecast(model, Vector(y))
        assert np.allclose(q.to_array(), np.linalg.solve(np.eye(n) - P, y), rtol=1e-10)
    assert calls == [n]


# Above ONE_PANEL (32) columns the kernel works in panels; the oracle is the same
# kernel as one panel (ONE_PANEL raised past the width), one rank-1 update
# per pivot.  A matrix product sums in another order, so values agree to
# rounding, and rank decisions agree away from PIVOT_TOL.

def one_panel(f, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linsolve, "ONE_PANEL", 10**9)
        return f(*args)


def assert_close(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("n", [linsolve.ONE_PANEL + 1, 50, 100, 129, 200, 300])
def test_blocked_rref_and_inverse_match_one_panel(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n + 7))  # 7 more columns: R is not just I
    R, rank, pivots, det_factor = linsolve.rref(Matrix.from_array(A))
    want_R, want_rank, want_pivots, want_det = one_panel(linsolve.rref, Matrix.from_array(A))
    assert (rank, pivots) == (want_rank, want_pivots) == (n, tuple(range(n)))
    assert_close(R.to_array(), want_R.to_array())
    assert det_factor == pytest.approx(want_det, rel=1e-12)

    sq = Matrix.from_array(A[:, :n])
    inv = linsolve.inverse(sq).to_array()
    assert_close(inv, one_panel(linsolve.inverse, sq).to_array())
    assert np.abs(A[:, :n] @ inv - np.eye(n)).max() <= 1e-10


@given(st.integers(linsolve.ONE_PANEL + 1, 200), st.integers(linsolve.ONE_PANEL + 1, 200),
       st.integers(0, 60), st.sampled_from([1.0, 3.0, 7.0]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_blocked_rank_deficient_matches_one_panel(m, n, k, d, seed):
    rng = np.random.default_rng(seed)
    B = rng.integers(-5, 6, (m, k)).astype(float)
    C = rng.integers(-5, 6, (k, n)).astype(float)
    M = Matrix.from_array(B @ C / d)
    _, rank, pivots, _ = linsolve.rref(M)
    _, want_rank, want_pivots, _ = one_panel(linsolve.rref, M)
    assert (rank, pivots) == (want_rank, want_pivots)
    assert rank == np.linalg.matrix_rank(B @ C)


@pytest.mark.parametrize("n", [linsolve.ONE_PANEL + 1, 129, 300])
def test_blocked_replay_equals_augmented_elimination(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 2))
    e = linsolve._Elimination()
    linsolve.rref(Matrix.from_array(A), e)
    R, _, _, _ = linsolve.rref(Matrix.from_array(np.hstack([A, b])))
    assert_close(linsolve.replay(e, b), R.to_array()[:, n:])
    R, _, _, _ = linsolve.rref(Matrix.from_array(np.hstack([A, b[:, :1]])))
    assert_close(linsolve.replay(e, b[:, 0]), R.to_array()[:, n])


def test_blocked_determinant():
    rng = np.random.default_rng(200)
    A = rng.standard_normal((200, 200))
    sign, logdet = np.linalg.slogdet(A)
    assert linsolve.determinant(Matrix.from_array(A)) == pytest.approx(
        sign * np.exp(logdet), rel=1e-12)
    A[:, 150] = A[:, :150] @ rng.standard_normal(150)  # rank 199
    assert linsolve.determinant(Matrix.from_array(A)) == 0.0


def test_blocked_determinant_at_100_columns():
    A = np.random.default_rng(100).standard_normal((100, 100))
    sign, logdet = np.linalg.slogdet(A)
    assert linsolve.determinant(Matrix.from_array(A)) == pytest.approx(
        sign * np.exp(logdet), rel=1e-12)


@pytest.mark.parametrize("n", [linsolve.ONE_PANEL + 1, 100])
def test_rank_and_determinant_keep_no_panel_steps(n, monkeypatch):
    # they read pivot_cols and det alone; the replayable record gives the same
    A = np.random.default_rng(n).standard_normal((n, n))
    A[:, 7] = A[:, :7] @ np.ones(7)  # rank n - 1
    kept = linsolve._gauss_jordan(A.copy())
    records, kernel = [], linsolve._gauss_jordan
    monkeypatch.setattr(linsolve, "_gauss_jordan",
                        lambda a, *r, **k: records.append(kernel(a, *r, **k)) or records[-1])
    M = Matrix.from_array(A)
    assert linsolve.rank(M) == len(kept.pivot_cols) == n - 1
    assert not linsolve.is_regular(M)
    assert linsolve.determinant(Matrix.from_array(np.linalg.qr(A)[0])) != 0.0
    assert kept.steps and all(e.form == "panels" and e.steps == [] for e in records)
    assert len(records) == 3


def test_replay_equals_one_panel_elimination_at_one_panel_columns():
    # the widest A that is one panel: replay repeats bit for bit what
    # eliminating [A | b] as one panel leaves, though [A | b] is wider
    n = linsolve.ONE_PANEL
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 2))
    e = linsolve._Elimination()
    linsolve.rref(Matrix.from_array(A), e)
    assert e.form == "array"  # one panel
    R, _, _, _ = one_panel(linsolve.rref, Matrix.from_array(np.hstack([A, b])))
    assert np.array_equal(linsolve.replay(e, b), R.to_array()[:, n:])


# Normwise backward error |b - A x|inf / (max|A| |x|_1 + |b|inf): the forward
# pass and the back pass are Gaussian elimination with partial pivoting and a
# block back substitution, backward stable at this size.

def backward_error(A, x, b):
    return np.abs(b - A @ x).max() / (np.abs(A).max() * np.abs(x).sum() + np.abs(b).max())


@pytest.mark.parametrize("n", [2, 8, 33, 100, 300])
def test_backward_error_of_solve_and_inverse(n):
    for seed in range(20):
        rng = np.random.default_rng([n, seed])
        A, b = rng.standard_normal((n, n)), rng.standard_normal(n)
        got = linsolve.solve(linsolve.LinearSystem(Matrix.from_array(A), Vector(b)))
        assert got.kind == "unique"
        assert backward_error(A, got.particular.to_array(), b) <= 1e-15
        inv = linsolve.inverse(Matrix.from_array(A)).to_array()
        for j, e in enumerate(np.eye(n)):
            assert backward_error(A, inv[:, j], e) <= 1e-15


def test_free_columns_of_a_wide_rank_deficient_system():
    # 60 x 90 of rank 50: 20 repeated and 20 combined columns, shuffled, so
    # the free columns fall in every panel and take the back pass
    rng = np.random.default_rng(60)
    B = rng.standard_normal((60, 50))
    A = np.hstack([B, B[:, rng.integers(0, 50, 20)], B @ rng.standard_normal((50, 20))])
    A = A[:, rng.permutation(90)]
    b = A @ rng.standard_normal(90)
    got = linsolve.solve(linsolve.LinearSystem(Matrix.from_array(A), Vector(b)))
    assert got.kind == "multiple" and got.rank_A == 50 and len(got.free_directions) == 40
    for d in got.free_directions:
        d = d.to_array()
        assert np.abs(A @ d).max() <= 1e-12 * np.abs(A).max() * np.abs(d).sum()
    x = got.particular.to_array()
    assert np.abs(A @ x - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("n", [linsolve.ONE_PANEL + 1, 300])
def test_blocked_replay_of_columns_together_and_alone(n):
    rng = np.random.default_rng(n)
    e = linsolve._Elimination()
    linsolve.rref(Matrix.from_array(rng.standard_normal((n, n))), e)
    b = rng.standard_normal((n, 2))
    both = linsolve.replay(e, b)
    for j in range(2):
        assert np.array_equal(both[:, j], linsolve.replay(e, b[:, j]))


def test_kernel_outputs_equal_what_the_constructors_build():
    rng = np.random.default_rng(5)
    for n in (3, 40):
        A = Matrix.from_array(rng.standard_normal((n, n + 2)))
        R = linsolve.rref(A)[0]
        inv = linsolve.inverse(Matrix.from_array(A.to_array()[:, :n]))
        sol = linsolve.solve(linsolve.LinearSystem(A, Vector(rng.standard_normal(n))))
        for got in (R, inv):
            built = Matrix(got.rows, got.cols, got.entries)
            assert got == built and hash(got) == hash(built) and type(got._a) is type(built._a)
        for got in (sol.particular, *sol.free_directions):
            built = Vector(got.entries)
            assert got == built and hash(got) == hash(built) and type(got._a) is type(built._a)
        if type(R._a) is not tuple:
            assert not R._a.flags.writeable and not inv._a.flags.writeable
    # the kernel's values come from finite ones: only overflow makes them inf or NaN
    with pytest.raises(NumericalError, match="float range"):
        Matrix._adopt(np.array([[1.0, np.inf]] * 9), (9, 2))
    with pytest.raises(NumericalError, match="float range"):
        Vector._adopt([1.0, np.nan], (2,), orientation="col")
