"""Refusals of leontief, linsolve, linalg, finmath and simplex that no other
test reaches: each case raises the documented error type with a message that
names the problem, plus the two computations beside them."""

import pytest

from ecomath import finmath, leontief, linalg, linsolve, simplex
from ecomath.finmath import FinanceError, SequenceSpec
from ecomath.leontief import DeliveriesTable, LeontiefModel, ModelError
from ecomath.linalg import DimensionError, FormatError, Matrix, Vector

P = Matrix.from_rows([[0.2, 0.5], [0.3, 0.1]])
R = Matrix.from_rows([[1.0, 2.0]])
WITH_R = LeontiefModel(P, R)
V2, V3 = Vector((1.0, 2.0)), Vector((1.0, 2.0, 3.0))
WIDE = Matrix.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

# (id, call, error type, words the message must contain)
CASES = [
    ("table-not-square", lambda: DeliveriesTable(WIDE, V2), DimensionError,
     "must be square, got 2x3"),
    ("table-demand-size", lambda: DeliveriesTable(P, V3), DimensionError,
     "final demand dimension"),
    ("model-P-not-square", lambda: LeontiefModel(WIDE), DimensionError, "P must be square"),
    ("model-P-negative", lambda: LeontiefModel(Matrix.from_rows([[0.1, -0.2], [0.3, 0.1]])),
     ModelError, "P must be non-negative"),
    ("model-R-columns", lambda: LeontiefModel(P, Matrix.from_rows([[1.0, 2.0, 3.0]])),
     DimensionError, "one column per agent"),
    ("model-R-negative", lambda: LeontiefModel(P, Matrix.from_rows([[1.0, -2.0]])),
     ModelError, "R must be non-negative"),
    ("total-output-dimension", lambda: leontief.total_output(WITH_R, V3), DimensionError,
     "expected dimension 2, got 3"),
    ("resources-given", lambda: leontief.resource_requirements(WITH_R, V2, given="z"),
     ValueError, "given must be 'q' or 'y'"),
    ("resources-dimension", lambda: leontief.resource_requirements(WITH_R, V3, given="q"),
     DimensionError, "mismatch against R"),
    ("system-shape", lambda: linsolve.LinearSystem(P, V3), DimensionError,
     "rows(A)=2 does not match dim(b)=3"),
    ("inverse-not-square", lambda: linsolve.inverse(WIDE), DimensionError,
     "square matrix, got 2x3"),
    ("eigen-not-square", lambda: linsolve.eigen_sym(WIDE), DimensionError, "square matrix"),
    ("vector-orientation", lambda: Vector((1.0,), "diag"), ValueError,
     "unknown orientation 'diag'"),
    ("dot-dimension", lambda: linalg.dot(V2, V3), DimensionError, "dimension mismatch: 2 vs 3"),
    ("angle-dimension", lambda: linalg.angle(V2, V3), DimensionError,
     "dimension mismatch: 2 vs 3"),
    ("mat-vec-dimension", lambda: linalg.mat_vec(P, V3), DimensionError,
     "inner dimensions disagree: 2 vs 3"),
    ("vector-file-empty", lambda: linalg.parse_vector_text("# only a comment\n\n"),
     FormatError, "no data rows"),
    ("vector-file-2d", lambda: linalg.parse_vector_text("1,2\n3,4\n"), FormatError,
     "single row or column, got 2x2"),
    ("sequence-kind", lambda: SequenceSpec("harmonic", 1.0, 2.0), FinanceError,
     "kind must be 'arith' or 'geom', not 'harmonic'"),
    ("compound-n-at-q-1", lambda: finmath.compound_solve(K0=1.0, Kn=2.0, q=1.0),
     FinanceError, "solve for n at q = 1"),
    ("redemption-t-and-A", lambda: finmath.redemption_plan(R0=1e5, p=5.0, t=2.0, A=7000.0),
     FinanceError, "exactly one of t (percent) or A"),
    ("redemption-no-real-n",
     lambda: finmath.redemption_solve(Rn=100.0, R0=1000.0, q=1.05, A=10.0), FinanceError,
     "no real n"),
    ("pension-everlasting", lambda: finmath.pension_duration(1e5, 1.05, 12, 100.0),
     FinanceError, "never exhaust"),
    ("declining-one-known", lambda: finmath.depreciation_declining(1000.0, p=20.0),
     FinanceError, "give two of p, n, Rn"),
]


@pytest.mark.parametrize("call, error, words", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_refusal_names_the_problem(call, error, words):
    with pytest.raises(error) as info:
        call()
    assert words in str(info.value)


def test_compound_solves_for_q():
    assert finmath.compound_solve(K0=100.0, Kn=121.0, n=2.0) == pytest.approx(1.1, rel=1e-15)


def test_row_vector_text_is_one_line():
    v = Vector((1.0, -2.5, 3.0), "row")
    assert linalg.format_vector_text(v) == "1.0,-2.5,3.0\n"
    assert linalg.parse_vector_text(linalg.format_vector_text(v)) == v


@pytest.mark.parametrize("small", [linalg.SMALL, 0])  # float tuples, arrays
@pytest.mark.parametrize("i, j", [(-1, 1), (1, -1), (1, 5), (3, 1), (0, 1), (1, 0)])
def test_a_pivot_outside_the_variable_block_is_refused(i, j, small, monkeypatch):
    # rows run 1..m and columns 1..n+m: -1 was row m or the RHS column, and
    # column 5 (past s2) or row 3 raised a bare IndexError
    monkeypatch.setattr(linalg, "SMALL", small)
    t = simplex.canonicalize(simplex.LinearProgram("max", (3, 2), ((1, 1), (1, 0)), (4, 2)))
    grid = t.grid
    with pytest.raises(simplex.SimplexError, match=rf"no pivot at \({i},{j}\): rows run 1..2, "
                                                   r"columns 1..4"):
        simplex.pivot(t, i, j)
    assert t.basis == [0, 3, 4] and t.iteration == 0
    assert t.grid.tobytes() == grid.tobytes()
