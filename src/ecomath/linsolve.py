"""Gaussian elimination and everything built on top of it.

Row reduction with partial pivoting is the single elimination routine;
rank, determinants, inverses and solvability classification all reduce to
it.  It runs on the column lists of a float-tuple value (at most SMALL rows
and columns, see ``linalg``) and on a float64 array above that; up to ONE_PANEL
columns both are one Gauss-Jordan panel, take the same pivots and round each
entry alike.  Wider, the array kernel is the forward pass alone: each panel
of NB columns is reduced by Gauss-Jordan on its own rows and below, which
leaves an upper factor with identity diagonal blocks, and the back pass,
one product per panel, runs only on what a caller reads: b in ``replay``, I
in ``inverse``, the non-pivot columns in ``rref``.  The kernel returns the
record of its row operations, an ``_Elimination``, which ``rref`` fills for
a caller and ``replay`` runs on b.  ``determinant``, ``rank`` and
``is_regular`` stop after the forward pass.  NumPy's floating-point warnings
are off, as plain floats have none: a result past the float range is a
NumericalError.  The small symmetric eigenproblems come from
``numpy.linalg.eigh``."""

from __future__ import annotations

import math

from .linalg import EPS_ZERO, DimensionError, Matrix, Vector
from .numeric import NumericalError, _FrozenRecord

PIVOT_TOL = 1e-10  # times max|a_ij|: smaller candidates are no pivot
# at most ONE_PANEL columns: one Gauss-Jordan panel, one rank-1 update per
# pivot; 2 NB is the measured crossover to panels
ONE_PANEL = 32
NB = 16  # columns per panel above ONE_PANEL; 16 was measured against 8, 32 and 64


class SingularMatrixError(ValueError):
    pass


class DeterminantOverflowError(NumericalError, OverflowError):
    """|det| lies beyond the largest float."""


class LinearSystem(_FrozenRecord):
    """A x = b with an m x n coefficient matrix and an m-dim image vector."""

    __slots__ = ("A", "b")

    def __post_init__(self):
        if self.A.rows != self.b.n:
            raise DimensionError(
                f"rows(A)={self.A.rows} does not match dim(b)={self.b.n}"
            )


class SolutionSet(_FrozenRecord):
    """Classification and parametrization of the solutions of a LinearSystem.

    kind is one of "none", "unique", "multiple".  For "multiple" the full
    solution set is particular + span(free_directions); each free direction
    carries entry 1 at its free column.
    """

    __slots__ = ("kind", "particular", "free_directions", "rank_A", "rank_Ab")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "particular": list(self.particular.entries) if self.particular else None,
            "free_directions": [list(v.entries) for v in self.free_directions],
            "rank_A": self.rank_A,
            "rank_Ab": self.rank_Ab,
        }


def _pivot_step(a, r: int, j: int, first: int = 0):
    """One Gauss-Jordan step on a (a list of column lists, or an array), in
    place: scale row r by its pivot a[r, j], then clear column j elsewhere by
    one rank-1 update x - f y of the columns from ``first`` on (row r must be
    zero left of them), row r included with f = 0, so both forms round each
    entry alike.  Returns the multipliers f.

    Only the simplex reaches the array branch, which does not read first: it
    works on every column through one view y of row r, divides y, subtracts
    the product f y formed by einsum and adds 0.0 to y last.  A zero product
    comes out 0.0 there where the list's f * y can give -0.0, and x - f y
    tells the two apart only for x = -0.0; where y = x / p underflows to
    -0.0, the list's y - 0 y and the array's y + 0.0 both make it 0.0.  So
    on input with no -0.0 both forms agree bit for bit and leave none."""
    if type(a) is list:
        p = a[j][r]
        f = a[j][:]
        f[r] = 0.0
        for k in range(first, len(a)):
            u = a[k]
            y = u[r] = u[r] / p
            a[k] = [x - fi * y for x, fi in zip(u, f)]
        return f
    import numpy as np
    y = a[r]
    y /= y[j]
    f = a[:, j].copy()
    f[r] = 0.0
    # column j comes out exactly the unit vector: p / p == 1 and f - f * 1 == 0
    a -= np.einsum("i,j->ij", f, y)  # the outer product f y
    y += 0.0
    return f


class _Elimination:
    """One elimination's row operations, to replay on other columns, its
    pivot_cols (as many as the rank) and det = (mant, expo), the determinant
    factor mant * 2**expo.  steps takes the form the matrix had: on column
    lists ("list") and on an array of up to ONE_PANEL columns ("array"), one
    panel's (swapped row, pivot, multipliers) per pivot; on a wider array
    ("panels"), the forward pass's (r0, moves, F) per panel, F's rows r0 on
    the transform G, its rows above r0 the upper factor's block at the
    panel's pivot columns.  The empty record replays as the identity."""

    __slots__ = ("form", "steps", "pivot_cols", "det")

    def __init__(self, form="list", steps=(), pivot_cols=(), det=(1.0, 0)):
        self.form, self.steps, self.pivot_cols, self.det = form, steps, pivot_cols, det

    def _replay(self, b, mul=None):
        """The row operations on b: a fresh list of floats with no -0.0, by
        the one list loop, which skips a step whose pivot-row entry is 0 (x -
        f 0 would leave every entry as it is); else a float array of one or
        more columns, in place, with mul for panel products."""
        if self.form == "list":
            for r, (i, p, f) in enumerate(self.steps):
                if i != r:
                    b[r], b[i] = b[i], b[r]
                if b[r] != 0.0:
                    y = b[r] = b[r] / p
                    b = [x - fk * y for x, fk in zip(b, f)]
            return b
        if self.form == "array":  # one panel: a rank-1 update per pivot
            import numpy as np
            for r, (i, p, f) in enumerate(self.steps):
                if i != r:
                    b[r], b[i] = b[i].copy(), b[r].copy()
                b[r] = b[r] / p
                b -= np.multiply.outer(f, b[r])
            return b
        for r0, moves, F in self.steps:
            _forward(b[r0:], moves, F[r0:], mul)
        return self._back(b, mul)

    def _back(self, b, mul):
        """The back pass on b, in place, after every panel's forward
        operations: from the last panel up, the rows above its r0 lose its
        upper-factor block times its pivot rows, one product per panel."""
        for r0, _, F in reversed(self.steps):
            b[:r0] -= mul(F[:r0], b[r0:r0 + F.shape[1]])
        return b

    def inverse(self) -> Matrix:
        """The row operations of a regular square matrix replayed on I, its
        inverse: the list loop on each column, or products on all of I."""
        n = len(self.pivot_cols)
        if self.form == "list":
            return _from_cols([self._replay([0.0] * j + [1.0] + [0.0] * (n - 1 - j))
                               for j in range(n)])
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            return Matrix._adopt(self._replay(np.eye(n), np.matmul), (n, n))


def _gauss_jordan_cols(a: list) -> _Elimination:
    """_gauss_jordan's one panel on a list of column lists, in plain Python:
    the same pivots, multipliers and (mant, expo), each entry rounded
    alike."""
    m = len(a[0])
    tol = PIVOT_TOL * max([abs(v) for col in a for v in col])
    mant, expo, pivots, cols = 1.0, 0, [], []
    for c, col in enumerate(a):
        r = len(pivots)
        if r >= m:
            break
        cand = [abs(v) for v in col[r:]]
        big = max(cand)
        if big <= tol:
            col[r:] = [0.0] * (m - r)  # structural zero, keep the tail clean
            continue
        i = r + cand.index(big)  # the first maximum, as argmax
        if i != r:
            for u in a:
                u[r], u[i] = u[i], u[r]
            mant = -mant
        p = col[r]
        pm, pe = math.frexp(p)
        mant, me = math.frexp(mant * pm)
        expo += pe + me
        pivots.append((i, p, _pivot_step(a, r, c, first=c)))
        cols.append(c)
    return _Elimination("list", tuple(pivots), tuple(cols), (mant, expo))


def _reduce_panel(W, w: int, tol: float, mant: float, expo: int):
    """Gauss-Jordan on a transposed panel in place: row c < w of W is column c
    of the panel, its columns are the rows, and the rows from w on, if any,
    are zero and collect the transform's columns, row w + r for pivot row r.
    A candidate column within tol of zero takes no pivot.  Each entry rounds
    as in _pivot_step on the untransposed panel.  Returns the pivots
    [(swapped row, pivot, multipliers), ...], their columns and (mant, expo)
    updated by them."""
    import numpy as np
    pivots, cols = [], []
    for c in range(w):
        r = len(pivots)
        if r >= W.shape[1]:
            break
        i = r + int(np.abs(W[c, r:]).argmax())  # argmax returns the first maximum
        p = float(W[c, i])
        if abs(p) <= tol:
            W[c, r:] = 0.0  # structural zero, keep the tail clean
            continue
        # the rows of W above c are 0.0 at r and i; the transform's later rows are zero
        V = W[c:w + r + 1]
        if i != r:
            t = V[:, r].copy()
            V[:, r] = V[:, i]
            V[:, i] = t
            mant = -mant
        # mant * p rounds like the plain product: frexp and ldexp are exact
        pm, pe = math.frexp(p)
        mant, me = math.frexp(mant * pm)
        expo += pe + me
        if len(W) > w:
            W[w + r, r] = 1.0  # the transform's column for row r, so far e_r
        f = W[c].copy()
        f[r] = 0.0
        y = V[:, r]
        y /= p
        # row c comes out exactly the unit vector: p / p == 1 and f - 1 f == 0
        V -= np.multiply.outer(y, f)
        pivots.append((i, p, f))
        cols.append(c)
    return pivots, cols, mant, expo


def _gauss_jordan(a) -> _Elimination:
    """Eliminate a in place; a column takes no pivot if its candidates are
    within PIVOT_TOL max|a| of zero.  Returns the _Elimination.

    Column lists go to _gauss_jordan_cols.  On an array of up to ONE_PANEL
    (32) columns, a is one panel, reduced to RREF in a transposed copy (one
    rank-1 update per pivot).  Wider, this is the forward pass alone.
    Each panel of NB columns is reduced by Gauss-Jordan on rows r0 on, in a
    transposed copy whose NB more rows collect its transform G; rows above
    r0 are never touched, so a ends block upper triangular with identity
    diagonal blocks at the pivots, and only the back pass
    (_Elimination._back) clears above them.  The columns to the right take
    the panel's row moves and G's two products (_forward)."""
    if type(a) is list:
        return _gauss_jordan_cols(a)
    import numpy as np
    m, n = a.shape
    tol = PIVOT_TOL * max(a.max(), -a.min())  # max|a|, with no |a| temporary
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= ONE_PANEL:
            W = a.T.copy()
            pivots, cols, mant, expo = _reduce_panel(W, n, tol, 1.0, 0)
            a[...] = W.T
            return _Elimination("array", tuple(pivots), tuple(cols), (mant, expo))
        mant, expo, r0, pivot_cols, steps = 1.0, 0, 0, [], []
        for j0 in range(0, n, NB):
            w = min(NB, n - j0)
            W = np.zeros((2 * w, m - r0))
            W[:w] = a[r0:, j0:j0 + w].T  # rows r0 on are zero left of the panel
            pivots, cols, mant, expo = _reduce_panel(W, w, tol, mant, expo)
            a[r0:, j0:j0 + w] = W[:w].T
            k, cols = len(pivots), [j0 + c for c in cols]
            if k:
                moves = _moves([i for i, _, _ in pivots])
                G = W[w:w + k].T
                _forward(a[r0:, j0 + w:], moves, G, np.matmul)
                steps.append((r0, moves, np.vstack([a[:r0, cols], G])))
            pivot_cols += cols
            r0 += k
            if r0 >= m:
                break
    return _Elimination("panels", steps, tuple(pivot_cols), (mant, expo))


def _moves(rows: list) -> tuple:
    """The swaps of rows r and rows[r], in turn, as one move (to, frm):
    v[to] = v[frm] applies them all at once."""
    at = {}  # position -> the row that ends there
    for r, i in enumerate(rows):
        if i != r:
            at[r], at[i] = at.get(i, i), at.get(r, r)
    to = [t for t, f in at.items() if t != f]
    return to, [at[t] for t in to]


def _forward(v, moves, G, mul) -> None:
    """One panel's forward row operations on v, the rows from its r0 on, in
    place: the row moves, then v <- G v_top at the k pivot rows and
    v + G v_top below them, with mul for the products."""
    to, frm = moves
    if to:
        v[to] = v[frm]
    k = G.shape[1]
    v[k:] += mul(G[k:], v[:k])
    v[:k] = mul(G[:k], v[:k])


def _columnwise(G, x):
    """G x, each column of x by the matrix-vector product that it gets
    alone, so a column's result does not depend on the columns beside it."""
    return G @ x if x.ndim == 1 else (G @ x.T[:, :, None])[:, :, 0].T


def _work(M: Matrix):
    """A writable copy of M for the kernel: the column lists of a float-tuple
    value, else an array."""
    a, c = M._a, M.cols
    return [list(a[j::c]) for j in range(c)] if type(a) is tuple else M.to_array().copy()


def _from_cols(a: list) -> Matrix:
    """The matrix whose columns are the lists in a."""
    return Matrix._adopt([col[i] for i in range(len(a[0])) for col in a], (len(a[0]), len(a)))


def rref(M: Matrix, e: _Elimination | None = None) -> tuple[Matrix, int, tuple[int, ...], float]:
    """Reduced row-echelon form via partial pivoting.

    Returns (R, rank, pivot_cols, det_factor) where det_factor accumulates
    the effect of row swaps and scalings, so for a square input
    det(M) = det_factor * det(R); it is +-inf beyond the float range.
    Pivots are chosen by maximum absolute value, ties broken by smallest row
    index; a column whose candidates are all within PIVOT_TOL times the
    largest entry of M has no pivot, so the rank does not depend on the scale
    of M.  Up to ONE_PANEL (32) columns R is one panel's Gauss-Jordan
    elimination.  Wider, it is the forward pass in panels of NB columns,
    whose products round in another order than one rank-1 update per pivot
    (a candidate within rounding of the tolerance can take the other side of
    it), then the back pass on M's non-pivot columns alone; the pivot
    columns are unit vectors, so a regular square M gets R = I.  If e, an
    empty ``_Elimination()``, is given, rref fills it with the elimination,
    for ``replay``.  An entry of R past the float range is a NumericalError.
    """
    a = _work(M)
    done = _gauss_jordan(a)
    if e is not None:  # fill the caller's record, for replay
        e.__init__(done.form, done.steps, done.pivot_cols, done.det)
    rk, pivot_cols, (mant, expo) = len(done.pivot_cols), done.pivot_cols, done.det
    det_factor = math.ldexp(mant, expo) if expo <= 1024 else math.copysign(math.inf, mant)
    if done.form == "list":
        return _from_cols(a), rk, pivot_cols, det_factor
    if done.form == "panels":  # the forward pass: R from the back pass
        import numpy as np
        free = sorted(set(range(M.cols)) - set(pivot_cols))
        with np.errstate(over="ignore", invalid="ignore"):
            a[:, free] = done._back(a[:, free], np.matmul)
        a[:, pivot_cols] = 0.0
        a[range(rk), pivot_cols] = 1.0
    return Matrix._adopt(a, a.shape), rk, pivot_cols, det_factor


def replay(e: _Elimination, b):
    """The row operations of e, the record ``rref`` filled for M, on a copy
    of b (floats, or an array of one or more columns) with 0.0 added, so it
    holds no -0.0: a list for a record made on column lists, else an array.
    That is what eliminating [M | b] to RREF leaves in b.  Up to ONE_PANEL
    (32) columns of M, it is that bit for bit, on either form.  Wider, each
    panel's forward operations run in turn, then the back pass, one
    matrix-vector product per column and step, so a column's result does
    not depend on the columns beside it; the products sum in another order
    than the elimination of [M | b], so the two agree to rounding."""
    if e.form == "list":
        return e._replay([x + 0.0 for x in b])
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        return e._replay(np.add(b, 0.0), _columnwise)


def rank(M: Matrix) -> int:
    """The rank, from the forward pass alone."""
    return len(_gauss_jordan(_work(M)).pivot_cols)


def solve(sys: LinearSystem) -> SolutionSet:
    """Classify and solve A x = b by eliminating A and replaying it on b; b
    is inconsistent if below the rank it keeps an entry over PIVOT_TOL max|b|.
    A solution past the float range is a NumericalError."""
    e = _Elimination()
    R, rank_A, pivots_A, _ = rref(sys.A, e)
    y = replay(e, sys.b._a)
    y = y if type(y) is list else y.tolist()
    if max(map(abs, y[rank_A:]), default=0.0) > PIVOT_TOL * max(map(abs, sys.b.entries)):
        return SolutionSet("none", None, (), rank_A, rank_A + 1)

    n = sys.A.cols
    particular = [0.0] * n
    for k, j in enumerate(pivots_A):
        particular[j] = y[k]
    particular = Vector._adopt(particular, (n,), orientation="col")
    if rank_A == n:
        return SolutionSet("unique", particular, (), rank_A, rank_A)

    # one direction per free column f: 1 at f, minus column f of R at the pivots
    directions, a = [], R._a
    for f in (j for j in range(n) if j not in pivots_A):
        col = a[f::n] if type(a) is tuple else a[:, f].tolist()
        d = [0.0] * n
        d[f] = 1.0
        for k, j in enumerate(pivots_A):
            d[j] = -col[k]
        directions.append(Vector._adopt(d, (n,), orientation="col"))
    return SolutionSet("multiple", particular, tuple(directions), rank_A, rank_A)


def determinant(A: Matrix) -> float:
    """Determinant: closed forms for n = 2, 3 while they stay finite,
    otherwise the product of the pivots of the column-equilibrated matrix.
    Raises DeterminantOverflowError when |det| exceeds the float range."""
    if not A.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {A.rows}x{A.cols}")
    n = A.rows
    if n in (2, 3):
        a = [A.row(i) for i in range(n)]
        if n == 2:
            det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        else:
            det = (
                a[0][0] * a[1][1] * a[2][2]
                + a[0][1] * a[1][2] * a[2][0]
                + a[0][2] * a[1][0] * a[2][1]
                - a[0][2] * a[1][1] * a[2][0]
                - a[0][0] * a[1][2] * a[2][1]
                - a[0][1] * a[1][0] * a[2][2]
            )
        if math.isfinite(det):
            return det
    # scale each column by a power of two to a largest entry in [0.5, 1):
    # exact, and a column is pivot-free only when it is negligible against
    # its own scale, not against the largest entry of A
    a = _work(A)
    if type(a) is list:
        col_expo = [math.frexp(max(map(abs, col)))[1] for col in a]
        a = [[math.ldexp(v, -e) for v in col] for col, e in zip(a, col_expo)]
    else:
        import numpy as np
        _, col_expo = np.frexp(np.abs(a).max(axis=0))
        a = np.ldexp(a, -col_expo)
    e = _gauss_jordan(a)
    if len(e.pivot_cols) < n:
        return 0.0
    mant, expo = e.det
    expo += int(sum(col_expo))
    if expo > 1024:  # |det| >= 0.5 * 2**1025, past the largest float
        log10 = math.log10(abs(mant)) + expo * math.log10(2.0)
        raise DeterminantOverflowError(f"|det| = 10^{log10:.1f} exceeds the float range")
    return math.ldexp(mant, expo)  # det(R) = 1 for a regular matrix


def is_regular(A: Matrix) -> bool:
    """Square with full rank, decided by the scale-aware elimination, as for
    rank and inverse.  From n = 4 on, determinant judges each column against
    its own scale instead, so a nonzero determinant does not imply this."""
    return A.is_square and rank(A) == A.rows


def inverse(A: Matrix) -> Matrix:
    """Inverse by replaying the elimination of A on I, forward pass and back
    pass, which equals eliminating [A | I]; singular exactly when A has rank
    below n.  An entry past the float range is a NumericalError."""
    if not A.is_square:
        raise DimensionError(f"inverse needs a square matrix, got {A.rows}x{A.cols}")
    e = _gauss_jordan(_work(A))
    if len(e.pivot_cols) < A.rows:
        raise SingularMatrixError(f"matrix is singular (rank {len(e.pivot_cols)} < {A.rows})")
    return e.inverse()


def eigen_sym(A: Matrix) -> list[tuple[float, Vector]]:
    """Eigenpairs of a symmetric matrix, n <= 3, by ``numpy.linalg.eigh``: n
    pairs (lambda, v), eigenvalues ascending and repeated ones included, with
    orthonormal eigenvectors.  Symmetric means max|a - a^T| <= EPS_ZERO max|a|."""
    if not A.is_square:
        raise DimensionError("eigen_sym needs a square matrix")
    if A.rows > 3:
        raise DimensionError("eigen_sym supports n <= 3 only")
    import numpy as np
    a = A.to_array()
    if np.abs(a - a.T).max() > EPS_ZERO * np.abs(a).max():
        raise ValueError("matrix is not symmetric")
    lams, V = np.linalg.eigh(a)
    return [(float(lam), Vector(v)) for lam, v in zip(lams, V.T)]
