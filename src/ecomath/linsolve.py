"""Gaussian elimination and everything built on top of it.

Row reduction with partial pivoting is the single elimination routine;
rank, determinants, inverses and solvability classification all reduce to
it.  It runs on the column lists of a float-tuple value (at most SMALL rows
and columns, see ``linalg``) and on a float64 array above that; up to ONE_PANEL
columns both take the same pivots and round each entry alike.  The small
symmetric eigenproblems come from ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import math
from typing import Optional

from .linalg import EPS_ZERO, DimensionError, Matrix, Vector
from .numeric import NumericalError, _FrozenRecord

PIVOT_TOL = 1e-10  # times max|a_ij|: smaller candidates are no pivot
ONE_PANEL = 32  # at most this many columns: one panel, one rank-1 update per pivot
NB = 16  # columns per panel above ONE_PANEL; 2 NB is the measured crossover


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
    entry alike (and turn -0.0 into 0.0 alike).  Returns the multipliers f."""
    if type(a) is list:
        p = a[j][r]
        f = a[j][:]
        f[r] = 0.0
        for k in range(first, len(a)):
            u = a[k]
            y = u[r] = u[r] / p
            a[k] = [x - fi * y for x, fi in zip(u, f)]
        return f
    a[r, first:] /= a[r, j]
    f = a[:, j].copy()
    f[r] = 0.0
    # column j comes out exactly the unit vector: p / p == 1 and f - f * 1 == 0
    a[:, first:] -= f[:, None] * a[r, first:]  # the outer product f y
    return f


def _gauss_jordan_cols(a: list, steps: Optional[list] = None):
    """_gauss_jordan's one panel on a list of column lists, in plain Python:
    the same pivots, multipliers, steps and (mant, expo), each entry rounded
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
    if steps is not None and pivots:
        steps.append((0, tuple(pivots), None))
    return len(pivots), tuple(cols), (mant, expo)


def _gauss_jordan(a, steps: Optional[list] = None):
    """Reduce a to RREF in place; a column takes no pivot if its candidates
    are within PIVOT_TOL max|a| of zero.  Returns (rank, pivot_cols,
    (mant, expo)) with det_factor = mant * 2**expo, kept apart so that the
    product of the pivots cannot overflow on the way.

    Column lists go to _gauss_jordan_cols.  On an array, up to ONE_PANEL (32)
    columns, a is one panel: one rank-1 update per pivot,
    and steps, if given, gets (0, ((swapped row, pivot, multipliers), ...),
    None).  Wider, each panel of NB columns is reduced on rows r0 on, in a
    copy whose NB more columns collect its transform's columns G at the pivot
    rows r0, r0+1, ...; the rows above then take the pivot rows in one
    product, the columns to the right G in another, and steps gets (r0,
    swapped rows, G).  Rows r0 on are zero left of the panel, so swaps need
    not touch them."""
    if type(a) is list:
        return _gauss_jordan_cols(a, steps)
    import numpy as np
    m, n = a.shape
    tol = PIVOT_TOL * np.abs(a).max()
    nb = n if n <= ONE_PANEL else NB
    mant, expo = 1.0, 0
    pivot_cols = []
    r0 = 0
    for j0 in range(0, n, nb):
        w = min(nb, n - j0)
        blocked = w < n
        P = np.hstack([a[:, j0:j0 + w], np.zeros((m, w))]) if blocked else a
        Q, pivots, cols = P[r0:], [], []  # Q's row r is a's row r0 + r
        for c in range(w):
            r = len(pivots)
            if r0 + r >= m:
                break
            col = np.abs(Q[r:, c])
            i = r + int(col.argmax())  # argmax returns the first maximum
            if col[i - r] <= tol:
                Q[r:, c] = 0.0  # structural zero, keep the tail clean
                continue
            if i != r:
                Q[r], Q[i] = Q[i].copy(), Q[r].copy()
                mant = -mant
            p = Q[r, c]
            # mant * p rounds like the plain product: frexp and ldexp are exact
            pm, pe = math.frexp(p)
            mant, me = math.frexp(mant * pm)
            expo += pe + me
            if blocked:
                Q[r, w + r] = 1.0  # the transform's column for row r, so far e_r
            # row r is zero left of c; the transform's later columns are still zero
            f = _pivot_step(Q[:, :w + r + 1] if blocked else Q, r, c, first=c)
            pivots.append((i, p, f))
            cols.append(c)
        k = len(pivots)
        if not blocked:
            step = (0, tuple(pivots), None)
        else:
            P[:r0] -= P[:r0, cols] @ Q[:k]
            a[:, j0:j0 + w] = P[:, :w]
            step = (r0, tuple(i for i, _, _ in pivots), P[:, w:w + k].copy())
            _apply_panel(a[:, j0 + w:], *step)
        if steps is not None and k:
            steps.append(step)
        pivot_cols += [j0 + c for c in cols]
        r0 += k
        if r0 >= m:
            break
    return r0, tuple(pivot_cols), (mant, expo)


def _apply_panel(b, r0: int, rows: tuple, G) -> None:
    """One panel's row operations on b, in place: its swaps among rows r0 on,
    then b <- b + (G - I_S) b_S at its pivot rows S, one matrix product."""
    v = b[r0:]
    for r, i in enumerate(rows):
        if i != r:
            v[r], v[i] = v[i].copy(), v[r].copy()
    b_s = v[:len(rows)].copy()
    v[:len(rows)] = 0.0
    b += G @ b_s


def _work(M: Matrix):
    """A writable copy of M for the kernel: the column lists of a float-tuple
    value, else an array."""
    a, c = M._a, M.cols
    return [list(a[j::c]) for j in range(c)] if type(a) is tuple else M.to_array().copy()


def _from_cols(a: list) -> Matrix:
    """The matrix whose columns are the lists in a."""
    return Matrix(len(a[0]), len(a), [col[i] for i in range(len(a[0])) for col in a])


def rref(M: Matrix, steps: Optional[list] = None) -> tuple[Matrix, int, tuple[int, ...], float]:
    """Reduced row-echelon form via partial pivoting, by blocked Gauss-Jordan.

    Returns (R, rank, pivot_cols, det_factor) where det_factor accumulates
    the effect of row swaps and scalings, so for a square input
    det(M) = det_factor * det(R); it is +-inf beyond the float range.
    Pivots are chosen by maximum absolute value, ties broken by smallest row
    index; a column whose candidates are all within PIVOT_TOL times the
    largest entry of M has no pivot, so the rank does not depend on the scale
    of M.  Above ONE_PANEL (32) columns the panel products round in another
    order than one rank-1 update per pivot, so a candidate within rounding of
    that tolerance can take the other side of it.  If ``steps`` is a list,
    the row operations are recorded in it for ``replay``, one entry per panel.
    """
    a = _work(M)
    rk, pivot_cols, (mant, expo) = _gauss_jordan(a, steps)
    det_factor = math.ldexp(mant, expo) if expo <= 1024 else math.copysign(math.inf, mant)
    R = _from_cols(a) if type(a) is list else Matrix.from_array(a)
    return R, rk, pivot_cols, det_factor


def replay(steps: list, b):
    """The row operations recorded by ``rref(M, steps)`` applied to a copy of
    b: a list of floats (one column) for a float-tuple M, else an array of one
    or more columns, and the result takes b's form.  Up to ONE_PANEL (32)
    columns of M, that is what eliminating [M | b] as one panel leaves there,
    bit for bit.  Wider, each panel is one matrix product, which sums in
    another order than the elimination of [M | b], so the two agree to
    rounding."""
    if type(b) is list:
        b = b[:]
        for _, pivots, _ in steps:
            for r, (i, p, f) in enumerate(pivots):
                if i != r:
                    b[r], b[i] = b[i], b[r]
                y = b[r] = b[r] / p
                b = [x - fk * y for x, fk in zip(b, f)]
        return b
    import numpy as np
    b = np.array(b, dtype=float)
    for r0, pivots, G in steps:
        if G is not None:
            _apply_panel(b, r0, pivots, G)
            continue
        for r, (i, p, f) in enumerate(pivots):  # one panel: a rank-1 update per pivot
            if i != r:
                b[r], b[i] = b[i].copy(), b[r].copy()
            b[r] = b[r] / p
            b -= np.multiply.outer(f, b[r])
    return b


def _replay_identity(steps: list, M: Matrix) -> Matrix:
    """The row operations recorded for the square M replayed on I: M's
    inverse.  For a float-tuple M, replay's list loop on each column of I,
    which skips a step whose pivot-row entry is 0: no column of I ever holds
    -0.0, so x - f 0 would leave every entry as it is (a non-finite f makes
    the inverse non-finite either way)."""
    n = M.rows
    if type(M._a) is not tuple:
        import numpy as np
        return Matrix.from_array(replay(steps, np.eye(n)))
    cols = []
    for j in range(n):
        b = [0.0] * n
        b[j] = 1.0
        for _, pivots, _ in steps:
            for r, (i, p, f) in enumerate(pivots):
                if i != r:
                    b[r], b[i] = b[i], b[r]
                if b[r] != 0.0:
                    y = b[r] = b[r] / p
                    b = [x - fk * y for x, fk in zip(b, f)]
        cols.append(b)
    return _from_cols(cols)


def rank(M: Matrix) -> int:
    return rref(M)[1]


def solve(sys: LinearSystem) -> SolutionSet:
    """Classify and solve A x = b by eliminating A and replaying it on b; b
    is inconsistent if below the rank it keeps an entry over PIVOT_TOL max|b|."""
    steps: list = []
    R, rank_A, pivots_A, _ = rref(sys.A, steps)
    b = sys.b  # in the form of A's steps: a wide A can have a short b
    y = replay(steps, list(b.entries) if type(sys.A._a) is tuple else b.to_array())
    if max(map(abs, y[rank_A:]), default=0.0) > PIVOT_TOL * max(map(abs, b.entries)):
        return SolutionSet("none", None, (), rank_A, rank_A + 1)

    n = sys.A.cols
    particular = [0.0] * n
    for k, j in enumerate(pivots_A):
        particular[j] = y[k]
    if rank_A == n:
        return SolutionSet("unique", Vector(particular), (), rank_A, rank_A)

    # one direction per free column f: 1 at f, minus column f of R at the pivots
    directions = []
    for f in (j for j in range(n) if j not in pivots_A):
        d = [0.0] * n
        d[f] = 1.0
        for k, j in enumerate(pivots_A):
            d[j] = -R[k, f]
        directions.append(Vector(d))
    return SolutionSet("multiple", Vector(particular), tuple(directions), rank_A, rank_A)


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
    rk, _, (mant, expo) = _gauss_jordan(a)
    if rk < n:
        return 0.0
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
    """Inverse by replaying the elimination of A on I, which equals
    eliminating [A | I]; singular exactly when A has rank below n."""
    if not A.is_square:
        raise DimensionError(f"inverse needs a square matrix, got {A.rows}x{A.cols}")
    steps: list = []
    rk, _, _ = _gauss_jordan(_work(A), steps)
    if rk < A.rows:
        raise SingularMatrixError(f"matrix is singular (rank {rk} < {A.rows})")
    return _replay_identity(steps, A)


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
