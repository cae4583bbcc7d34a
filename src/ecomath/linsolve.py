"""Gaussian elimination and everything built on top of it.

Row reduction with partial pivoting is the single elimination routine;
rank, determinants, inverses, solvability classification and the small
symmetric eigenproblems all reduce to it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import EPS_ZERO, DimensionError, Matrix, Vector
from .numeric import NumericalError

PIVOT_TOL = 1e-10  # times max|a_ij|: smaller candidates are no pivot


class SingularMatrixError(ValueError):
    pass


class DeterminantOverflowError(NumericalError, OverflowError):
    """|det| lies beyond the largest float."""


@dataclass(frozen=True)
class LinearSystem:
    """A x = b with an m x n coefficient matrix and an m-dim image vector."""

    A: Matrix
    b: Vector

    def __post_init__(self):
        if self.A.rows != self.b.n:
            raise DimensionError(
                f"rows(A)={self.A.rows} does not match dim(b)={self.b.n}"
            )


@dataclass(frozen=True)
class SolutionSet:
    """Classification and parametrization of the solutions of a LinearSystem.

    kind is one of "none", "unique", "multiple".  For "multiple" the full
    solution set is particular + span(free_directions); each free direction
    carries entry 1 at its free column.
    """

    kind: str
    particular: Optional[Vector]
    free_directions: tuple[Vector, ...]
    rank_A: int
    rank_Ab: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "particular": list(self.particular.entries) if self.particular else None,
            "free_directions": [list(v.entries) for v in self.free_directions],
            "rank_A": self.rank_A,
            "rank_Ab": self.rank_Ab,
        }


def _pivot_step(a: np.ndarray, r: int, j: int, first: int = 0) -> np.ndarray:
    """One Gauss-Jordan step on a, in place: scale row r by its pivot a[r, j],
    then clear column j elsewhere by one rank-1 update of the columns from
    ``first`` on (row r must be zero left of them).  Returns the multipliers."""
    a[r, first:] /= a[r, j]
    f = a[:, j].copy()
    f[r] = 0.0
    # column j comes out exactly the unit vector: p / p == 1 and f - f * 1 == 0
    a[:, first:] -= np.multiply.outer(f, a[r, first:])
    return f


def _gauss_jordan(a: np.ndarray, steps: Optional[list] = None, free: int = -1):
    """Reduce a to RREF in place; a column takes no pivot if its candidates
    are within PIVOT_TOL max|a| of zero, nor if it is column ``free``.  Returns
    (rank, pivot_cols, (mant, expo)) with det_factor = mant * 2**expo, kept
    apart so that the product of the pivots cannot overflow on the way;
    appends (swapped row, pivot, multipliers) per pivot to steps if given."""
    m, n = a.shape
    tol = PIVOT_TOL * np.abs(a).max()
    mant, expo = 1.0, 0
    pivot_cols = []
    r = 0
    for j in range(n):
        if r >= m:
            break
        col = np.abs(a[r:, j])
        i = r + int(col.argmax())  # argmax returns the first maximum
        if col[i - r] <= tol or j == free:
            a[r:, j] = 0.0  # structural zero, keep the tail clean
            continue
        if i != r:
            a[r], a[i] = a[i].copy(), a[r].copy()
            mant = -mant
        p = a[r, j]
        # mant * p rounds like the plain product: frexp and ldexp are exact
        pm, pe = math.frexp(p)
        mant, me = math.frexp(mant * pm)
        expo += pe + me
        f = _pivot_step(a, r, j, first=j)  # row r is zero left of j
        if steps is not None:
            steps.append((i, p, f))
        pivot_cols.append(j)
        r += 1
    return r, tuple(pivot_cols), (mant, expo)


def rref(M: Matrix, steps: Optional[list] = None) -> tuple[Matrix, int, tuple[int, ...], float]:
    """Reduced row-echelon form via partial pivoting.

    Returns (R, rank, pivot_cols, det_factor) where det_factor accumulates
    the effect of row swaps and scalings, so for a square input
    det(M) = det_factor * det(R); it is +-inf beyond the float range.
    Pivots are chosen by maximum absolute value, ties broken by smallest row
    index; a column whose candidates are all within PIVOT_TOL times the
    largest entry of M has no pivot, so the rank does not depend on the scale
    of M.  If ``steps`` is a list, the row operations are recorded in it for
    ``replay``.
    """
    a = M.to_array().copy()
    rk, pivot_cols, (mant, expo) = _gauss_jordan(a, steps)
    det_factor = math.ldexp(mant, expo) if expo <= 1024 else math.copysign(math.inf, mant)
    return Matrix.from_array(a), rk, pivot_cols, det_factor


def replay(steps: list, b) -> np.ndarray:
    """The row operations recorded by ``rref(M, steps)`` applied to a copy of
    b (one or more columns): bit for bit what eliminating [M | b] leaves there."""
    b = np.array(b, dtype=float)
    for r, (i, p, f) in enumerate(steps):
        if i != r:
            b[r], b[i] = b[i].copy(), b[r].copy()
        b[r] = b[r] / p
        b -= np.multiply.outer(f, b[r])
    return b


def rank(M: Matrix) -> int:
    return rref(M)[1]


def _null_space(R: np.ndarray, pivots: tuple[int, ...]) -> list[np.ndarray]:
    """One direction per free column f of the RREF R: 1 at f, and minus
    column f of R at the pivot columns."""
    out = []
    for f in (j for j in range(R.shape[1]) if j not in pivots):
        d = np.zeros(R.shape[1])
        d[f] = 1.0
        d[list(pivots)] = -R[: len(pivots), f]
        out.append(d)
    return out


def solve(sys: LinearSystem) -> SolutionSet:
    """Classify and solve A x = b by eliminating A and replaying it on b; b
    is inconsistent if below the rank it keeps an entry over PIVOT_TOL max|b|."""
    b = sys.b.to_array()
    steps: list = []
    R, rank_A, pivots_A, _ = rref(sys.A, steps)
    y = replay(steps, b)
    if np.abs(y[rank_A:]).max(initial=0.0) > PIVOT_TOL * np.abs(b).max():
        return SolutionSet("none", None, (), rank_A, rank_A + 1)

    n = sys.A.cols
    particular = np.zeros(n)
    particular[list(pivots_A)] = y[:rank_A]
    if rank_A == n:
        return SolutionSet("unique", Vector(particular), (), rank_A, rank_A)

    directions = tuple(Vector(d) for d in _null_space(R.to_array(), pivots_A))
    return SolutionSet("multiple", Vector(particular), directions, rank_A, rank_A)


def determinant(A: Matrix) -> float:
    """Determinant: closed forms for n = 2, 3 while they stay finite,
    otherwise the product of the pivots of the column-equilibrated matrix.
    Raises DeterminantOverflowError when |det| exceeds the float range."""
    if not A.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {A.rows}x{A.cols}")
    n = A.rows
    if n in (2, 3):
        a = A.to_array().tolist()
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
    _, col_expo = np.frexp(np.abs(A.to_array()).max(axis=0))
    rk, _, (mant, expo) = _gauss_jordan(np.ldexp(A.to_array(), -col_expo))
    if rk < n:
        return 0.0
    expo += int(col_expo.sum())
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
    rk, _, _ = _gauss_jordan(A.to_array().copy(), steps)
    if rk < A.rows:
        raise SingularMatrixError(f"matrix is singular (rank {rk} < {A.rows})")
    return Matrix.from_array(replay(steps, np.eye(A.rows)))


# ---------------------------------------------------------------------------
# Symmetric eigenproblems for n <= 3 via the characteristic equation.
# ---------------------------------------------------------------------------

def _char_poly_coeffs(a: np.ndarray) -> list[float]:
    """Coefficients of det(A - t*I) for a 3x3 A, highest power first:
    det(A - tI) = -t^3 + tr(A) t^2 - c1 t + det(A)."""
    tr = float(np.trace(a))
    c1 = (
        a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    )
    det = determinant(Matrix.from_array(a))
    return [-1.0, tr, -c1, det]


def _cubic_real_roots(coeffs: list[float]) -> list[float]:
    """All real roots of a cubic with real coefficients.

    Depressed-cubic Cardano/trigonometric evaluation followed by one
    Newton polish step per root.
    """
    a, b, c, d = coeffs
    b, c, d = b / a, c / a, d / a
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    roots: list[float]
    if disc > EPS_ZERO:
        u = cmath.exp(cmath.log(-q / 2.0 + cmath.sqrt(disc)) / 3.0)
        t = u - p / (3.0 * u)
        roots = [t.real + shift]
    elif abs(p) <= EPS_ZERO:
        roots = [math.copysign(abs(q) ** (1.0 / 3.0), -q) + shift]
    else:
        # three real roots: trigonometric form
        r = math.sqrt(-p ** 3 / 27.0)
        phi = math.acos(max(-1.0, min(1.0, -q / (2.0 * r))))
        mag = 2.0 * math.sqrt(-p / 3.0)
        roots = [mag * math.cos((phi + 2.0 * math.pi * k) / 3.0) + shift for k in range(3)]

    def f(t):
        return ((a * t + coeffs[1]) * t + coeffs[2]) * t + coeffs[3]

    def fprime(t):
        return (3.0 * a * t + 2.0 * coeffs[1]) * t + coeffs[2]

    polished = []
    for t in roots:
        fp = fprime(t)
        if abs(fp) > PIVOT_TOL:
            t = t - f(t) / fp
        polished.append(t)
    return sorted(polished)


def eigen_sym(A: Matrix) -> list[tuple[float, Vector]]:
    """Eigenvalues/unit eigenvectors of a symmetric matrix, n in {1, 2, 3}."""
    if not A.is_square:
        raise DimensionError("eigen_sym needs a square matrix")
    n = A.rows
    if n > 3:
        raise DimensionError("eigen_sym supports n <= 3 only")
    a = A.to_array()
    if np.max(np.abs(a - a.T)) > EPS_ZERO:
        raise ValueError("matrix is not symmetric")

    if n == 1:
        return [(float(a[0, 0]), Vector((1.0,)))]
    if n == 2:
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = max(tr * tr / 4.0 - det, 0.0)
        s = math.sqrt(disc)
        eigenvalues = sorted([tr / 2.0 - s, tr / 2.0 + s])
    else:
        eigenvalues = _cubic_real_roots(_char_poly_coeffs(a))

    # cluster near-equal eigenvalues so repeated roots share one null space
    clusters: list[list[float]] = []
    for lam in sorted(eigenvalues):
        if clusters and abs(lam - clusters[-1][-1]) <= 1e-7 * (1.0 + abs(lam)):
            clusters[-1].append(lam)
        else:
            clusters.append([lam])

    pairs: list[tuple[float, Vector]] = []
    for cluster in clusters:
        lam = sum(cluster) / len(cluster)
        Ra = a - lam * np.eye(n)
        steps: list = []
        rk, pivots, _ = _gauss_jordan(Ra, steps)
        if rk == n:
            # rounding pushed the matrix to full rank: eliminate again with
            # the column of the weakest pivot held pivot-free
            weakest = pivots[min(range(n), key=lambda k: abs(steps[k][1]))]
            Ra = a - lam * np.eye(n)
            rk, pivots, _ = _gauss_jordan(Ra, free=weakest)
        # symmetric matrices: geometric multiplicity equals algebraic, so the
        # null-space dimension is authoritative (Cardano can collapse a
        # repeated root into a single value)
        vecs = [v / np.linalg.norm(v) for v in _null_space(Ra, pivots)]
        # orthonormalize within the cluster (Gram-Schmidt)
        ortho: list[np.ndarray] = []
        for v in vecs:
            for u in ortho:
                v = v - np.dot(u, v) * u
            nv = np.linalg.norm(v)
            if nv > PIVOT_TOL:
                ortho.append(v / nv)
        for v in ortho:
            pairs.append((lam, Vector(v)))
    return pairs
