"""Dense real vectors and matrices with the elementary algebraic operations.

Each value holds one read-only float64 array of finite entries, so values are
immutable after construction and every operation is a pure function, safe to
share between threads.  ``EPS_ZERO`` is the single comparison tolerance used
across the package unless an operation documents otherwise.
"""

from __future__ import annotations

import math

import numpy as np

EPS_ZERO = 1e-9


class DimensionError(ValueError):
    """Operands do not have compatible dimensions/formats."""


class FormatError(ValueError):
    """A matrix/vector text file could not be parsed."""


class _ArrayValue:
    """One read-only float64 array of finite entries; equality is exact."""

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if not (math.isfinite(a.sum()) or np.isfinite(a).all()):  # the sum may overflow
            raise ValueError(f"{type(self).__name__} entries must be finite (no NaN or inf)")
        a.flags.writeable = False
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    @property
    def entries(self) -> tuple[float, ...]:
        return tuple(self._a.ravel().tolist())

    def _tag(self):  # what besides the array decides equality
        return None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._tag() == other._tag() and np.array_equal(self._a, other._a)

    def __hash__(self):  # +0.0 maps -0.0 to 0.0, as == does
        return hash((self._tag(), (self._a + 0.0).tobytes()))


class Vector(_ArrayValue):
    """Real-valued vector with a column/row orientation flag."""

    __slots__ = ("orientation",)

    def __init__(self, entries, orientation: str = "col"):
        super().__init__(entries)
        if self._a.ndim != 1 or self._a.size < 1:
            raise DimensionError("vector needs a flat sequence of at least one entry")
        if orientation not in ("col", "row"):
            raise ValueError(f"unknown orientation {orientation!r}")
        object.__setattr__(self, "orientation", orientation)

    def _tag(self):
        return self.orientation

    def __reduce__(self):
        return Vector, (self._a, self.orientation)

    def __repr__(self):
        return f"Vector(entries={self.entries!r}, orientation={self.orientation!r})"

    def to_array(self) -> np.ndarray:
        """The backing array itself (read-only; copy it to modify)."""
        return self._a

    @property
    def n(self) -> int:
        return self._a.size

    @property
    def T(self) -> "Vector":
        return Vector(self._a, "row" if self.orientation == "col" else "col")

    def __getitem__(self, i):
        v = self._a[i]
        return float(v) if v.ndim == 0 else tuple(v.tolist())

    def __iter__(self):
        return iter(self._a.tolist())

    def __len__(self):
        return self._a.size


class Matrix(_ArrayValue):
    """Real-valued (m x n) matrix; ``entries`` lists it in row-major order."""

    __slots__ = ()

    def __init__(self, rows: int, cols: int, entries):
        if rows < 1 or cols < 1:
            raise DimensionError("matrix format must be at least 1x1")
        super().__init__(entries)
        if self._a.size != rows * cols:
            raise DimensionError(f"expected {rows * cols} entries, got {self._a.size}")
        object.__setattr__(self, "_a", self._a.reshape(rows, cols))

    def __reduce__(self):
        return Matrix.from_array, (self._a,)

    def __repr__(self):
        return f"Matrix(rows={self.rows}, cols={self.cols})"

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if len({len(r) for r in rows}) != 1:
            raise DimensionError("matrix needs at least one row, and no ragged rows")
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def from_array(cls, a) -> "Matrix":
        a = np.asarray(a, dtype=float)
        if a.ndim < 2:
            a = a.reshape(1, -1)
        return cls(a.shape[0], a.shape[1], a)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_array(np.eye(n))

    @classmethod
    def zeros(cls, m: int, n: int) -> "Matrix":
        return cls.from_array(np.zeros((m, n)))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def to_array(self) -> np.ndarray:
        """The backing array itself (read-only; copy it to modify)."""
        return self._a

    @property
    def T(self) -> "Matrix":
        return Matrix.from_array(self._a.T)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> tuple[float, ...]:
        return tuple(self._a[i].tolist())

    def __getitem__(self, ij):
        return float(self._a[ij])


def linear_combination(coeffs, vectors) -> Vector:
    """Componentwise sum of lambda_i * v_i over vectors of equal dimension."""
    coeffs = list(coeffs)
    vectors = list(vectors)
    if not vectors or len(coeffs) != len(vectors):
        raise DimensionError("need matching, non-empty coefficient and vector lists")
    n = vectors[0].n
    orientation = vectors[0].orientation
    if any(v.n != n or v.orientation != orientation for v in vectors):
        raise DimensionError("all vectors must share dimension and orientation")
    return Vector(sum(float(lam) * v.to_array() for lam, v in zip(coeffs, vectors)), orientation)


def dot(a: Vector, b: Vector) -> float:
    """Euclidian scalar product; orientation is auto-transposed as a convenience."""
    if a.n != b.n:
        raise DimensionError(f"dimension mismatch: {a.n} vs {b.n}")
    return float(np.dot(a.to_array(), b.to_array()))


def are_orthogonal(a: Vector, b: Vector, tol: float = EPS_ZERO) -> bool:
    return abs(dot(a, b)) <= tol


def norm(a: Vector) -> float:
    return math.sqrt(dot(a, a))


def normalize(a: Vector) -> Vector:
    la = norm(a)
    if la <= EPS_ZERO:
        raise ValueError("cannot normalize the zero vector")
    return Vector(a.to_array() / la, a.orientation)


def angle(a: Vector, b: Vector) -> float:
    """Angle enclosed between two non-zero vectors, in [0, pi].

    The cosine is clamped to [-1, 1] so floating-point drift cannot
    produce a domain error.
    """
    la, lb = norm(a), norm(b)
    if la <= EPS_ZERO or lb <= EPS_ZERO:
        raise ValueError("angle undefined for zero vectors")
    c = dot(a, b) / (la * lb)
    return math.acos(max(-1.0, min(1.0, c)))


def mat_combine(alpha: float, A: Matrix, beta: float, B: Matrix) -> Matrix:
    """Entrywise alpha*A + beta*B for matrices of the same format."""
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise DimensionError(f"format mismatch: {A.rows}x{A.cols} vs {B.rows}x{B.cols}")
    return Matrix.from_array(alpha * A.to_array() + beta * B.to_array())


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if A.cols != B.rows:
        raise DimensionError(
            f"inner dimensions disagree: {A.rows}x{A.cols} times {B.rows}x{B.cols}"
        )
    return Matrix.from_array(A.to_array() @ B.to_array())


def mat_vec(A: Matrix, x: Vector) -> Vector:
    """A applied to a column vector."""
    if A.cols != x.n:
        raise DimensionError(f"inner dimensions disagree: {A.cols} vs {x.n}")
    return Vector(A.to_array() @ x.to_array(), "col")


# ---------------------------------------------------------------------------
# Shared matrix text format: one row per line, entries separated by commas
# (or by whitespace on a line without commas), '.' decimal point, blank
# lines and '#' comment lines ignored.
# ---------------------------------------------------------------------------

def parse_matrix_text(text: str) -> Matrix:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tokens = stripped.split(",") if "," in stripped else stripped.split()
            rows.append([float(tok) for tok in tokens])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    if not rows:
        raise FormatError("no data rows found")
    try:
        return Matrix.from_rows(rows)
    except ValueError as exc:  # ragged rows or non-finite entries
        raise FormatError(str(exc)) from None


def parse_vector_text(text: str) -> Vector:
    """A vector file is a matrix file with a single row or a single column."""
    m = parse_matrix_text(text)
    if m.cols == 1:
        return Vector(m.to_array()[:, 0], "col")
    if m.rows == 1:
        return Vector(m.to_array()[0], "row")
    raise FormatError(f"expected a single row or column, got {m.rows}x{m.cols}")


def format_matrix_text(M: Matrix) -> str:
    return "".join(",".join(repr(v) for v in M.row(i)) + "\n" for i in range(M.rows))


def format_vector_text(v: Vector) -> str:
    if v.orientation == "row":
        return ",".join(repr(x) for x in v.entries) + "\n"
    return "\n".join(repr(x) for x in v.entries) + "\n"


def read_matrix(path) -> Matrix:
    with open(path, encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def read_vector(path) -> Vector:
    with open(path, encoding="utf-8") as fh:
        return parse_vector_text(fh.read())


def write_matrix(path, M: Matrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix_text(M))
