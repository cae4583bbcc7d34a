"""Dense real vectors and matrices with the elementary algebraic operations.

A value of at most SMALL rows and columns holds its entries as one flat tuple
of Python floats in row-major order, a larger one as one read-only float64
array.  The representation follows from the shape alone, so equal values hold
the same one, and NumPy is imported only for the arrays and by ``to_array``
and ``from_array``.  Vector and Matrix are records (``numeric._FrozenRecord``)
of the held entries and the shape, and of the orientation for a Vector: they
are immutable, and == and hash are the records' own, exact on the entries
with -0.0 equal to 0.0, in either form.  Every operation is a pure function,
safe to share between threads.  ``EPS_ZERO`` is the single comparison
tolerance used across the package unless an operation documents otherwise.
"""

from __future__ import annotations

import math
from operator import mul

from .numeric import NumericalError, _FrozenRecord

EPS_ZERO = 1e-9
# The widest value held as float tuples: where the list form stops being the
# faster one.  Timed per call on random n x n values (2 CPUs, one BLAS
# thread, +-15 %), the forms cross at n = 7-8 for rref, 9-10 for solve and 8
# for inverse.  An LP of n variables and m restrictions (LinearProgram and
# solve_simplex, dense random programs) takes as arrays 0.96-1.01x its time
# as tuples at 6 x 6 and 8 x 4, and 0.75-0.82x at 8 x 8, 9 x 9 and 6 x 12.
SMALL = 8


def _holds_tuples(shape: tuple) -> bool:
    """Whether Vector, Matrix and LinearProgram hold float tuples at this shape."""
    return max(shape) <= SMALL


def _read_only_array(entries, shape: tuple):
    """Float tuples (flat or rows), or a fresh float64 array, read-only, of this shape."""
    import numpy as np
    a = np.asarray(entries, dtype=float).reshape(shape)
    a.flags.writeable = False
    return a


class DimensionError(ValueError):
    """Operands do not have compatible dimensions/formats."""


class FormatError(ValueError):
    """A matrix/vector text file could not be parsed."""


class _ArrayValue(_FrozenRecord):
    """Finite float entries of a fixed shape: the fields _a and _shape."""

    __slots__ = ("_a", "_shape")

    def _hold(self, entries, shape, adopt=False):
        """Store entries (a flat list of floats, or an array) with this shape;
        adopt: they are floats, or a float64 array that nothing else writes,
        so the array is held as it is, not copied."""
        if _holds_tuples(shape):
            if hasattr(entries, "ravel"):
                entries = (entries if adopt else entries.astype(float)).ravel().tolist()
            ok = all(map(math.isfinite, entries))
            a = tuple(entries)
        else:
            import numpy as np
            a = _read_only_array(entries if adopt else np.array(entries, dtype=float), shape)
            with np.errstate(over="ignore", invalid="ignore"):  # the sum may overflow
                ok = math.isfinite(a.sum()) or np.isfinite(a).all()
        if not ok:
            if adopt:  # the kernel's result, made from finite values
                raise NumericalError(f"a {type(self).__name__} result lies beyond the float range")
            raise ValueError(f"{type(self).__name__} entries must be finite (no NaN or inf)")
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_shape", shape)

    @classmethod
    def _adopt(cls, entries, shape, **fields):
        """The value of this shape and these other fields that holds entries,
        a list or tuple of floats or a fresh float64 array made by the kernel,
        read-only from now on.  It equals what the public constructor builds
        from them, and hashes alike, but only the finiteness check runs: no
        float() per entry, no row-width scan, no copy of the array.  Only
        overflow makes a result inf or NaN: a NumericalError."""
        value = object.__new__(cls)
        value._hold(entries, shape, adopt=True)
        for name, v in fields.items():
            object.__setattr__(value, name, v)
        return value

    @property
    def entries(self) -> tuple[float, ...]:
        a = self._a
        return a if type(a) is tuple else tuple(a.ravel().tolist())

    def to_array(self):
        """The entries as a read-only float64 array (the backing one, if any)."""
        a = self._a
        return _read_only_array(a, self._shape) if type(a) is tuple else a


class Vector(_ArrayValue):
    """Real-valued vector with a column/row orientation flag."""

    __slots__ = ("orientation",)

    def __init__(self, entries, orientation: str = "col"):
        if hasattr(entries, "ndim"):
            n = entries.size if entries.ndim == 1 else 0
        else:
            try:
                entries = [float(v) for v in entries] if not isinstance(entries, str) else ()
            except TypeError:  # a nested sequence
                entries = ()
            n = len(entries)
        if n < 1:
            raise DimensionError("vector needs a flat sequence of at least one entry")
        if orientation not in ("col", "row"):
            raise ValueError(f"unknown orientation {orientation!r}")
        self._hold(entries, (n,))
        object.__setattr__(self, "orientation", orientation)

    to_array = _ArrayValue.to_array  # each class's own attribute, for span wrappers

    def __reduce__(self):
        return Vector, (self._a, self.orientation)

    def __repr__(self):
        return f"Vector(entries={self.entries!r}, orientation={self.orientation!r})"

    @property
    def n(self) -> int:
        return self._shape[0]

    @property
    def T(self) -> "Vector":
        return Vector(self._a, "row" if self.orientation == "col" else "col")

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return self.n


class Matrix(_ArrayValue):
    """Real-valued (m x n) matrix; ``entries`` lists it in row-major order."""

    __slots__ = ()

    def __init__(self, rows: int, cols: int, entries):
        if rows < 1 or cols < 1 or isinstance(entries, str):
            raise DimensionError("matrix format must be at least 1x1, of numbers")
        if hasattr(entries, "ravel"):
            size = entries.size
        else:
            flat, widths = [], []
            for v in entries:  # numbers, or rows of numbers of one length
                try:
                    flat.append(float(v))
                except TypeError:
                    v = [float(x) for x in v]
                    flat += v
                    widths.append(len(v))
            if widths and (min(widths) != max(widths) or sum(widths) != len(flat)):
                raise DimensionError("matrix entries must be numbers, or rows of one length")
            entries, size = flat, len(flat)
        if size != rows * cols:
            raise DimensionError(f"expected {rows * cols} entries, got {size}")
        self._hold(entries, (rows, cols))

    to_array = _ArrayValue.to_array

    def __reduce__(self):
        return Matrix, (self.rows, self.cols, self._a)

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
        import numpy as np
        a = np.asarray(a, dtype=float)
        if a.ndim < 2:
            a = a.reshape(1, -1)
        return cls(a.shape[0], a.shape[1], a)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [float(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "Matrix":
        return cls(m, n, [0.0] * (m * n))

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def T(self) -> "Matrix":
        a, c = self._a, self.cols
        if type(a) is tuple:
            return Matrix(c, self.rows, [x for j in range(c) for x in a[j::c]])
        return Matrix.from_array(a.T)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> tuple[float, ...]:
        a, c = self._a, self.cols
        if type(a) is tuple:
            i = range(self.rows)[i]
            return a[i * c:(i + 1) * c]
        return tuple(a[i].tolist())

    def __getitem__(self, ij):
        if type(self._a) is tuple:
            i, j = ij
            return self._a[range(self.rows)[i] * self.cols + range(self.cols)[j]]
        return float(self._a[ij])


def _min(v: _ArrayValue) -> float:
    """The smallest entry of a vector or matrix."""
    return min(v._a) if type(v._a) is tuple else float(v._a.min())


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
    if type(vectors[0]._a) is not tuple:
        return Vector(sum(float(lam) * v._a for lam, v in zip(coeffs, vectors)), orientation)
    acc = [0.0] * n  # 0.0 + x turns -0.0 into 0.0, as sum's 0 + array does
    for lam, v in zip(coeffs, vectors):
        lam = float(lam)
        acc = [s + lam * x for s, x in zip(acc, v._a)]
    return Vector(acc, orientation)


def _dot(x, y) -> float:
    """x . y of two float tuples or two arrays; math.fsum rounds the tuples'
    sum once, NumPy's dot rounds as its BLAS does."""
    if type(x) is tuple:
        return math.fsum(map(mul, x, y))
    import numpy as np
    return float(np.dot(x, y))


def dot(a: Vector, b: Vector) -> float:
    """Euclidian scalar product; orientation is auto-transposed as a convenience."""
    if a.n != b.n:
        raise DimensionError(f"dimension mismatch: {a.n} vs {b.n}")
    return _dot(a._a, b._a)


def _cosine(a: Vector, b: Vector):
    """cos angle(a, b) from the unit vectors, so nothing overflows; None for zero."""
    if a.n != b.n:
        raise DimensionError(f"dimension mismatch: {a.n} vs {b.n}")
    if norm(a) == 0.0 or norm(b) == 0.0:
        return None
    return _dot(normalize(a)._a, normalize(b)._a)


def are_orthogonal(a: Vector, b: Vector, tol: float = EPS_ZERO) -> bool:
    """|cos angle(a, b)| <= tol at any scale; a zero vector is orthogonal to all."""
    c = _cosine(a, b)
    return c is None or abs(c) <= tol


def norm(a: Vector) -> float:
    """Euclidean length by math.hypot, which cannot overflow or underflow."""
    return math.hypot(*a.entries)


def normalize(a: Vector) -> Vector:
    la = norm(a)
    if la == 0.0:
        raise ValueError("cannot normalize the zero vector")
    x = a._a
    return Vector([v / la for v in x] if type(x) is tuple else x / la, a.orientation)


def angle(a: Vector, b: Vector) -> float:
    """Angle enclosed between two non-zero vectors, in [0, pi], at any scale;
    the cosine is clamped to [-1, 1] so rounding cannot cause a domain error."""
    c = _cosine(a, b)
    if c is None:
        raise ValueError("angle undefined for zero vectors")
    return math.acos(max(-1.0, min(1.0, c)))


def mat_combine(alpha: float, A: Matrix, beta: float, B: Matrix) -> Matrix:
    """Entrywise alpha*A + beta*B for matrices of the same format."""
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise DimensionError(f"format mismatch: {A.rows}x{A.cols} vs {B.rows}x{B.cols}")
    if type(A._a) is tuple:
        return Matrix(A.rows, A.cols, [alpha * x + beta * y for x, y in zip(A._a, B._a)])
    return Matrix.from_array(alpha * A._a + beta * B._a)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if A.cols != B.rows:
        raise DimensionError(
            f"inner dimensions disagree: {A.rows}x{A.cols} times {B.rows}x{B.cols}"
        )
    if type(A._a) is type(B._a) is tuple:
        rows = [A.row(i) for i in range(A.rows)]
        cols = [B._a[j::B.cols] for j in range(B.cols)]
        return Matrix(A.rows, B.cols, [_dot(r, c) for r in rows for c in cols])
    return Matrix.from_array(A.to_array() @ B.to_array())


def mat_vec(A: Matrix, x: Vector) -> Vector:
    """A applied to a column vector."""
    if A.cols != x.n:
        raise DimensionError(f"inner dimensions disagree: {A.cols} vs {x.n}")
    if type(A._a) is type(x._a) is tuple:
        return Vector([_dot(A.row(i), x._a) for i in range(A.rows)], "col")
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
    if m.cols == 1 or m.rows == 1:
        return Vector(m.entries, "col" if m.cols == 1 else "row")
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
