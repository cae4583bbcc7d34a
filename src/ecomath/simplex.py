"""Standard-form linear programs, the tableau simplex method, and an
independent vertex-enumeration oracle for two-variable problems.

A LinearProgram always stores its restrictions as A x <= b together with
x >= 0; a minimum problem runs on the same tableau as max -z = (-c).x - d.
c, A and b are accepted as sequences or arrays and checked by one rule.  A
program of n variables and m restrictions holds them in the form that
``linalg`` gives a Matrix of A's shape (m, n): float tuples, and its tableau
as column lists, up to SMALL rows and columns; read-only float64 arrays, and
its tableau as one array, above.  The
attributes c, A and b are read-only float64 arrays either way, fresh ones
built from the tuples; the solver and the oracle read the held values.  Only
standard forms with b >= 0 are solvable here: anything that would need
artificial variables is reported as "unsupported" rather than solved by an
invented phase-1 method.

The tableau is the short one of the exchange method (SimplexTableau.cells):
the n nonbasic columns, one spare and the RHS, (1+m) x (n+2), where the full
tableau is (1+m) x (n+m+2); z and the basic variables have unit columns,
which a pivot leaves as they are.  A pivot writes the leaving variable's unit
column into the spare and runs the elimination kernel's step on every stored
column, so each entry is the float the full tableau would hold.
SimplexTableau.grid and format_text give the full layout.  One loop runs
both forms (an array's row-0 and RHS views and ratio buffer kept per solve);
a NaN or -inf in the last row 0 or an infinite entering tolerance raises
NumericalError.

A tableau holds no -0.0, so the array pivot step can form its product by
einsum (see ``linsolve._pivot_step``): canonicalize adds 0.0 to what it
copies in, and the step adds 0.0 to an array's pivot row, the one place
where it can make a -0.0 (x / p underflowing).  So x and slacks read off it
hold none, and LpSolution adds 0.0 to z, which a min problem negates.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from .linalg import _holds_tuples, _read_only_array
from .linsolve import _pivot_step
from .numeric import NumericalError, _FrozenRecord

FEAS_TOL = 1e-9  # a smaller minimum ratio is a degenerate pivot, relative (solve_simplex)
PIVOT_MIN = 1e-9  # entering and pivot-candidate tolerance, relative (solve_simplex)


class SimplexError(ValueError):
    pass


class IterationLimitError(NumericalError, RuntimeError):
    """Cycling guard tripped: the iteration cap was exceeded."""


class LinearProgram(_FrozenRecord):
    """c, A, b: read-only float64 arrays of shapes (n,), (m, n), (m,); ==,
    hash and pickle read the held tuples or arrays, so a program of float
    tuples compares and hashes without NumPy."""

    __slots__ = ("sense", "_c", "_A", "_b", "d", "names")
    _fields = ("sense", "c", "A", "b", "d", "names")

    def __init__(self, sense, c, A, b, d=0.0, names=None):
        if sense not in ("max", "min"):
            raise SimplexError(f"sense must be 'max' or 'min', not {sense!r}")
        try:
            n, m = len(c), len(A)
            np = None  # float tuples, unless linalg holds an array of A's shape
            if not _holds_tuples((m, n)):
                import numpy as np
            c, A = _held(c, (n,), np), _held(A, (m, n), np)
        except (TypeError, ValueError):  # no sequences, text, or entries that are no numbers
            raise SimplexError("each restriction row must have one entry per variable") from None
        try:
            b = _held(b, (m,), np)
        except (TypeError, ValueError):
            raise SimplexError("rows(A) must equal dim(b)") from None
        try:
            if np is None:
                finite = all(map(math.isfinite, c + b + sum(A, ())))
            else:
                finite = np.isfinite(np.concatenate((c, A.ravel(), b))).all()
            finite = finite and math.isfinite(d)
        except TypeError:
            finite = False
        if not finite:
            raise SimplexError("c, A, b and d must be finite (no NaN or inf)")
        for key, v in zip(self.__slots__, (sense, c, A, b, d, names)):
            object.__setattr__(self, key, v)

    def _array(self, key: str):
        """The held array, or a fresh read-only one built from the tuples."""
        a = getattr(self, "_" + key)
        if type(a) is tuple:
            a = _read_only_array(a, (self.m, self.n) if key == "A" else (len(a),))
        return a

    c = property(lambda self: self._array("c"))
    A = property(lambda self: self._array("A"))
    b = property(lambda self: self._array("b"))

    def _values(self) -> tuple:
        return self.sense, self._c, self._A, self._b, self.d, self.names

    @property
    def n(self) -> int:
        return len(self._c)

    @property
    def m(self) -> int:
        return len(self._b)

    @classmethod
    def from_dict(cls, data: dict) -> "LinearProgram":
        if not isinstance(data, dict) or "c" not in data:
            raise SimplexError("LP document is missing the field 'c' (objective coefficients)")
        names = data.get("names")
        if names and not (isinstance(names, list) and all(isinstance(s, str) for s in names)):
            raise SimplexError("LP field 'names' must be a list of strings")
        return cls(
            sense=data.get("sense", "max"),
            c=_numbers(data["c"], "c", 1),
            A=_numbers(data.get("A", []), "A", 2),
            b=_numbers(data.get("b", []), "b", 1),
            d=_numbers(data.get("d", 0.0), "d", 0),
            names=tuple(names) if names else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "LinearProgram":
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        out = {"sense": self.sense, "c": [float(v) for v in self._c], "d": self.d,
               "A": [[float(v) for v in row] for row in self._A],
               "b": [float(v) for v in self._b]}
        if self.names:
            out["names"] = list(self.names)
        return out


def _held(v, shape: tuple, np):
    """v as float tuples (a matrix as a tuple of rows) if np is None, else
    as a read-only float64 array of np (NumPy); TypeError or ValueError
    unless v, and each row of a matrix, is a sequence other than text of the
    length shape gives, with numbers for entries.  An array's shape checks
    its rows."""
    if isinstance(v, str) or len(v) != shape[0]:
        raise TypeError("no sequence of this length")
    if np is not None:
        a = np.array(v, dtype=float)
        if a.size and a.shape != shape:  # text rows, rows of other lengths, sequences for entries
            raise ValueError("no rows of this length")
        return _read_only_array(a, shape)  # A=() has no rows: shape (0, n)
    if hasattr(v, "tolist"):  # an array's entries as Python numbers, at once
        v = v.tolist()
    if len(shape) == 1:
        return tuple([float(x) for x in v])
    if any(isinstance(row, str) or len(row) != shape[1] for row in v):
        raise TypeError("no rows of this length")
    return tuple([tuple([float(x) for x in row]) for row in v])


def _numbers(value, key: str, depth: int):
    """An LP document field as a float (depth 0) or nested tuples of floats."""
    if depth == 0 and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if depth > 0 and isinstance(value, list):
        return tuple(_numbers(v, key, depth - 1) for v in value)
    kind = ("a number", "a list of numbers", "a list of lists of numbers")[depth]
    raise SimplexError(f"LP field {key!r} must be {kind}, got {value!r}")


class LpSolution(_FrozenRecord):
    """status is "optimal" | "unbounded" | "infeasible" | "unsupported".
    z is held with 0.0 added: the z of a min problem is the negated z of
    max -c, which would make a zero optimum -0.0.  From solve_simplex and
    vertex_oracle, x and slacks hold no -0.0 either."""

    __slots__ = ("status", "x", "z", "slacks", "iterations")
    _defaults = {"x": (), "z": float("nan"), "slacks": (), "iterations": 0}

    def __post_init__(self):
        object.__setattr__(self, "z", self.z + 0.0)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "x": list(self.x),
            "z": self.z,
            "slacks": list(self.slacks),
            "iterations": self.iterations,
        }


class SimplexTableau:
    """The short tableau of the exchange method: only the nonbasic columns
    are stored (Chvatal 1983, *Linear Programming*, ch. 2; Vanderbei 2014,
    *Linear Programming*, ch. 2).

    ``cells`` is (1+m) x (n+2): row 0 and the m restriction rows over n+1
    variable columns and the RHS, as column lists or as one array (see the
    module docstring).  ``columns[k]`` names the variable of column k: the n
    nonbasic ones, and at ``spare`` the basic variable that entered last (z
    at the start), whose unit column the next pivot overwrites with the
    leaving variable's.  Each stored entry is the float that the full
    tableau holds at that place.  Variables are identified by index: 0 is z,
    1..n the structural variables, n+1..n+m the slacks; ``basis[i]`` is the
    basic variable of row i, and basis[0] is z.

    ``grid`` and ``format_text`` give the full tableau, (1+m) x (1+n+m+1):
    z column, x columns, s columns, RHS.  Row 0 holds (1, -c_1..-c_n,
    0..0, d), or (1, c_1..c_n, 0..0, -d) for a min problem, at the start;
    rows 1..m hold the restrictions with their slack unit columns.  z and the
    basic variables get exact unit columns there.  ``scale`` holds one scale
    per variable (z, x, s) and ``tols`` the entering and degeneracy
    tolerances, both read from the LP by canonicalize (see solve_simplex).
    """

    def __init__(self, cells, columns: list[int], spare: int, basis: list[int], n: int, m: int,
                 scale: list, tols: tuple):
        self.cells = cells
        self.columns = columns
        self.spare = spare
        self.basis = basis
        self.n = n
        self.m = m
        self.iteration = 0
        self.scale = scale
        self.tols = tols

    def copy(self) -> "SimplexTableau":
        cells = self.cells
        t = SimplexTableau([u[:] for u in cells] if type(cells) is list else cells.copy(),
                           list(self.columns), self.spare, list(self.basis), self.n, self.m,
                           self.scale, self.tols)
        t.iteration = self.iteration
        return t

    def _full(self) -> list:
        """The full tableau's columns z, x_1..x_n, s_1..s_m, RHS as lists:
        the stored ones, and exact unit columns for z and the basic
        variables."""
        cells = self.cells if type(self.cells) is list else self.cells.T.tolist()
        full = [None] * (1 + self.n + self.m) + [cells[-1]]
        for j, u in zip(self.columns, cells):
            full[j] = u
        for i, j in enumerate(self.basis):
            full[j] = [0.0] * (1 + self.m)
            full[j][i] = 1.0
        return full

    @property
    def grid(self):
        """The full tableau as a new float64 array."""
        import numpy as np
        return np.array(self._full()).T

    @property
    def rhs(self):
        return _line(self.cells, -1, top=0)

    def variable_name(self, idx: int) -> str:
        if idx == 0:
            return "z"
        if idx <= self.n:
            return f"x{idx}"
        return f"s{idx - self.n}"

    def basis_solution(self) -> list[float]:
        """Values of (z, x_1..x_n, s_1..s_m) with non-basis variables at 0."""
        values = [0.0] * (1 + self.n + self.m)
        for k, v in zip(self.basis, self.rhs):
            values[k] = float(v)
        return values

    def format_text(self) -> str:
        """The full tableau as text: a header, then one line per row."""
        header = ["z"] + [f"x{j}" for j in range(1, self.n + 1)] + [
            f"s{i}" for i in range(1, self.m + 1)
        ] + ["RHS"]
        lines = ["# " + ",".join(header)]
        for row in zip(*self._full()):
            lines.append(",".join(map(repr, row)))
        return "\n".join(lines) + "\n"


def _line(cells, j: Optional[int] = None, top: int = 1):
    """Row 0 without its RHS (j None), else stored column j from row top on:
    a list of column lists, a view of an array."""
    if type(cells) is list:
        return [u[0] for u in cells[:-1]] if j is None else cells[j][top:]
    return cells[0, :-1] if j is None else cells[top:, j]


def _least(v) -> tuple[int, float]:
    """The index and value of the first least entry of a list or an array,
    or of its first NaN, as argmin takes it; (0, inf) if there is none."""
    if not len(v):
        return 0, math.inf
    i = v.index(next(filter(math.isnan, v), min(v))) if type(v) is list else int(v.argmin())
    return i, v[i]


def _priced(t: SimplexTableau, row0) -> tuple[int, float]:
    """The stored column of the most negative entry of row0 (t's row 0),
    on ties the one of the smallest variable index, and that entry."""
    k, low = _least(row0)
    if type(row0) is list:
        ties = [i for i, v in enumerate(row0) if v == low]
    else:  # argmin took the first least entry: a tie can only come after it
        rest = row0[k + 1:]
        tied = rest.size and rest[rest.argmin()] == low
        ties = (row0 == low).nonzero()[0].tolist() if tied else ()
    if len(ties) > 1:
        k = min(ties, key=t.columns.__getitem__)
    return k, low


def _row0(t: SimplexTableau, row0) -> list:
    """Row 0 by variable index, from row0 (t's stored row 0), with 0.0 for z
    and the basic variables, which cannot enter."""
    row = [0.0] * (1 + t.n + t.m)
    for j, v in zip(t.columns, row0.tolist() if type(row0) is not list else row0):
        row[j] = v
    row[t.columns[t.spare]] = 0.0
    return row


def _ratios(cells, k: int, rs, sj: float, views):
    """RHS / a over stored column k below row 0 where a is a pivot
    candidate, above rs / sj for rs PIVOT_MIN times the scale of its row's
    basic variable and sj that of the column's variable, else inf: a new
    list from column lists (views None), else in the buffer of an array's
    views (see _iterate); NumPy rounds them as Python rounds the lists'."""
    if views is None:
        return [r / v if v > s / sj else math.inf
                for r, v, s in zip(cells[-1][1:], cells[k][1:], rs)]
    import numpy as np
    col, (_, rhs, out) = cells[1:, k], views
    out.fill(math.inf)
    return np.divide(rhs, col, out=out, where=col > rs / sj)


def canonicalize(lp: LinearProgram) -> SimplexTableau:
    """Initial tableau: the n structural columns, the spare holding z's unit
    column, and the RHS; the first basis is {z, s_1..s_m}, whose unit
    columns are not stored.  Row 0 holds max z = c.x + d, or for a min
    problem max -z = (-c).x - d.  Every entry is written with 0.0 added, so
    a zero cost, d = 0 or a -0.0 in A or b is 0.0 there: the tableau starts
    with no -0.0."""
    c, A, b = lp._c, lp._A, lp._b
    n, m = lp.n, lp.m
    sign = -1.0 if lp.sense == "max" else 1.0  # of c in row 0
    if type(c) is tuple:  # columns: x_1..x_n, z, RHS
        cells = [[sign * v + 0.0, *[row[j] + 0.0 for row in A]] for j, v in enumerate(c)]
        cells.append([1.0] + [0.0] * m)
        cells.append([-sign * float(lp.d) + 0.0, *[v + 0.0 for v in b]])
        rows = [max(map(abs, row), default=0.0) or 1.0 for row in A]
        cols = [max([abs(row[j]) / r for row, r in zip(A, rows)], default=0.0) or 1.0
                for j in range(n)]
    else:
        import numpy as np
        cells = np.zeros((1 + m, n + 2))
        cells[0, :n] = -c if sign < 0 else c
        cells[0, n] = 1.0
        cells[0, -1] = -sign * lp.d
        cells[1:, :n] = A
        cells[1:, -1] = b
        cells += 0.0
        a = np.abs(A)
        rows = a.max(axis=1, initial=0.0)
        rows[rows == 0.0] = 1.0
        cols = (a / rows[:, None]).max(axis=0, initial=0.0)
        cols[cols == 0.0] = 1.0
        c, b, rows, cols = c.tolist(), b.tolist(), rows.tolist(), cols.tolist()
    if min(b, default=0.0) < 0:
        raise SimplexError("unsupported: negative capacity would need a phase-1 method")
    tols = (PIVOT_MIN * max([abs(v) / g for v, g in zip(c, cols)], default=0.0),
            FEAS_TOL * max([abs(v) / r for v, r in zip(b, rows)], default=0.0))
    return SimplexTableau(cells, [*range(1, n + 1), 0], n, [0] + [n + 1 + i for i in range(m)],
                          n, m, [1.0] + [1.0 / g for g in cols] + rows, tols)


def pivot(t: SimplexTableau, i_star: int, j_star: int) -> SimplexTableau:
    """Pivot operation on element (i_star, j_star), in place; rows are
    1-based over the restriction block, columns 1-based over the variable
    block, as in the full tableau, and SimplexError refuses any other index
    before the tableau is touched.  Returns t; copy it first to keep the
    previous tableau.

    The leaving variable's unit column goes into the spare, the elimination
    kernel's step runs on every stored column, and the entering column,
    now that unit column, becomes the next spare.  A basic j_star has the
    unit column of its row, so it pivots only in that row, as bookkeeping.
    On an array the step divides the pivot row y, subtracts the einsum
    product f y and adds 0.0 to y, all through one view.  A tableau with no
    -0.0 keeps none: x - f y is -0.0 only where x is, and in the pivot row,
    where x / p can underflow to it, y + 0.0 (y - 0 y in lists) gives 0.0."""
    cells, columns, basis, m = t.cells, t.columns, t.basis, t.m
    if not (1 <= i_star <= m and 1 <= j_star <= t.n + m):
        raise SimplexError(f"no pivot at ({i_star},{j_star}): rows run 1..{m}, "
                           f"columns 1..{t.n + m}")
    s = t.spare
    try:
        k = columns.index(j_star)
        p = cells[k][i_star] if type(cells) is list else float(cells[i_star, k])
    except ValueError:  # a basic variable that is not stored
        k, p = s, float(basis[i_star] == j_star)
    if p <= PIVOT_MIN * t.scale[basis[i_star]] / t.scale[j_star]:
        raise SimplexError(f"pivot element {p!r} at ({i_star},{j_star}) is not positive")
    if type(cells) is list:
        cells[s] = [0.0] * (1 + m)
        cells[s][i_star] = 1.0
    else:
        cells[:, s] = 0.0
        cells[i_star, s] = 1.0
    _pivot_step(cells, i_star, k)
    columns[s], basis[i_star] = basis[i_star], j_star
    t.spare = k
    t.iteration += 1
    return t


def _improving(lp: LinearProgram, row0: list) -> list[int]:
    """The structural columns j whose row-0 entry is below -PIVOT_MIN times
    the size of the terms it is formed from, |c_j| + sum_i |y_i a_ij| with y
    the slacks' row-0 entries (row0 by variable index): one column's scale
    cannot hide another's gain from this test, as it can from the one
    against max_j |c_j| / g_j."""
    n, c, A = lp.n, lp._c, lp._A
    y = [abs(v) for v in row0[1 + n:]]
    if type(c) is tuple:
        size = [abs(cj) + sum([abs(a) * yi for a, yi in zip(col, y)])
                for cj, col in zip(c, zip(*A) if A else [()] * n)]
    else:
        import numpy as np
        size = (np.abs(c) + np.abs(A).T @ np.array(y)).tolist()
    return [1 + j for j, s in enumerate(size) if row0[1 + j] < -PIVOT_MIN * s]


def iteration_cap(n: int, m: int) -> int:
    return 10 * (n + m) + 100


def solve_simplex(
    lp: LinearProgram, trace: Optional[list[SimplexTableau]] = None
) -> LpSolution:
    """Dantzig's simplex algorithm on the standard maximum problem.

    The entering column is the most negative row-0 coefficient over all
    non-basis columns (smallest index on ties); the leaving row follows the
    minimum-ratio rule (smallest ratio, then smallest row index).  After a
    degenerate pivot (minimum ratio 0), Bland's rule holds until z moves, so
    the method cannot cycle: the first negative column enters and ratio ties
    go to the smallest basis variable.  A min problem runs on the tableau of
    max -z (see canonicalize), and its optimal value is negated at the end.

    Each test is relative to the LP's scale, read once by canonicalize: row
    i of A has the scale r_i = max_j |a_ij|, slack s_i the scale r_i and x_j
    the scale 1 / g_j with g_j = max_i |a_ij| / r_i (zeros count as 1).  A
    column enters if its row-0 entry times its scale is below -PIVOT_MIN
    max_j |c_j| / g_j; an entry is a pivot candidate above PIVOT_MIN times
    the scale of its row's basic variable over that of its column; a minimum
    ratio below FEAS_TOL max_i |b_i| / r_i times the entering scale is
    degenerate.  So scaling c, or b, or A and b together, by a power of two
    scales the answer exactly and takes the same pivots.  Where no column
    passes the entering test, one still enters if _improving finds it, so a
    column in tiny units cannot hide another's gain by inflating max_j.
    Where none enters but row 0 holds a NaN (no sign) or -inf, or the
    entering tolerance is inf, those tests read nothing: NumericalError;
    +inf in row 0, a cost past the float range, is no gain.
    """
    try:
        t = canonicalize(lp)
    except SimplexError:
        return LpSolution("unsupported")
    if trace is not None:
        trace.append(t.copy())
    if type(t.cells) is list:
        return _iterate(lp, t, trace)
    import numpy as np
    # as plain floats do, the array form runs into inf and nan without a
    # warning; a result past the float range ends in NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        return _iterate(lp, t, trace)


def _iterate(lp: LinearProgram, t: SimplexTableau, trace: Optional[list]) -> LpSolution:
    """solve_simplex's pivots from the tableau t of lp on, and the result."""
    cap = iteration_cap(lp.n, lp.m)
    scale, (enter_tol, degenerate_tol) = t.scale, t.tols
    cells, columns = t.cells, t.columns  # pivot works in place
    rs = [PIVOT_MIN * scale[k] for k in t.basis[1:]]  # by the scale of each row's basic variable
    views = None  # column lists: each pivot replaces them, so read anew
    if type(cells) is not list:  # row 0, the RHS below it and the ratio buffer
        import numpy as np
        rs, views = np.array(rs), (_line(cells), _line(cells, -1), np.empty(lp.m))
    bland = False  # Bland's rule, in force after a degenerate pivot

    while True:
        # only nonbasic columns and the spare are stored, and the spare's
        # unit column has 0 in row 0, so it cannot enter
        row0 = _line(cells) if views is None else views[0]
        k, low = _priced(t, row0)  # most negative, then smallest variable index
        j_star = columns[k]
        if bland or not low * scale[j_star] < -enter_tol:
            row0 = _row0(t, row0)
            entering = [j for j, v in enumerate(row0) if v * scale[j] < -enter_tol]
            if not entering:
                entering = _improving(lp, row0)
            if not entering:
                break  # S1: optimal
            # Bland: the smallest index
            j_star = entering[0] if bland else min(entering, key=row0.__getitem__)
            k = columns.index(j_star)
        sj = scale[j_star]
        ratios = _ratios(cells, k, rs, sj, views)
        i_star, best = _least(ratios)
        if not best < math.inf:  # no finite least ratio: none, each one overflowed, or NaN
            if best == math.inf and not any(v > s / sj for v, s in zip(_line(cells, k), rs)):
                return LpSolution("unbounded", iterations=t.iteration)  # S3
            raise NumericalError("the optimum lies beyond the float range")
        i_star += 1  # S4: smallest ratio, then smallest row
        if bland:  # ratio ties go to the smallest basis variable
            tied = [1 + i for i, r in enumerate(ratios) if r == best]
            i_star = min(tied, key=t.basis.__getitem__)
        bland = best <= degenerate_tol * sj
        pivot(t, i_star, j_star)
        rs[i_star - 1] = PIVOT_MIN * sj
        if trace is not None:
            trace.append(t.copy())
        if t.iteration > cap:
            raise IterationLimitError(f"no optimum after {cap} pivots; presumed cycling")

    values = t.basis_solution()
    if not all(map(math.isfinite, values)):  # as 1 / a for a subnormal pivot a
        raise NumericalError("the optimum lies beyond the float range")
    if not (enter_tol < math.inf and all(v > -math.inf for v in row0)):  # row 0 by variable
        raise NumericalError("row 0 lies beyond the float range: no optimum can be told")
    x, slacks = tuple(values[1 : 1 + t.n]), tuple(values[1 + t.n :])
    z = values[0] if lp.sense == "max" else -values[0]
    return LpSolution("optimal", x, z, slacks, t.iteration)


# ---------------------------------------------------------------------------
# Vertex-enumeration oracle for n = 2 (the graphical method, made exact).
# ---------------------------------------------------------------------------

class OracleResult(_FrozenRecord):
    # isoquant_slope is the slope of the (0,0)-isoquant
    __slots__ = ("solution", "vertices", "optimal_vertices", "isoquant_slope")
    _defaults = {"vertices": (), "optimal_vertices": (), "isoquant_slope": None}


def _feasible(rows, x: float, y: float, tol: float = 1e-7) -> bool:
    """(x, y) >= 0 and a1 x + a2 y <= r on each row (a1, a2, r), each test
    within tol of the size of its own terms, so at any scale."""
    if min(x, y) < -tol * max(abs(x), abs(y)):
        return False
    return all(a1 * x + a2 * y - r <= tol * (abs(a1 * x) + abs(a2 * y) + abs(r))
               for a1, a2, r in rows)


def vertex_oracle(lp: LinearProgram) -> OracleResult:
    """Enumerate all candidate vertices of the feasible region of a
    two-variable standard maximum problem and evaluate z at each; a min
    problem scores each vertex by -z, as its simplex tableau does.

    Lines considered: the m restriction boundaries plus the two axes; two
    lines meet where Cramer's rule gives a point, unless their determinant is
    within 1e-12 of its products' size.  Unboundedness is detected by probing
    candidate recession directions (axis directions and directions along each
    restriction boundary).  Every test is relative to the size of the values
    it compares, so scaling c, or A and b, scales the answer alike.
    """
    if lp.n != 2:
        raise SimplexError("vertex oracle is defined for n = 2 only")

    sign = 1.0 if lp.sense == "max" else -1.0  # scores max z, or max -z
    c1, c2 = (sign * float(v) for v in lp._c)
    slope = -c1 / c2 if abs(c2) > PIVOT_MIN * abs(c1) else None
    rows = [(float(a1), float(a2), float(r)) for (a1, a2), r in zip(lp._A, lp._b)]

    # all boundary lines (a1, a2, r): the two axes, then A x = b
    lines = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)] + rows
    vertices: list[tuple[float, float]] = []
    for i, (a1, a2, r1) in enumerate(lines):
        for b1, b2, r2 in lines[i + 1:]:
            det = a1 * b2 - a2 * b1
            if abs(det) <= 1e-12 * (abs(a1 * b2) + abs(a2 * b1)):
                continue  # parallel (or a zero row)
            x, y = (r1 * b2 - a2 * r2) / det, (a1 * r2 - r1 * b1) / det
            if _feasible(rows, x, y) and not any(  # a new vertex, not a repeat
                    max(abs(x - u), abs(y - v)) <= 1e-8 * max(abs(x), abs(y), abs(u), abs(v))
                    for u, v in vertices):
                vertices.append((x + 0.0, y + 0.0))  # no -0.0, as from solve_simplex

    if not vertices:
        return OracleResult(LpSolution("infeasible"), (), (), slope)

    # unboundedness: an extreme ray of {v >= 0, A v <= 0} with c.v > 0
    rays = [(1.0, 0.0), (0.0, 1.0)]
    for a1, a2, _ in rows:
        rays += [(a2, -a1), (-a2, a1)]
    for u, v in rays:
        nv = math.hypot(u, v)
        if nv == 0.0:
            continue
        u, v = u / nv, v / nv
        if (min(u, v) >= -1e-9 and c1 * u + c2 * v > 1e-9 * math.hypot(c1, c2)
                and all(a1 * u + a2 * v <= 1e-9 * math.hypot(a1, a2) for a1, a2, _ in rows)):
            return OracleResult(LpSolution("unbounded"), tuple(vertices), (), slope)

    w = [c1 * x + c2 * y for x, y in vertices]  # z - d
    w_best = max(w)
    best = [p for p, wp in zip(vertices, w) if wp >= w_best - 1e-9 * max(map(abs, w))]
    x, y = best[0]
    slacks = tuple(r - (a1 * x + a2 * y) + 0.0 for a1, a2, r in rows)
    sol = LpSolution("optimal", best[0], sign * (w_best + sign * lp.d), slacks, 0)
    return OracleResult(sol, tuple(vertices), tuple(best), slope)
