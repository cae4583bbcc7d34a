"""Standard-form linear programs, the tableau simplex method, and an
independent vertex-enumeration oracle for two-variable problems.

A LinearProgram always stores its restrictions as A x <= b together with
x >= 0; a minimum problem is handled by negating the objective.  c, A and b
are accepted as sequences or arrays and held as read-only float64 arrays,
which the tableau and the oracle use as they are.  Only standard forms with
b >= 0 are solvable here: anything that would need artificial variables is
reported as "unsupported" rather than solved by an invented phase-1 method.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .linsolve import _pivot_step
from .numeric import NumericalError, _FrozenRecord

FEAS_TOL = 1e-9
PIVOT_MIN = 1e-9


class SimplexError(ValueError):
    pass


class IterationLimitError(NumericalError, RuntimeError):
    """Cycling guard tripped: the iteration cap was exceeded."""


class LinearProgram(_FrozenRecord):
    """c, A, b: read-only float64 arrays of shapes (n,), (m, n), (m,)."""

    __slots__ = ("sense", "c", "A", "b", "d", "names")  # sense is "max" or "min"
    _defaults = {"d": 0.0, "names": None}

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise SimplexError(f"sense must be 'max' or 'min', not {self.sense!r}")
        c, b = np.array(self.c, dtype=float), np.array(self.b, dtype=float)
        try:
            A = np.array(self.A, dtype=float)
        except ValueError:  # ragged rows
            A = None
        if A is not None and A.shape == (0,):  # A=(): no restrictions
            A = A.reshape(0, c.size)
        if A is None or c.ndim != 1 or A.ndim != 2 or A.shape[1] != c.size:
            raise SimplexError("each restriction row must have one entry per variable")
        if b.shape != A.shape[:1]:
            raise SimplexError("rows(A) must equal dim(b)")
        if not np.isfinite(np.concatenate((c, A.ravel(), b, [self.d]))).all():
            raise SimplexError("c, A, b and d must be finite (no NaN or inf)")
        for key, a in (("c", c), ("A", A), ("b", b)):
            a.flags.writeable = False
            object.__setattr__(self, key, a)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        same = (self.sense, self.d, self.names) == (other.sense, other.d, other.names)
        return same and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in "cAb")

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def m(self) -> int:
        return self.b.size

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
        out = {"sense": self.sense, "c": self.c.tolist(), "d": self.d,
               "A": self.A.tolist(), "b": self.b.tolist()}
        if self.names:
            out["names"] = list(self.names)
        return out


def _numbers(value, key: str, depth: int):
    """An LP document field as a float (depth 0) or nested tuples of floats."""
    if depth == 0 and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if depth > 0 and isinstance(value, list):
        return tuple(_numbers(v, key, depth - 1) for v in value)
    kind = ("a number", "a list of numbers", "a list of lists of numbers")[depth]
    raise SimplexError(f"LP field {key!r} must be {kind}, got {value!r}")


class LpSolution(_FrozenRecord):
    # status is "optimal" | "unbounded" | "infeasible" | "unsupported"
    __slots__ = ("status", "x", "z", "slacks", "iterations")
    _defaults = {"x": (), "z": float("nan"), "slacks": (), "iterations": 0}

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "x": list(self.x),
            "z": self.z,
            "slacks": list(self.slacks),
            "iterations": self.iterations,
        }


class SimplexTableau:
    """(1+m) x (1+n+m+1) tableau: z column, x columns, s columns, RHS.

    Row 0 holds (1, -c_1..-c_n, 0..0, d); rows 1..m hold the restrictions
    with their slack unit columns.  Basis variables are identified by
    index: 0 is z, 1..n the structural variables, n+1..n+m the slacks.
    """

    def __init__(self, grid: np.ndarray, basis: list[int], n: int, m: int):
        self.grid = grid
        self.basis = basis
        self.n = n
        self.m = m
        self.iteration = 0

    def copy(self) -> "SimplexTableau":
        t = SimplexTableau(self.grid.copy(), list(self.basis), self.n, self.m)
        t.iteration = self.iteration
        return t

    @property
    def rhs(self) -> np.ndarray:
        return self.grid[:, -1]

    def variable_name(self, idx: int) -> str:
        if idx == 0:
            return "z"
        if idx <= self.n:
            return f"x{idx}"
        return f"s{idx - self.n}"

    def basis_solution(self) -> np.ndarray:
        """Values of (z, x_1..x_n, s_1..s_m) with non-basis variables at 0."""
        values = np.zeros(1 + self.n + self.m)
        values[self.basis] = self.grid[:, -1]
        return values

    def format_text(self) -> str:
        header = ["z"] + [f"x{j}" for j in range(1, self.n + 1)] + [
            f"s{i}" for i in range(1, self.m + 1)
        ] + ["RHS"]
        lines = ["# " + ",".join(header)]
        for row in self.grid:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def negate_to_max(lp: LinearProgram) -> LinearProgram:
    """min z = c.x + d  <=>  max -z = (-c).x - d over the same feasible set."""
    if lp.sense == "max":
        return lp
    return LinearProgram("max", -lp.c, lp.A, lp.b, -lp.d, lp.names)


def canonicalize(lp: LinearProgram) -> SimplexTableau:
    """Initial tableau with slack variables; first basis is {z, s_1..s_m}."""
    if lp.sense != "max":
        raise SimplexError("canonicalize expects a max problem; use negate_to_max")
    if (lp.b < 0).any():
        raise SimplexError("unsupported: negative capacity would need a phase-1 method")
    n, m = lp.n, lp.m
    grid = np.zeros((1 + m, 1 + n + m + 1))
    grid[0, 0] = 1.0
    grid[0, 1 : 1 + n] = -lp.c
    grid[0, -1] = lp.d
    grid[1:, 1 : 1 + n] = lp.A
    grid[1:, 1 + n : -1] = np.eye(m)
    grid[1:, -1] = lp.b
    basis = [0] + [n + 1 + i for i in range(m)]
    return SimplexTableau(grid, basis, n, m)


def pivot(t: SimplexTableau, i_star: int, j_star: int) -> SimplexTableau:
    """Pivot operation on element (i_star, j_star), in place; rows are
    1-based over the restriction block, columns 1-based over the variable
    block.  Returns t; copy it first to keep the previous tableau."""
    p = t.grid[i_star, j_star]
    if p <= PIVOT_MIN:
        raise SimplexError(f"pivot element {p!r} at ({i_star},{j_star}) is not positive")
    _pivot_step(t.grid, i_star, j_star)
    t.basis[i_star] = j_star
    t.iteration += 1
    return t


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
    go to the smallest basis variable.  A min problem is negated first and
    its optimal value negated back.
    """
    if lp.sense == "min":
        inner = solve_simplex(negate_to_max(lp), trace=trace)
        if inner.status != "optimal":
            return inner
        return LpSolution(
            "optimal", inner.x, -inner.z, inner.slacks, inner.iterations
        )
    try:
        t = canonicalize(lp)
    except SimplexError:
        return LpSolution("unsupported")
    if trace is not None:
        trace.append(t.copy())
    cap = iteration_cap(lp.n, lp.m)
    bland = False  # Bland's rule, in force after a degenerate pivot

    while True:
        # basis columns hold exact zeros in row 0 (every pivot leaves its
        # column a unit vector), so only non-basis columns can enter
        row0 = t.grid[0, :-1]
        entering = (row0 < -PIVOT_MIN).nonzero()[0]
        if entering.size == 0:
            break  # S1: optimal
        # most negative, then smallest column index; Bland: smallest index
        j_star = int(entering[0]) if bland else int(row0.argmin())
        col = t.grid[1:, j_star]
        eligible = col > PIVOT_MIN
        if not eligible.any():
            return LpSolution("unbounded", iterations=t.iteration)  # S3
        ratios = np.divide(t.grid[1:, -1], col, out=np.full(lp.m, np.inf), where=eligible)
        i_star = 1 + int(ratios.argmin())  # S4: smallest ratio, then smallest row
        if bland:  # ratio ties go to the smallest basis variable
            tied = 1 + (ratios == ratios[i_star - 1]).nonzero()[0]
            i_star = int(min(tied, key=t.basis.__getitem__))
        bland = ratios[i_star - 1] <= FEAS_TOL
        t = pivot(t, i_star, j_star)
        if trace is not None:
            trace.append(t.copy())
        if t.iteration > cap:
            raise IterationLimitError(
                f"no optimum after {cap} pivots; presumed cycling"
            )

    values = t.basis_solution().tolist()  # Python floats, as LpSolution declares
    x, slacks = tuple(values[1 : 1 + t.n]), tuple(values[1 + t.n :])
    return LpSolution("optimal", x, values[0], slacks, t.iteration)


# ---------------------------------------------------------------------------
# Vertex-enumeration oracle for n = 2 (the graphical method, made exact).
# ---------------------------------------------------------------------------

class OracleResult(_FrozenRecord):
    # isoquant_slope is the slope of the (0,0)-isoquant
    __slots__ = ("solution", "vertices", "optimal_vertices", "isoquant_slope")
    _defaults = {"vertices": (), "optimal_vertices": (), "isoquant_slope": None}


def _feasible(lp: LinearProgram, pt: np.ndarray, tol: float = 1e-7) -> bool:
    if pt[0] < -tol or pt[1] < -tol:
        return False
    return not np.any(lp.A @ pt > lp.b + tol * (1.0 + np.abs(lp.b)))


def vertex_oracle(lp: LinearProgram) -> OracleResult:
    """Enumerate all candidate vertices of the feasible region of a
    two-variable standard maximum problem and evaluate z at each.

    Lines considered: the m restriction boundaries plus the two axes.
    Unboundedness is detected by probing candidate recession directions
    (axis directions and directions along each restriction boundary).
    """
    if lp.sense == "min":
        inner = vertex_oracle(negate_to_max(lp))
        sol = inner.solution
        if sol.status == "optimal":
            sol = LpSolution("optimal", sol.x, -sol.z, sol.slacks, sol.iterations)
        return OracleResult(sol, inner.vertices, inner.optimal_vertices, inner.isoquant_slope)
    if lp.n != 2:
        raise SimplexError("vertex oracle is defined for n = 2 only")

    c, A, b = lp.c, lp.A, lp.b
    slope = -c[0] / c[1] if abs(c[1]) > PIVOT_MIN else None

    # all boundary lines as rows (a1, a2, rhs): the two axes, then A x = b
    lines = np.vstack([np.eye(2, 3), np.column_stack([A, b])])

    points = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            M, rhs = lines[[i, j], :2], lines[[i, j], 2]
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(det) <= 1e-12:
                continue
            pt = np.linalg.solve(M, rhs)
            if _feasible(lp, pt):
                points.append(pt)

    # deduplicate
    vertices: list[np.ndarray] = []
    for pt in points:
        if not any(np.max(np.abs(pt - v)) <= 1e-8 for v in vertices):
            vertices.append(pt)

    if not vertices:
        return OracleResult(LpSolution("infeasible"), (), (), slope)

    # unboundedness: an extreme ray of {v >= 0, A v <= 0} with c.v > 0
    ray_candidates = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for i in range(lp.m):
        dvec = np.array([A[i, 1], -A[i, 0]])
        ray_candidates.extend([dvec, -dvec])
    for v in ray_candidates:
        nv = np.linalg.norm(v)
        if nv <= 1e-12:
            continue
        v = v / nv
        if v[0] >= -1e-9 and v[1] >= -1e-9 and np.all(A @ v <= 1e-9):
            if float(c @ v) > 1e-9:
                return OracleResult(LpSolution("unbounded"), tuple(map(tuple, vertices)), (), slope)

    zs = [float(c @ v) + lp.d for v in vertices]
    z_best = max(zs)
    best = [v for v, z in zip(vertices, zs) if z >= z_best - 1e-9]
    x = tuple(best[0].tolist())
    slacks = tuple((b - A @ best[0]).tolist())
    sol = LpSolution("optimal", x, z_best, slacks, 0)
    return OracleResult(
        sol,
        tuple(map(tuple, vertices)),
        tuple(map(tuple, best)),
        slope,
    )
