"""Leontief's stationary input-output model.

A deliveries table (who shipped how many units to whom, plus final demand)
is condensed into the input-output matrix P; the technology matrix I - P
then answers the two forecasting questions: which final demand a given
total output supports, and which total output a given final demand needs.
"""

from __future__ import annotations

from typing import Optional

from .linalg import EPS_ZERO, DimensionError, Matrix, Vector, _min, mat_vec
from . import linsolve
from .numeric import _FrozenRecord


class ModelError(ValueError):
    pass


class DeliveriesTable(_FrozenRecord):
    """n x n goods flows n_ij (units) plus the final-demand vector y."""

    __slots__ = ("deliveries", "final_demand")

    def __post_init__(self):
        d = self.deliveries
        if not d.is_square:
            raise DimensionError(f"deliveries table must be square, got {d.rows}x{d.cols}")
        if d.rows != self.final_demand.n:
            raise DimensionError("final demand dimension must match table size")
        if _min(d) < 0 or _min(self.final_demand) < 0:
            raise ModelError("deliveries and final demand must be non-negative")

    @property
    def n(self) -> int:
        return self.deliveries.rows


class LeontiefModel(_FrozenRecord):
    """Input-output matrix P plus an optional resource consumption matrix R.
    The technology matrix T = I - P is formed once, from P alone, and kept;
    T is eliminated once by ``linsolve.rref``, which fills ``elimination``,
    the record of its row operations, and every solve replays that record
    on its y.  T, its largest entry in absolute value and the elimination
    are slots, not fields: no argument of __init__, unseen by ==, hash, repr
    and pickle, which rebuilds them from P."""

    __slots__ = ("P", "R", "labels", "_T", "_T_max", "elimination")
    _fields = ("P", "R", "labels")
    _defaults = {"R": None, "labels": None}

    def __post_init__(self):
        P, n = self.P, self.P.rows
        if not P.is_square:
            raise DimensionError("P must be square")
        if _min(P) < 0:
            raise ModelError("P must be non-negative")
        if self.R is not None:
            if self.R.cols != n:
                raise DimensionError("R must have one column per agent")
            if _min(self.R) < 0:
                raise ModelError("R must be non-negative")
        if type(P._a) is tuple:  # 1 - v and 0 - v: what 1.0*I + (-1.0)*P rounds to
            T = Matrix(n, n, [float(k % (n + 1) == 0) - v for k, v in enumerate(P._a)])
            T_max = max(map(abs, T._a))
        else:
            import numpy as np
            T = Matrix.from_array(np.eye(n) - P._a)
            T_max = float(np.abs(T._a).max())
        e = linsolve._Elimination()
        _, rk, _, _ = linsolve.rref(T, e)
        if rk < n:
            raise ModelError(f"technology matrix I - P is singular (rank {rk} < {n})")
        object.__setattr__(self, "_T", T)
        object.__setattr__(self, "_T_max", T_max)
        object.__setattr__(self, "elimination", e)

    @property
    def n(self) -> int:
        return self.P.rows

    def technology_matrix(self) -> Matrix:
        """T = I - P, the matrix kept when the model was built."""
        return self._T

    def total_demand_matrix(self) -> Matrix:
        """(I - P)^-1, materialized on request by replaying the kept
        elimination on I; past the float range, a NumericalError."""
        return self.elimination.inverse()


def model_from_table(
    t: DeliveriesTable, R: Optional[Matrix] = None, labels=None
) -> tuple[LeontiefModel, Vector, Vector]:
    """Build (model, total output q, final demand y) from a deliveries table.

    q_i = sum_j n_ij + y_i and P_ij = n_ij / q_j; q_j is the total output of
    the receiving agent, so P's columns are scaled by the column agent.  Each
    row is summed in NumPy's order on either representation (_row_sum).
    """
    nd, y = t.deliveries, t.final_demand.entries
    if type(nd._a) is tuple:
        rows = [nd.row(i) for i in range(t.n)]
        q = [_row_sum(row) + yi for row, yi in zip(rows, y)]
    else:
        q = (nd.to_array().sum(axis=1) + y).tolist()
    if min(q) <= 0:
        raise ModelError(f"agent {q.index(min(q))} has zero total output; P column undefined")
    if type(nd._a) is tuple:
        P = Matrix(t.n, t.n, [v / qj for row in rows for v, qj in zip(row, q)])
    else:
        P = Matrix.from_array(nd.to_array() / q)
    model = LeontiefModel(P, R=R, labels=labels)
    return model, Vector(q), Vector(y)


def _row_sum(row: tuple) -> float:
    """sum(row) rounded as NumPy sums a row of fewer than 16 floats (SMALL
    is 8): left to right below 8 terms, else the first 8 added pairwise and
    the rest added to them one by one."""
    s, rest = 0.0, row
    if len(row) >= 8:
        r, rest = row, row[8:]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in rest:
        s += v
    return s


def _abs_sum(v: Vector) -> float:
    """sum_i |v_i|: the size against which the flags read a component; inf
    past the float range on either form, with no warning."""
    a = v._a
    if type(a) is tuple:
        return sum(map(abs, a))
    import numpy as np
    with np.errstate(over="ignore"):
        return float(abs(a).sum())


def final_demand(m: LeontiefModel, q: Vector) -> tuple[Vector, bool]:
    """y = (I - P) q, by the model's kept T.  The flag reports a component
    y_i < -EPS_ZERO max|T| sum_j |q_j| (a model inconsistency; the bound on
    the terms T_ij q_j, so the test does not depend on the scale of q)
    alongside the value rather than rejecting it."""
    if q.n != m.n:
        raise DimensionError(f"expected dimension {m.n}, got {q.n}")
    y = mat_vec(m._T, q)
    return y, _min(y) < -EPS_ZERO * m._T_max * _abs_sum(q)


def total_output(m: LeontiefModel, y: Vector) -> tuple[Vector, bool]:
    """q = (I - P)^-1 y, by replaying the model's elimination record on y,
    in the form it was made on: O(n^2) (``linsolve.replay``).  Up to
    ONE_PANEL (32) sectors that is bit for bit what eliminating [I - P | y]
    as one panel gives, on either form.  From 33 sectors on it is each
    panel's forward operations on y in turn, then the back pass through the
    upper factor's identity diagonal blocks, from the last panel up: three
    matrix-vector products per panel, equal to that elimination up to
    rounding.  A q past the float range is a NumericalError.  The flag
    reports a component q_i < -EPS_ZERO sum_j |q_j|, relative to q's own
    size, alongside the value."""
    if y.n != m.n:
        raise DimensionError(f"expected dimension {m.n}, got {y.n}")
    q = Vector._adopt(linsolve.replay(m.elimination, y._a), (m.n,), orientation="col")
    low = _min(q)  # sum |q| is read only for a negative q_i: productive models have none
    return q, low < 0.0 and low < -EPS_ZERO * _abs_sum(q)


def resource_requirements(m: LeontiefModel, vec: Vector, given: str = "y") -> Vector:
    """Resource numbers v = R q, with q recovered from y when given='y'."""
    if m.R is None:
        raise ModelError("model has no resource consumption matrix")
    if given == "q":
        q = vec
    elif given == "y":
        q, _ = total_output(m, vec)
    else:
        raise ValueError(f"given must be 'q' or 'y', not {given!r}")
    if q.n != m.R.cols:
        raise DimensionError("dimension mismatch against R")
    return mat_vec(m.R, q)


def forecast(m: LeontiefModel, next_demand: Vector) -> tuple[Vector, Optional[Vector]]:
    """Apply the reference-period P unchanged to a new final demand."""
    q, _ = total_output(m, next_demand)
    v = resource_requirements(m, q, given="q") if m.R is not None else None
    return q, v
