"""Leontief's stationary input-output model.

A deliveries table (who shipped how many units to whom, plus final demand)
is condensed into the input-output matrix P; the technology matrix I - P
then answers the two forecasting questions: which final demand a given
total output supports, and which total output a given final demand needs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .linalg import EPS_ZERO, DimensionError, Matrix, Vector
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
        if d.to_array().min() < 0 or self.final_demand.to_array().min() < 0:
            raise ModelError("deliveries and final demand must be non-negative")

    @property
    def n(self) -> int:
        return self.deliveries.rows


class LeontiefModel(_FrozenRecord):
    """Input-output matrix P plus an optional resource consumption matrix R.
    I - P is eliminated once; every solve replays ``elimination`` on its y
    (a slot, not a field: no argument of __init__, unseen by == and repr)."""

    __slots__ = ("P", "R", "labels", "elimination")
    _fields = ("P", "R", "labels")
    _defaults = {"R": None, "labels": None}

    def __post_init__(self):
        if not self.P.is_square:
            raise DimensionError("P must be square")
        if self.P.to_array().min() < 0:
            raise ModelError("P must be non-negative")
        if self.R is not None:
            if self.R.cols != self.P.rows:
                raise DimensionError("R must have one column per agent")
            if self.R.to_array().min() < 0:
                raise ModelError("R must be non-negative")
        steps: list = []
        _, rk, _, _ = linsolve.rref(self.technology_matrix(), steps)
        if rk < self.n:
            raise ModelError(f"technology matrix I - P is singular (rank {rk} < {self.n})")
        object.__setattr__(self, "elimination", tuple(steps))

    @property
    def n(self) -> int:
        return self.P.rows

    def technology_matrix(self) -> Matrix:
        return Matrix.from_array(np.eye(self.n) - self.P.to_array())

    def total_demand_matrix(self) -> Matrix:
        """(I - P)^-1, materialized on request from the stored elimination."""
        return Matrix.from_array(linsolve.replay(self.elimination, np.eye(self.n)))


def model_from_table(
    t: DeliveriesTable, R: Optional[Matrix] = None, labels=None
) -> tuple[LeontiefModel, Vector, Vector]:
    """Build (model, total output q, final demand y) from a deliveries table.

    q_i = sum_j n_ij + y_i and P_ij = n_ij / q_j; q_j is the total output of
    the receiving agent, so P's columns are scaled by the column agent.
    """
    nd = t.deliveries.to_array()
    y = t.final_demand.to_array()
    q = nd.sum(axis=1) + y
    if np.any(q <= 0):
        bad = int(np.argmin(q))
        raise ModelError(f"agent {bad} has zero total output; P column undefined")
    P = nd / q[np.newaxis, :]
    model = LeontiefModel(Matrix.from_array(P), R=R, labels=labels)
    return model, Vector(q), Vector(y)


def final_demand(m: LeontiefModel, q: Vector) -> tuple[Vector, bool]:
    """y = (I - P) q.  The flag reports a negative component (model
    inconsistency) alongside the value rather than rejecting it."""
    if q.n != m.n:
        raise DimensionError(f"expected dimension {m.n}, got {q.n}")
    y = m.technology_matrix().to_array() @ q.to_array()
    return Vector(y), bool(np.any(y < -EPS_ZERO))


def total_output(m: LeontiefModel, y: Vector) -> tuple[Vector, bool]:
    """q = (I - P)^-1 y, by replaying the model's elimination on y: O(n^2)
    (``linsolve.replay``).  Up to ONE_PANEL (32) sectors that is bit for bit
    what eliminating [I - P | y] as one panel gives; from 33 sectors on, one
    matrix product per panel of NB columns, equal to it up to rounding."""
    if y.n != m.n:
        raise DimensionError(f"expected dimension {m.n}, got {y.n}")
    q = linsolve.replay(m.elimination, y.to_array())
    return Vector(q), bool(np.any(q < -EPS_ZERO))


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
    return Vector(m.R.to_array() @ q.to_array())


def forecast(m: LeontiefModel, next_demand: Vector) -> tuple[Vector, Optional[Vector]]:
    """Apply the reference-period P unchanged to a new final demand."""
    q, _ = total_output(m, next_demand)
    v = resource_requirements(m, q, given="q") if m.R is not None else None
    return q, v
