"""The four benchmark workloads: which problems a round holds, and how many.

A workload is a list of rounds.  A round holds one problem of each class
the workload mixes, with fixed sizes (or sizes drawn from the seed), so the
share of each class in a run is the same whatever the seed.  All rounds are
generated from the seed before timing; the timed loop runs whole rounds.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import problems as p


@dataclass
class Op:
    kind: type
    inp: dict


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable  # rng -> [(kind, gen kwargs), ...]
    pool: int  # distinct rounds generated for the timed loop
    trace_rounds: int  # rounds in the traced run (a fixed op set)
    cli: bool = False


def _cli_round(rng):
    return [
        (p.Diff, {}), (p.Integrate, {}), (p.CurveCubic, {}),
        (p.Cost, {}), (p.Profit, {"shape": "lin"}), (p.Surplus, {"shape": "lin"}),
        (p.Production, {"n": 3, "m": 3, "density": 1.0}),
        (p.Solve, {"n": 3}), (p.Leontief, {"n": 3, "forecasts": 1}),
        (p.Schedule, {"plan": "pension"}), (p.RateSolve, {"plan": "installment"}),
    ]


def _linear_large_round(rng):
    # Sorted by cost, the classes fill 40 % (L50, LPs, solve 100), 20 %
    # (inverse), 10 %, 10 % and 20 % (Leontief n=200) of a round, so p50 and
    # p90 fall inside a class rather than on the gap between two.
    return [
        (p.Leontief, {"n": 50, "forecasts": 2}),
        (p.Production, {"n": 100, "m": 100, "density": 0.05}),
        (p.Production, {"n": 100, "m": 100, "density": 0.05}),
        (p.Solve, {"n": 100}),
        (p.Inverse, {"n": 100}), (p.Inverse, {"n": 100}),
        (p.Leontief, {"n": 100, "forecasts": 2}),
        (p.Solve, {"n": 300}),
        (p.Leontief, {"n": 200, "forecasts": 2}), (p.Leontief, {"n": 200, "forecasts": 2}),
    ]


def _linear_small_round(rng):
    return [
        (p.Leontief, {"n": int(rng.integers(3, 9)), "forecasts": 0}),
        (p.Production, {"n": 2, "m": int(rng.integers(2, 6)), "density": 1.0}),
        (p.Solve, {"n": int(rng.integers(2, 9))}),
        (p.Determinant, {"n": 3}), (p.Inverse, {"n": 3}), (p.EigenSym, {"n": 3}),
    ]


def _econ_calc_round(rng):
    # Two cost analyses put p50 inside a class (see _linear_large_round).
    return [
        (p.Cost, {}), (p.Cost, {}),
        (p.Profit, {"shape": "lin"}), (p.Profit, {"shape": "quad"}),
        (p.Profit, {"shape": "exp"}),
        (p.Surplus, {"shape": "lin"}), (p.Surplus, {"shape": "exp"}),
        (p.Surplus, {"shape": "simpson"}),
        (p.CurveCubic, {}), (p.CurveRational, {}), (p.Roots, {}),
        (p.RateSolve, {"plan": "installment"}), (p.RateSolve, {"plan": "redemption"}),
        (p.Schedule, {"plan": "pension"}), (p.Schedule, {"plan": "redemption"}),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-oneshot", _cli_round, pool=4, trace_rounds=1, cli=True),
        Workload("linear-large", _linear_large_round, pool=24, trace_rounds=1),
        Workload("linear-small", _linear_small_round, pool=500, trace_rounds=100),
        Workload("econ-calc", _econ_calc_round, pool=60, trace_rounds=2),
    )
}


def generate(name: str, seed: int, rounds: int | None = None) -> list[list[Op]]:
    """The workload's rounds for this seed; round 0 is the warm-up round."""
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    out = []
    for _ in range(1 + (w.pool if rounds is None else rounds)):
        out.append([Op(kind, kind.gen(rng, **kw)) for kind, kw in w.round(rng)])
    return out


def encode(rounds) -> bytes:
    """Canonical bytes of generated inputs (for the determinism self-test)."""

    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(type(o))

    doc = [[[op.kind.__name__, op.inp] for op in r] for r in rounds]
    return json.dumps(doc, default=default, sort_keys=True).encode()
