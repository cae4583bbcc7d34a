"""In-memory span recorder for the traced benchmark run.

A span is one call into a wrapped library function: (name, start, end,
parent span index, op id).  Wrapping replaces a module or class attribute
for the length of the traced run.  The library looks its globals up at call
time, so its own inner calls (``linsolve.rref`` under ``solve``,
``simplex.pivot`` under ``solve_simplex``) are recorded too.

Only stdlib imports at module level: cli_phases.py imports this file after
it has timed ``import ecomath``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (span name, module path, attribute path).  The recursive expr.evaluate and
# expr.differentiate are deliberately not wrapped: the names below are the
# ones econ, analysis and the CLI call, so the counts are function
# evaluations and derivatives taken, not tree nodes visited.
TARGETS = (
    ("linalg.from_array", "ecomath.linalg", "Matrix.from_array"),
    ("linalg.to_array", "ecomath.linalg", "Matrix.to_array"),
    ("linalg.to_array", "ecomath.linalg", "Vector.to_array"),
    ("linsolve.rref", "ecomath.linsolve", "rref"),
    ("linsolve.solve", "ecomath.linsolve", "solve"),
    ("linsolve.inverse", "ecomath.linsolve", "inverse"),
    ("linsolve.determinant", "ecomath.linsolve", "determinant"),
    ("linsolve.eigen_sym", "ecomath.linsolve", "eigen_sym"),
    ("leontief.model", "ecomath.leontief", "model_from_table"),
    ("leontief.total_output", "ecomath.leontief", "total_output"),
    ("leontief.forecast", "ecomath.leontief", "forecast"),
    ("simplex.solve", "ecomath.simplex", "solve_simplex"),
    ("simplex.canonicalize", "ecomath.simplex", "canonicalize"),
    ("simplex.pivot", "ecomath.simplex", "pivot"),
    ("calculus.parse", "ecomath.calculus", "parse"),
    ("calculus.differentiate", "ecomath.calculus", "differentiate"),
    ("calculus.differentiate", "ecomath.calculus.analysis", "differentiate"),
    ("calculus.evaluate", "ecomath.calculus", "evaluate"),
    ("calculus.evaluate", "ecomath.calculus.analysis", "evaluate"),
    ("calculus.roots", "ecomath.calculus", "roots"),
    ("calculus.roots", "ecomath.calculus.analysis", "roots"),
    ("calculus.integrate", "ecomath.calculus", "integrate"),
    ("calculus.integrate", "ecomath.calculus.analysis", "integrate"),
    ("calculus.curve_report", "ecomath.calculus", "curve_report"),
    ("econ.cost_analysis", "ecomath.econ", "cost_analysis"),
    ("econ.market_model", "ecomath.econ", "MarketModel.__post_init__"),
    ("econ.profit_analysis", "ecomath.econ", "profit_analysis"),
    ("econ.equilibrium", "ecomath.econ", "equilibrium"),
    ("econ.market_strategies", "ecomath.econ", "market_strategies"),
    ("finmath.solve", "ecomath.finmath", "installment_solve"),
    ("finmath.solve", "ecomath.finmath", "redemption_solve"),
    ("finmath.schedule", "ecomath.finmath", "pension_plan"),
    ("finmath.schedule", "ecomath.finmath", "redemption_plan"),
    ("finmath.schedule", "ecomath.finmath", "Schedule.to_csv"),
    ("finmath.schedule", "ecomath.finmath", "Schedule.to_json"),
)

OP_SPAN = "op"


class Recorder:
    """Collects spans in memory; ``install`` wraps TARGETS, ``restore``
    puts every original attribute back."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1

    def span(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span named OP_SPAN."""
        self.op_id = op_id
        return self.span(OP_SPAN, fn)(*args)

    def install(self):
        for name, module, attr in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.span(name, original.__func__))
            else:
                wrapped = self.span(name, original)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)

    def restore(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def write(path, spans):
    """Write spans as JSON lines: [name, start, end, parent, op id]."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    Children are merged as intervals clipped to the parent, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def _under(spans, ancestor_names) -> list[str | None]:
    """For each span, the name of its nearest ancestor in ancestor_names."""
    out: list[str | None] = []
    for name, _, _, parent, _ in spans:
        if parent < 0:
            out.append(None)
        elif spans[parent][0] in ancestor_names:
            out.append(spans[parent][0])
        else:
            out.append(out[parent])
    return out


# The per-layer counters and self times reported by a traced run, in the
# order BENCHMARK.json lists them.
SELF_MS = (
    "linalg.from_array", "linalg.to_array",
    "linsolve.rref", "linsolve.solve", "linsolve.inverse",
    "linsolve.determinant", "linsolve.eigen_sym",
    "leontief.model", "leontief.total_output",
    "simplex.solve", "simplex.canonicalize", "simplex.pivot",
    "calculus.parse", "calculus.differentiate", "calculus.evaluate",
    "calculus.roots", "calculus.integrate", "calculus.curve_report",
    "econ.cost_analysis", "econ.market_model", "econ.profit_analysis",
    "econ.equilibrium", "econ.market_strategies",
    "finmath.solve", "finmath.schedule",
)
CALLS = (
    "linalg.from_array", "linalg.to_array", "linsolve.rref", "simplex.pivot",
    "calculus.differentiate", "calculus.evaluate", "calculus.roots",
)


def layer_metrics(spans) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (totals over the run)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    for (name, *_), s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + s * 1e3

    owner = _under(spans, {"leontief.model", "leontief.forecast"})
    rref_in = {"leontief.model": 0, "leontief.forecast": 0}
    for (name, *_), o in zip(spans, owner):
        if name == "linsolve.rref" and o is not None:
            rref_in[o] += 1
    in_roots = _under(spans, {"calculus.roots"})
    in_integrate = _under(spans, {"calculus.integrate"})
    evals_in_roots = evals_in_integrate = 0
    for i, (name, *_) in enumerate(spans):
        if name == "calculus.evaluate":
            evals_in_roots += in_roots[i] is not None
            evals_in_integrate += in_integrate[i] is not None

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in SELF_MS:
        out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    out["leontief.rref_per_model"] = ratio(
        rref_in["leontief.model"], calls.get("leontief.model", 0))
    out["leontief.rref_per_forecast"] = ratio(
        rref_in["leontief.forecast"], calls.get("leontief.forecast", 0))
    out["simplex.pivots_per_lp"] = ratio(
        calls.get("simplex.pivot", 0), calls.get("simplex.solve", 0))
    out["calculus.roots.evals_per_call"] = ratio(
        evals_in_roots, calls.get("calculus.roots", 0))
    out["calculus.integrate.evals"] = evals_in_integrate
    return out
