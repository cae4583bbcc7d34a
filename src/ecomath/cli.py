"""Batch command-line frontend.

Subcommand tree: linalg, solve, leontief, lp, finance, calc, econ.  Global
flags --format {table,json,csv}, --output PATH and --trace may appear before
or after the subcommand.  Exit codes: 0 success, 1 input/parse error,
2 infeasible/unbounded/no-solution outcomes, 3 numerical failure.

Output is deterministic and locale-independent: numbers always use '.' as
the decimal separator, and identical argv plus input files produce
byte-identical output.

Each handler imports the modules it uses, so a call loads only those, and
dispatch builds the parser's arguments only for the command that argv names.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .numeric import NumericalError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_SOLUTION = 2
EXIT_NUMERICAL = 3


class OutcomeExit(Exception):
    """A well-formed run whose mathematical outcome maps to exit code 2."""

    def __init__(self, message: str, payload: Optional[dict] = None):
        super().__init__(message)
        self.payload = payload


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _num(v: float) -> str:
    return f"{v:.10g}"


def _render_table(data: dict, indent: str = "") -> str:
    lines = []
    width = max((len(k) for k in data), default=0)
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_table(value, indent + "  "))
        elif isinstance(value, (list, tuple)):
            rendered = ", ".join(
                _num(v) if isinstance(v, float) else str(v) for v in value
            )
            lines.append(f"{indent}{key:<{width}}  [{rendered}]")
        elif isinstance(value, float):
            lines.append(f"{indent}{key:<{width}}  {_num(value)}")
        else:
            lines.append(f"{indent}{key:<{width}}  {value}")
    return "\n".join(lines)


def render(payload, fmt: str) -> str:
    """Serialize a result payload: json at full precision, csv for
    schedules, aligned key/value text otherwise."""
    # only a call that loaded finmath can have made a Schedule
    finmath = sys.modules.get(f"{__package__}.finmath")
    if finmath is not None and isinstance(payload, finmath.Schedule):
        if fmt == "csv":
            return payload.to_csv()
        if fmt == "json":
            return payload.to_json() + "\n"
        meta = _render_table({k: v for k, v in payload.meta.items()})
        return meta + "\n" + payload.to_csv()
    if fmt == "csv":
        raise ValueError("csv output is only defined for schedules")
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if isinstance(payload, dict):
        return _render_table(payload) + "\n"
    return str(payload) + "\n"


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Input helpers
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _finite(text: str) -> float:
    """A finite float from text: the type of every number flag, and how
    --window and --cost read theirs.  NaN and +-inf are refused here, so no
    computation sees them and no output carries them."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_window(spec: str) -> tuple[float, float]:
    lo, _, hi = spec.partition(":")
    if not _:
        raise ValueError(f"window must look like LO:HI, got {spec!r}")
    return _finite(lo), _finite(hi)


def _parse_coeffs(spec: str) -> tuple[float, ...]:
    return tuple(_finite(v) for v in spec.split(","))


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns a payload for render()
# ---------------------------------------------------------------------------

def _rows(M) -> list:
    return [list(M.row(i)) for i in range(M.rows)]


def _cmd_linalg(args):
    from . import linalg, linsolve
    if args.linalg_op == "det":
        return {"determinant": linsolve.determinant(linalg.read_matrix(args.matrix))}
    if args.linalg_op == "inverse":
        inv = linsolve.inverse(linalg.read_matrix(args.matrix))
        return {"inverse": _rows(inv)}
    if args.linalg_op == "mul":
        prod = linalg.mat_mul(linalg.read_matrix(args.matrix), linalg.read_matrix(args.other))
        return {"product": _rows(prod)}
    if args.linalg_op == "matvec":
        v = linalg.mat_vec(linalg.read_matrix(args.matrix), linalg.read_vector(args.vector))
        return {"result": list(v.entries)}
    if args.linalg_op == "angle":
        a = linalg.read_vector(args.matrix)
        b = linalg.read_vector(args.other)
        return {
            "dot": linalg.dot(a, b),
            "angle_rad": linalg.angle(a, b),
            "orthogonal": linalg.are_orthogonal(a, b),
        }
    raise ValueError(f"unknown linalg operation {args.linalg_op!r}")


def _cmd_solve(args):
    from . import linalg, linsolve
    A = linalg.read_matrix(args.matrix)
    b = linalg.read_vector(args.rhs)
    result = linsolve.solve(linsolve.LinearSystem(A, b)).to_dict()
    if result["kind"] == "none":
        raise OutcomeExit("the system has no solution", result)
    return result


def _cmd_leontief(args):
    from . import leontief, linalg
    table = leontief.DeliveriesTable(
        linalg.read_matrix(args.table), linalg.read_vector(args.demand)
    )
    R = linalg.read_matrix(args.resources) if args.resources else None
    model, q, y = leontief.model_from_table(table, R=R)
    payload = {
        "total_output": list(q.entries),
        "final_demand": list(y.entries),
        "P": _rows(model.P),
        "technology_matrix": _rows(model.technology_matrix()),
        "total_demand_matrix": _rows(model.total_demand_matrix()),
    }
    if R is not None:
        v = leontief.resource_requirements(model, q, given="q")
        payload["resource_requirements"] = list(v.entries)
    if args.next_demand:
        q2, v2 = leontief.forecast(model, linalg.read_vector(args.next_demand))
        payload["forecast_total_output"] = list(q2.entries)
        if v2 is not None:
            payload["forecast_resources"] = list(v2.entries)
    return payload


def _cmd_lp(args):
    from . import simplex
    lp = simplex.LinearProgram.from_json(_read_text(args.problem))
    trace: Optional[list] = [] if args.trace else None
    solution = simplex.solve_simplex(lp, trace=trace)
    if trace:
        for tab in trace:
            sys.stderr.write(tab.format_text() + "\n")
    payload = solution.to_dict()
    if solution.status != "optimal":
        raise OutcomeExit(f"status: {solution.status}", payload)
    return payload


def _cmd_finance(args):
    from . import finmath
    op = args.finance_op
    if op == "compound":
        value = finmath.compound_solve(K0=args.K0, Kn=args.Kn, q=args.q, n=args.n)
        missing = [k for k in ("K0", "Kn", "q", "n") if getattr(args, k) is None][0]
        return {missing: value}
    if op == "effective":
        q_eff, p_eff = finmath.effective_rate(args.p, args.m)
        return {"q_eff": q_eff, "p_eff": p_eff}
    if op == "installment":
        value = finmath.installment_solve(Kn=args.Kn, E=args.E, q=args.q, n=args.n)
        missing = [k for k in ("Kn", "E", "q", "n") if getattr(args, k) is None][0]
        return {missing: value}
    if op == "redemption":
        return finmath.redemption_plan(
            args.R0, args.p, t=args.t, A=args.A, horizon=args.horizon
        )
    if op == "pension":
        return finmath.pension_plan(args.K0, args.p, args.m, args.a, horizon=args.horizon)
    if op == "depreciation":
        if args.method == "linear":
            rn, schedule = finmath.depreciation_linear(args.K0, args.N, n=args.n)
            return schedule
        result = finmath.depreciation_declining(args.K0, p=args.p, n=args.n, Rn=args.Rn)
        if isinstance(result, tuple):
            return result[1]
        missing = "p" if args.p is None else "n"
        return {missing: result}
    if op == "master":
        return {"Kn": finmath.master_formula(args.K0, args.q, args.R, args.n)}
    raise ValueError(f"unknown finance operation {op!r}")


def _cmd_calc(args):
    from . import calculus as ca
    op = args.calc_op
    expr = ca.parse(args.expr)
    if op == "diff":
        return {"derivative": ca.to_string(ca.differentiate(expr))}
    if op == "elasticity":
        eps = ca.elasticity(expr, args.at)
        return {"elasticity": eps, "label": ca.elasticity_label(eps)}
    if op == "roots":
        lo, hi = _parse_window(args.window)
        return {"roots": ca.roots(expr, lo, hi)}
    if op == "integrate":
        return {"integral": ca.integrate(expr, getattr(args, "from"), args.to)}
    if op == "report":
        lo, hi = _parse_window(args.window)
        return ca.curve_report(expr, lo, hi).to_dict()
    raise ValueError(f"unknown calc operation {op!r}")


def _cmd_econ(args):
    from . import calculus as ca
    from . import econ
    op = args.econ_op
    if op == "cost":
        model = econ.CostModel(a3=args.a3, a2=args.a2, a1=args.a1, a0=args.a0)
        return econ.cost_analysis(model).to_dict()
    if op == "profit":
        a3, a2, a1, a0 = _parse_coeffs(args.cost)
        lo, x_max = _parse_window(args.window)
        if lo != 0:
            raise ValueError(f"--window must start at 0 (a market model lives on "
                             f"[0, x_max]), got {args.window!r}")
        market = econ.MarketModel(
            price=ca.parse(args.price),
            cost=econ.CostModel(a3=a3, a2=a2, a1=a1, a0=a0),
            x_max=x_max,
        )
        payload = econ.profit_analysis(market).to_dict()
        if payload["x_M"] is not None:
            payload["cournot"] = econ.cournot(market).to_dict()
        return payload
    if op == "surplus":
        try:
            strategies = econ.market_strategies(
                ca.parse(args.demand), ca.parse(args.supply), args.pu, args.po
            )
        except econ.EconError as exc:
            raise OutcomeExit(str(exc))
        return strategies.to_dict()
    if op == "value":
        return {"value": econ.psych_value(args.x, args.a)}
    raise ValueError(f"unknown econ operation {op!r}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _global_flags(parser: argparse.ArgumentParser, suppress: bool):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default=argparse.SUPPRESS if suppress else "table",
        help="output format (default: table)",
    )
    parser.add_argument("--output", default=default, metavar="PATH", help="write results to PATH")
    parser.add_argument(
        "--trace",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="stream per-iteration tableaus (lp) to the error stream",
    )


def _linalg_args(leaves):
    for p in leaves.values():
        p.add_argument("matrix", help="matrix (or first vector) file, matrix text format")
    leaves["matvec"].add_argument("vector", help="vector file")
    for name in ("mul", "angle"):
        leaves[name].add_argument("other", help="second matrix/vector file")


def _solve_args(leaves):
    leaves["solve"].add_argument("matrix", help="coefficient matrix file")
    leaves["solve"].add_argument("rhs", help="right-hand-side vector file")


def _leontief_args(leaves):
    p = leaves["leontief"]
    p.add_argument("table", help="deliveries table file (square matrix)")
    p.add_argument("demand", help="final-demand vector file")
    p.add_argument("--resources", help="resource consumption matrix file")
    p.add_argument("--next-demand", dest="next_demand", help="forecast demand vector file")


def _lp_args(leaves):
    leaves["solve"].add_argument("problem", help="LP JSON file")


def _finance_args(leaves):
    for name, flags in (("compound", "K0 Kn q n"), ("installment", "Kn E q n")):
        for flag in flags.split():
            leaves[name].add_argument(f"--{flag}", type=_finite)
    p = leaves["effective"]
    p.add_argument("--p", type=_finite, required=True, help="nominal rate, percent")
    p.add_argument("--m", type=int, required=True, help="periods per year")
    p = leaves["redemption"]
    p.add_argument("--R0", type=_finite, required=True, help="initial debt")
    p.add_argument("--p", type=_finite, required=True, help="interest rate, percent")
    p.add_argument("--t", type=_finite, help="initial redemption rate, percent")
    p.add_argument("--A", type=_finite, help="annuity, currency units")
    p.add_argument("--horizon", type=int, help="limit the schedule length")
    p = leaves["pension"]
    p.add_argument("--K0", type=_finite, required=True, help="initial capital")
    p.add_argument("--p", type=_finite, required=True, help="interest rate, percent")
    p.add_argument("--m", type=int, required=True, help="withdrawals per year")
    p.add_argument("--a", type=_finite, required=True, help="withdrawal amount")
    p.add_argument("--horizon", type=int, help="limit the schedule length")
    p = leaves["depreciation"]
    p.add_argument("--method", choices=("linear", "declining"), required=True)
    p.add_argument("--K0", type=_finite, required=True, help="acquisition value")
    p.add_argument("--N", type=int, help="useful life in years (linear)")
    p.add_argument("--p", type=_finite, help="declining rate, percent")
    p.add_argument("--n", type=int, help="year of interest")
    p.add_argument("--Rn", type=_finite, help="target remaining value (declining)")
    for flag in ("K0", "q", "R", "n"):
        leaves["master"].add_argument(f"--{flag}", type=_finite, required=True)


def _calc_args(leaves):
    for p in leaves.values():
        p.add_argument("expr")
    leaves["elasticity"].add_argument("--at", type=_finite, required=True)
    leaves["integrate"].add_argument("--from", type=_finite, required=True, dest="from")
    leaves["integrate"].add_argument("--to", type=_finite, required=True)
    for name in ("roots", "report"):
        # argparse reads "-2:2" after a space as an option, not as the value
        leaves[name].add_argument("--window", required=True, metavar="LO:HI",
                                  help="the interval [LO, HI]; a negative LO needs --window=LO:HI")


def _econ_args(leaves):
    p = leaves["cost"]
    for flag in ("a3", "a2", "a1"):
        p.add_argument(f"--{flag}", type=_finite, required=True)
    p.add_argument("--a0", type=_finite, default=0.0)
    p = leaves["profit"]
    p.add_argument("--price", required=True, help="unit price p(x) as an expression")
    p.add_argument("--cost", required=True, metavar="a3,a2,a1,a0")
    p.add_argument("--window", required=True, metavar="LO:HI")
    p = leaves["surplus"]
    p.add_argument("--demand", required=True, help="demand N(p) as an expression in x")
    p.add_argument("--supply", required=True, help="supply A(p) as an expression in x")
    p.add_argument("--pu", type=_finite, required=True, help="lower price bound")
    p.add_argument("--po", type=_finite, required=True, help="upper price bound")
    p = leaves["value"]
    p.add_argument("--a", type=_finite, required=True, help="scale parameter")
    p.add_argument("--x", type=_finite, required=True, help="gain (x>=0) or loss (x<0)")


# command: (help, handler, adds the leaves' arguments, {operation: help}); a
# command without operations (None) is a leaf itself
_COMMANDS = {
    "linalg": ("matrix and vector operations", _cmd_linalg, _linalg_args,
               dict.fromkeys(("det", "inverse", "mul", "matvec", "angle"))),
    "solve": ("classify and solve a linear system A x = b", _cmd_solve, _solve_args, None),
    "leontief": ("input-output analysis from a deliveries table", _cmd_leontief,
                 _leontief_args, None),
    "lp": ("linear programming", _cmd_lp, _lp_args,
           {"solve": "solve a standard-form LP from a JSON file"}),
    "finance": ("financial mathematics", _cmd_finance, _finance_args, {
        "compound": "solve Kn = K0 q^n (leave one flag out)",
        "effective": "effective annual rate",
        "installment": "installment savings (leave one flag out)",
        "redemption": "redemption payment plan",
        "pension": "pension payment plan",
        "depreciation": "linear or declining-balance depreciation",
        "master": "master formula Kn = K0 q^n + R (q^n-1)/(q-1)",
    }),
    "calc": ("differentiation, roots, integration, curve reports", _cmd_calc, _calc_args, {
        "diff": "symbolic derivative",
        "elasticity": "point elasticity x f'(x)/f(x)",
        "roots": "all roots in a window",
        "integrate": "definite integral",
        "report": "curve sketch of a polynomial/rational function",
    }),
    "econ": ("cost, profit, surplus and value analysis", _cmd_econ, _econ_args, {
        "cost": "cost-phase analysis of a cubic cost function",
        "profit": "break-even, profit maximum and Cournot point",
        "surplus": "equilibrium and the three selling strategies",
        "value": "psychological value of a gain/loss",
    }),
}


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The parser for argv, or with argv None the whole tree.  Every command is
    added, so the top-level help and invalid-choice errors do not depend on argv,
    but only a command named in argv gets its operations and arguments: argparse
    enters a command only on an exact name."""
    parser = argparse.ArgumentParser(
        prog="ecomath", description="Quantitative-economics toolkit"
    )
    _global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, add_args, ops) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if argv is not None and name not in argv:
            continue
        leaves = {name: p}
        if ops is not None:
            group = p.add_subparsers(dest=f"{name}_op", required=True)
            # help=None would still list the name under its group's help
            leaves = {op: group.add_parser(op, **({"help": h} if h else {}))
                      for op, h in ops.items()}
        for q in leaves.values():
            _global_flags(q, suppress=True)
            q.set_defaults(handler=handler)
        add_args(leaves)
    return parser


def dispatch(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; ours is the input-error code 1
        return EXIT_OK if exc.code == 0 else EXIT_INPUT

    fmt = getattr(args, "format", "table")
    output = getattr(args, "output", None)
    try:
        payload = args.handler(args)
        _emit(render(payload, fmt), output)
        return EXIT_OK
    except OutcomeExit as exc:
        if exc.payload is not None:
            _emit(render(exc.payload, fmt), output)
        sys.stderr.write(f"ecomath: {exc}\n")
        return EXIT_NO_SOLUTION
    except NumericalError as exc:
        sys.stderr.write(f"ecomath: numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (
        ValueError,
        argparse.ArgumentTypeError,  # _finite refusing a number in --window or --cost
        ArithmeticError,
        OSError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        sys.stderr.write(f"ecomath: error: {exc}\n")
        return EXIT_INPUT


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
