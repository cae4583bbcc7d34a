"""Seeded problem generators, library runners and independent oracles.

Each problem kind has:

- ``gen(rng, **size)``: the inputs, as plain floats, lists and strings;
- ``oracle(inp)``: the expected answer from numpy/scipy or a closed form,
  computed before any timing starts;
- ``run(inp)``: the library call being timed.  It reaches the library only
  through module attributes, so the traced run's wrappers see every call;
- ``out(result)``: the result as a dict shaped like the CLI's JSON output,
  built after timing;
- ``check(inp, want, got)``: raises ``Mismatch`` when ``got`` (a dict from
  ``out`` or parsed from CLI JSON) disagrees with the oracle.

The kinds that also run on the CLI have ``argv(inp, write)``, which returns
the subcommand's arguments and writes any input files through ``write``.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

RTOL = 1e-7


class Mismatch(AssertionError):
    """An op's output disagrees with its oracle."""


def close(what, got, want, rtol=RTOL, atol=1e-9):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape} != {want.shape}")
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= atol + rtol * scale:
        raise Mismatch(f"{what}: off by {err:.3g} (scale {scale:.3g})")


def same(what, got, want):
    if got != want:
        raise Mismatch(f"{what}: {got!r} != {want!r}")


def num(v: float) -> str:
    """A coefficient as text that parses back to exactly the same float."""
    return repr(float(v))


def poly_text(coeffs) -> str:
    """Low-to-high coefficients as an expression in x, e.g. 2*x^3 - 1.5*x + 4."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = float(coeffs[k])
        if c == 0.0:
            continue
        body = num(abs(c)) + ("" if k == 0 else "*x" if k == 1 else f"*x^{k}")
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first = terms[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def r4(v):
    """Round generated parameters to 4 decimals so they read like textbook data."""
    return round(float(v), 4)


def real_roots_in(coeffs, lo, hi, tol=1e-9):
    """Sorted distinct real roots of a low-to-high polynomial inside [lo, hi]."""
    coeffs = npoly.polytrim(np.asarray(coeffs, dtype=float), tol=0.0)
    if len(coeffs) < 2:
        return []
    rs = npoly.polyroots(coeffs)
    out = []
    for r in rs:
        if abs(r.imag) <= 1e-7 * max(1.0, abs(r.real)) and lo - tol <= r.real <= hi + tol:
            out.append(float(r.real))
    return sorted(out)


def bracket_roots(f, lo, hi, points=20001):
    """All sign changes of a vectorized f on a fine grid, refined by brentq."""
    from scipy.optimize import brentq

    xs = np.linspace(lo, hi, points)
    with np.errstate(all="ignore"):
        ys = f(xs)
    out = [float(x) for x in xs[ys == 0.0]]
    for i in np.flatnonzero(np.isfinite(ys[:-1] * ys[1:]) & (ys[:-1] * ys[1:] < 0)):
        out.append(brentq(lambda x: float(f(np.array([x]))[0]), xs[i], xs[i + 1], xtol=1e-14))
    return sorted(out)


# ---------------------------------------------------------------------------
# linear algebra, Leontief, simplex
# ---------------------------------------------------------------------------

class Leontief:
    """A seeded deliveries table: the intermediate-input share of each sector
    drawn from [0.3, 0.6], flows spread over the supplying sectors by random
    weights.  The model is built once and serves several forecasts
    (``forecasts`` > 0) or one round trip y -> q -> y (``forecasts`` = 0)."""

    @staticmethod
    def gen(rng, n, forecasts):
        share = rng.uniform(0.3, 0.6, n)
        w = rng.random((n, n))
        P = w / w.sum(axis=0) * share
        y = rng.uniform(1.0, 10.0, n)
        q = np.linalg.solve(np.eye(n) - P, y)
        flows = P * q[np.newaxis, :]
        nexts = [rng.uniform(1.0, 10.0, n) for _ in range(max(forecasts, 1))]
        return {"flows": flows, "demand": y, "next": nexts,
                "forecasts": forecasts}

    @staticmethod
    def oracle(inp):
        flows = np.array(inp["flows"])
        y = np.array(inp["demand"])
        q = flows.sum(axis=1) + y
        P = flows / q[np.newaxis, :]
        T = np.eye(len(y)) - P
        return {"P": P, "total_output": q,
                "forecast_total_output": [np.linalg.solve(T, d) for d in inp["next"]]}

    @staticmethod
    def run(inp):
        from ecomath import leontief, linalg
        table = leontief.DeliveriesTable(
            linalg.Matrix.from_array(inp["flows"]), linalg.Vector(inp["demand"]))
        model, q, _ = leontief.model_from_table(table)
        if inp["forecasts"]:
            qs = [leontief.forecast(model, linalg.Vector(d))[0] for d in inp["next"]]
            return model, q, qs, None
        q2, _ = leontief.total_output(model, linalg.Vector(inp["next"][0]))
        y2, _ = leontief.final_demand(model, q2)
        return model, q, [q2], y2

    @staticmethod
    def out(res):
        model, q, qs, y2 = res
        d = {"P": model.P.to_array().tolist(), "total_output": list(q.entries),
             "forecast_total_output": [list(v.entries) for v in qs]}
        if y2 is not None:
            d["round_trip_demand"] = list(y2.entries)
        return d

    @staticmethod
    def check(inp, want, got):
        close("P", got["P"], want["P"], rtol=1e-9)
        close("total output", got["total_output"], want["total_output"])
        fc = got["forecast_total_output"]
        if fc and not isinstance(fc[0], list):  # the CLI prints one forecast
            fc = [fc]
        close("forecast", fc, want["forecast_total_output"][: len(fc)])
        if "round_trip_demand" in got:
            close("round trip", got["round_trip_demand"], inp["next"][0])

    @staticmethod
    def argv(inp, write):
        return ["leontief", write("table.txt", matrix_text(inp["flows"])),
                write("demand.txt", vector_text(inp["demand"])),
                "--next-demand", write("next.txt", vector_text(inp["next"][0]))]


def matrix_text(rows) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def vector_text(v) -> str:
    return "".join(repr(float(x)) + "\n" for x in v)


class Solve:
    """Dense A x = b with standard-normal entries (unique solution)."""

    @staticmethod
    def gen(rng, n):
        return {"A": rng.standard_normal((n, n)), "b": rng.standard_normal(n)}

    @staticmethod
    def oracle(inp):
        return {"x": np.linalg.solve(np.array(inp["A"]), np.array(inp["b"]))}

    @staticmethod
    def run(inp):
        from ecomath import linalg, linsolve
        return linsolve.solve(linsolve.LinearSystem(
            linalg.Matrix.from_array(inp["A"]), linalg.Vector(inp["b"])))

    @staticmethod
    def out(res):
        return res.to_dict()

    @staticmethod
    def check(inp, want, got):
        same("kind", got["kind"], "unique")
        x = np.array(got["particular"])
        close("solution", x, want["x"])
        same("residual within 1e-9", residual(inp, x) <= 1e-9, True)

    @staticmethod
    def argv(inp, write):
        return ["solve", write("A.txt", matrix_text(inp["A"])),
                write("b.txt", vector_text(inp["b"]))]


def residual(inp, x) -> float:
    """max|A x - b| / max(1, max|b|), the scaled residual of a solve op."""
    A, b = np.array(inp["A"]), np.array(inp["b"])
    return float(np.max(np.abs(A @ x - b)) / max(1.0, float(np.max(np.abs(b)))))


class Inverse:
    @staticmethod
    def gen(rng, n):
        return {"A": rng.standard_normal((n, n))}

    @staticmethod
    def oracle(inp):
        return {"inverse": np.linalg.inv(np.array(inp["A"]))}

    @staticmethod
    def run(inp):
        from ecomath import linalg, linsolve
        return linsolve.inverse(linalg.Matrix.from_array(inp["A"]))

    @staticmethod
    def out(res):
        return {"inverse": res.to_array().tolist()}

    @staticmethod
    def check(inp, want, got):
        close("inverse", got["inverse"], want["inverse"])
        A = np.array(inp["A"])
        close("A A^-1", A @ np.array(got["inverse"]), np.eye(len(A)))


class Determinant:
    @staticmethod
    def gen(rng, n):
        return {"A": rng.standard_normal((n, n))}

    @staticmethod
    def oracle(inp):
        return {"determinant": float(np.linalg.det(np.array(inp["A"])))}

    @staticmethod
    def run(inp):
        from ecomath import linalg, linsolve
        return linsolve.determinant(linalg.Matrix.from_array(inp["A"]))

    @staticmethod
    def out(res):
        return {"determinant": res}

    @staticmethod
    def check(inp, want, got):
        close("determinant", got["determinant"], want["determinant"], rtol=1e-9)


class EigenSym:
    @staticmethod
    def gen(rng, n):
        B = rng.standard_normal((n, n))
        return {"A": (B + B.T) / 2.0}

    @staticmethod
    def oracle(inp):
        return {"eigenvalues": np.linalg.eigvalsh(np.array(inp["A"]))}

    @staticmethod
    def run(inp):
        from ecomath import linalg, linsolve
        return linsolve.eigen_sym(linalg.Matrix.from_array(inp["A"]))

    @staticmethod
    def out(res):
        return {"pairs": [(float(lam), list(v.entries)) for lam, v in res]}

    @staticmethod
    def check(inp, want, got):
        A = np.array(inp["A"])
        lams = sorted(lam for lam, _ in got["pairs"])
        close("eigenvalues", lams, want["eigenvalues"])
        for lam, v in got["pairs"]:
            v = np.array(v)
            close("A v - lambda v", A @ v - lam * v, np.zeros(len(v)))
            close("|v|", np.linalg.norm(v), 1.0)


class Production:
    """Production planning: max c.x s.t. A x <= b, x >= 0.  Each product
    (column) uses at least one resource, so the problem is bounded; A has
    the given density of non-zero input coefficients."""

    @staticmethod
    def gen(rng, n, m, density):
        A = rng.uniform(0.5, 5.0, (m, n)) * (rng.random((m, n)) < density)
        for j in np.flatnonzero(~A.any(axis=0)):
            A[rng.integers(m), j] = rng.uniform(0.5, 5.0)
        return {"c": rng.uniform(1.0, 10.0, n), "A": A, "b": rng.uniform(10.0, 100.0, m)}

    @staticmethod
    def oracle(inp):
        c = np.array(inp["c"])
        if len(c) == 2:
            from ecomath import simplex
            res = simplex.vertex_oracle(simplex.LinearProgram(
                "max", inp["c"], inp["A"], inp["b"]))
            return {"z": res.solution.z}
        from scipy.optimize import linprog
        res = linprog(-c, A_ub=np.array(inp["A"]), b_ub=np.array(inp["b"]),
                      bounds=(0, None), method="highs")
        return {"z": -float(res.fun)}

    @staticmethod
    def run(inp):
        from ecomath import simplex
        return simplex.solve_simplex(
            simplex.LinearProgram("max", inp["c"], inp["A"], inp["b"]))

    @staticmethod
    def out(res):
        return res.to_dict()

    @staticmethod
    def check(inp, want, got):
        same("status", got["status"], "optimal")
        close("z", got["z"], want["z"])
        x = np.array(got["x"])
        A, b = np.array(inp["A"]), np.array(inp["b"])
        same("x feasible", bool(np.all(x >= -1e-9) and np.all(A @ x <= b + 1e-7 * (1 + b))), True)
        close("c.x", float(np.dot(inp["c"], x)), want["z"])

    @staticmethod
    def argv(inp, write):
        doc = json.dumps({"sense": "max", "c": inp["c"].tolist(), "A": inp["A"].tolist(),
                          "b": inp["b"].tolist()})
        return ["lp", "solve", write("lp.json", doc)]


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def cubic_with_roots(rng):
    """k (x - r1)(x - r2)(x - r3) with r1 < r2 < r3 in [-3, 3] at least 1 apart,
    as a textbook curve-sketching exercise has them."""
    r1 = rng.uniform(-3.0, -1.0)
    r2 = r1 + rng.uniform(1.0, 2.0)
    r3 = r2 + rng.uniform(1.0, 2.0)
    k = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    return [r4(c) for c in npoly.polyfromroots([r1, r2, r3]) * k]


def py_eval(text: str, x: float) -> float:
    """Evaluate the library's polynomial text with Python's own arithmetic."""
    return eval(text.replace("^", "**"), {"__builtins__": {}}, {"x": x})


class Diff:
    """Symbolic derivative of a cubic, on the CLI."""

    @staticmethod
    def gen(rng):
        c = cubic_with_roots(rng)
        return {"coeffs": c, "expr": poly_text(c)}

    @staticmethod
    def oracle(inp):
        d = npoly.polyder(inp["coeffs"])
        pts = [-2.5, -0.7, 0.3, 1.9]
        return {"points": pts, "values": [float(npoly.polyval(x, d)) for x in pts]}

    @staticmethod
    def argv(inp, write):
        return ["calc", "diff", "--", inp["expr"]]

    @staticmethod
    def check(inp, want, got):
        vals = [py_eval(got["derivative"], x) for x in want["points"]]
        close("derivative", vals, want["values"])


class Integrate:
    """Definite integral of a cubic (table antiderivative), on the CLI."""

    @staticmethod
    def gen(rng):
        lo = r4(rng.uniform(-2.0, 0.0))
        c = cubic_with_roots(rng)
        return {"coeffs": c, "expr": poly_text(c), "lo": lo, "hi": r4(lo + rng.uniform(1.0, 4.0))}

    @staticmethod
    def oracle(inp):
        F = npoly.polyint(inp["coeffs"])
        return {"integral": float(npoly.polyval(inp["hi"], F) - npoly.polyval(inp["lo"], F))}

    @staticmethod
    def check(inp, want, got):
        close("integral", got["integral"], want["integral"])

    @staticmethod
    def argv(inp, write):
        return ["calc", "integrate", f"--from={num(inp['lo'])}", f"--to={num(inp['hi'])}",
                "--", inp["expr"]]


class CurveCubic:
    """curve_report of a cubic with three separated real roots on [-4, 4]."""

    @staticmethod
    def gen(rng):
        c = cubic_with_roots(rng)
        return {"coeffs": c, "expr": poly_text(c), "lo": -4.0, "hi": 4.0}

    @staticmethod
    def oracle(inp):
        c, lo, hi = inp["coeffs"], inp["lo"], inp["hi"]
        d1, d2 = npoly.polyder(c), npoly.polyder(c, 2)
        extrema = [(x, "min" if npoly.polyval(x, d2) > 0 else "max")
                   for x in real_roots_in(d1, lo, hi)]
        return {"roots": real_roots_in(c, lo, hi), "extrema": extrema,
                "inflections": real_roots_in(d2, lo, hi), "poles": []}

    @staticmethod
    def run(inp):
        from ecomath import calculus as ca
        return ca.curve_report(ca.parse(inp["expr"]), inp["lo"], inp["hi"])

    @staticmethod
    def out(res):
        return res.to_dict()

    @staticmethod
    def check(inp, want, got):
        close("roots", got["roots"], want["roots"])
        close("extrema", [e["x"] for e in got["extrema"]], [x for x, _ in want["extrema"]])
        same("extrema kinds", [e["kind"] for e in got["extrema"]], [k for _, k in want["extrema"]])
        if "inflections" in want:
            close("inflections", got["inflections"], want["inflections"])
        close("vertical asymptotes", got["vertical_asymptotes"], want["poles"])

    @staticmethod
    def argv(inp, write):
        return ["calc", "report", f"--window={num(inp['lo'])}:{num(inp['hi'])}",
                "--", inp["expr"]]


class CurveRational(CurveCubic):
    """curve_report of (x^2 + c1 x + c0)/(x - p): one pole inside [-4, 4]
    and an oblique asymptote."""

    @staticmethod
    def gen(rng):
        c1, c0, p = r4(rng.uniform(-2, 2)), r4(rng.uniform(-3, 3)), r4(rng.uniform(-1.5, 1.5))
        return {"expr": f"({poly_text([c0, c1, 1.0])})/(x - {num(p)})" if p >= 0
                else f"({poly_text([c0, c1, 1.0])})/(x + {num(-p)})",
                "c": [c0, c1], "p": p, "lo": -4.0, "hi": 4.0}

    @staticmethod
    def oracle(inp):
        (c0, c1), p, lo, hi = inp["c"], inp["p"], inp["lo"], inp["hi"]
        roots = [r for r in real_roots_in([c0, c1, 1.0], lo, hi) if abs(r - p) > 1e-9]
        # f' = (x^2 - 2 p x - c1 p - c0) / (x - p)^2 and f'' = 2 N(p) / (x - p)^3
        Np = p * p + c1 * p + c0
        extrema = [(x, "min" if 2.0 * Np / (x - p) ** 3 > 0 else "max")
                   for x in real_roots_in([-c1 * p - c0, -2.0 * p, 1.0], lo, hi)]
        return {"roots": roots, "extrema": extrema, "poles": [p],
                "asymptote": [1.0, c1 + p]}

    @staticmethod
    def check(inp, want, got):
        CurveCubic.check(inp, want, got)
        a = got["asymptote"]
        close("asymptote", [a["slope"], a["intercept"]], want["asymptote"])


class Roots:
    """Roots of exp(x) - a x - b on [-4, 4]; b lies above the minimum
    a - a ln a, so the function has two well-separated roots."""

    @staticmethod
    def gen(rng):
        a = r4(rng.uniform(1.5, 6.0))
        b = r4(a - a * math.log(a) + rng.uniform(0.5, 3.0))
        return {"expr": f"exp(x) - {num(a)}*x - {num(b)}" if b >= 0
                else f"exp(x) - {num(a)}*x + {num(-b)}", "a": a, "b": b,
                "lo": -4.0, "hi": 4.0}

    @staticmethod
    def oracle(inp):
        a, b = inp["a"], inp["b"]
        return {"roots": bracket_roots(lambda x: np.exp(x) - a * x - b, inp["lo"], inp["hi"])}

    @staticmethod
    def run(inp):
        from ecomath import calculus as ca
        return ca.roots(ca.parse(inp["expr"]), inp["lo"], inp["hi"])

    @staticmethod
    def out(res):
        return {"roots": list(res)}

    @staticmethod
    def check(inp, want, got):
        close("roots", got["roots"], want["roots"], rtol=1e-8)


# ---------------------------------------------------------------------------
# economics
# ---------------------------------------------------------------------------

def cost_coeffs(rng):
    """(a3, a2, a1, a0) of an S-shaped cubic cost function."""
    a3 = r4(rng.uniform(0.5, 2.0))
    a2 = -r4(rng.uniform(2.0, 8.0))
    a1 = r4(a2 * a2 / (3.0 * a3) * rng.uniform(1.2, 3.0))
    a0 = r4(rng.uniform(5.0, 50.0))
    return [a3, a2, a1, a0]


def mes(a3, a2, a1, a0) -> float:
    """Minimum efficient scale: the positive root of 2 a3 x^3 + a2 x^2 - a0."""
    return max(real_roots_in([-a0, 0.0, a2, 2.0 * a3], 0.0, math.inf))


class Cost:
    @staticmethod
    def gen(rng):
        return {"cost": cost_coeffs(rng)}

    @staticmethod
    def oracle(inp):
        a3, a2, a1, a0 = inp["cost"]
        return {"x_W": -a2 / (3 * a3), "x_g1": -a2 / (2 * a3), "x_g2": mes(a3, a2, a1, a0)}

    @staticmethod
    def run(inp):
        from ecomath import econ
        a3, a2, a1, a0 = inp["cost"]
        return econ.cost_analysis(econ.CostModel(a3=a3, a2=a2, a1=a1, a0=a0))

    @staticmethod
    def out(res):
        return res.to_dict()

    @staticmethod
    def check(inp, want, got):
        for k in ("x_W", "x_g1", "x_g2"):
            close(k, got[k], want[k])

    @staticmethod
    def argv(inp, write):
        a3, a2, a1, a0 = inp["cost"]
        return ["econ", "cost", "--a3", num(a3), "--a2", num(a2), "--a1", num(a1),
                "--a0", num(a0)]


class Profit:
    """A monopolist with an S-shaped cubic cost and a falling price: linear
    ("lin"), quadratic ("quad") or exponential ("exp").  The price exceeds
    average cost at the minimum efficient scale, so a profit zone exists;
    the window reaches past its end."""

    @staticmethod
    def gen(rng, shape):
        a3, a2, a1, a0 = cost = cost_coeffs(rng)
        x0 = mes(a3, a2, a1, a0)
        ac0 = ((a3 * x0 + a2) * x0 + a1) + a0 / x0
        markup = rng.uniform(1.5, 2.5)
        if shape == "exp":
            d = r4(rng.uniform(0.05, 0.3) / x0)
            alpha = r4(ac0 * markup * math.exp(d * x0))
            price, pc = f"{num(alpha)}*exp(-{num(d)}*x)", [alpha, d]
        else:
            beta = r4(rng.uniform(0.1, 0.5) * a3 * x0)
            gamma = r4(rng.uniform(0.01, 0.1) * a3) if shape == "quad" else 0.0
            alpha = r4(ac0 * markup + beta * x0 + gamma * x0 * x0)
            pc = [alpha, -beta, -gamma] if gamma else [alpha, -beta]
            price = poly_text(pc)
        G = Profit._G(shape, pc, cost)
        ends = bracket_roots(G[0], 0.0, 50.0 * x0, 5001)
        return {"shape": shape, "price": price, "pc": pc, "cost": cost,
                "x_max": r4(1.5 * max(ends))}

    @staticmethod
    def _G(shape, pc, cost):
        """Vectorized G, G', G'' for the oracle."""
        a3, a2, a1, a0 = cost
        K = lambda x: ((a3 * x + a2) * x + a1) * x + a0
        K1 = lambda x: (3 * a3 * x + 2 * a2) * x + a1
        K2 = lambda x: 6 * a3 * x + 2 * a2
        if shape == "exp":
            al, d = pc
            return (lambda x: al * x * np.exp(-d * x) - K(x),
                    lambda x: al * np.exp(-d * x) * (1 - d * x) - K1(x),
                    lambda x: al * np.exp(-d * x) * (d * d * x - 2 * d) - K2(x))
        g = npoly.polysub(npoly.polymulx(pc), [a0, a1, a2, a3])
        g1, g2 = npoly.polyder(g), npoly.polyder(g, 2)
        return (lambda x: npoly.polyval(x, g), lambda x: npoly.polyval(x, g1),
                lambda x: npoly.polyval(x, g2))

    @staticmethod
    def oracle(inp):
        G, G1, G2 = Profit._G(inp["shape"], inp["pc"], inp["cost"])
        hi = inp["x_max"]
        if inp["shape"] == "exp":
            zeros, stat = bracket_roots(G, 0.0, hi), bracket_roots(G1, 0.0, hi)
        else:
            g = npoly.polysub(npoly.polymulx(inp["pc"]), inp["cost"][::-1])
            zeros, stat = real_roots_in(g, 0.0, hi), real_roots_in(npoly.polyder(g), 0.0, hi)
        x_S = next((r for r in zeros if G1(r) > 0), None)
        x_G = [r for r in zeros if G1(r) < 0][-1]
        x_M = max((r for r in stat if G2(r) < 0), key=G)
        p = (lambda x: inp["pc"][0] * math.exp(-inp["pc"][1] * x)) if inp["shape"] == "exp" \
            else (lambda x: npoly.polyval(x, inp["pc"]))
        return {"x_S": x_S, "x_G": x_G, "x_M": x_M, "G_max": float(G(x_M)), "p_M": float(p(x_M))}

    @staticmethod
    def run(inp):
        from ecomath import calculus as ca
        from ecomath import econ
        a3, a2, a1, a0 = inp["cost"]
        market = econ.MarketModel(price=ca.parse(inp["price"]),
                                  cost=econ.CostModel(a3=a3, a2=a2, a1=a1, a0=a0),
                                  x_max=inp["x_max"])
        return econ.profit_analysis(market), econ.cournot(market)

    @staticmethod
    def out(res):
        d = res[0].to_dict()
        d["cournot"] = res[1].to_dict()
        return d

    @staticmethod
    def check(inp, want, got):
        for k in ("x_S", "x_G", "x_M", "G_max"):
            close(k, got[k], want[k])
        close("cournot x_M", got["cournot"]["x_M"], want["x_M"])
        close("cournot p_M", got["cournot"]["p_M"], want["p_M"])

    @staticmethod
    def argv(inp, write):
        return ["econ", "profit", "--price", inp["price"],
                "--cost", ",".join(num(v) for v in inp["cost"]),
                "--window", f"0:{num(inp['x_max'])}"]


class Surplus:
    """Market equilibrium and the three selling strategies.  Supply is
    c + d x.  Demand is a - b x or a exp(-b x), whose surplus integrals come
    from the antiderivative table, or a / (1 + b x^2), which has no table
    antiderivative and is integrated by adaptive Simpson."""

    @staticmethod
    def gen(rng, shape):
        c, d = r4(rng.uniform(0.0, 2.0)), r4(rng.uniform(0.5, 3.0))
        if shape == "lin":
            b = r4(rng.uniform(0.5, 3.0))
            a = r4(c + rng.uniform(2.0, 10.0))
            demand, pu = f"{num(a)} - {num(b)}*x", 0.0
        elif shape == "exp":
            b = r4(rng.uniform(0.05, 0.5))
            a = r4(c + rng.uniform(2.0, 10.0))
            demand, pu = f"{num(a)}*exp(-{num(b)}*x)", 0.0
        else:
            b = r4(rng.uniform(0.2, 2.0))
            a = r4(c + rng.uniform(2.0, 10.0))
            demand, pu = f"{num(a)}/(1 + {num(b)}*x^2)", r4(rng.uniform(0.05, 0.3))
        inp = {"shape": shape, "demand": demand, "supply": f"{num(c)} + {num(d)}*x",
               "abcd": [a, b, c, d], "pu": pu}
        N, A = Surplus._curves(inp)
        p_M = bracket_roots(lambda x: A(x) - N(x), pu, 100.0, 10001)[0]
        inp["po"] = r4(p_M * rng.uniform(1.5, 2.5))
        return inp

    @staticmethod
    def _curves(inp):
        a, b, c, d = inp["abcd"]
        N = {"lin": lambda x: a - b * x, "exp": lambda x: a * np.exp(-b * x),
             "simpson": lambda x: a / (1 + b * x * x)}[inp["shape"]]
        return N, (lambda x: c + d * x)

    @staticmethod
    def oracle(inp):
        from scipy.integrate import quad
        N, A = Surplus._curves(inp)
        p_M = bracket_roots(lambda x: A(x) - N(x), inp["pu"], inp["po"])[0]
        cs = quad(N, p_M, inp["po"], epsabs=1e-13, epsrel=1e-12)[0]
        ps = quad(A, inp["pu"], p_M, epsabs=1e-13, epsrel=1e-12)[0]
        return {"p_M": p_M, "consumer_surplus": cs, "producer_surplus": ps,
                "U1": p_M * float(N(p_M))}

    @staticmethod
    def run(inp):
        from ecomath import calculus as ca
        from ecomath import econ
        return econ.market_strategies(ca.parse(inp["demand"]), ca.parse(inp["supply"]),
                                      inp["pu"], inp["po"])

    @staticmethod
    def out(res):
        return res.to_dict()

    @staticmethod
    def check(inp, want, got):
        close("p_M", got["equilibrium"]["p_M"], want["p_M"])
        for k in ("consumer_surplus", "producer_surplus", "U1"):
            close(k, got[k], want[k])

    @staticmethod
    def argv(inp, write):
        return ["econ", "surplus", "--demand", inp["demand"], "--supply", inp["supply"],
                "--pu", num(inp["pu"]), "--po", num(inp["po"])]


# ---------------------------------------------------------------------------
# financial mathematics
# ---------------------------------------------------------------------------

class RateSolve:
    """Solve for the interest factor q: installment savings
    (K_n = E q (q^n - 1)/(q - 1)) or a redemption plan's remaining debt.
    The oracle is the q the inputs were generated from."""

    @staticmethod
    def gen(rng, plan):
        q = r4(rng.uniform(1.01, 1.08))
        if plan == "installment":
            n = int(rng.integers(5, 31))
            E = r4(rng.uniform(100.0, 2000.0))
            return {"plan": plan, "E": E, "n": n, "q": q,
                    "Kn": E * q * (q ** n - 1.0) / (q - 1.0)}
        R0 = r4(rng.uniform(10_000.0, 200_000.0))
        A = r4(R0 * ((q - 1.0) + rng.uniform(0.01, 0.05)))
        # a year count inside the contract period, so debt remains
        n = int(rng.integers(3, math.log(A / (A - R0 * (q - 1.0))) / math.log(q)))
        Rn = R0 * q ** n - A * (q ** n - 1.0) / (q - 1.0)
        return {"plan": plan, "R0": R0, "A": A, "n": n, "q": q, "Rn": Rn}

    @staticmethod
    def oracle(inp):
        return {"q": inp["q"]}

    @staticmethod
    def run(inp):
        from ecomath import finmath
        if inp["plan"] == "installment":
            return finmath.installment_solve(Kn=inp["Kn"], E=inp["E"], n=inp["n"])
        return finmath.redemption_solve(Rn=inp["Rn"], R0=inp["R0"], n=inp["n"], A=inp["A"])

    @staticmethod
    def out(res):
        return {"q": res}

    @staticmethod
    def check(inp, want, got):
        close("q", got["q"], want["q"], rtol=1e-9, atol=0.0)

    @staticmethod
    def argv(inp, write):
        return ["finance", "installment", "--Kn", num(inp["Kn"]), "--E", num(inp["E"]),
                "--n", str(inp["n"])]


class Schedule:
    """Pension or redemption schedule, rendered to CSV and JSON; every row's
    balance is checked against the closed-form balance after n years."""

    @staticmethod
    def gen(rng, plan):
        p = r4(rng.uniform(2.0, 8.0))
        if plan == "pension":
            K0 = r4(rng.uniform(50_000.0, 500_000.0))
            m = int(rng.choice([1, 4, 12]))
            q = 1.0 + p / 100.0
            # withdraw more than the interest so the account runs out
            a = r4(K0 * (q - 1.0) / (m + 0.5 * (m + 1) * (q - 1.0)) * rng.uniform(1.2, 3.0))
            return {"plan": plan, "K0": K0, "p": p, "m": m, "a": a}
        return {"plan": plan, "R0": r4(rng.uniform(10_000.0, 300_000.0)), "p": p,
                "t": r4(rng.uniform(1.0, 5.0))}

    @staticmethod
    def oracle(inp):
        q = 1.0 + inp["p"] / 100.0
        if inp["plan"] == "pension":
            br = (inp["m"] + 0.5 * (inp["m"] + 1) * (q - 1.0)) * inp["a"]
            n = math.ceil(math.log(br / (br - inp["K0"] * (q - 1.0))) / math.log(q) - 1e-12)
            bal = [inp["K0"] * q ** k - br * (q ** k - 1.0) / (q - 1.0) for k in range(1, n + 1)]
        else:
            A = inp["R0"] * (inp["p"] + inp["t"]) / 100.0
            n = math.ceil(math.log(A / (A - inp["R0"] * (q - 1.0))) / math.log(q) - 1e-12)
            bal = [inp["R0"] * q ** k - A * (q ** k - 1.0) / (q - 1.0) for k in range(1, n)]
            bal.append(0.0)  # the reduced final annuity closes the debt
        return {"balances": bal}

    @staticmethod
    def run(inp):
        from ecomath import finmath
        if inp["plan"] == "pension":
            s = finmath.pension_plan(inp["K0"], inp["p"], inp["m"], inp["a"])
        else:
            s = finmath.redemption_plan(inp["R0"], inp["p"], t=inp["t"])
        return s.to_csv(), s.to_json()

    @staticmethod
    def out(res):
        d = json.loads(res[1])
        d["csv"] = res[0]
        return d

    @staticmethod
    def check(inp, want, got):
        rows = got["rows"]
        scale = inp.get("K0") or inp["R0"]
        close("balances", [r["balance"] for r in rows], want["balances"], rtol=0.0,
              atol=1e-9 * scale)
        if "csv" in got:
            csv = "year,interest,payment,balance\n" + "".join(
                f"{r['year']},{r['interest']:.2f},{r['payment']:.2f},{r['balance']:.2f}\n"
                for r in rows)
            same("csv", got["csv"], csv)

    @staticmethod
    def argv(inp, write):
        return ["finance", "pension", "--K0", num(inp["K0"]), "--p", num(inp["p"]),
                "--m", str(inp["m"]), "--a", num(inp["a"])]
