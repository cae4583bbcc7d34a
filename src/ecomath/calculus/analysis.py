"""Numeric/structural analysis on expression trees: tangents, elasticities,
root finding, polynomial machinery, curve reports, and definite integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as P

from ..numeric import NumericalError, brent
from .expr import (
    Abs,
    Add,
    Const,
    Div,
    EvalDomainError,
    Exp,
    Expr,
    Ln,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    X,
    abs_,
    add,
    const,
    differentiate,
    div,
    evaluate,
    exp_,
    ln_,
    mul,
    neg,
    pow_,
    sub,
    to_string,
)

GRID_CELLS = 1024  # density of the sign-change scan in roots()


class UnsupportedExpressionError(ValueError):
    pass


class PoleError(NumericalError, ArithmeticError):
    """A non-integrable singularity lies inside the integration interval."""


class DivergenceError(NumericalError, ArithmeticError):
    """The integral diverges (power-law singularity of order <= -1)."""


# ---------------------------------------------------------------------------
# Tangents and elasticities
# ---------------------------------------------------------------------------

def tangent_line(e: Expr, x0: float) -> tuple[float, float]:
    """Linearization at x0 as (slope, intercept): y = f(x0) + f'(x0)(x - x0)."""
    slope = evaluate(differentiate(e), x0)
    intercept = evaluate(e, x0) - slope * x0
    return slope, intercept


def elasticity(e: Expr, x: float) -> float:
    """x f'(x) / f(x); requires x > 0 and f(x) > 0."""
    if x <= 0:
        raise EvalDomainError(f"elasticity requires x > 0, got {x}")
    fx = evaluate(e, x)
    if fx <= 0:
        raise EvalDomainError(f"elasticity requires f(x) > 0, got f({x}) = {fx}")
    return x * evaluate(differentiate(e), x) / fx


def elasticity_label(eps: float, tol: float = 1e-9) -> str:
    if abs(abs(eps) - 1.0) <= tol:
        return "unit elastic"
    return "inelastic" if abs(eps) < 1.0 else "elastic"


def elasticity_expr(e: Expr) -> Expr:
    """The elasticity as a symbolic expression x f'(x)/f(x)."""
    return mul(X, div(differentiate(e), e))


def second_elasticity(e: Expr, x: float) -> float:
    """x d/dx [x f'(x)/f(x)], evaluated symbolically then numerically."""
    if x <= 0:
        raise EvalDomainError(f"second elasticity requires x > 0, got {x}")
    fx = evaluate(e, x)
    if fx <= 0:
        raise EvalDomainError(f"second elasticity requires f(x) > 0, got f({x}) = {fx}")
    return x * evaluate(differentiate(elasticity_expr(e)), x)


# ---------------------------------------------------------------------------
# Polynomial machinery
# ---------------------------------------------------------------------------

def _trim(coeffs: np.ndarray) -> np.ndarray:
    out = P.polytrim(np.asarray(coeffs, dtype=float), tol=0.0)
    return np.atleast_1d(out)


def as_rational(e: Expr) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(numerator, denominator) coefficient arrays (low to high) when the
    expression is a ratio of polynomials, else None."""
    one = np.array([1.0])
    if isinstance(e, Const):
        return np.array([e.value]), one
    if isinstance(e, Var):
        return np.array([0.0, 1.0]), one
    if isinstance(e, Neg):
        r = as_rational(e.a)
        return (-r[0], r[1]) if r else None
    if isinstance(e, (Add, Sub)):
        ra, rb = as_rational(e.a), as_rational(e.b)
        if not ra or not rb:
            return None
        sign = 1.0 if isinstance(e, Add) else -1.0
        num = P.polyadd(P.polymul(ra[0], rb[1]), sign * P.polymul(rb[0], ra[1]))
        return _trim(num), _trim(P.polymul(ra[1], rb[1]))
    if isinstance(e, Mul):
        ra, rb = as_rational(e.a), as_rational(e.b)
        if not ra or not rb:
            return None
        return _trim(P.polymul(ra[0], rb[0])), _trim(P.polymul(ra[1], rb[1]))
    if isinstance(e, Div):
        ra, rb = as_rational(e.a), as_rational(e.b)
        if not ra or not rb:
            return None
        return _trim(P.polymul(ra[0], rb[1])), _trim(P.polymul(ra[1], rb[0]))
    if isinstance(e, Pow):
        if not isinstance(e.exponent, Const):
            return None
        k = e.exponent.value
        if k != int(k):
            return None
        k = int(k)
        r = as_rational(e.base)
        if not r:
            return None
        num, den = one, one
        for _ in range(abs(k)):
            num, den = P.polymul(num, r[0]), P.polymul(den, r[1])
        if k < 0:
            num, den = den, num
        return _trim(num), _trim(den)
    return None


def poly_coeffs(e: Expr) -> Optional[np.ndarray]:
    """Polynomial coefficients (low to high) when e is a polynomial."""
    r = as_rational(e)
    if not r:
        return None
    num, den = r
    if len(den) != 1:
        return None
    return num / den[0]


def expr_from_poly(coeffs) -> Expr:
    """Build an expression tree from low-to-high polynomial coefficients."""
    coeffs = list(np.asarray(coeffs, dtype=float))
    e: Expr = const(0.0)
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        term = const(c) if k == 0 else mul(const(c), pow_(X, const(k)))
        e = add(e, term)
    return e


def poly_divide(num, den) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial long division: num = quotient*den + remainder with
    deg(remainder) < deg(den).  Coefficients are low to high."""
    den = _trim(den)
    if len(den) == 1 and den[0] == 0.0:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r = P.polydiv(np.asarray(num, dtype=float), den)
    return _trim(q), _trim(r)


def _quadratic_roots(coeffs: np.ndarray) -> list[float]:
    """Real roots of a polynomial of degree <= 2, low-to-high coefficients."""
    coeffs = _trim(coeffs)
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        c0, c1 = coeffs
        return [-c0 / c1 + 0.0]  # + 0.0 normalizes -0.0
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0:
        return []
    s = math.sqrt(disc)
    return sorted({(-c1 - s) / (2.0 * c2) + 0.0, (-c1 + s) / (2.0 * c2) + 0.0})


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def roots(
    e: Expr, lo: float, hi: float, tol: float = 1e-10, grid: int = GRID_CELLS
) -> list[float]:
    """All roots of e on [lo, hi].

    Closed forms for polynomials of degree <= 2; otherwise a sign-change
    scan over `grid` cells (skipping cells with an end where e is undefined
    or overflows), Brent's method to `tol` in each cell with a sign change,
    and one Newton polish step.  Roots closer than 10*tol are merged.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    coeffs = poly_coeffs(e)
    if coeffs is not None and len(_trim(coeffs)) <= 3:
        return [r for r in _quadratic_roots(coeffs) if lo - tol <= r <= hi + tol]

    deriv = differentiate(e)

    def f(x):
        return evaluate(e, x)

    xs = np.linspace(lo, hi, grid + 1)
    vals = []
    for x in xs:
        try:
            vals.append(f(x))
        except (EvalDomainError, OverflowError):
            vals.append(math.nan)

    found: list[float] = []
    for i in range(grid):
        fa, fb = vals[i], vals[i + 1]
        if math.isnan(fa) or math.isnan(fb):
            continue
        if fa == 0.0:
            found.append(xs[i])
            continue
        if fa * fb < 0.0:
            root = brent(f, xs[i], xs[i + 1], xtol=tol)
            try:  # one Newton polish step
                fp = evaluate(deriv, root)
                if abs(fp) > 1e-14:
                    cand = root - f(root) / fp
                    if lo - tol <= cand <= hi + tol:
                        root = cand
            except EvalDomainError:
                pass
            found.append(root)
    if not math.isnan(vals[-1]) and vals[-1] == 0.0:
        found.append(xs[-1])

    merged: list[float] = []
    for r in sorted(found):
        if not merged or r - merged[-1] > 10.0 * tol:
            merged.append(r + 0.0)  # + 0.0 normalizes -0.0
    return merged


# ---------------------------------------------------------------------------
# Curve reports for polynomial and rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveReport:
    domain: str
    symmetry: str  # "even" | "odd" | "none"
    roots: tuple[float, ...]
    extrema: tuple[tuple[float, str], ...]  # (x, "min"/"max")
    inflections: tuple[float, ...]
    monotone_intervals: tuple[tuple[float, float, str], ...]
    curvature_intervals: tuple[tuple[float, float, str], ...]
    vertical_asymptotes: tuple[float, ...]
    asymptote: Optional[tuple[float, float]]  # (slope, intercept) or None
    range_estimate: Optional[tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "symmetry": self.symmetry,
            "roots": list(self.roots),
            "extrema": [{"x": x, "kind": k} for x, k in self.extrema],
            "inflections": list(self.inflections),
            "monotone_intervals": [
                {"from": a, "to": b, "behaviour": k} for a, b, k in self.monotone_intervals
            ],
            "curvature_intervals": [
                {"from": a, "to": b, "behaviour": k} for a, b, k in self.curvature_intervals
            ],
            "vertical_asymptotes": list(self.vertical_asymptotes),
            "asymptote": (
                {"slope": self.asymptote[0], "intercept": self.asymptote[1]}
                if self.asymptote
                else None
            ),
            "range_estimate": list(self.range_estimate) if self.range_estimate else None,
        }


def _poly_reflect(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of p(-x)."""
    return np.array([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])


def _poly_close(a: np.ndarray, b: np.ndarray) -> bool:
    n = max(len(a), len(b))
    pa = np.pad(a, (0, n - len(a)))
    pb = np.pad(b, (0, n - len(b)))
    scale = max(1.0, float(np.max(np.abs(pa))), float(np.max(np.abs(pb))))
    return bool(np.max(np.abs(pa - pb)) <= 1e-9 * scale)


def _sign_intervals(e: Expr, breakpoints, lo, hi, pos_label, neg_label):
    pts = sorted({lo, hi, *[p for p in breakpoints if lo < p < hi]})
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + b)
        try:
            v = evaluate(e, mid)
        except EvalDomainError:
            continue
        if abs(v) <= 1e-12:
            continue
        out.append((a, b, pos_label if v > 0 else neg_label))
    return tuple(out)


def curve_report(e: Expr, lo: float, hi: float) -> CurveReport:
    """Curve sketch of a polynomial or rational function over a window:
    symmetry, roots, extrema, inflections, monotonicity, curvature,
    asymptotes and a sampled range estimate."""
    rat = as_rational(e)
    if rat is None:
        raise UnsupportedExpressionError(
            f"curve reports support polynomials and rational functions, got {to_string(e)}"
        )
    num, den = rat

    # symmetry, tested structurally on the coefficients
    if _poly_close(P.polymul(_poly_reflect(num), den), P.polymul(num, _poly_reflect(den))):
        symmetry = "even"
    elif _poly_close(
        P.polymul(_poly_reflect(num), den), -P.polymul(num, _poly_reflect(den))
    ):
        symmetry = "odd"
    else:
        symmetry = "none"

    den_expr = expr_from_poly(den)
    num_expr = expr_from_poly(num)
    poles = []
    if len(den) > 1:
        for r in roots(den_expr, lo, hi):
            try:
                if abs(evaluate(num_expr, r)) > 1e-9:
                    poles.append(r)
            except EvalDomainError:
                poles.append(r)
    domain = "all reals" if not poles else (
        "all reals except " + ", ".join(f"{p:.6g}" for p in poles)
    )

    f_roots = [
        r
        for r in roots(num_expr, lo, hi)
        if all(abs(r - p) > 1e-9 for p in poles)
    ]

    d1 = differentiate(e)
    d2 = differentiate(d1)
    d3 = differentiate(d2)

    extrema = []
    for r in roots(d1, lo, hi):
        if any(abs(r - p) <= 1e-9 for p in poles):
            continue
        try:
            curvature = evaluate(d2, r)
        except EvalDomainError:
            continue
        if curvature > 1e-9:
            extrema.append((r, "min"))
        elif curvature < -1e-9:
            extrema.append((r, "max"))

    inflections = []
    for r in roots(d2, lo, hi):
        if any(abs(r - p) <= 1e-9 for p in poles):
            continue
        try:
            if abs(evaluate(d3, r)) > 1e-9:
                inflections.append(r)
        except EvalDomainError:
            continue

    monotone = _sign_intervals(
        d1, [x for x, _ in extrema] + poles, lo, hi, "increasing", "decreasing"
    )
    curvature_iv = _sign_intervals(
        d2, list(inflections) + poles, lo, hi, "convex", "concave"
    )

    # straight asymptote from the polynomial division quotient
    asymptote = None
    if len(den) > 1:
        q, _ = poly_divide(num, den)
        if len(q) == 1:
            asymptote = (0.0, float(q[0]))  # proper rational tends to q0 (0 if q==0)
        elif len(q) == 2:
            asymptote = (float(q[1]), float(q[0]))
    elif len(num) <= 2:
        line = np.pad(num / den[0], (0, 2 - len(num)))
        asymptote = (float(line[1]), float(line[0]))

    samples = []
    for x in np.linspace(lo, hi, 512):
        try:
            samples.append(evaluate(e, x))
        except EvalDomainError:
            continue
    range_estimate = (min(samples), max(samples)) if samples else None

    return CurveReport(
        domain=domain,
        symmetry=symmetry,
        roots=tuple(f_roots),
        extrema=tuple(extrema),
        inflections=tuple(inflections),
        monotone_intervals=monotone,
        curvature_intervals=curvature_iv,
        vertical_asymptotes=tuple(poles),
        asymptote=asymptote,
        range_estimate=range_estimate,
    )


# ---------------------------------------------------------------------------
# Antiderivatives (structural table) and definite integration
# ---------------------------------------------------------------------------

def _linear_derivative(u: Expr) -> Optional[float]:
    """The constant u' when u is linear in x, else None."""
    du = differentiate(u)
    return du.value if isinstance(du, Const) else None


def antiderivative(e: Expr) -> Optional[Expr]:
    """A primitive of e when e is a linear combination of constants, x^a,
    1/x, a^x, e^(ax) and f'/f shapes; None otherwise.  The integration
    constant is omitted (definite integration cancels it)."""
    if isinstance(e, Const):
        return mul(e, X)
    if isinstance(e, Var):
        return div(pow_(X, const(2.0)), const(2.0))
    if isinstance(e, Neg):
        inner = antiderivative(e.a)
        return neg(inner) if inner else None
    if isinstance(e, (Add, Sub)):
        fa, fb = antiderivative(e.a), antiderivative(e.b)
        if fa is None or fb is None:
            return None
        return add(fa, fb) if isinstance(e, Add) else sub(fa, fb)
    if isinstance(e, Mul):
        if isinstance(e.a, Const):
            inner = antiderivative(e.b)
            return mul(e.a, inner) if inner else None
        if isinstance(e.b, Const):
            inner = antiderivative(e.a)
            return mul(e.b, inner) if inner else None
        return None
    if isinstance(e, Div):
        if isinstance(e.b, Const):
            inner = antiderivative(e.a)
            return div(inner, e.b) if inner else None
        if differentiate(e.b) == e.a:  # f'/f, recognized structurally
            return ln_(abs_(e.b))
        if isinstance(e.a, Const):  # c / x^k
            base = antiderivative_power(e.b, invert=True)
            return mul(e.a, base) if base else None
        return None
    if isinstance(e, Pow):
        if isinstance(e.exponent, Const):
            return antiderivative_power(e)
        if isinstance(e.base, Const):  # a^u, u' constant
            k = _linear_derivative(e.exponent)
            if k:
                return div(e, const(k * math.log(e.base.value)))
        return None
    if isinstance(e, Exp):
        k = _linear_derivative(e.a)
        if k:
            return div(e, const(k))
        return None
    return None


def antiderivative_power(e: Expr, invert: bool = False) -> Optional[Expr]:
    """Primitive of x^a (or of 1/x^a when invert is set)."""
    if isinstance(e, Var):
        a = 1.0
    elif isinstance(e, Pow) and isinstance(e.base, Var) and isinstance(e.exponent, Const):
        a = e.exponent.value
    else:
        return None
    if invert:
        a = -a
    if a == -1.0:
        return ln_(abs_(X))
    return div(pow_(X, const(a + 1.0)), const(a + 1.0))


def _singular_points(e: Expr, lo: float, hi: float) -> list[tuple[float, float]]:
    """Candidate singularities in [lo, hi] as (location, power-law order).

    Order is the exponent of the local power-law blow-up when it is known
    (x^a terms), or -1.0 as a conservative default for denominator zeros.
    """
    out: list[tuple[float, float]] = []

    def walk(node: Expr):
        if isinstance(node, Div):
            den = node.b
            if not isinstance(den, Const):
                dcoeffs = poly_coeffs(den)
                if dcoeffs is not None and len(_trim(dcoeffs)) > 1:
                    for r in roots(expr_from_poly(dcoeffs), lo, hi):
                        out.append((r, -1.0))
                else:
                    for r in _zeros_by_scan(den, lo, hi):
                        out.append((r, -1.0))
            walk(node.a)
            walk(den)
            return
        if isinstance(node, Pow):
            if (
                isinstance(node.base, Var)
                and isinstance(node.exponent, Const)
                and node.exponent.value < 0
                and lo <= 0.0 <= hi
            ):
                out.append((0.0, node.exponent.value))
            if not isinstance(node.base, Const):
                walk(node.base)
            if not isinstance(node.exponent, Const):
                walk(node.exponent)
            return
        for attr in ("a", "b"):
            child = getattr(node, attr, None)
            if isinstance(child, Expr):
                walk(child)

    walk(e)
    return out


def _zeros_by_scan(e: Expr, lo: float, hi: float) -> list[float]:
    try:
        return roots(e, lo, hi, tol=1e-12)
    except (EvalDomainError, ValueError):
        return []


def integrate(e: Expr, a: float, b: float, tol: float = 1e-10) -> float:
    """Definite integral of e from a to b.

    Uses the structural antiderivative when one exists, otherwise adaptive
    Simpson quadrature to `tol` (absolute or relative).  Poles inside the
    interval and divergent power-law endpoints are rejected.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integrate(e, b, a, tol)

    for s, order in _singular_points(e, a, b):
        if a < s < b:
            raise PoleError(f"pole at x = {s:.6g} inside the integration interval")
        if (s == a or s == b) and order <= -1.0:
            raise DivergenceError(
                f"integral diverges: power-law of order {order:g} at x = {s:.6g}"
            )

    F = antiderivative(e)
    if F is not None:
        return evaluate(F, b) - evaluate(F, a)
    return _adaptive_simpson(e, a, b, tol)


def _adaptive_simpson(e: Expr, a: float, b: float, tol: float) -> float:
    def f(x):
        return evaluate(e, x)

    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        err = left + right - whole
        if depth <= 0 or abs(err) <= 15.0 * tol * (1.0 + abs(left + right)):
            return left + right + err / 15.0
        return recurse(a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + recurse(
            m, b, fm, frm, fb, right, tol / 2.0, depth - 1
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, depth=48)
