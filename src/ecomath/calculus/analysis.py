"""Numeric/structural analysis on expression trees: tangents, elasticities,
root finding, polynomial machinery, curve reports, and definite integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as P

from ..numeric import NumericalError, brent
from .expr import (
    Add,
    Const,
    Div,
    EvalDomainError,
    Exp,
    Expr,
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
        if not ra or not rb or not rb[0].any():  # a zero divisor is defined nowhere
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
        if not r or (k < 0 and not r[0].any()):
            return None
        num, den = P.polypow(r[0], abs(k)), P.polypow(r[1], abs(k))
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


def _horner(c: list[float], x: float) -> float:
    """p(x) for low-to-high coefficients c."""
    y = 0.0
    for ck in reversed(c):
        y = y * x + ck
    return y


def _monotone_roots(c: list[float], crit: list[float]) -> list[float]:
    """The distinct real roots of the monic polynomial c, given the sorted real
    roots crit of its derivative."""
    bound = 1.0 + max(abs(v) for v in c[:-1])
    ac = [abs(v) for v in c]
    pts = [-bound, *crit, bound]
    # the sign of p at each point, 0 where |p| is within twice Horner's rounding-error
    # bound gamma_2n sum |c_k x^k| (Higham 2002, sec. 5.1), unless at the bound or inf
    signs = []
    for x in pts:
        y, err = _horner(c, x), 2.0 * len(c) * 2.0 ** -52 * _horner(ac, abs(x))
        zero = abs(y) <= err and abs(x) < bound and not math.isinf(y)
        signs.append(0.0 if zero else math.copysign(1.0, y))

    found: list[float] = []
    cluster: list[float] = []
    for i in range(1, len(pts)):
        if signs[i - 1] * signs[i] < 0.0:
            found.append(brent(lambda x: _horner(c, x), pts[i - 1], pts[i], xtol=2.0 ** -1022))
        if signs[i] == 0.0:
            cluster.append(pts[i])
        elif cluster:
            found.append(0.5 * (cluster[0] + cluster[-1]))
            cluster = []
    return [r + 0.0 for r in found]  # + 0.0 normalizes -0.0


def poly_real_roots(coeffs) -> list[float]:
    """All distinct real roots, sorted, of a polynomial with low-to-high
    coefficients (none for a constant); O(n^2) work at degree n.

    The derivatives p^(k), each over its leading coefficient, are solved from
    k = n-1 (linear) down to p: the real roots of p^(k+1) and the Cauchy bound
    cut the line into pieces where p^(k) is monotone.  In each piece whose ends
    differ in sign, Brent's method on Horner's rule finds the root to RTOL
    relative accuracy.  A critical point where |p^(k)| lies within Horner's
    rounding-error bound is a multiple root; adjacent such points (split by
    rounding) merge into one.
    """
    c = [float(v) for v in np.trim_zeros(np.asarray(coeffs, dtype=float), "b")]
    if not all(map(math.isfinite, c)):
        raise NumericalError("polynomial coefficients outside the float range")
    n, crit = len(c) - 1, []
    for k in range(n - 1, -1, -1):
        # x^m in p^(k)/lead is c[m+k] (m+k)!/m! / (c[n] n!/(n-k)!): r never overflows
        q, r = [1.0] * (n - k + 1), 1.0
        for m in range(n - k - 1, -1, -1):
            r *= (m + 1) / (m + 1 + k)
            q[m] = c[m + k] / c[-1] * r
        crit = _monotone_roots(q, crit)
    return crit


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def _in_window(rs, lo, hi, exclude=(), tol=1e-10) -> list[float]:
    """The roots rs within tol of [lo, hi], less those near (1e-9 max(1, |r|)) exclude."""
    return [r for r in rs if lo - tol <= r <= hi + tol
            and all(abs(r - o) > 1e-9 * max(1.0, abs(r)) for o in exclude)]


def roots(e: Expr, lo: float, hi: float, tol: float = 1e-10) -> list[float]:
    """All roots of e on [lo, hi].

    A ratio of polynomials gives the real roots of its numerator
    (poly_real_roots, multiple roots included) within tol of the window, less
    those shared with the denominator.  Anything else takes
    a sign-change scan over GRID_CELLS cells (skipping cells with an end where
    e is undefined or overflows): Brent's method to `tol` and one Newton step
    in each cell with a sign change, dropping a result where |e| is not small
    against the cell's ends (a pole).  The scan misses roots where e keeps its
    sign.  Roots closer than 10*tol are merged.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    rat = as_rational(e)
    if rat:
        return _in_window(poly_real_roots(rat[0]), lo, hi, poly_real_roots(rat[1]), tol)

    deriv = differentiate(e)

    def f(x):
        return evaluate(e, x)

    xs = np.linspace(lo, hi, GRID_CELLS + 1).tolist()
    vals = []
    for x in xs:
        try:
            vals.append(f(x))
        except (EvalDomainError, OverflowError):
            vals.append(math.nan)

    found: list[float] = []
    for i in range(GRID_CELLS):
        fa, fb = vals[i], vals[i + 1]
        if math.isnan(fa) or math.isnan(fb):
            continue
        if fa == 0.0:
            found.append(xs[i])
            continue
        if fa * fb < 0.0:
            try:
                root = brent(f, xs[i], xs[i + 1], xtol=tol)
                try:  # one Newton polish step
                    fp = evaluate(deriv, root)
                    if abs(fp) > 1e-14:
                        cand = root - f(root) / fp
                        if lo - tol <= cand <= hi + tol:
                            root = cand
                except EvalDomainError:
                    pass
                if abs(f(root)) <= 1e-3 * max(abs(fa), abs(fb)):  # else a pole
                    found.append(root)
            except (EvalDomainError, OverflowError):  # e is undefined inside the cell
                pass
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
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return bool(np.max(np.abs(P.polysub(a, b))) <= 1e-9 * scale)


def _rational_derivative(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(num' den - num den', den^2): the derivative of num/den as coefficient arrays."""
    d = P.polysub(P.polymul(P.polyder(num), den), P.polymul(num, P.polyder(den)))
    return _trim(d), _trim(P.polymul(den, den))


def _sign_intervals(rat, poles, undefined, lo, hi, pos_label, neg_label):
    """Pieces (a, b, label) of [lo, hi] cut at the numerator's real roots and the
    points where f is undefined, labelled by the sign of num/den (left out where
    it vanishes) and merged across a cut that is no pole; and (x, label left of x)
    where the sign changes at a point where f is defined (not at a pole or hole)."""
    num, den = rat
    cuts = _in_window(poly_real_roots(num), lo, hi, exclude=undefined) + undefined
    pts = sorted({lo, hi, *(p for p in cuts if lo < p < hi)})
    out: list[tuple[float, float, str]] = []
    changes: list[tuple[float, str]] = []
    for a, b in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + b)
        d = float(P.polyval(mid, den))
        v = float(P.polyval(mid, num)) / d if d else 0.0
        if abs(v) <= 1e-12:
            continue
        label = pos_label if v > 0 else neg_label
        if out and out[-1][1] == a and a not in poles:
            if out[-1][2] == label:
                out[-1] = (out[-1][0], b, label)
                continue
            if a not in undefined:
                changes.append((a, out[-1][2]))
        out.append((a, b, label))
    return tuple(out), changes


def curve_report(e: Expr, lo: float, hi: float) -> CurveReport:
    """Curve sketch of a polynomial or rational function over a window:
    symmetry, roots, extrema, inflections, monotonicity, curvature, asymptotes
    and a sampled range estimate, all from the (numerator, denominator) arrays
    and poly_real_roots.  An extremum (inflection) is an interior point where f
    is defined and f' (f'') changes sign; roots and poles leave out the points
    where numerator and denominator vanish together."""
    rat = as_rational(e)
    if rat is None:
        raise UnsupportedExpressionError(
            f"curve reports support polynomials and rational functions, got {to_string(e)}"
        )
    num, den = rat

    # symmetry, tested structurally on the coefficients: f(-x) against f(x)
    a, b = P.polymul(_poly_reflect(num), den), P.polymul(num, _poly_reflect(den))
    symmetry = "even" if _poly_close(a, b) else "odd" if _poly_close(a, -b) else "none"

    num_roots, den_roots = poly_real_roots(num), poly_real_roots(den)
    poles = _in_window(den_roots, lo, hi, exclude=num_roots)
    domain = "all reals" if not poles else (
        "all reals except " + ", ".join(f"{p:.6g}" for p in poles)
    )
    f_roots = _in_window(num_roots, lo, hi, exclude=den_roots)

    undefined = _in_window(den_roots, lo, hi)
    d1 = _rational_derivative(num, den)
    monotone, turns = _sign_intervals(d1, poles, undefined, lo, hi, "increasing", "decreasing")
    curvature_iv, bends = _sign_intervals(
        _rational_derivative(*d1), poles, undefined, lo, hi, "convex", "concave"
    )
    extrema = [(x, "min" if k == "decreasing" else "max") for x, k in turns]
    inflections = [x for x, _ in bends]

    # straight asymptote from the polynomial division quotient (q = 0 when proper)
    q, _ = poly_divide(num, den)
    asymptote = None
    if len(q) <= 2:
        q = np.pad(q, (0, 2 - len(q)))
        asymptote = (float(q[1]), float(q[0]))

    xs = np.linspace(lo, hi, 512)
    with np.errstate(over="ignore", invalid="ignore"):  # a high power may overflow
        nv, dv = P.polyval(xs, num), P.polyval(xs, den)
        samples = nv[dv != 0.0] / dv[dv != 0.0]
    sampled = samples.size and np.isfinite(samples).all()
    range_estimate = (float(samples.min()), float(samples.max())) if sampled else None

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
            if not isinstance(den, Const):  # roots() of a rational den: poly_real_roots
                try:
                    out.extend((r, -1.0) for r in roots(den, lo, hi, tol=1e-12))
                except (EvalDomainError, ValueError):
                    pass
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
