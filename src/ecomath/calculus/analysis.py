"""Numeric/structural analysis on expression trees: tangents, elasticities,
root finding, polynomial machinery, curve reports, and definite integration.
Polynomials are lists of floats, lowest degree first; nothing here imports
NumPy.  Whether f is a ratio of polynomials, solved on its (num, den) lists, or
a tree, bisected on interval enclosures, is decided in _Fn alone: roots,
curve_report and econ use it.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Optional

from ..numeric import NumericalError, _FrozenRecord, brent, check_args, check_result
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
    enclose,
    evaluate,
    ln_,
    mul,
    neg,
    pow_,
    sub,
    to_string,
)

MAX_CELLS = 16384  # cells one bisection walk (tree roots, monotonicity, integrals) may visit
MAX_DEGREE = 2000  # products and poly_real_roots refuse higher degrees: their work grows as degree^2


class UnsupportedExpressionError(ValueError):
    pass


class PoleError(NumericalError, ArithmeticError):
    """A non-integrable singularity lies inside the integration interval."""


class DivergenceError(NumericalError, ArithmeticError):
    """The integral diverges (power-law singularity of order <= -1)."""


class UndecidedError(NumericalError):
    """A bisection walk left part of its window undecided after MAX_CELLS cells,
    or an integral's cell of the floor width missed its tolerance."""


# ---------------------------------------------------------------------------
# Tangents and elasticities
# ---------------------------------------------------------------------------

def tangent_line(e: Expr, x0: float) -> tuple[float, float]:
    """Linearization at x0 as (slope, intercept): y = f(x0) + f'(x0)(x - x0);
    either past the float range is a NumericalError."""
    check_args(ValueError, -math.inf, x0=x0)
    slope = check_result(NumericalError, slope=evaluate(differentiate(e), x0))
    return slope, check_result(NumericalError, intercept=evaluate(e, x0) - slope * x0)


def _positive_point(e: Expr, x: float, what: str) -> float:
    """f(x); a non-finite x is a ValueError, x <= 0 or f(x) <= 0 an EvalDomainError."""
    check_args(ValueError, -math.inf, x=x)
    check_args(EvalDomainError, x=x)
    fx = evaluate(e, x)
    if not fx > 0:
        raise EvalDomainError(f"{what} requires f(x) > 0, got f({x}) = {fx}")
    return fx


def elasticity(e: Expr, x: float) -> float:
    """x f'(x) / f(x); requires x > 0 and f(x) > 0.  A result past the float
    range (f(x) or f'(x) overflowing, say) is a NumericalError."""
    fx = _positive_point(e, x, "elasticity")
    return check_result(NumericalError, elasticity=x * evaluate(differentiate(e), x) / fx)


def elasticity_label(eps: float, tol: float = 1e-9) -> str:
    check_args(ValueError, -math.inf, eps=eps, tol=tol)
    if abs(abs(eps) - 1.0) <= tol:
        return "unit elastic"
    return "inelastic" if abs(eps) < 1.0 else "elastic"


def elasticity_expr(e: Expr) -> Expr:
    """The elasticity as a symbolic expression x f'(x)/f(x)."""
    return mul(X, div(differentiate(e), e))


def second_elasticity(e: Expr, x: float) -> float:
    """x d/dx [x f'(x)/f(x)], evaluated symbolically then numerically; a
    result past the float range is a NumericalError."""
    _positive_point(e, x, "second elasticity")
    return check_result(NumericalError,
                        second_elasticity=x * evaluate(differentiate(elasticity_expr(e)), x))


# ---------------------------------------------------------------------------
# Polynomial machinery
# ---------------------------------------------------------------------------

# Coefficient lists of floats, lowest degree first.  Every product checks its
# degree against MAX_DEGREE before it is formed: nothing downstream could use a
# polynomial past it, and forming one takes time proportional to len(a) len(b).

def _check_degree(n: int) -> None:
    if n > MAX_DEGREE:
        raise NumericalError(f"polynomial degree {n} exceeds MAX_DEGREE = {MAX_DEGREE}")


def _trim(c: list[float]) -> list[float]:
    n = len(c)
    while n and not abs(c[n - 1]) > 0.0:  # zeros and NaNs, as polytrim drops them
        n -= 1
    return c[:max(n, 1)] or [0.0]


def _mul(a: list[float], b: list[float]) -> list[float]:
    """The product a b, trimmed: one pass over the longer list per nonzero
    coefficient of the shorter (a power of x has one)."""
    if len(a) < len(b):
        a, b = b, a
    _check_degree(len(a) + len(b) - 2)
    n, out = len(a), [0.0] * (len(a) + len(b) - 1)
    for j, bj in enumerate(b):
        if bj:
            out[j:j + n] = [o + bj * ai for o, ai in zip(out[j:j + n], a)]
    return _trim(out)


def _add(a: list[float], b: list[float]) -> list[float]:
    """a + b for trimmed a and b; not trimmed itself."""
    a, b = (a, b) if len(a) <= len(b) else (b, a)
    return [x + y for x, y in zip(a, b)] + b[len(a):]


def _neg(c: list[float]) -> list[float]:
    return [-v for v in c]


# A polynomial is the pair (num, [1.0]).  Sums, products, quotients, powers and
# derivatives of polynomials skip every product with that [1.0]: _mul(c, [1.0])
# is _unit(c), bit for bit, so each result is the one the general formula gives.

def _unit(c: list[float]) -> list[float]:
    """_mul(c, [1.0]) with no product: -0.0 becomes 0.0 and trailing zeros go."""
    return _trim([0.0 + v for v in c])


def _rational_sum(ra, rb, subtract: bool = False) -> tuple[list[float], list[float]]:
    """ra + rb (ra - rb) for (num, den) pairs, as as_rational takes a sum."""
    if ra[1] == rb[1] == [1.0]:
        b, a, den = _unit(rb[0]), _unit(ra[0]), [1.0]
    else:
        b, a, den = _mul(rb[0], ra[1]), _mul(ra[0], rb[1]), _mul(ra[1], rb[1])
    return _trim(_add(a, _neg(b) if subtract else b)), den


def _rational_product(ra, rb) -> tuple[list[float], list[float]]:
    """ra rb for (num, den) pairs, as as_rational takes a product."""
    if ra[1] == rb[1] == [1.0]:
        return _mul(ra[0], rb[0]), [1.0]
    return _mul(ra[0], rb[0]), _mul(ra[1], rb[1])


def _rational_derivative(num: list[float], den: list[float]) -> tuple[list[float], list[float]]:
    """(num' den - num den', den^2): the derivative of num/den as coefficient
    lists; of a polynomial, (num', [1.0]), since num [1.0]' is [0.0]."""
    dn, dd = ([k * v for k, v in enumerate(c) if k] or [c[0] * 0.0] for c in (num, den))
    if den == [1.0]:
        return _unit(dn), [1.0]
    return _trim(_add(_mul(dn, den), _neg(_mul(num, dd)))), _mul(den, den)


def _rational_shape(e: Expr) -> bool:
    """Whether e is built from constants, x, +, -, *, / and integer constant
    powers only: the one walk that decides whether as_rational converts e."""
    stack = [e]
    while stack:
        node = stack.pop()
        kind = type(node)  # node classes have no subclasses
        if kind in (Add, Sub, Mul, Div):
            stack += node.a, node.b
        elif kind is Neg:
            stack.append(node.a)
        elif kind is Pow:
            if type(node.exponent) is not Const or not node.exponent.value.is_integer():
                return False
            stack.append(node.base)
        elif kind is not Const and kind is not Var:
            return False
    return True


def as_rational(e: Expr) -> Optional[tuple[list[float], list[float]]]:
    """(numerator, denominator) coefficient lists (low to high) when the
    expression is a ratio of polynomials, else None.

    Whether every node is rational-shaped is decided on the whole tree before
    anything is converted, so a tree with exp, ln or |.| anywhere is None.  In
    a rational-shaped tree every operand is converted, and a product or power
    whose degree would pass MAX_DEGREE is a NumericalError before it is
    formed, wherever in the tree it stands; a divisor that cancels to zero
    makes the tree None."""
    return _to_rational(e) if _rational_shape(e) else None


def _to_rational(e: Expr) -> Optional[tuple[list[float], list[float]]]:
    if isinstance(e, Const):
        return [e.value], [1.0]
    if isinstance(e, Var):
        return [0.0, 1.0], [1.0]
    if isinstance(e, Neg):
        r = _to_rational(e.a)
        return (_neg(r[0]), r[1]) if r else None
    if isinstance(e, Pow):
        k = int(e.exponent.value)
        r = _to_rational(e.base)
        if not r or (k < 0 and not any(r[0])):
            return None
        _check_degree(abs(k) * (max(len(r[0]), len(r[1])) - 1))
        num, den = r if k else ([1.0], [1.0])
        for _ in range(abs(k) - 1):
            num, den = _rational_product((num, den), r)
        return (den, num) if k < 0 else (num, den)
    ra, rb = _to_rational(e.a), _to_rational(e.b)
    if not ra or not rb:
        return None
    if isinstance(e, (Add, Sub)):
        return _rational_sum(ra, rb, subtract=isinstance(e, Sub))
    if isinstance(e, Mul):
        return _rational_product(ra, rb)
    if not any(rb[0]):  # a zero divisor is defined nowhere
        return None
    if ra[1] == rb[1] == [1.0]:
        return _unit(ra[0]), _unit(rb[0])
    return _mul(ra[0], rb[1]), _mul(ra[1], rb[0])


def poly_coeffs(e: Expr) -> Optional[list[float]]:
    """Polynomial coefficients (low to high) when e is a polynomial."""
    r = as_rational(e)
    if not r:
        return None
    num, den = r
    if len(den) != 1:
        return None
    return [v / den[0] for v in num]


def expr_from_poly(coeffs) -> Expr:
    """Build an expression tree from low-to-high polynomial coefficients."""
    e: Expr = const(0.0)
    for k, c in enumerate(map(float, coeffs)):
        if c == 0.0:
            continue
        term = const(c) if k == 0 else mul(const(c), pow_(X, const(k)))
        e = add(e, term)
    return e


def poly_divide(num, den) -> tuple[list[float], list[float]]:
    """Polynomial long division: num = quotient*den + remainder with
    deg(remainder) < deg(den).  Coefficients are low to high; the steps are
    numpy.polynomial.polydiv's."""
    num, den = _trim([float(v) for v in num]), _trim([float(v) for v in den])
    if den == [0.0]:
        raise ZeroDivisionError("division by the zero polynomial")
    n, lead = len(den) - 1, den[-1]
    d = [v / lead for v in den[:-1]]
    for j in range(len(num) - 1, n - 1, -1):  # less num[j] / lead x^(j-n) den, below x^j
        num[j - n:j] = [v - dv * num[j] for v, dv in zip(num[j - n:j], d)]
    return _trim([v / lead for v in num[n:]]), _trim(num[:n])


def _horner(c: list[float], x: float) -> float:
    """p(x) for low-to-high coefficients c."""
    y = 0.0
    for ck in reversed(c):
        y = y * x + ck
    return y


def _monotone_roots(c: list[float], crit: list[float]) -> list[float]:
    """The distinct real roots of the monic polynomial c, given the sorted real
    roots crit of its derivative; NumericalError where the Cauchy bound
    1 + max |c_k| (k < n), or a piece holding a root, passes the float range."""
    big = max(abs(v) for v in c[:-1])
    bound = 1.0 + big
    if bound == big:  # 1 rounds away; the next float up still exceeds 1 + big
        bound = math.nextafter(big, math.inf)
    if bound == math.inf:
        raise NumericalError("polynomial roots outside the float range")
    ac, rc = [abs(v) for v in c], c[::-1]

    def p(x):  # _horner(c, x)
        y = 0.0
        for ck in rc:
            y = y * x + ck
        return y

    pts = [-bound, *crit, bound]
    # the sign of p at each point, 0 where |p| is within twice Horner's rounding-error
    # bound gamma_2n sum |c_k x^k| (Higham 2002, sec. 5.1), unless at the bound or inf
    ys, signs = [p(x) for x in pts], []
    for x, y in zip(pts, ys):
        err = 2.0 * len(c) * 2.0 ** -52 * _horner(ac, abs(x))
        zero = abs(y) <= err and abs(x) < bound and not math.isinf(y)
        signs.append(0.0 if zero else math.copysign(1.0, y))

    found: list[float] = []
    cluster: list[float] = []
    for i in range(1, len(pts)):
        if signs[i - 1] * signs[i] < 0.0:
            if pts[i] - pts[i - 1] == math.inf:  # brent's steps would overflow
                raise NumericalError("polynomial roots outside the float range")
            found.append(brent(p, pts[i - 1], pts[i], 2.0 ** -1022, ys[i - 1], ys[i]))
        if signs[i] == 0.0:
            cluster.append(pts[i])
        elif cluster:
            found.append(0.5 * (cluster[0] + cluster[-1]))
            cluster = []
    return [r + 0.0 for r in found]  # + 0.0 normalizes -0.0


def poly_real_roots(coeffs) -> list[float]:
    """All distinct real roots, sorted, of a polynomial with low-to-high
    coefficients (none for a constant); O(n^2) work at degree n, so a degree
    above MAX_DEGREE is a NumericalError before any work is done.

    The derivatives p^(k), each over its leading coefficient, are solved from
    k = n-1 (linear) down to p: the real roots of p^(k+1) and the Cauchy bound
    cut the line into pieces where p^(k) is monotone.  In each piece whose ends
    differ in sign, Brent's method on Horner's rule finds the root to RTOL
    relative accuracy.  A critical point where |p^(k)| lies within Horner's
    rounding-error bound is a multiple root; adjacent such points (split by
    rounding) merge into one.
    """
    c = [float(v) for v in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    _check_degree(len(c) - 1)
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
    """The roots rs within tol of [lo, hi], less those near (1e-9 |r|) exclude:
    relative, so a root 1e-12 beside a pole at -1e-12 is kept."""
    return [r for r in rs if lo - tol <= r <= hi + tol
            and all(abs(r - o) > 1e-9 * abs(r) for o in exclude)]


class _Fn:
    """f(x), its derivative, roots and monotonicity: for a rational f from its
    (num, den) coefficient lists (converted from e once, or given as rat, with
    or without e) by Horner's rule, _rational_derivative and poly_real_roots;
    otherwise from its tree (_bisect).

    Each is worked out on first use and kept on the instance: the lists, f'
    (d), the roots in each window asked for, for a rational f the real roots
    of num and den, which sign_pieces reads too, and for a tree its enclosure
    on each bisection cell, so that the walks for f's roots, f''s roots and
    monotonicity enclose f' once per cell.  The kept roots are shared;
    callers only read them."""

    def __init__(self, e: Optional[Expr], rat=None):
        self.e, self._roots, self._cells = e, {}, {}  # roots by (lo, hi, tol), enclosures by cell
        if e is None or rat is not None:
            self.rat = rat

    @functools.cached_property
    def rat(self) -> Optional[tuple[list[float], list[float]]]:
        return as_rational(self.e)  # on first use, so reading f.d.e converts nothing

    num = functools.cached_property(lambda self: self.rat[0])
    den = functools.cached_property(lambda self: self.rat[1])

    def __call__(self, x: float) -> float:
        if self.rat:
            return _horner(self.num, x) / _horner(self.den, x)
        return evaluate(self.e, x)

    @functools.cached_property
    def d(self) -> _Fn:  # f', taken once
        return _Fn(None, _rational_derivative(*self.rat)) if self.rat else _Fn(
            differentiate(self.e))

    @functools.cached_property
    def num_roots(self) -> list[float]:
        return poly_real_roots(self.num)

    @functools.cached_property
    def den_roots(self) -> list[float]:
        return poly_real_roots(self.den)

    def enclose(self, a: float, b: float) -> Optional[tuple[float, float]]:
        """enclose(f.e, a, b), kept for up to MAX_CELLS cells (one walk's worth)."""
        cells = self._cells
        if (a, b) in cells:
            return cells[a, b]
        F = enclose(self.e, a, b)
        if len(cells) < MAX_CELLS:
            cells[a, b] = F
        return F

    def roots(self, lo: float, hi: float, tol: float = 1e-10) -> list[float]:
        """What roots(f.e, lo, hi, tol) gives, with no check that lo < hi."""
        if (lo, hi, tol) not in self._roots:
            self._roots[lo, hi, tol] = (
                _in_window(self.num_roots, lo, hi, self.den_roots, tol) if self.rat
                else _tree_roots(self, lo, hi, tol))
        return self._roots[lo, hi, tol]

    def best_maximum(self, lo: float, hi: float) -> Optional[float]:
        """The stationary point in [lo, hi] with f'' < 0 where f is largest, or None."""
        maxima = []
        for r in self.d.roots(lo, hi):
            try:
                if self.d.d(r) < 0:
                    maxima.append(r)
            except EvalDomainError:
                pass
        return max(maxima, key=self) if maxima else None

    def monotone_flaw(self, lo: float, hi: float, increasing: bool) -> Optional[str]:
        """None if f is strictly increasing (decreasing) on [lo, hi], else where
        not: exact for a rational f (its sign pieces).  A tree's cell of _bisect
        passes where the enclosure of f' is None or has the wanted sign, fails
        where it has the other sign or 0 throughout or is subnormal, and else is
        halved; a floor cell (1e-10) fails on f' midway, where it is defined."""
        want = "increasing" if increasing else "decreasing"
        if self.rat:
            _, pieces, _ = self.sign_pieces(self.d, lo, hi, "increasing", "decreasing")
            wrong = [f"it is {k} on ({a:.6g}, {b:.6g})" for a, b, k in pieces if k != want]
            x = pieces[0][1] if pieces and pieces[0][0] == lo else lo  # a pole or gap splits it
            return None if pieces == ((lo, hi, want),) else (
                wrong or [f"it is not {want} across x = {x:.6g}"])[0]
        sign, flaws = (1.0 if increasing else -1.0), []

        def split(a, b, floor):
            D = None if flaws else self.d.enclose(a, b)
            if D is None or min(sign * D[0], sign * D[1]) > 0.0:
                return False
            if max(sign * D[0], sign * D[1]) <= 0.0 or max(-D[0], D[1]) < sys.float_info.min:
                flaws.append(f"it is not {want} on ({a:.6g}, {b:.6g})")  # f' <= 0, or subnormal
            elif floor and (sign * (_at(self.d.e, 0.5 * a + 0.5 * b) or 0.0)) < 0.0:
                flaws.append(f"it is not {want} at x = {0.5 * a + 0.5 * b:.6g}")
            return not (flaws or floor)

        _bisect(lo, hi, 1e-10, split, "monotonicity")
        return flaws[0] if flaws else None

    def sign_pieces(self, g: _Fn, lo, hi, pos_label, neg_label):
        """For a rational f and g (f' or f''): the poles of f in [lo, hi]; the
        pieces (a, b, label) of [lo, hi] cut at the real roots of g's numerator
        and the points where f is undefined, labelled by the sign of g (left out
        where g's numerator is within _monotone_roots' rounding bound at the
        midpoint, whatever g's scale) and merged across a cut that is no pole;
        and (x, label left of x) where the sign changes at a point where f is
        defined (not at a pole or hole)."""
        undefined = _in_window(self.den_roots, lo, hi)
        poles = _in_window(undefined, lo, hi, self.num_roots) if undefined else []
        anum = [abs(v) for v in g.num]
        cuts = _in_window(g.num_roots, lo, hi, exclude=undefined) + undefined
        pts = sorted({lo, hi, *(p for p in cuts if lo < p < hi)})
        out: list[tuple[float, float, str]] = []
        changes: list[tuple[float, str]] = []
        for a, b in zip(pts[:-1], pts[1:]):
            mid = 0.5 * (a + b)
            y, d = _horner(g.num, mid), _horner(g.den, mid)
            err = 2.0 * len(g.num) * 2.0 ** -52 * _horner(anum, abs(mid))
            if not d or abs(y) <= err and not math.isinf(y):
                continue
            label = pos_label if y / d > 0 else neg_label
            if out and out[-1][1] == a and a not in poles:
                if out[-1][2] == label:
                    out[-1] = (out[-1][0], b, label)
                    continue
                if a not in undefined:
                    changes.append((a, out[-1][2]))
            out.append((a, b, label))
        return poles, tuple(out), changes


def roots(e: Expr, lo: float, hi: float, tol: float = 1e-10) -> list[float]:
    """All roots of e on the finite window [lo, hi], sorted.

    A ratio of polynomials gives the real roots of its numerator
    (poly_real_roots, multiple roots included) within tol of the window, less
    those shared with the denominator.  Any other e is bisected on interval
    enclosures down to cells of width tol (_tree_roots): simple roots to full
    precision, multiple roots, even-order ones included, and no poles.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    check_args(ValueError, tol=tol)
    return _Fn(e).roots(lo, hi, tol)


def _bisect(lo: float, hi: float, tol: float, split, what: str) -> None:
    """Visit the cells of [lo, hi] depth first, left to right, halving one while
    split(a, b, floor) says so; UndecidedError names the span left after MAX_CELLS."""
    stack = [(lo, hi)]
    for _ in range(MAX_CELLS):
        a, b = stack.pop()
        m = 0.5 * a + 0.5 * b
        if split(a, b, not (b - a > tol and a < m < b)):  # floor: width tol, or unsplittable
            stack += (m, b), (a, m)
        if not stack:
            return
    raise UndecidedError(f"{what} undecided on [{stack[-1][0]:.6g}, {hi:.6g}] after "
                         f"MAX_CELLS = {MAX_CELLS} cells")  # the pending cells end at hi


def _at(e: Expr, x: float) -> Optional[float]:
    """evaluate(e, x), or None where it raises or is NaN (an _Fn would convert f')."""
    try:
        v = evaluate(e, x)
    except (EvalDomainError, OverflowError):
        return None
    return v if v == v else None


def _tree_roots(f: _Fn, lo: float, hi: float, tol: float) -> list[float]:
    """The roots of the tree f.e on [lo, hi] by _bisect, from the enclosures F
    of f and F' of f' on a cell [a, b]: none if 0 is not in F; if F and F' are
    bounded and 0 is not in F', the root where f changes sign (Brent's method,
    full precision); else halve to width tol, where an unbounded F is a pole or
    overflow, a sign change a root, and a point c where f' changes sign or is
    undefined a multiple root if 0 is in F over c +- 4 ulps.  A cell end where
    f is 0 is a root; roots with 0 in a bounded F midway merge into one."""
    found: set[float] = set()
    slope = lambda x: _at(f.d.e, x) or 0.0  # f', 0 where it is undefined

    def split(a, b, floor):
        F = f.enclose(a, b)
        if F is None or not F[0] <= 0.0 <= F[1]:
            return False
        if math.inf in (-F[0], F[1]):
            return not floor
        D = f.d.enclose(a, b)
        monotone = D is not None and math.inf not in (-D[0], D[1]) and not D[0] <= 0.0 <= D[1]
        if not (monotone or floor):
            return True
        fa, fb = _at(f.e, a), _at(f.e, b)
        found.update(x for x, v in ((a, fa), (b, fb)) if v == 0.0)
        if None not in (fa, fb) and (fa < 0.0 < fb or fb < 0.0 < fa):
            try:
                found.add(brent(f, a, b, 2.0 ** -1022, fa, fb))
            except (EvalDomainError, OverflowError):  # f is undefined inside
                return not floor
        elif monotone:
            return not floor and None in (fa, fb)
        elif min(ends := (slope(a), slope(b))) <= 0.0 <= max(ends):
            c = brent(slope, a, b, 2.0 ** -1022, *ends)
            near = enclose(f.e, c - 4.0 * math.ulp(c), c + 4.0 * math.ulp(c))
            if near is not None and near[0] <= 0.0 <= near[1]:
                found.add(c)
        return False

    _bisect(lo, hi, tol, split, "roots")
    clusters: list[list[float]] = []
    for r in sorted(found):
        near = clusters and enclose(f.e, m := 0.5 * clusters[-1][-1] + 0.5 * r, m)
        if near and -math.inf < near[0] <= 0.0 <= near[1] < math.inf:
            clusters[-1].append(r)  # split from the last root by rounding only
        else:
            clusters.append([r])
    return [0.5 * c[0] + 0.5 * c[-1] + 0.0 for c in clusters]  # + 0.0 normalizes -0.0


# ---------------------------------------------------------------------------
# Curve reports for polynomial and rational functions
# ---------------------------------------------------------------------------

class CurveReport(_FrozenRecord):
    __slots__ = (
        "domain",
        "symmetry",  # "even" | "odd" | "none"
        "roots",
        "extrema",  # ((x, "min"/"max"), ...)
        "inflections",
        "monotone_intervals", "curvature_intervals",  # ((a, b, behaviour), ...)
        "vertical_asymptotes",
        "asymptote",  # (slope, intercept) or None
        "range_estimate",  # (lo, hi) or None
    )

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


def _poly_reflect(coeffs: list[float]) -> list[float]:
    """Coefficients of p(-x)."""
    return [-c if k % 2 else c for k, c in enumerate(coeffs)]


def _poly_close(a: list[float], b: list[float]) -> bool:
    """Whether a = b to 1e-9 in each coefficient, |a_k - b_k| against |a_k| +
    |b_k|: the verdict does not depend on the scale of x."""
    scale = _add([abs(v) for v in a], [abs(v) for v in b])
    return all(abs(d) <= 1e-9 * s for d, s in zip(_add(a, _neg(b)), scale))


def curve_report(e: Expr, lo: float, hi: float) -> CurveReport:
    """Curve sketch of a polynomial or rational function over a window:
    symmetry, roots, extrema, inflections, monotonicity, curvature, asymptotes
    and the range, all from the (numerator, denominator) coefficient lists and
    poly_real_roots.  An extremum (inflection) is an interior point where f is
    defined and f' (f'') changes sign; roots and poles leave out the points
    where numerator and denominator vanish together.  The range is the least
    and greatest f at the window's ends and the ends of its monotone pieces,
    None where f is undefined somewhere in the window (a pole or a hole) or
    one of those values is not finite.  The window must be finite, with
    lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    f = _Fn(e)
    if f.rat is None:
        raise UnsupportedExpressionError(
            f"curve reports support polynomials and rational functions, got {to_string(e)}"
        )
    num, den = f.rat

    # symmetry, tested structurally on the coefficients: f(-x) against f(x)
    a, b = _mul(_poly_reflect(num), den), _mul(num, _poly_reflect(den))
    symmetry = "even" if _poly_close(a, b) else "odd" if _poly_close(a, _neg(b)) else "none"

    f_roots = f.roots(lo, hi)
    poles, monotone, turns = f.sign_pieces(f.d, lo, hi, "increasing", "decreasing")
    _, curvature_iv, bends = f.sign_pieces(f.d.d, lo, hi, "convex", "concave")
    domain = "all reals" if not poles else (
        "all reals except " + ", ".join(f"{p:.6g}" for p in poles)
    )
    extrema = [(x, "min" if k == "decreasing" else "max") for x, k in turns]
    inflections = [x for x, _ in bends]

    # straight asymptote from the polynomial division quotient (q = 0 when proper)
    q, _ = poly_divide(num, den)
    asymptote = ((q + [0.0])[1], q[0]) if len(q) <= 2 else None

    range_estimate = None
    if not _in_window(f.den_roots, lo, hi):
        ys = [f(x) for x in {lo, hi, *(x for a, b, _ in monotone for x in (a, b))}]
        if all(map(math.isfinite, ys)):
            range_estimate = (min(ys), max(ys))

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
                if e.base.value <= 0.0:  # a^u / (k ln a) needs a > 0
                    raise EvalDomainError(f"antiderivative of {to_string(e)} needs the ln "
                                          f"of its non-positive base {e.base.value}")
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


# QUADPACK qk15 (Piessens et al. 1983): the Kronrod nodes in (0, 1), and the
# Kronrod and Gauss weights with the node 0's last; G7's nodes are x[1::2] and 0.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


def integrate(e: Expr, a: float, b: float, tol: float = 1e-10) -> float:
    """Definite integral of e from a to b.

    Uses the structural antiderivative when one exists, otherwise G7-K15
    cells of _bisect, whose 15 points go through evaluate strictly inside the
    cell (a node that rounds onto an end moves one float inward), never at a
    cell end.  A cell is kept when |K15 - G7| <= tol (hi-lo)/(b-a) (1 + |K15|),
    else halved down to width (b-a) 2^-48, where it is kept within the whole
    tol or raises UndecidedError, as a walk past MAX_CELLS does; the kept K15
    are summed by math.fsum.  NaN or infinite bounds, poles inside the
    interval and divergent power-law endpoints are rejected.  An integrand or
    integral past the float range is a NumericalError: an overflow in
    evaluate, a floor cell whose K15 or G7 sum is not finite, or an inf sum.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    check_args(ValueError, tol=tol)
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
    kept: list[float] = []

    def split(lo, hi, floor):
        c, h = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
        nodes = [(c - h * x, c + h * x) for x in _XGK]
        if not (lo < nodes[0][0] and nodes[0][1] < hi):  # a narrow cell: no node on an end
            inner = math.nextafter(lo, hi), math.nextafter(hi, lo)
            nodes = [(max(u, inner[0]), min(v, inner[1])) for u, v in nodes]
        f = [evaluate(e, u) + evaluate(e, v) for u, v in nodes] + [evaluate(e, c)]
        k15 = h * sum(w * v for w, v in zip(_WGK, f))
        err = abs(k15 - h * sum(w * v for w, v in zip(_WG, f[1::2])))
        if err <= tol * (1.0 if floor else (hi - lo) / (b - a)) * (1.0 + abs(k15)):
            kept.append(k15)
            return False
        if floor:
            if not math.isfinite(err):  # K15 or G7 overflowed
                raise NumericalError(f"integral outside the float range on [{lo:.6g}, {hi:.6g}]")
            raise UndecidedError(f"integral undecided on [{lo:.6g}, {hi:.6g}]: its error "
                                 f"estimate {err:.3g} is above tol = {tol:g} at width (b-a) 2^-48")
        return True

    try:
        if F is not None:
            return check_result(NumericalError, integral=evaluate(F, b) - evaluate(F, a))
        _bisect(a, b, (b - a) * 2.0 ** -48, split, "integral")
    except OverflowError as exc:  # evaluate's exp or ** left the float range
        raise NumericalError(f"integral outside the float range: {exc}") from None
    return check_result(NumericalError, integral=math.fsum(kept))


# The package exports these names lazily; binding them there as this module
# loads, whichever import loads it, makes them plain package attributes.
_package = sys.modules[__package__]
for _name in _package._LAZY:
    setattr(_package, _name, globals()[_name])
