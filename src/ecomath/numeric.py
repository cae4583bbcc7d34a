"""Numerical primitives shared by the modules, on the standard library only:
``NumericalError``, the base of every numerical failure (CLI exit code 3),
and ``brent``, the one bracketed root finder (``finmath`` rates and the
sign-change cells of ``calculus.roots``).
"""

from __future__ import annotations

import math

RTOL = 2.0 ** -50  # relative accuracy of brent's roots: four machine epsilons


class NumericalError(Exception):
    """A computation failed numerically: a pole, divergence, an exhausted
    iteration budget, or a result outside the float range."""


class NoSignChangeError(ValueError):
    """f does not take values of opposite sign at the ends of the bracket."""


def brent(f, a: float, b: float, xtol: float = 2e-12) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + RTOL |x| (Brent 1973, ch. 4).

    Each step takes the inverse quadratic or secant step through the last
    iterates when it stays well inside the bracket and bisects otherwise; it
    also bisects when the bracket has not halved over the last two steps, so
    even a flat multiple root takes at most three steps per halving, and
    3 log2(|b - a| / xtol) + 4 steps reach xtol on any bracket.
    f may return +-inf; points with an infinite value are never interpolated
    through.  Raises NoSignChangeError for an invalid bracket and
    NumericalError should that step budget run out.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol must be positive, got {xtol!r}")
    budget = int(3.0 * (math.log2(abs(b - a) + xtol) - math.log2(xtol))) + 4
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):  # also rejects NaN
        raise NoSignChangeError(
            f"f({a:g}) = {fa:g} and f({b:g}) = {fb:g} do not differ in sign"
        )
    c, fc = a, fa
    d = e = b - a
    m2 = m1 = math.inf  # |m| two steps and one step ago
    for _ in range(budget):
        if (fb > 0.0) == (fc > 0.0):  # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best estimate so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * (xtol + RTOL * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        halved = abs(m) <= 0.5 * m2
        m2, m1 = m1, abs(m)
        if halved and abs(e) >= tol and abs(fb) < abs(fa) < math.inf:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation through a, b, c
                qa, r = fa / fc, fb / fc
                p = s * (2.0 * m * qa * (qa - r) - (b - a) * (r - 1.0))
                q = (qa - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    raise NumericalError(f"no root within {xtol:g} + {RTOL:g}|x| after {budget} steps")
