"""Primitives shared by the modules, on the standard library only:
``NumericalError``, the base of every numerical failure (CLI exit code 3),
``brent``, the one bracketed root finder (``finmath`` rates and the
sign-change cells of ``calculus.roots``), ``check_args``, the one rule by
which ``finmath``, ``econ`` and ``calculus.analysis`` refuse a scalar argument
(NaN and +-inf included), ``check_result``, the one rule by which ``finmath``
refuses a result that left the float range, and ``_FrozenRecord``, the base
of every immutable value: the expression nodes, ``Vector`` and ``Matrix``,
``LinearProgram`` and every result record, which all share its one == and
hash.
"""

from __future__ import annotations

import math

RTOL = 2.0 ** -50  # relative accuracy of brent's roots: four machine epsilons


class _FrozenRecord:
    """An immutable record on __slots__.  A subclass lists its fields in
    __slots__ (or in _fields, when it has other slots) and the defaults of
    trailing fields in _defaults.  __init__ takes the fields by position or
    keyword (all of them by keyword reads no defaults), then calls
    __post_init__ to validate; == compares the fields of two records of one
    class, hash hashes them, repr lists them, and pickle and copy rebuild a
    record through __init__.

    == and hash read the fields through _values and _key, and walk nested
    records with an explicit stack, not one Python frame per level, so they
    work on any expression tree that evaluate handles; a record shared within
    a tree is visited once."""

    __slots__ = ()
    _fields: tuple = ()
    _field_set: frozenset = frozenset()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in vars(cls):
            cls._fields += tuple(s for s in vars(cls).get("__slots__", ()) if s != "__dict__")
        cls._field_set = frozenset(cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # keywords or defaults
            if not args and kwargs.keys() == self._field_set:  # every field by keyword
                fields, args = kwargs.keys(), kwargs.values()
            else:
                try:
                    args += tuple([kwargs.pop(f) if f in kwargs else self._defaults[f]
                                   for f in fields[len(args):]])
                except KeyError:  # a field neither given nor defaulted
                    args = ()
                if kwargs or len(args) != len(fields):  # also too many, unknown or repeated
                    raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        for f, v in zip(fields, args):
            object.__setattr__(self, f, v)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if a.__class__ is not b.__class__:
                return False
            for u, v in zip(a._values(), b._values()):
                if isinstance(u, _FrozenRecord):
                    stack.append((u, v))
                elif _key(u) != _key(v):
                    return False
        return True

    def __hash__(self):
        hashes: dict[int, int] = {}  # id(record) -> hash, for the records done
        stack = [self]
        while stack:
            r = stack[-1]
            values = r._values()
            todo = [v for v in values if isinstance(v, _FrozenRecord) and id(v) not in hashes]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            keys = [hashes[id(v)] if isinstance(v, _FrozenRecord) else _key(v) for v in values]
            hashes[id(r)] = hash((r.__class__, *keys))
        return hashes[id(self)]

    def __repr__(self):
        args = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return self.__class__, self._values()


def _key(v):
    """What == and hash read of a field: an array (ndim >= 1) as its shape
    and bytes, -0.0 read as 0.0; any other value as it is."""
    return (v.shape, (v + 0.0).tobytes()) if getattr(v, "ndim", 0) else v


def check_args(error: type, lo: float = 0.0, hi: float = math.inf, /, *,
               closed: bool = False, **given) -> None:
    """The argument rule: raise error naming the first given value (None
    skipped) outside (lo, hi), or [lo, hi) when closed.  The test is one
    chained comparison, so NaN fails it, and so do +-inf: hi is at most inf,
    and no caller closes lo = -inf."""
    for name, v in given.items():
        if v is not None and not (lo <= v < hi if closed else lo < v < hi):
            if hi < math.inf:
                raise error(f"{name} must lie in {'[' if closed else '('}{lo:g}, {hi:g}), got {v!r}")
            least = f" with {name} {'>=' if closed else '>'} {lo:g}" if lo > -math.inf else ""
            raise error(f"{name} must be a finite number{least}, got {v!r}")


def check_result(error: type, /, **value) -> float:
    """The result rule: the one named value, or error naming it if overflow
    made it inf or NaN (check_args' message for a finite number)."""
    check_args(error, -math.inf, **value)
    return next(iter(value.values()))


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
