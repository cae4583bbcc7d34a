"""Expression trees over one real variable: parsing, evaluation at a point
and over an interval (enclose), and symbolic differentiation.

The grammar accepts numbers, ``x``, ``+ - * / ^``, ``exp( )``, ``ln( )``,
``abs( )``, ``log(a; u)`` and parentheses; ``^`` binds tightest and is
right-associative, unary minus binds between ``^`` and ``*``.  ``log(a; u)``
is stored as ``ln(u)/ln(a)`` so the logarithm rules fall out of the
quotient and chain rules.  The simplifier is deliberately conservative
(constant folding and 0/1 identities only) so trees stay predictable.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from ..numeric import _FrozenRecord


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalDomainError(ArithmeticError):
    pass


class Expr(_FrozenRecord):
    """Base class; all nodes are immutable slotted records (numeric._FrozenRecord,
    each with a plain __init__ that sets its slots through their descriptors'
    __set__, bound once below each class) and compare structurally, by the
    base's == and hash, which walk a tree of any depth with an explicit stack."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_string(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set_value(self, float(value))


class Var(Expr):
    __slots__ = ()


class _Unary(Expr):
    __slots__ = ("a",)

    def __init__(self, a: Expr):
        _set_arg(self, a)


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        _set_left(self, a)
        _set_right(self, b)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        _set_base(self, base)
        _set_exponent(self, exponent)


class Neg(_Unary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


class Ln(_Unary):
    __slots__ = ()


class Abs(_Unary):
    __slots__ = ()


_set_value, _set_arg = Const.value.__set__, _Unary.a.__set__
_set_left, _set_right = _Binary.a.__set__, _Binary.b.__set__
_set_base, _set_exponent = Pow.base.__set__, Pow.exponent.__set__

X = Var()

Number = Union[int, float]


def _const(v) -> Optional[float]:
    return v.value if isinstance(v, Const) else None


def _folded(v: float) -> Const:
    """The constant v that folding + - * / computed from finite constants;
    OverflowError if it left the float range, as math.exp and ** raise."""
    if not math.isfinite(v):
        raise OverflowError("constant folding leaves the float range")
    return Const(v)


# -- smart constructors: constant folding plus the 0/1 identities ----------

def const(v: Number) -> Const:
    return Const(float(v))


def add(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return _folded(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return _folded(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return _folded(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    if cb is not None:  # keep constants on the left for stable shapes
        return Mul(Const(cb), a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if cb == 0.0:
        raise ZeroDivisionError("division by the constant zero")
    if ca is not None and cb is not None:
        return _folded(ca / cb)
    if ca == 0.0:
        return Const(0.0)
    if cb == 1.0:
        return a
    return Div(a, b)


def neg(a: Expr) -> Expr:
    ca = _const(a)
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def pow_(base: Expr, exponent: Expr) -> Expr:
    cb, ce = _const(base), _const(exponent)
    if cb is not None and ce is not None:
        if cb < 0.0 and ce != int(ce):  # ** would give a complex number
            raise EvalDomainError(f"negative constant {cb} to the fractional power {ce}")
        return Const(cb ** ce)
    if cb is None and ce is None:
        raise ExprSyntaxError("power needs a constant base or exponent", 0)
    if ce == 1.0:
        return base
    if ce == 0.0:
        return Const(1.0)
    if cb == 1.0:
        return Const(1.0)
    return Pow(base, exponent)


def exp_(a: Expr) -> Expr:
    ca = _const(a)
    if ca is not None:
        return Const(math.exp(ca))
    return Exp(a)


def ln_(a: Expr) -> Expr:
    ca = _const(a)
    if ca is not None:
        if ca <= 0:
            raise EvalDomainError(f"ln of non-positive constant {ca}")
        return Const(math.log(ca))
    return Ln(a)


def abs_(a: Expr) -> Expr:
    ca = _const(a)
    if ca is not None:
        return Const(abs(ca))
    return Abs(a)


def log_base(a: Number, u: Expr) -> Expr:
    """log_a(u), stored internally as ln(u)/ln(a)."""
    a = float(a)
    if a <= 0 or a == 1.0:
        raise ValueError("log base must be positive and != 1")
    return div(ln_(u), Const(math.log(a)))


# -- evaluation -------------------------------------------------------------

def evaluate(e: Expr, x: float) -> float:
    """Evaluate at x; raises EvalDomainError naming the offending node.

    Dispatches on type(e) with `is` tests (node classes have no subclasses),
    the kinds most frequent in derivative trees first."""
    kind = type(e)
    if kind is Const:
        return e.value
    if kind is Mul:
        return evaluate(e.a, x) * evaluate(e.b, x)
    if kind is Var:
        return float(x)
    if kind is Add:
        return evaluate(e.a, x) + evaluate(e.b, x)
    if kind is Sub:
        return evaluate(e.a, x) - evaluate(e.b, x)
    if kind is Exp:
        return math.exp(evaluate(e.a, x))
    if kind is Pow:
        base = evaluate(e.base, x)
        expo = evaluate(e.exponent, x)
        if base == 0.0 and expo < 0:
            raise EvalDomainError(f"zero base with negative exponent at x={x}")
        if base < 0.0 and expo != int(expo):
            raise EvalDomainError(
                f"negative base with fractional exponent in {to_string(e)} at x={x}"
            )
        return base ** expo
    if kind is Div:
        den = evaluate(e.b, x)
        if den == 0.0:
            raise EvalDomainError(f"division by zero in {to_string(e)} at x={x}")
        return evaluate(e.a, x) / den
    if kind is Neg:
        return -evaluate(e.a, x)
    if kind is Ln:
        arg = evaluate(e.a, x)
        if arg <= 0.0:
            raise EvalDomainError(f"ln of non-positive argument in {to_string(e)} at x={x}")
        return math.log(arg)
    if kind is Abs:
        return abs(evaluate(e.a, x))
    raise TypeError(f"unknown node {e!r}")


# -- interval enclosures ---------------------------------------------------

def _out(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] an ulp wider at each nonzero end; the whole line for a NaN bound."""
    return (-math.inf, math.inf) if lo != lo or hi != hi else (
        lo and math.nextafter(lo, -math.inf), hi and math.nextafter(hi, math.inf))


def _image(fn, a: float, b: float) -> Optional[tuple[float, float]]:
    """fn(a), fn(b) in order, rounded out, for fn > 0 monotone; None if both overflow."""
    try:
        lo, hi = fn(a), fn(b)
    except (OverflowError, ZeroDivisionError):  # at the end where fn is largest
        for t in (a, b):
            try:
                return _out(fn(t), math.inf)
            except (OverflowError, ZeroDivisionError):
                pass
        return None
    return _out(lo, hi) if lo <= hi else _out(hi, lo)


def enclose(e: Expr, lo: float, hi: float) -> Optional[tuple[float, float]]:
    """An interval (a, b) holding every value evaluate(e, x) returns for x in
    [lo, hi], or None where it raises at every such x (Moore, Kearfott & Cloud
    2009, ch. 5-6): each node's exact image where it is defined, rounded out;
    a divisor holding 0, or a NaN bound (inf - inf), gives (-inf, inf).

    Dispatches on type(e), the kinds most frequent in enclosed trees first:
    c*u with a constant c (mul keeps constants on the left), which takes two
    products, not the four of a general [a0, a1]*[b0, b1], then x, + and -,
    whose bounds are rounded out here as _out does.  Comparisons pick the
    bounds min and max would, signed zeros included."""
    kind = type(e)
    if kind is Mul and type(e.a) is Const:
        if (b := enclose(e.b, lo, hi)) is None:
            return None
        p, q = e.a.value * b[0], e.a.value * b[1]
        if p != p or q != q:
            return -math.inf, math.inf
        p, q = (q, p) if q < p else (p, q if q > p else p)  # min(p, q), max(p, q)
        return p and math.nextafter(p, -math.inf), q and math.nextafter(q, math.inf)
    if kind is Var:
        return lo, hi
    if kind is Add or kind is Sub:
        if (a := enclose(e.a, lo, hi)) is None or (b := enclose(e.b, lo, hi)) is None:
            return None
        p, q = (a[0] + b[0], a[1] + b[1]) if kind is Add else (a[0] - b[1], a[1] - b[0])
        if p != p or q != q:
            return -math.inf, math.inf
        return p and math.nextafter(p, -math.inf), q and math.nextafter(q, math.inf)
    if kind is Const:
        return e.value, e.value
    if kind is Pow:  # c.__pow__(t) is c ** t, k.__rpow__(t) is t ** k: no closures
        if type(e.exponent) is not Const:  # c ** u, for c <= 0 defined at integers only
            u, c = enclose(e.exponent, lo, hi), e.base.value
            return u and ((-math.inf, math.inf) if c <= 0.0 else _image(c.__pow__, *u))
        a, k = enclose(e.base, lo, hi), e.exponent.value  # t ** k where evaluate allows it
        if a is None or a[0] >= 0.0 or k != int(k):  # t < 0 for an integer k only
            return a and (_image(k.__rpow__, max(a[0], 0.0), a[1]) if a[1] >= 0.0 else None)
        if int(k) % 2 and a[1] > 0.0:  # odd k, a holds 0
            return (-math.inf, math.inf) if k < 0 else (
                -_image(k.__rpow__, 0.0, -a[0])[1], _image(k.__rpow__, 0.0, a[1])[1])
        m = _image(k.__rpow__, max(-a[1], 0.0), max(-a[0], a[1]))  # |t| ** k
        return m if m is None or not int(k) % 2 else (-m[1], -m[0])
    a = enclose(e.a, lo, hi)
    if a is None or kind is Neg:
        return a and (-a[1], -a[0])
    if kind is Exp:
        return _image(math.exp, *a)
    if kind is Ln:
        if not a[1] > 0.0:
            return None
        return _out(math.log(a[0]) if a[0] > 0.0 else -math.inf, math.log(a[1]))
    if kind is Abs:
        return a if a[0] >= 0.0 else (-a[1], -a[0]) if a[1] <= 0.0 else (0.0, max(-a[0], a[1]))
    if (b := enclose(e.b, lo, hi)) is None:
        return None
    if kind is Mul:
        ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    elif b[0] <= 0.0 <= b[1]:  # Div
        return -math.inf, math.inf
    else:
        ends = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    return (-math.inf, math.inf) if any(map(math.isnan, ends)) else _out(min(ends), max(ends))


# -- symbolic differentiation ----------------------------------------------

def differentiate(e: Expr) -> Expr:
    if isinstance(e, (Const,)):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Add):
        return add(differentiate(e.a), differentiate(e.b))
    if isinstance(e, Sub):
        return sub(differentiate(e.a), differentiate(e.b))
    if isinstance(e, Mul):
        return add(mul(differentiate(e.a), e.b), mul(e.a, differentiate(e.b)))
    if isinstance(e, Div):
        if _const(e.b) is not None:  # (u/c)' = u'/c; squaring c could leave the float range
            return div(differentiate(e.a), e.b)
        num = sub(mul(differentiate(e.a), e.b), mul(e.a, differentiate(e.b)))
        return div(num, pow_(e.b, Const(2.0)))
    if isinstance(e, Pow):
        ce = _const(e.exponent)
        if ce is not None:  # u^c
            return mul(
                mul(Const(ce), pow_(e.base, Const(ce - 1.0))), differentiate(e.base)
            )
        cb = _const(e.base)  # c^u
        if cb <= 0.0:  # (c^u)' = ln(c) c^u u' needs c > 0
            raise EvalDomainError(
                f"derivative of {to_string(e)} needs the ln of its non-positive base {cb}")
        return mul(mul(Const(math.log(cb)), e), differentiate(e.exponent))
    if isinstance(e, Neg):
        return neg(differentiate(e.a))
    if isinstance(e, Exp):
        return mul(e, differentiate(e.a))
    if isinstance(e, Ln):
        inner = e.a
        if isinstance(inner, Abs):  # d/dx ln|u| = u'/u
            return div(differentiate(inner.a), inner.a)
        return div(differentiate(inner), inner)
    if isinstance(e, Abs):
        return mul(div(e.a, e), differentiate(e.a))
    raise TypeError(f"unknown node {e!r}")


# -- serialization ----------------------------------------------------------

_PREC = {"add": 1, "mul": 2, "neg": 3, "pow": 4, "atom": 5}


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{_fmt_number(-e.value)}", _PREC["neg"]
        return _fmt_number(e.value), _PREC["atom"]
    if isinstance(e, Var):
        return "x", _PREC["atom"]
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        left, lp = _render(e.a)
        right, rp = _render(e.b)
        if lp < _PREC["add"]:
            left = f"({left})"
        if rp <= _PREC["add"]:
            right = f"({right})"
        return f"{left} {op} {right}", _PREC["add"]
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left, lp = _render(e.a)
        right, rp = _render(e.b)
        if lp < _PREC["mul"]:
            left = f"({left})"
        if rp <= _PREC["mul"]:
            right = f"({right})"
        return f"{left}{op}{right}", _PREC["mul"]
    if isinstance(e, Neg):
        inner, ip = _render(e.a)
        if ip < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    if isinstance(e, Pow):
        base, bp = _render(e.base)
        expo, ep = _render(e.exponent)
        if bp < _PREC["atom"]:
            base = f"({base})"
        if ep < _PREC["pow"]:
            expo = f"({expo})"
        return f"{base}^{expo}", _PREC["pow"]
    if isinstance(e, Exp):
        return f"exp({_render(e.a)[0]})", _PREC["atom"]
    if isinstance(e, Ln):
        return f"ln({_render(e.a)[0]})", _PREC["atom"]
    if isinstance(e, Abs):
        return f"abs({_render(e.a)[0]})", _PREC["atom"]
    raise TypeError(f"unknown node {e!r}")


def to_string(e: Expr) -> str:
    return _render(e)[0]


# -- recursive-descent parser ------------------------------------------------

# The deepest tree and nesting the parser accepts: the parser (six stack frames
# a level) and evaluate, differentiate, to_string and as_rational on the tree and
# its derivative then stay inside Python's default recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns (tree, depth of the tree as built)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.level = 0  # parentheses, calls, signs and exponents open here

    def error(self, message: str):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def parse(self) -> Expr:
        e, _ = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected trailing input {self.text[self.pos:]!r}")
        return e

    def deeper(self, depth: int) -> int:
        """depth + 1, or an ExprSyntaxError here if that passes MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            self.error(f"expression nested more than {MAX_DEPTH} levels deep")
        return depth + 1

    def build(self, at: int, constructor, *args) -> Expr:
        """constructor(*args), refused at position `at` (the operator's) when
        folding constants there leaves the float range."""
        try:
            return constructor(*args)
        except OverflowError:
            self.pos = at
            self.error("constant outside the float range")

    def nested(self, rule):
        """rule() one level further in, refused past MAX_DEPTH levels."""
        self.level = self.deeper(self.level)
        out = rule()
        self.level -= 1
        return out

    def expr(self):
        e, d = self.term()
        while (ch := self.peek()) in ("+", "-"):
            at = self.pos
            self.pos += 1
            b, db = self.term()
            e, d = self.build(at, add if ch == "+" else sub, e, b), self.deeper(max(d, db))
        return e, d

    def term(self):
        e, d = self.unary()
        while (ch := self.peek()) in ("*", "/"):
            at = self.pos
            self.pos += 1
            b, db = self.unary()
            e, d = self.build(at, mul if ch == "*" else div, e, b), self.deeper(max(d, db))
        return e, d

    def unary(self):
        if self.take("-"):
            e, d = self.nested(self.unary)
            return neg(e), self.deeper(d)
        return self.power()

    def power(self):
        base, d = self.atom()
        if self.take("^"):
            at, start = self.pos - 1, self.pos
            exponent, de = self.nested(self.unary)  # right-associative, allows -2 in x^-2
            if not isinstance(exponent, Const) and not isinstance(base, Const):
                self.pos = start
                self.error("power needs a constant base or exponent")
            return self.build(at, pow_, base, exponent), self.deeper(max(d, de))
        return base, d

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            out = self.nested(self.expr)
            self.expect(")")
            return out
        if ch.isdigit() or ch == ".":
            return Const(self.number()), 1
        if ch.isalpha():
            at = self.pos
            name = self.identifier()
            if name == "x":
                return X, 1
            if name in ("exp", "ln", "abs"):
                self.expect("(")
                arg, d = self.nested(self.expr)
                self.expect(")")
                build = {"exp": exp_, "ln": ln_, "abs": abs_}[name]
                return self.build(at, build, arg), self.deeper(d)
            if name == "log":
                self.expect("(")
                base_pos = self.pos
                base, _ = self.nested(self.expr)
                if not isinstance(base, Const):
                    self.pos = base_pos
                    self.error("log base must be a number")
                self.expect(";")
                arg, d = self.nested(self.expr)
                self.expect(")")
                depth = self.deeper(d + 1)  # ln(u)/ln(a)
                try:
                    return log_base(base.value, arg), depth
                except ValueError as exc:
                    self.pos = base_pos
                    self.error(str(exc))
            self.pos -= len(name)
            self.error(f"unknown identifier {name!r}")
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in ".eE"
            or (self.text[self.pos] in "+-" and self.text[self.pos - 1] in "eE")
        ):
            self.pos += 1
        literal = self.text[start : self.pos]
        try:
            v = float(literal)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):  # malformed, or past the float range
            self.pos = start
            self.error(f"number literal {literal!r} is not a finite number")
        return v

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos]


def parse(text: str) -> Expr:
    """Parse an expression string into a (constant-folded) tree."""
    return _Parser(text).parse()
