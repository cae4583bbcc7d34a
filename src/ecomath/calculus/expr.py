"""Expression trees over one real variable: parsing, evaluation, symbolic
differentiation, and a structural antiderivative table.

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
    each with a plain __init__) and compare structurally.

    ``==`` and ``hash`` walk the tree with an explicit stack, not one Python
    frame per level, so they work on any tree that evaluate handles; a
    subtree shared within a tree is visited once.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return to_string(self)

    def __eq__(self, other):
        if not isinstance(other, Expr):
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
                if isinstance(u, Expr):
                    stack.append((u, v))
                elif u != v:
                    return False
        return True

    def __hash__(self):
        hashes: dict[int, int] = {}  # id(node) -> hash, for the nodes done
        stack = [self]
        while stack:
            e = stack[-1]
            kids = e._values()
            todo = [c for c in kids if isinstance(c, Expr) and id(c) not in hashes]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            fields = (hashes[id(c)] if isinstance(c, Expr) else c for c in kids)
            hashes[id(e)] = hash((e.__class__, *fields))
        return hashes[id(self)]


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))


class Var(Expr):
    __slots__ = ()


class _Unary(Expr):
    __slots__ = ("a",)

    def __init__(self, a: Expr):
        object.__setattr__(self, "a", a)


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


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
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class Neg(_Unary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


class Ln(_Unary):
    __slots__ = ()


class Abs(_Unary):
    __slots__ = ()


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
    """Evaluate at x; raises EvalDomainError naming the offending node."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x)
    if isinstance(e, Add):
        return evaluate(e.a, x) + evaluate(e.b, x)
    if isinstance(e, Sub):
        return evaluate(e.a, x) - evaluate(e.b, x)
    if isinstance(e, Mul):
        return evaluate(e.a, x) * evaluate(e.b, x)
    if isinstance(e, Div):
        den = evaluate(e.b, x)
        if den == 0.0:
            raise EvalDomainError(f"division by zero in {to_string(e)} at x={x}")
        return evaluate(e.a, x) / den
    if isinstance(e, Pow):
        base = evaluate(e.base, x)
        expo = evaluate(e.exponent, x)
        if base == 0.0 and expo < 0:
            raise EvalDomainError(f"zero base with negative exponent at x={x}")
        if base < 0.0 and expo != int(expo):
            raise EvalDomainError(
                f"negative base with fractional exponent in {to_string(e)} at x={x}"
            )
        return base ** expo
    if isinstance(e, Neg):
        return -evaluate(e.a, x)
    if isinstance(e, Exp):
        return math.exp(evaluate(e.a, x))
    if isinstance(e, Ln):
        arg = evaluate(e.a, x)
        if arg <= 0.0:
            raise EvalDomainError(f"ln of non-positive argument in {to_string(e)} at x={x}")
        return math.log(arg)
    if isinstance(e, Abs):
        return abs(evaluate(e.a, x))
    raise TypeError(f"unknown node {e!r}")


def evaluate_many(e: Expr, xs):
    """evaluate(e, x) at every point of the 1-D float array xs, in one walk of
    the tree.

    Returns (values, undefined): undefined is a boolean mask of the points
    where evaluate raises EvalDomainError or OverflowError, and values is NaN
    there.  Every other value is bit-identical to evaluate's: + - * /,
    negation and abs are correctly rounded in NumPy as in Python, and exp, ln
    and ^ call math.exp, math.log and Python's ** point by point (NumPy's own
    exp and power can differ in the last bit).  Nodes are visited in
    evaluate's order, so any other exception evaluate raises at a point (a
    ValueError for a NaN exponent of a negative base) is raised here too.
    """
    import numpy as np  # here, so that parsing and differentiating load no NumPy

    xs = np.asarray(xs, dtype=float)
    undefined = np.zeros(xs.shape, dtype=bool)  # evaluate has raised there by now

    def pointwise(fn, *args):
        # fn point by point on Python floats (1.0 where undefined); a point
        # where fn overflows becomes undefined
        cols = [np.where(undefined, 1.0, a).tolist() for a in args]
        try:
            return np.array(list(map(fn, *cols)), dtype=float)
        except OverflowError:
            pass
        out = []
        for i, point in enumerate(zip(*cols)):
            try:
                out.append(fn(*point))
            except OverflowError:
                undefined[i] = True
                out.append(math.nan)
        return np.array(out, dtype=float)

    def walk(e: Expr):
        if isinstance(e, Const):
            return np.full(xs.shape, e.value)
        if isinstance(e, Var):
            return xs
        if isinstance(e, Add):
            return walk(e.a) + walk(e.b)
        if isinstance(e, Sub):
            return walk(e.a) - walk(e.b)
        if isinstance(e, Mul):
            return walk(e.a) * walk(e.b)
        if isinstance(e, Div):
            den = walk(e.b)
            undefined[den == 0.0] = True
            return walk(e.a) / den
        if isinstance(e, Pow):
            base, expo = walk(e.base), walk(e.exponent)
            negative = ~undefined & (base < 0.0)
            if np.isnan(expo[negative]).any():
                raise ValueError("cannot convert float NaN to integer")  # evaluate's int(expo)
            undefined[(base == 0.0) & (expo < 0.0)] = True
            # a fractional exponent, or an infinite one (int(expo) overflows)
            undefined[negative & ~(np.isfinite(expo) & (expo == np.trunc(expo)))] = True
            return pointwise(pow, base, expo)
        if isinstance(e, Neg):
            return -walk(e.a)
        if isinstance(e, Exp):
            return pointwise(math.exp, walk(e.a))
        if isinstance(e, Ln):
            arg = walk(e.a)
            undefined[arg <= 0.0] = True
            return pointwise(math.log, arg)
        if isinstance(e, Abs):
            return np.abs(walk(e.a))
        raise TypeError(f"unknown node {e!r}")

    with np.errstate(all="ignore"):
        values = walk(e)
    return np.where(undefined, np.nan, values), undefined


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
