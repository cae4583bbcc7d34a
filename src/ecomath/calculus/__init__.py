"""Symbolic-lite calculus: expression trees, differentiation, root finding,
curve sketching and definite integration.

The names from ``expr`` (trees, parser, evaluation, enclosures, differentiation;
standard library only) load with the package; those from ``analysis`` on first
attribute access (PEP 562).  Neither imports NumPy: polynomials are lists of
floats, lowest degree first.
"""

import importlib

from .expr import (
    Abs,
    Add,
    Const,
    Div,
    EvalDomainError,
    Exp,
    Expr,
    ExprSyntaxError,
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
    enclose,
    evaluate,
    exp_,
    ln_,
    log_base,
    mul,
    neg,
    parse,
    pow_,
    sub,
    to_string,
)

# defined in .analysis, which binds them here when it loads
_LAZY = (
    "CurveReport", "DivergenceError", "PoleError", "UndecidedError",
    "UnsupportedExpressionError", "antiderivative", "as_rational", "curve_report",
    "elasticity", "elasticity_expr", "elasticity_label", "expr_from_poly", "integrate",
    "poly_coeffs", "poly_divide", "poly_real_roots", "roots", "second_elasticity",
    "tangent_line",
)

__all__ = [
    "Abs", "Add", "Const", "Div", "EvalDomainError", "Exp", "Expr",
    "ExprSyntaxError", "Ln", "Mul", "Neg", "Pow", "Sub", "Var", "X",
    "abs_", "add", "const", "differentiate", "div", "enclose", "evaluate",
    "exp_", "ln_", "log_base", "mul", "neg", "parse", "pow_", "sub", "to_string",
    *_LAZY,
]


def __getattr__(name):
    if name in _LAZY:
        importlib.import_module(".analysis", __name__)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
