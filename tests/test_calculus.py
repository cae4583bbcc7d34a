"""Expression trees: parsing, evaluation, differentiation, elasticities,
roots, curve reports, antiderivatives and definite integration."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from ecomath import calculus as ca
from ecomath.calculus import (
    Abs,
    Add,
    Const,
    Div,
    DivergenceError,
    EvalDomainError,
    Exp,
    ExprSyntaxError,
    Ln,
    Mul,
    Neg,
    PoleError,
    Pow,
    Sub,
    UnsupportedExpressionError,
    Var,
    X,
)
from ecomath.calculus import expr as expr_module
from ecomath.calculus.expr import MAX_DEPTH
from ecomath.numeric import NumericalError

rng = np.random.default_rng(5150)


# ---------------------------------------------------------------------------
# random expression trees, kept domain-safe on (0.1, 4)
# ---------------------------------------------------------------------------

def random_expr(depth=3):
    roll = rng.integers(0, 10 if depth > 0 else 2)
    if roll == 0:
        return ca.const(float(rng.uniform(-3, 3)))
    if roll == 1:
        return X
    if roll == 2:
        return ca.add(random_expr(depth - 1), random_expr(depth - 1))
    if roll == 3:
        return ca.sub(random_expr(depth - 1), random_expr(depth - 1))
    if roll == 4:
        return ca.mul(random_expr(depth - 1), random_expr(depth - 1))
    if roll == 5:
        return ca.div(random_expr(depth - 1), random_expr(depth - 1))
    if roll == 6:
        return ca.pow_(X, ca.const(float(rng.integers(1, 4))))
    if roll == 7:
        return ca.exp_(ca.mul(ca.const(float(rng.uniform(-1, 1))), X))
    if roll == 8:
        return ca.ln_(ca.add(ca.const(2.0), ca.pow_(X, ca.const(2.0))))
    return ca.pow_(ca.const(float(rng.uniform(1.2, 3.0))), X)


def sample_points(e, count=20, lo=0.2, hi=3.5):
    """Points where e and its derivative evaluate cleanly."""
    d = ca.differentiate(e)
    pts = []
    for x in np.linspace(lo, hi, 200):
        try:
            fx, dx = ca.evaluate(e, float(x)), ca.evaluate(d, float(x))
        except EvalDomainError:
            continue
        if abs(fx) < 1e8 and abs(dx) < 1e8:
            pts.append(float(x))
    return pts[:: max(1, len(pts) // count)]


def assert_encloses(e, lo, hi, xs):
    """enclose(e, lo, hi) holds every value evaluate returns at the points xs
    of [lo, hi] (a NaN only in the whole line); points where evaluate raises
    are skipped.  Returns the enclosure and the number of values checked."""
    box, checked = ca.enclose(e, lo, hi), 0
    for x in map(float, xs):
        assert lo <= x <= hi
        try:
            v = ca.evaluate(e, x)
        except (EvalDomainError, OverflowError, ValueError):
            continue
        checked += 1
        assert box is not None, (ca.to_string(e), lo, hi, x, v)
        if math.isnan(v):
            assert box == (-math.inf, math.inf), (ca.to_string(e), lo, hi, x)
        else:
            assert box[0] <= v <= box[1], (ca.to_string(e), lo, hi, x, v, box)
    return box, checked


class TestParse:
    def test_power_plus_constant_structure(self):
        e = ca.parse("x^2+1")
        assert isinstance(e, Add)
        assert isinstance(e.a, Pow) or isinstance(e.b, Pow)

    def test_degree3_polynomial(self):
        e = ca.parse("2*x^3 - 6*x^2 + 15*x + 40")
        coeffs = ca.poly_coeffs(e)
        assert coeffs == pytest.approx([40, 15, -6, 2])

    def test_unbalanced_paren_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            ca.parse("ln(x")
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError):
            ca.parse("foo(x)")

    def test_power_right_associative(self):
        # x^2^3 = x^(2^3); both exponents constant so the tree stays legal
        assert ca.evaluate(ca.parse("x^2^3"), 2.0) == 256.0

    def test_precedence(self):
        assert ca.evaluate(ca.parse("2+3*4^2"), 0.0) == 50.0

    def test_unary_minus(self):
        assert ca.evaluate(ca.parse("-x^2"), 3.0) == -9.0

    def test_log_base(self):
        assert ca.evaluate(ca.parse("log(10; x)"), 100.0) == pytest.approx(2.0)

    def test_folding_past_the_float_range(self):
        with pytest.raises(OverflowError):
            ca.mul(ca.const(1e300), ca.const(1e300))
        with pytest.raises(ExprSyntaxError, match="float range at position 5"):
            ca.parse("1e300*1e300*x")

    def test_round_trip_structural(self):
        for _ in range(50):
            e = random_expr()
            assert ca.parse(ca.to_string(e)) == e


class TestDepthLimit:
    M = MAX_DEPTH

    @pytest.mark.parametrize("make", [
        lambda m: "+".join(["x"] * m),
        lambda m: "/".join(["x"] * m),
        lambda m: "(" * m + "x" + ")" * m,
        lambda m: "-" * (m - 1) + "x",
        lambda m: "exp(" * (m - 1) + "x" + ")" * (m - 1),
        lambda m: "2^" * (m - 1) + "x",
    ], ids=["sum", "quotient", "parentheses", "signs", "exp", "powers"])
    def test_limit_holds_and_is_enforced(self, make):
        e = ca.parse(make(self.M))
        d = ca.differentiate(e)
        for t in (e, d):
            ca.to_string(t)
            if t is d and make(2) == "x/x":  # the quotient's derivative has degree 5049
                with pytest.raises(NumericalError, match="exceeds MAX_DEGREE"):
                    ca.as_rational(t)
            else:
                ca.as_rational(t)
            try:
                ca.evaluate(t, 0.5)
            except (ArithmeticError, ValueError):
                pass
            assert_encloses(t, -1.5, 2.0, [-1.5, 0.0, 0.5, 2.0])
        # == and hash walk the tree without recursion, so the second derivative
        # (593 levels deep for the quotient) compares and hashes
        d2, again = ca.differentiate(d), ca.differentiate(ca.differentiate(e))
        assert d2 is not again
        assert d2 == again and hash(d2) == hash(again)
        assert d2 != ca.differentiate(e)
        with pytest.raises(ExprSyntaxError, match="levels deep"):
            ca.parse(make(self.M + 1))


class TestStructuralEquality:
    def test_equal_trees_compare_and_hash_alike(self):
        a, b = ca.parse("x^2 + exp(3*x)/x"), ca.parse("x^2 + exp(3*x)/x")
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, ca.parse("x^2")}) == 2
        assert ca.const(0.0) == ca.const(-0.0) and hash(ca.const(0.0)) == hash(ca.const(-0.0))

    def test_node_type_and_constants_count(self):
        assert ca.parse("x+2") != ca.parse("x-2")
        assert ca.parse("2*x") != ca.parse("3*x")
        assert ca.Add(X, X) != ca.Mul(X, X)
        assert X == ca.Var() and ca.parse("x") != 1.0


class TestEvaluate:
    def test_square(self):
        assert ca.evaluate(ca.parse("x^2"), 3.0) == 9.0

    def test_ln_at_one(self):
        assert ca.evaluate(ca.parse("ln(x)"), 1.0) == 0.0

    def test_pole_reports_node(self):
        with pytest.raises(EvalDomainError):
            ca.evaluate(ca.parse("1/x"), 0.0)

    def test_ln_domain(self):
        with pytest.raises(EvalDomainError):
            ca.evaluate(ca.parse("ln(x)"), -1.0)


class TestDifferentiate:
    def test_power_rule(self):
        d = ca.differentiate(ca.parse("x^2"))
        assert ca.evaluate(d, 5.0) == 10.0

    def test_exponential_chain(self):
        d = ca.differentiate(ca.parse("exp(3*x)"))
        for x in (0.0, 0.7, -1.2):
            assert ca.evaluate(d, x) == pytest.approx(3 * math.exp(3 * x))

    def test_product_rule(self):
        d = ca.differentiate(ca.parse("x*ln(x)"))
        for x in (0.5, 1.0, 4.0):
            assert ca.evaluate(d, x) == pytest.approx(math.log(x) + 1)

    def test_quotient_rule(self):
        d = ca.differentiate(ca.parse("x/(x+1)"))
        for x in (0.0, 2.0):
            assert ca.evaluate(d, x) == pytest.approx(1 / (x + 1) ** 2)

    def test_log_base_derivative(self):
        d = ca.differentiate(ca.parse("log(10; x)"))
        assert ca.evaluate(d, 5.0) == pytest.approx(1 / (5 * math.log(10)))

    def test_const_to_x_derivative(self):
        d = ca.differentiate(ca.parse("2^x"))
        assert ca.evaluate(d, 3.0) == pytest.approx(8 * math.log(2))

    @pytest.mark.parametrize("text", ["(-2)^x", "0^x"])
    def test_const_to_x_with_a_base_at_most_zero_refused(self, text):
        # (c^u)' = ln(c) c^u u': math.log(c) raised a bare "math domain error"
        with pytest.raises(EvalDomainError, match=re.escape(f"derivative of {text} needs")):
            ca.differentiate(ca.parse(text))

    def test_quotient_by_a_constant(self):
        # (u/c)' = u'/c: c is not squared (the CLI tests take c to the float range's ends)
        assert ca.to_string(ca.differentiate(ca.parse("x^2/3"))) == "2*x/3"

    def test_finite_differences_on_random_trees(self):
        h = 1e-6
        checked = 0
        while checked < 50:
            e = random_expr()
            d = ca.differentiate(e)
            pts = sample_points(e)
            if len(pts) < 5:
                continue
            for x in pts:
                try:
                    sym = ca.evaluate(d, x)
                    fd = (ca.evaluate(e, x + h) - ca.evaluate(e, x - h)) / (2 * h)
                except EvalDomainError:
                    continue
                assert abs(sym - fd) <= 1e-5 * (1 + abs(sym)), ca.to_string(e)
            checked += 1


class TestTangentLine:
    def test_square(self):
        assert ca.tangent_line(ca.parse("x^2"), 1.0) == pytest.approx((2.0, -1.0))

    def test_constant(self):
        assert ca.tangent_line(ca.const(5.0), 3.7) == pytest.approx((0.0, 5.0))

    def test_ln(self):
        assert ca.tangent_line(ca.parse("ln(x)"), 1.0) == pytest.approx((1.0, -1.0))


class TestElasticity:
    def test_power_law(self):
        for x in (0.3, 1.0, 7.5):
            assert ca.elasticity(ca.parse("x^3"), x) == pytest.approx(3.0)

    def test_exponential(self):
        assert ca.elasticity(ca.parse("exp(2*x)"), 1.5) == pytest.approx(3.0)

    def test_a_to_x(self):
        # a^x has elasticity x ln a
        assert ca.elasticity(ca.parse("2^x"), 1.7) == pytest.approx(1.7 * math.log(2))

    def test_ln(self):
        assert ca.elasticity(ca.parse("ln(x)"), math.e) == pytest.approx(1.0)

    def test_log_base(self):
        # log_a(x) shares ln's elasticity 1/ln(x)
        assert ca.elasticity(ca.parse("log(10; x)"), math.e ** 2) == pytest.approx(0.5)

    def test_domain_restrictions(self):
        with pytest.raises(EvalDomainError):
            ca.elasticity(ca.parse("x^2"), -1.0)
        with pytest.raises(EvalDomainError):
            ca.elasticity(ca.parse("x-10"), 1.0)  # f(1) < 0

    def test_labels(self):
        assert ca.elasticity_label(0.3) == "inelastic"
        assert ca.elasticity_label(1.0) == "unit elastic"
        assert ca.elasticity_label(-2.4) == "elastic"

    def test_product_and_quotient_rules(self):
        f = ca.parse("x^2")
        g = ca.parse("exp(0.5*x)")
        for x in (0.4, 1.1, 2.7):
            ef, eg = ca.elasticity(f, x), ca.elasticity(g, x)
            assert ca.elasticity(ca.mul(f, g), x) == pytest.approx(ef + eg, abs=1e-7)
            assert ca.elasticity(ca.div(f, g), x) == pytest.approx(ef - eg, abs=1e-7)

    def test_concatenation_rule(self):
        # f(g(x)) with f = u^3 and g = 2x^2: eps = eps_f(g(x)) * eps_g(x)
        g = ca.parse("2*x^2")
        fg = ca.parse("(2*x^2)^3")
        for x in (0.5, 1.5):
            assert ca.elasticity(fg, x) == pytest.approx(
                3.0 * ca.elasticity(g, x), abs=1e-7
            )

    def test_inverse_rule(self):
        # f = x^4, f^-1 = x^(1/4): eps_{f^-1}(x) = 1 / eps_f(f^-1(x))
        finv = ca.parse("x^0.25")
        for x in (0.7, 2.0, 9.0):
            assert ca.elasticity(finv, x) == pytest.approx(1.0 / 4.0, abs=1e-7)

    def test_linear_approximation_error_shrinks(self):
        f = ca.parse("x^2*exp(0.3*x)")
        x0 = 1.4
        eps = ca.elasticity(f, x0)
        f0 = ca.evaluate(f, x0)

        def approx_error(rel_dx):
            dx = rel_dx * x0
            true_rel = (ca.evaluate(f, x0 + dx) - f0) / f0
            return abs(true_rel - eps * rel_dx)

        e1, e2 = approx_error(0.05), approx_error(0.025)
        assert e1 / e2 >= 3.5  # second-order error: halving dx quarters it

    def test_second_elasticity_power_law(self):
        assert ca.second_elasticity(ca.parse("x^5"), 2.3) == pytest.approx(0.0, abs=1e-12)

    def test_second_elasticity_exponential(self):
        assert ca.second_elasticity(ca.parse("exp(2*x)"), 1.1) == pytest.approx(2.2)

    def test_second_elasticity_ln(self):
        assert ca.second_elasticity(ca.parse("ln(x)"), math.e) == pytest.approx(-1.0)


class TestRoots:
    def test_quadratic_closed_form(self):
        assert ca.roots(ca.parse("x^2-1"), -2, 2) == pytest.approx([-1.0, 1.0])

    def test_cubic_by_bisection(self):
        out = ca.roots(ca.parse("x^3-3*x^2-20"), 0, 10)
        assert len(out) == 1
        assert out[0] == pytest.approx(4.15723, abs=1e-4)

    def test_no_roots(self):
        assert ca.roots(ca.parse("exp(x)"), -5, 5) == []

    def test_residual_bound(self):
        e = ca.parse("x^3 - 2*x^2 - 5*x + 6")  # roots -2, 1, 3
        found = ca.roots(e, -5, 5)
        assert found == pytest.approx([-2.0, 1.0, 3.0], abs=1e-8)
        fmax = max(abs(ca.evaluate(e, x)) for x in np.linspace(-5, 5, 100))
        for r in found:
            assert abs(ca.evaluate(e, r)) <= 1e-8 * (1 + fmax)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            ca.roots(X, 2, 1)

    def test_overflow_in_scan_skips_the_cell(self):
        # exp(x) overflows beyond x ~ 709.8; those scan cells are skipped
        assert ca.roots(ca.parse("exp(x)-5"), 0, 1000) == pytest.approx([math.log(5.0)], abs=1e-10)

    def test_double_root_of_a_cubic(self):
        assert ca.roots(ca.parse("x^3-4*x^2+5*x-2"), 0, 3) == pytest.approx([1.0, 2.0])

    @pytest.mark.parametrize("hi", [4.0, 3.0])  # 1 is a scan grid point on [0, 4], not on [0, 3]
    def test_quadruple_root(self, hi):
        assert ca.roots(ca.parse("(x-1)^4"), 0, hi) == pytest.approx([1.0])

    def test_near_double_roots(self):
        assert ca.roots(ca.parse("x^2+1e-10"), -1, 1) == []
        assert ca.roots(ca.parse("x^2-1e-10"), -1, 1) == pytest.approx([-1e-5, 1e-5], rel=1e-12)
        # no scan grid point of [-0.5, 3] lies between the pair: no sign change to see
        found = ca.roots(ca.parse("(x^2-1e-10)*(x-2)"), -0.5, 3)
        assert found == pytest.approx([-1e-5, 1e-5, 2.0], rel=1e-12)

    def test_small_root_without_cancellation(self):
        small = ca.roots(ca.parse("x^2-100000000*x+1"), 0, 1)
        assert small == pytest.approx([1e-8], rel=1e-12)

    def test_rational_pole_is_no_root(self):
        assert ca.roots(ca.parse("1/(x-0.3001)"), -1, 1) == []
        assert ca.roots(ca.parse("(x^2-1)/(x-1)"), -2, 2) == [-1.0]  # x = 1 is a hole

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_a_root_beside_a_pole_is_kept_at_any_scale(self, k):
        # the exclusion around a pole is relative to the root: 1e-12 beside
        # -1e-12 is as far from it as 1 beside -1
        s = 2.0 ** k
        f = ca.parse(f"(x-{1e-12 * s!r})/(x+{1e-12 * s!r})")
        assert ca.roots(f, -s, s) == [1e-12 * s]
        f = ca.parse(f"(x^2-{1e-24 * s * s!r})/(x+{1e-11 * s!r})")
        assert ca.roots(f, -s, s) == [-1e-12 * s, 1e-12 * s]
        assert ca.curve_report(f, -s, s).roots == (-1e-12 * s, 1e-12 * s)

    def test_a_root_on_a_pole_is_a_hole(self):
        for text, lo, hi in (("x/x", -1, 1), ("(x-1)/(x-1)", 0, 2), ("x^2/x", -1, 1)):
            assert ca.roots(ca.parse(text), lo, hi) == []

    def test_pole_of_a_transcendental_function_is_no_root(self):
        assert ca.roots(ca.parse("exp(x)/(x-0.3001)"), -1, 1) == []
        assert ca.roots(ca.parse("(exp(x)-2)/(x-0.3001)"), -1, 1) == pytest.approx([math.log(2.0)])

    @pytest.mark.parametrize("text, lo, hi, expected", [
        ("(x-1)^16", 0, 3, [1.0]),
        ("(x-1)^20", 0, 3, [1.0]),
        ("(x^2-2)^12/(x^3-1)", -3, 3, [-math.sqrt(2.0), math.sqrt(2.0)]),
        ("(x+1)^200", -3, 1, [-1.0]),  # p overflows at the Cauchy bound, about 9e58
    ])
    def test_rational_functions_of_any_degree(self, text, lo, hi, expected):
        # even multiplicities the scan cannot see, and a pole it took for a root
        assert ca.roots(ca.parse(text), lo, hi) == pytest.approx(expected, rel=1e-12)

    def test_scan_evaluates_the_grid_in_one_pass(self, monkeypatch):
        from ecomath.calculus import analysis

        calls = []
        monkeypatch.setattr(analysis, "evaluate", lambda e, x: calls.append(x) or ca.evaluate(e, x))
        e = ca.parse("exp(x)-2*x-1.5")
        found = ca.roots(e, -3, 3)
        assert len(found) == 2 and all(abs(ca.evaluate(e, r)) < 1e-12 for r in found)
        calls.clear()
        ca.roots(e, -3, 3)
        assert len(calls) < 100  # Brent and Newton only; the GRID_CELLS + 1 points are one pass

    def test_scan_returns_python_floats(self):
        found = ca.roots(ca.parse("exp(x)-5"), 0, 1000)
        assert found == pytest.approx([math.log(5.0)])
        assert all(type(r) is float for r in found)


def counting(monkeypatch):
    """Count the evaluate and enclose calls that analysis makes."""
    from ecomath.calculus import analysis

    calls = []
    for name in ("evaluate", "enclose"):
        fn = getattr(analysis, name)
        monkeypatch.setattr(analysis, name,
                            (lambda fn: lambda *a: calls.append(a) or fn(*a))(fn))
    return calls


class TestTreeRoots:
    """roots of a non-rational function: bisection on interval enclosures."""

    @pytest.mark.parametrize("text, lo, hi, expected", [
        ("(exp(x)-2)^2", -3, 3, [math.log(2.0)]),  # a double root: no sign change
        ("(exp(x)-1)*(exp(x)-1.0000000001)", -3, 3, [0.0, 1e-10]),
        ("abs(exp(x)-2)", 0, 1.3, [math.log(2.0)]),  # f' is undefined at the root
        ("(exp(x)-1)^3", -2, 2, [0.0]),  # 0 is a cell end, where f is exactly 0
        ("(exp(x)-1)^3", -2, 2.5, [0.0]),  # 0 is inside a floor cell with a sign change
        ("1/(exp(x)-2)", 0, 1.3, []),  # a pole is no root
        # exact zeros at -1 and 1, and the point enclosure at the pole 0 between
        # them is the whole line: no merge
        ("abs(x)-1/abs(x)", -2, 2, [-1.0, 1.0]),
        ("ln(1-x^2)+0.1", -2, 2, [-0.30848433017584, 0.30848433017584]),
        ("2^(x^2)-3", -2000, 2000, [-1.2589529382471596, 1.2589529382471596]),
        # a double root in a band of rounding noise ~3e-8 wide: one root, not a cluster
        ("ln(x)-x+1", 0.5, 1.6, [1.0]),
        ("ln(x)-x^2002/2002+1/2002", 0.5, 1.6, [1.0]),  # f' rational-shaped past MAX_DEGREE
    ])
    def test_roots(self, text, lo, hi, expected):
        found = ca.roots(ca.parse(text), lo, hi)
        assert found == pytest.approx(expected, rel=1e-5, abs=1e-15)

    def test_a_double_root_to_full_precision(self):
        assert ca.roots(ca.parse("(exp(x)-2)^2"), -3, 3) == [0.6931471805599453]

    def test_a_near_double_root_is_no_root(self):
        # f' changes sign at ln 2 in a floor cell, but f > 0 within 4 ulps of it
        assert ca.roots(ca.parse("(exp(x)-2)^2+1e-20"), -3, 3) == []

    def test_a_cell_past_the_overflow_drops_out(self, monkeypatch):
        # exp(x) overflows past x ~ 709.78: those cells are defined nowhere
        calls = counting(monkeypatch)
        assert ca.roots(ca.parse("x*exp(x)-exp(x)"), 0, 1000) == [1.0]
        assert len(calls) < 1000

    def test_few_evaluations_for_simple_roots(self, monkeypatch):
        calls = counting(monkeypatch)
        e = ca.parse("exp(x)-2*x-1.5")
        found = ca.roots(e, -3, 3)
        assert len(found) == 2 and all(abs(ca.evaluate(e, r)) < 1e-15 for r in found)
        assert len(calls) <= 150  # points and enclosures of f and f' together

    def test_an_undecided_window_names_its_span(self):
        # exp(x) - exp(x) is 0 everywhere, and its enclosures never show it
        with pytest.raises(ca.UndecidedError, match=r"roots undecided on \[-?[0-9.e-]+, 1\] "
                                                 r"after MAX_CELLS = 16384 cells"):
            ca.roots(ca.parse("exp(x)-exp(x)"), -1, 1)

    @pytest.mark.parametrize("lo, hi", [
        (-math.inf, math.inf), (0, math.inf), (-math.inf, 0), (math.nan, 1), (0, math.nan),
    ])
    def test_window_not_finite_refused(self, lo, hi):
        # exp(x) - 2 on (-inf, inf) gave [] with RuntimeWarnings
        for text in ("exp(x)-2", "x-2"):
            with pytest.raises(ValueError, match="need finite lo < hi"):
                ca.roots(ca.parse(text), lo, hi)

    @given(st.lists(st.tuples(st.floats(0.25, 1.0), st.booleans()), min_size=1, max_size=4),
           st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_products_of_shifted_exp_and_ln_factors(self, steps, doubled):
        # roots r at least 0.25 apart in [0.5, 4.5]: a factor exp(x) - e^r or
        # ln(x) - ln(r) for each, one of them squared (a double root)
        rs, factors = [], []
        for i, (step, use_exp) in enumerate(steps):
            rs.append((rs[-1] if rs else 0.25) + step)
            c = math.exp(rs[-1]) if use_exp else math.log(rs[-1])
            factor = f"({'exp' if use_exp else 'ln'}(x)-{c!r})"
            factors.append(f"{factor}^2" if i == doubled % len(steps) else factor)
        found = ca.roots(ca.parse("*".join(factors)), 0.1, 5.0)
        assert found == pytest.approx(rs, rel=1e-9)


def separated_roots():
    """1-6 roots from [-5, 6.5] at least 0.25 apart (closer ones make the
    coefficients ill-conditioned), the index of one to double, and a scale."""
    return st.tuples(
        st.floats(-5.0, -1.0),
        st.lists(st.floats(0.25, 1.5), min_size=0, max_size=5),
        st.integers(0, 5),
        st.floats(0.25, 4.0),
        st.sampled_from([-1.0, 1.0]),
    )


class TestPolyRealRoots:
    @given(separated_roots())
    @settings(max_examples=300, deadline=None)
    def test_polyfromroots_with_one_double_root(self, case):
        start, gaps, j, scale, sign = case
        rs = list(np.cumsum([start, *gaps]))
        double = rs[j % len(rs)]
        coeffs = npoly.polyfromroots([*rs, double]) * scale * sign
        found = ca.poly_real_roots(coeffs)
        assert len(found) == len(rs)
        assert found == pytest.approx(rs, rel=1e-6, abs=1e-6)

    def test_constants_have_no_roots(self):
        assert ca.poly_real_roots([3.0]) == []
        assert ca.poly_real_roots([0.0, 0.0]) == []

    def test_multiple_roots_at_zero(self):
        assert ca.poly_real_roots([0, 0, 0, 0, 0, 1]) == [0.0]

    @pytest.mark.parametrize("n", [400, 1100])
    def test_high_degree(self, n):
        # at degree 400 the unscaled derivatives' factorial-sized coefficients
        # overflow; 1100 derivatives are more than Python's default recursion depth
        assert ca.poly_real_roots([-1.0, *[0.0] * (n - 1), 1.0]) == pytest.approx([-1.0, 1.0])

    def test_coefficients_outside_the_float_range(self):
        with pytest.raises(NumericalError, match="float range"):
            ca.poly_real_roots([1.0, math.inf])

    def test_degree_past_max_degree_is_refused(self):
        from ecomath.calculus.analysis import MAX_DEGREE

        with pytest.raises(NumericalError, match=f"degree {MAX_DEGREE + 1} exceeds"):
            ca.poly_real_roots([-1.0, *[0.0] * MAX_DEGREE, 1.0])
        # trailing zeros do not count towards the degree
        assert ca.poly_real_roots([-1.0, 1.0, *[0.0] * MAX_DEGREE]) == [1.0]


class TestAsRational:
    def test_stops_at_the_first_operand_that_is_not_rational(self, monkeypatch):
        from ecomath.calculus import analysis

        calls = []
        trim = analysis._trim
        monkeypatch.setattr(analysis, "_trim", lambda c: calls.append(c) or trim(c))
        assert ca.as_rational(ca.parse("exp(x) + x^3 - 2*x^2 + 1")) is None
        assert calls == []  # the cubic after exp(x) is never converted
        num, den = ca.as_rational(ca.parse("x^3 - 2*x^2 + 1"))
        assert num == [1.0, 0.0, -2.0, 1.0] and den == [1.0]
        assert calls

    def test_refuses_a_power_past_max_degree_before_expanding_it(self, monkeypatch):
        from ecomath.calculus import analysis

        calls = []
        product = analysis._mul
        monkeypatch.setattr(analysis, "_mul", lambda *a: calls.append(a) or product(*a))
        with pytest.raises(NumericalError, match="degree 20000 exceeds MAX_DEGREE = 2000"):
            ca.as_rational(ca.parse("x^20000-1"))
        assert calls == []
        with pytest.raises(NumericalError, match="degree 2002 exceeds"):
            ca.poly_coeffs(ca.parse("(x^2+1)^1001"))
        with pytest.raises(NumericalError, match="degree 2001 exceeds"):
            ca.as_rational(ca.parse("1/x^2001"))
        assert len(ca.poly_coeffs(ca.parse("(x^2+1)^1000"))) == 2001

    def test_refuses_a_product_past_max_degree_before_forming_it(self, monkeypatch):
        from ecomath.calculus import analysis

        class Watched(list):  # the degree check reads lengths; forming the product iterates
            def __iter__(self):
                read.append(len(self))
                return super().__iter__()

        read = []
        with pytest.raises(NumericalError, match="degree 2001 exceeds MAX_DEGREE = 2000"):
            analysis._mul(Watched([1.0] * 1001), Watched([1.0] * 1002))
        assert read == []
        assert analysis._mul(Watched([1.0] * 1000), Watched([1.0] * 1002)) == [
            float(min(k + 1, 2001 - k, 1000)) for k in range(2001)]
        with pytest.raises(NumericalError, match="degree 2001 exceeds"):
            ca.as_rational(ca.parse("(x^1000+1)*(x^1001+1)"))
        with pytest.raises(NumericalError, match="degree 2001 exceeds"):
            ca.as_rational(ca.parse("1/x^1000-1/x^1001"))  # the sum's denominator
        forms = []
        mul = analysis._mul
        monkeypatch.setattr(analysis, "_mul", lambda a, b: forms.append(1) or mul(a, b))
        with pytest.raises(NumericalError, match="degree 20000 exceeds"):
            ca.as_rational(ca.parse("x^20000-1"))
        assert forms == []  # a power is refused before its first product

    def test_refusal_does_not_depend_on_operand_order(self):
        # a tree with exp(x) anywhere is not rational, so its power is never expanded
        for text in ("x^3000+exp(x)", "exp(x)+x^3000"):
            assert ca.as_rational(ca.parse(text)) is None
            assert ca.roots(ca.parse(text), -1, 0.5) == []
        # in a rational-shaped tree the power is refused wherever it stands
        for text in ("x^3000+1/(2*x-x-x)", "1/(2*x-x-x)+x^3000"):
            with pytest.raises(NumericalError, match="degree 3000 exceeds"):
                ca.as_rational(ca.parse(text))
        with pytest.raises(NumericalError, match="degree 20000 exceeds"):
            ca.roots(ca.parse("x^20000-1"), -1, 0.5)

    def test_a_rational_shaped_derivative_past_max_degree_is_not_converted(self):
        # f = ln(x) + x^2002 is scanned; f' = 1/x + 2002 x^2001 is rational-shaped
        # past MAX_DEGREE, and the scan's Newton step reads only its tree
        e = ca.parse("ln(x)+x^2002")
        assert ca.roots(e, 0.1, 1) == [0.9970883705111784]
        with pytest.raises(PoleError, match="pole at x = 0.997088"):
            ca.integrate(ca.div(ca.Const(1.0), e), 0.1, 1)


def random_rational(rng, depth):
    """A tree of sums, differences, products, quotients, negations and integer
    powers (-3 to 3) of linear factors c0 +- c1*x, built without folding."""
    if depth == 0 or rng.random() < 0.25:
        c0, c1 = (float(rng.choice([0.0, -1.5, 2.0, rng.uniform(-3, 3)])) for _ in range(2))
        return (Add, Sub)[rng.integers(2)](Const(c0), Mul(Const(c1), X))
    kind = rng.integers(6)
    if kind == 4:
        return Neg(random_rational(rng, depth - 1))
    if kind == 5:
        return Pow(random_rational(rng, depth - 1), Const(float(rng.integers(-3, 4))))
    node = (Add, Sub, Mul, Div)[kind]
    return node(random_rational(rng, depth - 1), random_rational(rng, depth - 1))


def reference_trim(c):
    return np.atleast_1d(npoly.polytrim(np.asarray(c, dtype=float), tol=0.0))


def reference_rational(e, absolute=False):
    """as_rational on numpy.polynomial's checked routines.  With absolute, on
    the absolute values of the coefficients, every difference taken as a sum:
    each coefficient is then the sum of the magnitudes of the terms that
    forming it adds, which scales its rounding error."""
    one = np.array([1.0])
    if isinstance(e, Const):
        return np.array([abs(e.value) if absolute else e.value]), one
    if e is X:
        return np.array([0.0, 1.0]), one
    if isinstance(e, Neg):
        r = reference_rational(e.a, absolute)
        return (r[0] if absolute else -r[0], r[1]) if r else None
    if isinstance(e, Pow):
        k = int(e.exponent.value)
        r = reference_rational(e.base, absolute)
        if not r or (k < 0 and not r[0].any()):
            return None
        num, den = npoly.polypow(r[0], abs(k)), npoly.polypow(r[1], abs(k))
        return (reference_trim(den), reference_trim(num)) if k < 0 else (
            reference_trim(num), reference_trim(den))
    ra, rb = reference_rational(e.a, absolute), reference_rational(e.b, absolute)
    if not ra or not rb:
        return None
    if isinstance(e, (Add, Sub)):
        sign = 1.0 if isinstance(e, Add) or absolute else -1.0
        num = npoly.polyadd(npoly.polymul(ra[0], rb[1]), sign * npoly.polymul(rb[0], ra[1]))
        return reference_trim(num), reference_trim(npoly.polymul(ra[1], rb[1]))
    if isinstance(e, Mul):
        return reference_trim(npoly.polymul(ra[0], rb[0])), reference_trim(
            npoly.polymul(ra[1], rb[1]))
    if not rb[0].any():
        return None
    return reference_trim(npoly.polymul(ra[0], rb[1])), reference_trim(
        npoly.polymul(ra[1], rb[0]))


def reference_derivative(num, den):
    d = npoly.polysub(
        npoly.polymul(npoly.polyder(num), den), npoly.polymul(num, npoly.polyder(den))
    )
    return reference_trim(d), reference_trim(npoly.polymul(den, den))


def roundings(e, length):
    """An upper bound on the roundings in any coefficient as_rational forms for
    e, when no list it forms is longer than length: a product, or a sum of two
    products, rounds each coefficient at most length + 1 times, on top of the
    roundings in its operands."""
    if isinstance(e, Neg):
        return roundings(e.a, length)
    if isinstance(e, Pow):
        return abs(int(e.exponent.value)) * (roundings(e.base, length) + length + 1)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return roundings(e.a, length) + roundings(e.b, length) + length + 1
    return 0


def assert_within_rounding(got, want, magnitude, n):
    """Each coefficient of got and want, zero-padded to a common length, within
    twice gamma_n = n u / (1 - n u) of its magnitude (Higham 2002, sec. 3.1):
    both are within gamma_n of the exact value."""
    u = 2.0 ** -53
    tol = 2.0 * n * u / (1.0 - n * u)
    for g, w, m in zip(got, want, magnitude):
        size = max(len(g), len(w), len(m))
        g, w, m = (np.pad(np.asarray(c, dtype=float), (0, size - len(c))) for c in (g, w, m))
        assert (np.abs(g - w) <= tol * m).all(), (g, w)


class TestPolynomialArithmetic:
    """as_rational and _rational_derivative sum their products in another
    order than numpy.polynomial's routines: they must give None where those
    do, and otherwise coefficients within the rounding error of both."""

    def test_as_rational_matches_numpy_polynomial(self):
        trees = np.random.default_rng(2718)
        for _ in range(400):
            e = random_rational(trees, 4)
            got, want = ca.as_rational(e), reference_rational(e)
            assert (got is None) == (want is None), ca.to_string(e)
            if want is not None:
                magnitude = reference_rational(e, absolute=True)
                n = roundings(e, max(map(len, magnitude)))
                assert_within_rounding(got, want, magnitude, n)

    def test_rational_derivative_matches_numpy_polynomial(self):
        from ecomath.calculus.analysis import _rational_derivative

        def magnitude(num, den):  # the derivative on absolute values, - taken as +
            num, den = np.abs(num), np.abs(den)
            d = npoly.polyadd(npoly.polymul(npoly.polyder(num), den),
                              npoly.polymul(num, npoly.polyder(den)))
            return reference_trim(d), reference_trim(npoly.polymul(den, den))

        trees = np.random.default_rng(1618)
        for _ in range(400):
            rat = ca.as_rational(random_rational(trees, 3))
            if rat:
                got = _rational_derivative(*rat)
                for r in (rat, got):  # f' and f'' from the same coefficients
                    # k c_k, one product sum per coefficient, and the difference
                    n = max(map(len, r)) + 2
                    assert_within_rounding(_rational_derivative(*r), reference_derivative(*r),
                                           magnitude(*r), n)


class TestPolyDivide:
    def test_improper_rational(self):
        q, r = ca.poly_divide([1, 0, 1], [0, 1])  # (x^2+1)/x
        assert q == [0.0, 1.0]
        assert r == [1.0]

    def test_self_division(self):
        q, r = ca.poly_divide([2, 3, 4], [2, 3, 4])
        assert q == [1.0]
        assert r == [0.0]

    def test_proper_case(self):
        q, r = ca.poly_divide([1, 1], [1, 0, 1])
        assert q == [0.0]
        assert r == [1.0, 1.0]

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            ca.poly_divide([1, 1], [0.0])


def same_report(got, want):
    """Two curve reports with the same decisions, at positions equal to 1e-12."""
    def pts(xs):
        return pytest.approx(list(xs), rel=1e-12, abs=1e-12)

    assert got.symmetry == want.symmetry and got.domain == want.domain
    assert list(got.roots) == pts(want.roots)
    assert [k for _, k in got.extrema] == [k for _, k in want.extrema]
    assert [x for x, _ in got.extrema] == pts(x for x, _ in want.extrema)
    assert list(got.inflections) == pts(want.inflections)
    for g, w in ((got.monotone_intervals, want.monotone_intervals),
                 (got.curvature_intervals, want.curvature_intervals)):
        assert [k for *_, k in g] == [k for *_, k in w]
        assert [v for a, b, _ in g for v in (a, b)] == pts(v for a, b, _ in w for v in (a, b))


class TestCurveReport:
    @pytest.mark.parametrize("text, lo, hi", [
        ("x", 0, 1),
        ("x^3-6*x^2+9*x+1", -1, 5),
        ("x^4-2*x^2", -2, 2),
        ("(x^2-1)/(x^2+1)", -3, 3),
        ("(x^3-2*x)/(x-3)", -5, 5),
        ("1/x", -1, 1),
    ])
    def test_decisions_do_not_depend_on_scale(self, text, lo, hi):
        # c*f has the pieces, extrema, inflections and symmetry of f, however small
        # or large c: a derivative vanishes only within its rounding error
        f = ca.parse(text)
        want = ca.curve_report(f, lo, hi)
        assert want.monotone_intervals
        for c in (1e-13, 1e13):
            same_report(ca.curve_report(ca.mul(ca.const(c), f), lo, hi), want)

    def test_odd_monomial(self):
        rep = ca.curve_report(ca.parse("x^3"), -3, 3)
        assert rep.symmetry == "odd"
        assert rep.roots == pytest.approx([0.0])
        assert rep.inflections == pytest.approx([0.0])
        assert rep.extrema == ()

    @pytest.mark.parametrize("text, lo, hi, want", [
        ("x^2", -1, 1, (0.0, 1.0)),  # 512 samples gave a least value of 3.83e-06
        ("1/x", -1, 1, None),  # unbounded: the samples gave [-511, 511]
        ("(x-1)^3/(x-1)", 0, 2, None),  # a hole at 1
        ("(x-1)^3/(x-1)", 2, 3, (1.0, 4.0)),
        ("x^3-3*x", -3, 3, (-18.0, 18.0)),
        ("(x^2+1)/x", 0.5, 3, (2.0, 10 / 3)),
    ])
    def test_range_from_the_ends_of_the_monotone_pieces(self, text, lo, hi, want):
        rep = ca.curve_report(ca.parse(text), lo, hi)
        assert rep.range_estimate == (None if want is None else pytest.approx(want, rel=1e-15))

    def test_overflowing_samples_give_no_range_estimate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ca.curve_report(ca.parse("x^1500"), -2, 2)
        assert rep.range_estimate is None
        assert rep.roots == pytest.approx([0.0])

    def test_oblique_asymptote(self):
        rep = ca.curve_report(ca.parse("(x^2+1)/x"), -5, 5)
        assert rep.vertical_asymptotes == pytest.approx([0.0])
        assert rep.asymptote == pytest.approx((1.0, 0.0))  # y = x

    def test_cubic_cost_curve(self):
        rep = ca.curve_report(ca.parse("x^3-6*x^2+15*x+40"), 0, 10)
        assert rep.roots == ()
        assert rep.inflections == pytest.approx([2.0])

    def test_even_symmetry(self):
        rep = ca.curve_report(ca.parse("x^4-2*x^2"), -2, 2)
        assert rep.symmetry == "even"
        kinds = sorted(k for _, k in rep.extrema)
        assert kinds == ["max", "min", "min"]

    def test_extremum_condition(self):
        e = ca.parse("x^3-3*x")
        rep = ca.curve_report(e, -3, 3)
        d1, d2 = ca.differentiate(e), ca.differentiate(ca.differentiate(e))
        for x, kind in rep.extrema:
            assert abs(ca.evaluate(d1, x)) <= 1e-8 * (1 + abs(ca.evaluate(d2, x)))
            assert (ca.evaluate(d2, x) > 0) == (kind == "min")

    def test_proper_rational_horizontal_asymptote(self):
        rep = ca.curve_report(ca.parse("(x+1)/(x^2+1)"), -5, 5)
        assert rep.asymptote == pytest.approx((0.0, 0.0))  # tends to zero

    def test_monotone_intervals_labelled(self):
        rep = ca.curve_report(ca.parse("x^2"), -2, 2)
        labels = [k for _, _, k in rep.monotone_intervals]
        assert labels == ["decreasing", "increasing"]

    def test_unsupported_class(self):
        with pytest.raises(UnsupportedExpressionError):
            ca.curve_report(ca.parse("exp(x)"), 0, 1)

    def test_flat_minimum(self):
        rep = ca.curve_report(ca.parse("x^4"), -1, 1)
        assert rep.extrema == ((0.0, "min"),)
        assert [k for _, _, k in rep.monotone_intervals] == ["decreasing", "increasing"]
        assert rep.inflections == ()

    def test_flat_inflection(self):
        rep = ca.curve_report(ca.parse("x^5"), -1, 1)
        assert rep.inflections == (0.0,)
        assert rep.extrema == ()
        assert [k for _, _, k in rep.monotone_intervals] == ["increasing"]

    def test_no_turn_or_bend_at_a_hole(self):
        assert ca.curve_report(ca.parse("x^3/x"), -1, 1).extrema == ()
        assert ca.curve_report(ca.parse("x^4/x"), -1, 1).inflections == ()

    def test_no_turn_at_a_pole(self):
        rep = ca.curve_report(ca.parse("1/x"), -1, 1)
        assert rep.extrema == () and rep.inflections == ()
        assert rep.monotone_intervals == ((-1, 0.0, "decreasing"), (0.0, 1, "decreasing"))
        assert [k for _, _, k in rep.curvature_intervals] == ["concave", "convex"]

    @pytest.mark.parametrize("lo, hi", [
        (5, -5), (1, 1), (0, math.nan), (math.nan, 1), (-math.inf, 1), (0, math.inf),
    ])
    def test_window_not_finite_and_ordered_refused(self, lo, hi):
        # a reversed window gave no roots and one convex piece; a NaN end gave
        # x^2 "decreasing" on [0, nan]
        with pytest.raises(ValueError, match="lo < hi"):
            ca.curve_report(ca.parse("x^2-1"), lo, hi)


class TestAntiderivative:
    def test_linear(self):
        F = ca.antiderivative(ca.parse("x"))
        assert ca.evaluate(F, 3.0) == pytest.approx(4.5)

    def test_reciprocal_gives_ln_abs(self):
        F = ca.antiderivative(ca.parse("1/x"))
        assert ca.evaluate(F, -2.0) == pytest.approx(math.log(2.0))

    def test_exponential(self):
        F = ca.antiderivative(ca.parse("exp(2*x)"))
        assert ca.evaluate(F, 1.0) == pytest.approx(math.exp(2) / 2)

    def test_absent_is_a_value(self):
        assert ca.antiderivative(ca.parse("exp(x^2)")) is None

    @pytest.mark.parametrize("text", ["(-2)^x", "0.5*(-2)^(3*x)+x", "0^x"])
    def test_non_positive_base_to_a_linear_power_is_a_domain_error(self, text):
        # a^u / (u' ln a) needs a > 0; math.log raised a bare "math domain error"
        with pytest.raises(EvalDomainError, match=r"antiderivative of \(?-?[02]"):
            ca.antiderivative(ca.parse(text))

    def test_round_trip_derivative(self):
        for text in ("3*x^2 - 2*x + 7", "1/x", "exp(-0.5*x)", "2^x", "x^0.5", "5/x^2"):
            e = ca.parse(text)
            F = ca.antiderivative(e)
            assert F is not None, text
            dF = ca.differentiate(F)
            for x in np.linspace(0.3, 3.0, 15):
                assert ca.evaluate(dF, float(x)) == pytest.approx(
                    ca.evaluate(e, float(x)), abs=1e-9, rel=1e-9
                )


class TestIntegrate:
    def test_linear(self):
        assert ca.integrate(ca.parse("x"), 1, 2) == pytest.approx(1.5)

    def test_square(self):
        assert ca.integrate(ca.parse("x^2"), 1, 2) == pytest.approx(7 / 3)

    def test_fractional_power(self):
        assert ca.integrate(ca.parse("x^0.5"), 1, 2) == pytest.approx(
            (2 ** 1.5 - 1) / 1.5
        )

    def test_identical_limits(self):
        assert ca.integrate(ca.parse("x^2"), 4, 4) == 0.0

    def test_interchanged_limits(self):
        assert ca.integrate(ca.parse("x"), 2, 1) == pytest.approx(-1.5)

    def test_split_rule(self):
        e = ca.parse("exp(x^2/10)")  # no structural primitive: quadrature path
        a, b = 0.0, 2.0
        whole = ca.integrate(e, a, b)
        for _ in range(5):
            c = float(rng.uniform(a, b))
            parts = ca.integrate(e, a, c) + ca.integrate(e, c, b)
            assert abs(whole - parts) <= 1e-9 * (1 + abs(whole))

    def test_quadrature_accuracy(self):
        # ∫0..pi-ish window of a smooth non-tabulated integrand vs scipy
        from scipy.integrate import quad

        e = ca.parse("exp(-x^2)")
        ours = ca.integrate(e, 0, 2)
        ref, _ = quad(lambda x: math.exp(-x * x), 0, 2)
        assert ours == pytest.approx(ref, abs=1e-9)

    def test_pole_inside_rejected(self):
        with pytest.raises(PoleError):
            ca.integrate(ca.parse("1/x"), -1, 1)

    def test_qk15_tables(self):
        # the Gauss-Legendre 7-point rule (QUADPACK's 0.9491079123427585 is
        # leggauss' in all but the last digit) and Kronrod weights summing to 2
        from ecomath.calculus.analysis import _WG, _WGK, _XGK

        x, w = np.polynomial.legendre.leggauss(7)
        assert np.allclose(_XGK[1::2], x[:3:-1], rtol=1e-15, atol=0)
        assert np.allclose(_WG, w[:2:-1], rtol=1e-15, atol=0)
        assert abs(x[3]) < 1e-15
        assert 2 * math.fsum(_WGK[:7]) + _WGK[7] == pytest.approx(2.0, abs=1e-15)

    def test_smooth_rational_demand_in_few_evaluations(self, monkeypatch):
        # G7-K15 cells: 105 evaluations; adaptive Simpson took 3477
        from scipy.integrate import quad

        from ecomath.calculus import analysis

        calls = []
        evaluate = analysis.evaluate
        monkeypatch.setattr(analysis, "evaluate", lambda e, x: calls.append(x) or evaluate(e, x))
        ours = ca.integrate(ca.parse("100/(1+0.01*x^2)"), 0, 60)
        assert len(calls) <= 150
        ref, _ = quad(lambda x: 100 / (1 + 0.01 * x * x), 0, 60, epsabs=0, epsrel=1e-13)
        assert ours == pytest.approx(ref, rel=1e-12, abs=0)

    def test_log_singularity_at_an_end(self):
        # the cells never evaluate the ends: adaptive Simpson raised on ln(0)
        assert ca.integrate(ca.parse("ln(x)"), 0, 1) == pytest.approx(-1.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize("text", ["ln(x-1)", "ln(2-x)"])
    def test_log_singularity_at_a_nonzero_end(self, text):
        # near 1 a cell 2^-46 wide is 64 floats wide: its outermost node rounded
        # onto the end, where ln raised
        assert ca.integrate(ca.parse(text), 1, 2) == pytest.approx(-1.0, rel=0, abs=1e-12)

    def test_walk_past_max_cells_undecided(self, monkeypatch):
        from ecomath.calculus import analysis

        monkeypatch.setattr(analysis, "MAX_CELLS", 2)
        with pytest.raises(ca.UndecidedError, match=r"integral undecided on \[1, 2\] after "
                                                    r"MAX_CELLS = 2 cells"):
            ca.integrate(ca.parse("exp(-x^2)"), 0, 2)

    def test_floor_cell_above_tol_undecided(self):
        # exp(x) x^-0.5 is integrable at 0, but no cell of width 2^-48 there
        # meets tol; the x = t^2 substitution is not made
        with pytest.raises(ca.UndecidedError, match=r"integral undecided on \[0, 3.55271e-15\]"):
            ca.integrate(ca.parse("exp(x)*x^-0.5"), 0, 1)

    @pytest.mark.parametrize("text, a, b", [
        ("1/(exp(x)-2)^2", 0, 1.3),
        ("1/abs(exp(x)-2)", 0, 1.3),
        ("1/(exp(x)-1)^2", -1, 1.3),
    ])
    def test_pole_at_a_multiple_root_of_a_tree_rejected(self, text, a, b):
        # the divisor keeps its sign across the pole; each ran past 30 s in
        # adaptive Simpson when its root was missed
        with pytest.raises(PoleError):
            ca.integrate(ca.parse(text), a, b)

    def test_divergent_endpoint_rejected(self):
        with pytest.raises(DivergenceError):
            ca.integrate(ca.parse("x^-2"), 0, 1)

    def test_integrable_endpoint_singularity(self):
        # x^(-1/2) is integrable at 0: exact value 2
        assert ca.integrate(ca.parse("x^-0.5"), 0, 1) == pytest.approx(2.0)

    @pytest.mark.parametrize("a, b", [
        (0, math.inf), (-math.inf, 0), (math.nan, 1), (1, math.nan), (math.inf, math.inf),
    ])
    def test_bound_not_finite_refused(self, a, b):
        # integrate(x, 0, inf) returned inf; with both bounds inf, 0.0
        with pytest.raises(ValueError, match="finite"):
            ca.integrate(X, a, b)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_tol_not_finite_and_positive_refused(self, tol):
        # tol = nan: roots ran, and integrate said "error estimate 0 is above tol = nan"
        with pytest.raises(ValueError, match="^tol must be a finite number with tol > 0"):
            ca.roots(ca.parse("exp(x)-2"), 0, 1, tol=tol)
        with pytest.raises(ValueError, match="^tol must be a finite number with tol > 0"):
            ca.integrate(ca.parse("exp(x^2)"), 0, 1, tol=tol)


def negative_base_to_a_nan_power():
    """(-2)^(u - u) with u = 1e308 x: the exponent is inf - inf = NaN from
    x ~ 1.8 on, where evaluate's int(NaN) raises ValueError."""
    big = ca.mul(ca.const(1e308), X)
    return ca.pow_(ca.const(-2.0), ca.sub(big, big))


class TestEnclose:
    def test_random_trees_and_their_derivatives(self):
        draw = np.random.default_rng(77)
        trees = [ca.parse("1e300*x*x - 1e300*x*x"), negative_base_to_a_nan_power()]
        for _ in range(60):
            e = random_expr()
            trees += e, ca.differentiate(e)
        checked = 0
        for t in trees:
            for _ in range(8):  # windows in [-4, 4]: poles, ln's domain edge, both signs
                lo, hi = sorted(draw.uniform(-4.0, 4.0, 2).tolist())
                checked += assert_encloses(t, lo, hi, [lo, hi, *draw.uniform(lo, hi, 25)])[1]
        assert checked > 10000

    @pytest.mark.parametrize("text, lo, hi, extra", [
        ("exp(x)-5", 0, 1000, []),  # math.exp overflows beyond x ~ 709.78
        ("2^(x^2)", -40, 40, []),  # ** overflows
        ("ln(x)", -1, 1, []),
        ("1/x", -1, 1, []),
        ("abs(x-0.3)^-0.9", 0, 1, [0.3]),
        ("(x-0.5)^1.5 + ln(abs(x))", -1, 1, [0.5]),
        ("x/(x^2-0.25)", -1, 1, [0.5, -0.5]),
    ])
    def test_overflow_and_domain_edges(self, text, lo, hi, extra):
        e = ca.parse(text)
        xs = np.concatenate([np.linspace(lo, hi, 1025), extra])
        for t in (e, ca.differentiate(e)):
            assert_encloses(t, lo, hi, xs)
            for a, b in zip(xs[:-1].tolist(), xs[1:].tolist()):  # each grid cell
                if a < b:
                    assert_encloses(t, a, b, [a, 0.5 * a + 0.5 * b, b])

    @pytest.mark.parametrize("text, lo, hi", [
        ("exp(x)-5", 710, 1000),  # every value overflows
        ("2^(x^2)", 33, 40),
        ("x*exp(x)-exp(x)", 709.8, 1000),
        ("ln(x)", -1, 0),
        ("ln(x)", 0, 0),
        ("x^-2", 0, 0),
        ("(x-0.5)^1.5 + ln(abs(x))", -1, 0.4),
    ])
    def test_defined_nowhere_gives_none(self, text, lo, hi):
        e = ca.parse(text)
        for x in np.linspace(lo, hi, 50).tolist():
            with pytest.raises((EvalDomainError, OverflowError)):
                ca.evaluate(e, x)
        assert ca.enclose(e, lo, hi) is None

    def test_values_past_the_float_range_without_an_error(self):
        # products overflow to inf and inf - inf is NaN: evaluate raises neither,
        # and the enclosure is the whole line
        e = ca.parse("1e300*x*x - 1e300*x*x")
        assert assert_encloses(e, -1e10, 1e10, np.linspace(-1e10, 1e10, 101))[0] == (
            -math.inf, math.inf)
        box = ca.enclose(e, -1.0, 1.0)
        assert -math.inf < box[0] <= 0.0 <= box[1] < math.inf

    def test_nan_exponent_of_a_negative_base(self):
        p = negative_base_to_a_nan_power()
        assert ca.evaluate(p, 0.5) == 1.0
        with pytest.raises(ValueError, match="NaN"):
            ca.evaluate(p, 2.0)
        # a NaN exponent counts as any exponent: the whole line, also on [2, 3],
        # where evaluate raises everywhere
        assert assert_encloses(p, 0.5, 2.0, [0.5, 2.0])[0] == (-math.inf, math.inf)
        assert ca.enclose(p, 2.0, 3.0) == (-math.inf, math.inf)

    def test_constant_and_identity(self):
        assert ca.enclose(X, -1.0, 2.5) == (-1.0, 2.5)
        assert ca.enclose(ca.const(4.0), -1.0, 2.5) == (4.0, 4.0)

    @pytest.mark.parametrize("text, lo, hi, want", [
        ("x^2", -1, 2, (0.0, 4.0)),  # not [-2, 4], as x*x gives
        ("(x-1)^4", 0, 3, (0.0, 16.0)),
        ("x^3", -2, 1, (-8.0, 1.0)),
        ("abs(x)", -3, 2, (0.0, 3.0)),
        ("-x", -3, 2, (-2.0, 3.0)),
        ("exp(x)", 0, 1, (1.0, math.e)),
        ("ln(x)", -1, 1, (-math.inf, 0.0)),  # the positive part only
        ("x^-2", -1, 2, (0.25, math.inf)),
        ("1/(x-1)", 0, 2, (-math.inf, math.inf)),  # the divisor holds 0
        ("0.5^x", -1, 2, (0.25, 2.0)),
        ("x^0.5", -4, 9, (0.0, 3.0)),
    ])
    def test_exact_images_up_to_rounding(self, text, lo, hi, want):
        got = ca.enclose(ca.parse(text), lo, hi)
        for g, w in zip(got, want):
            assert g == w or abs(g - w) <= 1e-14 * abs(w)
        assert got[0] <= want[0] and want[1] <= got[1]


# ---------------------------------------------------------------------------
# evaluate and enclose against the code they replaced, kept here verbatim as
# the reference: an isinstance chain, and four products for every Mul
# ---------------------------------------------------------------------------

def reference_evaluate(e, x):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x)
    if isinstance(e, Add):
        return reference_evaluate(e.a, x) + reference_evaluate(e.b, x)
    if isinstance(e, Sub):
        return reference_evaluate(e.a, x) - reference_evaluate(e.b, x)
    if isinstance(e, Mul):
        return reference_evaluate(e.a, x) * reference_evaluate(e.b, x)
    if isinstance(e, Div):
        den = reference_evaluate(e.b, x)
        if den == 0.0:
            raise EvalDomainError(f"division by zero in {ca.to_string(e)} at x={x}")
        return reference_evaluate(e.a, x) / den
    if isinstance(e, Pow):
        base = reference_evaluate(e.base, x)
        expo = reference_evaluate(e.exponent, x)
        if base == 0.0 and expo < 0:
            raise EvalDomainError(f"zero base with negative exponent at x={x}")
        if base < 0.0 and expo != int(expo):
            raise EvalDomainError(
                f"negative base with fractional exponent in {ca.to_string(e)} at x={x}"
            )
        return base ** expo
    if isinstance(e, Neg):
        return -reference_evaluate(e.a, x)
    if isinstance(e, Exp):
        return math.exp(reference_evaluate(e.a, x))
    if isinstance(e, Ln):
        arg = reference_evaluate(e.a, x)
        if arg <= 0.0:
            raise EvalDomainError(f"ln of non-positive argument in {ca.to_string(e)} at x={x}")
        return math.log(arg)
    if isinstance(e, Abs):
        return abs(reference_evaluate(e.a, x))
    raise TypeError(f"unknown node {e!r}")


def reference_enclose(e, lo, hi):
    _image, _out = expr_module._image, expr_module._out
    kind = type(e)
    if kind is Const:
        return e.value, e.value
    if kind is Var:
        return lo, hi
    if kind is Pow:
        if type(e.exponent) is not Const:
            u, c = reference_enclose(e.exponent, lo, hi), e.base.value
            return u and ((-math.inf, math.inf) if c <= 0.0 else _image(c.__pow__, *u))
        a, k = reference_enclose(e.base, lo, hi), e.exponent.value
        if a is None or a[0] >= 0.0 or k != int(k):
            return a and (_image(k.__rpow__, max(a[0], 0.0), a[1]) if a[1] >= 0.0 else None)
        if int(k) % 2 and a[1] > 0.0:
            return (-math.inf, math.inf) if k < 0 else (
                -_image(k.__rpow__, 0.0, -a[0])[1], _image(k.__rpow__, 0.0, a[1])[1])
        m = _image(k.__rpow__, max(-a[1], 0.0), max(-a[0], a[1]))
        return m if m is None or not int(k) % 2 else (-m[1], -m[0])
    a = reference_enclose(e.a, lo, hi)
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
    if (b := reference_enclose(e.b, lo, hi)) is None:
        return None
    if kind is Add:
        return _out(a[0] + b[0], a[1] + b[1])
    if kind is Sub:
        return _out(a[0] - b[1], a[1] - b[0])
    if kind is Mul:
        ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    elif b[0] <= 0.0 <= b[1]:
        return -math.inf, math.inf
    else:
        ends = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    return (-math.inf, math.inf) if any(map(math.isnan, ends)) else _out(min(ends), max(ends))


def outcome(fn, *args):
    """What fn(*args) did, comparable bit for bit: each float by its value and
    sign (so -0.0 differs from 0.0, and NaN equals NaN), or the exception's
    type and message."""
    def bits(v):
        return "nan" if v != v else (v, math.copysign(1.0, v))
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if out is None or isinstance(out, float):
        return out if out is None else bits(out)
    return tuple(map(bits, out))


# negative, signed-zero, positive and huge constants; integer and fractional exponents
constants = st.sampled_from([-3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 1e300, -1e300])
exponents = st.sampled_from([-3.0, -2.0, -1.0, -0.9, 0.5, 1.5, 2.0, 3.0])
trees = st.recursive(
    st.one_of(constants.map(Const), st.just(X)),
    lambda sub: st.one_of(
        *(st.builds(kind, sub, sub) for kind in (Add, Sub, Mul, Div)),
        st.builds(Mul, constants.map(Const), sub),  # c*u, as mul builds it
        *(st.builds(kind, sub) for kind in (Neg, Exp, Ln, Abs)),
        st.builds(Pow, sub, exponents.map(Const)),
        st.builds(Pow, constants.map(Const), sub),
    ),
    max_leaves=10,
)
ends = st.one_of(
    st.sampled_from([-math.inf, -1e300, -2.0, -0.0, 0.0, 0.5, 2.0, 1e300, math.inf]),
    st.floats(-10.0, 10.0),
)


class TestDispatchMatchesTheReference:
    @settings(max_examples=400, deadline=None)
    @given(trees, ends, ends)
    def test_evaluate_matches_the_isinstance_chain(self, e, lo, hi):
        for x in (lo, hi, 0.5 * lo + 0.5 * hi):
            assert outcome(ca.evaluate, e, x) == outcome(reference_evaluate, e, x), (
                ca.to_string(e), x)

    @settings(max_examples=400, deadline=None)
    @given(trees, ends, ends)
    def test_enclose_matches_the_four_product_rule(self, e, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        assert outcome(ca.enclose, e, lo, hi) == outcome(reference_enclose, e, lo, hi), (
            ca.to_string(e), lo, hi)

    @pytest.mark.parametrize("c, u, want", [
        (-1.0, (0.0, 2.0), (-2.0000000000000004, -0.0)),
        (-1.0, (-0.0, 0.0), (0.0, 0.0)),
        (0.0, (-1.0, 2.0), (-0.0, -0.0)),  # not (-0.0, 0.0), as ordering by c's sign gives
        (0.0, (-math.inf, 1.0), (-math.inf, math.inf)),  # 0 * inf is NaN
        (-0.0, (-1.0, math.inf), (-math.inf, math.inf)),  # at either end
        (1e300, (1e10, 1e300), (1.7976931348623157e308, math.inf)),
    ])
    def test_signed_zeros_nan_and_overflow_of_c_times_x(self, c, u, want):
        e = Mul(Const(c), X)
        assert outcome(ca.enclose, e, *u) == outcome(reference_enclose, e, *u) == outcome(
            lambda: want)
