"""Expression trees: parsing, evaluation, differentiation, elasticities,
roots, curve reports, antiderivatives and definite integration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from ecomath import calculus as ca
from ecomath.calculus import (
    Add,
    Const,
    DivergenceError,
    EvalDomainError,
    ExprSyntaxError,
    PoleError,
    Pow,
    UnsupportedExpressionError,
    X,
)
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
            ca.as_rational(t)
            try:
                ca.evaluate(t, 0.5)
            except (ArithmeticError, ValueError):
                pass
        with pytest.raises(ExprSyntaxError, match="levels deep"):
            ca.parse(make(self.M + 1))


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

    def test_scan_returns_python_floats(self):
        found = ca.roots(ca.parse("exp(x)-5"), 0, 1000)
        assert found == pytest.approx([math.log(5.0)])
        assert all(type(r) is float for r in found)


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


class TestPolyDivide:
    def test_improper_rational(self):
        q, r = ca.poly_divide([1, 0, 1], [0, 1])  # (x^2+1)/x
        assert q.tolist() == [0.0, 1.0]
        assert r.tolist() == [1.0]

    def test_self_division(self):
        q, r = ca.poly_divide([2, 3, 4], [2, 3, 4])
        assert q.tolist() == [1.0]
        assert r.tolist() == [0.0]

    def test_proper_case(self):
        q, r = ca.poly_divide([1, 1], [1, 0, 1])
        assert q.tolist() == [0.0]
        assert r.tolist() == [1.0, 1.0]

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            ca.poly_divide([1, 1], [0.0])


class TestCurveReport:
    def test_odd_monomial(self):
        rep = ca.curve_report(ca.parse("x^3"), -3, 3)
        assert rep.symmetry == "odd"
        assert rep.roots == pytest.approx([0.0])
        assert rep.inflections == pytest.approx([0.0])
        assert rep.extrema == ()

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

    def test_divergent_endpoint_rejected(self):
        with pytest.raises(DivergenceError):
            ca.integrate(ca.parse("x^-2"), 0, 1)

    def test_integrable_endpoint_singularity(self):
        # x^(-1/2) is integrable at 0: exact value 2
        assert ca.integrate(ca.parse("x^-0.5"), 0, 1) == pytest.approx(2.0)
