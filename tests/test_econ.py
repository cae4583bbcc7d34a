"""Applied economics: cost phases, profit/Cournot analysis, ratio optima,
market equilibrium, surplus strategies, and the psychological value function."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ecomath import calculus as ca
from ecomath import econ
from ecomath.calculus import EvalDomainError
from ecomath.econ import CostModel, EconError, MarketModel

rng = np.random.default_rng(31415)

COST = CostModel(1, -6, 15, 40)  # K = x^3 - 6x^2 + 15x + 40
MARKET = MarketModel(ca.parse("20-x"), CostModel(1, -6, 15, 4), 10.0)


class TestCostModel:
    def test_invariants_enforced(self):
        with pytest.raises(EconError):
            CostModel(-1, -6, 15, 40)  # a3 <= 0
        with pytest.raises(EconError):
            CostModel(1, 6, 15, 40)  # a2 >= 0
        with pytest.raises(EconError):
            CostModel(1, -6, -15, 40)  # a1 <= 0
        with pytest.raises(EconError):
            CostModel(1, -6, 15, -1)  # a0 < 0
        with pytest.raises(EconError):
            CostModel(1, -8, 15, 40)  # a2^2 - 3 a3 a1 >= 0

    def test_variable_fixed_split(self):
        assert COST.total(0.0) == 40.0
        assert ca.evaluate(COST.variable_expr(), 0.0) == 0.0


class TestCostAnalysis:
    def test_worked_example(self):
        out = econ.cost_analysis(COST)
        assert out.x_W == pytest.approx(2.0)
        assert out.x_g1 == pytest.approx(3.0)
        assert out.x_g2 == pytest.approx(4.157, abs=1e-3)

    def test_marginal_cost_minimum_at_inflection(self):
        out = econ.cost_analysis(COST)
        assert out.marginal_min == pytest.approx(3.0)
        # K' really is minimal there
        xs = np.linspace(0.1, 8, 200)
        assert all(COST.marginal(x) >= out.marginal_min - 1e-9 for x in xs)

    def test_unit_elasticity_at_mes(self):
        out = econ.cost_analysis(COST)
        eps = ca.elasticity(COST.expr(), out.x_g2)
        assert eps == pytest.approx(1.0, abs=1e-6)

    def test_tangent_intercepts(self):
        out = econ.cost_analysis(COST)
        assert out.tangent_g1[1] == pytest.approx(COST.a0, abs=1e-7)
        assert out.tangent_g2[1] == pytest.approx(0.0, abs=1e-7)

    def test_phase_ordering(self):
        for _ in range(25):
            a3 = float(rng.uniform(0.5, 3))
            a2 = -float(rng.uniform(1, 6))
            a1 = float(rng.uniform(a2 * a2 / (3 * a3) + 0.1, 30))
            a0 = float(rng.uniform(0.5, 50))
            out = econ.cost_analysis(CostModel(a3, a2, a1, a0))
            assert 0 < out.x_W < out.x_g1 < out.x_g2
            assert out.x_g1 == pytest.approx(1.5 * out.x_W)

    def test_zero_fixed_costs_edge(self):
        out = econ.cost_analysis(CostModel(1, -3, 4, 0))
        assert out.mes_coincides_with_g1
        assert out.x_g2 == out.x_g1

    def test_phase_four_diagnostic(self):
        out = econ.cost_analysis(COST)
        for x in np.linspace(out.x_g2 + 0.01, out.x_g2 + 10, 50):
            assert COST.marginal(x) > COST.total(x) / x


class TestMarketModel:
    def test_increasing_price_rejected(self):
        with pytest.raises(EconError):
            MarketModel(ca.parse("20+x"), COST, 10.0)

    @pytest.mark.parametrize("x_max", [math.inf, math.nan, 0.0])
    def test_window_not_finite_and_positive_refused(self, x_max):
        with pytest.raises(EconError, match="finite with positive length"):
            MarketModel(ca.parse("20-x"), COST, x_max)

    def test_revenue_and_profit(self):
        G = MARKET.profit_expr()
        assert ca.poly_coeffs(G) == pytest.approx([-4, 5, 5, -1])


class TestProfitAnalysis:
    def test_worked_example(self):
        out = econ.profit_analysis(MARKET)
        assert out.x_S == pytest.approx(0.540, abs=1e-3)
        assert out.x_M == pytest.approx(3.775, abs=1e-3)
        assert out.x_G == pytest.approx(5.749, abs=1e-3)
        assert out.G_max == pytest.approx(32.33, abs=1e-2)

    def test_x_M_closed_form(self):
        # G' = -3x^2 + 10x + 5 has positive root (10+sqrt(160))/6
        out = econ.profit_analysis(MARKET)
        assert out.x_M == pytest.approx((10 + math.sqrt(160)) / 6, abs=1e-9)

    def test_parallel_tangents(self):
        out = econ.profit_analysis(MARKET)
        k_marg = MARKET.cost.marginal(out.x_M)
        assert out.parallel_tangent_gap <= 1e-7 * (1 + abs(k_marg))
        assert k_marg == pytest.approx(12.45, abs=0.005)

    def test_never_profitable_market(self):
        m = MarketModel(ca.parse("10-x"), CostModel(1, -6, 15, 4), 10.0)
        out = econ.profit_analysis(m)
        assert out.x_S is None and out.x_G is None
        # the profit maximum may exist but must be a loss
        if out.G_max is not None:
            assert out.G_max < 0


class TestCournot:
    def test_worked_point(self):
        out = econ.cournot(MARKET)
        assert out.x_M == pytest.approx(3.775, abs=1e-3)
        assert out.p_M == pytest.approx(16.225, abs=1e-3)

    def test_amoroso_robinson_residual(self):
        out = econ.cournot(MARKET)
        assert out.amoroso_robinson_residual <= 1e-6 * out.p_M
        # substitution check: eps_p = -x/(20-x)
        eps_p = -out.x_M / (20 - out.x_M)
        assert eps_p == pytest.approx(-0.2327, abs=1e-3)
        assert MARKET.cost.marginal(out.x_M) / (1 + eps_p) == pytest.approx(out.p_M)


class TestRatioOptimum:
    def test_average_profit_unit_elasticity(self):
        G = MARKET.profit_expr()
        out = econ.ratio_optimum(G, ca.X, 0.55, 5.7)  # inside the profitable zone
        assert ca.elasticity(G, out.x) == pytest.approx(1.0, abs=1e-6)
        assert out.elasticity_gap <= 1e-6

    def test_efficiency_elasticity_identity(self):
        E = MARKET.revenue_expr()
        K = MARKET.cost.expr()
        out = econ.ratio_optimum(E, K, 0.1, 9.9)
        assert abs(
            ca.elasticity(E, out.x) - ca.elasticity(K, out.x)
        ) <= 1e-6

    def test_constant_ratio_has_no_interior_optimum(self):
        f = ca.parse("x^2+1")
        with pytest.raises(EconError):
            econ.ratio_optimum(f, f, 0.1, 5.0)

    @pytest.mark.parametrize("lo, hi", [(0.1, math.inf), (0.1, math.nan), (math.nan, 5.0)])
    def test_window_not_finite_refused(self, lo, hi):
        with pytest.raises(EconError, match="need finite 0 <= lo < hi"):
            econ.ratio_optimum(MARKET.profit_expr(), ca.X, lo, hi)


class TestEquilibrium:
    def test_linear_intersection(self):
        out = econ.equilibrium(ca.parse("10-x"), ca.parse("x"), 0, 10)
        assert out.p_M == pytest.approx(5.0)
        assert out.quantity == pytest.approx(5.0)

    def test_prohibitive_price_and_saturation(self):
        out = econ.equilibrium(ca.parse("10-x"), ca.parse("x"), 0, 10)
        assert out.p_prohibitive == pytest.approx(10.0)
        assert out.x_saturation == pytest.approx(10.0)

    def test_disjoint_curves(self):
        with pytest.raises(EconError):
            econ.equilibrium(ca.parse("10-x"), ca.parse("x+20"), 0, 10)

    @pytest.mark.parametrize("lo, hi", [(0, math.inf), (-math.inf, 10), (math.nan, 10)])
    def test_window_not_finite_refused(self, lo, hi):
        with pytest.raises(EconError, match="need finite p_lo < p_hi"):
            econ.equilibrium(ca.parse("10-x"), ca.parse("x"), lo, hi)

    def test_monotonicity_preconditions(self):
        with pytest.raises(EconError):
            econ.equilibrium(ca.parse("10+x"), ca.parse("x"), 0, 10)
        with pytest.raises(EconError):
            econ.equilibrium(ca.parse("10-x"), ca.parse("5-x"), 0, 4)

    def test_rational_curves_are_converted_once(self, monkeypatch):
        from ecomath.calculus import analysis

        demand, supply = ca.parse("100/(1+0.01*x^2)"), ca.parse("2*x+5+0.01*x^2")
        seen = []
        as_rational = analysis.as_rational

        def spy(e):
            seen.append(e)
            return as_rational(e)

        monkeypatch.setattr(analysis, "as_rational", spy)
        monkeypatch.setattr(ca, "as_rational", spy)
        econ.equilibrium(demand, supply, 0, 60)
        assert [e is demand for e in seen].count(True) == 1
        assert [e is supply for e in seen].count(True) == 1

    def test_the_demand_denominator_is_solved_once_per_owner(self, monkeypatch):
        from ecomath.calculus import analysis

        demand, supply = ca.parse("100/(1+0.01*x^2)"), ca.parse("2*x+5")
        calls = []
        poly_real_roots = analysis.poly_real_roots
        monkeypatch.setattr(analysis, "poly_real_roots",
                            lambda c: calls.append(list(c)) or poly_real_roots(c))
        econ.equilibrium(demand, supply, 0, 60)
        # N.roots reads the denominator roots that the monotonicity check found;
        # the crossing's own denominator is another _Fn's
        assert len(calls) == 7 and calls.count([1.0, 0.0, 0.01]) == 2
        calls.clear()
        econ.market_strategies(demand, supply, 0, 60)
        # and integrate's pole check solves the demand's tree once more
        assert len(calls) == 9 and calls.count([1.0, 0.0, 0.01]) == 3

    def test_an_exponential_demand_is_differentiated_once(self, monkeypatch):
        from ecomath.calculus import analysis

        calls = []
        differentiate = ca.differentiate
        spy = lambda e: calls.append(e) or differentiate(e)
        monkeypatch.setattr(ca, "differentiate", spy)
        monkeypatch.setattr(analysis, "differentiate", spy)
        demand = ca.parse("80*exp(-0.05*x)")
        econ.market_strategies(demand, ca.parse("2*x+5"), 0, 60)
        # N' for the grid check, kept for the scan of N; (A - N)' for the
        # crossing's scan; the exponent's slope in integrate's antiderivative
        assert len(calls) == 3 and calls.count(demand) == 1

    def test_rational_roots_match_roots_of_the_difference(self):
        # the crossing comes from supply - demand on the arrays, bit for bit
        # what roots(supply - demand) gives on the tree
        draw = np.random.default_rng(2024)
        for _ in range(40):
            a, b, c, s0, s2 = draw.uniform([50, 1, 0.001, 1, 0], [150, 5, 0.05, 10, 0.05])
            demand = ca.parse(str(draw.choice(
                [f"{a}/(1+{c}*x^2)", f"{a}-{b}*x", f"({a}-{b}*x)/(1+{c}*x)"])))
            supply = ca.parse(f"{s0}+{b}*x+{s2}*x^2")
            out = econ.equilibrium(demand, supply, 0, 60)
            assert out.p_M == ca.roots(ca.sub(supply, demand), 0, 60)[0]
            proh = ca.roots(demand, 0, 60)
            assert out.p_prohibitive == (proh[0] if proh else None)


def outcome(fn, *args):
    """The exception type fn(*args) raises, or None if it returns."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc)
    return None


class TestMonotoneChecks:
    """The price check and _check_monotone share _Fn.monotone_flaw: exact sign
    pieces for a rational function, enclosures of the derivative cell by cell
    for a tree.  Both skip the points where the derivative is undefined or
    overflows, so a loop over 256 points that skips them too must agree on
    whether they raise; what they name is checked on its own."""

    @staticmethod
    def point_loop(e, lo, hi, increasing):
        de = ca.differentiate(e)
        for x in np.linspace(lo, hi, 256).tolist():
            try:
                v = ca.evaluate(de, x)
            except (EvalDomainError, OverflowError):
                continue
            if (v <= 0) if increasing else (v >= 0):
                raise EconError(f"not monotone at {x}")

    @pytest.mark.parametrize("price, x_max, raised", [
        ("20-x", 10.0, None),
        ("60*exp(-0.1*x)", 30.0, None),
        ("10-(x-3)^2", 10.0, EconError),  # p' >= 0 up to x = 3
        ("10+(x-3)^2", 10.0, EconError),  # p' >= 0 from x = 3 on
        ("-(x-4)^0.5", 10.0, None),  # p' undefined below x = 4
        ("-exp(x)", 1000.0, None),  # p' overflows beyond x ~ 709.78, and is < 0
        ("10*x^2 - exp(x)", 1000.0, EconError),  # p' > 0 on (0.0527, 4.50)
    ])
    def test_price_check_raises_what_the_point_loop_raises(self, price, x_max, raised):
        p = ca.parse(price)
        # the loop starts at x_max / 256: p' of 10-(x-3)^2 is 6 > 0 at 0 as well
        assert outcome(self.point_loop, p, x_max / 256, x_max, False) is raised
        assert outcome(MarketModel, p, COST, x_max) is raised

    def test_price_check_names_the_first_offending_point(self):
        # p' = 20x - exp(x) turns positive at x0 = 0.05270595...; the walk visits
        # cells left to right and names the midpoint of the first cell of width
        # at most 1e-10 where p' > 0, so within 1e-10 of x0
        x0 = brentq(lambda x: 20 * x - math.exp(x), 0.0, 1.0, xtol=1e-15)
        with pytest.raises(EconError, match=r"decreasing; it is not decreasing at x = 0\.052706$"):
            MarketModel(ca.parse("10*x^2 - exp(x)"), COST, 1000.0)
        assert f"{x0:.6g}" == "0.052706"
        # a rational price names the first piece where p' > 0
        with pytest.raises(EconError, match=r"decreasing; it is increasing on \(0, 3\)$"):
            MarketModel(ca.parse("10-(x-3)^2"), COST, 10.0)
        with pytest.raises(EconError, match=r"decreasing; it is increasing on \(3, 10\)$"):
            MarketModel(ca.parse("10+(x-3)^2"), COST, 10.0)

    @pytest.mark.parametrize("text, lo, hi, increasing, raised", [
        ("100-abs(x)", 0, 60, False, None),  # e' undefined at x = 0 only
        ("(x-2)^0.5", 0, 10, True, None),  # e' undefined up to x = 2
        ("abs(x-5)", 0, 10, True, EconError),
        ("x^2", -1, 1, True, EconError),
        ("100-exp(x)", 0, 1000, False, None),  # e' overflows beyond x ~ 709.78, and is < 0
    ])
    def test_check_monotone_raises_what_the_point_loop_raises(
        self, text, lo, hi, increasing, raised
    ):
        e = ca.parse(text)
        assert outcome(self.point_loop, e, lo, hi, increasing) is raised
        assert outcome(econ._check_monotone, e, lo, hi, increasing, "f") is raised

    @pytest.mark.parametrize("text, lo, hi, flaw", [
        ("abs(x-5)", 0, 10, r"it is not increasing on \(0, 2\.5\)"),  # a cell
        ("x^2", -1, 1, r"it is decreasing on \(-1, 0\)"),  # a rational piece
    ])
    def test_check_monotone_names_the_flaw(self, text, lo, hi, flaw):
        with pytest.raises(EconError, match="^f must be monotonously increasing on the window; "
                                            + flaw + "$"):
            econ._check_monotone(ca.parse(text), lo, hi, True, "f")

    @pytest.mark.parametrize("price, x_max, flaw", [
        # p' = 0.188 at 0: a rise before the first point of the old grid, x_max/256
        ("74.145 - 1.917*x^2 + -0.188*exp(-x)", 43.51, r"on \(0, 0\.0424902\)$"),
        # p' > 0 on (5.2087, 5.237), just before the kink: cells straddle 0 there
        ("54.131*2^(-0.518*x) + -2.995*abs(x-5.237)", 30.75, r"at x = 5\.20866$"),
        # p' underflows to 0 past x ~ 30: the price is flat in floating point
        ("30.422*exp(-0.882*x^2)", 44.76, r"on \([0-9.]+, [0-9.]+\)$"),
    ])
    def test_price_check_finds_what_no_grid_point_shows(self, price, x_max, flaw):
        with pytest.raises(EconError, match="it is not decreasing " + flaw):
            MarketModel(ca.parse(price), COST, x_max)

    def test_an_isolated_zero_of_the_derivative_is_allowed(self):
        e = ca.parse("(exp(x)-1)^3")  # e' = 0 at x = 0 only
        assert econ._check_monotone(e, -1, 1, True, "f").e is e

    def test_a_floor_cell_fails_on_the_sign_at_its_midpoint(self):
        # e' = exp(x) - exp(x) - 1e-20 < 0, but its enclosures hold 0 on every
        # cell: the first floor cell, [0, 2^-34], fails at its midpoint
        with pytest.raises(EconError, match=r"it is not increasing at x = 2\.91038e-11$"):
            econ._check_monotone(ca.parse("exp(x)-exp(x)-1e-20*x"), 0, 1, True, "f")

    def test_an_undecided_window_raises_past_the_cell_budget(self):
        # e' = exp(x) - exp(x) is 0 everywhere, and its enclosures never show it
        with pytest.raises(ca.UndecidedError, match=r"monotonicity undecided on \[-?[0-9.e-]+, 1\]"):
            econ._check_monotone(ca.parse("exp(x)-exp(x)"), 0, 1, True, "f")

    def test_a_derivative_that_cancels_near_its_zero_is_undecided(self):
        # Known limitation, pinned so that a change to it shows: near a zero of
        # e' that is computed with cancellation, the enclosure of e' holds 0 on
        # cells far wider than the floor, so the walk runs out of cells.  A
        # 256-point grid accepted both of these.
        with pytest.raises(ca.UndecidedError, match=r"monotonicity undecided on \[-0\.000345"):
            econ._check_monotone(ca.parse("exp(x)-x-x^2/2"), -1, 1, True, "supply")
        price = ca.parse("10*2^(-0.1*x) - 0.646*abs(x-1)")  # p' ~ -7e-4 just before the kink
        with pytest.raises(ca.UndecidedError, match=r"monotonicity undecided on \[0\.99997"):
            econ.MarketModel(price, econ.CostModel(a3=0.01, a2=-0.3, a1=5, a0=20), 5.0)

    def test_exponential_demand_past_the_overflow_is_decreasing(self):
        # demand 100 - exp(x) on [0, 1000]: N' = -exp(x) < 0 wherever it is defined
        out = econ.equilibrium(ca.parse("100-exp(x)"), ca.parse("x"), 0, 1000)
        assert out.p_M + math.exp(out.p_M) == pytest.approx(100.0, rel=1e-14)
        assert out.quantity == pytest.approx(out.p_M, rel=1e-12)
        assert out.p_prohibitive == pytest.approx(math.log(100.0), rel=1e-14)

    def test_undefined_points_are_skipped(self):
        out = econ.equilibrium(ca.parse("100-abs(x)"), ca.parse("2*x+5"), 0, 60)
        assert out.p_M == pytest.approx(95.0 / 3.0)

    def test_rational_demand_flat_at_the_window_start_is_decreasing(self):
        # p'(0) = 0 at a grid point, yet the demand is strictly decreasing on [0, 60]
        out = econ.market_strategies(ca.parse("100/(1+0.01*x^2)"), ca.parse("2*x+5"), 0, 60)
        cubic = np.roots([0.02, 0.05, 2.0, 5.0 - 100.0])  # (2p+5)(1+0.01p^2) = 100
        p_M = float(cubic[np.isreal(cubic)].real[0])
        assert out.equilibrium.p_M == pytest.approx(p_M, rel=1e-12)

    def test_rational_price_rising_between_grid_points_is_rejected(self):
        # p' = 1e-6 - (x-5.01)^2 > 0 on (5.009, 5.011), between two grid points
        with pytest.raises(EconError, match=r"it is increasing on \(5\.009, 5\.011\)"):
            MarketModel(ca.parse("20 - (x-5.01)^3/3 + 1e-6*x"), COST, 10.0)

    def test_rational_slope_far_below_one_is_monotone(self):
        # the sign of the derivative decides, not its size
        MarketModel(ca.parse("20 - 1e-13*x"), COST, 10.0)
        econ._check_monotone(ca.parse("1e-20*x"), 0, 1, increasing=True, name="f")

    def test_a_pole_splits_the_window(self):
        # 1/x falls on each side of its pole, but not across it
        with pytest.raises(EconError, match="it is not decreasing across x = 0"):
            econ._check_monotone(ca.parse("1/x"), -1, 1, increasing=False, name="f")
        econ._check_monotone(ca.parse("1/x"), 0, 1, increasing=False, name="f")


def random_rational_market(rng):
    """A falling rational price (linear, quadratic, hyperbolic or a linear
    fraction) and an S-shaped cubic cost, on a window past the profit zone."""
    a3 = rng.uniform(0.5, 2.0)
    a2 = -a3 * rng.uniform(3.0, 8.0)
    a1 = a2 * a2 / (3.0 * a3) * rng.uniform(1.1, 2.0)
    cost = CostModel(a3, a2, a1, rng.uniform(0.0, 50.0))
    a, b, c = rng.uniform(1.5, 3.0) * a1, rng.uniform(0.1, 2.0), rng.uniform(0.01, 0.2)
    price = rng.choice([f"{a} - {b}*x", f"{a} - {b}*x - {c}*x^2",
                        f"{a}/(1 + {c}*x)", f"({a} - {b}*x)/(1 + {c}*x)"])
    return MarketModel(ca.parse(str(price)), cost, float(rng.uniform(8.0, 20.0)))


def tree_profit(m):
    """profit_analysis and cournot's figures from the expression trees alone:
    differentiate, roots and evaluate."""
    G = m.profit_expr()
    dG = ca.differentiate(G)
    d2G = ca.differentiate(dG)
    x_S = x_G = None
    for r in ca.roots(G, 0.0, m.x_max):
        slope = ca.evaluate(dG, r)
        if slope > 0 and x_S is None:
            x_S = r
        elif slope < 0:
            x_G = r
    maxima = [r for r in ca.roots(dG, 0.0, m.x_max) if ca.evaluate(d2G, r) < 0]
    x_M = max(maxima, key=lambda r: ca.evaluate(G, r)) if maxima else None
    G_max = ca.evaluate(G, x_M) if maxima else None
    p_M = ca.evaluate(m.price, x_M) if maxima else None
    return {"x_S": x_S, "x_G": x_G, "x_M": x_M, "G_max": G_max, "p_M": p_M}


class TestProfitOnArrays:
    """A rational profit G is solved on coefficient lists formed from the
    price's and the cost's, with no as_rational call on G; the lists must be
    G's tree converted, and the figures must agree with the tree path."""

    def test_lists_are_the_tree_converted(self):
        from ecomath.calculus import analysis
        markets, seen = np.random.default_rng(777), set()
        for _ in range(240):
            a3 = float(markets.choice([1.0, 2.0, markets.uniform(0.5, 2.0)]))
            a2 = -a3 * float(markets.uniform(3.0, 8.0))
            a1 = a2 * a2 / (3.0 * a3) * float(markets.uniform(1.1, 2.0))
            a0 = float(markets.choice([0.0, -0.0, 4.0, markets.uniform(0.0, 50.0)]))
            a, b, c, d = (float(markets.uniform(1.5, 3.0)) * a1, *markets.uniform(0.1, 2.0, 3))
            kind = ("linear", "quadratic", "cubic", "rational")[markets.integers(4)]
            price = {"linear": f"{a} - {b}*x", "quadratic": f"{a} - {b}*x - {c}*x^2",
                     "cubic": f"{a} - {b}*x - {c}*x^2 - {d / 10}*x^3",
                     "rational": f"({a} - {b}*x)/(1 + {c}*x)"}[kind]
            m = MarketModel(ca.parse(price), CostModel(a3, a2, a1, a0), 4.0)
            want = analysis.as_rational(m.profit_expr())
            assert m.profit.rat == want and repr(m.profit.rat) == repr(want), price
            seen.add(kind)
        assert seen == {"linear", "quadratic", "cubic", "rational"}

    def test_agrees_with_the_tree_path(self):
        markets = np.random.default_rng(4242)
        seen = 0
        for _ in range(60):
            m = random_rational_market(markets)
            want = tree_profit(m)
            pa = econ.profit_analysis(m)
            got = {k: getattr(pa, k) for k in ("x_S", "x_G", "x_M", "G_max")}
            if pa.x_M is not None:
                cp = econ.cournot(m)
                assert cp.x_M == pa.x_M
                got["p_M"] = cp.p_M
                seen += 1
            else:
                got["p_M"] = None
            for k, v in want.items():
                assert (got[k] is None) == (v is None), k
                assert v is None or abs(got[k] - v) <= 1e-12 * abs(v), (k, got[k], v)
        assert seen >= 30

    def test_one_conversion_and_no_tree_derivatives_of_G(self, monkeypatch):
        from ecomath.calculus import analysis

        m = MarketModel(MARKET.price, MARKET.cost, MARKET.x_max)  # nothing solved on it yet
        calls = {"as_rational": [], "differentiate": [], "roots": []}
        for name, log in calls.items():
            fn = getattr(ca, name)
            wrapped = (lambda fn, log: lambda e, *a, **k: log.append(e) or fn(e, *a, **k))(fn, log)
            monkeypatch.setattr(ca, name, wrapped)
            monkeypatch.setattr(analysis, name, wrapped)
        pa, cp = econ.profit_analysis(m), econ.cournot(m)
        assert pa.x_M == cp.x_M == pytest.approx(3.775, abs=1e-3)
        # the two steps together convert no tree: G's lists come from p's and K's,
        # and cournot reads what profit_analysis solved
        assert calls["as_rational"] == []
        assert calls["roots"] == []
        assert all(e == m.price for e in calls["differentiate"])
        assert m.profit.rat == analysis.as_rational(m.profit_expr())

    def test_cournot_reuses_the_roots_of_an_exponential_price(self, monkeypatch):
        from ecomath.calculus import analysis

        price, cost = ca.parse("60*exp(-0.1*x)"), CostModel(1, -6, 15, 4)
        m, fresh = MarketModel(price, cost, 10.0), MarketModel(price, cost, 10.0)
        calls = []
        scan = analysis._tree_roots
        monkeypatch.setattr(analysis, "_tree_roots",
                            lambda e, *a, **k: calls.append(e) or scan(e, *a, **k))
        pa = econ.profit_analysis(m)
        cp = econ.cournot(m)
        assert len(calls) == 2  # the zeros of G and of G', each solved once
        assert pa.x_M is not None and cp.x_M == pa.x_M == econ.cournot(fresh).x_M
        # the kept G is no field: the model stays frozen, equal and hashed as before
        assert m == fresh and hash(m) == hash(fresh)
        with pytest.raises(AttributeError):
            m.x_max = 5.0

    def test_each_derivative_of_an_exponential_price_is_taken_once(self, monkeypatch):
        from ecomath.calculus import analysis

        calls = []
        differentiate = ca.differentiate
        spy = lambda e: calls.append(e) or differentiate(e)
        monkeypatch.setattr(ca, "differentiate", spy)
        monkeypatch.setattr(analysis, "differentiate", spy)
        # the grid check takes p' and keeps it for cournot
        m = MarketModel(ca.parse("60*exp(-0.1*x)"), CostModel(1, -6, 15, 4), 10.0)
        econ.profit_analysis(m)
        econ.cournot(m)
        G = m.profit
        # p', G' (the scan's Newton step and the sign of G' at the zeros of G)
        # and G'' (the scan of G' and the sign of G'' at its zeros): once each
        assert calls == [m.price, G.e, G.d.e]

    def test_ratio_optimum_agrees_with_the_tree_path(self):
        G = MARKET.profit_expr()
        out = econ.ratio_optimum(G, ca.X, 0.55, 5.7)
        # G/x is stationary where G'x - G = 0
        stationarity = ca.sub(ca.mul(ca.differentiate(G), ca.X), G)
        assert out.x == pytest.approx(ca.roots(stationarity, 0.55, 5.7)[0], rel=1e-12)
        assert out.value == pytest.approx(ca.evaluate(G, out.x) / out.x, rel=1e-12)


class TestMarketStrategies:
    def test_worked_example(self):
        out = econ.market_strategies(ca.parse("10-x"), ca.parse("x"), 0, 10)
        assert out.U1 == pytest.approx(25.0, abs=1e-9)
        assert out.consumer_surplus == pytest.approx(12.5, abs=1e-9)
        assert out.producer_surplus == pytest.approx(12.5, abs=1e-9)
        assert out.U2 == pytest.approx(37.5, abs=1e-9)
        assert out.U3 == pytest.approx(12.5, abs=1e-9)

    def test_upper_bound_at_equilibrium(self):
        out = econ.market_strategies(ca.parse("10-x"), ca.parse("x"), 0, 5)
        assert out.consumer_surplus == pytest.approx(0.0, abs=1e-12)
        assert out.U2 == pytest.approx(out.U1)

    def test_lower_bound_at_equilibrium(self):
        out = econ.market_strategies(ca.parse("10-x"), ca.parse("x"), 5, 10)
        assert out.producer_surplus == pytest.approx(0.0, abs=1e-12)
        assert out.U3 == pytest.approx(out.U1)

    def test_ordering_and_consistency(self):
        out = econ.market_strategies(ca.parse("10-x"), ca.parse("x"), 0, 10)
        assert out.U2 >= out.U1 >= out.U3
        assert out.U2 - out.U1 == pytest.approx(out.consumer_surplus)
        assert out.U1 - out.U3 == pytest.approx(out.producer_surplus)


class TestPsychValue:
    def test_zero(self):
        assert econ.psych_value(0.0, 3.0) == 0.0

    def test_gain(self):
        assert econ.psych_value(9.0, 1.0) == pytest.approx(1.0)

    def test_loss_aversion_worked(self):
        assert econ.psych_value(-9.0, 1.0) == pytest.approx(-2.0)

    def test_loss_aversion_identity(self):
        xs = rng.uniform(0, 100, size=1000)
        for x in xs:
            assert econ.psych_value(-x, 2.5) == -2.0 * econ.psych_value(x, 2.5)

    def test_increasing_and_concave_for_gains(self):
        xs = np.linspace(0.01, 50, 256)
        vals = [econ.psych_value(x, 1.0) for x in xs]
        diffs = np.diff(vals)
        assert np.all(diffs > 0)  # strictly increasing
        assert np.all(np.diff(diffs) < 0)  # concave

    def test_scale_must_be_positive(self):
        with pytest.raises(EconError):
            econ.psych_value(1.0, 0.0)
