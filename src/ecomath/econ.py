"""Applied microeconomics on top of the calculus layer.

Cost-phase analysis for cubic total-cost functions, profit and Cournot
analysis for a monopolist, ratio optima (average profit, efficiency),
market equilibrium with surplus strategies, and the piecewise-logarithmic
psychological value function; none of it loads NumPy.  Profit, ratio, price,
demand and supply functions are calculus.analysis' _Fn objects.
"""

from __future__ import annotations

import functools
import math

from . import calculus as ca
from .calculus import Expr
from .calculus import analysis as an
from .numeric import _FrozenRecord, check_args, check_result


class EconError(ValueError):
    pass


class _Record(_FrozenRecord):
    """A result record; to_dict gives its fields in order, a nested record as a dict."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {f: v.to_dict() if isinstance(v, _Record) else v
                for f, v in zip(self._fields, self._values())}


# ---------------------------------------------------------------------------
# Cost models and cost-phase analysis
# ---------------------------------------------------------------------------

class CostModel(_FrozenRecord):
    """Total costs K(x) = a3 x^3 + a2 x^2 + a1 x + a0 in currency units.

    The coefficient constraints produce the classical S-shape: positive and
    increasing everywhere, concave then convex, with fixed costs a0.
    """

    __slots__ = ("a3", "a2", "a1", "a0")
    _defaults = {"a0": 0.0}

    def __post_init__(self):
        check_args(EconError, a3=self.a3, a1=self.a1)
        check_args(EconError, -math.inf, 0.0, a2=self.a2)
        check_args(EconError, 0.0, closed=True, a0=self.a0)
        if not self.a2 ** 2 - 3.0 * self.a3 * self.a1 < 0:
            raise EconError(
                "a2^2 - 3 a3 a1 must be negative (marginal costs would hit zero)"
            )

    def coeffs(self) -> list[float]:
        """[a0, a1, a2, a3] as floats, lowest degree first, with 0.0 for a0 =
        -0.0: the list as_rational converts expr() to."""
        return [0.0 + v for v in map(float, (self.a0, self.a1, self.a2, self.a3))]

    def expr(self) -> Expr:
        return ca.expr_from_poly(self.coeffs())

    def variable_expr(self) -> Expr:
        """Variable costs K_v = K - a0."""
        return ca.expr_from_poly([0.0, self.a1, self.a2, self.a3])

    def total(self, x: float) -> float:
        return ((self.a3 * x + self.a2) * x + self.a1) * x + self.a0

    def marginal(self, x: float) -> float:
        return (3.0 * self.a3 * x + 2.0 * self.a2) * x + self.a1


class CostAnalysis(_FrozenRecord):
    __slots__ = (
        "x_W",  # inflection of K; minimum of marginal costs
        "x_g1",  # minimum of variable average costs
        "x_g2",  # minimum of average costs (minimum efficient scale)
        "marginal_min",  # K'(x_W)
        "tangent_g1",  # (slope, intercept) at x_g1
        "tangent_g2",  # (slope, intercept) at x_g2
        "mes_coincides_with_g1",  # a0 = 0 edge case
    )

    def to_dict(self) -> dict:
        return {
            "x_W": self.x_W,
            "x_g1": self.x_g1,
            "x_g2": self.x_g2,
            "marginal_min": self.marginal_min,
            "tangent_g1": {"slope": self.tangent_g1[0], "intercept": self.tangent_g1[1]},
            "tangent_g2": {"slope": self.tangent_g2[0], "intercept": self.tangent_g2[1]},
            "mes_coincides_with_g1": self.mes_coincides_with_g1,
        }


def cost_analysis(c: CostModel) -> CostAnalysis:
    """Locate the production-phase boundaries of a cubic cost function.

    Phase I ends at the inflection x_W = -a2/(3 a3), where marginal costs
    bottom out.  Phase II ends at x_g1 = -a2/(2 a3), where variable average
    costs meet marginal costs.  Phase III ends at the minimum efficient
    scale x_g2, the positive root of 2 a3 x^3 + a2 x^2 - a0 = 0, where full
    average costs meet marginal costs.
    """
    x_W = -c.a2 / (3.0 * c.a3)
    x_g1 = -c.a2 / (2.0 * c.a3)

    if c.a0 == 0.0:
        x_g2, coincides = x_g1, True
    else:
        # the cubic is -a0 < 0 at 0 and a3 > 0, so its largest real root is positive
        x_g2, coincides = max(ca.poly_real_roots([-c.a0, 0.0, c.a2, 2.0 * c.a3])), False

    # the defining tangency conditions, asserted as numeric sanity checks
    kv_avg = c.total(x_g1) - c.a0
    if abs(kv_avg / x_g1 - c.marginal(x_g1)) > 1e-7 * (1.0 + abs(c.marginal(x_g1))):
        raise EconError("variable average cost tangency failed at x_g1")
    if abs(c.total(x_g2) / x_g2 - c.marginal(x_g2)) > 1e-7 * (1.0 + abs(c.marginal(x_g2))):
        raise EconError("average cost tangency failed at x_g2")

    slope1 = c.marginal(x_g1)
    slope2 = c.marginal(x_g2)
    return CostAnalysis(
        x_W=x_W,
        x_g1=x_g1,
        x_g2=x_g2,
        marginal_min=c.marginal(x_W),
        tangent_g1=(slope1, c.total(x_g1) - slope1 * x_g1),  # intercept = a0
        tangent_g2=(slope2, c.total(x_g2) - slope2 * x_g2),  # intercept = 0
        mes_coincides_with_g1=coincides,
    )


# ---------------------------------------------------------------------------
# Market models, profit and Cournot analysis
# ---------------------------------------------------------------------------

class MarketModel(_FrozenRecord):
    """A monopolist's unit-price function p(x) and cost model on [0, x_max].

    price_fn (p) and profit (G = x p(x) - K(x)) are analysis._Fn objects and
    price_slope the tree of p', each built on first use and kept in the
    model's __dict__ (no field: equality, hash and repr see price, cost and
    x_max only), so G, G', G'' and the roots of G' are solved, and p' taken,
    once for all the analyses of one model."""

    __slots__ = ("price", "cost", "x_max", "__dict__")

    def __post_init__(self):
        if not 0 < self.x_max < math.inf:
            raise EconError(f"window must be finite with positive length, got x_max={self.x_max}")
        if flaw := self.price_fn.monotone_flaw(0.0, self.x_max, increasing=False):
            raise EconError(f"price function must be strictly decreasing; {flaw}")

    def revenue_expr(self) -> Expr:
        return ca.mul(ca.X, self.price)

    def profit_expr(self) -> Expr:
        return ca.sub(self.revenue_expr(), self.cost.expr())

    @functools.cached_property
    def profit(self) -> an._Fn:
        """G with its tree; for a rational price, G's lists are formed from
        p's and K's, by the products and the difference that converting the
        tree x p(x) - K(x) takes (the price is no constant, so mul and sub
        fold nothing)."""
        p = self.price_fn.rat
        rat = p and an._rational_sum(an._rational_product(([0.0, 1.0], [1.0]), p),
                                     (self.cost.coeffs(), [1.0]), subtract=True)
        return an._Fn(self.profit_expr(), rat)

    @functools.cached_property
    def price_fn(self) -> an._Fn:
        return an._Fn(self.price)

    @functools.cached_property
    def price_slope(self) -> Expr:  # p', taken once (a rational price_fn.d has no tree)
        return self.price_fn.d.e or ca.differentiate(self.price)


class ProfitAnalysis(_Record):
    __slots__ = (
        "x_S",  # break-even: G = 0, G' > 0
        "x_G",  # end of the profitable zone: G = 0, G' < 0
        "x_M",  # maximum profit: G' = 0, G'' < 0
        "G_max",
        "parallel_tangent_gap",  # |E'(x_M) - K'(x_M)|
    )


def profit_analysis(m: MarketModel) -> ProfitAnalysis:
    """Break-even point, end of the profitable zone, and profit maximum.

    G is m.profit, so what is solved here is kept for cournot on the same
    model; a rational G is solved on its coefficient lists (an._Fn).  The
    gap |E'(x_M) - K'(x_M)| is |G'(x_M)|.  Absent features (a market that never
    turns a profit, say) are reported as None rather than raised.
    """
    G = m.profit
    x_S = x_G = None
    for r in G.roots(0.0, m.x_max):
        slope = G.d(r)
        if slope > 0 and x_S is None:
            x_S = r
        elif slope < 0:
            x_G = r

    x_M = G.best_maximum(0.0, m.x_max)
    G_max = gap = None
    if x_M is not None:
        G_max, gap = G(x_M), abs(G.d(x_M))
    return ProfitAnalysis(x_S=x_S, x_G=x_G, x_M=x_M, G_max=G_max, parallel_tangent_gap=gap)


class CournotPoint(_Record):
    __slots__ = ("x_M", "p_M", "amoroso_robinson_residual")


def cournot(m: MarketModel) -> CournotPoint:
    """The profit-optimal quantity/price pair, cross-checked against the
    Amoroso-Robinson relation p(x_M) = K'(x_M) / (1 + eps_p(x_M)); x_M as in
    profit_analysis, from the same m.profit, so after profit_analysis on the
    model it solves nothing again (and it skips the zeros of G)."""
    x_M = m.profit.best_maximum(0.0, m.x_max)
    if x_M is None:
        raise EconError("no profit maximum in the window; Cournot point undefined")
    p_M = ca.evaluate(m.price, x_M)
    eps_p = x_M * ca.evaluate(m.price_slope, x_M) / p_M
    if abs(1.0 + eps_p) <= 1e-12:
        raise EconError("price elasticity is -1 at the optimum; relation degenerates")
    residual = abs(p_M - m.cost.marginal(x_M) / (1.0 + eps_p))
    return CournotPoint(x_M=x_M, p_M=p_M, amoroso_robinson_residual=residual)


# ---------------------------------------------------------------------------
# Ratio optima: average profit, economic efficiency
# ---------------------------------------------------------------------------

class RatioOptimum(_Record):
    # elasticity_gap is |eps_num(x) - eps_den(x)|, the optimality certificate
    __slots__ = ("x", "value", "elasticity_gap")


def ratio_optimum(numerator: Expr, denominator: Expr, lo: float, hi: float) -> RatioOptimum:
    """Maximize numerator/denominator on (lo, hi).

    Solves (num/den)' = 0 with a second-derivative sign check, on the
    ratio's coefficient lists when both are rational (an._Fn).  At the optimum
    the elasticities of numerator and denominator agree (for denominator = x
    this is the unit-elasticity condition).
    """
    if not 0 <= lo < hi < math.inf:
        raise EconError(f"need finite 0 <= lo < hi, got [{lo}, {hi}]")
    eps = max(1e-9, (hi - lo) * 1e-9)
    ratio = an._Fn(ca.div(numerator, denominator))
    x_star = ratio.best_maximum(lo + eps, hi - eps)
    if x_star is None:
        raise EconError("no interior maximum of the ratio found")
    gap = abs(ca.elasticity(numerator, x_star) - ca.elasticity(denominator, x_star))
    return RatioOptimum(x=x_star, value=ratio(x_star), elasticity_gap=gap)


# ---------------------------------------------------------------------------
# Market equilibrium and surplus strategies
# ---------------------------------------------------------------------------

class Equilibrium(_Record):
    __slots__ = (
        "p_M", "quantity",
        "p_prohibitive",  # price at which demand dries up
        "x_saturation",  # demand at price zero
    )


def _check_monotone(e: Expr, lo: float, hi: float, increasing: bool, name: str) -> an._Fn:
    """e as an _Fn, or EconError unless _Fn.monotone_flaw finds no flaw on [lo, hi]."""
    f, kind = an._Fn(e), "increasing" if increasing else "decreasing"
    if flaw := f.monotone_flaw(lo, hi, increasing):
        raise EconError(f"{name} must be monotonously {kind} on the window; {flaw}")
    return f


def equilibrium(demand: Expr, supply: Expr, p_lo: float, p_hi: float) -> Equilibrium:
    """Market price p_M with A(p_M) = N(p_M); also the prohibitive price
    (root of demand) and the saturation quantity N(0) when visible."""
    if not -math.inf < p_lo < p_hi < math.inf:
        raise EconError(f"need finite p_lo < p_hi, got [{p_lo}, {p_hi}]")
    N = _check_monotone(demand, p_lo, p_hi, increasing=False, name="demand")
    A = _check_monotone(supply, p_lo, p_hi, increasing=True, name="supply")

    if N.rat and A.rat:  # A - N as as_rational(ca.sub(supply, demand)) takes it
        crossings = an._Fn(None, an._rational_sum(A.rat, N.rat, subtract=True)).roots(p_lo, p_hi)
    else:
        crossings = ca.roots(ca.sub(supply, demand), p_lo, p_hi)
    if not crossings:
        raise EconError("demand and supply do not intersect in the window")
    p_M = crossings[0]

    proh = N.roots(p_lo, p_hi)
    p_proh = proh[0] if proh else None
    x_sat = ca.evaluate(demand, 0.0) if p_lo <= 0.0 <= p_hi else None

    return Equilibrium(
        p_M=p_M,
        quantity=ca.evaluate(demand, p_M),
        p_prohibitive=p_proh,
        x_saturation=x_sat,
    )


class MarketStrategies(_Record):
    __slots__ = (
        "equilibrium",  # an Equilibrium record
        "U1",  # revenue selling all units at the equilibrium price
        "U2",  # U1 plus the consumer surplus (perfect price discrimination)
        "U3",  # U1 minus the producer surplus (marginal-cost pricing)
        "consumer_surplus", "producer_surplus",
    )


def market_strategies(
    demand: Expr, supply: Expr, p_lo: float, p_hi: float
) -> MarketStrategies:
    """The three selling strategies around the equilibrium price.

    U1 = p_M N(p_M); U2 adds the consumer surplus (demand integrated above
    p_M); U3 subtracts the producer surplus (supply integrated below p_M).
    """
    eq = equilibrium(demand, supply, p_lo, p_hi)
    cs = ca.integrate(demand, eq.p_M, p_hi)
    ps = ca.integrate(supply, p_lo, eq.p_M)
    u1 = eq.p_M * eq.quantity
    return MarketStrategies(
        equilibrium=eq,
        U1=u1,
        U2=u1 + cs,
        U3=u1 - ps,
        consumer_surplus=cs,
        producer_surplus=ps,
    )


# ---------------------------------------------------------------------------
# Psychological value function
# ---------------------------------------------------------------------------

def psych_value(x: float, a: float) -> float:
    """Kahneman-Tversky style value of a gain/loss x:
    a*log10(1+x) for gains, -2a*log10(1-x) for losses (loss aversion)."""
    check_args(EconError, a=a)
    check_args(EconError, -math.inf, x=x)
    if x >= 0:
        return check_result(EconError, value=a * math.log10(1.0 + x))
    return check_result(EconError, value=-2.0 * a * math.log10(1.0 - x))
