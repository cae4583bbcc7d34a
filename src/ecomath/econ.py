"""Applied microeconomics on top of the calculus layer.

Cost-phase analysis for cubic total-cost functions, profit and Cournot
analysis for a monopolist, ratio optima (average profit, efficiency),
market equilibrium with surplus strategies, and the piecewise-logarithmic
psychological value function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import calculus as ca
from .calculus import Expr

MONOTONE_GRID = 256  # grid density for monotonicity precondition checks


class EconError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Cost models and cost-phase analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostModel:
    """Total costs K(x) = a3 x^3 + a2 x^2 + a1 x + a0 in currency units.

    The coefficient constraints produce the classical S-shape: positive and
    increasing everywhere, concave then convex, with fixed costs a0.
    """

    a3: float
    a2: float
    a1: float
    a0: float = 0.0

    def __post_init__(self):
        if not self.a3 > 0:
            raise EconError(f"a3 must be positive, got {self.a3}")
        if not self.a1 > 0:
            raise EconError(f"a1 must be positive, got {self.a1}")
        if not self.a2 < 0:
            raise EconError(f"a2 must be negative, got {self.a2}")
        if self.a0 < 0:
            raise EconError(f"a0 must be non-negative, got {self.a0}")
        if not self.a2 ** 2 - 3.0 * self.a3 * self.a1 < 0:
            raise EconError(
                "a2^2 - 3 a3 a1 must be negative (marginal costs would hit zero)"
            )

    def expr(self) -> Expr:
        return ca.expr_from_poly([self.a0, self.a1, self.a2, self.a3])

    def variable_expr(self) -> Expr:
        """Variable costs K_v = K - a0."""
        return ca.expr_from_poly([0.0, self.a1, self.a2, self.a3])

    def total(self, x: float) -> float:
        return ((self.a3 * x + self.a2) * x + self.a1) * x + self.a0

    def marginal(self, x: float) -> float:
        return (3.0 * self.a3 * x + 2.0 * self.a2) * x + self.a1


@dataclass(frozen=True)
class CostAnalysis:
    x_W: float      # inflection of K; minimum of marginal costs
    x_g1: float     # minimum of variable average costs
    x_g2: float     # minimum of average costs (minimum efficient scale)
    marginal_min: float                    # K'(x_W)
    tangent_g1: tuple[float, float]        # (slope, intercept) at x_g1
    tangent_g2: tuple[float, float]        # (slope, intercept) at x_g2
    mes_coincides_with_g1: bool            # a0 = 0 edge case

    def phase_boundaries(self) -> tuple[float, float, float]:
        return self.x_W, self.x_g1, self.x_g2

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

@dataclass(frozen=True)
class MarketModel:
    """A monopolist's unit-price function p(x) and cost model on [0, x_max]."""

    price: Expr
    cost: CostModel
    x_max: float

    def __post_init__(self):
        if not self.x_max > 0:
            raise EconError(f"window must have positive length, got x_max={self.x_max}")
        dp = ca.differentiate(self.price)
        for x in np.linspace(self.x_max / MONOTONE_GRID, self.x_max, MONOTONE_GRID):
            if ca.evaluate(dp, float(x)) >= 0:
                raise EconError(f"price function must be strictly decreasing; p'({x:.6g}) >= 0")

    def revenue_expr(self) -> Expr:
        return ca.mul(ca.X, self.price)

    def profit_expr(self) -> Expr:
        return ca.sub(self.revenue_expr(), self.cost.expr())


@dataclass(frozen=True)
class ProfitAnalysis:
    x_S: Optional[float]    # break-even: G = 0, G' > 0
    x_G: Optional[float]    # end of the profitable zone: G = 0, G' < 0
    x_M: Optional[float]    # maximum profit: G' = 0, G'' < 0
    G_max: Optional[float]
    parallel_tangent_gap: Optional[float]  # |E'(x_M) - K'(x_M)|

    def to_dict(self) -> dict:
        return {
            "x_S": self.x_S,
            "x_G": self.x_G,
            "x_M": self.x_M,
            "G_max": self.G_max,
            "parallel_tangent_gap": self.parallel_tangent_gap,
        }


def profit_analysis(m: MarketModel) -> ProfitAnalysis:
    """Break-even point, end of the profitable zone, and profit maximum.

    Absent features (a market that never turns a profit, say) are reported
    as None rather than raised.
    """
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

    x_M = G_max = gap = None
    maxima = [r for r in ca.roots(dG, 0.0, m.x_max) if ca.evaluate(d2G, r) < 0]
    if maxima:
        # with several admissible stationary points, take the best one
        x_M = max(maxima, key=lambda r: ca.evaluate(G, r))
        G_max = ca.evaluate(G, x_M)
        dE = ca.differentiate(m.revenue_expr())
        gap = abs(ca.evaluate(dE, x_M) - m.cost.marginal(x_M))

    return ProfitAnalysis(x_S=x_S, x_G=x_G, x_M=x_M, G_max=G_max, parallel_tangent_gap=gap)


@dataclass(frozen=True)
class CournotPoint:
    x_M: float
    p_M: float
    amoroso_robinson_residual: float

    def to_dict(self) -> dict:
        return {
            "x_M": self.x_M,
            "p_M": self.p_M,
            "amoroso_robinson_residual": self.amoroso_robinson_residual,
        }


def cournot(m: MarketModel) -> CournotPoint:
    """The profit-optimal quantity/price pair, cross-checked against the
    Amoroso-Robinson relation p(x_M) = K'(x_M) / (1 + eps_p(x_M))."""
    pa = profit_analysis(m)
    if pa.x_M is None:
        raise EconError("no profit maximum in the window; Cournot point undefined")
    x_M = pa.x_M
    p_M = ca.evaluate(m.price, x_M)
    eps_p = x_M * ca.evaluate(ca.differentiate(m.price), x_M) / p_M
    if abs(1.0 + eps_p) <= 1e-12:
        raise EconError("price elasticity is -1 at the optimum; relation degenerates")
    residual = abs(p_M - m.cost.marginal(x_M) / (1.0 + eps_p))
    return CournotPoint(x_M=x_M, p_M=p_M, amoroso_robinson_residual=residual)


# ---------------------------------------------------------------------------
# Ratio optima: average profit, economic efficiency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioOptimum:
    x: float
    value: float
    elasticity_gap: float  # |eps_num(x) - eps_den(x)|, the optimality certificate

    def to_dict(self) -> dict:
        return {"x": self.x, "value": self.value, "elasticity_gap": self.elasticity_gap}


def ratio_optimum(numerator: Expr, denominator: Expr, lo: float, hi: float) -> RatioOptimum:
    """Maximize numerator/denominator on (lo, hi).

    Solves num'*den - num*den' = 0 with a second-derivative sign check.
    At the optimum the elasticities of numerator and denominator agree
    (for denominator = x this is the unit-elasticity condition).
    """
    if not 0 <= lo < hi:
        raise EconError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
    stationarity = ca.sub(
        ca.mul(ca.differentiate(numerator), denominator),
        ca.mul(numerator, ca.differentiate(denominator)),
    )
    ratio = ca.div(numerator, denominator)
    d2 = ca.differentiate(ca.differentiate(ratio))

    eps = max(1e-9, (hi - lo) * 1e-9)
    best = None
    for r in ca.roots(stationarity, lo + eps, hi - eps):
        try:
            if ca.evaluate(d2, r) >= 0:
                continue
        except ca.EvalDomainError:
            continue
        val = ca.evaluate(ratio, r)
        if best is None or val > best[1]:
            best = (r, val)
    if best is None:
        raise EconError("no interior maximum of the ratio found")

    x_star, value = best
    gap = abs(ca.elasticity(numerator, x_star) - ca.elasticity(denominator, x_star))
    return RatioOptimum(x=x_star, value=value, elasticity_gap=gap)


# ---------------------------------------------------------------------------
# Market equilibrium and surplus strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Equilibrium:
    p_M: float
    quantity: float
    p_prohibitive: Optional[float]  # price at which demand dries up
    x_saturation: Optional[float]   # demand at price zero

    def to_dict(self) -> dict:
        return {
            "p_M": self.p_M,
            "quantity": self.quantity,
            "p_prohibitive": self.p_prohibitive,
            "x_saturation": self.x_saturation,
        }


def _check_monotone(e: Expr, lo: float, hi: float, increasing: bool, name: str):
    de = ca.differentiate(e)
    for x in np.linspace(lo, hi, MONOTONE_GRID):
        try:
            v = ca.evaluate(de, float(x))
        except ca.EvalDomainError:
            continue
        if (increasing and v <= 0) or (not increasing and v >= 0):
            kind = "increasing" if increasing else "decreasing"
            raise EconError(f"{name} must be monotonously {kind} on the window")


def equilibrium(demand: Expr, supply: Expr, p_lo: float, p_hi: float) -> Equilibrium:
    """Market price p_M with A(p_M) = N(p_M); also the prohibitive price
    (root of demand) and the saturation quantity N(0) when visible."""
    if not p_lo < p_hi:
        raise EconError(f"need p_lo < p_hi, got [{p_lo}, {p_hi}]")
    _check_monotone(demand, p_lo, p_hi, increasing=False, name="demand")
    _check_monotone(supply, p_lo, p_hi, increasing=True, name="supply")

    crossings = ca.roots(ca.sub(supply, demand), p_lo, p_hi)
    if not crossings:
        raise EconError("demand and supply do not intersect in the window")
    p_M = crossings[0]

    proh = ca.roots(demand, p_lo, p_hi)
    p_proh = proh[0] if proh else None
    x_sat = ca.evaluate(demand, 0.0) if p_lo <= 0.0 <= p_hi else None

    return Equilibrium(
        p_M=p_M,
        quantity=ca.evaluate(demand, p_M),
        p_prohibitive=p_proh,
        x_saturation=x_sat,
    )


@dataclass(frozen=True)
class MarketStrategies:
    equilibrium: Equilibrium
    U1: float  # revenue selling all units at the equilibrium price
    U2: float  # U1 plus the consumer surplus (perfect price discrimination)
    U3: float  # U1 minus the producer surplus (marginal-cost pricing)
    consumer_surplus: float
    producer_surplus: float

    def to_dict(self) -> dict:
        return {
            "equilibrium": self.equilibrium.to_dict(),
            "U1": self.U1,
            "U2": self.U2,
            "U3": self.U3,
            "consumer_surplus": self.consumer_surplus,
            "producer_surplus": self.producer_surplus,
        }


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
    if a <= 0:
        raise EconError(f"scale a must be positive, got {a}")
    if x >= 0:
        return a * math.log10(1.0 + x)
    return -2.0 * a * math.log10(1.0 - x)
