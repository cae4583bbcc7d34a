"""Every public function of finmath, econ and calculus.analysis, and the
records that check their numbers, refuse NaN, +inf and -inf in each scalar
numeric argument with the module's error type (numeric.check_args)."""

import inspect
import math

import pytest

from ecomath import calculus as ca
from ecomath import econ, finmath
from ecomath.calculus import analysis
from ecomath.numeric import check_args

X2 = ca.parse("x^2")
PRICE = ca.parse("20-x")
COST = econ.CostModel(1.0, -6.0, 15.0, 4.0)
GEOM = finmath.SequenceSpec("geom", 2.0, 3.0)

# (function, valid keyword arguments); each numeric argument given is replaced in turn
CALLS = [
    (finmath.seq_term, dict(s=GEOM, n=3)),
    (finmath.series_sum, dict(s=GEOM, n=3)),
    (finmath.interest_factor, dict(p=5.0)),
    (finmath.compound_solve, dict(K0=100.0, q=1.05, n=2.0)),
    (finmath.compound_solve, dict(Kn=110.25, q=1.05, n=2.0)),
    (finmath.effective_rate, dict(p_nom=12.0, m=12)),
    (finmath.installment_solve, dict(E=100.0, q=1.05, n=2.0)),
    (finmath.installment_solve, dict(Kn=215.25, E=100.0, n=2.0)),
    (finmath.installment_present_value, dict(E=100.0, q=1.05, n=2.0)),
    (finmath.annuity_from_rates, dict(R0=1e5, p=5.0, t=2.0)),
    (finmath.remaining_debt, dict(R0=1e5, q=1.05, A=7000.0, n=3.0)),
    (finmath.redemption_duration, dict(p=5.0, t=2.0)),
    (finmath.redemption_plan, dict(R0=1e5, p=5.0, t=2.0, horizon=3)),
    (finmath.redemption_plan, dict(R0=1e5, p=5.0, A=7000.0)),
    (finmath.redemption_solve, dict(R0=1e5, q=1.05, n=10.0, A=12950.4574965456)),
    (finmath.redemption_solve, dict(Rn=0.0, R0=1e5, q=1.05, A=12950.4574965456)),
    (finmath.pension_balance, dict(K0=1e5, q=1.05, m=12, a=500.0, n=3.0)),
    (finmath.pension_duration, dict(K0=1e5, q=1.05, m=12, a=1500.0)),
    (finmath.pension_present_value, dict(q=1.05, m=12, a=500.0, n=3.0)),
    (finmath.everlasting_pension, dict(K0=1e5, q=1.05, m=12)),
    (finmath.pension_plan, dict(K0=1e5, p=5.0, m=12, a=500.0, horizon=3)),
    (finmath.pension_plan, dict(K0=1e5, p=5.0, m=12, a=1500.0, horizon=3)),
    (finmath.depreciation_linear, dict(K0=1000.0, N=5, n=2)),
    (finmath.depreciation_declining, dict(K0=1000.0, p=20.0, n=3)),
    (finmath.depreciation_declining, dict(K0=1000.0, n=3, Rn=512.0)),
    (finmath.master_formula, dict(K0=100.0, q=1.05, R=10.0, n=2.0)),
    (econ.ratio_optimum, dict(numerator=X2, denominator=ca.parse("x^3+1"), lo=0.1, hi=5.0)),
    (econ.equilibrium, dict(demand=ca.parse("10-x"), supply=ca.X, p_lo=0.0, p_hi=10.0)),
    (econ.market_strategies, dict(demand=ca.parse("10-x"), supply=ca.X, p_lo=0.0, p_hi=10.0)),
    (econ.psych_value, dict(x=-0.5, a=1.0)),
    (analysis.tangent_line, dict(e=X2, x0=1.0)),
    (analysis.elasticity, dict(e=X2, x=2.0)),
    (analysis.elasticity_label, dict(eps=0.5, tol=1e-9)),
    (analysis.second_elasticity, dict(e=X2, x=2.0)),
    (analysis.roots, dict(e=ca.parse("exp(x)-2"), lo=0.0, hi=1.0, tol=1e-10)),
    (analysis.curve_report, dict(e=X2, lo=-1.0, hi=1.0)),
    (analysis.integrate, dict(e=ca.parse("exp(x^2)"), a=0.0, b=1.0, tol=1e-10)),
]

# (record class, valid fields); each numeric field is replaced in turn
RECORDS = [
    (econ.CostModel, dict(a3=1.0, a2=-6.0, a1=15.0, a0=4.0)),
    (econ.MarketModel, dict(price=PRICE, cost=COST, x_max=10.0)),
    (finmath.SequenceSpec, dict(kind="arith", a1=2.0, step=3.0)),
    (finmath.SequenceSpec, dict(kind="geom", a1=2.0, step=3.0)),
]

ERROR = {finmath: finmath.FinanceError, econ: econ.EconError, analysis: ValueError}
NUMERIC = {"float", "int", "Optional[float]", "Optional[int]"}
NON_FINITE = [math.nan, math.inf, -math.inf]


def scalar_parameters(fn) -> set:
    """The parameters annotated as a number, or left bare with default None."""
    return {p.name for p in inspect.signature(fn).parameters.values()
            if p.annotation in NUMERIC or (p.annotation is p.empty and p.default is None)}


def public_functions(module):
    return [f for name, f in inspect.getmembers(module, inspect.isfunction)
            if not name.startswith("_") and f.__module__ == module.__name__]


@pytest.mark.parametrize("module", list(ERROR), ids=lambda m: m.__name__)
def test_every_scalar_argument_has_a_row(module):
    covered = {}
    for fn, kwargs in CALLS:
        covered.setdefault(fn, set()).update(kwargs)
    for fn in public_functions(module):
        missing = scalar_parameters(fn) - covered.get(fn, set())
        assert not missing, f"{fn.__name__} has no row for {sorted(missing)}"


def test_valid_rows_run():
    for fn, kwargs in CALLS:
        fn(**kwargs)
    for cls, fields in RECORDS:
        cls(**fields)


CASES = [(fn, kwargs, name) for fn, kwargs in CALLS
         for name in sorted(scalar_parameters(fn) & set(kwargs))]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("fn, kwargs, name", CASES,
                         ids=[f"{fn.__name__}-{name}-{i}" for i, (fn, _, name) in enumerate(CASES)])
def test_non_finite_argument_refused(fn, kwargs, name, value):
    error = ERROR[inspect.getmodule(fn)]
    with pytest.raises(error):
        fn(**{**kwargs, name: value})


# (function, finite arguments, the result named, the error type, the result):
# a quotient or product leaves the float range before q^n or math.log sees
# it, or a log10 times a huge scale does
FIN, ECON = finmath.FinanceError, econ.EconError
OVERFLOWS = [
    (finmath.compound_solve, dict(K0=1e-300, Kn=1e300, q=1.05), "n", FIN, "inf"),
    (finmath.compound_solve, dict(K0=1e-300, Kn=1e300, n=2.0), "q", FIN, "inf"),
    (finmath.installment_solve, dict(Kn=1e300, E=1e-300, q=1.05), "n", FIN, "inf"),
    (finmath.installment_solve, dict(E=1e308, q=1.0001, n=2.0), "Kn", FIN, "inf"),
    (finmath.installment_present_value, dict(E=1e308, q=1.0001, n=2.0), "B0", FIN, "inf"),
    (finmath.master_formula, dict(K0=1e308, q=2.0, R=1.0, n=2.0), "Kn", FIN, "inf"),
    (econ.psych_value, dict(x=1e308, a=1e308), "value", ECON, "inf"),
    (econ.psych_value, dict(x=-1e308, a=1e308), "value", ECON, "-inf"),
]


@pytest.mark.parametrize("fn, kwargs, name, error, result", OVERFLOWS,
                         ids=[f"{row[0].__name__}-{row[2]}-{i}" for i, row in enumerate(OVERFLOWS)])
def test_result_past_the_float_range_refused(fn, kwargs, name, error, result):
    with pytest.raises(error, match=rf"^{name} must be a finite number, got {result}$"):
        fn(**kwargs)


@pytest.mark.parametrize("argv, message", [
    (["finance", "compound", "--K0", "1e-300", "--Kn", "1e300", "--q", "1.05"],
     "n must be a finite number, got inf"),
    (["--format", "json", "econ", "value", "--x", "1e308", "--a", "1e308"],
     "value must be a finite number, got inf"),
], ids=["finance", "econ"])
def test_result_past_the_float_range_exits_1(argv, message, capsys):
    from ecomath.cli import EXIT_INPUT, dispatch
    assert dispatch(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert message in err and out == ""


RECORD_CASES = [(cls, fields, name) for cls, fields in RECORDS
                for name, v in fields.items() if isinstance(v, float)]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, fields, name", RECORD_CASES,
                         ids=[f"{c.__name__}-{n}-{i}" for i, (c, _, n) in enumerate(RECORD_CASES)])
def test_record_refuses_non_finite_field(cls, fields, name, value):
    error = ERROR[inspect.getmodule(cls)]
    with pytest.raises(error, match=rf"\b{name}\b"):
        cls(**{**fields, name: value})


class TestRule:
    def test_none_is_skipped_and_the_first_failure_named(self):
        check_args(ValueError, a=None, b=1.0)
        with pytest.raises(ArithmeticError, match="b must be a finite number with b > 0, got -1.0"):
            check_args(ArithmeticError, a=1.0, b=-1.0, c=math.nan)

    @pytest.mark.parametrize("lo, hi, closed, good, bad", [
        (0.0, math.inf, False, [5e-324, 1e308], [0.0, -0.0, math.inf]),
        (1.0, math.inf, True, [1.0, 2.5], [0.999, math.inf]),
        (-math.inf, math.inf, False, [-1e308, 0.0, 1e308], [math.inf, -math.inf]),
        (0.0, 100.0, False, [1e-300, 99.9], [0.0, 100.0]),
        (1.0, 6.0, True, [1.0, 5.0], [0.5, 6.0]),
    ])
    def test_bounds(self, lo, hi, closed, good, bad):
        for v in good:
            check_args(ValueError, lo, hi, closed=closed, v=v)
        for v in bad + [math.nan]:
            with pytest.raises(ValueError, match=r"^v must "):
                check_args(ValueError, lo, hi, closed=closed, v=v)

    def test_messages(self):
        with pytest.raises(ValueError, match=r"^p must lie in \(0, 100\), got nan$"):
            check_args(ValueError, 0, 100, p=math.nan)
        with pytest.raises(ValueError, match=r"^n must lie in \[1, 6\), got 7$"):
            check_args(ValueError, 1, 6, closed=True, n=7)
        with pytest.raises(ValueError, match=r"^x must be a finite number, got inf$"):
            check_args(ValueError, -math.inf, x=math.inf)
        with pytest.raises(ValueError, match=r"^m must be a finite number with m >= 1, got 0$"):
            check_args(ValueError, 1, closed=True, m=0)
