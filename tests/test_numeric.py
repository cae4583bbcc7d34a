"""The shared bracketed root finder against closed-form roots."""

import math

import pytest

from ecomath.numeric import NoSignChangeError, brent


@pytest.mark.parametrize(
    "f, a, b, root",
    [
        (lambda x: x * x - 2.0, 0.0, 2.0, math.sqrt(2.0)),
        (lambda x: x ** 3 - 2.0, -1.0, 5.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: math.exp(x) - 5.0, 0.0, 10.0, math.log(5.0)),
        (lambda x: math.cos(x), 0.0, 3.0, math.pi / 2.0),
        (lambda x: 1.0 / x - 4.0, 0.01, 1.0, 0.25),
        (lambda x: (x - 1.0) ** 3, -3.0, 2.0, 1.0),  # triple root, no slope
        (lambda x: math.atan(x - 0.3), -1e3, 1e3, 0.3),  # flat far from the root
    ],
)
def test_closed_form_roots(f, a, b, root):
    x = brent(f, a, b)
    assert abs(x - root) <= 2e-12 + 1e-15 * abs(root)
    assert brent(f, b, a) == pytest.approx(root, abs=2e-12)  # either orientation


def test_exact_root_at_an_end():
    assert brent(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert brent(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_infinite_end_value_is_bisected_not_interpolated():
    def f(x):  # overflows to +inf at the top of the bracket
        return math.inf if x > 700.0 else math.exp(x) - 5.0

    assert brent(f, 0.0, 1e3) == pytest.approx(math.log(5.0), abs=2e-12)


def test_xtol_sets_the_accuracy():
    # near 0 the relative part of the tolerance vanishes
    for xtol in (1e-3, 1e-8, 1e-14):
        x = brent(lambda t: math.sin(t - 1e-5), -2.0, 1.0, xtol=xtol)
        assert abs(x - 1e-5) <= xtol


@pytest.mark.parametrize("xtol", [0.0, -1e-3, math.nan])
def test_xtol_must_be_positive(xtol):
    with pytest.raises(ValueError, match="xtol"):
        brent(lambda x: x, -1.0, 1.0, xtol=xtol)


@pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -2.0), (math.nan, 1.0), (-1.0, math.nan)])
def test_no_sign_change_rejected(fa, fb):
    with pytest.raises(NoSignChangeError):
        brent(lambda x: fa if x == 0.0 else fb, 0.0, 1.0)


@pytest.mark.parametrize(
    "power, a, b, xtol",
    [
        (21.0, 1.0 + 1e-12, 1e3, 2e-12),  # flat multiple root
        (21.0, -1e12, 1e12, 1e-10),  # 2^74 tolerances wide
        (0.05, -1e100, 1e100, 1e-10),  # cusp: steep at the root, flat elsewhere
    ],
)
def test_hard_roots_within_the_step_budget(power, a, b, xtol):
    # each step costs one evaluation; the two ends cost two more
    calls = []

    def f(x):
        calls.append(x)
        return math.copysign(abs(x - 1.7) ** power, x - 1.7)

    x = brent(f, a, b, xtol=xtol)
    assert abs(x - 1.7) <= xtol
    assert len(calls) <= int(3.0 * math.log2((b - a) / xtol + 1.0)) + 4 + 2


def test_tiny_xtol_leaves_the_relative_accuracy():
    # 4 / 2^-1022 is past the float range; the step budget is worked out in logs
    x = brent(lambda t: t * t - 2.0, 0.0, 4.0, xtol=2.0 ** -1022)
    assert x == pytest.approx(math.sqrt(2.0), rel=4e-15)


class TestRecordConstructor:
    """_FrozenRecord.__init__: every field by position or by keyword, in any
    order, gives one record; a field missing, unknown, repeated or surplus is
    the same TypeError on every path."""

    def test_keywords_in_any_order_are_the_positional_record(self):
        from ecomath.econ import CostModel, ProfitAnalysis
        fields = dict(x_S=1.0, x_G=5.0, x_M=3.0, G_max=2.0, parallel_tangent_gap=0.0)
        want = ProfitAnalysis(*fields.values())
        assert ProfitAnalysis(**fields) == want
        assert ProfitAnalysis(**dict(reversed(fields.items()))) == want
        assert CostModel(a0=4.0, a1=15.0, a2=-6.0, a3=1.0) == CostModel(1.0, -6.0, 15.0, 4.0)
        assert CostModel(a3=1.0, a2=-6.0, a1=15.0) == CostModel(1.0, -6.0, 15.0, 0.0)

    @pytest.mark.parametrize("args, kwargs", [
        ((), dict(a3=1.0, a2=-6.0, a0=4.0)),  # a1 missing
        ((), dict(a3=1.0, a2=-6.0, a1=15.0, a0=4.0, b=1.0)),  # unknown
        ((), dict(a3=1.0, a2=-6.0, a1=15.0, b=1.0)),  # as many as the fields, one unknown
        ((1.0,), dict(a3=1.0, a2=-6.0, a1=15.0, a0=4.0)),  # a3 twice
        ((1.0, -6.0, 15.0, 4.0, 5.0), {}),  # surplus
        ((), {}),
    ])
    def test_a_wrong_field_set_is_a_type_error(self, args, kwargs):
        from ecomath.econ import CostModel
        with pytest.raises(TypeError, match=r"CostModel\(\) takes the fields \('a3', 'a2', 'a1', 'a0'\)"):
            CostModel(*args, **kwargs)
