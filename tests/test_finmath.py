"""Financial mathematics: sequences, interest, redemption, pensions,
depreciation, and the master formula."""

import math

import numpy as np
import pytest

from ecomath import finmath
from ecomath.finmath import FinanceError, SequenceSpec

rng = np.random.default_rng(987)


class TestSequences:
    def test_arith_explicit(self):
        assert finmath.seq_term(SequenceSpec("arith", 2, 3), 4) == 11.0

    def test_geom_first_element(self):
        assert finmath.seq_term(SequenceSpec("geom", 1, 2), 1) == 1.0

    def test_geom_explicit(self):
        assert finmath.seq_term(SequenceSpec("geom", 5, 0.5), 3) == 1.25

    def test_explicit_matches_recursion(self):
        for spec in (SequenceSpec("arith", 2.5, -1.5), SequenceSpec("geom", 3, 1.07)):
            a = spec.a1
            for n in range(2, 30):
                a = a + spec.step if spec.kind == "arith" else a * spec.step
                assert finmath.seq_term(spec, n) == pytest.approx(a, abs=1e-9)

    def test_gauss_identity_sum(self):
        assert finmath.series_sum(SequenceSpec("arith", 1, 1), 100) == 5050.0

    def test_geom_sum(self):
        assert finmath.series_sum(SequenceSpec("geom", 1, 2), 3) == pytest.approx(7.0)

    def test_single_term_sum(self):
        assert finmath.series_sum(SequenceSpec("arith", 4.5, 2), 1) == 4.5

    def test_sum_matches_brute_force(self):
        spec = SequenceSpec("geom", 2, 1.05)
        for n in (1, 5, 50, 200):
            brute = sum(finmath.seq_term(spec, k) for k in range(1, n + 1))
            assert finmath.series_sum(spec, n) == pytest.approx(brute, rel=1e-8)

    def test_means(self):
        arith = SequenceSpec("arith", 3, 4)
        assert finmath.seq_term(arith, 5) == 0.5 * (
            finmath.seq_term(arith, 4) + finmath.seq_term(arith, 6)
        )
        geom = SequenceSpec("geom", 2, 1.5)
        assert abs(finmath.seq_term(geom, 5)) == pytest.approx(
            math.sqrt(finmath.seq_term(geom, 4) * finmath.seq_term(geom, 6))
        )

    def test_invalid_specs(self):
        with pytest.raises(FinanceError):
            SequenceSpec("arith", 1, 0)
        with pytest.raises(FinanceError):
            SequenceSpec("geom", 1, 1.0)


class TestCompound:
    def test_two_years(self):
        assert finmath.compound_solve(K0=100, q=1.05, n=2) == pytest.approx(110.25)

    def test_present_value(self):
        assert finmath.compound_solve(Kn=110.25, q=1.05, n=2) == pytest.approx(100.0)

    def test_doubling_time(self):
        n = finmath.compound_solve(K0=100, Kn=200, q=1.05)
        assert n == pytest.approx(math.log(2) / math.log(1.05))

    def test_under_and_over_determined(self):
        with pytest.raises(FinanceError):
            finmath.compound_solve(K0=1, Kn=2)
        with pytest.raises(FinanceError):
            finmath.compound_solve(K0=1, Kn=2, q=1.05, n=3)

    def test_closed_form_matches_recursion(self):
        for _ in range(100):
            K0 = float(rng.uniform(10, 1e5))
            q = float(rng.uniform(1.001, 1.2))
            n = int(rng.integers(1, 50))
            K = K0
            for _ in range(n):
                K *= q
            assert finmath.compound_solve(K0=K0, q=q, n=n) == pytest.approx(K, rel=1e-8)


class TestEffectiveRate:
    def test_monthly(self):
        _, p_eff = finmath.effective_rate(12, 12)
        assert p_eff == pytest.approx(100 * (1.01 ** 12 - 1))

    def test_single_period_is_nominal(self):
        _, p_eff = finmath.effective_rate(5, 1)
        assert p_eff == pytest.approx(5.0)

    def test_semiannual(self):
        _, p_eff = finmath.effective_rate(10, 2)
        assert p_eff == pytest.approx(10.25)


class TestInstallment:
    def test_two_years(self):
        assert finmath.installment_solve(E=100, q=1.05, n=2) == pytest.approx(215.25)

    def test_inverse_for_E(self):
        assert finmath.installment_solve(Kn=215.25, q=1.05, n=2) == pytest.approx(100.0)

    def test_inverse_for_n(self):
        assert finmath.installment_solve(E=100, q=1.05, Kn=215.25) == pytest.approx(2.0)

    def test_present_value(self):
        # B0 discounts the final balance n times: B0 = Kn / q^n
        b0 = finmath.installment_present_value(100, 1.05, 2)
        assert b0 == pytest.approx(215.25 / 1.05 ** 2)

    def test_closed_form_matches_recursion(self):
        for _ in range(100):
            E = float(rng.uniform(10, 1000))
            q = float(rng.uniform(1.001, 1.15))
            n = int(rng.integers(1, 50))
            K = 0.0
            for _ in range(n):
                K = (K + E) * q
            assert finmath.installment_solve(E=E, q=q, n=n) == pytest.approx(K, rel=1e-8)

    def test_rate_without_root_names_q_and_bracket(self):
        # two deposits of 100 never shrink to 10 at any q > 1
        with pytest.raises(FinanceError, match=r"interest factor q in \[1\.000000000001, 1000\]"):
            finmath.installment_solve(Kn=10, E=100, n=2)

    def test_rate_with_overflow_at_the_upper_bracket(self):
        # 1000^200 overflows a float; the root q ~ 1.4 must still be found
        q = finmath.installment_solve(Kn=1e30, E=1, n=200)
        assert q * (q ** 200 - 1.0) / (q - 1.0) == pytest.approx(1e30, rel=1e-9)


class TestRedemption:
    def test_first_year_balance(self):
        plan = finmath.redemption_plan(100000, 5, t=5)
        assert plan.meta["A"] == pytest.approx(10000.0)
        assert plan.rows[0].balance == pytest.approx(95000.0)

    def test_duration_formula(self):
        n = finmath.redemption_duration(5, 5)
        assert n == pytest.approx(math.log(2) / math.log(1.05))
        assert n == pytest.approx(14.2067, abs=1e-4)

    def test_duration_independent_of_R0(self):
        base = finmath.redemption_plan(100000, 5, t=5).meta["duration_exact"]
        for factor in (0.5, 2.0, 10.0):
            scaled = finmath.redemption_plan(100000 * factor, 5, t=5).meta["duration_exact"]
            assert abs(scaled - base) < 1e-12

    def test_explicit_matches_recursive_balances(self):
        plan = finmath.redemption_plan(100000, 5, t=5)
        q, A, R0 = plan.meta["q"], plan.meta["A"], 100000
        for row in plan.rows[:-1]:  # final year uses the reduced annuity
            explicit = finmath.remaining_debt(R0, q, A, row.year)
            assert row.balance == pytest.approx(explicit, abs=1e-6)

    def test_final_year_closes_exactly(self):
        plan = finmath.redemption_plan(100000, 5, t=5)
        assert plan.rows[-1].balance == pytest.approx(0.0, abs=1e-9)
        assert plan.rows[-1].payment < plan.meta["A"]

    def test_interest_only_rejected(self):
        with pytest.raises(FinanceError):
            finmath.redemption_plan(100000, 5, A=5000.0)  # exactly the interest

    def test_solve_annuity(self):
        A = finmath.redemption_solve(R0=100000, q=1.05, n=10, Rn=0)
        assert A == pytest.approx(12950.46, abs=0.005)

    def test_solve_round_trips(self):
        quintuple = dict(R0=100000.0, q=1.05, n=10.0, A=12950.4574965456)
        Rn = finmath.redemption_solve(**quintuple)
        for missing in ("R0", "q", "n", "A"):
            known = {k: v for k, v in quintuple.items() if k != missing}
            got = finmath.redemption_solve(Rn=Rn, **known)
            assert got == pytest.approx(quintuple[missing], rel=1e-7)

    def test_rate_without_root_is_not_invented_by_overflow(self):
        # R0 - A(q^n - 1)/(q - 1) stays negative on the whole bracket, even
        # where q^200 is past the float range
        with pytest.raises(FinanceError, match=r"interest factor q in \[1\.000000000001, 1000\]"):
            finmath.redemption_solve(Rn=0, R0=1, A=2000, n=200)

    def test_rate_with_overflow_at_the_upper_bracket(self):
        q = finmath.redemption_solve(Rn=0, R0=1e30, A=1e30 - 1.0, n=200)
        assert q == pytest.approx(2.0 - 1e-30, rel=1e-12)

    def test_rate_needs_a_positive_duration(self):
        with pytest.raises(FinanceError, match="n > 0"):
            finmath.redemption_solve(Rn=0, R0=1, A=2, n=0)

    def test_one_shot_payoff(self):
        A = finmath.redemption_solve(R0=100.0, q=1.05, n=1, Rn=0)
        assert A == pytest.approx(105.0)

    def test_closed_form_matches_recursion(self):
        for _ in range(100):
            R0 = float(rng.uniform(1e4, 1e6))
            q = float(rng.uniform(1.01, 1.1))
            A = R0 * (q - 1.0) * float(rng.uniform(1.1, 3.0))
            n = int(rng.integers(1, 50))
            R = R0
            for _ in range(n):
                R = R * q - A
            assert finmath.remaining_debt(R0, q, A, n) == pytest.approx(
                R, rel=1e-8, abs=1e-6
            )

    def test_plan_past_max_rows_refused(self):
        # duration_exact is 69 315 years
        with pytest.raises(FinanceError, match="69315.1 years, past MAX_ROWS"):
            finmath.redemption_plan(1000, 0.001, A=0.02)
        plan = finmath.redemption_plan(1000, 0.001, A=0.02, horizon=3)
        assert [r.year for r in plan.rows] == [1, 2, 3]

    def test_plan_does_not_depend_on_scale(self):
        want = finmath.redemption_plan(1.0, 5, t=1)
        for R0 in (1e-9, 1e9):
            plan = finmath.redemption_plan(R0, 5, t=1)
            assert len(plan.rows) == len(want.rows) == 37
            assert plan.rows[-1].balance == 0.0
            assert [r.payment / R0 for r in plan.rows] == pytest.approx(
                [r.payment for r in want.rows], rel=1e-12)


class TestPension:
    def test_plan_past_max_rows_refused(self):
        with pytest.raises(FinanceError, match="461414 years, past MAX_ROWS"):
            finmath.pension_plan(1000, 0.001, 1, 0.0101)
        plan = finmath.pension_plan(1000, 0.001, 1, 0.0101, horizon=2)
        assert len(plan.rows) == 2

    def test_worked_first_year(self):
        plan = finmath.pension_plan(100000, 5, 12, 500)
        assert plan.rows[0].interest == pytest.approx(4837.50)
        assert plan.rows[0].balance == pytest.approx(98837.50)

    def test_explicit_matches_recursion(self):
        for _ in range(100):
            K0 = float(rng.uniform(1e4, 1e6))
            q = float(rng.uniform(1.01, 1.1))
            m = int(rng.integers(1, 13))
            a = float(rng.uniform(10, K0 / (20 * m)))
            n = int(rng.integers(1, 50))
            K = K0
            for _ in range(n):
                Z = (K - 0.5 * (m + 1) * a) * (q - 1.0)
                K = K - m * a + Z
            assert finmath.pension_balance(K0, q, m, a, n) == pytest.approx(
                K, rel=1e-8, abs=1e-6
            )

    def test_everlasting_amount_keeps_balance(self):
        K0, q, m = 100000.0, 1.05, 12
        a = finmath.everlasting_pension(K0, q, m)
        assert a == pytest.approx(405.68, abs=0.005)
        for n in (1, 7, 30):
            assert finmath.pension_balance(K0, q, m, a, n) == pytest.approx(K0, rel=1e-9)

    def test_everlasting_plan_flagged(self):
        a = finmath.everlasting_pension(100000, 1.05, 12)
        plan = finmath.pension_plan(100000, 5, 12, a)
        assert plan.meta["everlasting_capable"]

    def test_zero_withdrawal_rejected(self):
        with pytest.raises(FinanceError):
            finmath.pension_plan(100000, 5, 1, 0)

    def test_present_value_funds_the_scheme(self):
        q, m, a, n = 1.05, 12, 500.0, 10
        B0 = finmath.pension_present_value(q, m, a, n)
        assert finmath.pension_balance(B0, q, m, a, n) == pytest.approx(0.0, abs=1e-6)


class TestDepreciation:
    def test_linear(self):
        rn, schedule = finmath.depreciation_linear(1000, 5, n=2)
        assert rn == pytest.approx(600.0)
        diffs = [r.payment for r in schedule.rows]
        assert diffs == pytest.approx([200.0, 200.0])

    def test_linear_out_of_range(self):
        with pytest.raises(FinanceError):
            finmath.depreciation_linear(1000, 5, n=6)

    def test_declining(self):
        rn, schedule = finmath.depreciation_declining(1000, p=20, n=3)
        assert rn == pytest.approx(512.0)
        ratios = [
            schedule.rows[i + 1].balance / schedule.rows[i].balance
            for i in range(len(schedule.rows) - 1)
        ]
        assert ratios == pytest.approx([0.8, 0.8])

    def test_declining_solve_p(self):
        assert finmath.depreciation_declining(1000, Rn=512, n=3) == pytest.approx(20.0)

    def test_declining_solve_n(self):
        assert finmath.depreciation_declining(1000, p=20, Rn=512) == pytest.approx(3.0)

    def test_bad_rate(self):
        with pytest.raises(FinanceError):
            finmath.depreciation_declining(1000, p=120, n=3)


class TestScheduleBuilderArguments:
    @pytest.mark.parametrize("build, name", [
        (lambda v: finmath.pension_plan(v, 5, 12, 1500), "K0"),
        (lambda v: finmath.pension_plan(100000, v, 12, 500), "p"),
        (lambda v: finmath.pension_plan(100000, 5, v, 500), "m"),
        (lambda v: finmath.pension_plan(100000, 5, 12, v), "a"),
        (lambda v: finmath.redemption_plan(v, 5, t=5), "R0"),
        (lambda v: finmath.redemption_plan(100000, v, t=5), "p"),
        (lambda v: finmath.redemption_plan(100000, 5, t=v), "t"),
        (lambda v: finmath.redemption_plan(100000, 5, A=v), "A"),
        (lambda v: finmath.depreciation_linear(v, 5), "K0"),
        (lambda v: finmath.depreciation_linear(1000, v), "N"),
        (lambda v: finmath.depreciation_declining(v, p=20, n=3), "K0"),
        (lambda v: finmath.depreciation_declining(1000, p=20, n=v), "n"),
        (lambda v: finmath.depreciation_declining(1000, n=3, Rn=v), "Rn"),
        (lambda v: finmath.depreciation_declining(1000, p=20, Rn=v), "Rn"),
    ], ids=["pension-K0", "pension-p", "pension-m", "pension-a", "redemption-R0",
            "redemption-p", "redemption-t", "redemption-A", "linear-K0", "linear-N",
            "declining-K0", "declining-n", "declining-Rn-to-p", "declining-Rn-to-n"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "-inf", "zero", "negative"])
    def test_schedule_builders_name_the_argument(self, build, name, value):
        with pytest.raises(FinanceError, match=rf"^{name} must be a finite number"):
            build(value)

    def test_declining_rate_refuses_nan(self):
        with pytest.raises(FinanceError, match=r"p must lie in \(0, 100\)"):
            finmath.depreciation_declining(1000, p=math.nan, n=3)

    @pytest.mark.parametrize("given", [dict(n=3, Rn=2000), dict(p=20, Rn=2000), dict(n=3, Rn=1000)])
    def test_declining_remaining_value_at_or_above_K0_refused(self, given):
        # p = -25.99 and n = -3.11 came back for Rn = 2000
        with pytest.raises(FinanceError, match=r"^Rn must lie in \(0, 1000\)"):
            finmath.depreciation_declining(1000, **given)

    def test_overflowing_annuity_refused(self):
        # A = R0 (p + t)/100 is inf: math.ceil(NaN) raised a bare ValueError
        with pytest.raises(FinanceError, match="^A must be a finite number"):
            finmath.redemption_plan(1e300, 1e10, t=1e10)

    def test_overflowing_pension_duration_refused(self):
        with pytest.raises(FinanceError, match="^duration must be a finite number, got nan"):
            finmath.pension_plan(1e300, 1e300, 12, 1e300)


class TestSchedulesSerialization:
    def test_csv_header_and_rounding(self):
        plan = finmath.pension_plan(100000, 5, 12, 500, horizon=1)
        lines = plan.to_csv().splitlines()
        assert lines[0] == "year,interest,payment,balance"
        assert lines[1] == "1,4837.50,6000.00,98837.50"

    def test_json_full_precision_round_trip(self):
        import json

        plan = finmath.redemption_plan(100000, 5, t=5)
        doc = json.loads(plan.to_json())
        assert doc["rows"][0]["balance"] == plan.rows[0].balance  # bit-exact

    @pytest.mark.parametrize("schedule", [
        finmath.pension_plan(100000, 5, 12, 500),  # int a: the payments are ints
        finmath.pension_plan(100000, 5, 12, 400),  # everlasting-capable
        finmath.redemption_plan(100000, 5, t=5),
        finmath.redemption_plan(100000, 5, A=12950.46),
        finmath.depreciation_linear(1000, 5)[1],
        finmath.depreciation_declining(1000, p=20, n=3)[1],
        finmath.redemption_plan(1000, 0.001, A=0.02, horizon=3),
        finmath.Schedule((), {"kind": "none", "K0": 1.5}),
        finmath.Schedule(
            (finmath.ScheduleRow(1, math.nan, math.inf, -math.inf),
             finmath.ScheduleRow(True, None, False, -0.0)),
            {"kind": "hand-built\n", "q": math.nan}),
    ], ids=["pension", "everlasting", "redemption-t", "redemption-A", "linear",
            "declining", "horizon", "no-rows", "non-finite"])
    def test_json_is_indent_2_text(self, schedule):
        import json

        doc = {"meta": schedule.meta, "rows": [
            {"year": r.year, "interest": r.interest, "payment": r.payment, "balance": r.balance}
            for r in schedule.rows]}
        assert schedule.to_json() == json.dumps(doc, indent=2)


class TestMasterFormula:
    def test_compound_case(self):
        for _ in range(50):
            K0 = float(rng.uniform(1, 1e5))
            q = float(rng.uniform(1.001, 1.3))
            n = int(rng.integers(0, 50))
            assert finmath.master_formula(K0, q, 0.0, n) == pytest.approx(
                K0 * q ** n, rel=1e-9
            )

    def test_installment_case(self):
        for _ in range(50):
            E = float(rng.uniform(1, 1e3))
            q = float(rng.uniform(1.001, 1.3))
            n = int(rng.integers(1, 50))
            assert finmath.master_formula(0.0, q, E * q, n) == pytest.approx(
                finmath.installment_solve(E=E, q=q, n=n), rel=1e-9
            )

    def test_redemption_case(self):
        for _ in range(50):
            R0 = float(rng.uniform(1e3, 1e6))
            q = float(rng.uniform(1.001, 1.2))
            A = R0 * (q - 1.0) * float(rng.uniform(1.05, 4.0))
            n = int(rng.integers(1, 50))
            assert finmath.master_formula(-R0, q, A, n) == pytest.approx(
                -finmath.remaining_debt(R0, q, A, n), rel=1e-9, abs=1e-9
            )

    def test_pension_case(self):
        for _ in range(50):
            K0 = float(rng.uniform(1e4, 1e6))
            q = float(rng.uniform(1.001, 1.2))
            m = int(rng.integers(1, 13))
            a = float(rng.uniform(1, 500))
            n = int(rng.integers(1, 50))
            R = -(m + 0.5 * (m + 1) * (q - 1.0)) * a
            assert finmath.master_formula(K0, q, R, n) == pytest.approx(
                finmath.pension_balance(K0, q, m, a, n), rel=1e-9, abs=1e-6
            )

    def test_declining_depreciation_case(self):
        for _ in range(50):
            K0 = float(rng.uniform(10, 1e5))
            p = float(rng.uniform(1, 99))
            n = int(rng.integers(1, 30))
            rn, _ = finmath.depreciation_declining(K0, p=p, n=n)
            assert finmath.master_formula(K0, 1 - p / 100.0, 0.0, n) == pytest.approx(
                rn, rel=1e-9
            )

    def test_q_one_rejected(self):
        with pytest.raises(FinanceError):
            finmath.master_formula(1.0, 1.0, 1.0, 1)


GEOM10 = SequenceSpec("geom", 1.0, 10.0)


class TestClosedFormsEndInFinanceError:
    def test_remaining_debt_without_interest(self):
        assert finmath.remaining_debt(100, 1.0, 5, 3) == 85.0
        assert finmath.remaining_debt(100, 1.0 + 1e-12, 5, 3) == pytest.approx(85.0)

    def test_pension_present_value_without_interest(self):
        assert finmath.pension_present_value(1.0, 12, 5, 3) == 180.0
        assert finmath.pension_present_value(1.0 + 1e-12, 12, 5, 3) == pytest.approx(180.0)

    def test_pension_balance_and_duration_without_interest(self):
        assert finmath.pension_balance(1000, 1.0, 12, 5, 3) == 820.0
        assert finmath.pension_duration(1200, 1.0, 12, 5) == 20.0

    def test_redemption_solve_past_the_float_range(self):
        with pytest.raises(FinanceError, match="exceeds the float range"):
            finmath.redemption_solve(R0=1e300, q=1e300, n=10, A=1e300)

    @pytest.mark.parametrize("call", [
        lambda: finmath.compound_solve(K0=1.0, q=10.0, n=400.0),
        lambda: finmath.compound_solve(Kn=1.0, q=10.0, n=400.0),
        lambda: finmath.compound_solve(K0=1.0, Kn=1e300, n=0.01),
        lambda: finmath.installment_solve(E=1.0, q=10.0, n=400.0),
        lambda: finmath.installment_solve(Kn=1.0, q=10.0, n=400.0),
        lambda: finmath.installment_present_value(1.0, 10.0, 400.0),
        lambda: finmath.series_sum(GEOM10, 400),
        lambda: finmath.seq_term(GEOM10, 400),
        lambda: finmath.master_formula(1.0, 10.0, 1.0, 400.0),
        lambda: finmath.effective_rate(1e6, 1000),
        lambda: finmath.remaining_debt(1, 10, 1, 400),
    ], ids=["compound-Kn", "compound-K0", "compound-q", "installment-Kn", "installment-E",
            "installment_present_value", "series_sum", "seq_term", "master_formula",
            "effective_rate", "remaining_debt-ints"])
    def test_q_to_the_n_past_the_float_range(self, call):
        with pytest.raises(FinanceError, match="exceeds the float range"):
            call()

    def test_int_arguments_give_a_float(self):
        got = finmath.compound_solve(K0=1, q=2, n=3)
        assert got == 8.0 and type(got) is float

    def test_pension_duration_of_overflowing_products(self):
        with pytest.raises(FinanceError, match="duration must be a finite number"):
            finmath.pension_duration(1e300, 1e298, 12, 1e300)
        with pytest.raises(FinanceError, match="duration must be a finite number"):
            finmath.pension_plan(1e300, 1e300, 12, 1e300)

    def test_a_fractional_year_of_linear_depreciation(self):
        with pytest.raises(FinanceError, match="whole number of years"):
            finmath.depreciation_linear(1000, 5, n=2.5)
        assert finmath.depreciation_linear(1000, 5, n=2.0)[0] == 600.0

    def test_a_fractional_year_of_declining_depreciation(self):
        with pytest.raises(FinanceError, match="whole number of years"):
            finmath.depreciation_declining(1000, p=20, n=2.5)
        assert finmath.depreciation_declining(1000, p=20, n=3.0)[0] == pytest.approx(512.0)

    @pytest.mark.parametrize("call", [
        lambda q: finmath.remaining_debt(100, q, 5, 2.5),
        lambda q: finmath.pension_balance(100, q, 12, 5, 2.5),
        lambda q: finmath.pension_duration(100, q, 12, 5),
        lambda q: finmath.pension_present_value(q, 12, 5, -1),
    ], ids=["remaining_debt", "pension_balance", "pension_duration", "pension_present_value"])
    @pytest.mark.parametrize("q", [0.0, -1.0])
    def test_a_non_positive_interest_factor(self, call, q):
        with pytest.raises(FinanceError, match="q must be a finite number with q > 0"):
            call(q)
