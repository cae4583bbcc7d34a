"""Sequences, compound interest, annuities, redemption and pension plans,
depreciation, and the single master formula unifying all of them.

Conventions: p is a percentage per year, q = 1 + p/100 the dimensionless
interest factor (0 < q < 1 only in depreciation contexts).  Schedules carry
full-precision balances; rounding to two decimals happens only at
serialization.  Solve-for-n operations return a real-valued n and leave
rounding policy to the caller.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from .numeric import NoSignChangeError, _FrozenRecord, brent, check_args, check_result


class FinanceError(ValueError):
    pass


_Q_LO, _Q_HI = 1.0 + 1e-12, 1e3  # interest factors searched when solving for q
MAX_ROWS = 10_000  # schedule rows built without a horizon; longer plans are refused


def _solve_q(residual, target: str) -> float:
    """The q in [_Q_LO, _Q_HI] with residual(q) = 0.  Callers pass their
    relation divided by q^n: same sign and roots, and q^-n cannot overflow."""
    try:
        return brent(residual, _Q_LO, _Q_HI)
    except NoSignChangeError:
        msg = f"no interest factor q in [{_Q_LO!r}, {_Q_HI:g}] gives {target}"
        raise FinanceError(msg) from None


def _check_rows(n_exact: float, horizon: Optional[int]) -> None:
    """Refuse a plan of more than MAX_ROWS years unless a horizon cuts it,
    and a duration that overflowed (finite arguments can give inf or NaN)."""
    check_args(FinanceError, -math.inf, duration=n_exact)
    if horizon is None and n_exact > MAX_ROWS:
        raise FinanceError(f"the plan runs {n_exact:.6g} years, past MAX_ROWS = {MAX_ROWS}")


def _power(q: float, n: float) -> float:
    """q^n as a float, or FinanceError where it leaves the float range."""
    try:
        return float(q) ** n
    except OverflowError:
        raise FinanceError(f"q^n = {q!r}^{n!r} exceeds the float range") from None


def _whole(n: float) -> int:
    """A finite year count as an int, or FinanceError if it is not whole."""
    if n != math.floor(n):
        raise FinanceError(f"n must be a whole number of years, got {n!r}")
    return int(n)


def _require_exactly_one_missing(**known):
    missing = [k for k, v in known.items() if v is None]
    if len(missing) != 1:
        raise FinanceError(
            f"exactly one of {tuple(known)} must be left open, got missing={missing}"
        )
    return missing[0]


# ---------------------------------------------------------------------------
# Sequences and series
# ---------------------------------------------------------------------------

class SequenceSpec(_FrozenRecord):
    """Arithmetical (constant difference d != 0) or geometrical sequence
    (constant quotient q not in {0, 1})."""

    __slots__ = ("kind", "a1", "step")  # kind is "arith" or "geom"

    def __post_init__(self):
        if self.kind not in ("arith", "geom"):
            raise FinanceError(f"kind must be 'arith' or 'geom', not {self.kind!r}")
        if self.kind == "arith" and self.step == 0:
            raise FinanceError("arithmetical sequence needs d != 0")
        if self.kind == "geom" and self.step in (0.0, 1.0):
            raise FinanceError("geometrical sequence needs q not in {0, 1}")
        check_args(FinanceError, -math.inf, a1=self.a1, step=self.step)


def seq_term(s: SequenceSpec, n: int) -> float:
    """Explicit n-th element: a1 + (n-1) d, or a1 * q^(n-1)."""
    check_args(FinanceError, 1, closed=True, n=n)
    if s.kind == "arith":
        return s.a1 + (n - 1) * s.step
    return s.a1 * _power(s.step, n - 1)


def series_sum(s: SequenceSpec, n: int) -> float:
    """Closed-form partial sum of the first n elements."""
    check_args(FinanceError, 1, closed=True, n=n)
    if s.kind == "arith":
        return n * s.a1 + s.step / 2.0 * (n - 1) * n
    q = s.step
    return s.a1 * (_power(q, n) - 1.0) / (q - 1.0)


# ---------------------------------------------------------------------------
# Compound interest and installment savings
# ---------------------------------------------------------------------------

def interest_factor(p: float) -> float:
    check_args(FinanceError, -math.inf, p=p)
    return 1.0 + p / 100.0


def compound_solve(K0=None, Kn=None, q=None, n=None) -> float:
    """Solve K_n = K_0 q^n for whichever of the four quantities is None."""
    missing = _require_exactly_one_missing(K0=K0, Kn=Kn, q=q, n=n)
    check_args(FinanceError, K0=K0, Kn=Kn, q=q, n=n)
    if missing == "Kn":
        return check_result(FinanceError, Kn=K0 * _power(q, n))
    if missing == "K0":
        return check_result(FinanceError, K0=Kn / _power(q, n))  # present value
    if missing == "q":
        return check_result(FinanceError, q=_power(Kn / K0, 1.0 / n))
    if q == 1.0:
        raise FinanceError("cannot solve for n at q = 1")
    return check_result(FinanceError, n=math.log(Kn / K0) / math.log(q))


def effective_rate(p_nom: float, m: int) -> tuple[float, float]:
    """Effective annual factor and rate for m compounding periods per year."""
    check_args(FinanceError, p_nom=p_nom)
    check_args(FinanceError, 1, closed=True, m=m)
    q_eff = _power(1.0 + p_nom / (100.0 * m), m)
    return q_eff, 100.0 * (q_eff - 1.0)


def installment_solve(Kn=None, E=None, q=None, n=None) -> float:
    """Solve K_n = E q (q^n - 1)/(q - 1) for the missing quantity."""
    missing = _require_exactly_one_missing(Kn=Kn, E=E, q=q, n=n)
    check_args(FinanceError, 1, q=q)
    check_args(FinanceError, Kn=Kn, E=E, n=n)
    if missing == "Kn":
        return check_result(FinanceError, Kn=E * q * (_power(q, n) - 1.0) / (q - 1.0))
    if missing == "E":
        return check_result(FinanceError, E=Kn * (q - 1.0) / (q * (_power(q, n) - 1.0)))
    if missing == "n":
        return check_result(FinanceError, n=math.log(1.0 + (q - 1.0) * Kn / (E * q)) / math.log(q))
    return check_result(FinanceError, q=_solve_q(
        lambda qq: E * qq * (1.0 - qq ** -n) / (qq - 1.0) - Kn * qq ** -n,
        f"Kn = {Kn:g} with E = {E:g}, n = {n:g}",
    ))


def installment_present_value(E: float, q: float, n: float) -> float:
    """B0 = E (q^n - 1) / (q^(n-1) (q - 1))."""
    check_args(FinanceError, 1, q=q)
    check_args(FinanceError, E=E, n=n)
    return check_result(FinanceError, B0=E * (_power(q, n) - 1.0) / (_power(q, n - 1) * (q - 1.0)))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

class ScheduleRow(_FrozenRecord):
    __slots__ = ("year", "interest", "payment", "balance")


class Schedule(_FrozenRecord):
    __slots__ = ("rows", "meta")

    def to_csv(self) -> str:
        """CSV with 2-decimal display values; full precision lives in JSON."""
        lines = ["year,interest,payment,balance"]
        for r in self.rows:
            lines.append(f"{r.year},{r.interest:.2f},{r.payment:.2f},{r.balance:.2f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """json.dumps({"meta": meta, "rows": [{"year": ..., "interest": ...,
        "payment": ..., "balance": ...}, ...]}, indent=2), to the byte.  The
        row values (numbers, bools or None) take one call of the C encoder,
        one value a line, and fill indent=2's row template; only the meta
        block goes through the pure-Python indent=2 encoder."""
        meta = json.dumps(self.meta, indent=2).replace("\n", "\n  ")
        if not self.rows:
            return f'{{\n  "meta": {meta},\n  "rows": []\n}}'
        values = _one_value_a_line(
            [v for r in self.rows for v in (r.year, r.interest, r.payment, r.balance)])
        rows = ",\n".join([_ROW_JSON] * len(self.rows)).format(*values[1:-1].split("\n"))
        return f'{{\n  "meta": {meta},\n  "rows": [\n{rows}\n  ]\n}}'


_one_value_a_line = json.JSONEncoder(separators=("\n", ": ")).encode
_ROW_JSON = ('    {{\n      "year": {},\n      "interest": {},\n      "payment": {},\n'
             '      "balance": {}\n    }}')


# ---------------------------------------------------------------------------
# Redemption payments in constant annuities
# ---------------------------------------------------------------------------

def annuity_from_rates(R0: float, p: float, t: float) -> float:
    """First-year annuity A = R0 (p + t)/100."""
    check_args(FinanceError, -math.inf, R0=R0, p=p, t=t)
    return R0 * (p + t) / 100.0


def remaining_debt(R0: float, q: float, A: float, n: float) -> float:
    """Explicit remaining debt R_n = R0 q^n - A (q^n - 1)/(q - 1), where
    (q^n - 1)/(q - 1) is n at q = 1."""
    check_args(FinanceError, q=q)
    check_args(FinanceError, -math.inf, R0=R0, A=A, n=n)
    if q == 1.0:
        return check_result(FinanceError, Rn=R0 - A * n)
    qn = _power(q, n)
    return check_result(FinanceError, Rn=R0 * qn - A * (qn - 1.0) / (q - 1.0))


def redemption_duration(p: float, t: float) -> float:
    """Contract period n = ln(1 + p/t) / ln(q); independent of R0."""
    check_args(FinanceError, p=p, t=t)
    return math.log(1.0 + p / t) / math.log(interest_factor(p))


def redemption_plan(
    R0: float,
    p: float,
    t: Optional[float] = None,
    A: Optional[float] = None,
    horizon: Optional[int] = None,
) -> Schedule:
    """Full redemption payment plan from either the initial redemption rate t
    or the annuity A directly.

    Rows follow Z_n = R_{n-1}(q-1), T_n = A - Z_n, R_n = R_{n-1} q - A; the
    final year's annuity is reduced so the balance lands exactly at 0.  The
    fractional analytic duration is reported in the metadata.
    """
    if (t is None) == (A is None):
        raise FinanceError("give exactly one of t (percent) or A (CU)")
    if t is not None:
        A = annuity_from_rates(R0, p, t)  # finite R0, p and t can still give A = inf
    check_args(FinanceError, R0=R0, p=p, t=t, A=A)
    check_args(FinanceError, -math.inf, horizon=horizon)
    q = interest_factor(p)
    if A <= R0 * (q - 1.0):
        raise FinanceError("annuity does not exceed the interest; debt never shrinks")

    n_exact = math.log(A / (A - R0 * (q - 1.0))) / math.log(q)
    _check_rows(n_exact, horizon)
    rows = []
    balance = R0
    year = 0
    while balance > 1e-12 * R0:
        year += 1
        if horizon is not None and year > horizon:
            break
        interest = balance * (q - 1.0)
        payment = A
        if balance * q - A < 0.0:
            payment = balance * q  # reduced final annuity closes the debt
        balance = balance * q - payment
        rows.append(ScheduleRow(year, interest, payment, balance))
    meta = {
        "kind": "redemption",
        "R0": R0,
        "p": p,
        "q": q,
        "A": A,
        "t": t if t is not None else 100.0 * (A / R0 - (q - 1.0)),
        "duration_exact": n_exact,
        "duration_full_years": math.ceil(n_exact - 1e-12),
    }
    return Schedule(tuple(rows), meta)


def redemption_solve(Rn=None, R0=None, q=None, n=None, A=None) -> float:
    """Solve the explicit remaining-debt relation for whichever of the five
    quantities (Rn, R0, q, n, A) is None."""
    missing = _require_exactly_one_missing(Rn=Rn, R0=R0, q=q, n=n, A=A)
    check_args(FinanceError, -math.inf, Rn=Rn, R0=R0, n=n, A=A)
    check_args(FinanceError, 1, q=q)
    if missing == "Rn":
        return remaining_debt(R0, q, A, n)
    if missing == "A":
        qn = _power(q, n)
        return check_result(FinanceError, A=(R0 * qn - Rn) * (q - 1.0) / (qn - 1.0))
    if missing == "R0":
        qn = _power(q, n)
        return check_result(FinanceError, R0=(Rn + A * (qn - 1.0) / (q - 1.0)) / qn)
    if missing == "n":
        share = A / (q - 1.0)
        num = Rn - share
        den = R0 - share
        if num == 0 or den == 0 or num / den <= 0:
            raise FinanceError("inconsistent redemption quantities; no real n")
        return math.log(num / den) / math.log(q)
    check_args(FinanceError, n=n)
    return _solve_q(
        lambda qq: R0 - A * (1.0 - qq ** -n) / (qq - 1.0) - Rn * qq ** -n,
        f"Rn = {Rn:g} with R0 = {R0:g}, A = {A:g}, n = {n:g}",
    )


# ---------------------------------------------------------------------------
# Pension payments
# ---------------------------------------------------------------------------

def _pension_bracket(m: int, q: float) -> float:
    return m + 0.5 * (m + 1) * (q - 1.0)


def _pension_denom(K0: float, q: float, m: int, a: float) -> float:
    """[m + (m+1)(q-1)/2] a - K0 (q - 1): positive exactly when the
    withdrawals exhaust the account, NaN where its products overflow."""
    return _pension_bracket(m, q) * a - K0 * (q - 1.0)


def pension_balance(K0: float, q: float, m: int, a: float, n: float) -> float:
    """Explicit balance K_n = K0 q^n - [m + (m+1)(q-1)/2] a (q^n - 1)/(q - 1),
    where (q^n - 1)/(q - 1) is n at q = 1."""
    check_args(FinanceError, q=q)
    check_args(FinanceError, -math.inf, K0=K0, m=m, a=a, n=n)
    if q == 1.0:
        return check_result(FinanceError, Kn=K0 - m * a * n)
    qn = _power(q, n)
    return check_result(FinanceError,
                        Kn=K0 * qn - _pension_bracket(m, q) * a * (qn - 1.0) / (q - 1.0))


def pension_duration(K0: float, q: float, m: int, a: float) -> float:
    """Full years until the account is exhausted (requires a finite scheme)."""
    check_args(FinanceError, q=q)
    check_args(FinanceError, -math.inf, K0=K0, m=m, a=a)
    denom = _pension_denom(K0, q, m, a)
    if denom <= 0:
        raise FinanceError("withdrawals never exhaust the account (everlasting-capable)")
    if q == 1.0:  # K0 - m a n = 0
        return check_result(FinanceError, duration=K0 / (m * a))
    return check_result(FinanceError,
                        duration=math.log(_pension_bracket(m, q) * a / denom) / math.log(q))


def pension_present_value(q: float, m: int, a: float, n: float) -> float:
    """B0 needed to fund m withdrawals of a per year for n full years."""
    check_args(FinanceError, q=q)
    check_args(FinanceError, -math.inf, m=m, a=a, n=n)
    if q == 1.0:  # (q^n - 1)/(q^n (q - 1)) is n at q = 1
        return check_result(FinanceError, B0=m * a * n)
    qn = _power(q, n)
    return check_result(FinanceError,
                        B0=_pension_bracket(m, q) * a * (qn - 1.0) / (qn * (q - 1.0)))


def everlasting_pension(K0: float, q: float, m: int) -> float:
    """Withdrawal amount keeping the balance constant: imposing K_n = K0 on
    the explicit balance gives a = K0 (q-1) / [m + (m+1)(q-1)/2]."""
    check_args(FinanceError, K0=K0)
    check_args(FinanceError, 1, q=q)
    check_args(FinanceError, 1, closed=True, m=m)
    return K0 * (q - 1.0) / _pension_bracket(m, q)


def pension_plan(
    K0: float, p: float, m: int, a: float, horizon: Optional[int] = None
) -> Schedule:
    """Year-by-year pension account: m withdrawals of amount a per year,
    pro-rata interest within the year (no intra-year compounding).

    Z_n = [K_{n-1} - (m+1)a/2](q-1) and K_n = K_{n-1} - m a + Z_n.  The
    metadata reports the analytic duration, or flags the scheme as
    everlasting-capable when withdrawals never exhaust the account.
    """
    check_args(FinanceError, K0=K0, p=p, a=a)
    check_args(FinanceError, 1, closed=True, m=m)
    check_args(FinanceError, -math.inf, horizon=horizon)
    q = interest_factor(p)
    meta = {"kind": "pension", "K0": K0, "p": p, "q": q, "m": m, "a": a}
    if _pension_denom(K0, q, m, a) <= 0:
        meta["everlasting_capable"] = True
        meta["everlasting_amount"] = everlasting_pension(K0, q, m)
        n_rows = 50
    else:
        n_exact = pension_duration(K0, q, m, a)
        _check_rows(n_exact, horizon)
        meta["duration_exact"] = n_exact
        meta["duration_full_years"] = math.floor(n_exact + 1e-12)
        meta["everlasting_capable"] = False
        n_rows = math.ceil(n_exact - 1e-12)
    if horizon is not None:
        n_rows = min(n_rows, horizon)
    rows = []
    balance = K0
    for year in range(1, n_rows + 1):
        interest = (balance - 0.5 * (m + 1) * a) * (q - 1.0)
        balance = balance - m * a + interest
        rows.append(ScheduleRow(year, interest, m * a, balance))
        if balance <= 0:
            break
    return Schedule(tuple(rows), meta)


# ---------------------------------------------------------------------------
# Depreciation
# ---------------------------------------------------------------------------

def depreciation_linear(K0: float, N: int, n: Optional[int] = None):
    """Straight-line write-off to zero over N years.

    Returns (R_n, schedule); the yearly differences form an arithmetical
    sequence with constant d = -K0/N.
    """
    check_args(FinanceError, K0=K0)
    check_args(FinanceError, 1, closed=True, N=N)
    if n is None:
        n = N
    check_args(FinanceError, 1, math.floor(N) + 1, closed=True, n=n)  # a year in 1..N
    n = _whole(n)
    d = K0 / N
    rows = [ScheduleRow(k, 0.0, d, K0 - k * d) for k in range(1, n + 1)]
    meta = {"kind": "depreciation-linear", "K0": K0, "N": N, "annual": d}
    return K0 - n * d, Schedule(tuple(rows), meta)


def depreciation_declining(
    K0: float, p: Optional[float] = None, n: Optional[int] = None, Rn: Optional[float] = None
):
    """Declining-balance depreciation R_n = K0 q^n with q = 1 - p/100.

    Given (p, n) returns (R_n, schedule).  Given (Rn, n) solves for p; given
    (p, Rn) solves for the period n.  The yearly values form a geometrical
    sequence with quotient q in (0, 1).
    """
    check_args(FinanceError, K0=K0, n=n, Rn=Rn)
    known = sum(v is not None for v in (p, n, Rn))
    if known < 2:
        raise FinanceError("give two of p, n, Rn")
    check_args(FinanceError, 0, 100, p=p)
    check_args(FinanceError, 0, K0, Rn=Rn)  # no declining rate reaches Rn >= K0
    if p is None:
        q = (Rn / K0) ** (1.0 / n)
        return 100.0 * (1.0 - q)
    q = 1.0 - p / 100.0
    if n is None:
        return math.log(Rn / K0) / math.log(q)
    n = _whole(n)
    rows = []
    balance = K0
    for year in range(1, n + 1):
        write_off = balance * (1.0 - q)
        balance *= q
        rows.append(ScheduleRow(year, 0.0, write_off, balance))
    meta = {"kind": "depreciation-declining", "K0": K0, "p": p, "q": q}
    return K0 * q ** n, Schedule(tuple(rows), meta)


# ---------------------------------------------------------------------------
# Master formula
# ---------------------------------------------------------------------------

def master_formula(K0: float, q: float, R: float, n: float) -> float:
    """K_n = K0 q^n + R (q^n - 1)/(q - 1) for q > 0, q != 1.

    Special cases: R=0, q>1 compound interest; K0=0, R=Eq installment
    savings; K0=-R0, R=A the negative of the remaining debt; q>1 and
    R = -[m + (m+1)(q-1)/2] a the pension balance; R=0, 0<q<1 the
    declining-balance remaining value.
    """
    check_args(FinanceError, -math.inf, K0=K0, R=R)
    check_args(FinanceError, q=q)
    check_args(FinanceError, 0, closed=True, n=n)
    if q == 1.0:
        raise FinanceError("master formula needs q != 1")
    qn = _power(q, n)
    return check_result(FinanceError, Kn=K0 * qn + R * (qn - 1.0) / (q - 1.0))
