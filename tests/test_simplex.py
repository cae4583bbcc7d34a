"""Simplex method: canonicalization, pivoting, solving, and the
vertex-enumeration oracle for two-variable programs."""

import copy
import json
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_list_form import on_arrays, small_programs

from ecomath import cli, linalg, linsolve, simplex
from ecomath.simplex import LinearProgram, LpSolution, SimplexError

rng = np.random.default_rng(123)

WORKED = LinearProgram("max", c=(3, 2), A=((1, 1), (1, 0)), b=(4, 2))
# ratios reach nan on the third pivot (see test_a_nan_minimum_ratio_is_a_numerical_error)
NAN_RATIO = {
    "sense": "max",
    "c": [7.613231997318006e+78, -1.4995200162263578e+114, 1.040236253242491e+173,
          3.162767650759431e-91, 2.0830608454221094e-154, -1.300273221352874e-129],
    "A": [[2.896426341293271e+255, -2.2536137799382764e+24, 2.3577541763825477e+161, -0.0,
           6.793821163044048e+250, 0.0],
          [-1.4473431237728217e+220, 4.874134396914202e+81, 2.2051435028777625e+119, -0.0,
           1.7040023855470557e-86, -0.0],
          [0.0, 7.889341003293952e-251, -1.531539579420824e+252, 1.3684145764051752e+244,
           9.98194090052481e+85, 1.632919082820354e+185],
          [1.072582049895496e+245, -3.059827729300877e+50, -4.788194362943464e-216,
           -8.130540403768082e-64, 2.2631995441332972e+77, 3.1899915713058236e-21],
          [-2.087939362995027e-211, -0.0, 4.309367248414115e-90, 0.0, 3.856411920751466e-305,
           -0.0]],
    "b": [2.4193050527561943e+195, 1.213001763796041e+105, 1.5225834756079643e-83,
          6.396012168484171e+76, 3.328240859157888e+177],
}
# draw 618 of 4000 seeded programs with entries at 10^+-300: once "optimal" on a non-finite row 0
ROW0_NONFINITE = Path(__file__).parent / "data" / "lp_row0_nonfinite.json"
WIDE = linalg.SMALL + 1  # this many variables make a program hold arrays, not tuples


class TestLinearProgram:
    def test_dimension_checks(self):
        for n in (1, WIDE):
            with pytest.raises(SimplexError, match="one entry per variable"):
                LinearProgram("max", c=[1] * (n + 1), A=[[1] * n], b=(1,))
            with pytest.raises(SimplexError, match="rows"):
                LinearProgram("max", c=[1] * n, A=[[1] * n] * 2, b=(1,))

    def test_bad_sense(self):
        with pytest.raises(SimplexError):
            LinearProgram("maximize", c=(1,), A=(), b=())

    def test_json_round_trip(self):
        doc = WORKED.to_dict()
        again = LinearProgram.from_dict(doc)
        assert again == WORKED

    def test_json_schema_fields(self):
        lp = LinearProgram.from_json(
            '{"sense":"min","c":[1,1],"d":2.5,"A":[[1,0]],"b":[3],"names":["u","v"]}'
        )
        assert lp.sense == "min"
        assert lp.d == 2.5
        assert lp.names == ("u", "v")

    def test_read_only_float64_arrays(self):
        lp = LinearProgram("max", c=(3, 2), A=((1, 1), (1, 0), (0, 1)), b=(4, 2, 3))
        for a, shape in ((lp.c, (2,)), (lp.A, (3, 2)), (lp.b, (3,))):
            assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
        with pytest.raises(ValueError):
            lp.A[0, 0] = 1
        with pytest.raises(ValueError):
            lp.c[0] = 1

    def test_copies_stay_read_only(self):
        for again in (pickle.loads(pickle.dumps(WORKED)), copy.deepcopy(WORKED)):
            assert again == WORKED
            assert not again.A.flags.writeable

    def test_input_arrays_are_copied(self):
        A = np.array([[1.0, 1.0], [1.0, 0.0]])
        lp = LinearProgram("max", c=(3, 2), A=A, b=(4, 2))
        A[0, 0] = 9.0
        assert lp == WORKED

    def test_mis_shaped_A_rejected(self):
        for n in (2, WIDE):
            # an n x (n + 1) A holds as many numbers as an (n + 1) x n one
            # would: reshaping must not accept it
            c = list(range(1, n + 1))
            with pytest.raises(SimplexError, match="one entry per variable"):
                LinearProgram("max", c=c, A=[c + [0]] * n, b=[1] * (n + 1))
            with pytest.raises(SimplexError, match="one entry per variable"):
                LinearProgram("max", c=c, A=(c, c[1:]), b=(1, 1))  # ragged
            with pytest.raises(SimplexError, match="one entry per variable"):
                LinearProgram("max", c=c, A=c, b=(1,))  # a flat row
            with pytest.raises(SimplexError, match="rows"):
                LinearProgram("max", c=c, A=(), b=(1,))

    def test_no_restrictions(self):
        lp = LinearProgram("max", c=(1, 2), A=(), b=())
        assert (lp.m, lp.n) == (0, 2)
        assert lp.A.shape == (0, 2) and lp.b.shape == (0,)
        assert lp.to_dict()["A"] == []

    def test_tuple_list_and_array_inputs_are_equal(self):
        c, A, b = (3, 2), ((1, 1), (1, 0)), (4, 2)
        as_lists = LinearProgram("max", c=list(c), A=[list(r) for r in A], b=list(b))
        as_arrays = LinearProgram("max", c=np.array(c), A=np.array(A), b=np.array(b))
        assert WORKED == as_lists == as_arrays
        assert WORKED != LinearProgram("max", c=c, A=A, b=(4, 3))
        assert WORKED != LinearProgram("min", c=c, A=A, b=b)


class TestCanonicalize:
    def test_worked_example_tableau(self):
        t = simplex.canonicalize(WORKED)
        assert t.grid[0].tolist() == [1, -3, -2, 0, 0, 0]
        assert t.grid[1].tolist() == [0, 1, 1, 1, 0, 4]
        assert t.grid[2].tolist() == [0, 1, 0, 0, 1, 2]
        assert t.basis == [0, 3, 4]  # z, s1, s2

    def test_degenerate_capacity(self):
        t = simplex.canonicalize(LinearProgram("max", c=(1,), A=((1,),), b=(0,)))
        values = t.basis_solution()
        assert values[0] == 0.0  # z
        assert values[2] == 0.0  # s1

    def test_constant_objective_already_optimal(self):
        lp = LinearProgram("max", c=(0, 0), A=((1, 1),), b=(3,), d=5.0)
        out = simplex.solve_simplex(lp)
        assert out.status == "optimal"
        assert out.z == pytest.approx(5.0)
        assert out.iterations == 0

    def test_negative_capacity_unsupported(self):
        lp = LinearProgram("max", c=(1,), A=((1,),), b=(-1,))
        assert simplex.solve_simplex(lp).status == "unsupported"


class TestPivot:
    def test_single_step_makes_x1_basic(self):
        t = simplex.canonicalize(WORKED)
        t2 = simplex.pivot(t, 2, 1)  # row of x1 <= 2, column of x1
        assert t2.basis[2] == 1
        assert t2.basis_solution()[1] == pytest.approx(2.0)

    def test_pivot_on_unit_column_is_bookkeeping_only(self):
        t = simplex.canonicalize(WORKED)
        t2 = simplex.pivot(t, 1, 3)  # s1's own unit column
        assert np.array_equal(t2.grid, t.grid)
        assert t2.basis[1] == 3

    def test_zero_pivot_rejected(self):
        t = simplex.canonicalize(WORKED)
        with pytest.raises(SimplexError):
            simplex.pivot(t, 2, 2)  # entry (2, x2) is 0


class TestSolveSimplex:
    def test_worked_example(self):
        out = simplex.solve_simplex(WORKED)
        assert out.status == "optimal"
        assert out.x == pytest.approx((2.0, 2.0))
        assert out.z == pytest.approx(10.0)
        assert out.slacks == pytest.approx((0.0, 0.0))

    def test_remaining_capacity_read_off(self):
        lp = LinearProgram("max", c=(1, 0), A=((1, 0), (0, 1)), b=(2, 1))
        out = simplex.solve_simplex(lp)
        assert out.x == pytest.approx((2.0, 0.0))
        assert out.z == pytest.approx(2.0)
        assert out.slacks[1] == pytest.approx(1.0)

    def test_unbounded_no_restrictions(self):
        out = simplex.solve_simplex(LinearProgram("max", c=(1,), A=(), b=()))
        assert out.status == "unbounded"

    @pytest.mark.parametrize("n", [1, WIDE])
    def test_a_step_past_the_float_range_is_a_numerical_error(self, n):
        # 1 / 1e-310 overflows: every ratio is inf, yet a pivot candidate exists
        A = np.zeros((2, n))
        A[1, 0] = 1e-310
        for sense, c in (("max", 1.0), ("min", -1.0)):
            lp = LinearProgram(sense, [c] + [0.0] * (n - 1), A, (0.0, 1.0))
            with np.errstate(over="ignore"), pytest.raises(simplex.NumericalError, match="float range"):
                simplex.solve_simplex(lp)

    @pytest.mark.parametrize("n", [1, WIDE])
    def test_an_overflowing_ratio_is_a_numerical_error_under_warnings_as_errors(self, n):
        # the only candidate's ratio 1 / 1e-310 overflows; plain floats warn
        # of nothing, and neither may an array tableau
        A = np.zeros((2, n))
        A[1, 0] = 1e-310
        lp = LinearProgram("max", [1.0] * n, A, (0.0, 1.0))
        assert (type(lp._A) is tuple) == (n == 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(simplex.NumericalError, match="float range"):
                simplex.solve_simplex(lp)

    @pytest.mark.parametrize("small", [linalg.SMALL, 0])  # float tuples, arrays
    def test_a_nan_minimum_ratio_is_a_numerical_error(self, small, monkeypatch, tmp_path, capsys):
        # the third pivot's ratios are (inf, inf, nan, inf, inf): both forms
        # take the nan as the least ratio, and it ends the solve before
        # Bland's tie-break, which no ratio equals
        monkeypatch.setattr(linalg, "SMALL", small)
        lp = LinearProgram.from_dict(NAN_RATIO)
        assert (type(lp._A) is tuple) == (small > 0)
        trace = []
        with np.errstate(all="ignore"), pytest.raises(simplex.NumericalError, match="float range"):
            simplex.solve_simplex(lp, trace=trace)
        assert len(trace) == 3
        path = tmp_path / "lp.json"
        path.write_text(json.dumps(NAN_RATIO))
        assert cli.dispatch(["lp", "solve", str(path)]) == cli.EXIT_NUMERICAL
        assert "beyond the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("small", [linalg.SMALL, 0])  # float tuples, arrays
    @pytest.mark.parametrize("lp", [
        # its entering tolerance overflows, and its last row 0 holds -inf and NaN
        LinearProgram.from_json(ROW0_NONFINITE.read_text()),
        # no pivot: the entering tolerance alone overflows
        LinearProgram("max", (-2.8697591469105514e-207, -4.8393810864856534e+241),
                      ((-3.6167056806129663e+177, -6.704158509513401e+105),),
                      (1.5263006810960958e-144,)),
    ])
    def test_no_optimum_is_declared_with_an_infinite_entering_tolerance(self, lp, small,
                                                                        monkeypatch):
        monkeypatch.setattr(linalg, "SMALL", small)
        lp = LinearProgram(lp.sense, lp.c, lp.A, lp.b)
        assert (type(lp._A) is tuple) == (small > 0)
        assert simplex.canonicalize(lp).tols[0] == math.inf
        with np.errstate(all="ignore"), pytest.raises(simplex.NumericalError, match="row 0"):
            simplex.solve_simplex(lp)

    @pytest.mark.parametrize("small", [linalg.SMALL, 0])  # float tuples, arrays
    def test_no_optimum_is_declared_on_a_nan_reduced_cost(self, small, monkeypatch):
        # x2's reduced cost, set by hand: a NaN has no sign, so no entering
        # test reads it as a gain, and none reads it as no gain either
        monkeypatch.setattr(linalg, "SMALL", small)
        lp = LinearProgram("max", (0.0, 1.0), ((1.0, 1.0),), (1.0,))
        t = simplex.canonicalize(lp)
        if type(t.cells) is list:
            t.cells[1][0] = math.nan
        else:
            t.cells[0, 1] = math.nan
        with np.errstate(all="ignore"), pytest.raises(simplex.NumericalError, match="row 0"):
            simplex._iterate(lp, t, None)

    def test_a_non_finite_row_0_exits_3(self, capsys):
        with np.errstate(all="ignore"):
            assert cli.dispatch(["lp", "solve", str(ROW0_NONFINITE)]) == cli.EXIT_NUMERICAL
        assert "row 0 lies beyond the float range" in capsys.readouterr().err

    def test_the_least_entry_is_the_first_nan_on_both_forms(self):
        nan = float("nan")
        for v in ([2.0, nan, 1.0, nan], [nan, 1.0], [1.0, 0.5, -0.0, 0.0, 0.5], [3.0]):
            i, low = simplex._least(v)
            assert (i, repr(low)) == (int(np.array(v).argmin()), repr(v[i]))
            assert simplex._least(np.array(v))[0] == i

    @pytest.mark.parametrize("small", [linalg.SMALL, 0])  # float tuples, arrays
    def test_a_step_to_inf_and_nan_warns_of_nothing(self, small, monkeypatch):
        # pivoting on 1e-301 takes the slack's row-0 entry to inf, and
        # _improving's product of that inf with x2's zero column is nan
        monkeypatch.setattr(linalg, "SMALL", small)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = simplex.solve_simplex(LinearProgram("max", (1e300, 0.0), ((1e-301, 0.0),), (0.0,)))
        assert out == LpSolution("optimal", (0.0, 0.0), 0.0, (0.0,), 1)

    def test_min_problem_negated(self):
        lp = LinearProgram("min", c=(-1,), A=((1,),), b=(2,))
        out = simplex.solve_simplex(lp)
        assert out.status == "optimal"
        assert out.x == pytest.approx((2.0,))
        assert out.z == pytest.approx(-2.0)

    def test_min_at_origin(self):
        out = simplex.solve_simplex(LinearProgram("min", c=(1, 1), A=(), b=()))
        assert out.status == "optimal"
        assert out.z == pytest.approx(0.0)

    def test_solution_invariants(self):
        out = simplex.solve_simplex(WORKED)
        A = np.array(WORKED.A)
        x = np.array(out.x)
        assert np.all(A @ x <= np.array(WORKED.b) + 1e-7)
        assert np.all(x >= -1e-9)
        assert out.z == pytest.approx(np.dot(WORKED.c, x) + WORKED.d, abs=1e-7)
        assert np.array(out.slacks) == pytest.approx(np.array(WORKED.b) - A @ x, abs=1e-7)

    def test_trace_feasible_and_monotone(self):
        trace = []
        simplex.solve_simplex(WORKED, trace=trace)
        zs = []
        for t in trace:
            assert np.min(t.rhs[1:]) >= -1e-9  # basis solutions stay feasible
            zs.append(t.basis_solution()[0])
        assert all(b >= a - 1e-9 for a, b in zip(zs, zs[1:]))  # z non-decreasing

    def test_optimality_certificate(self):
        trace = []
        out = simplex.solve_simplex(WORKED, trace=trace)
        assert out.status == "optimal"
        final = trace[-1]
        ncols = 1 + final.n + final.m
        for j in range(1, ncols):
            if j not in final.basis:
                assert final.grid[0, j] >= -1e-9


class TestVertexOracle:
    def test_worked_example_cross_validation(self):
        res = simplex.vertex_oracle(WORKED)
        assert res.solution.status == "optimal"
        assert res.solution.x == pytest.approx((2.0, 2.0))
        assert res.solution.z == pytest.approx(10.0)
        vertices = {tuple(round(c, 9) for c in v) for v in res.vertices}
        assert vertices == {(0.0, 0.0), (2.0, 0.0), (0.0, 4.0), (2.0, 2.0)}

    def test_isoquant_slope(self):
        res = simplex.vertex_oracle(WORKED)
        assert res.isoquant_slope == pytest.approx(-1.5)  # x2 = -(c1/c2) x1

    def test_infeasible_empty_region(self):
        lp = LinearProgram("max", c=(1, 1), A=((1, 0),), b=(-1,))
        res = simplex.vertex_oracle(lp)
        assert res.solution.status == "infeasible"
        assert res.vertices == ()

    def test_constant_objective_all_vertices_optimal(self):
        lp = LinearProgram("max", c=(0, 0), A=((1, 0), (0, 1)), b=(1, 1), d=7.0)
        res = simplex.vertex_oracle(lp)
        assert res.solution.z == pytest.approx(7.0)
        assert len(res.optimal_vertices) == len(res.vertices)

    def test_unbounded_detected(self):
        lp = LinearProgram("max", c=(1, 1), A=((1, -1),), b=(1,))
        assert simplex.vertex_oracle(lp).solution.status == "unbounded"

    def test_n3_rejected(self):
        with pytest.raises(SimplexError):
            simplex.vertex_oracle(LinearProgram("max", c=(1, 1, 1), A=(), b=()))


class TestAgreementWithOracle:
    def test_200_random_programs(self):
        for _ in range(200):
            m = int(rng.integers(1, 5))
            c = tuple(rng.integers(0, 10, size=2).astype(float))
            A = tuple(tuple(row) for row in rng.integers(0, 10, size=(m, 2)).astype(float))
            b = tuple(rng.integers(0, 10, size=m).astype(float))
            lp = LinearProgram("max", c=c, A=A, b=b)
            ours = simplex.solve_simplex(lp)
            oracle = simplex.vertex_oracle(lp).solution
            assert ours.status == oracle.status, (lp, ours.status, oracle.status)
            if ours.status == "optimal":
                assert abs(ours.z - oracle.z) <= 1e-6 * (1 + abs(oracle.z))


class TestDegeneracyAndInputs:
    def test_beale_cycling_example_solved(self):
        # Beale (1955): Dantzig's rule cycles through degenerate pivots
        lp = LinearProgram(
            "max",
            c=(0.75, -20, 0.5, -6),
            A=((0.25, -8, -1, 9), (0.5, -12, -0.5, 3), (0, 0, 1, 0)),
            b=(0, 0, 1),
        )
        out = simplex.solve_simplex(lp)
        assert out.status == "optimal"
        assert out.z == pytest.approx(1.25)
        assert out.x == pytest.approx((1.0, 0.0, 1.0, 0.0))

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "iteration_cap", lambda n, m: 0)
        with pytest.raises(simplex.IterationLimitError, match="after 0 pivots"):
            simplex.solve_simplex(WORKED)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_program_rejected(self, bad):
        for n in (2, WIDE):
            ones = [1.0] * (n - 1)
            for c, A, b, d in (([bad] + ones, [[1] + ones], (1,), 0.0),
                               ([1] + ones, [ones + [bad]], (1,), 0.0),
                               ([1] + ones, [[1] + ones], (bad,), 0.0),
                               ([1] + ones, [[1] + ones], (1,), bad)):
                with pytest.raises(SimplexError, match="finite"):
                    LinearProgram("max", c=c, A=A, b=b, d=d)


SCALED = LinearProgram("max", c=(3, 2), A=((1, 2), (2, 1)), b=(4, 5))  # x = (2, 1), z = 8


def scaled(lp, c=1.0, Ab=1.0, b=1.0):
    return LinearProgram(lp.sense, c=c * lp.c, A=Ab * lp.A, b=Ab * b * lp.b)


class TestScaleRelativeTolerances:
    @pytest.mark.parametrize("lp", [scaled(SCALED, c=1e-10), scaled(SCALED, Ab=1e-10),
                                    scaled(SCALED, c=1e10, Ab=1e10)])
    def test_tiny_or_huge_programs_are_solved(self, lp):
        out = simplex.solve_simplex(lp)
        assert out.status == "optimal"
        assert out.x == pytest.approx((2.0, 1.0), rel=1e-12)
        assert out.z == pytest.approx(8.0 * lp.c[0] / 3.0, rel=1e-12)

    def test_a_pivot_is_judged_against_its_row_and_column(self):
        simplex.pivot(simplex.canonicalize(scaled(SCALED, Ab=1e-10)), 1, 1)  # 1e-10
        t = simplex.canonicalize(LinearProgram("max", c=(1, 1), A=((1, 1), (1e-12, 1)), b=(1, 1)))
        with pytest.raises(SimplexError):
            simplex.pivot(t, 2, 1)  # 1e-12 in a row and a column of scale 1

    def test_a_variable_in_tiny_units_is_bounded(self):
        out = simplex.solve_simplex(LinearProgram("max", c=(1, 1), A=((1, 1e-12),), b=(1,)))
        assert out.status == "optimal"
        assert out.x == pytest.approx((0.0, 1e12)) and out.z == pytest.approx(1e12)

    @pytest.mark.parametrize("s", [2.0 ** -17, 1.0, 2.0 ** 17])
    def test_a_rounding_residue_is_no_pivot(self, s):
        # at 2**-17 a residue of 7e-12 in a slack column of entries ~1e5 was
        # taken for a pivot against 1e-9 max|A|, and x reported at ~1e17
        lp = LinearProgram("max", c=(5, 4, 3), b=(0, 8, 0, 3),
                           A=((0, 4, 0), (3, 3, 0), (1, 3, -2), (4, 3, -1)))
        assert simplex.solve_simplex(scaled(lp, Ab=s)).status == "unbounded"

    @pytest.mark.parametrize("k", [-40, 40])
    def test_power_of_two_scaling_is_exact(self, k):  # of c, of b, of A and b
        s = 2.0 ** k
        rng = np.random.default_rng(k + 100)
        for _ in range(50):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            lp = LinearProgram("max", c=rng.integers(-2, 6, n).astype(float) / 7,
                               A=rng.integers(0, 5, (m, n)).astype(float) / 3,
                               b=rng.integers(0, 9, m).astype(float) / 5)
            base = simplex.solve_simplex(lp)
            by_c = simplex.solve_simplex(scaled(lp, c=s))
            by_b = simplex.solve_simplex(scaled(lp, b=s))
            by_Ab = simplex.solve_simplex(scaled(lp, Ab=s))
            assert by_c.status == by_b.status == by_Ab.status == base.status
            assert by_c.iterations == by_b.iterations == by_Ab.iterations == base.iterations
            if base.status == "optimal":
                assert (by_c.x, by_c.z) == (base.x, base.z * s)
                assert (by_b.x, by_b.z) == (tuple(v * s for v in base.x), base.z * s)
                assert (by_Ab.x, by_Ab.z) == (base.x, base.z)

    @pytest.mark.parametrize("small", [linalg.SMALL, 0])  # float tuples, arrays
    def test_one_tiny_column_hides_no_other_gain(self, small, monkeypatch):
        # x2's column is ~1e-5 of its rows' scale, so max_j |c_j| / g_j is
        # 1.5e5, and x3's reduced cost of -1e-5 is 7e-11 of that
        monkeypatch.setattr(linalg, "SMALL", small)
        lp = LinearProgram("max", c=(1, -3, 0), b=(1, 8, 2, 6, 0),
                           A=((-2e5, -1, -2), (0, 0, -2), (1e5, -2, 3), (1e5, 2, -1),
                              (2e5, 2, -2)))
        out = simplex.solve_simplex(lp)
        assert out.status == "optimal"
        assert out.x == pytest.approx((5e-6, 0.0, 0.5), rel=1e-9)
        assert out.z == pytest.approx(5e-6, rel=1e-9)

    def test_an_optimum_past_the_float_range_is_a_numerical_error(self):
        # a subnormal A against the slacks' unit columns: x = 1 / 2.2e-311
        tiny = LinearProgram("max", c=(1,), A=((2.2e-311,),), b=(1,))
        with pytest.raises(simplex.NumericalError, match="beyond the float range"):
            simplex.solve_simplex(tiny)
        assert simplex.solve_simplex(scaled(tiny, b=0.0)).x == (0.0,)


class TestVertexOracleAtAnyScale:
    @pytest.mark.parametrize("s", [1e-7, 1.0, 1e7])
    def test_agrees_with_simplex_when_A_and_b_are_scaled(self, s):
        lp = scaled(SCALED, Ab=s)
        res, ours = simplex.vertex_oracle(lp), simplex.solve_simplex(lp)
        assert res.solution.status == ours.status == "optimal"
        assert res.solution.x == pytest.approx(ours.x, rel=1e-12)
        assert res.solution.z == pytest.approx(ours.z, rel=1e-12) == pytest.approx(8.0)
        assert len(res.vertices) == 4

    @pytest.mark.parametrize("s", [1e-7, 1.0, 1e7])
    def test_agrees_with_simplex_when_c_or_b_is_scaled(self, s):
        for lp in (scaled(SCALED, c=s), scaled(SCALED, b=s)):
            res, ours = simplex.vertex_oracle(lp), simplex.solve_simplex(lp)
            assert res.solution.x == pytest.approx(ours.x, rel=1e-12)
            assert res.solution.z == pytest.approx(ours.z, rel=1e-12)
            assert res.optimal_vertices == (res.solution.x,)

    def test_tiny_objective_keeps_its_optimal_vertex(self):
        res = simplex.vertex_oracle(scaled(SCALED, c=1e-10))
        assert res.solution.x == pytest.approx((2.0, 1.0))
        assert res.isoquant_slope == pytest.approx(-1.5)

    @pytest.mark.parametrize("s", [1e-10, 1.0, 1e10])
    def test_unboundedness_at_any_scale(self, s):
        lp = LinearProgram("max", c=(1, 1), A=((s, -s),), b=(s,))
        assert simplex.vertex_oracle(lp).solution.status == "unbounded"
        bounded = LinearProgram("max", c=(1, 1), A=((s, s),), b=(s,))
        assert simplex.vertex_oracle(bounded).solution.status == "optimal"


def solve_with_trace(lp):
    trace = []
    try:
        out = simplex.solve_simplex(lp, trace=trace)
    except simplex.NumericalError as exc:  # past the float range, or cycling
        out = type(exc).__name__
    return out, [t.format_text() for t in trace], [t.basis for t in trace]


def negated(out):
    return out if isinstance(out, str) else LpSolution(
        out.status, out.x, -out.z, out.slacks, out.iterations)


def assert_min_is_max_of_minus_c(c, A, b, d):
    """min c.x + d runs as max (-c).x - d, bit for bit, with z negated."""
    lo, hi = LinearProgram("min", c, A, b, d), LinearProgram("max", -c, A, b, -d)
    (lo_out, *lo_trace), (hi_out, *hi_trace) = solve_with_trace(lo), solve_with_trace(hi)
    assert repr(lo_out) == repr(negated(hi_out))
    assert lo_trace == hi_trace
    if lo.n == 2:
        lo_res, hi_res = simplex.vertex_oracle(lo), simplex.vertex_oracle(hi)
        assert repr(lo_res.solution) == repr(negated(hi_res.solution))
        assert repr(lo_res._values()[1:]) == repr(hi_res._values()[1:])


class TestMinAsMax:
    @given(small_programs(), st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_small_programs(self, lp, d):
        _, c, A, b = lp
        assert_min_is_max_of_minus_c(c, A, b, d)

    @pytest.mark.parametrize("n, m", [(2, WIDE), (2, 12), (WIDE, 4), (12, 10)])
    def test_programs_wider_than_small(self, n, m):
        rng = np.random.default_rng(n * m)
        A = rng.uniform(-1.0, 5.0, (m, n)) * (rng.random((m, n)) < 0.8)
        b = rng.integers(0, 9, m) * rng.uniform(1.0, 20.0)
        assert type(LinearProgram("min", np.ones(n), A, b)._A) is not tuple
        for _ in range(5):
            assert_min_is_max_of_minus_c(rng.integers(-5, 6, n) * 1.5, A, b, rng.uniform(-9, 9))


def signed_zeros(values) -> int:
    """How many entries of values are -0.0."""
    a = np.asarray(values, dtype=float)
    return int(np.count_nonzero((a == 0.0) & np.signbit(a)))


class TestNoNegativeZero:
    """The tableau holds no -0.0 (canonicalize and pivot keep it so), which
    lets the array pivot step form its product by einsum; LP results carry
    none either."""

    @pytest.mark.parametrize("small", [linalg.SMALL, 0])  # float tuples, arrays
    def test_canonicalize_writes_no_negative_zero(self, small, monkeypatch):
        monkeypatch.setattr(linalg, "SMALL", small)
        for lp in (LinearProgram("max", (0.0, 1.0), ((1.0, 1.0),), (4.0,)),  # -0 * -1
                   LinearProgram("min", (1.0, 2.0), ((1.0, 1.0),), (4.0,), d=0.0),  # -d
                   LinearProgram("max", (3.0, -0.0), ((-0.0, 1.0), (1.0, -0.0)), (-0.0, 2.0),
                                 d=-0.0)):
            assert (type(lp._A) is tuple) == (small > 0)
            assert signed_zeros(simplex.canonicalize(lp).grid) == 0

    @pytest.mark.parametrize("small", [linalg.SMALL, 0])
    def test_a_pivot_row_that_underflows_holds_zero(self, small, monkeypatch):
        monkeypatch.setattr(linalg, "SMALL", small)
        t = simplex.canonicalize(LinearProgram("max", (1.0, 0.0), ((2.0, -5e-324),), (1.0,)))
        simplex.pivot(t, 1, 1)  # -5e-324 / 2 rounds to -0.0
        assert t.grid[1, 2] == 0.0 and signed_zeros(t.grid) == 0

    def test_array_step_is_the_broadcast_step_bit_for_bit(self):
        # the broadcast product keeps the sign of a zero product, einsum's
        # does not: on a tableau with no -0.0 only the pivot row can tell
        rng = np.random.default_rng(27)
        scales = np.array([0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e300])
        with np.errstate(all="ignore"):
            for cols in (9, 10, 33, 101, 202):
                for _ in range(20):
                    shape = (int(rng.integers(2, cols)), cols)
                    a = rng.uniform(-2.0, 2.0, shape) * rng.choice(scales, shape) + 0.0
                    r, j = (int(v) for v in rng.integers(0, shape))
                    a[r, j] = rng.choice([-1.0, 1.0]) * rng.choice(scales[1:])
                    want = a.copy()
                    want[r] /= want[r, j]
                    f = want[:, j].copy()
                    f[r] = 0.0
                    want -= f[:, None] * want[r]
                    got = a.copy()
                    assert linsolve._pivot_step(got, r, j).tobytes() == f.tobytes()
                    others = np.arange(shape[0]) != r
                    assert got[others].tobytes() == want[others].tobytes()
                    assert (got[r] + 0.0).tobytes() == want[r].tobytes()

    @pytest.mark.parametrize("small", [linalg.SMALL, 0])
    def test_a_zero_min_optimum_is_zero(self, small, monkeypatch):
        # z is the negated RHS of row 0, which is 0.0 here
        monkeypatch.setattr(linalg, "SMALL", small)
        for lp in (LinearProgram("min", (1.0, 2.0), ((1.0, 1.0),), (4.0,)),  # no pivot
                   LinearProgram("min", (-3.0,), ((2.0,), (1.0,)), (2.0, 0.0))):  # a degenerate one
            out = simplex.solve_simplex(lp)
            assert (type(lp._A) is tuple) == (small > 0)
            assert out.status == "optimal" and out.z == 0.0 and signed_zeros(out.z) == 0

    @given(small_programs())
    @settings(max_examples=200, deadline=None)
    def test_no_tableau_or_result_holds_negative_zero(self, lp):
        def run():
            trace = []
            try:
                out = simplex.solve_simplex(LinearProgram(*lp), trace=trace)
            except simplex.NumericalError:  # past the float range, or cycling
                out = LpSolution("error")
            return [signed_zeros(t.grid) for t in trace], signed_zeros((*out.x, *out.slacks, out.z))

        got = run()
        assert got == on_arrays(run)
        assert got == ([0] * len(got[0]), 0)

    def test_vertex_oracle_results_hold_no_negative_zero(self):
        # Cramer gives y = (0 * 1 - 0 * 3) / -3 = -0.0 at the vertex (1/3, 0)
        for lp, x in ((LinearProgram("max", (2.0, -2.0), ((3.0, -1.0),), (1.0,)), (1 / 3, 0.0)),
                      (LinearProgram("min", (-1.0, 2.0), ((0.0, 3.0), (1.0, 1.0)), (3.0, 0.0)),
                       (0.0, 0.0)),
                      (LinearProgram("max", (1.0, 1.0), ((1.0, 1.0), (1.0, 0.0)), (2.0, -0.0)),
                       (0.0, 2.0))):  # slack -0.0 - (1 * 0 + 0 * 2)
            res = simplex.vertex_oracle(lp)
            assert res.solution.x == x
            assert signed_zeros(res.vertices + res.optimal_vertices) == 0
            assert signed_zeros((*res.solution.x, *res.solution.slacks, res.solution.z)) == 0


def full_tableau_simplex(lp):
    """The full-tableau method as a reference: Dantzig's rule, Bland's after a
    degenerate pivot, on the (1+m) x (n+m+2) tableau with its z column and
    slack identity, every pivot by ``linsolve._pivot_step`` on the whole
    array.  Returns the LpSolution (or the error's name) and every tableau
    it passed through.  Scales and tolerances come from canonicalize."""
    try:
        t = simplex.canonicalize(lp)
    except SimplexError:
        return LpSolution("unsupported"), []
    n, m, scale, (enter_tol, degenerate_tol) = lp.n, lp.m, t.scale, t.tols
    sign = -1.0 if lp.sense == "max" else 1.0
    T = np.zeros((1 + m, n + m + 2))
    T[0, 0], T[0, 1:1 + n], T[0, -1] = 1.0, sign * lp.c, -sign * lp.d
    T[1:, 1:1 + n], T[1:, 1 + n:-1], T[1:, -1] = lp.A, np.eye(m), lp.b
    T += 0.0
    basis = [0] + list(range(1 + n, 1 + n + m))
    rs = np.array([simplex.PIVOT_MIN * scale[k] for k in basis[1:]])
    tableaus, bland = [T.copy()], False
    while True:
        row0 = T[0, :-1].tolist()
        entering = [j for j, v in enumerate(row0) if v * scale[j] < -enter_tol]
        entering = entering or simplex._improving(lp, row0)
        if not entering:
            break
        j = entering[0] if bland else min(entering, key=row0.__getitem__)
        eligible = T[1:, j] > rs / scale[j]
        ratios = np.divide(T[1:, -1], T[1:, j], out=np.full(m, np.inf), where=eligible)
        best = ratios.min(initial=np.inf)
        if best == np.inf:
            if not eligible.any():
                return LpSolution("unbounded", iterations=len(tableaus) - 1), tableaus
            return "NumericalError", tableaus
        tied = [1 + i for i, r in enumerate(ratios) if r == best]
        i = min(tied, key=basis.__getitem__) if bland else tied[0]
        bland = best <= degenerate_tol * scale[j]
        linsolve._pivot_step(T, i, j)
        T[i] += 0.0
        basis[i], rs[i - 1] = j, simplex.PIVOT_MIN * scale[j]
        tableaus.append(T.copy())
        if len(tableaus) - 1 > simplex.iteration_cap(n, m):
            return "IterationLimitError", tableaus
    values = [0.0] * (1 + n + m)
    for k, v in zip(basis, T[:, -1].tolist()):
        values[k] = v
    if not all(map(np.isfinite, values)):
        return "NumericalError", tableaus
    z = values[0] if lp.sense == "max" else -values[0]
    return LpSolution("optimal", tuple(values[1:1 + n]), z, tuple(values[1 + n:]),
                      len(tableaus) - 1), tableaus


def seeded_program(rng, n: int, m: int) -> LinearProgram:
    """A random LP of n variables and m restrictions: integer entries with
    ties, or uniform ones with negatives, in A; integer costs that are often
    zero or tied; zeros in b (degenerate pivots, Bland's rule); either sense;
    c and b at a scale of 1e-6, 1 or 1e6."""
    mask = rng.random((m, n)) < rng.uniform(0.3, 1.0)
    integers = rng.random() < 0.5
    A = (rng.integers(0, 5, (m, n)) if integers else rng.uniform(-1.0, 5.0, (m, n))) * mask
    s, sense = rng.choice([1e-6, 1.0, 1e6]), rng.choice(["max", "min"])
    c = rng.integers(-1, 6, n) * (s if sense == "max" else -s)  # mostly gains: pivots
    return LinearProgram(sense, c, A, rng.integers(0, 9, m) * s, float(rng.integers(-2, 3)))


def against_the_full_tableau(lp):
    """repr of solve_simplex's result, and the bytes of each traced grid, as
    ``full_tableau_simplex`` gives them."""
    trace = []
    try:
        out = repr(simplex.solve_simplex(lp, trace=trace))
    except simplex.NumericalError as exc:
        out = type(exc).__name__
    want, tableaus = full_tableau_simplex(lp)
    assert out == (want if isinstance(want, str) else repr(want))
    assert [t.grid.tobytes() for t in trace] == [g.tobytes() for g in tableaus]
    return len(trace)


class TestShortTableau:
    """Only the nonbasic columns are stored and pivoted; every result and
    every traced full tableau is the full-tableau method's, bit for bit."""

    def test_the_full_tableau_method_on_seeded_programs(self):
        rng = np.random.default_rng(2028)
        pivots = {"small": 0, "arrays": 0}  # traced tableaus
        for _ in range(320):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            lp = seeded_program(rng, n, m)
            pivots["small"] += against_the_full_tableau(lp)
            pivots["arrays"] += on_arrays(against_the_full_tableau, lp)
        assert pivots["small"] == pivots["arrays"] > 2 * 320  # 540 pivots, 119 degenerate

    def test_the_grid_is_the_full_layout(self):
        t = simplex.canonicalize(WORKED)
        assert t.columns == [1, 2, 0] and t.spare == 2  # x1, x2, the spare (z)
        simplex.pivot(t, 2, 1)
        assert t.columns == [1, 2, 4] and t.spare == 0  # s2 took the spare, x1 is the next
        assert t.grid.tolist() == [[1, 0, -2, 0, 3, 6], [0, 0, 1, 1, -1, 2], [0, 1, 0, 0, 1, 2]]
        assert t.format_text().splitlines()[0] == "# z,x1,x2,s1,s2,RHS"

    @pytest.mark.parametrize("small", [linalg.SMALL, 0])  # float tuples, arrays
    def test_the_short_tableau_is_n_plus_2_wide(self, small, monkeypatch):
        monkeypatch.setattr(linalg, "SMALL", small)
        t = simplex.canonicalize(WORKED)
        simplex.pivot(t, 2, 1)
        stored = np.array(t.cells).T if type(t.cells) is list else t.cells
        assert stored.shape == (1 + 2, 2 + 2)
        assert stored[:, t.spare].tolist() == [0.0, 0.0, 1.0]  # x1's unit column

    @pytest.mark.parametrize("small", [linalg.SMALL, 0])  # float tuples, arrays
    def test_past_the_float_range_the_implied_columns_stay_units(self, small, monkeypatch):
        # the one place where the full-tableau method differs: its second
        # pivot enters a column holding inf, so 0 * inf turns z's column and
        # the basic columns to NaN there, while here they are implied units;
        # both end in the same NumericalError, and every stored column agrees
        monkeypatch.setattr(linalg, "SMALL", small)
        lp = LinearProgram(
            "min",
            (-9.98276146416745e-301, 34800538663.2985, 39998940243.277596, 7.1535646069213e-311),
            ((4.1640983591603824e-300, 1e-323, 36095450628.814606, 6884144900.389772),
             (3.76127785782557e-310, 0.0, -3.764665746483862e+299, -3.2583476597436103e-301)),
            (3.643474698272068e-10, 0.0))
        assert (type(lp._A) is tuple) == (small > 0)
        trace = []
        with np.errstate(all="ignore"):
            with pytest.raises(simplex.NumericalError, match="float range"):
                simplex.solve_simplex(lp, trace=trace)
            want, tableaus = full_tableau_simplex(lp)
        assert want == "NumericalError" and len(trace) == len(tableaus) == 3
        assert [t.grid.tobytes() for t in trace[:2]] == [g.tobytes() for g in tableaus[:2]]
        got, full, basis = trace[-1].grid, tableaus[-1], trace[-1].basis
        assert basis == [0, 3, 1] and np.isnan(full[:, basis]).any()
        assert got[:, basis].tolist() == np.eye(3).tolist()
        stored = [j for j in range(got.shape[1]) if j not in basis]
        assert got[:, stored].tobytes() == full[:, stored].tobytes()
