"""Simplex method: canonicalization, pivoting, solving, and the
vertex-enumeration oracle for two-variable programs."""

import copy
import pickle

import numpy as np
import pytest

from ecomath import simplex
from ecomath.simplex import LinearProgram, SimplexError

rng = np.random.default_rng(123)

WORKED = LinearProgram("max", c=(3, 2), A=((1, 1), (1, 0)), b=(4, 2))


class TestLinearProgram:
    def test_dimension_checks(self):
        with pytest.raises(SimplexError):
            LinearProgram("max", c=(1, 2), A=((1,),), b=(1,))
        with pytest.raises(SimplexError):
            LinearProgram("max", c=(1,), A=((1,), (1,)), b=(1,))

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
        # a 2x3 A holds six numbers, as a 3x2 one would: reshaping must not accept it
        with pytest.raises(SimplexError, match="one entry per variable"):
            LinearProgram("max", c=(1, 2), A=((1, 2, 3), (4, 5, 6)), b=(1, 1, 1))
        with pytest.raises(SimplexError, match="one entry per variable"):
            LinearProgram("max", c=(1, 2), A=((1, 2), (3,)), b=(1, 1))  # ragged
        with pytest.raises(SimplexError, match="one entry per variable"):
            LinearProgram("max", c=(1, 2), A=(1, 2), b=(1,))  # a flat row
        with pytest.raises(SimplexError, match="rows"):
            LinearProgram("max", c=(1, 2), A=(), b=(1,))

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_program_rejected(self, bad):
        with pytest.raises(SimplexError):
            LinearProgram("max", c=(bad, 1), A=((1, 1),), b=(1,))
        with pytest.raises(SimplexError):
            LinearProgram("max", c=(1, 1), A=((1, bad),), b=(1,))
        with pytest.raises(SimplexError):
            LinearProgram("max", c=(1, 1), A=((1, 1),), b=(bad,))
        with pytest.raises(SimplexError):
            LinearProgram("max", c=(1, 1), A=((1, 1),), b=(1,), d=bad)
