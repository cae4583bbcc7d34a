"""Input-output analysis: model construction, forecasting, resources."""

import numpy as np
import pytest

from ecomath import leontief, linalg
from ecomath.leontief import DeliveriesTable, LeontiefModel, ModelError
from ecomath.linalg import DimensionError, Matrix, Vector, mat_combine

rng = np.random.default_rng(7)


def vec(*entries):
    return Vector(tuple(float(v) for v in entries))


REF_TABLE = DeliveriesTable(Matrix.from_rows([[0, 2], [1, 0]]), vec(2, 1))


class TestModelFromTable:
    def test_reference_example(self):
        model, q, y = leontief.model_from_table(REF_TABLE)
        assert q.entries == pytest.approx((4.0, 2.0))
        assert model.P.to_array() == pytest.approx(np.array([[0, 1], [0.25, 0]]))

    def test_no_interdependence(self):
        model, q, _ = leontief.model_from_table(
            DeliveriesTable(Matrix.zeros(2, 2), vec(3, 5))
        )
        assert model.P == Matrix.zeros(2, 2)
        assert q.entries == (3.0, 5.0)

    def test_diagonal_self_consumption(self):
        model, q, _ = leontief.model_from_table(
            DeliveriesTable(Matrix.identity(2), vec(1, 1))
        )
        assert q.entries == (2.0, 2.0)
        assert model.P.to_array() == pytest.approx(np.array([[0.5, 0], [0, 0.5]]))

    def test_zero_output_agent_rejected(self):
        with pytest.raises(ModelError):
            leontief.model_from_table(
                DeliveriesTable(Matrix.zeros(2, 2), vec(1, 0))
            )

    def test_negative_entries_rejected(self):
        with pytest.raises(ModelError):
            DeliveriesTable(Matrix.from_rows([[0, -1], [0, 0]]), vec(1, 1))


class TestDemandAndOutput:
    def test_identity_technology(self):
        model = LeontiefModel(Matrix.zeros(2, 2))
        y, warn = leontief.final_demand(model, vec(3, 5))
        assert y.entries == (3.0, 5.0)
        assert not warn

    def test_reference_round_trip(self):
        model, q, y0 = leontief.model_from_table(REF_TABLE)
        y, _ = leontief.final_demand(model, q)
        assert y.entries == pytest.approx(y0.entries, abs=1e-9)
        q2, _ = leontief.total_output(model, y0)
        assert q2.entries == pytest.approx(q.entries, abs=1e-7)

    def test_halving_diagonal(self):
        model = LeontiefModel(Matrix.from_rows([[0.5, 0], [0, 0.5]]))
        y, _ = leontief.final_demand(model, vec(2, 2))
        assert y.entries == pytest.approx((1.0, 1.0))
        q, _ = leontief.total_output(model, vec(1, 1))
        assert q.entries == pytest.approx((2.0, 2.0))

    def test_negative_component_flagged_not_rejected(self):
        model = LeontiefModel(Matrix.from_rows([[0, 0.9], [0, 0]]))
        _, warn = leontief.final_demand(model, vec(1, 10))
        assert warn

    def test_dimension_mismatch(self):
        model = LeontiefModel(Matrix.zeros(2, 2))
        with pytest.raises(DimensionError):
            leontief.final_demand(model, vec(1, 2, 3))

    def test_singular_technology_rejected(self):
        with pytest.raises(ModelError):
            LeontiefModel(Matrix.identity(2))  # I - P = 0

    def test_linearity(self):
        model, _, _ = leontief.model_from_table(REF_TABLE)
        y1, y2 = vec(2, 1), vec(1, 3)
        a, b = 2.0, 0.5
        combo = Vector(tuple(a * np.array(y1.entries) + b * np.array(y2.entries)))
        lhs, _ = leontief.total_output(model, combo)
        q1, _ = leontief.total_output(model, y1)
        q2, _ = leontief.total_output(model, y2)
        rhs = a * q1.to_array() + b * q2.to_array()
        assert np.max(np.abs(lhs.to_array() - rhs)) <= 1e-7

    def test_large_n_solve_path(self):
        # n > 8 exercises the per-right-hand-side elimination path
        n = 10
        P = Matrix.from_array(rng.uniform(0, 0.08, size=(n, n)))
        model = LeontiefModel(P)
        y = Vector(tuple(rng.uniform(1, 10, size=n)))
        q, _ = leontief.total_output(model, y)
        y2, _ = leontief.final_demand(model, q)
        assert np.max(np.abs(y2.to_array() - y.to_array())) <= 1e-7


class TestResources:
    def test_identity_recipe(self):
        model, _, _ = leontief.model_from_table(REF_TABLE, R=Matrix.identity(2))
        v = leontief.resource_requirements(model, vec(4, 2), given="q")
        assert v.entries == pytest.approx((4.0, 2.0))

    def test_from_demand_with_trivial_technology(self):
        model = LeontiefModel(Matrix.zeros(2, 2), R=Matrix.from_rows([[1, 1]]))
        v = leontief.resource_requirements(model, vec(2, 1), given="y")
        assert v.entries == pytest.approx((3.0,))

    def test_scaled_recipe(self):
        model, _, _ = leontief.model_from_table(
            REF_TABLE, R=Matrix.from_rows([[2, 0], [0, 3]])
        )
        v = leontief.resource_requirements(model, vec(2, 1), given="y")
        assert v.entries == pytest.approx((8.0, 6.0))

    def test_missing_R_rejected(self):
        model, _, _ = leontief.model_from_table(REF_TABLE)
        with pytest.raises(ModelError):
            leontief.resource_requirements(model, vec(4, 2), given="q")


class TestForecast:
    def test_doubling_demand_doubles_output(self):
        model, _, _ = leontief.model_from_table(REF_TABLE)
        q, v = leontief.forecast(model, vec(4, 2))
        assert q.entries == pytest.approx((8.0, 4.0))
        assert v is None

    def test_zero_demand(self):
        model, _, _ = leontief.model_from_table(REF_TABLE)
        q, _ = leontief.forecast(model, vec(0, 0))
        assert q.entries == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_unchanged_demand_reproduces_reference(self):
        model, q_ref, y_ref = leontief.model_from_table(REF_TABLE)
        q, _ = leontief.forecast(model, y_ref)
        assert q.entries == pytest.approx(q_ref.entries, abs=1e-9)


class TestRandomRoundTrips:
    def test_three_agent_tables(self):
        for _ in range(100):
            nd = rng.integers(0, 20, size=(3, 3)).astype(float)
            y = rng.integers(1, 20, size=3).astype(float)
            table = DeliveriesTable(Matrix.from_array(nd), Vector(tuple(y)))
            model, q, y_out = leontief.model_from_table(table)
            back, _ = leontief.final_demand(model, q)
            assert np.max(np.abs(back.to_array() - y)) <= 1e-9
            q_back, _ = leontief.total_output(model, y_out)
            assert np.max(np.abs(q_back.to_array() - q.to_array())) <= 1e-7


class TestScaleAwareProductivity:
    def test_fifty_sectors_with_large_own_input(self):
        # I - P has eigenvalues 0.6 and 0.5, yet det(I - P) ~ 7e-12
        n = 50
        P = 0.4 * np.eye(n) + (0.1 / n) * np.ones((n, n))
        model = LeontiefModel(Matrix.from_array(P))
        y = Vector(np.linspace(1.0, 10.0, n))
        q, warn = leontief.total_output(model, y)
        assert not warn
        assert np.allclose(q.to_array(), np.linalg.solve(np.eye(n) - P, y.to_array()), rtol=1e-12)
        back, _ = leontief.final_demand(model, q)
        assert np.max(np.abs(back.to_array() - y.to_array())) <= 1e-9


def productive(n, seed):
    """A random P whose column sums are at most 0.9, so I - P is regular."""
    w = np.random.default_rng(seed).uniform(0.0, 1.0, (n, n))
    return w * (0.9 / w.sum(axis=0).max())


class TestTechnologyMatrix:
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 40])
    def test_bit_identical_to_identity_minus_P(self, n, zero):
        P = productive(n, n).ravel()
        P[0::3], P[1::3] = zero, -zero  # signed zeros on and off the diagonal
        P = Matrix.from_array(P.reshape(n, n))
        T = LeontiefModel(P).technology_matrix()
        reference = mat_combine(1.0, Matrix.identity(n), -1.0, P)  # the former code
        assert type(T._a) is type(reference._a)
        assert list(map(float.hex, T.entries)) == list(map(float.hex, reference.entries))

    @pytest.mark.parametrize("n", [3, 10])
    def test_built_model_forms_I_minus_P_no_more(self, n, monkeypatch):
        model = LeontiefModel(Matrix.from_array(productive(n, 5)))
        q = Vector(np.linspace(1.0, 2.0, n))
        calls = []

        def spy(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)
            return wrapper

        combine = spy("mat_combine", linalg.mat_combine)
        monkeypatch.setattr(linalg, "mat_combine", combine)
        monkeypatch.setattr(leontief, "mat_combine", combine, raising=False)
        monkeypatch.setattr(Matrix, "identity", classmethod(spy("identity", Matrix.identity.__func__)))
        T = model.technology_matrix()
        y, _ = leontief.final_demand(model, q)
        assert calls == []
        assert T is model.technology_matrix()
        assert y == linalg.mat_vec(T, q)


class TestScaleFreeFlags:
    """final_demand flags y_i < -EPS_ZERO max|T| sum|q|, total_output flags
    q_i < -EPS_ZERO sum|q|: both read the same at any scale of q or y."""

    MODEL = LeontiefModel(Matrix.from_rows([[0.2, 0.5], [0.3, 0.1]]))

    @pytest.mark.parametrize("scale", [2.0 ** -500, 1.0, 2.0 ** 500])
    def test_a_tiny_negative_demand_is_flagged(self, scale):
        y, warn = leontief.final_demand(self.MODEL, vec(1e-12 * scale, 1e-11 * scale))
        assert y[0] < 0 < y[1]  # (-4.2e-12, 8.7e-12) at scale 1
        assert warn

    @pytest.mark.parametrize("scale", [2.0 ** -500, 1.0, 2.0 ** 500])
    def test_a_tiny_negative_output_is_flagged(self, scale):
        q, warn = leontief.total_output(self.MODEL, vec(-1e-12 * scale, 1e-12 * scale))
        assert q[0] < 0 < q[1]
        assert warn

    def test_consistent_round_trips_at_large_scale_are_not_flagged(self):
        flagged = []
        for seed in range(300):
            n = 2 + seed % 11  # float tuples up to 8 sectors, arrays above
            model = LeontiefModel(Matrix.from_array(productive(n, seed)))
            y = np.random.default_rng(seed).uniform(0.0, 1e9, n)
            y[seed % n] = 0.0
            q, warn_q = leontief.total_output(model, Vector(y))
            _, warn_y = leontief.final_demand(model, q)
            if warn_q or warn_y:
                flagged.append(seed)
        assert flagged == []
