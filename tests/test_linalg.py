"""Vectors, matrices, and the shared matrix text format."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecomath import linalg
from ecomath.linalg import DimensionError, FormatError, Matrix, Vector
from ecomath.numeric import NumericalError


def vec(*entries):
    return Vector(tuple(float(v) for v in entries))


class TestVector:
    def test_min_dimension(self):
        with pytest.raises(DimensionError):
            Vector(())

    def test_double_transpose(self):
        v = vec(1, 2, 3)
        assert v.T.T == v
        assert v.T.orientation == "row"


class TestMatrix:
    def test_entry_count_enforced(self):
        with pytest.raises(DimensionError):
            Matrix(2, 2, (1.0, 2.0, 3.0))

    def test_double_transpose(self):
        A = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert A.T.T == A

    def test_identity(self):
        assert Matrix.identity(3).to_array().tolist() == np.eye(3).tolist()


class TestLinearCombination:
    def test_addition(self):
        assert linalg.linear_combination([1, 1], [vec(1, 2), vec(3, 4)]) == vec(4, 6)

    def test_zero_rescaling(self):
        assert linalg.linear_combination([0], [vec(5, 7)]) == vec(0, 0)

    def test_canonical_basis_expansion(self):
        assert linalg.linear_combination([2, -1], [vec(1, 0), vec(0, 1)]) == vec(2, -1)

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            linalg.linear_combination([], [])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.linear_combination([1, 1], [vec(1, 2), vec(1, 2, 3)])


class TestDotNormAngle:
    def test_unit_vector(self):
        assert linalg.dot(vec(1, 0), vec(1, 0)) == 1.0

    def test_direct_summation(self):
        assert linalg.dot(vec(1, 2), vec(3, 4)) == 11.0

    def test_orthogonality_flag(self):
        assert linalg.dot(vec(1, 0), vec(0, 1)) == 0.0
        assert linalg.are_orthogonal(vec(1, 0), vec(0, 1))

    def test_norm_345(self):
        assert linalg.norm(vec(3, 4)) == 5.0

    def test_norm_zero(self):
        assert linalg.norm(vec(0, 0)) == 0.0

    def test_norm_homogeneous(self):
        assert linalg.norm(vec(-2, 0)) == 2.0

    def test_angle_orthogonal(self):
        assert linalg.angle(vec(1, 0), vec(0, 1)) == pytest.approx(math.pi / 2)

    def test_angle_parallel(self):
        assert linalg.angle(vec(2, 0), vec(5, 0)) == pytest.approx(0.0)

    def test_angle_45_degrees(self):
        assert linalg.angle(vec(1, 0), vec(1, 1)) == pytest.approx(math.pi / 4)

    def test_angle_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            linalg.angle(vec(0, 0), vec(1, 0))

    @pytest.mark.parametrize("n", [3, 9])  # float tuples, an array
    def test_a_product_past_the_float_range_is_a_numerical_error(self, n):
        # dot gave inf (an array with a RuntimeWarning), and mat_mul and mat_vec
        # said "entries must be finite", a message about their inputs
        v, A = Vector([1e300] * n), Matrix(n, n, [1e300] * (n * n))
        w = Vector([1e300, -1e300] + [0.0] * (n - 2))  # inf - inf in the tuples' fsum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for product in (lambda: linalg.dot(v, v), lambda: linalg.dot(v, w),
                            lambda: linalg.mat_mul(A, A), lambda: linalg.mat_vec(A, v)):
                with pytest.raises(NumericalError, match="beyond the float range"):
                    product()


class TestScaleFreeDecisions:
    def test_normalize_tiny_vector(self):
        assert linalg.normalize(vec(3e-10, 4e-10)).entries == pytest.approx((0.6, 0.8))

    def test_small_vectors_at_45_degrees_not_orthogonal(self):
        assert not linalg.are_orthogonal(vec(1e-5, 0), vec(1e-5, 1e-5))

    def test_angle_of_huge_vectors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.angle(vec(1e200, 1e200), vec(1e200, 0)) == pytest.approx(math.pi / 4)

    def test_zero_vector_orthogonal_to_everything(self):
        assert linalg.are_orthogonal(vec(0, 0), vec(1, 2))
        with pytest.raises(ValueError):
            linalg.normalize(vec(0, 0))

    @staticmethod
    def decisions(a, b):
        try:
            theta = linalg.angle(a, b)
        except ValueError:
            theta = None
        return theta, linalg.are_orthogonal(a, b)

    @given(
        st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
        st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
    )
    @settings(max_examples=100)
    def test_same_answer_at_any_scale(self, a, b):
        theta, orth = self.decisions(vec(*a), vec(*b))
        for s in (1e-150, 1e150):
            theta_s, orth_s = self.decisions(
                Vector(s * np.array(a, dtype=float)), Vector(s * np.array(b, dtype=float))
            )
            assert orth_s == orth
            if theta is None:
                assert theta_s is None
            else:
                assert theta_s == pytest.approx(theta, abs=1e-7)


class TestMatrixOps:
    def test_addition_identity(self):
        A = Matrix.from_rows([[1, 2], [3, 4]])
        Z = Matrix.zeros(2, 2)
        assert linalg.mat_combine(1, A, 1, Z) == A

    def test_pure_rescaling(self):
        A = Matrix.from_rows([[1, 2], [3, 4]])
        out = linalg.mat_combine(2, A, 0, A)
        assert out == Matrix.from_rows([[2, 4], [6, 8]])

    def test_entrywise_sum(self):
        out = linalg.mat_combine(1, Matrix.from_rows([[1, 0]]), 1, Matrix.from_rows([[0, 1]]))
        assert out == Matrix.from_rows([[1, 1]])

    def test_format_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.mat_combine(1, Matrix.zeros(2, 2), 1, Matrix.zeros(2, 3))

    def test_identity_column(self):
        out = linalg.mat_mul(Matrix.identity(2), Matrix.from_rows([[5], [7]]))
        assert out == Matrix.from_rows([[5], [7]])

    def test_column_extraction(self):
        out = linalg.mat_mul(
            Matrix.from_rows([[1, 2], [3, 4]]), Matrix.from_rows([[0], [1]])
        )
        assert out == Matrix.from_rows([[2], [4]])

    def test_zero_divisor(self):
        N = Matrix.from_rows([[0, 1], [0, 0]])
        assert linalg.mat_mul(N, N) == Matrix.zeros(2, 2)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.mat_mul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))

    @pytest.mark.parametrize("n", [linalg.SMALL + 1, 30])
    def test_array_paths_match_numpy(self, n):
        g = np.random.default_rng(n)
        a, b = g.standard_normal((3, n)), g.standard_normal((n, 4))
        A, B = Matrix.from_array(a), Matrix.from_array(b)
        assert type(A._a) is not tuple and type(B._a) is not tuple
        assert np.array_equal(A.T.to_array(), a.T)
        lams, vs = g.standard_normal(3), a
        got = linalg.linear_combination(lams, [Vector(v) for v in vs])
        assert np.array_equal(got.to_array(), lams[0] * vs[0] + lams[1] * vs[1] + lams[2] * vs[2])
        u, v = a[0], b[:, 0]
        assert linalg.dot(Vector(u), Vector(v)) == pytest.approx(
            np.dot(u, v), rel=1e-12, abs=1e-12 * np.abs(u * v).sum())
        got = linalg.mat_mul(A, B).to_array()
        assert np.all(np.abs(got - a @ b) <= 1e-12 * (np.abs(a) @ np.abs(b)))


rng = np.random.default_rng(20260823)


class TestAlgebraicProperties:
    def test_associativity(self):
        for _ in range(20):
            A, B, C = (Matrix.from_array(rng.normal(size=(3, 3))) for _ in range(3))
            lhs = linalg.mat_mul(A, linalg.mat_mul(B, C)).to_array()
            rhs = linalg.mat_mul(linalg.mat_mul(A, B), C).to_array()
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_transpose_of_product(self):
        for _ in range(20):
            A = Matrix.from_array(rng.integers(-9, 10, size=(3, 4)).astype(float))
            B = Matrix.from_array(rng.integers(-9, 10, size=(4, 2)).astype(float))
            lhs = linalg.mat_mul(A, B).T.to_array()
            rhs = linalg.mat_mul(B.T, A.T).to_array()
            assert np.array_equal(lhs, rhs)

    def test_linearity_of_matrix_maps(self):
        for _ in range(20):
            A = Matrix.from_array(rng.normal(size=(3, 3)))
            x1, x2 = rng.normal(size=3), rng.normal(size=3)
            lam = float(rng.normal())
            Ax = lambda v: linalg.mat_vec(A, Vector(tuple(v))).to_array()
            assert np.max(np.abs(Ax(x1 + x2) - (Ax(x1) + Ax(x2)))) <= 1e-9
            assert np.max(np.abs(Ax(lam * x1) - lam * Ax(x1))) <= 1e-9

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    )
    @settings(max_examples=100)
    def test_triangle_inequality(self, a, b):
        va, vb = Vector(tuple(a)), Vector(tuple(b))
        s = linalg.linear_combination([1, 1], [va, vb])
        assert linalg.norm(s) <= linalg.norm(va) + linalg.norm(vb) + 1e-6

    def test_cosine_always_clamped(self):
        # nearly parallel vectors can push the raw cosine past 1
        a = vec(1, 1e-16)
        b = vec(1, 0)
        assert 0.0 <= linalg.angle(a, b) <= math.pi


class TestMatrixTextFormat:
    def test_round_trip(self, tmp_path):
        A = Matrix.from_rows([[1.5, -2.25], [0, 4]])
        path = tmp_path / "m.txt"
        linalg.write_matrix(path, A)
        assert linalg.read_matrix(path) == A

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n1, 2\n# mid comment\n3, 4\n"
        assert linalg.parse_matrix_text(text) == Matrix.from_rows([[1, 2], [3, 4]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(FormatError):
            linalg.parse_matrix_text("1,2\n3\n")

    def test_bad_number_rejected(self):
        with pytest.raises(FormatError):
            linalg.parse_matrix_text("1,two\n")

    def test_vector_round_trip(self):
        v = vec(1, 2.5, -3)
        assert linalg.parse_vector_text(linalg.format_vector_text(v)) == v


class TestInputBoundary:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            Matrix.from_rows([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Matrix.from_array(np.array([[bad]]))
        with pytest.raises(ValueError):
            Vector((1.0, bad))

    def test_large_finite_arrays_are_held_without_a_warning(self):
        # the finiteness shortcut sums the entries, and that sum overflows
        huge = np.full((9, 9), 1e308)
        huge[::2] *= -1.0  # blocks summing to +inf and -inf make NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for a in (np.full((9, 9), 1e308), huge):
                assert Matrix.from_array(a).to_array().max() == 1e308
            assert Vector(np.full(9, 1e308)).entries == (1e308,) * 9
            with pytest.raises(ValueError, match="finite"):
                Matrix.from_array(np.vstack([huge, np.full(9, np.inf)]))

    def test_non_finite_text_is_a_format_error(self):
        with pytest.raises(FormatError):
            linalg.parse_matrix_text("1,nan\n3,4\n")

    def test_whitespace_separated_rows(self):
        want = Matrix.from_rows([[1, 2], [3, 4]])
        assert linalg.parse_matrix_text("1 2\n3 4") == want
        assert linalg.parse_matrix_text("1\t 2\n  3 4  \n") == want
        assert linalg.parse_vector_text("1.5 -2 3\n") == Vector((1.5, -2.0, 3.0), "row")
        with pytest.raises(FormatError):  # an empty comma field is still an error
            linalg.parse_matrix_text("1,,2\n")

    def test_values_are_read_only(self):
        A = Matrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            A.to_array()[0, 0] = 9.0
        with pytest.raises(AttributeError):
            A.rows = 3
        assert A == Matrix.from_rows([[1, 2], [3, 4]])
        assert hash(Matrix.from_rows([[0.0]])) == hash(Matrix.from_rows([[-0.0]]))
