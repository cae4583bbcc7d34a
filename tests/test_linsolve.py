"""Gaussian elimination, solvability classification, determinants,
inverses, and small symmetric eigenproblems."""

import warnings

import numpy as np
import pytest

from ecomath import leontief, linalg, linsolve
from ecomath.linalg import Matrix, Vector
from ecomath.linsolve import LinearSystem, SingularMatrixError
from ecomath.numeric import NumericalError

rng = np.random.default_rng(42)


def vec(*entries):
    return Vector(tuple(float(v) for v in entries))


class TestRref:
    def test_identity_already_reduced(self):
        R, rank, pivots, det_factor = linsolve.rref(Matrix.identity(3))
        assert R == Matrix.identity(3)
        assert rank == 3
        assert pivots == (0, 1, 2)
        assert det_factor == 1.0

    def test_dependent_rows(self):
        _, rank, _, _ = linsolve.rref(Matrix.from_rows([[1, 2], [2, 4]]))
        assert rank == 1

    def test_row_swap(self):
        R, rank, _, det_factor = linsolve.rref(Matrix.from_rows([[0, 1], [1, 0]]))
        assert R == Matrix.identity(2)
        assert rank == 2
        assert det_factor == pytest.approx(-1.0)  # one swap, unit pivots

    def test_det_recoverable_from_factor(self):
        A = Matrix.from_rows([[2, 1], [4, 5]])
        R, _, _, det_factor = linsolve.rref(A)
        # det(A) = det_factor * det(R), and R is the identity here
        assert det_factor == pytest.approx(6.0)

    def test_rank_equals_rank_of_transpose(self):
        for _ in range(25):
            m, n = rng.integers(1, 6, size=2)
            A = Matrix.from_array(rng.integers(-5, 6, size=(m, n)).astype(float))
            assert linsolve.rank(A) == linsolve.rank(A.T)


class TestSolveClassification:
    def test_unique(self):
        out = linsolve.solve(LinearSystem(Matrix.from_rows([[1, 1], [1, -1]]), vec(3, 1)))
        assert out.kind == "unique"
        assert out.particular.entries == pytest.approx((2.0, 1.0))

    def test_none(self):
        out = linsolve.solve(LinearSystem(Matrix.from_rows([[1, 1], [1, 1]]), vec(1, 2)))
        assert out.kind == "none"
        assert (out.rank_A, out.rank_Ab) == (1, 2)
        assert out.particular is None

    def test_multiple_one_free_direction(self):
        out = linsolve.solve(LinearSystem(Matrix.from_rows([[1, 1]]), vec(0)))
        assert out.kind == "multiple"
        assert len(out.free_directions) == 1
        assert out.free_directions[0].entries == pytest.approx((-1.0, 1.0))

    def test_free_direction_count_is_n_minus_r(self):
        # one pivot among three unknowns: two free parameters
        out = linsolve.solve(LinearSystem(Matrix.from_rows([[1, 2, 3]]), vec(6)))
        assert out.kind == "multiple"
        assert len(out.free_directions) == 3 - out.rank_A

    def test_multiple_members_solve_the_system(self):
        A = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
        b = vec(6, 12)
        out = linsolve.solve(LinearSystem(A, b))
        assert out.kind == "multiple"
        Aa, ba = A.to_array(), b.to_array()
        for coeffs in ([0, 0], [1, 0], [-2, 3]):
            x = out.particular.to_array()
            for lam, d in zip(coeffs, out.free_directions):
                x = x + lam * d.to_array()
            assert np.max(np.abs(Aa @ x - ba)) <= 1e-9

    def test_unique_matches_inverse_oracle(self):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            out = linsolve.solve(LinearSystem(Matrix.from_array(A), Vector(tuple(b))))
            assert out.kind == "unique"
            oracle = linsolve.inverse(Matrix.from_array(A)).to_array() @ b
            assert np.max(np.abs(out.particular.to_array() - oracle)) <= 1e-6

    def test_equivalence_transformations_preserve_kind(self):
        A = Matrix.from_rows([[1, 1], [1, -1]])
        b = vec(3, 1)
        base = linsolve.solve(LinearSystem(A, b))
        variants = [
            # swap the two equations
            (Matrix.from_rows([[1, -1], [1, 1]]), vec(1, 3)),
            # rescale the first by 2
            (Matrix.from_rows([[2, 2], [1, -1]]), vec(6, 1)),
            # add the first to the second
            (Matrix.from_rows([[1, 1], [2, 0]]), vec(3, 4)),
        ]
        for Av, bv in variants:
            out = linsolve.solve(LinearSystem(Av, bv))
            assert out.kind == base.kind
            assert out.particular.entries == pytest.approx(base.particular.entries)

    def test_to_dict_serializable(self):
        import json

        out = linsolve.solve(LinearSystem(Matrix.from_rows([[1, 1]]), vec(0)))
        doc = json.loads(json.dumps(out.to_dict()))
        assert doc["kind"] == "multiple"
        assert doc["rank_A"] == 1


class TestDeterminant:
    def test_2x2(self):
        assert linsolve.determinant(Matrix.from_rows([[1, 2], [3, 4]])) == pytest.approx(-2.0)

    def test_identity(self):
        assert linsolve.determinant(Matrix.identity(3)) == pytest.approx(1.0)

    def test_3x3_cyclic_formula(self):
        A = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert linsolve.determinant(A) == pytest.approx(-3.0)

    def test_non_square_rejected(self):
        with pytest.raises(linalg.DimensionError):
            linsolve.determinant(Matrix.zeros(2, 3))

    def test_product_rule(self):
        for _ in range(25):
            A = rng.normal(size=(3, 3))
            B = rng.normal(size=(3, 3))
            dA = linsolve.determinant(Matrix.from_array(A))
            dB = linsolve.determinant(Matrix.from_array(B))
            dAB = linsolve.determinant(Matrix.from_array(A @ B))
            assert abs(dAB - dA * dB) <= 1e-6 * (1 + abs(dA * dB))

    def test_no_intermediate_overflow(self):
        A = Matrix.from_array(np.diag([1e200, 1e200, 1e-200, 1e-200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linsolve.determinant(A) == 1.0

    def test_equals_the_plain_pivot_product(self):
        local = np.random.default_rng(7)
        for _ in range(10):
            A = Matrix.from_array(local.normal(size=(6, 6)))
            assert linsolve.determinant(A) == linsolve.rref(A)[3]

    def test_beyond_float_range_raises(self):
        A = np.random.default_rng(0).normal(size=(340, 340))  # log|det| = 813.3
        with pytest.raises(linsolve.DeterminantOverflowError, match="exceeds the float range"):
            linsolve.determinant(Matrix.from_array(A))

    def test_columns_are_scaled_before_the_singularity_decision(self):
        # from n = 4 each column is judged against its own scale, while rank,
        # is_regular and inverse judge against the largest entry of A
        A = Matrix.from_array(np.diag([1.0, 1.0, 1.0, 1e-12]))
        assert linsolve.determinant(A) == 1e-12
        assert not linsolve.is_regular(A)
        with pytest.raises(SingularMatrixError):
            linsolve.inverse(A)

    def test_n4_matches_numpy(self):
        for _ in range(10):
            A = rng.integers(-4, 5, size=(4, 4)).astype(float)
            ours = linsolve.determinant(Matrix.from_array(A))
            assert ours == pytest.approx(np.linalg.det(A), abs=1e-8)


class TestInverse:
    def test_identity_self_inverse(self):
        assert linsolve.inverse(Matrix.identity(2)) == Matrix.identity(2)

    def test_diagonal_reciprocal(self):
        out = linsolve.inverse(Matrix.from_rows([[2, 0], [0, 4]]))
        assert out.to_array() == pytest.approx(np.array([[0.5, 0], [0, 0.25]]))

    def test_unit_upper_triangular(self):
        out = linsolve.inverse(Matrix.from_rows([[1, 1], [0, 1]]))
        assert out.to_array() == pytest.approx(np.array([[1, -1], [0, 1]]))

    def test_two_sided_product(self):
        for _ in range(20):
            A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            inv = linsolve.inverse(Matrix.from_array(A)).to_array()
            assert np.max(np.abs(A @ inv - np.eye(3))) <= 1e-7
            assert np.max(np.abs(inv @ A - np.eye(3))) <= 1e-7

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            linsolve.inverse(Matrix.from_rows([[1, 2], [2, 4]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestResultsBeyondTheFloatRange:
    """A result that overflows is a NumericalError, with no RuntimeWarning on
    the way, on float tuples and on arrays (SMALL = 0): at n = 2, one array
    panel at 9 and the forward pass in panels at 40."""

    @pytest.fixture(params=["tuples", "arrays"], autouse=True)
    def form(self, request, monkeypatch):
        if request.param == "arrays":
            monkeypatch.setattr(linalg, "SMALL", 0)

    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_solve(self, n):
        A = Matrix.from_array(1e-300 * np.eye(n))
        with pytest.raises(NumericalError, match="float range"):
            linsolve.solve(LinearSystem(A, Vector(np.full(n, 1e300))))

    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_inverse(self, n):
        with pytest.raises(NumericalError, match="float range"):
            linsolve.inverse(Matrix.from_array(1e-310 * np.eye(n)))

    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_rref(self, n):
        # row 1 - row 0 leaves -1e308 - 1e308 = -inf in R
        a = np.full((2, n), 1e308)
        a[1, 1:] = -1e308
        with pytest.raises(NumericalError, match="float range"):
            linsolve.rref(Matrix.from_array(a))

    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_total_output(self, n):
        # q = (I - P)^-1 y = 10 y
        model = leontief.LeontiefModel(Matrix.from_array(np.full((n, n), 0.9 / n)))
        with pytest.raises(NumericalError, match="float range"):
            leontief.total_output(model, Vector(np.full(n, 1e308)))
        # finite, though the sum of |q| behind the flag overflows at n = 40
        q, flag = leontief.total_output(model, Vector(np.full(n, 1e306)))
        assert q.entries == pytest.approx([1e307] * n, rel=1e-12) and not flag


class TestEigenSym:
    def test_diagonal(self):
        pairs = linsolve.eigen_sym(Matrix.from_rows([[2, 0], [0, 3]]))
        assert sorted(l for l, _ in pairs) == pytest.approx([2.0, 3.0])

    def test_2x2_coupled(self):
        pairs = linsolve.eigen_sym(Matrix.from_rows([[2, 1], [1, 2]]))
        assert sorted(l for l, _ in pairs) == pytest.approx([1.0, 3.0])

    def test_identity_multiplicity_3(self):
        pairs = linsolve.eigen_sym(Matrix.identity(3))
        assert [l for l, _ in pairs] == pytest.approx([1.0, 1.0, 1.0])

    def test_eigenpairs_satisfy_definition(self):
        for _ in range(20):
            B = rng.normal(size=(3, 3))
            A = (B + B.T) / 2
            for lam, v in linsolve.eigen_sym(Matrix.from_array(A)):
                va = v.to_array()
                assert np.max(np.abs(A @ va - lam * va)) <= 1e-7
                assert abs(np.linalg.norm(va) - 1.0) <= 1e-9

    def test_orthogonality_of_distinct_eigenvectors(self):
        for _ in range(20):
            B = rng.normal(size=(3, 3))
            A = (B + B.T) / 2
            pairs = linsolve.eigen_sym(Matrix.from_array(A))
            for i in range(len(pairs)):
                for j in range(i + 1, len(pairs)):
                    assert abs(linalg.dot(pairs[i][1], pairs[j][1])) <= 1e-7

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            linsolve.eigen_sym(Matrix.from_rows([[1, 2], [0, 1]]))

    def test_large_unsupported(self):
        with pytest.raises(ValueError):
            linsolve.eigen_sym(Matrix.identity(4))


class TestEigenSymFullRankShift:
    # from the linear-small benchmark workload, seed 105: rounding leaves
    # A - lambda*I at full rank for lambda ~ 1.8928
    A = np.array([
        [0.2507835856525289, -0.11408079400333265, 0.5224677111851224],
        [-0.11408079400333265, 1.8848588102872015, 0.03630110534149812],
        [0.5224677111851224, 0.03630110534149812, -0.8770394511599596],
    ])

    def test_every_pair_satisfies_definition(self):
        pairs = linsolve.eigen_sym(Matrix.from_array(self.A))
        assert len(pairs) == 3
        for lam, v in pairs:
            va = v.to_array()
            assert np.max(np.abs(self.A @ va - lam * va)) <= 1e-9
            assert abs(np.linalg.norm(va) - 1.0) <= 1e-9

    def test_full_rank_fallback_on_random_matrices(self, monkeypatch):
        # with no pivot tolerance, A - lambda*I nearly always comes out at
        # full rank, so every pair below goes through the fallback
        monkeypatch.setattr(linsolve, "PIVOT_TOL", 0.0)
        for _ in range(200):
            B = rng.normal(size=(3, 3))
            A = (B + B.T) / 2
            for lam, v in linsolve.eigen_sym(Matrix.from_array(A)):
                va = v.to_array()
                assert np.max(np.abs(A @ va - lam * va)) <= 1e-9


class TestEigenSymAtAnyScale:
    @staticmethod
    def rotated(lams, scale=1.0):
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        A = scale * (Q @ np.diag(lams) @ Q.T)
        return (A + A.T) / 2

    def test_tiny_diagonal(self):
        pairs = linsolve.eigen_sym(Matrix.from_rows([[1e-8, 0], [0, 2e-8]]))
        assert [lam for lam, _ in pairs] == pytest.approx([1e-8, 2e-8], rel=1e-15)
        assert [tuple(np.abs(v.to_array())) for _, v in pairs] == [(1.0, 0.0), (0.0, 1.0)]

    def test_small_scale_distinct_eigenvalues(self):
        A = self.rotated([1.0, 2.0, 3.0], scale=1e-5)
        lams = [lam for lam, _ in linsolve.eigen_sym(Matrix.from_array(A))]
        assert lams == pytest.approx(np.linalg.eigvalsh(A).tolist(), rel=1e-12)

    def test_close_eigenvalues_give_orthonormal_pairs(self):
        for _ in range(200):
            A = self.rotated([1.0, 1.0 + 1e-9, 2.0])
            pairs = linsolve.eigen_sym(Matrix.from_array(A))
            assert len(pairs) == 3
            V = np.array([v.to_array() for _, v in pairs]).T
            lams = np.array([lam for lam, _ in pairs])
            assert np.abs(A @ V - V * lams).max() <= 1e-12 * np.abs(A).max()
            assert np.abs(V @ V.T - np.eye(3)).max() <= 1e-12

    def test_large_scale_rounding_asymmetry_accepted(self):
        A = 1e10 * self.rotated([1.0, -2.0, 3.0])
        A[0, 1] += 1e-4
        assert len(linsolve.eigen_sym(Matrix.from_array(A))) == 3

    def test_small_scale_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            linsolve.eigen_sym(Matrix.from_rows([[1e-12, 2e-12], [0, 1e-12]]))

    def test_eigenvalues_are_python_floats(self):
        for n in (1, 2, 3):
            B = rng.normal(size=(n, n))
            pairs = linsolve.eigen_sym(Matrix.from_array(B + B.T))
            assert all(type(lam) is float for lam, _ in pairs)


class TestScaleAwareSingularity:
    @staticmethod
    def rank_deficient():
        B = np.array([
            [0.3, -1.7, 2.9, 0.1],
            [1.3, 0.7, -0.4, 2.2],
            [0.0, 0.0, 0.0, 0.0],
            [2.1, -0.6, 1.1, 0.9],
        ])
        B[2] = 0.7 * B[0] - 1.9 * B[1] + 0.3 * B[3]
        return B

    def test_small_diagonal_inverts(self):
        out = linsolve.inverse(Matrix.from_array(0.1 * np.eye(10)))
        assert np.allclose(out.to_array(), 10.0 * np.eye(10), rtol=1e-15, atol=0.0)

    def test_rank_deficient_rejected_at_every_scale(self):
        ranks = set()
        for scale in (1e-6, 1.0, 1e6):
            M = Matrix.from_array(scale * self.rank_deficient())
            with pytest.raises(SingularMatrixError):
                linsolve.inverse(M)
            ranks.add(linsolve.rank(M))
        assert ranks == {3}
