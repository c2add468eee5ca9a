import numpy as np
import pytest

from illposed import (DenseOperator, DimensionMismatchError, PreconditionError,
                      decompose, gaussian_blur_problem, load_matrix, load_operator,
                      load_vector, normalize, project_range_closure,
                      rank_deficient_problem, regularized_normal_solve,
                      regularized_normal_solve_direct, save_matrix, save_operator,
                      save_vector)
from illposed.operators import DEFAULT_RANK_TOLERANCE


def naive_matvec(M, x):
    """Triple-loop reference product, independent of numpy's dot."""
    out = [0.0] * M.shape[0]
    for i in range(M.shape[0]):
        acc = 0.0
        for j in range(M.shape[1]):
            acc += M[i, j] * x[j]
        out[i] = acc
    return np.array(out)


class TestApply:
    def test_identity(self):
        A = DenseOperator(np.eye(2))
        assert np.array_equal(A.apply([3.0, -1.0]), [3.0, -1.0])

    def test_diagonal(self):
        A = DenseOperator(np.diag([1.0, 0.5]))
        assert np.array_equal(A.apply([1.0, 1.0]), [1.0, 0.5])

    def test_matches_naive_product(self, rng):
        M = rng.standard_normal((5, 3))
        x = rng.standard_normal(3)
        got = DenseOperator(M).apply(x)
        assert np.max(np.abs(got - naive_matvec(M, x))) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DenseOperator(np.eye(2)).apply([1.0, 2.0, 3.0])


class TestAdjoint:
    def test_identity(self):
        A = DenseOperator(np.eye(2))
        assert np.array_equal(A.adjoint_apply([1.0, 2.0]), [1.0, 2.0])

    def test_shift(self):
        A = DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(A.adjoint_apply([1.0, 0.0]), [0.0, 1.0])

    def test_pairing_identity(self, rng):
        # (A x, y) == (x, A^T y) over random pairs
        M = rng.standard_normal((6, 4))
        A = DenseOperator(M)
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(6)
            lhs = A.apply(x) @ y
            rhs = x @ A.adjoint_apply(y)
            assert abs(lhs - rhs) <= 1e-13

    def test_pairing_scaled_bound(self, rng):
        M = rng.standard_normal((7, 5))
        A = DenseOperator(M)
        norm_a = np.linalg.norm(M, 2)
        for _ in range(50):
            x = rng.standard_normal(5) * 10.0
            y = rng.standard_normal(7) * 10.0
            gap = abs(A.apply(x) @ y - x @ A.adjoint_apply(y))
            assert gap <= 1e-12 * norm_a * np.linalg.norm(x) * np.linalg.norm(y)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DenseOperator(np.ones((3, 2))).adjoint_apply([1.0, 2.0])


class TestNormalize:
    def test_diagonal(self):
        A, scale = normalize(DenseOperator(np.diag([2.0, 1.0])))
        assert scale == 2.0
        assert np.allclose(A.entries, np.diag([1.0, 0.5]))

    def test_identity(self):
        A, scale = normalize(DenseOperator(np.eye(3)))
        assert scale == 1.0
        assert np.array_equal(A.entries, np.eye(3))

    def test_unit_norm_after(self, rng):
        A, _ = normalize(DenseOperator(rng.standard_normal((8, 8))))
        top = np.linalg.svd(A.entries, compute_uv=False)[0]
        assert abs(top - 1.0) <= 1e-12

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            normalize(DenseOperator(np.zeros((2, 2))))


class TestDecompose:
    def test_diagonal(self):
        dec = decompose(DenseOperator(np.diag([3.0, 1.0])))
        assert np.allclose(dec.singular_values, [3.0, 1.0])
        # axis-aligned singular vectors up to sign
        assert np.allclose(np.abs(dec.left_vectors), np.eye(2), atol=1e-14)
        assert np.allclose(np.abs(dec.right_vectors), np.eye(2), atol=1e-14)

    def test_rank_one(self):
        dec = decompose(DenseOperator(np.ones((2, 2))))
        assert np.allclose(dec.singular_values, [2.0], atol=1e-15)
        assert dec.numerical_rank == 1
        assert dec.left_vectors.shape == dec.right_vectors.shape == (2, 1)

    def test_hilbert_vs_eigendecomposition(self):
        # eigenvalues of A^T A are the squared singular values; the eigen
        # oracle carries absolute error ~eps*lambda_1, so compare on that scale
        import scipy.linalg
        H = scipy.linalg.hilbert(5)
        dec = decompose(DenseOperator(H))
        eigs = np.sort(np.linalg.eigvalsh(H.T @ H))[::-1]
        assert np.max(np.abs(dec.singular_values ** 2 - eigs)) <= 1e-10 * eigs[0]

    def test_reconstruction(self, rng):
        M = rng.standard_normal((6, 4))
        dec = decompose(DenseOperator(M))
        rebuilt = (dec.left_vectors * dec.singular_values) @ dec.right_vectors.T
        assert np.linalg.norm(M - rebuilt) <= 1e-10 * dec.singular_values[0]

    def test_orthonormal_factors(self, rng):
        dec = decompose(DenseOperator(rng.standard_normal((7, 5))))
        k = dec.singular_values.shape[0]
        assert np.linalg.norm(dec.left_vectors.T @ dec.left_vectors - np.eye(k)) <= 1e-10
        assert np.linalg.norm(dec.right_vectors.T @ dec.right_vectors - np.eye(k)) <= 1e-10

    def test_triplet_consistency(self, rng):
        M = rng.standard_normal((5, 5))
        dec = decompose(DenseOperator(M))
        for i in range(dec.numerical_rank):
            lhs = M @ dec.right_vectors[:, i]
            rhs = dec.singular_values[i] * dec.left_vectors[:, i]
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * dec.singular_values[0]

    @pytest.mark.parametrize("problem", [lambda: gaussian_blur_problem(64, 0.05),
                                         lambda: rank_deficient_problem(12, 6, 5)],
                             ids=["blur64", "rank_deficient12"])
    def test_keeps_only_the_triplets_above_the_cutoff(self, problem):
        A = problem().operator
        dec = decompose(A)
        r = dec.numerical_rank
        assert dec.singular_values.shape == (r,)
        assert dec.left_vectors.shape == (A.rows, r)
        assert dec.right_vectors.shape == (A.cols, r)
        assert np.all(dec.singular_values > DEFAULT_RANK_TOLERANCE * dec.singular_values[0])
        s = np.linalg.svd(A.entries, compute_uv=False)
        assert r == np.count_nonzero(s > DEFAULT_RANK_TOLERANCE * s[0]) < s.size

    def test_bad_tolerance(self):
        with pytest.raises(PreconditionError):
            decompose(DenseOperator(np.eye(2)), rank_tolerance=1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(PreconditionError):
            DenseOperator(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestRegularizedSolve:
    def test_diagonal_closed_form(self):
        dec = decompose(DenseOperator(np.diag([1.0, 0.5])))
        w = regularized_normal_solve(dec, 0.25, [1.0, 1.0])
        assert np.allclose(w, [0.8, 1.0], rtol=0, atol=1e-15)

    def test_identity_half(self, rng):
        dec = decompose(DenseOperator(np.eye(4)))
        f = rng.standard_normal(4)
        assert np.allclose(regularized_normal_solve(dec, 1.0, f), f / 2.0)

    def test_spectral_matches_direct(self, rng):
        A = DenseOperator(rng.standard_normal((10, 10)))
        dec = decompose(A)
        f = rng.standard_normal(10)
        w1 = regularized_normal_solve(dec, 1e-3, f)
        w2 = regularized_normal_solve_direct(A, 1e-3, f)
        assert np.linalg.norm(w1 - w2) <= 1e-9 * np.linalg.norm(w1)

    def test_normal_equation_residual(self, rng):
        A = DenseOperator(rng.standard_normal((8, 6)))
        dec = decompose(A)
        f = rng.standard_normal(8)
        eps = 1e-2
        w = regularized_normal_solve(dec, eps, f)
        lhs = A.entries.T @ (A.entries @ w) + eps * w
        rhs = A.entries.T @ f
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_monotone_damping(self, rng):
        A = DenseOperator(rng.standard_normal((6, 6)))
        dec = decompose(A)
        f = rng.standard_normal(6)
        norms = [np.linalg.norm(regularized_normal_solve(dec, e, f))
                 for e in np.geomspace(10.0, 1e-8, 40)]
        # eps descending, so solution norms must be nondecreasing
        for a, b in zip(norms[:-1], norms[1:]):
            assert b >= a * (1 - 1e-14)

    def test_nonpositive_eps(self):
        dec = decompose(DenseOperator(np.eye(2)))
        with pytest.raises(PreconditionError):
            regularized_normal_solve(dec, 0.0, [1.0, 1.0])
        with pytest.raises(PreconditionError):
            regularized_normal_solve_direct(DenseOperator(np.eye(2)), -1.0, [1.0, 1.0])


def test_commutation_identity(rng):
    # (A^T A + a)^{-1} A^T f == A^T (A A^T + a)^{-1} f
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(2, 11))
        M = rng.standard_normal((m, n))
        a = float(rng.uniform(1e-3, 10.0))
        f = rng.standard_normal(m)
        lhs = np.linalg.solve(M.T @ M + a * np.eye(n), M.T @ f)
        rhs = M.T @ np.linalg.solve(M @ M.T + a * np.eye(m), f)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(f)


class TestProjection:
    def test_full_rank_unchanged(self, rng):
        dec = decompose(DenseOperator(rng.standard_normal((5, 5))))
        f = rng.standard_normal(5)
        proj, null_mass = project_range_closure(dec, f)
        assert np.allclose(proj, f, atol=1e-13)
        assert null_mass <= 1e-25

    def test_axis_aligned_null_space(self):
        dec = decompose(DenseOperator(np.diag([1.0, 0.0])))
        proj, null_mass = project_range_closure(dec, [1.0, 1.0])
        assert np.allclose(proj, [1.0, 0.0])
        assert abs(null_mass - 1.0) <= 1e-15

    def test_idempotent(self, rng):
        # rank-deficient instance: projecting twice equals projecting once
        U = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        M = (U[:, :3] * np.array([1.0, 0.5, 0.1])) @ V[:, :3].T
        dec = decompose(DenseOperator(M))
        f = rng.standard_normal(6)
        once, _ = project_range_closure(dec, f)
        twice, residue = project_range_closure(dec, once)
        assert np.max(np.abs(twice - once)) <= 1e-14
        assert residue <= 1e-28


class TestSerialization:
    def test_matrix_round_trip(self, tmp_path, rng):
        M = rng.standard_normal((4, 3)) * np.exp(rng.uniform(-20, 20, (4, 3)))
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        assert np.array_equal(load_matrix(path), M)

    def test_header_format(self, tmp_path):
        path = tmp_path / "a.txt"
        save_operator(path, DenseOperator(np.array([[1.0, 2.0], [3.0, 4.0]])))
        first = path.read_text().splitlines()[0]
        assert first == "2 2"
        assert np.array_equal(load_operator(path).entries, [[1.0, 2.0], [3.0, 4.0]])

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.0, -2.5, 1e-300, 12345.678901234567])
        path = tmp_path / "v.txt"
        save_vector(path, v)
        assert np.array_equal(load_vector(path), v)

    def test_malformed_body_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0\n")
        with pytest.raises(PreconditionError):
            load_matrix(path)
