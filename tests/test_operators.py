import math

import numpy as np
import pytest

from illposed import (DenseOperator, DimensionMismatchError, NoiseSpec,
                      PreconditionError, add_noise, build_profile, decompose,
                      default_schedule, gaussian_blur_problem, normalize,
                      project_range_closure, rank_deficient_problem,
                      regularized_normal_solve, regularized_normal_solve_direct,
                      solve_for_epsilon, stop_from_profile)
from illposed.operators import DEFAULT_RANK_TOLERANCE


class TestStorage:
    def test_entries_are_a_read_only_copy_of_writable_or_borrowed_data(self):
        M = np.eye(3)
        view = M[:, :2]
        view.setflags(write=False)  # read-only, but M can still write it
        ops = [DenseOperator(data) for data in (M, view, M.tolist())]
        M[0, 0] = 5.0
        for A in ops:
            assert not A.entries.flags.writeable
            assert A.entries[0, 0] == 1.0

    def test_read_only_float_data_it_owns_is_kept(self):
        M = np.eye(3)
        M.setflags(write=False)
        assert DenseOperator(M).entries is M
        assert DenseOperator(M.astype(np.float32)).entries.dtype == float


class TestNormalize:
    def test_diagonal(self):
        A = normalize(DenseOperator(np.diag([2.0, 1.0])))
        assert np.allclose(A.entries, np.diag([1.0, 0.5]))

    def test_identity(self):
        A = normalize(DenseOperator(np.eye(3)))
        assert np.array_equal(A.entries, np.eye(3))

    def test_unit_norm_after(self, rng):
        A = normalize(DenseOperator(rng.standard_normal((8, 8))))
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

    def test_lambdas_are_the_squares_read_only(self, rng):
        dec = decompose(DenseOperator(rng.standard_normal((7, 5))))
        s = dec.singular_values
        assert dec.lambdas.tobytes() == (s * s).tobytes()
        assert not dec.lambdas.flags.writeable
        with pytest.raises(ValueError):
            dec.lambdas[0] = 0.0

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

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_spectral_matches_direct_within_conditioning(self, n, delta):
        # at the discrepancy root the Cholesky path's rounding grows with the
        # condition number ~1/eps of A^T A + eps I (measured: 5.5e-14 at
        # n = 64, delta = 1e-2 up to 2.7e-9 at n = 256, delta = 1e-6)
        prob = gaussian_blur_problem(n, 0.05)
        dec = prob.decomposition
        f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 7))
        eps = solve_for_epsilon(build_profile(dec, f), delta, 1.0)
        w1 = regularized_normal_solve(dec, eps, f)
        w2 = regularized_normal_solve_direct(prob.operator, eps, f)
        assert np.linalg.norm(w1 - w2) <= 1e-15 / eps * np.linalg.norm(w1)

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

    @pytest.mark.parametrize("make", [
        lambda: gaussian_blur_problem(64, 0.05),
        lambda: gaussian_blur_problem(256, 0.05),
        lambda: rank_deficient_problem(12, 6, 3),
    ], ids=["blur64", "blur256", "rank_deficient"])
    def test_bitwise_the_formula_on_the_singular_values(self, make, rng):
        # dividing by dec.lambdas + eps gives the bits of s * s + eps
        prob = make()
        dec = prob.decomposition
        s, U, V = dec.singular_values, dec.left_vectors, dec.right_vectors
        f = prob.f_exact + 1e-3 * rng.standard_normal(prob.f_exact.shape[0])
        for eps in (1e-12, 1e-6, 1e-2, 3.0):
            expected = V @ (s * (U.T @ f) / (s * s + eps))
            assert regularized_normal_solve(dec, eps, f).tobytes() == expected.tobytes()

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
        proj = project_range_closure(dec, f)
        assert np.allclose(proj, f, atol=1e-13)
        assert float((f - proj) @ (f - proj)) <= 1e-25

    def test_axis_aligned_null_space(self):
        dec = decompose(DenseOperator(np.diag([1.0, 0.0])))
        proj = project_range_closure(dec, [1.0, 1.0])
        assert proj.shape == (2,)
        assert np.allclose(proj, [1.0, 0.0])
        assert abs(float((1.0 - proj) @ (1.0 - proj)) - 1.0) <= 1e-15

    def test_idempotent(self, rng):
        # rank-deficient instance: projecting twice equals projecting once
        U = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        M = (U[:, :3] * np.array([1.0, 0.5, 0.1])) @ V[:, :3].T
        dec = decompose(DenseOperator(M))
        f = rng.standard_normal(6)
        once = project_range_closure(dec, f)
        twice = project_range_closure(dec, once)
        assert np.max(np.abs(twice - once)) <= 1e-14
        assert float((once - twice) @ (once - twice)) <= 1e-28


def _reference_noise(f, U, delta, seed):
    """``add_noise`` on a blur problem, written with ``@`` products."""
    for attempt in range(9):
        e = np.random.default_rng(seed + attempt).standard_normal(f.shape[0])
        e = U @ (U.T @ e)
        norm_e = math.sqrt(e @ e)
        if norm_e > 1e-8:
            return f + (delta / norm_e) * e
    raise AssertionError("no draw kept")


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
def test_request_path_has_the_bits_of_the_matmul_expressions(n, delta):
    # the library takes these products with ndarray.dot; the references
    # take them with @, and every result must agree bit for bit
    prob = gaussian_blur_problem(n, 0.05)
    dec = prob.decomposition
    s, U, V, lam = dec.singular_values, dec.left_vectors, dec.right_vectors, dec.lambdas
    f_exact, schedule = prob.f_exact, default_schedule()
    for seed in range(50):
        f = add_noise(f_exact, dec, NoiseSpec(delta, seed))
        assert f.tobytes() == _reference_noise(f_exact, U, delta, seed).tobytes()
        e = np.random.default_rng(seed).standard_normal(n)
        assert project_range_closure(dec, e).tobytes() == (U @ (U.T @ e)).tobytes()
        p = build_profile(dec, f)
        g = U.T @ f
        remainder = f - U @ g
        assert p.coefficients.tobytes() == g.tobytes()
        assert p.null_mass == float(remainder @ remainder)
        assert p.data_norm_sq == float(f @ f)
        eps = stop_from_profile(p, schedule, delta).epsilon_star
        expected = V @ (s * (U.T @ f) / np.add(lam, eps))
        assert regularized_normal_solve(dec, eps, f).tobytes() == expected.tobytes()
