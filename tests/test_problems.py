import dataclasses

import numpy as np
import pytest
import scipy.linalg

from illposed import (NoiseSpec, NumericalError, PreconditionError, SpectralDecomposition,
                      add_noise, build_profile, cubic_separable_problem, decompose,
                      gaussian_blur_problem, hilbert_problem, identity_problem,
                      project_range_closure, rank_deficient_problem)
from illposed import problems


def problem_invariants(prob, rank_deficient=False):
    """The data is exact, and the reference is orthogonal to the numerical
    null space, taken from an SVD independent of ``decompose``."""
    A = prob.operator.entries
    resid = np.linalg.norm(A @ prob.y_reference - prob.f_exact)
    assert resid <= 1e-12 * np.linalg.norm(prob.f_exact)
    null = np.linalg.svd(A)[2][prob.decomposition.numerical_rank:].T
    assert bool(null.shape[1]) == rank_deficient
    if null.shape[1]:
        assert np.max(np.abs(null.T @ prob.y_reference)) <= 1e-10


class TestHilbert:
    def test_entries_n2(self):
        prob = hilbert_problem(2)
        scale = np.linalg.norm(scipy.linalg.hilbert(2), 2)
        assert np.allclose(prob.operator.entries * scale,
                           [[1.0, 0.5], [0.5, 1.0 / 3.0]], rtol=1e-14)

    def test_unnormalized_matrix_is_scipys_bit_for_bit(self, monkeypatch):
        entries = []
        finish = problems._finish_linear
        monkeypatch.setattr(problems, "_finish_linear",
                            lambda H, *args: entries.append(H) or finish(H, *args))
        for n in range(2, 65):
            hilbert_problem(n)
            expected = scipy.linalg.hilbert(n)
            assert entries[-1].dtype == expected.dtype
            assert np.array_equal(entries[-1].view(np.int64), expected.view(np.int64))

    def test_condition_number_n5(self):
        s = hilbert_problem(5).decomposition.singular_values
        assert s[0] / s[-1] > 1e4

    def test_invariants(self):
        problem_invariants(hilbert_problem(8))

    def test_unit_operator_norm(self):
        prob = hilbert_problem(6)
        assert abs(np.linalg.norm(prob.operator.entries, 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 65])
    def test_out_of_range(self, n):
        with pytest.raises(PreconditionError):
            hilbert_problem(n)


class TestGaussianBlur:
    def test_symmetric_kernel(self):
        prob = gaussian_blur_problem(16, 0.1)
        assert np.array_equal(prob.operator.entries, prob.operator.entries.T)

    def test_severe_spectral_decay(self):
        prob = gaussian_blur_problem(64, 0.05)
        s = np.linalg.svd(prob.operator.entries, compute_uv=False)
        assert np.min(s) < 1e-12 * s[0]
        assert prob.decomposition.numerical_rank < 64

    def test_invariants(self):
        # n = 32 keeps all 32 triplets at width 0.05; n = 64 keeps 51 of 64
        problem_invariants(gaussian_blur_problem(32, 0.05))
        problem_invariants(gaussian_blur_problem(64, 0.05), rank_deficient=True)

    def test_parameter_ranges(self):
        with pytest.raises(PreconditionError):
            gaussian_blur_problem(4, 0.05)
        with pytest.raises(PreconditionError):
            gaussian_blur_problem(257, 0.05)
        with pytest.raises(PreconditionError):
            gaussian_blur_problem(32, 1.5)
        with pytest.raises(PreconditionError):
            gaussian_blur_problem(32, 0.0)


class TestRankDeficient:
    def test_numerical_rank(self):
        prob = rank_deficient_problem(12, 6, 5)
        assert prob.decomposition.numerical_rank == 6

    def test_reference_in_row_space(self):
        prob = rank_deficient_problem(10, 4, 5)
        tail = np.linalg.svd(prob.operator.entries)[2][4:].T
        assert np.max(np.abs(tail.T @ prob.y_reference)) <= 1e-12

    def test_null_component_detected(self):
        prob = rank_deficient_problem(8, 3, 5)
        dec = prob.decomposition
        spoiled = prob.f_exact + 0.05 * np.linalg.svd(prob.operator.entries)[0][:, 5]
        assert build_profile(dec, spoiled).null_mass > 1e-4

    def test_invariants(self):
        problem_invariants(rank_deficient_problem(12, 6, 5), rank_deficient=True)

    def test_condition_recorded(self):
        s = rank_deficient_problem(12, 6, 5).decomposition.singular_values
        assert s[0] / s[-1] == pytest.approx(1e4)

    def test_rank_bounds(self):
        with pytest.raises(PreconditionError):
            rank_deficient_problem(5, 5, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(PreconditionError, match="seed must be non-negative"):
            rank_deficient_problem(12, 6, -1)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint8(5), np.int32(5)])
    def test_numpy_integer_seed_is_the_int_seed(self, seed):
        a, b = rank_deficient_problem(12, 6, seed), rank_deficient_problem(12, 6, 5)
        assert np.array_equal(a.operator.entries, b.operator.entries)
        assert np.array_equal(a.y_reference, b.y_reference)
        assert a.label == b.label


class TestIdentity:
    def test_unit_data(self):
        prob = identity_problem(4)
        assert abs(np.linalg.norm(prob.f_exact) - 1.0) <= 1e-15
        problem_invariants(prob)


class TestCubic:
    def test_scalar_example(self):
        op, f = cubic_separable_problem(1, [1.0], [1.0])
        assert f[0] == 2.0

    def test_monotone_spot_check(self):
        op, _ = cubic_separable_problem(6, [1.0, 2.0, 0.5, 1.0, 3.0, 1.5],
                                        np.zeros(6))
        # (A(u) - A(v), u - v) >= 0 over seeded random pairs, up to rounding
        rng = np.random.default_rng(2)
        for u, v in rng.standard_normal((1000, 2, 6)):
            assert (op(u) - op(v)) @ (u - v) >= -1e-12

    def test_bisection_recovers_reference(self):
        # scalar root oracle: solve a_i u + u^3 = f_i by plain bisection
        y = np.array([1.0, -1.0, 0.5, -0.25, 2.0])
        a = np.array([1.0, 0.3, 2.0, 1.0, 0.7])
        op, f = cubic_separable_problem(5, a, y)
        recovered = np.empty(5)
        for i in range(5):
            lo, hi = -10.0, 10.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if a[i] * mid + mid ** 3 < f[i]:
                    lo = mid
                else:
                    hi = mid
            recovered[i] = 0.5 * (lo + hi)
        assert np.max(np.abs(recovered - y)) <= 1e-12

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(PreconditionError):
            cubic_separable_problem(2, [1.0, 0.0], [1.0, 1.0])

    def test_size_cap(self):
        with pytest.raises(PreconditionError, match=r"n must lie in \[1, 256\]"):
            cubic_separable_problem(257, 1.0, np.ones(257))


class TestNoise:
    def test_exact_magnitude(self, hilbert8):
        # equality up to the cancellation floor of recomputing f_delta - f
        prob, dec = hilbert8
        delta = 1e-3
        f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 99))
        tol = 1e-13 * delta + 1e-15 * np.linalg.norm(prob.f_exact)
        assert abs(np.linalg.norm(f - prob.f_exact) - delta) <= tol

    def test_in_range_noise_has_no_null_mass(self):
        prob = rank_deficient_problem(12, 6, 5)
        dec = prob.decomposition
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
        assert build_profile(dec, f).null_mass <= 1e-20

    def test_out_of_range_noise_has_null_mass(self):
        # without a decomposition the draw is not projected
        prob = rank_deficient_problem(12, 6, 5)
        f = add_noise(prob.f_exact, None, NoiseSpec(1e-2, 7))
        assert build_profile(prob.decomposition, f).null_mass > 1e-8

    def test_seeded_determinism(self, gauss32):
        prob, dec = gauss32
        spec = NoiseSpec(1e-2, 1234)
        f1 = add_noise(prob.f_exact, dec, spec)
        f2 = add_noise(prob.f_exact, dec, spec)
        assert np.array_equal(f1, f2)

    def test_different_seeds_differ(self, gauss32):
        prob, dec = gauss32
        f1 = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 1))
        f2 = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 2))
        assert not np.array_equal(f1, f2)

    def test_delta_must_be_below_data_norm(self, hilbert8):
        prob, dec = hilbert8
        with pytest.raises(PreconditionError):
            add_noise(prob.f_exact, dec, NoiseSpec(10.0, 0))

    def test_degenerate_direction_fails_after_8_redraws(self, monkeypatch):
        # no retained left vector: every draw projects to 0
        dec = SpectralDecomposition(np.zeros(0), np.zeros((3, 0)), np.zeros((3, 0)))
        seeds = []
        rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or rng(seed))
        with pytest.raises(NumericalError, match="^noise direction degenerated after 8 redraws$"):
            add_noise(np.ones(3), dec, NoiseSpec(1e-2, 7))
        assert seeds == list(range(7, 16))

    def test_negative_seed_rejected(self):
        with pytest.raises(PreconditionError, match="seed must be non-negative"):
            NoiseSpec(1e-2, -1)

    @pytest.mark.parametrize("seed", [np.int64(1234), np.uint16(1234), np.int32(1234)])
    def test_numpy_integer_seed_is_the_int_seed(self, gauss32, seed):
        prob, dec = gauss32
        assert np.array_equal(add_noise(prob.f_exact, dec, NoiseSpec(1e-2, seed)),
                              add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 1234)))

    @pytest.mark.parametrize("in_range_closure", [True, False])
    @pytest.mark.parametrize("make", [
        lambda: gaussian_blur_problem(64, 0.05),
        lambda: gaussian_blur_problem(256, 0.05),
        lambda: identity_problem(4),
        lambda: rank_deficient_problem(12, 6, 3),
    ], ids=["blur64", "blur256", "identity", "rank_deficient"])
    def test_bitwise_the_reference_composition(self, make, in_range_closure):
        # the seeded draw, projected by the public projection when a
        # decomposition is passed, scaled by np.linalg.norm: add_noise's own
        # arithmetic must give the same bits
        prob = make()
        dec = prob.decomposition
        for seed in range(5):
            e = np.random.default_rng(seed).standard_normal(prob.f_exact.shape[0])
            p = project_range_closure(dec, e) if in_range_closure else e
            expected = prob.f_exact + (1e-3 / np.linalg.norm(p)) * p
            f = add_noise(prob.f_exact, dec if in_range_closure else None,
                          NoiseSpec(1e-3, seed))
            assert f.tobytes() == expected.tobytes()

    def test_generators_are_pure(self):
        a = rank_deficient_problem(9, 4, 42)
        b = rank_deficient_problem(9, 4, 42)
        assert np.array_equal(a.operator.entries, b.operator.entries)
        assert np.array_equal(a.f_exact, b.f_exact)
        assert np.array_equal(a.y_reference, b.y_reference)


GENERATORS = pytest.mark.parametrize("make", [
    lambda: identity_problem(4),
    lambda: hilbert_problem(8),
    lambda: gaussian_blur_problem(64, 0.05),
    lambda: rank_deficient_problem(12, 6, 3),
], ids=["identity", "hilbert", "gaussian_blur", "rank_deficient"])


def _arrays(obj):
    """Every array reachable through the dataclass fields of ``obj``."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


@GENERATORS
def test_every_array_of_a_problem_is_read_only(make):
    # the CLI shares one built problem between requests on this property
    arrays = list(_arrays(make()))
    assert len(arrays) == 7  # entries, f, y, three decomposition arrays, lambdas
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


@GENERATORS
def test_decomposition_is_bitwise_that_of_the_operator(make):
    prob = make()
    fresh = decompose(prob.operator)
    for name in ("singular_values", "left_vectors", "right_vectors"):
        kept, recomputed = getattr(prob.decomposition, name), getattr(fresh, name)
        assert kept.shape == recomputed.shape
        assert np.array_equal(kept.view(np.int64), recomputed.view(np.int64))
