"""Property-based checks of the library's structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from illposed import (DenseOperator, NoiseSpec, NumericalError, PowerLawSchedule,
                      PreconditionError, add_noise, build_profile, decompose,
                      discrepancy_value, regularized_normal_solve, solve_for_epsilon)

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def small_matrices(draw, max_dim=6):
    rows = draw(st.integers(2, max_dim))
    cols = draw(st.integers(2, max_dim))
    entries = draw(st.lists(finite_floats, min_size=rows * cols,
                            max_size=rows * cols))
    return np.array(entries).reshape(rows, cols)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.01, 0.99),
       st.floats(1e-12, 1.0))
def test_schedule_round_trip(c0, c1, b, frac):
    assume(math.log(1.0 / frac) / b < 500.0)  # keep the root inside float range
    s = PowerLawSchedule(c0, c1, b)
    g = frac * s.eval(0.0)
    t = s.invert(g)
    assert t >= 0.0
    assert abs(s.eval(t) - g) <= 1e-12 * g


@settings(max_examples=40, deadline=None)
@given(small_matrices(), st.integers(0, 2 ** 31 - 1))
def test_solution_norm_shrinks_with_eps(M, seed):
    dec = decompose(DenseOperator(M))
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(M.shape[0])
    norms = [np.linalg.norm(regularized_normal_solve(dec, eps, f))
             for eps in np.geomspace(1e2, 1e-6, 25)]
    for larger_eps, smaller_eps in zip(norms[:-1], norms[1:]):
        assert smaller_eps >= larger_eps * (1.0 - 1e-13)


@settings(max_examples=40, deadline=None)
@given(small_matrices(), st.integers(0, 2 ** 31 - 1))
def test_profile_parseval(M, seed):
    dec = decompose(DenseOperator(M))
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(M.shape[0])
    if np.linalg.norm(f) < 1e-6:
        return
    p = build_profile(dec, f)
    assert abs(p.betas.sum() + p.null_mass - p.data_norm_sq) <= 1e-10 * p.data_norm_sq


@settings(max_examples=40, deadline=None)
@given(small_matrices(max_dim=5), st.integers(0, 2 ** 31 - 1),
       st.floats(0.05, 0.45))
# the squared singular values underflow to 0, so the residual is ||f|| at every eps
# and there is no root: the profile is refused as degenerate before any evaluation
@example(np.array([[0.0, 4.12339242e-172], [4.12339242e-172, 0.0]]), 0, 0.25)
def test_root_hits_target_and_is_monotone_in_delta(M, seed, frac):
    dec = decompose(DenseOperator(M))
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(M.shape[0])
    p = build_profile(dec, f)
    if p.betas.sum() <= 1e-12 or p.null_mass > 1e-16 * p.data_norm_sq:
        return
    delta = frac * p.data_norm
    if p.lambda_max == 0.0:
        with pytest.raises(PreconditionError, match="degenerate profile"):
            solve_for_epsilon(p, delta, 1.0)
        return
    floor_residual = discrepancy_value(p, 1e-300)  # at the root search's lowest eps
    for target in (delta, delta / 2.0):
        if floor_residual > target:  # the root lies below 1e-300
            with pytest.raises(NumericalError, match="discrepancy root missed"):
                solve_for_epsilon(p, target, 1.0)
    if floor_residual > delta:
        return
    eps1 = solve_for_epsilon(p, delta, 1.0)
    assert abs(discrepancy_value(p, eps1) - delta) <= 1e-10 * p.data_norm
    if floor_residual > delta / 2.0:
        return
    eps2 = solve_for_epsilon(p, delta / 2.0, 1.0)
    assert eps2 < eps1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(1e-6, 1e-1))
def test_noise_magnitude_exact(seed, delta):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((6, 6))
    dec = decompose(DenseOperator(M))
    f = rng.standard_normal(6)
    f = f / np.linalg.norm(f)
    noisy = add_noise(f, dec, NoiseSpec(delta, seed))
    measured = np.linalg.norm(noisy - f)
    assert abs(measured - delta) <= 1e-12 * delta + 1e-15 * np.linalg.norm(f)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.floats(1e-8, 1e2), st.integers(0, 2 ** 31 - 1))
def test_commutation_identity(n, a, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    f = rng.standard_normal(n)
    lhs = np.linalg.solve(M.T @ M + a * np.eye(n), M.T @ f)
    rhs = M.T @ np.linalg.solve(M @ M.T + a * np.eye(n), f)
    # conditioning of the normal matrix limits agreement for tiny a
    sigma1 = np.linalg.norm(M, 2)
    bound = max(1e-10, 1e-14 * (sigma1 ** 2 + a) / a)
    assert np.linalg.norm(lhs - rhs) <= bound * np.linalg.norm(f)
