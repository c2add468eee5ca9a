"""Convergence rates of the discrepancy-stopped evolution under a source condition.

For y = (A^T A)^nu v with nu <= 1/2, Tikhonov regularization with the
discrepancy principle has error O(delta^(2 nu / (2 nu + 1))) (Groetsch
1984; Engl, Hanke & Neubauer 1996, ch. 4-5).  The evolution stopped at
t_delta tracks the Tikhonov solution at eps*, so its error must fall at the
same rate.  The bands below were measured over seeds 1-100 on blur n = 64,
delta 1e-1 to 1e-6, C = 1 and in-range noise, and hold every seed:

    nu     theory   fitted slopes (seeds 1-100)
    1/8    0.200    0.151 - 0.276
    1/4    0.333    0.264 - 0.395
    1/2    0.500    0.454 - 0.615

Over the same runs |error(u(t_delta)) / error(w(eps*)) - 1| is at most
2.8e-6 for delta <= 1e-2; at delta = 1e-1 (t_delta 450 to 1.1e5) it
reaches 3.3e-4.
"""

import numpy as np
import pytest

from illposed import NoiseSpec, add_noise, default_schedule, gaussian_blur_problem, run_dsm

DELTAS = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
SLOPE_BANDS = {0.125: (0.13, 0.30), 0.25: (0.24, 0.42), 0.5: (0.43, 0.64)}


def source_condition_solution(dec, nu, seed):
    """y = V diag(s^(2 nu)) w = (A^T A)^nu (V w) for a seeded w, scaled so
    that ||A y|| = 1, which keeps delta = 1e-1 below the data norm."""
    w = np.random.default_rng(seed).standard_normal(dec.numerical_rank)
    y = dec.right_vectors @ (dec.singular_values ** (2 * nu) * w)
    return y / np.linalg.norm(dec.singular_values * (dec.right_vectors.T @ y))


@pytest.fixture(scope="module")
def blur64():
    prob = gaussian_blur_problem(64, 0.05)
    return prob.operator.entries, prob.decomposition


@pytest.mark.parametrize("nu", sorted(SLOPE_BANDS))
def test_error_falls_at_the_source_condition_rate(blur64, nu):
    A, dec = blur64
    schedule = default_schedule()
    lo, hi = SLOPE_BANDS[nu]
    for seed in (1, 2, 3):
        y = source_condition_solution(dec, nu, seed)
        errors = []
        for k, delta in enumerate(DELTAS):
            f = add_noise(A @ y, dec, NoiseSpec(delta, seed + k))
            res = run_dsm(dec, schedule, f, delta)
            errors.append(float(np.linalg.norm(res.u_final - y)))
            ratio = errors[-1] / float(np.linalg.norm(res.w_final - y))
            assert abs(ratio - 1.0) <= (5e-5 if delta <= 1e-2 else 1e-3), (seed, delta, ratio)
        slope = np.polyfit(np.log(DELTAS), np.log(errors), 1)[0]
        assert lo <= slope <= hi, (seed, slope, 2 * nu / (2 * nu + 1))
