"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from illposed import (DSMConfig, DenseOperator, NoiseSpec, PreconditionError,
                      Schedule, add_noise, build_profile, cubic_separable_problem,
                      decompose, default_schedule, discrepancy_value, evolve,
                      gaussian_blur_problem, hilbert_problem,
                      nonlinear_discrepancy_result, normalize, PowerLawSchedule,
                      rank_deficient_problem, regularized_normal_solve, run_dsm,
                      solve_for_epsilon)
from rk_oracle import rk_states


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:02d} {name}: FAIL")
        raise
    print(f"\n[acceptance] criterion {num:02d} {name}: PASS")


GRID = np.geomspace(1e-14, 1e8, 1_000_000)


def grid_scan_root(profile, target):
    """Brute-force root: geometric grid scan plus local bisection refinement."""
    h2 = np.full(GRID.shape, profile.null_mass)
    for lam, beta in zip(profile.lambdas, profile.betas):
        r = GRID / (GRID + lam)
        h2 += beta * r * r
    idx = int(np.searchsorted(np.sqrt(h2), target))
    lo, hi = GRID[max(idx - 1, 0)], GRID[min(idx, GRID.shape[0] - 1)]
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if discrepancy_value(profile, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return hi


def random_problem(rng, trial):
    n = int(rng.integers(2, 11))
    if trial % 2 == 0:
        A = DenseOperator(np.diag(rng.uniform(0.05, 1.0, n)))
    else:
        A = normalize(DenseOperator(rng.standard_normal((n, n))))
    return A, rng.standard_normal(n)


@pytest.fixture(scope="module")
def blur_convergence_rows():
    """Seven noise levels on the n=64 blur problem, shared by criteria 4 and 5."""
    prob = gaussian_blur_problem(64, 0.05)
    dec = prob.decomposition
    s = default_schedule()
    rows = []
    started = time.perf_counter()
    for k in range(7):
        delta = 0.1 * 2.0 ** -k
        f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 1000 + k))
        res = run_dsm(dec, s, f, delta)
        rows.append({
            "delta": delta,
            "t_delta": res.stopping.t_delta,
            "dsm_error": float(np.linalg.norm(res.u_final - prob.y_reference)),
            "w_norm": float(np.linalg.norm(res.w_final)),
        })
    return rows, float(np.linalg.norm(prob.y_reference)), time.perf_counter() - started


def test_criterion_01_discrepancy_root_vs_grid_oracle():
    with criterion(1, "discrepancy root vs brute-force grid scan"):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        for trial in range(100):
            A, f = random_problem(rng, trial)
            profile = build_profile(decompose(A), f)
            delta = float(rng.uniform(0.05, 0.5)) * profile.data_norm
            C = 1.0 if trial % 3 else 1.5
            eps = solve_for_epsilon(profile, delta, C)
            oracle = grid_scan_root(profile, C * delta)
            assert abs(eps - oracle) <= 1e-8 * oracle
            achieved = discrepancy_value(profile, eps)
            assert abs(achieved - C * delta) <= 1e-10 * profile.data_norm
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_02_identity_closed_form():
    with criterion(2, "identity closed form eps* = delta/(1-delta)"):
        dec = decompose(DenseOperator(np.eye(2)))
        profile = build_profile(dec, [0.6, 0.8])  # unit-norm data
        for delta in (0.5, 0.1, 0.01, 1e-4):
            eps = solve_for_epsilon(profile, delta, 1.0)
            exact = delta / (1.0 - delta)
            assert abs(eps - exact) <= 1e-12 * exact, f"delta={delta}"


def test_criterion_03_monotonicity_and_limits():
    with criterion(3, "monotonicity and limits of the discrepancy function"):
        rng = np.random.default_rng(99)
        profiles = []
        # moderate random instances (point checks meaningful at 1e-14)
        for trial in range(8):
            A, f = random_problem(rng, trial)
            profiles.append((build_profile(decompose(A), f), True))
        dec_id = decompose(DenseOperator(np.eye(3)))
        profiles.append((build_profile(dec_id, [0.6, 0.64, 0.48]), True))
        rd = rank_deficient_problem(10, 5, 1)
        dec_rd = rd.decomposition
        f_rd = add_noise(rd.f_exact, None, NoiseSpec(1e-2, 5))
        profiles.append((build_profile(dec_rd, f_rd), True))
        # severely ill-posed instances: retained spectrum reaches below the
        # 1e-14 probe, so only the grid monotonicity and the upper limit apply
        hb = hilbert_problem(8)
        dec_hb = hb.decomposition
        profiles.append((build_profile(
            dec_hb, add_noise(hb.f_exact, dec_hb, NoiseSpec(1e-2, 5))), False))
        gb = gaussian_blur_problem(32, 0.05)
        dec_gb = gb.decomposition
        profiles.append((build_profile(
            dec_gb, add_noise(gb.f_exact, dec_gb, NoiseSpec(1e-2, 5))), False))

        eps_grid = np.geomspace(1e-12, 1e12, 1000)
        for profile, probe_low in profiles:
            h = np.array([discrepancy_value(profile, e) for e in eps_grid])
            assert np.all(np.diff(h) > 0), "h not strictly increasing"
            h_hi = discrepancy_value(profile, 1e12)
            assert abs(h_hi - profile.data_norm) <= 1e-6 * profile.data_norm
            if probe_low:
                h_lo = discrepancy_value(profile, 1e-14)
                assert h_lo <= np.sqrt(profile.null_mass) + 1e-8


def test_criterion_04_dsm_convergence(blur_convergence_rows):
    with criterion(4, "DSM convergence on the n=64 blur problem"):
        rows, _, elapsed = blur_convergence_rows
        errors = [r["dsm_error"] for r in rows]
        t_deltas = [r["t_delta"] for r in rows]
        decreasing = sum(1 for a, b in zip(errors[:-1], errors[1:]) if b < a)
        assert decreasing >= 5, f"only {decreasing} of 6 error pairs decrease"
        assert all(b > a for a, b in zip(t_deltas[:-1], t_deltas[1:]))
        assert errors[-1] < errors[0] / 3.0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_05_norm_bound(blur_convergence_rows):
    with criterion(5, "regularized solution norm bounded by the reference"):
        rows, y_norm, _ = blur_convergence_rows
        for row in rows:
            assert row["w_norm"] <= y_norm * (1.0 + 1e-10)
        prob = hilbert_problem(8)
        dec = prob.decomposition
        y_norm_h = float(np.linalg.norm(prob.y_reference))
        for k, delta in enumerate((1e-1, 1e-2, 1e-3)):
            f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 300 + k))
            res = run_dsm(dec, default_schedule(), f, delta)
            assert np.linalg.norm(res.w_final) <= y_norm_h * (1.0 + 1e-10)


class _Frozen(Schedule):
    def __init__(self, value):
        self.value = value

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.value)
        return self.value if out.ndim == 0 else out

    def invert(self, g):
        raise NotImplementedError


def test_criterion_06_integrator_cross_validation():
    with criterion(6, "exponential quadrature vs adaptive Runge-Kutta"):
        prob = gaussian_blur_problem(32, 0.05)
        dec, A = prob.decomposition, prob.operator.entries
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
        s = default_schedule()
        traj = evolve(dec, s, f, 50.0)
        gap = np.linalg.norm(traj.states - rk_states(A, s, f, traj.times), axis=1)
        assert np.all(gap <= 1e-6 * np.linalg.norm(traj.states, axis=1))

        # both against the closed form u(t) = (1 - e^{-t}) w under a frozen eps
        eps = 0.05
        w = regularized_normal_solve(dec, eps, prob.f_exact)
        cfg = DSMConfig(relative_tolerance=1e-10, absolute_tolerance=1e-13)
        oracle = rk_states(A, _Frozen(eps), prob.f_exact, [0.0, 1.0, 5.0, 20.0],
                           rtol=1e-10, atol=1e-13)
        for t_end, u_rk in zip((1.0, 5.0, 20.0), oracle[1:]):
            traj = evolve(dec, _Frozen(eps), prob.f_exact, t_end, cfg)
            exact = (1.0 - np.exp(-t_end)) * w
            assert np.linalg.norm(traj.states[-1] - exact) <= 1e-8
            assert np.linalg.norm(u_rk - exact) <= 1e-8


def test_criterion_07_schedule_admissibility():
    with criterion(7, "schedule admissibility and decay checks"):
        s = default_schedule()
        rep = s.admissibility_report([10.0, 100.0, 1000.0, 10000.0])
        assert np.all(np.diff(rep.q_values) < 0), "q not strictly decreasing"
        assert rep.admissible
        assert np.exp(-50.0) / s.eval(50.0) < 1e-15


def test_criterion_08_null_space_handling():
    with criterion(8, "null-space data: C > 1 succeeds, C = 1 rejected"):
        # seed chosen so the data norm comfortably exceeds C * delta_max = 0.2,
        # a precondition of the discrepancy equation; eps(0) = 2 leaves
        # headroom for the large-delta stopping point
        prob = rank_deficient_problem(12, 6, 1)
        dec = prob.decomposition
        s = PowerLawSchedule(c0=1.0, c1=2.0, b=0.5)
        errors = {}
        for delta in (1e-1, 1e-2, 1e-3, 1e-4):
            f = add_noise(prob.f_exact, None, NoiseSpec(delta, 13))
            res = run_dsm(dec, s, f, delta, C=2.0)
            errors[delta] = float(np.linalg.norm(res.u_final - prob.y_reference))
        assert errors[1e-4] < errors[1e-1]

        f = add_noise(prob.f_exact, None, NoiseSpec(1e-2, 13))
        with pytest.raises(PreconditionError, match="null-space component"):
            run_dsm(dec, s, f, 1e-2, C=1.0)


def test_criterion_09_nonlinear_principle():
    with criterion(9, "nonlinear monotone discrepancy principle"):
        started = time.perf_counter()
        n, C = 8, 1.1
        y = np.array([(1.0, -1.0, 0.5)[i % 3] for i in range(n)])
        op, f_exact = cubic_separable_problem(n, 1.0, y)
        y_norm = float(np.linalg.norm(y))
        errors = {}
        for k, delta in enumerate((1e-1, 1e-2, 1e-3, 1e-4)):
            rng = np.random.default_rng(77 + k)
            e = rng.standard_normal(n)
            f = f_exact + (delta / np.linalg.norm(e)) * e
            res = nonlinear_discrepancy_result(op, f, delta, C)
            assert abs(res.residual - C * delta) <= 1e-8 * np.linalg.norm(f)
            assert res.gap_certificate <= (C * C - 1.0) * delta * delta
            assert np.linalg.norm(res.u_delta) <= y_norm * (1.0 + 1e-8)
            errors[delta] = float(np.linalg.norm(res.u_delta - y))
        assert errors[1e-4] < errors[1e-1] / 10.0
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_10_commutation_identity():
    with criterion(10, "resolvent commutation identity"):
        rng = np.random.default_rng(314)
        for _ in range(100):
            m = int(rng.integers(2, 11))
            n = int(rng.integers(2, 11))
            M = rng.standard_normal((m, n))
            a = float(rng.uniform(1e-3, 10.0))
            f = rng.standard_normal(m)
            lhs = np.linalg.solve(M.T @ M + a * np.eye(n), M.T @ f)
            rhs = M.T @ np.linalg.solve(M @ M.T + a * np.eye(m), f)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(f)
