import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from illposed import (ConfigError, DSMConfig, DenseOperator, NoiseSpec,
                      NumericalError, PowerLawSchedule, PreconditionError,
                      Schedule, add_noise, build_profile, decompose,
                      default_schedule, evolve, gaussian_blur_problem,
                      identity_problem, regularized_normal_solve, run_dsm)
from illposed import dsm
from illposed.dsm import _MAX_PANEL_WIDTH, _gap_integral


class ConstantSchedule(Schedule):
    """Frozen regularization strength; only for closed-form unit tests."""

    def __init__(self, value):
        self.value = value

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.value)
        return self.value if out.ndim == 0 else out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        return 0.0 if out.ndim == 0 else out

    def invert(self, g):
        raise NotImplementedError("constant schedule has no inverse")


class JumpSchedule(ConstantSchedule):
    """eps = 1 before ``t_jump`` and ``value`` after: no quadrature panel
    that straddles the jump converges."""

    def __init__(self, value, t_jump):
        super().__init__(value)
        self.t_jump = t_jump

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t < self.t_jump, 1.0, self.value)
        return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize("integrator", ["exponential_quadrature", "adaptive_runge_kutta"])
class TestEvolveClosedForms:
    def test_frozen_eps_growth_curve(self, gauss32, integrator):
        # constant eps: u(t) = (1 - e^{-t}) (A^T A + eps)^{-1} A^T f
        prob, dec = gauss32
        eps = 0.05
        w = regularized_normal_solve(dec, eps, prob.f_exact)
        cfg = DSMConfig(integrator=integrator, relative_tolerance=1e-10,
                        absolute_tolerance=1e-13)
        for t_end in (1.0, 5.0, 20.0):
            traj = evolve(dec, ConstantSchedule(eps), prob.f_exact, t_end, cfg)
            exact = (1.0 - np.exp(-t_end)) * w
            assert np.linalg.norm(traj.states[-1] - exact) <= 1e-8

    def test_equilibrium_start_stays_fixed(self, integrator):
        prob = identity_problem(3)
        dec = decompose(prob.operator)
        eps = 0.5
        w = regularized_normal_solve(dec, eps, prob.f_exact)
        cfg = DSMConfig(integrator=integrator, initial_state=w)
        traj = evolve(dec, ConstantSchedule(eps), prob.f_exact, 10.0, cfg)
        drift = np.max([np.linalg.norm(state - w) for state in traj.states])
        assert drift <= 1e-7

    def test_random_state_matches_hand_assembly(self, rng, integrator):
        # rank 4 of 6: the start state's part outside span(V_r) decays as e^{-t}
        M = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 6))
        dec = decompose(DenseOperator(M))
        f = rng.standard_normal(6)
        u0 = rng.standard_normal(6)
        eps = 0.3
        w = np.linalg.solve(M.T @ M + eps * np.eye(6), M.T @ f)
        cfg = DSMConfig(integrator=integrator, relative_tolerance=1e-10,
                        absolute_tolerance=1e-13, initial_state=u0)
        traj = evolve(dec, ConstantSchedule(eps), f, 3.0, cfg)
        assert np.array_equal(traj.states[0], u0)
        for t, state in zip(traj.times, traj.states):
            exact = np.exp(-t) * u0 + (1.0 - np.exp(-t)) * w
            assert np.linalg.norm(state - exact) <= 1e-8

    def test_trajectory_starts_at_initial_state(self, gauss32, integrator):
        prob, dec = gauss32
        cfg = DSMConfig(integrator=integrator)
        traj = evolve(dec, default_schedule(), prob.f_exact, 5.0, cfg)
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.states[0], np.zeros(32))
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == 5.0


def test_integrators_cross_validate(gauss32):
    prob, dec = gauss32
    f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
    s = default_schedule()
    u_exp = evolve(dec, s, f, 50.0, DSMConfig(integrator="exponential_quadrature")).states[-1]
    u_rk = evolve(dec, s, f, 50.0, DSMConfig(integrator="adaptive_runge_kutta")).states[-1]
    assert np.linalg.norm(u_exp - u_rk) <= 1e-6 * np.linalg.norm(u_exp)


def test_profile_and_data_vector_give_the_same_path(gauss32):
    prob, dec = gauss32
    f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
    s = default_schedule()
    from_data = evolve(dec, s, f, 30.0)
    from_profile = evolve(dec, s, build_profile(dec, f), 30.0)
    assert np.array_equal(from_data.states, from_profile.states)
    assert np.array_equal(from_data.residual_norms, from_profile.residual_norms)


def test_spectral_residuals_match_direct_product(gauss32):
    prob, dec = gauss32
    f = add_noise(prob.f_exact, dec, NoiseSpec(1e-3, 5))
    traj = evolve(dec, default_schedule(), f, 1e4)
    direct = np.linalg.norm(traj.states @ prob.operator.entries.T - f, axis=1)
    assert np.max(np.abs(traj.residual_norms - direct)) <= 1e-12 * np.linalg.norm(f)


def test_integrators_cross_validate_hilbert(hilbert8):
    prob, dec = hilbert8
    f = add_noise(prob.f_exact, dec, NoiseSpec(1e-3, 21))
    s = default_schedule()
    u_exp = evolve(dec, s, f, 20.0, DSMConfig(integrator="exponential_quadrature")).states[-1]
    u_rk = evolve(dec, s, f, 20.0, DSMConfig(integrator="adaptive_runge_kutta")).states[-1]
    assert np.linalg.norm(u_exp - u_rk) <= 1e-6 * np.linalg.norm(u_exp)


def test_integrators_cross_validate_rank_deficient():
    from illposed import rank_deficient_problem
    prob = rank_deficient_problem(10, 5, 3)
    dec = decompose(prob.operator)
    f = add_noise(prob.f_exact, dec, NoiseSpec(1e-3, 9))
    s = default_schedule()
    u_exp = evolve(dec, s, f, 25.0, DSMConfig(integrator="exponential_quadrature")).states[-1]
    u_rk = evolve(dec, s, f, 25.0, DSMConfig(integrator="adaptive_runge_kutta")).states[-1]
    assert np.linalg.norm(u_exp - u_rk) <= 1e-6 * np.linalg.norm(u_exp)


def _recursive_gap_integral(schedule, sg, lam, t_right, window, tol):
    """Reference for ``_gap_integral``: the depth-first refiner it replaced.
    Each 7-node panel is compared with its two halves and split until they
    agree; returns the integral and the number of panels evaluated."""
    x, wts = np.polynomial.legendre.leggauss(7)
    used = 0

    def panel(lo, hi):
        nonlocal used
        used += 1
        tau = lo + (hi - lo) * (x + 1.0) / 2.0
        eps = schedule.eval(np.maximum(t_right - tau, 0.0))
        return (sg[:, None] / (lam[:, None] + eps)) @ (wts / 2.0 * (hi - lo) * np.exp(-tau))

    def refine(lo, hi, coarse, tol):
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid), panel(mid, hi)
        if np.linalg.norm(left + right - coarse) <= tol:
            return left + right
        return refine(lo, mid, left, tol / 2) + refine(mid, hi, right, tol / 2)

    edges = np.linspace(0.0, window, max(1, math.ceil(window / _MAX_PANEL_WIDTH)) + 1)
    total = sum(refine(lo, hi, panel(lo, hi), tol * (hi - lo) / window)
                for lo, hi in zip(edges[:-1], edges[1:]))
    return total, used


@pytest.mark.parametrize("schedule, a, b, rel_tol, deep", [
    (default_schedule(), 0.0, 1e4, 1e-8, False),
    # eps falls steeply near t = 0: panels there split several times
    (PowerLawSchedule(1e-3, 1e-3, 0.9), 0.0, 3.0, 1e-12, True),
])
@pytest.mark.parametrize("round_panels", [None, 1])
def test_gap_integral_matches_recursive_reference(gauss32, monkeypatch, schedule, a, b,
                                                  rel_tol, deep, round_panels):
    if round_panels:  # rounds shorter than the open list: panels wait for later rounds
        monkeypatch.setattr(dsm, "_ROUND_PANELS", round_panels)
    prob, dec = gauss32
    p = build_profile(dec, add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7)))
    sg = dec.singular_values[:dec.numerical_rank] * p.coefficients
    window = min(b - a, 60.0)
    tol = rel_tol * np.linalg.norm(sg / (p.lambdas + schedule.eval(b)))
    expected, expected_panels = _recursive_gap_integral(schedule, sg, p.lambdas, b, window, tol)
    cfg = DSMConfig(relative_tolerance=rel_tol, absolute_tolerance=1e-300)
    value, panels = _gap_integral(schedule, sg, p.lambdas, a, b, cfg, 10 ** 6)
    assert panels == expected_panels
    assert np.linalg.norm(value - expected) <= 1e-14 * np.linalg.norm(expected)
    # 3 evaluations per top-level panel, 4 more if it is split once
    first_split_only = 7 * math.ceil(window / _MAX_PANEL_WIDTH)
    assert (panels > first_split_only) == deep


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
def test_final_state_matches_per_mode_quadrature_at_the_stopping_time(delta):
    # t_delta is 3.2e5, 2.9e9 and 2.6e13; z(t) = int_0^t e^{-tau} w(t - tau)
    # dtau, whose part beyond tau = 60 is below 1e-26 relative
    prob = gaussian_blur_problem(64, 0.05)
    dec = decompose(prob.operator)
    f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 7))
    s = default_schedule()
    res = run_dsm(dec, s, f, delta, store_trajectory=False)
    t = res.stopping.t_delta
    r = dec.numerical_rank
    p = build_profile(dec, f)
    z = [quad(lambda tau, sg=sg, lam=lam: math.exp(-tau) * sg / (lam + s.eval(t - tau)),
              0.0, 60.0, epsabs=0.0, epsrel=1e-13)[0]
         for sg, lam in zip(dec.singular_values[:r] * p.coefficients, p.lambdas)]
    u = dec.right_vectors[:, :r] @ np.array(z)
    assert np.linalg.norm(res.u_final - u) <= 1e-10 * np.linalg.norm(u)


class TestEvolveErrors:
    def test_max_steps_with_partial_trajectory(self, gauss32):
        prob, dec = gauss32
        cfg = DSMConfig(integrator="adaptive_runge_kutta", max_steps=5)
        with pytest.raises(NumericalError) as info:
            evolve(dec, default_schedule(), prob.f_exact, 50.0, cfg)
        partial = info.value.trajectory
        assert partial is not None
        assert partial.times[0] == 0.0
        assert partial.times[-1] < 50.0

    def test_max_steps_quadrature(self, gauss32):
        prob, dec = gauss32
        cfg = DSMConfig(integrator="exponential_quadrature", max_steps=3)
        with pytest.raises(NumericalError) as info:
            evolve(dec, default_schedule(), prob.f_exact, 50.0, cfg)
        assert info.value.trajectory is not None

    def test_panel_depth_cap_raises_with_partial_trajectory(self):
        prob = identity_problem(3)
        dec = decompose(prob.operator)
        cfg = DSMConfig(relative_tolerance=1e-12, trajectory_points=3)
        with pytest.raises(NumericalError, match="not converged") as info:
            evolve(dec, JumpSchedule(1e-3, 0.3), prob.f_exact, 1.0, cfg)
        assert info.value.stage == "integration"
        partial = info.value.trajectory
        assert partial.times[0] == 0.0
        assert partial.times[-1] < 1.0

    def test_unreachable_panel_tolerance_fails_fast_in_bounded_memory(self, gauss32):
        # a tolerance below rounding: no panel converges, so refinement must
        # stop at the depth cap long before the default max_steps = 1e6
        prob, dec = gauss32
        cfg = DSMConfig(relative_tolerance=1e-20, absolute_tolerance=1e-300)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(NumericalError, match="not converged after 30 bisections"):
                evolve(dec, default_schedule(), prob.f_exact, 50.0, cfg)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 5.0
        assert peak < 100 * 2 ** 20

    def test_rk_fails_fast_when_the_step_cap_cannot_reach_t_end(self):
        prob = gaussian_blur_problem(64, 0.05)
        dec = decompose(prob.operator)
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-4, 7))
        cfg = DSMConfig(integrator="adaptive_runge_kutta")
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="needs at least") as info:
            run_dsm(dec, default_schedule(), f, 1e-4, cfg=cfg)
        assert time.perf_counter() - start < 2.0
        assert info.value.stage == "integration"
        assert len(info.value.trajectory) == 1

    def test_nonpositive_horizon(self, gauss32):
        prob, dec = gauss32
        with pytest.raises(PreconditionError):
            evolve(dec, default_schedule(), prob.f_exact, 0.0)

    def test_unknown_integrator(self):
        with pytest.raises(ConfigError):
            DSMConfig(integrator="verlet")


class TestRunDSM:
    def test_identity_small_delta_recovers_data(self):
        # noise-free data with a tiny claimed bound: the solution is the data
        prob = identity_problem(4)
        dec = decompose(prob.operator)
        res = run_dsm(dec, default_schedule(), prob.f_exact, 1e-8,
                      y_reference=prob.y_reference)
        assert res.error_vs_reference <= 1e-4

    def test_residual_recomputation(self, hilbert8):
        prob, dec = hilbert8
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 3))
        res = run_dsm(dec, default_schedule(), f, 1e-2)
        recomputed = np.linalg.norm(dec.apply(res.u_final) - f)
        assert abs(recomputed - res.residual) <= 1e-12

    @pytest.mark.parametrize("n", [64, 128])
    def test_direct_residual_of_w_final_hits_target(self, n):
        # the root must not be biased by cancellation noise in the null mass
        prob = gaussian_blur_problem(n, 0.05)
        dec = decompose(prob.operator)
        delta = 1e-6
        f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 7))
        res = run_dsm(dec, default_schedule(), f, delta, store_trajectory=False)
        direct = np.linalg.norm(prob.operator.entries @ res.w_final - f)
        assert abs(direct / delta - 1.0) <= 1e-6

    def test_residual_envelope(self, hilbert8):
        prob, dec = hilbert8
        for k, delta in enumerate([1e-1, 1e-2, 1e-3]):
            f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 40 + k))
            res = run_dsm(dec, default_schedule(), f, delta)
            assert np.all(np.isfinite(res.trajectory.residual_norms))
            assert res.residual >= delta * (1.0 - 1e-6)
            assert res.residual <= np.linalg.norm(f) * (1.0 + 1e-12)

    def test_tikhonov_norm_bound(self, hilbert8):
        prob, dec = hilbert8
        y_norm = np.linalg.norm(prob.y_reference)
        for k, delta in enumerate([1e-1, 1e-2, 1e-3]):
            f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 60 + k))
            res = run_dsm(dec, default_schedule(), f, delta,
                          y_reference=prob.y_reference)
            assert np.linalg.norm(res.w_final) <= y_norm * (1.0 + 1e-10)

    def test_equilibrium_tracking(self, gauss32):
        # the gap between the evolved state and the frozen regularized
        # solution closes as the noise level halves
        prob, dec = gauss32
        s = default_schedule()
        gaps = []
        for k in range(6):
            delta = 0.05 * 2.0 ** -k
            f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 500 + k))
            res = run_dsm(dec, s, f, delta)
            gaps.append(np.linalg.norm(res.u_final - res.w_final))
        tail = gaps[-5:]
        assert all(b < a for a, b in zip(tail[:-1], tail[1:]))

    def test_bit_reproducible(self, hilbert8):
        prob, dec = hilbert8
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 8))
        r1 = run_dsm(dec, default_schedule(), f, 1e-2, y_reference=prob.y_reference)
        r2 = run_dsm(dec, default_schedule(), f, 1e-2, y_reference=prob.y_reference)
        assert r1.stopping == r2.stopping
        assert np.array_equal(r1.u_final, r2.u_final)
        assert np.array_equal(r1.w_final, r2.w_final)
        assert r1.residual == r2.residual

    def test_boundary_stopping_time_returns_start_state(self):
        # delta = 0.5 on unit data puts the root exactly at eps(0)
        prob = identity_problem(4)
        dec = decompose(prob.operator)
        res = run_dsm(dec, default_schedule(), prob.f_exact, 0.5)
        assert res.stopping.t_delta == 0.0
        assert np.array_equal(res.u_final, np.zeros(4))

    def test_stage_tagging(self):
        prob = identity_problem(4)
        dec = decompose(prob.operator)
        with pytest.raises(PreconditionError) as info:
            run_dsm(dec, default_schedule(), prob.f_exact, 0.9)  # eps* > eps(0)
        assert info.value.stage == "discrepancy"

    def test_trajectory_csv_rows(self, hilbert8):
        prob, dec = hilbert8
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 3))
        res = run_dsm(dec, default_schedule(), f, 1e-2)
        header, rows = res.trajectory.to_csv_rows(prob.y_reference, include_state=True)
        assert header[:3] == ["t", "residual_norm", "error_vs_reference"]
        assert header[3:] == [f"state_{i}" for i in range(8)]
        assert len(rows) == len(res.trajectory)
        assert float(rows[0][0]) == 0.0
        # full round-trip precision
        assert float(rows[-1][1]) == res.residual

    def test_trajectory_optional(self, hilbert8):
        prob, dec = hilbert8
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 3))
        res = run_dsm(dec, default_schedule(), f, 1e-2, store_trajectory=False)
        assert res.trajectory is None


class TestNullSpacePolicy:
    def test_strict_rejects_genuine_null_component(self):
        from illposed import rank_deficient_problem
        prob = rank_deficient_problem(12, 6, 1)
        dec = decompose(prob.operator)
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 13, in_range_closure=False))
        with pytest.raises(PreconditionError, match="null-space component"):
            run_dsm(dec, default_schedule(), f, 1e-2, C=1.0)

    def test_dust_is_projected_and_reported(self):
        from illposed import rank_deficient_problem
        prob = rank_deficient_problem(12, 6, 1)
        dec = decompose(prob.operator)
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 13, in_range_closure=True))
        res = run_dsm(dec, default_schedule(), f, 1e-2, C=1.0)
        assert res.projected_null_mass <= 1e-20

    def test_c_above_one_accepts_null_component(self):
        from illposed import rank_deficient_problem
        prob = rank_deficient_problem(12, 6, 1)
        dec = decompose(prob.operator)
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 13, in_range_closure=False))
        res = run_dsm(dec, default_schedule(), f, 1e-2, C=2.0)
        assert abs(res.stopping.achieved_discrepancy - 2e-2) <= 1e-10 * np.linalg.norm(f)
