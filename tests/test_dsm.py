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
                      identity_problem, project_range_closure,
                      regularized_normal_solve, run_dsm)
from illposed import dsm
from illposed.dsm import _MAX_PANEL_WIDTH, _gap_integrals


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


class StepSchedule(ConstantSchedule):
    """eps = ``levels[i]`` from ``jumps[i - 1]`` up to ``jumps[i]``: no
    quadrature panel that straddles a jump converges."""

    def __init__(self, levels, jumps):
        self.levels = np.asarray(levels, dtype=float)
        self.jumps = np.asarray(jumps, dtype=float)

    def eval(self, t):
        out = self.levels[np.searchsorted(self.jumps, t, side="right")]
        return float(out) if out.ndim == 0 else out


class JumpSchedule(StepSchedule):
    """eps = 1 before ``t_jump`` and ``value`` after."""

    def __init__(self, value, t_jump):
        super().__init__([1.0, value], [t_jump])


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
    """Reference for ``_gap_integrals``: the depth-first refiner of one gap.
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


def _reference_gaps(schedule, sg, lam, times, rel_tol):
    """The recursive reference's integral and panel count for each gap."""
    out = []
    for a, b in zip(times[:-1], times[1:]):
        tol = rel_tol * np.linalg.norm(sg / (lam + schedule.eval(b)))
        out.append(_recursive_gap_integral(schedule, sg, lam, b, min(b - a, 60.0), tol))
    return out


def _blur_coefficients(dec, prob):
    p = build_profile(dec, add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7)))
    return dec.singular_values[:dec.numerical_rank] * p.coefficients, p.lambdas


@pytest.mark.parametrize("schedule, a, b, rel_tol, deep", [
    (default_schedule(), 0.0, 1e4, 1e-8, False),
    # eps falls steeply near t = 0: panels there split several times
    (PowerLawSchedule(1e-3, 1e-3, 0.9), 0.0, 3.0, 1e-12, True),
    # the first two gaps both split, so later rounds mix their panels
    (PowerLawSchedule(1e-3, 1e-3, 0.9), 0.0, 0.05, 1e-12, True),
])
@pytest.mark.parametrize("round_panels", [None, 1])
def test_gap_integral_matches_recursive_reference(gauss32, monkeypatch, schedule, a, b,
                                                  rel_tol, deep, round_panels):
    if round_panels:  # rounds shorter than the open list: panels wait for later rounds
        monkeypatch.setattr(dsm, "_ROUND_PANELS", round_panels)
    prob, dec = gauss32
    sg, lam = _blur_coefficients(dec, prob)
    # the gap [a, b] and three later ones of 1, 49 and 1e4 - 50
    times = np.array([a, b, b + 1.0, b + 50.0, b + 1e4])
    cfg = DSMConfig(relative_tolerance=rel_tol, absolute_tolerance=1e-300)
    reference = _reference_gaps(schedule, sg, lam, times, rel_tol)
    # all gaps in one call, split as across groups, or in reverse order:
    # each gap keeps its own tolerance whatever else is in the call
    for order, per_call in ((np.arange(4), 4), (np.arange(4), 1), (np.arange(4), 3),
                            (np.arange(4)[::-1], 4)):
        lo, hi = times[:-1][order], times[1:][order]
        calls = [_gap_integrals(schedule, sg, lam, lo[i:i + per_call], hi[i:i + per_call],
                                cfg, 10 ** 6)
                 for i in range(0, 4, per_call)]
        assert all(failure is None for _, _, failure in calls)
        values = np.hstack([v for v, _, _ in calls])
        panels = np.concatenate([n for _, n, _ in calls])
        for k, j in enumerate(order):
            expected, expected_panels = reference[j]
            assert panels[k] == expected_panels
            assert np.linalg.norm(values[:, k] - expected) <= 1e-14 * np.linalg.norm(expected)
    # 3 evaluations per top-level panel, 4 more if it is split once
    first_split_only = 7 * math.ceil(min(b - a, 60.0) / _MAX_PANEL_WIDTH)
    assert (reference[0][1] > first_split_only) == deep


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

    def test_rk_step_cap_stops_inside_the_loop(self, gauss32):
        # ceil(5 / 3) = 2 steps pass the up-front check; the 512 report times need more
        prob, dec = gauss32
        cfg = DSMConfig(integrator="adaptive_runge_kutta", max_steps=2)
        with pytest.raises(NumericalError, match="max_steps = 2 exceeded at t = ") as info:
            evolve(dec, default_schedule(), prob.f_exact, 5.0, cfg)
        assert info.value.stage == "integration"
        partial = info.value.trajectory
        assert partial.times[0] == 0.0
        assert partial.times[-1] < 5.0

    def test_rk_stops_on_a_non_finite_schedule(self, gauss32):
        prob, dec = gauss32
        cfg = DSMConfig(integrator="adaptive_runge_kutta")
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="integration diverged") as info:
            evolve(dec, JumpSchedule(np.nan, 0.7), prob.f_exact, 50.0, cfg)
        assert time.perf_counter() - start < 2.0
        assert info.value.stage == "integration"
        assert len(info.value.trajectory) == 1

    def test_rk_tolerance_floor(self):
        with pytest.raises(ConfigError, match="relative_tolerance"):
            DSMConfig(integrator="adaptive_runge_kutta", relative_tolerance=1e-15)
        DSMConfig(integrator="exponential_quadrature", relative_tolerance=1e-15)

    def test_nonpositive_horizon(self, gauss32):
        prob, dec = gauss32
        with pytest.raises(PreconditionError):
            evolve(dec, default_schedule(), prob.f_exact, 0.0)

    def test_unknown_integrator(self):
        with pytest.raises(ConfigError):
            DSMConfig(integrator="verlet")


class TestFailuresAcrossGroups:
    """Gaps are integrated in groups; a failure still names the earliest gap
    that could not be integrated, and the trajectory ends at its start."""

    @staticmethod
    def _count_panels(monkeypatch):
        """Panels evaluated in all, and in the largest round."""
        evaluated = [0, 0]
        original = PowerLawSchedule.eval

        def counted(schedule, t):
            if np.ndim(t) == 2:  # quadrature nodes, one row of 7 per panel
                evaluated[0] += np.shape(t)[0]
                evaluated[1] = max(evaluated[1], np.shape(t)[0])
            return original(schedule, t)
        monkeypatch.setattr(PowerLawSchedule, "eval", counted)
        return evaluated

    @pytest.mark.parametrize("round_panels", [None, 1])
    def test_max_steps_is_charged_exactly_and_never_passed(self, gauss32, monkeypatch,
                                                           round_panels):
        # 39 gaps in four groups, or one gap per group
        if round_panels:
            monkeypatch.setattr(dsm, "_ROUND_PANELS", round_panels)
        prob, dec = gauss32
        s, t_end = default_schedule(), 1e4
        cfg = DSMConfig(trajectory_points=40)
        sg, lam = _blur_coefficients(dec, prob)
        needed = sum(n for _, n in _reference_gaps(
            s, sg, lam, dsm._report_grid(t_end, 40), cfg.relative_tolerance))
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
        evaluated = self._count_panels(monkeypatch)
        evolve(dec, s, f, t_end, DSMConfig(trajectory_points=40, max_steps=needed))
        assert evaluated[0] == needed
        # a round holds at most 2 * _ROUND_PANELS evaluations, or one gap's
        # round 0: 3 per top-level panel of a window of 60
        assert evaluated[1] <= max(2 * dsm._ROUND_PANELS, 90)
        for max_steps in (3, needed // 3, needed - 1):
            evaluated[0] = 0
            with pytest.raises(NumericalError) as info:
                evolve(dec, s, f, t_end, DSMConfig(trajectory_points=40, max_steps=max_steps))
            assert evaluated[0] <= max_steps
            prefix = f"max_steps = {max_steps} exceeded at t = "
            assert str(info.value).startswith(prefix)
            t_fail = float(str(info.value)[len(prefix):])
            partial = info.value.trajectory
            assert partial.times[-1] == t_fail < t_end
            assert info.value.stage == "integration"

    @pytest.mark.parametrize("round_panels", [None, 1])
    @pytest.mark.parametrize("late_jump", [0.8, 0.9])
    def test_depth_cap_names_the_earliest_failing_gap(self, monkeypatch, round_panels,
                                                      late_jump):
        # four gaps of 0.25; the second and the fourth hold a jump.  With
        # late_jump = 0.9 and one panel a round, the fourth gap's panel hits
        # the cap first, and the second gap must still be refined to its cap.
        if round_panels:
            monkeypatch.setattr(dsm, "_ROUND_PANELS", round_panels)
        prob = identity_problem(3)
        dec = decompose(prob.operator)
        p = build_profile(dec, prob.f_exact)
        cfg = DSMConfig(relative_tolerance=1e-12, trajectory_points=5)
        schedule = StepSchedule([1.0, 1e-3, 1e-6], [0.3, late_jump])
        a = np.array([0.0, 0.25, 0.5, 0.75])
        _, _, (gap, message) = _gap_integrals(schedule, dec.singular_values * p.coefficients,
                                              p.lambdas, a, a + 0.25, cfg, 10 ** 6)
        with pytest.raises(NumericalError, match="not converged") as info:
            evolve(dec, schedule, prob.f_exact, 1.0, cfg)
        assert gap == 1
        assert str(info.value) == message
        lo, hi = map(float, message.split("[")[1].split("]")[0].split(", "))
        assert lo <= 0.3 <= hi
        assert info.value.trajectory.times[-1] == 0.25

    def test_divergence_before_a_later_depth_cap_is_raised(self):
        # eps is NaN in the second gap and jumps in the fourth, in one group
        prob = identity_problem(3)
        dec = decompose(prob.operator)
        cfg = DSMConfig(relative_tolerance=1e-12, trajectory_points=5)
        schedule = StepSchedule([1.0, np.nan, 1.0, 1e-3], [0.3, 0.4, 0.9])
        with pytest.raises(NumericalError, match="integration diverged") as info:
            evolve(dec, schedule, prob.f_exact, 1.0, cfg)
        assert info.value.trajectory.times[-1] == 0.25


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
        header, lines = res.trajectory.to_csv_lines(prob.y_reference, include_state=True)
        rows = [line.split(",") for line in lines]
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


@pytest.mark.parametrize("delta, C, in_range", [(1e-2, 1.0, True), (1e-6, 1.0, True),
                                                (1e-2, 1.5, False)])
def test_w_final_is_the_regularized_solve(delta, C, in_range):
    # one spectral core: run_dsm's equilibrium is regularized_normal_solve
    # on the data it solved with, bit for bit
    prob = gaussian_blur_problem(64, 0.05)
    dec = decompose(prob.operator)
    f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 7, in_range_closure=in_range))
    res = run_dsm(dec, default_schedule(), f, delta, C=C, store_trajectory=False)
    f_used = project_range_closure(dec, f)[0] if C == 1.0 else f
    assert np.array_equal(
        res.w_final, regularized_normal_solve(dec, res.stopping.epsilon_star, f_used))


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
