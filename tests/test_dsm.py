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
                      hilbert_problem, identity_problem, project_range_closure,
                      rank_deficient_problem, regularized_normal_solve, run_dsm)
from illposed import dsm
from illposed.dsm import _MAX_PANEL_WIDTH, _gap_integrals
from rk_oracle import rk_states


class ConstantSchedule(Schedule):
    """Frozen regularization strength; only for closed-form unit tests."""

    def __init__(self, value):
        self.value = value

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.value)
        return self.value if out.ndim == 0 else out

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


def _path(integrator, A, schedule, f, t_end, cfg=DSMConfig()):
    """The report times and states of ``evolve`` on the matrix A, or those
    of the Runge-Kutta oracle at the same times and tolerances."""
    traj = evolve(decompose(DenseOperator(A)), schedule, f, t_end, cfg)
    if integrator == "exponential_quadrature":
        return traj.times, traj.states
    return traj.times, rk_states(A, schedule, f, traj.times, cfg.relative_tolerance,
                                 cfg.absolute_tolerance)


# the library's integrator, and the oracle that the cross-checks trust
@pytest.mark.parametrize("integrator", ["exponential_quadrature", "adaptive_runge_kutta"])
class TestEvolveClosedForms:
    def test_frozen_eps_growth_curve(self, gauss32, integrator):
        # constant eps: u(t) = (1 - e^{-t}) (A^T A + eps)^{-1} A^T f
        prob, dec = gauss32
        eps = 0.05
        w = regularized_normal_solve(dec, eps, prob.f_exact)
        cfg = DSMConfig(relative_tolerance=1e-10, absolute_tolerance=1e-13)
        for t_end in (1.0, 5.0, 20.0):
            _, states = _path(integrator, prob.operator.entries, ConstantSchedule(eps),
                              prob.f_exact, t_end, cfg)
            exact = (1.0 - np.exp(-t_end)) * w
            assert np.linalg.norm(states[-1] - exact) <= 1e-8

    def test_random_state_matches_hand_assembly(self, rng, integrator):
        # rank 4 of 6, against a dense solve that never forms span(V_r)
        M = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 6))
        f = rng.standard_normal(6)
        eps = 0.3
        w = np.linalg.solve(M.T @ M + eps * np.eye(6), M.T @ f)
        cfg = DSMConfig(relative_tolerance=1e-10, absolute_tolerance=1e-13)
        times, states = _path(integrator, M, ConstantSchedule(eps), f, 3.0, cfg)
        assert np.array_equal(states[0], np.zeros(6))
        for t, state in zip(times, states):
            exact = (1.0 - np.exp(-t)) * w
            assert np.linalg.norm(state - exact) <= 1e-8

    def test_trajectory_starts_at_initial_state(self, gauss32, integrator):
        prob, _ = gauss32
        times, states = _path(integrator, prob.operator.entries, default_schedule(),
                              prob.f_exact, 5.0)
        assert times[0] == 0.0
        assert np.array_equal(states[0], np.zeros(32))
        assert np.all(np.diff(times) > 0)
        assert times[-1] == 5.0


def test_integrators_cross_validate(gauss32):
    # criterion 6 at tighter tolerances: both sides must follow them, since
    # at the default 1e-8 the gap is 2e-9 and would break this bound
    prob, dec = gauss32
    f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
    s = default_schedule()
    cfg = DSMConfig(relative_tolerance=1e-10, absolute_tolerance=1e-13)
    times, u_exp = _path("exponential_quadrature", prob.operator.entries, s, f, 50.0, cfg)
    _, u_rk = _path("adaptive_runge_kutta", prob.operator.entries, s, f, 50.0, cfg)
    gap = np.linalg.norm(u_exp - u_rk, axis=1)
    assert np.all(gap <= 1e-9 * np.linalg.norm(u_exp, axis=1))


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


@pytest.mark.parametrize("make, seed, t_end", [
    (lambda: hilbert_problem(8), 21, 20.0),
    (lambda: rank_deficient_problem(10, 5, 3), 9, 25.0),
], ids=["hilbert8", "rank_deficient10x5"])
def test_every_report_time_matches_the_rk_oracle(make, seed, t_end):
    # blur n = 32 is acceptance criterion 6
    prob = make()
    dec = prob.decomposition
    f = add_noise(prob.f_exact, dec, NoiseSpec(1e-3, seed))
    s = default_schedule()
    traj = evolve(dec, s, f, t_end)
    gap = np.linalg.norm(traj.states - rk_states(prob.operator.entries, s, f, traj.times), axis=1)
    assert np.all(gap <= 1e-6 * np.linalg.norm(traj.states, axis=1))


@pytest.mark.parametrize("schedule", [default_schedule(), PowerLawSchedule(1e-3, 1e-3, 0.9),
                                      PowerLawSchedule(1.0, 1.0, 0.99)],
                         ids=["default", "steep_0.9", "slow_0.99"])
def test_report_times_up_to_1e3_match_the_rk_oracle(schedule):
    # the window between the RK checks up to t = 50 and the expansion past
    # t = 1e3, with the switch from panels to Gauss-Laguerre at t = 111.7.
    # The oracle runs at rtol 1e-10, so its own error stays below the bound;
    # measured: at most 7.2e-11, and 9.4e-5 to 4.2e-4 past 111.7 with a
    # Laguerre rule that reads eps one time unit late
    prob = gaussian_blur_problem(64, 0.05)
    f = add_noise(prob.f_exact, prob.decomposition, NoiseSpec(1e-2, 7))
    traj = evolve(prob.decomposition, schedule, f, 1e3)
    rk = rk_states(prob.operator.entries, schedule, f, traj.times, rtol=1e-10, atol=1e-13)
    assert traj.times.size == 512
    gap = np.linalg.norm(traj.states - rk, axis=1)
    assert np.all(gap <= 1e-10 * np.linalg.norm(rk, axis=1))


def _expansion_gaps(A, schedule, f, traj):
    """Each report time past t = 1e3, and the relative gap between its state
    and u = (1 + d/dt)^{-1} w = w - w' + w'' - ... with w = (B + eps)^{-1}
    A^T f, B = A^T A, w' = -eps' (B + eps)^{-1} w and w'' = (2 eps'^2
    (B + eps)^{-2} - eps'' (B + eps)^{-1}) w.  Solved in the original
    coordinates, this shares no code with the integrator.  The dropped
    w''' is about (b / t)^3 ||w||; the solves lose about 1e-16 / eps."""
    s, eye = schedule, np.eye(A.shape[1])
    B, g = A.T @ A, A.T @ f
    for i in np.flatnonzero(traj.times > 1e3):
        t = traj.times[i]
        eps, d1 = s.eval(t), s.derivative(t)
        d2 = s.b * (s.b + 1.0) * s.c1 * (s.c0 + t) ** (-s.b - 2.0)
        m = B + eps * eye
        w = np.linalg.solve(m, g)
        v = np.linalg.solve(m, w)
        expected = w + d1 * v + 2.0 * d1 * d1 * np.linalg.solve(m, v) - d2 * v
        yield t, np.linalg.norm(traj.states[i] - expected) / np.linalg.norm(expected)


@pytest.mark.parametrize("n, delta", [(64, 1e-2), (64, 1e-4), (64, 1e-6), (256, 1e-2)])
def test_late_report_times_match_the_adiabatic_expansion(n, delta):
    # the RK oracle stops at t = 1e3.  Measured over the 233 to 396 late
    # times up to t_delta = 3.2e5, 2.9e9, 2.6e13 and 9.6e5: at most 6.2e-11,
    # and 9.5e-10 at delta 1e-6 (the solves); without the w'' term the gap
    # is 2.2e-8 to 2.5e-8
    prob = gaussian_blur_problem(n, 0.05)
    f = add_noise(prob.f_exact, prob.decomposition, NoiseSpec(delta, 7))
    s = default_schedule()
    traj = run_dsm(prob.decomposition, s, f, delta).trajectory
    gaps = list(_expansion_gaps(prob.operator.entries, s, f, traj))
    assert len(gaps) >= 100
    for t, gap in gaps:
        assert gap <= 1e-8, t


@pytest.mark.parametrize("make, schedule", [
    (lambda: gaussian_blur_problem(64, 0.05), PowerLawSchedule(1e-3, 1e-3, 0.9)),
    (lambda: gaussian_blur_problem(64, 0.05), PowerLawSchedule(1.0, 1.0, 0.99)),
    (lambda: hilbert_problem(8), default_schedule()),
    (lambda: rank_deficient_problem(10, 5, 3), default_schedule()),
], ids=["blur64_steep_0.9", "blur64_slow_0.99", "hilbert8", "rank_deficient10x5"])
def test_late_report_times_to_1e7_match_the_adiabatic_expansion(make, schedule):
    # 292 late times each.  Where eps is small the expansion's own solves
    # lose about 1e-16 / eps, so the bound is max(1e-8, 4e-16 / eps(t)).
    # Measured: at most 0.49 of it (1.3e-7 at b = 0.9, where gap * eps stays
    # below 2.4e-16), and 130 to 7000 times it with a Laguerre rule that
    # reads eps one time unit late
    prob = make()
    f = add_noise(prob.f_exact, prob.decomposition, NoiseSpec(1e-3, 7))
    traj = evolve(prob.decomposition, schedule, f, 1e7)
    gaps = list(_expansion_gaps(prob.operator.entries, schedule, f, traj))
    assert len(gaps) == 292
    for t, gap in gaps:
        assert gap <= max(1e-8, 4e-16 / schedule.eval(t)), t


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


def _tol(schedule, sg, lam, b, cfg=DSMConfig()):
    """The tolerance max(atol, rtol ||w(b)||) of each time b, as ``evolve``
    hands it to the quadrature helpers."""
    scale = np.linalg.norm(sg[:, None] / (lam[:, None] + schedule.eval(b)), axis=0)
    return np.maximum(cfg.absolute_tolerance, cfg.relative_tolerance * scale)


def _reference_gaps(schedule, sg, lam, times, rel_tol):
    """The recursive reference's integral and panel count for each gap."""
    out = []
    for a, b in zip(times[:-1], times[1:]):
        tol = rel_tol * np.linalg.norm(sg / (lam + schedule.eval(b)))
        out.append(_recursive_gap_integral(schedule, sg, lam, b, min(b - a, 60.0), tol))
    return out


def _blur_coefficients(dec, prob):
    p = build_profile(dec, add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7)))
    return dec.singular_values * p.coefficients, p.lambdas


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
                                _tol(schedule, sg, lam, hi[i:i + per_call], cfg), 10 ** 6)
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
    # dtau, whose part beyond tau = 60 is below 1e-26 relative.  The profile
    # is that of the range-projected data run_dsm integrates (blur n = 64
    # keeps 51 of 64 triplets, so C = 1 projects): the raw data's profile
    # differs by rounding relative to ||f||, and puts the gap at 3.9e-15 to
    # 2.3e-13 instead of 2.7e-16 to 4.8e-16, which the bound keeps 20x under
    prob = gaussian_blur_problem(64, 0.05)
    dec = prob.decomposition
    f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 7))
    s = default_schedule()
    res = run_dsm(dec, s, f, delta)
    t = res.stopping.t_delta
    p = build_profile(dec, project_range_closure(dec, f))
    z = [quad(lambda tau, sg=sg, lam=lam: math.exp(-tau) * sg / (lam + s.eval(t - tau)),
              0.0, 60.0, epsabs=0.0, epsrel=1e-13)[0]
         for sg, lam in zip(dec.singular_values * p.coefficients, p.lambdas)]
    u = dec.right_vectors @ np.array(z)
    assert np.linalg.norm(res.u_final - u) <= 1e-14 * np.linalg.norm(u)


@pytest.mark.parametrize("t_end", [np.nextafter(2.0, 3.0), 2.5, 1e3, 2.6e13, 1.7e308])
def test_report_grid_rises_strictly_to_t_end(t_end):
    # ``evolve`` takes the geometric grid as it is, with no sort or dedup
    times = dsm._report_grid(t_end)
    assert times.size == 512 and times[0] == 0.0 and times[-1] == t_end
    assert np.all(np.diff(times) > 0)


def test_record_builds_states_without_a_second_full_array():
    # blur n = 256 keeps r = 53 triplets: the states are 512 x 256 (1 MB) and
    # z, copied from its list of rows, is 0.2 MB; a full-size temporary, or a
    # frozen copy of the states, would pass 2.2x on its own
    prob = gaussian_blur_problem(256, 0.05)
    dec = prob.decomposition
    p = build_profile(dec, add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7)))
    times = dsm._report_grid(1e4)
    rng = np.random.default_rng(3)
    zs = list(rng.standard_normal((times.size, dec.numerical_rank)))
    zs[0] = np.full(dec.numerical_rank, -0.0)
    tracemalloc.start()
    try:
        traj = dsm._record(dec, p, times, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (512, 256)
    assert peak <= 2.2 * traj.states.nbytes
    # the bits of V_r z, and a start row of +0.0 that prints as 0.0
    expected = np.asarray(zs) @ dec.right_vectors.T
    expected[0] = 0.0
    assert np.array_equal(traj.states.view(np.int64), expected.view(np.int64))


def _panel_only_trajectory(dec, schedule, profile, t_end, cfg=DSMConfig()):
    """Reference for the exponential integrator's late-time rule: the
    panel-only chaining it replaced.  Every gap's integral comes from
    ``_gap_integrals``, in groups whose round 0 (3 evaluations per top-level
    panel) fits 2 * _ROUND_PANELS evaluations, and z is chained gap by gap
    from a zero start.  Returns the trajectory up to the earliest failing
    gap, and the failure message or None."""
    sg, lam = dec.singular_values * profile.coefficients, profile.lambdas
    times = dsm._report_grid(t_end)
    a, b = times[:-1], times[1:]
    tol = _tol(schedule, sg, lam, b, cfg)
    round0 = 3 * np.maximum(1, np.ceil(np.minimum(b - a, 60.0) / _MAX_PANEL_WIDTH))
    zs = [np.zeros(dec.numerical_rank)]
    budget, start, message = dsm._MAX_STEPS, 0, None
    while start < b.size and message is None:
        stop = start + max(1, int(np.searchsorted(
            np.cumsum(round0[start:]), 2 * dsm._ROUND_PANELS, side="right")))
        integrals, panels, failure = _gap_integrals(
            schedule, sg, lam, a[start:stop], b[start:stop], tol[start:stop], budget)
        budget -= int(panels.sum())
        done = stop - start if failure is None else failure[0]
        message = failure and failure[1]
        for j in range(done):
            zs.append(math.exp(-(b[start + j] - a[start + j])) * zs[-1] + integrals[:, j])
        start = stop
    return dsm._record(dec, profile, times[:len(zs)], zs), message


def _count_panel_gaps(monkeypatch):
    """The number of gaps ``evolve`` integrates by panel rounds, and the
    number of its calls to ``_gap_integrals`` with no gap, as a list."""
    gaps = [0, 0]
    original = dsm._gap_integrals

    def counted(schedule, sg, lam, a, b, *args):
        gaps[0] += b.size
        gaps[1] += b.size == 0
        return original(schedule, sg, lam, a, b, *args)
    monkeypatch.setattr(dsm, "_gap_integrals", counted)
    return gaps


def _assert_states_agree(traj, reference, rel_tol):
    assert np.array_equal(traj.times, reference.times)
    err = np.linalg.norm(traj.states - reference.states, axis=1)
    assert np.all(err <= rel_tol * np.linalg.norm(reference.states, axis=1))


def _early_gaps(traj):
    return int(np.sum(traj.times[1:] <= dsm._LATE_TIME))


@pytest.mark.parametrize("n, delta", [(64, 1e-2), (64, 1e-4), (64, 1e-6), (256, 1e-2)])
def test_late_times_match_the_panel_only_path_at_the_stopping_time(monkeypatch, n, delta):
    # the four CLI solve inputs of the benchmark; 321 to 433 of the 511 gaps
    # end past _LATE_TIME, and every one of them takes the Laguerre rule, so
    # no late block calls _gap_integrals with an empty group
    prob = gaussian_blur_problem(n, 0.05)
    dec = prob.decomposition
    f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 7))
    s = default_schedule()
    gaps = _count_panel_gaps(monkeypatch)
    res = run_dsm(dec, s, f, delta)
    assert 321 <= 511 - gaps[0] <= 433
    assert gaps == [_early_gaps(res.trajectory), 0]
    profile = build_profile(dec, project_range_closure(dec, f))
    reference, failure = _panel_only_trajectory(dec, s, profile, res.stopping.t_delta)
    assert failure is None
    _assert_states_agree(res.trajectory, reference, 1e-14)


@pytest.fixture(scope="module")
def evolve_inputs():
    out = {}
    for name, prob in (("hilbert8", hilbert_problem(8)),
                       ("blur32", gaussian_blur_problem(32, 0.05)),
                       ("rank_deficient10x5", rank_deficient_problem(10, 5, 3))):
        dec = prob.decomposition
        out[name] = dec, build_profile(dec, add_noise(prob.f_exact, dec, NoiseSpec(1e-3, 7)))
    return out


@pytest.mark.parametrize("t_end", [3.0, 1e3, 1e7])
@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
@pytest.mark.parametrize("schedule", [default_schedule(), PowerLawSchedule(1e-3, 1e-3, 0.9),
                                      PowerLawSchedule(1e-4, 1e-2, 0.99)],
                         ids=["default", "steep_0.9", "steep_0.99"])
@pytest.mark.parametrize("problem", ["hilbert8", "blur32", "rank_deficient10x5"])
def test_late_times_match_the_panel_only_path(evolve_inputs, monkeypatch, problem, schedule,
                                              rel_tol, t_end):
    dec, profile = evolve_inputs[problem]
    cfg = DSMConfig(relative_tolerance=rel_tol)
    reference, failure = _panel_only_trajectory(dec, schedule, profile, t_end, cfg)
    assert failure is None
    gaps = _count_panel_gaps(monkeypatch)
    traj = evolve(dec, schedule, profile, t_end, cfg)
    assert gaps[0] == _early_gaps(traj) == {3.0: 511, 1e3: 349, 1e7: 150}[t_end]
    assert gaps[1] == 0
    _assert_states_agree(traj, reference, 1e-14)


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
@pytest.mark.parametrize("jump", [500.0, 700.0, 900.0])
def test_late_times_near_a_jump_fall_back_to_panels(gauss32, monkeypatch, jump, rel_tol):
    # eps drops from 1 to 1e-3 at the jump: a late time whose Laguerre nodes
    # straddle it misses the 8/16-node estimate and takes panels, chained
    # from the previous time.  At 900 a panel cannot converge on either path.
    prob, dec = gauss32
    profile = build_profile(dec, add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7)))
    s = StepSchedule([1.0, 1e-3], [jump])
    cfg = DSMConfig(relative_tolerance=rel_tol, absolute_tolerance=1e-300)
    reference, message = _panel_only_trajectory(dec, s, profile, 1e3, cfg)
    assert (message is None) == (jump < 900.0)
    gaps = _count_panel_gaps(monkeypatch)
    if message is None:
        traj = evolve(dec, s, profile, 1e3, cfg)
    else:
        with pytest.raises(NumericalError, match="not converged after 30 bisections") as info:
            evolve(dec, s, profile, 1e3, cfg)
        assert str(info.value) == message
        traj = info.value.trajectory
        assert traj.times.shape[0] == 504
    assert gaps[0] > _early_gaps(traj)
    _assert_states_agree(traj, reference, rel_tol)


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
def test_final_state_meets_the_tracking_bound_at_the_stopping_time(delta):
    # (u - w)' = -(u - w) - w' gives ||u(t) - w(t)|| <= e^{-t} ||w(0)||
    # + sup_{t-60<=s<=t} ||w'(s)|| + e^{-60} sup_{s<=t} ||w'(s)||, with
    # w_i' = -eps' s_i g_i / (lambda_i + eps)^2.  |eps'| and eps both fall,
    # so |eps'(lo)| ||s g / (lambda + eps(t))^2|| bounds the sup over [lo, t].
    # At t_delta (3.2e5, 2.9e9, 2.6e13) ||u - w|| ~ ||w'(t)|| is within
    # 3e-4 of the bound, or below rounding.
    prob = gaussian_blur_problem(64, 0.05)
    dec = prob.decomposition
    f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 7))
    s = default_schedule()
    t = run_dsm(dec, s, f, delta).stopping.t_delta
    p = build_profile(dec, f)
    sg, lam = dec.singular_values * p.coefficients, p.lambdas
    u = evolve(dec, s, p, t).states[-1]
    w = dec.right_vectors @ (sg / (lam + s.eval(t)))
    w0 = dec.right_vectors @ (sg / (lam + s.eval(0.0)))

    def sup_w_prime(lo):
        return abs(s.derivative(lo)) * np.linalg.norm(sg / (lam + s.eval(t)) ** 2)
    bound = math.exp(-t) * np.linalg.norm(w0) + sup_w_prime(t - 60.0) \
        + math.exp(-60.0) * sup_w_prime(0.0)
    # u and w are both computed as n-term products with V_r
    rounding = dec.cols * np.finfo(float).eps * np.linalg.norm(w)
    assert np.linalg.norm(u - w) <= bound + rounding
    # u = w - u' expands to u ~ w - w' + w''; in the coordinates z = V^T w,
    # z' = -eps' z / (lambda + eps), z'' = (2 eps'^2 / (lambda + eps) - eps'') z / (lambda + eps).
    # Measured: the expansion meets u to about 1.5e-15 ||w|| at all three t_delta
    eps, d1 = s.eval(t), s.derivative(t)
    d2 = s.b * (s.b + 1.0) * s.c1 * (s.c0 + t) ** (-s.b - 2.0)
    z = sg / (lam + eps)
    z1 = -d1 * z / (lam + eps)
    z2 = (2.0 * d1 * d1 / (lam + eps) - d2) * z / (lam + eps)
    assert np.linalg.norm(dec.right_vectors.T @ u - (z - z1 + z2)) <= 1e-12 * np.linalg.norm(z)


@pytest.fixture(scope="module")
def blur256_stages():
    """The two integration stages of ``evolve`` on blur n = 256, delta 1e-2,
    seed 7, up to the stopping time: the first early panel group (165 gaps,
    510 round-0 evaluations) and the first late-time block (149 times).
    Each as a call, with the bytes of its r x evaluations x nodes array w."""
    prob = gaussian_blur_problem(256, 0.05)
    dec = prob.decomposition
    f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
    s, cfg = default_schedule(), DSMConfig()
    t = run_dsm(dec, s, f, 1e-2).stopping.t_delta
    p = build_profile(dec, f)
    sg, lam = dec.singular_values * p.coefficients, p.lambdas
    times = dsm._report_grid(t)
    a, b = times[:-1], times[1:]
    round0 = 3 * dsm._top_panels(np.minimum(b - a, dsm._WINDOW))
    group = int(np.searchsorted(np.cumsum(round0), 2 * dsm._ROUND_PANELS, side="right"))
    late = int(np.searchsorted(b, dsm._LATE_TIME, side="right"))
    block = 2 * dsm._ROUND_PANELS * dsm._GL_NODES.size // dsm._LG_NODES.size
    evaluations = int(round0[:group].sum())
    assert (group, evaluations, block) == (165, 510, 149)
    tol = _tol(s, sg, lam, b, cfg)  # taken by ``evolve`` before either stage
    return {  # w holds r floats, sg.nbytes, per evaluation and node
        "gap": (lambda: _gap_integrals(s, sg, lam, a[:group], b[:group], tol[:group],
                                       dsm._MAX_STEPS),
                sg.nbytes * evaluations * dsm._GL_NODES.size),
        "laguerre": (lambda: dsm._laguerre_integrals(s, sg, lam, b[late:late + block],
                                                     tol[late:late + block]),
                     sg.nbytes * block * dsm._LG_NODES.size),
    }


def _warm_peak(call):
    """The tracemalloc peak of ``call()``, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage, ratio", [("gap", 1.35), ("laguerre", 1.21)])
def test_integration_stage_peaks_little_above_its_node_array(blur256_stages, stage, ratio):
    # w, about 1.5 MB in both stages, is each one's largest array; the
    # smaller arrays built after it (the split bookkeeping, the Laguerre
    # estimate) must not stack on it.  Measured 1.27x and 1.19x; keeping w
    # alive through the panel round gives 1.44x.
    call, w_bytes = blur256_stages[stage]
    assert _warm_peak(call) <= ratio * w_bytes


def test_late_time_blocks_peak_no_higher_than_the_panel_only_path(blur256_stages):
    # the two paths differ only in these stages, and a late-time block's
    # node array is sized to a panel round's, so a block must not peak
    # above a full round-0 panel group (1.80 MB against 1.93 MB measured)
    gap, laguerre = blur256_stages["gap"][0], blur256_stages["laguerre"][0]
    assert _warm_peak(laguerre) <= _warm_peak(gap)


class TestEvolveErrors:
    def test_max_steps_with_partial_trajectory(self, gauss32, monkeypatch):
        monkeypatch.setattr(dsm, "_MAX_STEPS", 3)
        prob, dec = gauss32
        with pytest.raises(NumericalError, match="max_steps = 3 exceeded") as info:
            evolve(dec, default_schedule(), prob.f_exact, 50.0)
        assert info.value.stage == "integration"
        partial = info.value.trajectory
        assert partial is not None
        assert partial.times[0] == 0.0
        assert partial.times[-1] < 50.0

    def test_max_steps_quadrature(self, gauss32, monkeypatch):
        # a cap of one step stops before the first report time past t = 0
        monkeypatch.setattr(dsm, "_MAX_STEPS", 1)
        prob, dec = gauss32
        with pytest.raises(NumericalError, match="max_steps = 1 exceeded") as info:
            evolve(dec, default_schedule(), prob.f_exact, 50.0)
        assert info.value.trajectory is not None
        assert list(info.value.trajectory.times) == [0.0]

    def test_panel_depth_cap_raises_with_partial_trajectory(self, monkeypatch):
        monkeypatch.setattr(dsm, "_REPORT_POINTS", 3)
        prob = identity_problem(3)
        dec = prob.decomposition
        cfg = DSMConfig(relative_tolerance=1e-12)
        with pytest.raises(NumericalError, match="not converged") as info:
            evolve(dec, JumpSchedule(1e-3, 0.3), prob.f_exact, 1.0, cfg)
        assert info.value.stage == "integration"
        partial = info.value.trajectory
        assert partial.times[0] == 0.0
        assert partial.times[-1] < 1.0

    def test_unreachable_panel_tolerance_fails_fast_in_bounded_memory(self, gauss32):
        # a tolerance below rounding: no panel converges, so refinement must
        # stop at the depth cap long before the step budget _MAX_STEPS = 1e6
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

    @pytest.mark.parametrize("field", ["relative_tolerance", "absolute_tolerance"])
    @pytest.mark.parametrize("value", [0.0, -1e-8, np.nan, np.inf])
    def test_tolerances_must_be_positive_and_finite(self, field, value):
        # a NaN or infinite tolerance passed every split test silently: on a
        # jump where 1e-8 hits the depth cap, it returned a state 4.7e-4 off
        with pytest.raises(ConfigError, match=f"^{field} must be positive, got {value}$"):
            DSMConfig(**{field: value})

    def test_nonpositive_horizon(self, gauss32):
        prob, dec = gauss32
        with pytest.raises(PreconditionError):
            evolve(dec, default_schedule(), prob.f_exact, 0.0)


class TestFailuresAcrossGroups:
    """Gaps are integrated in groups; a failure still names the earliest gap
    that could not be integrated, and the trajectory ends at its start."""

    @staticmethod
    def _count_panels(monkeypatch):
        """Quadrature rows evaluated in all, and in the largest round or block."""
        evaluated = [0, 0]
        original = PowerLawSchedule.eval

        def counted(schedule, t):
            # quadrature nodes: one row of 7 per panel, of 24 per late time
            if np.ndim(t) == 2:
                evaluated[0] += np.shape(t)[0]
                evaluated[1] = max(evaluated[1], np.shape(t)[0])
            return original(schedule, t)
        monkeypatch.setattr(PowerLawSchedule, "eval", counted)
        return evaluated

    @pytest.mark.parametrize("round_panels", [None, 1])
    def test_max_steps_is_charged_exactly_and_never_passed(self, gauss32, monkeypatch,
                                                           round_panels):
        # 39 gaps: 20 early ones in groups (or one gap per group) take
        # panels, 19 late ones a Laguerre row each (in blocks of 149, or of 1)
        if round_panels:
            monkeypatch.setattr(dsm, "_ROUND_PANELS", round_panels)
        monkeypatch.setattr(dsm, "_REPORT_POINTS", 40)
        prob, dec = gauss32
        s, t_end = default_schedule(), 1e4
        sg, lam = _blur_coefficients(dec, prob)
        times = dsm._report_grid(t_end)
        late = int(np.sum(times > dsm._LATE_TIME))
        assert late == 19
        needed = late + sum(n for _, n in _reference_gaps(
            s, sg, lam, times[:-late], DSMConfig().relative_tolerance))
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
        evaluated = self._count_panels(monkeypatch)
        monkeypatch.setattr(dsm, "_MAX_STEPS", needed)
        evolve(dec, s, f, t_end)
        assert evaluated[0] == needed
        # a round holds at most 2 * _ROUND_PANELS evaluations, or one gap's
        # round 0: 3 per top-level panel of a window of 60; a block of late
        # times at most as many nodes: 2 * _ROUND_PANELS * 7 / 24 rows
        assert evaluated[1] <= max(2 * dsm._ROUND_PANELS, 90)
        for max_steps in (3, needed // 3, needed - 1):
            evaluated[0] = 0
            monkeypatch.setattr(dsm, "_MAX_STEPS", max_steps)
            with pytest.raises(NumericalError) as info:
                evolve(dec, s, f, t_end)
            assert evaluated[0] <= max_steps
            prefix = f"max_steps = {max_steps} exceeded at t = "
            assert str(info.value).startswith(prefix)
            t_fail = float(str(info.value)[len(prefix):])
            partial = info.value.trajectory
            assert partial.times[-1] == t_fail < t_end
            assert info.value.stage == "integration"
        # charged in report-time order: one row short, only the last time is missed
        assert t_fail == times[-2]

    @pytest.mark.parametrize("round_panels", [None, 1])
    @pytest.mark.parametrize("late_jump", [0.8, 0.9])
    def test_depth_cap_names_the_earliest_failing_gap(self, monkeypatch, round_panels,
                                                      late_jump):
        # four gaps of 0.25; the second and the fourth hold a jump.  With
        # late_jump = 0.9 and one panel a round, the fourth gap's panel hits
        # the cap first, and the second gap must still be refined to its cap.
        if round_panels:
            monkeypatch.setattr(dsm, "_ROUND_PANELS", round_panels)
        monkeypatch.setattr(dsm, "_REPORT_POINTS", 5)
        prob = identity_problem(3)
        dec = prob.decomposition
        p = build_profile(dec, prob.f_exact)
        sg = dec.singular_values * p.coefficients
        cfg = DSMConfig(relative_tolerance=1e-12)
        schedule = StepSchedule([1.0, 1e-3, 1e-6], [0.3, late_jump])
        a = np.array([0.0, 0.25, 0.5, 0.75])
        _, _, (gap, message) = _gap_integrals(schedule, sg, p.lambdas, a, a + 0.25,
                                              _tol(schedule, sg, p.lambdas, a + 0.25, cfg),
                                              10 ** 6)
        with pytest.raises(NumericalError, match="not converged") as info:
            evolve(dec, schedule, prob.f_exact, 1.0, cfg)
        assert gap == 1
        assert str(info.value) == message
        lo, hi = map(float, message.split("[")[1].split("]")[0].split(", "))
        assert lo <= 0.3 <= hi
        assert info.value.trajectory.times[-1] == 0.25

    def test_divergence_before_a_later_depth_cap_is_raised(self, monkeypatch):
        # eps is NaN in the second gap and jumps in the fourth, in one group
        monkeypatch.setattr(dsm, "_REPORT_POINTS", 5)
        prob = identity_problem(3)
        dec = prob.decomposition
        cfg = DSMConfig(relative_tolerance=1e-12)
        schedule = StepSchedule([1.0, np.nan, 1.0, 1e-3], [0.3, 0.4, 0.9])
        with pytest.raises(NumericalError, match="integration diverged") as info:
            evolve(dec, schedule, prob.f_exact, 1.0, cfg)
        assert info.value.trajectory.times[-1] == 0.25

    @pytest.mark.parametrize("problem", ["identity", "blur"])
    def test_late_nan_eps_diverges_at_its_report_time(self, gauss32, problem):
        # eps is NaN from t = 300 on, past _LATE_TIME: no Laguerre row that
        # reads it is ruled, so the first report time past 300 takes panels
        # and diverges; the report times before it are all kept
        prob = gauss32[0] if problem == "blur" else identity_problem(3)
        dec = prob.decomposition
        schedule = StepSchedule([1.0, np.nan], [300.0])
        with pytest.raises(NumericalError, match="integration diverged") as info:
            evolve(dec, schedule, prob.f_exact, 1000.0)
        assert info.value.stage == "integration"
        times = dsm._report_grid(1000.0)
        assert info.value.trajectory.times[-1] == times[times < 300.0][-1]
        assert round(float(info.value.trajectory.times[-1]), 2) == 299.55

    @pytest.mark.parametrize("unruled", [0, 12])
    def test_non_finite_ruled_row_raises_at_its_report_time(self, gauss32, monkeypatch,
                                                            unruled):
        # a ruled row is checked when its block is built, but the failure is
        # still raised in report-time order: after the ``unruled`` late rows
        # before it, which take panels in groups of their own
        monkeypatch.setattr(dsm, "_REPORT_POINTS", 40)
        prob, dec = gauss32
        times = dsm._report_grid(1e4)
        first = int(np.searchsorted(times, dsm._LATE_TIME, side="right"))
        bad = first + unruled + 2
        original = dsm._laguerre_integrals

        def faulty(schedule, sg, lam, b, tol):
            values, ruled = original(schedule, sg, lam, b, tol)
            values[:, b == times[bad]] = np.inf
            ruled[(b > times[first + 1]) & (b < times[bad])] = False
            return values, ruled
        monkeypatch.setattr(dsm, "_laguerre_integrals", faulty)
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
        with pytest.raises(NumericalError, match="integration diverged") as info:
            evolve(dec, default_schedule(), f, 1e4)
        assert info.value.stage == "integration"
        assert list(info.value.trajectory.times) == list(times[:bad])


class TestRunDSM:
    def test_identity_small_delta_recovers_data(self):
        # noise-free data with a tiny claimed bound: the solution is the data
        prob = identity_problem(4)
        dec = prob.decomposition
        res = run_dsm(dec, default_schedule(), prob.f_exact, 1e-8)
        assert np.linalg.norm(res.u_final - prob.y_reference) <= 1e-4

    def test_residual_recomputation(self, hilbert8):
        prob, dec = hilbert8
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 3))
        res = run_dsm(dec, default_schedule(), f, 1e-2)
        recomputed = np.linalg.norm(prob.operator.entries @ res.u_final - f)
        assert abs(recomputed - res.residual) <= 1e-12

    @pytest.mark.parametrize("n", [64, 128])
    def test_direct_residual_of_w_final_hits_target(self, n):
        # the root must not be biased by cancellation noise in the null mass
        prob = gaussian_blur_problem(n, 0.05)
        dec = prob.decomposition
        delta = 1e-6
        f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 7))
        res = run_dsm(dec, default_schedule(), f, delta)
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
            res = run_dsm(dec, default_schedule(), f, delta)
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
        r1 = run_dsm(dec, default_schedule(), f, 1e-2)
        r2 = run_dsm(dec, default_schedule(), f, 1e-2)
        assert r1.stopping == r2.stopping
        assert np.array_equal(r1.u_final, r2.u_final)
        assert np.array_equal(r1.w_final, r2.w_final)
        assert r1.residual == r2.residual

    def test_last_state_is_the_trajectory_row(self, hilbert8):
        prob, dec = hilbert8
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 8))
        res = run_dsm(dec, default_schedule(), f, 1e-2)
        assert np.shares_memory(res.u_final, res.trajectory.states)
        assert not res.u_final.flags.writeable
        assert res.residual == res.trajectory.residual_norms[-1]

    def test_a_schedule_needs_only_eval_and_invert(self, gauss32):
        class Delegating(Schedule):
            inner = default_schedule()

            def eval(self, t):
                return self.inner.eval(t)

            def invert(self, g):
                return self.inner.invert(g)

        prob, dec = gauss32
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
        ours, shipped = (run_dsm(dec, s, f, 1e-2) for s in (Delegating(), default_schedule()))
        assert ours.stopping.epsilon_star == shipped.stopping.epsilon_star
        assert ours.stopping.t_delta == shipped.stopping.t_delta
        assert ours.u_final.tobytes() == shipped.u_final.tobytes()
        assert Schedule.__abstractmethods__ == {"eval", "invert"}

    def test_boundary_stopping_time_returns_start_state(self):
        # delta = 0.5 on unit data puts the root exactly at eps(0)
        prob = identity_problem(4)
        dec = prob.decomposition
        res = run_dsm(dec, default_schedule(), prob.f_exact, 0.5)
        assert res.stopping.t_delta == 0.0
        assert np.array_equal(res.u_final, np.zeros(4))

    def test_stage_tagging(self):
        prob = identity_problem(4)
        dec = prob.decomposition
        with pytest.raises(PreconditionError) as info:
            run_dsm(dec, default_schedule(), prob.f_exact, 0.9)  # eps* > eps(0)
        assert info.value.stage == "discrepancy"


@pytest.mark.parametrize("delta, C, in_range", [(1e-2, 1.0, True), (1e-6, 1.0, True),
                                                (1e-2, 1.5, False)])
def test_w_final_is_the_regularized_solve(delta, C, in_range):
    # one spectral core: run_dsm's equilibrium is regularized_normal_solve
    # on the data it solved with, bit for bit
    prob = gaussian_blur_problem(64, 0.05)
    dec = prob.decomposition
    f = add_noise(prob.f_exact, dec if in_range else None, NoiseSpec(delta, 7))
    res = run_dsm(dec, default_schedule(), f, delta, C=C)
    f_used = project_range_closure(dec, f) if C == 1.0 else f
    assert np.array_equal(
        res.w_final, regularized_normal_solve(dec, res.stopping.epsilon_star, f_used))


class TestNullSpacePolicy:
    def test_strict_rejects_genuine_null_component(self):
        from illposed import rank_deficient_problem
        prob = rank_deficient_problem(12, 6, 1)
        dec = prob.decomposition
        f = add_noise(prob.f_exact, None, NoiseSpec(1e-2, 13))
        with pytest.raises(PreconditionError, match="null-space component"):
            run_dsm(dec, default_schedule(), f, 1e-2, C=1.0)

    def test_dust_is_projected_and_reported(self):
        from illposed import rank_deficient_problem
        prob = rank_deficient_problem(12, 6, 1)
        dec = prob.decomposition
        f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 13))
        res = run_dsm(dec, default_schedule(), f, 1e-2, C=1.0)
        assert res.projected_null_mass <= 1e-20
        d = f - project_range_closure(dec, f)
        assert res.projected_null_mass == float(d @ d)

    def test_c_above_one_accepts_null_component(self):
        from illposed import rank_deficient_problem
        prob = rank_deficient_problem(12, 6, 1)
        dec = prob.decomposition
        f = add_noise(prob.f_exact, None, NoiseSpec(1e-2, 13))
        res = run_dsm(dec, default_schedule(), f, 1e-2, C=2.0)
        assert abs(res.stopping.achieved_discrepancy - 2e-2) <= 1e-10 * np.linalg.norm(f)
