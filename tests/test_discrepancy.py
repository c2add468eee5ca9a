import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import illposed.discrepancy as discrepancy
from illposed import (DenseOperator, NoiseSpec, PowerLawSchedule, PreconditionError,
                      add_noise, build_profile, decompose, default_schedule,
                      discrepancy_value, gaussian_blur_problem,
                      rank_deficient_problem, regularized_normal_solve,
                      solve_for_epsilon, stop_from_profile)
from illposed.discrepancy import (_BRACKET_RTOL, _EPS_FLOOR, DiscrepancyProfile,
                                  _epsilon_root)
from illposed.errors import NumericalError
from test_acceptance import grid_scan_root


@pytest.fixture
def diag_profile():
    dec = decompose(DenseOperator(np.diag([1.0, 0.5])))
    return build_profile(dec, [1.0, 1.0])


class TestBuildProfile:
    def test_identity(self):
        dec = decompose(DenseOperator(np.eye(2)))
        p = build_profile(dec, [0.6, 0.8])
        assert np.allclose(p.lambdas, [1.0, 1.0])
        assert abs(p.betas.sum() - 1.0) <= 1e-15
        assert p.null_mass <= 1e-16

    def test_axis_aligned(self):
        dec = decompose(DenseOperator(np.diag([1.0, 0.0])))
        p = build_profile(dec, [1.0, 1.0])
        assert np.allclose(p.lambdas, [1.0])
        assert np.allclose(p.betas, [1.0])
        assert abs(p.null_mass - 1.0) <= 1e-14

    def test_shares_the_decompositions_lambdas_and_freezes_its_arrays(self, rng):
        prob = gaussian_blur_problem(64, 0.05)
        dec = prob.decomposition
        f = prob.f_exact + 1e-3 * rng.standard_normal(64)
        p = build_profile(dec, f)
        assert p.lambdas is dec.lambdas
        for a in (p.lambdas, p.coefficients, p.betas):
            assert not a.flags.writeable
        g = dec.left_vectors.T @ f
        assert p.coefficients.tobytes() == g.tobytes()
        assert p.betas.tobytes() == (g * g).tobytes()

    def test_constructor_copies_writable_data(self):
        lambdas, g = np.array([1.0, 0.25]), np.array([0.6, 0.8])
        p = DiscrepancyProfile(lambdas=lambdas, coefficients=g, null_mass=0.0,
                               data_norm_sq=1.0)
        lambdas[0], g[0] = 5.0, 5.0
        assert p.lambdas[0] == 1.0 and p.coefficients[0] == 0.6
        assert p.betas.tobytes() == (np.array([0.6, 0.8]) ** 2).tobytes()

    def test_parseval_rank_three(self, rng):
        U = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        M = (U[:, :3] * np.array([1.0, 0.3, 0.05])) @ V[:, :3].T
        dec = decompose(DenseOperator(M))
        f = rng.standard_normal(5)
        p = build_profile(dec, f)
        total = p.betas.sum() + p.null_mass
        assert abs(total - p.data_norm_sq) <= 1e-10 * p.data_norm_sq


class TestDiscrepancyValue:
    def test_identity_half(self):
        dec = decompose(DenseOperator(np.eye(2)))
        p = build_profile(dec, [0.6, 0.8])
        assert abs(discrepancy_value(p, 1.0) - 0.5) <= 1e-15

    def test_large_eps_limit(self, diag_profile):
        p = diag_profile
        assert abs(discrepancy_value(p, 1e12) - p.data_norm) <= 1e-6 * p.data_norm

    def test_matches_assembled_residual(self, rng):
        # spectral formula against the directly assembled ||A w - f||
        M = rng.standard_normal((8, 8))
        A = DenseOperator(M)
        dec = decompose(A)
        f = rng.standard_normal(8)
        p = build_profile(dec, f)
        eps = 1e-3
        w = regularized_normal_solve(dec, eps, f)
        direct = np.linalg.norm(M @ w - f)
        assert abs(discrepancy_value(p, eps) - direct) <= 1e-9 * direct

    def test_strictly_increasing(self, diag_profile):
        grid = np.geomspace(1e-12, 1e12, 1000)
        h = np.array([discrepancy_value(diag_profile, e) for e in grid])
        assert np.all(np.diff(h) > 0)

    def test_nonpositive_eps(self, diag_profile):
        with pytest.raises(PreconditionError):
            discrepancy_value(diag_profile, 0.0)


class TestSolveForEpsilon:
    def test_identity_closed_form(self):
        dec = decompose(DenseOperator(np.eye(2)))
        p = build_profile(dec, [0.6, 0.8])
        eps = solve_for_epsilon(p, 0.1, 1.0)
        assert abs(eps - 1.0 / 9.0) <= 1e-12 * (1.0 / 9.0)

    def test_matches_grid_scan(self, diag_profile):
        eps = solve_for_epsilon(diag_profile, 0.2, 1.0)
        oracle = grid_scan_root(diag_profile, 0.2)
        assert abs(eps - oracle) <= 1e-10 * oracle
        assert abs(discrepancy_value(diag_profile, eps) - 0.2) <= 1e-10 * diag_profile.data_norm

    def test_stress_near_data_norm(self, diag_profile):
        p = diag_profile
        delta = p.data_norm * (1.0 - 1e-9)
        eps = solve_for_epsilon(p, delta, 1.0)
        assert eps > 1e6
        assert abs(discrepancy_value(p, eps) - delta) <= 1e-10 * p.data_norm

    def test_root_at_upper_bracket_end(self, diag_profile):
        # the achieved residual sits at or above the target
        eps = solve_for_epsilon(diag_profile, 0.3, 1.0)
        assert discrepancy_value(diag_profile, eps) >= 0.3

    def test_scale_covariance(self, rng):
        M = rng.standard_normal((6, 6))
        dec = decompose(DenseOperator(M))
        f = rng.standard_normal(6)
        delta = 0.2 * np.linalg.norm(f)
        e1 = solve_for_epsilon(build_profile(dec, f), delta, 1.0)
        s = 37.5
        e2 = solve_for_epsilon(build_profile(dec, s * f), s * delta, 1.0)
        assert abs(e1 - e2) <= 1e-9 * e1

    def test_noise_exceeding_data_rejected(self, diag_profile):
        with pytest.raises(PreconditionError, match="noise level exceeds data"):
            solve_for_epsilon(diag_profile, diag_profile.data_norm * 1.5, 1.0)

    def test_null_component_rejected(self):
        dec = decompose(DenseOperator(np.diag([1.0, 0.0])))
        p = build_profile(dec, [1.0, 1.0])
        with pytest.raises(PreconditionError, match="null-space component"):
            solve_for_epsilon(p, 0.5, 1.0)  # C*delta = 0.5 < sqrt(null_mass) = 1

    def test_degenerate_profile_rejected(self):
        dec = decompose(DenseOperator(np.diag([1.0, 0.0])))
        p = build_profile(dec, [0.0, 1.0])
        with pytest.raises(PreconditionError, match="degenerate"):
            solve_for_epsilon(p, 0.5, 1.0)


def stop_at(schedule, eps):
    """``stop_from_profile`` on the one-mode profile h(e) = e / (1 + e),
    whose root at the target eps / (1 + eps) is eps."""
    p = DiscrepancyProfile(lambdas=np.array([1.0]), coefficients=np.array([1.0]),
                           null_mass=0.0, data_norm_sq=1.0)
    return stop_from_profile(p, schedule, eps / (1.0 + eps))


class TestStoppingTime:
    def test_example(self):
        res = stop_at(default_schedule(), 0.1)
        assert abs(res.epsilon_star - 0.1) <= 1e-14
        assert abs(res.t_delta - 99.0) <= 1e-10

    def test_boundary(self):
        # h(1) = 1/2 exactly, and the root is the bracket's untouched upper end
        s = default_schedule()
        res = stop_at(s, s.eval(0.0))
        assert res.epsilon_star == 1.0
        assert res.t_delta == 0.0

    def test_above_start_rejected(self):
        with pytest.raises(PreconditionError, match="stopping time negative"):
            stop_at(default_schedule(), 2.0)

    def test_eps0_evaluated_once_per_schedule(self):
        calls = []

        class Counting(PowerLawSchedule):
            def eval(self, t):
                calls.append(t)
                return super().eval(t)

        s = Counting()
        for eps in (0.5, 0.1, 1e-3):
            stop_at(s, eps)
        with pytest.raises(PreconditionError, match="stopping time negative"):
            stop_at(s, 2.0)
        with pytest.raises(PreconditionError, match=r"exceeds eps\(0\) = 1.0"):
            s.invert(2.0)
        assert calls == [0.0]

    def test_t_delta_increases_as_delta_shrinks(self):
        prob = rank_deficient_problem(10, 5, 3)
        dec = prob.decomposition
        s = default_schedule()
        previous = -1.0
        for k, delta in enumerate([1e-1, 1e-2, 1e-3]):
            f = add_noise(prob.f_exact, dec, NoiseSpec(delta, 11 + k))
            res = stop_from_profile(build_profile(dec, f), s, delta, 1.0)
            assert res.t_delta > previous
            previous = res.t_delta

    def test_schedule_consistency(self, diag_profile):
        s = default_schedule()
        res = stop_from_profile(diag_profile, s, 0.2, 1.0)
        assert abs(s.eval(res.t_delta) - res.epsilon_star) <= 1e-12 * res.epsilon_star
        assert abs(res.achieved_discrepancy - 0.2) <= 1e-10 * diag_profile.data_norm
        assert res.iterations > 0


def test_bisection_deterministic(diag_profile):
    a = solve_for_epsilon(diag_profile, 0.2, 1.0)
    b = solve_for_epsilon(diag_profile, 0.2, 1.0)
    assert a == b


def _bisection_reference(p, delta, C):
    """The plain log-bisection root, evaluating the profile at every step."""
    if delta <= 0 or not math.isfinite(delta):
        raise PreconditionError(f"delta must be positive, got {delta}")
    if C < 1.0 or not math.isfinite(C):
        raise PreconditionError(f"C must be at least 1 and finite, got {C}")
    target = C * delta
    if float(p.betas.sum()) <= 0.0 or not p.lambdas.max() > 0.0:
        raise PreconditionError(
            "degenerate profile: data lies entirely in the null space of the adjoint")
    if target >= p.data_norm:
        raise PreconditionError(
            f"noise level exceeds data: C*delta = {target} must be below ||f_delta|| = {p.data_norm}")
    if target <= math.sqrt(p.null_mass):
        raise PreconditionError(
            "data has null-space component exceeding C*delta; project f_delta or increase C")

    iterations = 0
    lo, hi = _EPS_FLOOR, 1.0
    while discrepancy_value(p, hi) < target:
        lo = hi
        hi *= 10.0
        iterations += 1
        if hi > 1e308:
            raise NumericalError("discrepancy bracket growth overflowed")
    while hi - lo > _BRACKET_RTOL * hi:
        mid = (math.sqrt(lo * hi) if sys.float_info.min <= lo * hi < math.inf
               else math.sqrt(lo) * math.sqrt(hi))
        if mid <= lo or mid >= hi:
            break
        if discrepancy_value(p, mid) < target:
            lo = mid
        else:
            hi = mid
        iterations += 1
    achieved = discrepancy_value(p, hi)
    if abs(achieved - target) > 1e-10 * p.data_norm:
        raise NumericalError(
            f"discrepancy root missed: residual {achieved} at eps = {hi}, target {target}")
    return hi, achieved, iterations


def _outcome(root, p, delta, C):
    """The root's tuple, or the type and message of what it raised."""
    try:
        return root(p, delta, C)
    except (PreconditionError, NumericalError) as exc:
        return type(exc), str(exc)


def _assert_same_root(p, delta, C):
    expected = _outcome(_bisection_reference, p, delta, C)
    assert _outcome(_epsilon_root, p, delta, C) == expected
    return expected


@st.composite
def root_cases(draw):
    """A random profile and a target: interior, within 1e-14 to 1e-6
    (relative) of sqrt(null_mass) or of the data norm, at a root above 1,
    at a root near _EPS_FLOOR, or interior with unsorted lambdas of which
    some are zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = draw(st.integers(1, 256))
    kind = draw(st.sampled_from(["interior", "near_null", "near_norm", "above_one",
                                 "near_floor", "zero_unsorted"]))
    lowest = -300.0 if kind == "near_floor" else -30.0
    lambdas = np.sort(10.0 ** rng.uniform(lowest, 6.0, r))[::-1]
    if kind == "zero_unsorted":
        lambdas = rng.permutation(lambdas)
        lambdas[rng.random(r) < 0.3] = 0.0
    g = rng.standard_normal(r) * 10.0 ** rng.uniform(-8.0, 2.0, r)
    has_null = kind == "near_null" or (kind != "near_floor" and draw(st.booleans()))
    null_mass = 10.0 ** rng.uniform(-35.0, 0.0) if has_null else 0.0
    p = DiscrepancyProfile(lambdas=lambdas, coefficients=g, null_mass=null_mass,
                           data_norm_sq=float(g @ g) + null_mass)
    offset = 10.0 ** draw(st.floats(-14.0, -6.0))
    if kind == "near_null":
        target = math.sqrt(null_mass) * (1.0 + offset)
    elif kind == "near_norm":
        target = p.data_norm * (1.0 - offset)
    elif kind == "above_one":
        target = discrepancy_value(p, 10.0 ** draw(st.floats(0.1, 12.0)))
    elif kind == "near_floor":
        target = discrepancy_value(p, 10.0 ** draw(st.floats(-300.0, -290.0)))
    else:
        target = discrepancy_value(p, 10.0 ** draw(st.floats(-30.0, 6.0)))
    C = draw(st.floats(1.0, 3.0))
    return p, target / C, C


class TestRootMatchesBisection:
    """The Newton-certified root returns the bisection's tuple exactly."""

    @settings(max_examples=400, deadline=None)
    @given(root_cases())
    def test_random_profiles(self, case):
        _assert_same_root(*case)

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("C", [1.0, 1.5])
    def test_blur(self, n, C):
        prob = gaussian_blur_problem(n, 0.05)
        dec = prob.decomposition
        cases = [(delta, seed) for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
                 for seed in range(4)]
        if C == 1.0 and n != 16:  # the tikhonov-mc benchmark workload's inputs
            cases += [(delta, seed) for delta in (1e-2, 1e-4, 1e-6) for seed in range(4, 50)]
        for delta, seed in cases:
            p = build_profile(dec, add_noise(prob.f_exact, dec, NoiseSpec(delta, seed)))
            _assert_same_root(p, delta, C)

    @pytest.mark.parametrize("lam, target", [(1e295, 1.0 - 1e-14), (1e308, 0.4)])
    def test_expansion_overflow(self, lam, target):
        # with lambda = 1e308, eps + lambda overflows before the bracket does
        p = DiscrepancyProfile(lambdas=np.array([lam]), coefficients=np.array([1.0]),
                               null_mass=0.0, data_norm_sq=1.0)
        with np.errstate(over="ignore"):
            assert _assert_same_root(p, target, 1.0) == (
                NumericalError, "discrepancy bracket growth overflowed")
            with pytest.raises(NumericalError) as info:
                solve_for_epsilon(p, target)
        assert info.value.stage == "discrepancy"  # as its sibling, the missed root

    def test_root_below_the_midpoint_underflow(self):
        # sqrt(lo * hi) is 0 once the bracket falls below about 1e-150
        p = DiscrepancyProfile(lambdas=np.array([1e-280, 1e-300]),
                               coefficients=np.array([1.0, 1.0]),
                               null_mass=0.0, data_norm_sq=2.0)
        eps, achieved, _ = _assert_same_root(p, 0.5, 1.0)
        assert eps < 1e-299
        assert abs(achieved - 0.5) <= 1e-10 * p.data_norm

    @pytest.mark.parametrize("top", [160, 199, 200, 250, 299])
    def test_root_above_the_midpoint_overflow(self, top):
        # lo * hi is inf once the bracket rises above about 1e154
        p = DiscrepancyProfile(lambdas=np.array([10.0 ** top, 10.0 ** (top - 1)]),
                               coefficients=np.array([1.0, 1.0]),
                               null_mass=0.0, data_norm_sq=2.0)
        eps, achieved, _ = _assert_same_root(p, 0.5, 1.0)
        assert abs(eps / 10.0 ** (top - 2) - 9.690227718889) <= 1e-11
        assert abs(achieved - 0.5) <= 1e-10 * p.data_norm

    def test_root_below_the_floor_raises(self):
        # h(_EPS_FLOOR) is about 0.09, far above the target
        p = DiscrepancyProfile(lambdas=np.array([1e-299]), coefficients=np.array([1.0]),
                               null_mass=0.0, data_norm_sq=1.0)
        with pytest.raises(NumericalError, match="discrepancy root missed") as info:
            _epsilon_root(p, 0.01, 1.0)
        assert info.value.stage == "discrepancy"
        assert _assert_same_root(p, 0.01, 1.0)[0] is NumericalError

    @pytest.mark.parametrize("lambdas, g", [
        ([0.0, 0.0], [1.0, 0.5]),  # h is flat, with no root: refused as degenerate
        ([1.0, 1e-3, 0.0], [1.0, 0.5, 0.2]),
        ([1e-3, 1.0, 1e-6, 0.1], [0.3, 1.0, 0.4, 0.5]),
    ], ids=["all_zero", "one_zero", "unsorted"])
    def test_zero_and_unsorted_lambdas(self, lambdas, g):
        g = np.array(g)
        p = DiscrepancyProfile(lambdas=np.array(lambdas), coefficients=g,
                               null_mass=0.0, data_norm_sq=float(g @ g))
        _assert_same_root(p, 0.3, 1.0)

    @pytest.mark.parametrize("delta, C", [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0),
                                          (math.nan, 1.0), (0.2, 0.5), (2.0, 1.0)])
    def test_precondition_failures(self, diag_profile, delta, C):
        assert _assert_same_root(diag_profile, delta, C)[0] is PreconditionError

    def test_profile_precondition_failures(self):
        dec = decompose(DenseOperator(np.diag([1.0, 0.0])))
        for f, delta in (([0.0, 1.0], 0.5), ([1.0, 1.0], 0.5)):
            assert _assert_same_root(build_profile(dec, f), delta, 1.0)[0] is PreconditionError


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-152.0, -140.0))
def test_margins_hold_near_underflow(seed, log_eps):
    # h^2 is subnormal here, far coarser than the rounding bound the margins
    # rely on, so no margin may be certified that discrepancy_value breaks
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 6))
    g = rng.uniform(0.5, 3.0, r) * 10.0 ** rng.uniform(-3.0, 0.0, r)
    p = DiscrepancyProfile(lambdas=np.sort(10.0 ** rng.uniform(0.0, 6.0, r))[::-1],
                           coefficients=g, null_mass=0.0, data_norm_sq=float(g @ g))
    target = discrepancy_value(p, 10.0 ** log_eps) * (1.0 + rng.uniform(-1e-3, 1e-3))
    a, b = discrepancy._certified_margins(p, target)
    for eps in (a, np.nextafter(a, 0.0)) if a > 0.0 else ():
        assert discrepancy_value(p, eps) < target
    for eps in (b, np.nextafter(b, math.inf)) if b < math.inf else ():
        assert discrepancy_value(p, eps) >= target


@settings(max_examples=400, deadline=None)
@given(root_cases())
def test_root_bracket_holds_the_root(case):
    # Newton starts at the upper end: h there is at or above the target,
    # and at a lower end above _X_FLOOR below it, up to rounding
    p, delta, C = case
    target = C * delta
    assert (p.beta_sum, p.lambda_min, p.lambda_max) == (
        float(p.betas.sum()), float(p.lambdas.min()), float(p.lambdas.max()))
    lo, hi = discrepancy._root_bracket(p, target * target)
    kappa = 4.0 * (p.lambdas.size + 7) * 2.0 ** -53
    if hi < discrepancy._X_CEIL:
        assert discrepancy_value(p, math.exp(hi)) >= target * (1.0 - kappa)
    if lo > discrepancy._X_FLOOR:
        assert discrepancy_value(p, math.exp(lo)) <= target * (1.0 + kappa)


def _count_evaluations(monkeypatch):
    calls = []
    for name in ("discrepancy_value", "_phi_and_slope"):
        inner = getattr(discrepancy, name)
        monkeypatch.setattr(discrepancy, name,
                            lambda p, eps, inner=inner: calls.append(eps) or inner(p, eps))
    return calls


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
def test_root_evaluation_budget(monkeypatch, n, delta):
    # 54 scalar evaluations for the plain bisection; Newton steps count too
    calls = _count_evaluations(monkeypatch)
    prob = gaussian_blur_problem(n, 0.05)
    dec = prob.decomposition
    p = build_profile(dec, add_noise(prob.f_exact, dec, NoiseSpec(delta, 7)))
    eps, achieved, iterations = _epsilon_root(p, delta, 1.0)
    assert len(calls) <= 9
    assert iterations == 53
    assert (eps, achieved, iterations) == _bisection_reference(p, delta, 1.0)


def test_mean_root_evaluations_on_blur(monkeypatch):
    # 8.61 evaluations a root over these 600: 9.51 with uncorrected Newton
    # steps, and 9.78 with the curvature correction's sign flipped, which
    # keeps every result bit for bit
    calls = _count_evaluations(monkeypatch)
    roots = 0
    for n in (64, 256):
        prob = gaussian_blur_problem(n, 0.05)
        dec = prob.decomposition
        for delta in (1e-2, 1e-4, 1e-6):
            for seed in range(100):
                p = build_profile(dec, add_noise(prob.f_exact, dec, NoiseSpec(delta, seed)))
                _epsilon_root(p, delta, 1.0)
                roots += 1
    assert len(calls) / roots <= 8.65


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_phi_and_slope_match_the_discrepancy(seed):
    # phi is discrepancy_value^2, and the slope its derivative in x = ln eps
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 65))
    lambdas = 10.0 ** rng.uniform(-8.0, 2.0, r)
    g = rng.standard_normal(r)
    null_mass = float(rng.uniform(0.0, 0.1))
    p = DiscrepancyProfile(lambdas=lambdas, coefficients=g, null_mass=null_mass,
                           data_norm_sq=float(g @ g) + null_mass)
    x = float(rng.uniform(math.log(lambdas.min()), math.log(lambdas.max())))
    phi, slope = discrepancy._phi_and_slope(p, math.exp(x))
    assert abs(phi - discrepancy_value(p, math.exp(x)) ** 2) <= 1e-13 * phi
    if slope <= 1e-3 * phi:  # too flat for the central difference to resolve
        return
    step = 1e-4
    central = (discrepancy_value(p, math.exp(x + step)) ** 2
               - discrepancy_value(p, math.exp(x - step)) ** 2) / (2.0 * step)
    assert abs(central - slope) <= 1e-6 * slope


def test_near_flat_root_costs_no_more_than_the_bisection(monkeypatch):
    # h is flat in ln eps at a target 1e-11 below ||f||: Newton would creep
    # up to the root and certify too wide an interval to save any midpoints
    lambdas = np.logspace(0, -8, 20)
    g = np.random.default_rng(3).standard_normal(20)
    p = DiscrepancyProfile(lambdas=lambdas, coefficients=g, null_mass=0.0,
                           data_norm_sq=float(g @ g))
    target = p.data_norm * (1.0 - 1e-11)
    calls = _count_evaluations(monkeypatch)
    eps, achieved, iterations = _epsilon_root(p, target, 1.0)
    # the bisection evaluates the bracket's first end, each step, and the root
    assert len(calls) <= iterations + 2
    assert (eps, achieved, iterations) == _bisection_reference(p, target, 1.0)
