import math
import time

import numpy as np
import pytest

import illposed.nonlinear
from illposed import (NearMinimizer, NoiseSpec,
                      NumericalError, PreconditionError,
                      SeparableMonotoneOperator, add_noise,
                      cubic_separable_problem, near_minimize,
                      nonlinear_discrepancy_result)


def functional_F(op, f, eps, u):
    """||A(u) - f||^2 + eps ||u||^2, with the library's arithmetic."""
    r = op(u) - f
    return float(r @ r + eps * (u @ u))


def scan_minimize(phi, g, eps, radius, points=1_000_000):
    """Dense 1-D grid scan plus golden refinement; oracle for the minimizer."""
    xs = np.linspace(-radius, radius, points)
    vals = (phi(xs) - g) ** 2 + eps * xs * xs
    i = int(np.argmin(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - golden * (b - a), a + golden * (b - a)

    def val(x):
        p = phi(x)
        return (p - g) ** 2 + eps * x * x

    fc, fd = val(c), val(d)
    for _ in range(200):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = val(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = val(d)
    x = c if fc <= fd else d
    return x, val(x)


def cubic_op(n, a=1.0):
    y = np.array([(1.0, -1.0, 0.5)[i % 3] for i in range(n)])
    op, f = cubic_separable_problem(n, a, y)
    return op, f, y


SWEEP_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


def sweep_data(f_exact, seed, delta):
    """The noisy data of one sweep run: noise seed ``seed + k`` for the
    k-th delta of SWEEP_DELTAS, as ``illposed nonlinear`` draws it."""
    k = SWEEP_DELTAS.index(delta)
    return add_noise(f_exact, None, NoiseSpec(delta, seed + k))


def reference_discrepancy(op, f, delta, C):
    """Reference scan and bisection with the residual stop test.

    The scan stops where the previous residual is at most C*delta and the
    current one at least; the bisection stops once the bracket is within
    1e-10 relative width and the residual within 1e-9 ||f|| of C*delta,
    after 250 steps, or when the midpoint collapses onto an end.  Each
    residual is formed from the near-minimizer's point, which the library's
    ``near_minimize`` gives (a test may patch it).  Returns
    (eps, near-minimizer, residual, trace) or raises NumericalError
    off target.
    """
    target = C * delta
    budget = (C * C - 1.0) * delta * delta
    cache = {}

    def h(eps):
        if eps not in cache:
            nm = illposed.nonlinear.near_minimize(op, f, eps, budget)
            cache[eps] = nm, float(np.linalg.norm(op(nm.u) - f))
        return cache[eps][1]

    eps, prev = 1e-14, None
    while eps <= 1e12:
        value = h(eps)
        if prev is not None and prev[1] <= target <= value:
            lo, hi = prev[0], eps
            break
        prev = (eps, value)
        eps *= 2.0
    else:
        raise NumericalError("no root in scan range")
    tol = 1e-9 * float(np.linalg.norm(f))
    for _ in range(250):
        if hi - lo <= 1e-10 * hi and abs(h(hi) - target) <= tol:
            break
        mid = math.sqrt(lo * hi)
        if mid <= lo or mid >= hi:
            break
        if h(mid) < target:
            lo = mid
        else:
            hi = mid
    nm, residual = cache[hi]
    if abs(residual - target) > tol:
        raise NumericalError("bracket collapsed off target")
    trace = tuple((e, r, m.F_value, m.gap_certificate) for e, (m, r) in cache.items())
    return hi, nm, residual, trace


# The runs of seeds 1-40 (cubic n = 8, SWEEP_DELTAS, C 1.1 and 1.5) whose
# bisection bracket ends more than 1e-9 ||f_delta|| off C*delta, so that the
# reference raises
CONTINUED_RUNS = [(1.1, seed, 1e-4) for seed in (6, 18, 29, 33)] + [
    (1.5, seed, 1e-2) for seed in (6, 14, 21, 31)]


class TestFunctional:
    """The F_value and residual every near-minimizer carries."""

    @staticmethod
    def at(op, f, eps, u):
        return illposed.nonlinear._near_minimizer(op, np.asarray(f, float), eps,
                                                  np.asarray(u, float), 0.0)

    def test_at_zero(self):
        op, f, _ = cubic_op(4)
        nm = self.at(op, f, 0.5, np.zeros(4))
        assert nm.F_value == pytest.approx(float(f @ f))
        assert nm.residual == pytest.approx(float(np.linalg.norm(f)))

    def test_exact_solution_leaves_penalty(self):
        op, f, y = cubic_op(4)
        eps = 0.125
        assert self.at(op, f, eps, y).F_value == pytest.approx(eps * float(y @ y))

    def test_scalar_cubic(self):
        op, _ = cubic_separable_problem(1, [1.0], [1.0])
        assert self.at(op, [2.0], 0.5, [1.0]).F_value == pytest.approx(0.5)


class TestNearMinimize:
    def test_linear_diagonal_closed_form(self):
        a = np.array([1.0, 0.5, 2.0])
        op = SeparableMonotoneOperator(tuple((lambda x, ai=ai: ai * x) for ai in a))
        g = np.array([1.0, -0.4, 0.9])
        eps = 0.3
        nm = near_minimize(op, g, eps, 1e-10)
        expected = a * g / (a * a + eps)
        assert np.max(np.abs(nm.u - expected)) <= 1e-5
        assert nm.gap_certificate <= 1e-10

    def test_cubic_recovers_reference(self):
        op, f, y = cubic_op(6)
        nm = near_minimize(op, f, 1e-6, 1e-10)
        assert np.max(np.abs(nm.u - y)) <= 1e-3

    def test_cubic_vs_scan_oracle(self):
        op, f, _ = cubic_op(4)
        eps = 1e-4
        nm = near_minimize(op, f, eps, 1e-9)
        oracle = np.array([scan_minimize(lambda x, i=i: op.phis[i](x), f[i], eps, 4.0)[0]
                           for i in range(4)])
        f_oracle = functional_F(op, f, eps, oracle)
        assert nm.F_value - f_oracle <= 1e-9

    def test_gap_certificate_against_oracle(self, rng):
        # 50 random separable cubic instances; the certified gap must cover
        # the distance to the scanned minimum
        for trial in range(50):
            n = int(rng.integers(1, 5))
            a = rng.uniform(0.2, 3.0, n)
            op = SeparableMonotoneOperator(
                tuple((lambda x, ai=ai: ai * x + x ** 3) for ai in a))
            f = rng.uniform(-2.0, 2.0, n)
            eps = float(10.0 ** rng.uniform(-8, 0))
            budget = float(10.0 ** rng.uniform(-8, -2))
            nm = near_minimize(op, f, eps, budget)
            oracle_vals = [scan_minimize(lambda x, i=i: op.phis[i](x), f[i], eps,
                                         3.0, points=100_000)[1] for i in range(n)]
            assert nm.F_value - sum(oracle_vals) <= budget + 1e-13
            assert nm.gap_certificate <= budget

    def test_general_operator_rejected(self):
        # only a separable operator has a certified near-minimizer
        def op(u):  # a monotone plain callable, not a SeparableMonotoneOperator
            return u + np.tanh(u)

        f = np.array([0.5, -1.0, 2.0])
        with pytest.raises(PreconditionError, match="SeparableMonotoneOperator"):
            near_minimize(op, f, 1e-3, 1e-6)
        with pytest.raises(PreconditionError, match="SeparableMonotoneOperator"):
            nonlinear_discrepancy_result(op, f, 1e-2, 1.1)

    def test_unreachable_budget_fails_fast_with_the_best_point(self):
        # a per-coordinate share far below rounding: coordinate 0 spends its
        # step cap, and the later coordinates are never visited
        op, f = cubic_separable_problem(3, 1.0, [1.0, -1.0, 0.5])
        start = time.perf_counter()
        with pytest.raises(NumericalError,
                           match="budget unreachable at coordinate 0") as info:
            near_minimize(op, f, 1e-3, gap_budget=1e-25)
        assert time.perf_counter() - start < 1.0
        best = info.value.best
        assert np.array_equal(best.u[1:], [0.0, 0.0])
        assert best.gap_certificate > 1e-25
        assert best.F_value == functional_F(op, f, 1e-3, best.u)

    def test_bad_budget(self):
        op, f, _ = cubic_op(2)
        with pytest.raises(PreconditionError):
            near_minimize(op, f, 1e-3, 0.0)


class TestDiscrepancy:
    def test_identity_reduction_matches_linear_closed_form(self):
        op = SeparableMonotoneOperator(tuple((lambda x: x) for _ in range(4)))
        f = np.array([0.6, 0.48, 0.36, 0.52])
        f /= np.linalg.norm(f)
        delta, C = 0.05, 1.1
        eps = nonlinear_discrepancy_result(op, f, delta, C).epsilon_delta
        exact = C * delta / (1.0 - C * delta)
        assert abs(eps - exact) <= 1e-2 * exact

    def test_cubic_root_residual(self):
        op, f_exact, y = cubic_op(8)
        rng = np.random.default_rng(7)
        delta, C = 1e-2, 1.1
        e = rng.standard_normal(8)
        f = f_exact + (delta / np.linalg.norm(e)) * e
        res = nonlinear_discrepancy_result(op, f, delta, C)
        assert abs(res.residual - C * delta) <= 1e-8 * np.linalg.norm(f)
        assert res.gap_certificate <= (C * C - 1.0) * delta * delta

    def test_convergence_toward_reference(self):
        op, f_exact, y = cubic_op(8)
        C = 1.1
        errors = []
        for k, delta in enumerate([1e-1, 1e-2, 1e-3, 1e-4]):
            rng = np.random.default_rng(70 + k)
            e = rng.standard_normal(8)
            f = f_exact + (delta / np.linalg.norm(e)) * e
            u = nonlinear_discrepancy_result(op, f, delta, C).u_delta
            errors.append(np.linalg.norm(u - y))
        assert errors[-1] < errors[0] / 10.0

    def test_norm_bound_at_root(self):
        op, f_exact, y = cubic_op(8)
        rng = np.random.default_rng(11)
        delta = 1e-3
        e = rng.standard_normal(8)
        f = f_exact + (delta / np.linalg.norm(e)) * e
        u = nonlinear_discrepancy_result(op, f, delta, 1.1).u_delta
        assert np.linalg.norm(u) <= np.linalg.norm(y) * (1.0 + 1e-8)

    def test_large_eps_limit(self):
        # the residual of the near-minimizer approaches ||A(0) - f||
        op, f_exact, _ = cubic_op(4)
        delta, C = 1e-2, 1.5
        budget = (C * C - 1.0) * delta * delta
        nm = near_minimize(op, f_exact, 1e10, budget)
        h_inf = np.linalg.norm(op(nm.u) - f_exact)
        a0 = np.linalg.norm(op(np.zeros(4)) - f_exact)
        assert abs(h_inf - a0) <= 1e-4 * a0

    def test_small_eps_bound_on_trace(self):
        # h(eps)^2 <= eps ||y||^2 + C^2 delta^2 along the scan
        op, f_exact, y = cubic_op(8)
        rng = np.random.default_rng(5)
        delta, C = 1e-2, 1.1
        e = rng.standard_normal(8)
        f = f_exact + (delta / np.linalg.norm(e)) * e
        res = nonlinear_discrepancy_result(op, f, delta, C)
        y_norm_sq = float(y @ y)
        small = [(eps, h) for eps, h, _, _ in res.trace if eps <= 1e-4]
        assert small
        for eps, h in small:
            assert h * h <= eps * y_norm_sq + (C * delta) ** 2 + 1e-12

    def test_c_must_exceed_one(self):
        op, f, _ = cubic_op(3)
        with pytest.raises(PreconditionError):
            nonlinear_discrepancy_result(op, f, 1e-2, 1.0)

    def test_zero_residual_precondition(self):
        op, _, _ = cubic_op(3)
        f = op(np.zeros(3))  # ||A(0) - f|| = 0
        with pytest.raises(PreconditionError):
            nonlinear_discrepancy_result(op, f, 1e-2, 1.1)

    def test_trace_attached_to_result(self):
        op, f_exact, _ = cubic_op(4)
        res = nonlinear_discrepancy_result(op, f_exact, 1e-2, 1.1)
        assert len(res.trace) > 4
        epses = [t[0] for t in res.trace]
        assert epses[0] == pytest.approx(1e-14)

    def test_off_target_bracket_is_continued(self):
        # this draw ends the bisection with the bracket's upper residual 5.8e-8
        # off C*delta; the continuation between the bracket's two cached
        # near-minimizers lands on C*delta with a certificate in budget
        op, f_exact, _ = cubic_op(8)
        f = add_noise(f_exact, None, NoiseSpec(1e-4, 1269187315))
        res = nonlinear_discrepancy_result(op, f, 1e-4, 1.1)
        tol = 1e-9 * np.linalg.norm(f)
        upper = dict((eps, h) for eps, h, _, _ in res.trace)[res.epsilon_delta]
        assert upper - 1.1e-4 > tol
        assert 0.0 < res.theta < 1.0
        assert abs(res.residual - 1.1e-4) <= tol
        assert res.gap_certificate <= (1.1 ** 2 - 1.0) * 1e-8
        assert res.F_value == functional_F(op, f, res.epsilon_delta, res.u_delta)

    def test_matches_the_reference_loop_wherever_it_succeeds(self, monkeypatch):
        # both loops read one shared near-minimizer per (data, eps), so the
        # comparison costs one run; a run's residuals, trace and point must
        # be bit-identical to the reference's
        op, f_exact, _ = cubic_op(8)
        memo = {}
        real = near_minimize

        def shared(op, f, eps, budget):
            key = (f.tobytes(), eps, budget)
            if key not in memo:
                memo[key] = real(op, f, eps, budget)
            return memo[key]

        monkeypatch.setattr(illposed.nonlinear, "near_minimize", shared)
        for C in (1.1, 1.5):
            for seed in (1, 2):
                for delta in SWEEP_DELTAS:
                    f = sweep_data(f_exact, seed, delta)
                    eps, nm, residual, trace = reference_discrepancy(op, f, delta, C)
                    res = nonlinear_discrepancy_result(op, f, delta, C)
                    assert res.theta is None
                    assert res.epsilon_delta == eps
                    assert res.u_delta.tobytes() == nm.u.tobytes()
                    assert (res.residual, res.gap_certificate, res.F_value) == (
                        residual, nm.gap_certificate, nm.F_value)
                    assert res.trace == trace

    @pytest.mark.parametrize("C,seed,delta", CONTINUED_RUNS)
    def test_continued_runs_meet_criterion_9(self, C, seed, delta):
        op, f_exact, _ = cubic_op(8)
        f = sweep_data(f_exact, seed, delta)
        res = nonlinear_discrepancy_result(op, f, delta, C)
        assert res.theta is not None
        assert abs(res.residual - C * delta) <= 1e-9 * np.linalg.norm(f)
        assert res.gap_certificate <= (C * C - 1.0) * delta * delta
        # the root is the bracket's upper end, and the certificate is taken
        # against the larger of the bracket ends' lower bounds on inf F
        lo = max(t for t in res.trace if t[1] < C * delta)
        hi = next(t for t in res.trace if t[0] == res.epsilon_delta)
        assert res.gap_certificate == res.F_value - max(hi[2] - hi[3], lo[2] - lo[3])

    def test_uncertifiable_continuation_raises(self, monkeypatch):
        # faked near-minimizers that jump across C*delta at eps = 1e-3 and
        # whose certificates are their whole value (the bound inf F >= 0):
        # the continued point lands on C*delta but its certificate
        # F_hi(u) = 0.0233 exceeds the budget 0.0125, so the run raises
        # naming the bracket
        op = SeparableMonotoneOperator((lambda x: x,))

        def fake(op, f, eps, budget):
            u = np.array([0.9 if eps < 1e-3 else 0.5])
            F = functional_F(op, f, eps, u)
            return NearMinimizer(u=u, F_value=F, gap_certificate=F, epsilon=eps,
                                 residual=float(np.linalg.norm(u - f)))

        monkeypatch.setattr(illposed.nonlinear, "near_minimize", fake)
        with pytest.raises(NumericalError,
                           match=r"continuation across the bracket \[9\.99") as info:
            nonlinear_discrepancy_result(op, np.array([1.0]), 0.1, 1.5)
        best = info.value.best
        assert isinstance(best, NearMinimizer)
        assert abs(best.residual - 0.15) <= 1e-9
        assert best.gap_certificate > 0.0125
        assert info.value.trace
        assert info.value.stage == "continuation"

    def test_continuation_floor_above_F_raises(self):
        # the two-basin phi from SeparableMonotoneOperator's docstring: the
        # continued point's F (0.0287) lies below the cached lower bound on
        # inf F (0.242), which disproves a cached certificate; the run
        # reported a certificate of 0 and theta 0.0604 before
        def phi(x):
            return x if x <= 1.0 else 1.0 + 1e-3 * (x - 1.0) if x <= 10.0 else x - 8.991

        op = SeparableMonotoneOperator((phi,))
        with pytest.raises(NumericalError, match=r"certificate -2\.1\d*e-01 against") as info:
            nonlinear_discrepancy_result(op, np.array([1.5]), 0.1, 1.5)
        assert info.value.best.gap_certificate < 0.0
        assert info.value.stage == "continuation"

    def test_overshoot_at_the_smallest_eps_raises_at_once(self):
        # tanh cannot reach f = 2, so every residual is at least 1 > C*delta:
        # the scan stops at its first point
        op = SeparableMonotoneOperator((np.tanh,))
        with pytest.raises(NumericalError, match="no root in scan range") as info:
            nonlinear_discrepancy_result(op, np.array([2.0]), 1e-2, 1.1)
        assert [t[0] for t in info.value.trace] == [1e-14]
        assert info.value.stage == "scan"

    def test_failure_inside_the_bisection_is_tagged(self, monkeypatch):
        # the scan's last point reaches C*delta = 0.15; the next near-minimizer
        # is the bisection's first, and it fails
        op = SeparableMonotoneOperator((lambda x: x,))
        real, reached = illposed.nonlinear.near_minimize, []

        def failing_after_the_scan(op, f, eps, budget):
            if reached:
                raise NumericalError("coordinate 0 overflows on its search bracket")
            nm = real(op, f, eps, budget)
            if nm.residual >= 0.15:
                reached.append(eps)
            return nm

        monkeypatch.setattr(illposed.nonlinear, "near_minimize", failing_after_the_scan)
        with pytest.raises(NumericalError, match="overflows on its search bracket") as info:
            nonlinear_discrepancy_result(op, np.array([1.0]), 0.1, 1.5)
        assert info.value.stage == "bisection"


class TestMonotonicity:
    def test_cubic_family(self):
        op, _, _ = cubic_op(8)
        # (A(u) - A(v), u - v) >= 0 over seeded random pairs, up to rounding
        rng = np.random.default_rng(1)
        worst = math.inf
        for _ in range(1000):
            u = rng.standard_normal(op.dimension)
            v = rng.standard_normal(op.dimension)
            worst = min(worst, float((op(u) - op(v)) @ (u - v)))
        assert worst >= -1e-12
