import time

import numpy as np
import pytest

from illposed import (MonotoneOperator, NearMinimizer, NoiseSpec,
                      NumericalError, PreconditionError,
                      SeparableMonotoneOperator, add_noise, check_monotonicity,
                      cubic_separable_problem, functional_F, near_minimize,
                      nonlinear_discrepancy_result)


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


class TestFunctional:
    def test_at_zero(self):
        op, f, _ = cubic_op(4)
        assert functional_F(op, f, 0.5, np.zeros(4)) == pytest.approx(float(f @ f))

    def test_exact_solution_leaves_penalty(self):
        op, f, y = cubic_op(4)
        eps = 0.125
        assert functional_F(op, f, eps, y) == pytest.approx(eps * float(y @ y))

    def test_scalar_cubic(self):
        op, _ = cubic_separable_problem(1, [1.0], [1.0])
        assert functional_F(op, [2.0], 0.5, [1.0]) == pytest.approx(0.5)


class TestNearMinimize:
    def test_linear_diagonal_closed_form(self):
        a = np.array([1.0, 0.5, 2.0])
        op = SeparableMonotoneOperator(tuple((lambda x, ai=ai: ai * x) for ai in a))
        g = np.array([1.0, -0.4, 0.9])
        eps = 0.3
        nm = near_minimize(op, g, eps, 1e-10)
        expected = a * g / (a * a + eps)
        assert np.max(np.abs(nm.u - expected)) <= 1e-5
        assert nm.certified
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

    def test_general_operator_uncertified(self):
        def tanh_map(u):
            return u + np.tanh(u)

        op = MonotoneOperator(3, tanh_map)
        f = np.array([0.5, -1.0, 2.0])
        nm = near_minimize(op, f, 1e-3, 1e-6)
        assert not nm.certified
        # cross-check against the separable route for the same coordinatewise map
        sep = SeparableMonotoneOperator(
            tuple((lambda x: x + np.tanh(x)) for _ in range(3)))
        ref = near_minimize(sep, f, 1e-3, 1e-10)
        assert nm.F_value <= ref.F_value + 1e-6

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
        assert best.certified is False
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
        assert res.certified

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

    def test_collapsed_bracket_off_target_raises(self):
        # this draw collapses the bisection bracket with the residual 5.8e-8
        # off C*delta, above the loop's own 1e-9 ||f_delta|| stopping test
        op, f_exact, _ = cubic_op(8)
        f = add_noise(f_exact, None, NoiseSpec(1e-4, 1269187315, in_range_closure=False))
        with pytest.raises(NumericalError, match="bracket collapsed") as info:
            nonlinear_discrepancy_result(op, f, 1e-4, 1.1)
        trace = info.value.trace
        assert trace
        assert abs(trace[-1][1] - 1.1 * 1e-4) > 1e-9 * np.linalg.norm(f)
        assert isinstance(info.value.best, NearMinimizer)


class TestMonotonicity:
    def test_cubic_family(self):
        op, _, _ = cubic_op(8)
        assert check_monotonicity(op, pairs=1000, seed=1) >= -1e-12

    def test_fails_on_decreasing_map(self):
        op = MonotoneOperator(2, lambda u: -u)
        assert check_monotonicity(op, pairs=100, seed=1) < 0
