import math

import numpy as np
import pytest

from illposed import ConfigError, PowerLawSchedule, PreconditionError, default_schedule


class TestEval:
    def test_at_zero(self):
        assert default_schedule().eval(0.0) == 1.0

    def test_power_of_ten(self):
        assert abs(default_schedule().eval(99.0) - 0.1) <= 1e-16

    def test_plugin(self):
        s = PowerLawSchedule(c0=2.0, c1=3.0, b=0.25)
        assert abs(s.eval(14.0) - 1.5) <= 1e-15

    def test_vectorized(self):
        s = default_schedule()
        out = s.eval(np.array([0.0, 99.0]))
        assert np.allclose(out, [1.0, 0.1])

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            default_schedule().eval(-1.0)


class TestDerivative:
    def test_at_zero(self):
        assert default_schedule().derivative(0.0) == -0.5

    def test_plugin(self):
        assert abs(default_schedule().derivative(3.0) - (-0.0625)) <= 1e-16

    def test_matches_finite_difference(self, rng):
        for _ in range(20):
            s = PowerLawSchedule(c0=float(rng.uniform(0.5, 3.0)),
                                 c1=float(rng.uniform(0.5, 3.0)),
                                 b=float(rng.uniform(0.1, 0.9)))
            t = float(rng.uniform(0.0, 100.0))
            h = 1e-6 * (s.c0 + t)
            fd = (s.eval(t + h) - s.eval(max(t - h, 0.0))) / (h + min(h, t))
            assert abs(s.derivative(t) - fd) <= 1e-6 * abs(fd)

    def test_always_negative(self):
        s = default_schedule()
        assert np.all(s.derivative(np.linspace(0, 1000, 101)) < 0)


class TestInvert:
    def test_example(self):
        assert abs(default_schedule().invert(0.1) - 99.0) <= 1e-10

    def test_boundary(self):
        s = default_schedule()
        assert s.invert(s.eval(0.0)) == 0.0

    def test_round_trip(self, rng):
        for _ in range(50):
            s = PowerLawSchedule(c0=float(rng.uniform(0.5, 3.0)),
                                 c1=float(rng.uniform(0.5, 3.0)),
                                 b=float(rng.uniform(0.1, 0.9)))
            g = float(rng.uniform(1e-8, 1.0)) * s.eval(0.0)
            assert abs(s.eval(s.invert(g)) - g) <= 1e-12 * g

    def test_above_start_rejected(self):
        with pytest.raises(PreconditionError):
            default_schedule().invert(1.5)

    def test_nonpositive_rejected(self):
        with pytest.raises(PreconditionError):
            default_schedule().invert(0.0)


class TestValidation:
    @pytest.mark.parametrize("b", [0.0, 1.0, 1.5, -0.3])
    def test_b_out_of_range(self, b):
        with pytest.raises(ConfigError, match=r"b must lie in \(0,1\)"):
            PowerLawSchedule(1.0, 1.0, b)

    def test_nonpositive_constants(self):
        with pytest.raises(ConfigError):
            PowerLawSchedule(0.0, 1.0, 0.5)
        with pytest.raises(ConfigError):
            PowerLawSchedule(1.0, -1.0, 0.5)


class TestAdmissibility:
    def test_q_value_at_1e4(self):
        # sup of |eps'| over [t/2, t] sits at t/2 for this family
        rep = default_schedule().admissibility_report([1e4])
        expected = 0.5 * (5001.0) ** -1.5 * 10001.0
        assert abs(rep.q_values[0] - expected) <= 1e-15
        assert abs(rep.q_values[0] - 1.41e-2) < 2e-4

    def test_q_matches_dense_sampling(self):
        s = default_schedule()
        rep = s.admissibility_report([50.0, 500.0])
        for t, q in zip(rep.t_grid, rep.q_values):
            samples = np.linspace(t / 2.0, t, 40001)
            dense = np.max(np.abs(s.derivative(samples))) * s.eval(t) ** -2.0
            assert abs(q - dense) <= 1e-12 * dense

    def test_exponential_dominates_schedule_decay_at_50(self):
        s = default_schedule()
        r50 = math.exp(-50.0) / s.eval(50.0)
        assert r50 < 1e-15

    def test_q_strictly_decreasing_on_decade_grid(self):
        rep = default_schedule().admissibility_report([100.0, 1000.0, 10000.0])
        assert np.all(np.diff(rep.q_values) < 0)

    def test_default_schedule_admissible(self):
        rep = default_schedule().admissibility_report([10.0, 100.0, 1000.0, 10000.0])
        assert rep.admissible
        assert rep.q_tail_decreasing and rep.r_tail_decreasing

    def test_b_near_one_still_admissible(self):
        rep = PowerLawSchedule(1.0, 1.0, 0.99).admissibility_report(
            [10.0, 100.0, 1000.0, 10000.0])
        assert rep.admissible

    def test_report_holds_read_only_copies(self):
        grid = np.array([10.0, 100.0, 1000.0, 10000.0])
        rep = default_schedule().admissibility_report(grid)
        grid[0] = 20.0
        assert rep.t_grid[0] == 10.0
        for values in (rep.t_grid, rep.q_values, rep.r_values):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = -1.0

    def test_bad_grid_rejected(self):
        with pytest.raises(PreconditionError):
            default_schedule().admissibility_report([])
        with pytest.raises(PreconditionError):
            default_schedule().admissibility_report([3.0, 2.0])


def test_positivity_and_decrease_on_grid():
    s = default_schedule()
    vals = s.eval(np.linspace(0.0, 500.0, 2001))
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)
