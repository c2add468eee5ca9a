"""Library entry points refuse malformed input with a typed error, before any work."""

import numpy as np
import pytest

from illposed import (ConfigError, DSMConfig, DenseOperator, DimensionMismatchError,
                      DiscrepancyProfile, NoiseSpec, NumericalError, PowerLawSchedule,
                      PreconditionError, SeparableMonotoneOperator, add_noise, as_vector,
                      build_profile, cubic_separable_problem, decompose, default_schedule,
                      discrepancy_value, evolve, gaussian_blur_problem, near_minimize,
                      nonlinear_discrepancy_result, project_range_closure,
                      rank_deficient_problem, regularized_normal_solve,
                      regularized_normal_solve_direct, run_dsm, solve_for_epsilon,
                      stop_from_profile)


def _dec(n):
    return decompose(DenseOperator(np.eye(n)))


def _profile(**overrides):
    fields = dict(lambdas=np.ones(2), coefficients=np.ones(2), null_mass=0.0,
                  data_norm_sq=2.0)
    return DiscrepancyProfile(**{**fields, **overrides})


def _cubic():
    return cubic_separable_problem(3, 1.0, [1.0, -1.0, 0.5])[0]


def _overflowing_profile(noise=False):
    # blur n = 64 data whose squared norm overflows to inf
    prob = gaussian_blur_problem(64, 0.05)
    f, dec = prob.f_exact * 1e160, prob.decomposition
    return build_profile(dec, add_noise(f, dec, NoiseSpec(1e-2, 7)) if noise else f)


# check-schedule's grid
_CLI_GRID = [10.0, 100.0, 1000.0, 10000.0]


def _overflowing_run():
    # the same data at C = 1: blur n = 64 keeps 51 of 64 triplets, so it is projected
    prob = gaussian_blur_problem(64, 0.05)
    return run_dsm(prob.decomposition, default_schedule(), prob.f_exact * 1e160, 1e-2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: as_vector(np.ones((2, 2))), DimensionMismatchError, "one-dimensional"),
    (lambda: as_vector([]), DimensionMismatchError, "nonempty"),
    (lambda: as_vector([1.0, np.nan]), PreconditionError, "non-finite"),
    (lambda: build_profile(_dec(3), np.ones(4)), DimensionMismatchError,
     "data vector has length 4, expected 3"),
    (lambda: DenseOperator(np.ones(3)), DimensionMismatchError, "nonempty matrix"),
    (lambda: NoiseSpec(0.0, 1), PreconditionError, "delta must be positive"),
    (lambda: NoiseSpec(float("nan"), 1), PreconditionError, "delta must be positive"),
    (lambda: _profile(coefficients=np.ones(3)), DimensionMismatchError, "matching 1-D"),
    (lambda: _profile(lambdas=np.array([1.0, -1.0])), PreconditionError, "nonnegative"),
    (lambda: _profile(lambdas=np.array([1.0, np.nan])), PreconditionError, "nonnegative"),
    (lambda: solve_for_epsilon(_profile(lambdas=np.ones(0), coefficients=np.ones(0),
                                        null_mass=1.0), 0.5),
     PreconditionError, "degenerate profile"),
    (lambda: _profile(data_norm_sq=0.0), PreconditionError, "data_norm_sq > 0"),
    (lambda: _profile(null_mass=np.nan), PreconditionError, "both finite"),
    (lambda: _profile(data_norm_sq=np.inf), PreconditionError, "both finite"),
    (lambda: _profile(coefficients=np.array([1.0, np.nan])), PreconditionError,
     "squared coefficients must have a finite sum, got nan"),
    # refused before the coefficients' squares overflow too, with no warning
    (_overflowing_profile, PreconditionError, "both finite"),
    (lambda: solve_for_epsilon(_profile(lambdas=np.zeros(2)), 0.5), PreconditionError,
     "degenerate profile"),
    (lambda: evolve(_dec(3), default_schedule(), build_profile(_dec(4), np.ones(4)), 1.0),
     DimensionMismatchError, "profile has 4 coefficients"),
    (lambda: evolve(_dec(3), default_schedule(), np.ones(3), 1.0,
                    DSMConfig(initial_state=np.zeros(4))),
     DimensionMismatchError, "initial state has length 4, expected 3"),
    (lambda: near_minimize(_cubic(), np.ones(3), 0.0, 1e-6), PreconditionError,
     "eps must be positive"),
    (lambda: near_minimize(_cubic(), np.ones(4), 0.1, 1e-6), DimensionMismatchError,
     "data vector has length 4, expected 3"),
    (lambda: SeparableMonotoneOperator(()), PreconditionError, "at least one coordinate map"),
    (lambda: _cubic()(np.ones(2)), DimensionMismatchError,
     "operator argument has length 2, expected 3"),
    (lambda: SeparableMonotoneOperator((lambda x: np.array([x, x]),))([1.0]),
     DimensionMismatchError, "operator returned shape (1, 2), expected (1,)"),
    (lambda: nonlinear_discrepancy_result(_cubic(), np.ones(3), 0.0), PreconditionError,
     "delta must be positive"),
    (lambda: nonlinear_discrepancy_result(_cubic(), np.ones(4), 0.1), DimensionMismatchError,
     "data vector has length 4, expected 3"),
    (lambda: cubic_separable_problem(3, 1.0, [1.0, 2.0]), DimensionMismatchError,
     "reference solution has length 2, expected 3"),
    (lambda: PowerLawSchedule().derivative(-1.0), PreconditionError, "t must be nonnegative"),
    (lambda: PowerLawSchedule(b=0.01).invert(1e-300), NumericalError,
     "schedule inverse overflows"),
    # NaN fails every comparison, so these passed a "t < 0" test
    (lambda: PowerLawSchedule().eval(np.nan), PreconditionError, "t must be nonnegative"),
    (lambda: PowerLawSchedule().eval(np.array([1.0, np.nan])), PreconditionError,
     "t must be nonnegative"),
    (lambda: PowerLawSchedule().derivative(np.nan), PreconditionError, "t must be nonnegative"),
    # this grid reported admissible=True
    (lambda: PowerLawSchedule().admissibility_report([10.0, np.nan, 1e3, 1e4]),
     PreconditionError, "positive and strictly ascending"),
    # eps(t) underflows to 0, or eps(t)**-2 overflows: these raised
    # ZeroDivisionError and OverflowError on Python floats
    (lambda: PowerLawSchedule(c0=1e300, c1=1e-300).admissibility_report(_CLI_GRID),
     NumericalError, "eps(t) = 0.0 at t = 10000.0 is too small"),
    (lambda: PowerLawSchedule(c1=1e-200).admissibility_report(_CLI_GRID), NumericalError,
     "eps(t) = 9.999500037496875e-203 at t = 10000.0 is too small"),
    # the data norm overflowed with a RuntimeWarning before the profile refused it
    (lambda: _overflowing_profile(noise=True), PreconditionError, "both finite"),
    # the C = 1 dust norms of that data are taken with no overflow warning
    (_overflowing_run, PreconditionError, "both finite"),
    # the Python-float cube at the search bracket's end, 1e104, overflows
    (lambda: near_minimize(*cubic_separable_problem(2, 1.0, [1e30, 1.0]), 1e-14, 1e-6),
     NumericalError, "coordinate 0 overflows on its search bracket"),
    # ||f|| = 1e180 squares past the float range, with no warning
    (lambda: near_minimize(*cubic_separable_problem(2, 1.0, [1e60, 1.0]), 1e-14, 1e-6),
     NumericalError, "search radius overflows at eps = 1e-14"),
    # the cube 1e600, and then the linear term 1e310, past the float range
    (lambda: cubic_separable_problem(2, 1.0, [1e200, 1.0]), PreconditionError,
     "cubic data A(y) overflows"),
    (lambda: cubic_separable_problem(2, [1e300, 1.0], [1e10, 1.0]), PreconditionError,
     "cubic data A(y) overflows"),
], ids=["as_vector_2d", "as_vector_empty", "as_vector_nan", "data_length",
        "dense_operator_1d", "noise_delta_0",
        "noise_delta_nan", "profile_shapes", "profile_negative_lambda", "profile_nan_lambda",
        "profile_empty",
        "profile_zero_data_norm", "profile_nan_null_mass", "profile_inf_data_norm",
        "profile_nan_coefficient", "profile_overflowing_data", "profile_zero_lambdas",
        "evolve_profile_length", "evolve_initial_state_length",
        "near_minimize_eps_0", "near_minimize_data_length", "separable_no_maps",
        "operator_argument_length", "phi_returns_array", "nonlinear_delta_0",
        "nonlinear_data_length", "cubic_reference_length", "schedule_derivative_negative_t",
        "schedule_invert_overflow", "schedule_eval_nan_t", "schedule_eval_nan_in_array",
        "schedule_derivative_nan_t", "admissibility_nan_grid", "admissibility_eps_underflow",
        "admissibility_eps_square_overflow", "profile_overflowing_noisy_data",
        "run_dsm_overflowing_dust", "near_minimize_overflowing_map",
        "near_minimize_overflowing_radius", "cubic_overflowing_cube",
        "cubic_overflowing_linear_term"])
def test_refused_with_a_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert message in str(info.value)


_DATA_ENTRY_POINTS = {
    "as_vector": as_vector,
    "build_profile": lambda v: build_profile(_dec(3), v),
    "project_range_closure": lambda v: project_range_closure(_dec(3), v),
    "regularized_normal_solve": lambda v: regularized_normal_solve(_dec(3), 0.1, v),
    "add_noise": lambda v: add_noise(v, None, NoiseSpec(0.1, 0)),
}


def _with(value, index):
    v = np.ones(3)
    v[index] = value
    return v


@pytest.mark.parametrize("entry", list(_DATA_ENTRY_POINTS))
@pytest.mark.parametrize("data, message", [
    *[(_with(value, index), "non-finite") for value in (np.nan, np.inf, -np.inf)
      for index in (0, -1)],
    (np.array([1.0 + 2.0j, 1.0, 1.0]), "must be real numbers"),
    ([1.0 + 2.0j, 3.0, 1.0], "must be real numbers"),
    (["1.5", "2", "1"], "must be real numbers"),
    (np.array([1.0, 2.0, 3.0], dtype=object), "must be real numbers"),
], ids=["nan_first", "nan_last", "inf_first", "inf_last", "neginf_first", "neginf_last",
        "complex_array", "complex_list", "strings", "object"])
def test_data_vectors_are_finite_real_numbers(entry, data, message):
    with pytest.raises(PreconditionError) as info:
        _DATA_ENTRY_POINTS[entry](data)
    assert type(info.value) is PreconditionError
    assert message in str(info.value)


@pytest.mark.parametrize("data", [[True, False], np.arange(3, dtype=np.int32),
                                  np.arange(3, dtype=np.uint8), np.ones(3, dtype=np.float32),
                                  np.ones(3, dtype=">f8")])
def test_boolean_integer_and_other_float_vectors_are_converted(data):
    v = as_vector(data)
    assert v.dtype == float and v.dtype.isnative
    assert np.array_equal(v, np.asarray(data, dtype=float))


# Each scalar the library takes as a positive real (or, for C, at least 1),
# with the typed error and the message that refuse it
_SCALAR_ENTRY_POINTS = {
    "discrepancy_value.eps": (lambda x: discrepancy_value(_profile(), x),
                              PreconditionError, "eps must be positive"),
    "regularized_normal_solve.eps": (lambda x: regularized_normal_solve(_dec(3), x, np.ones(3)),
                                     PreconditionError, "eps must be positive"),
    "regularized_normal_solve_direct.eps": (
        lambda x: regularized_normal_solve_direct(DenseOperator(np.eye(3)), x, np.ones(3)),
        PreconditionError, "eps must be positive"),
    "near_minimize.eps": (lambda x: near_minimize(_cubic(), np.ones(3), x, 1e-6),
                          PreconditionError, "eps must be positive"),
    "near_minimize.gap_budget": (lambda x: near_minimize(_cubic(), np.ones(3), 0.1, x),
                                 PreconditionError, "gap_budget must be positive"),
    "solve_for_epsilon.delta": (lambda x: solve_for_epsilon(_profile(), x),
                                PreconditionError, "delta must be positive"),
    "solve_for_epsilon.C": (lambda x: solve_for_epsilon(_profile(), 0.5, x),
                            PreconditionError, "C must be at least 1 and finite"),
    "stop_from_profile.delta": (lambda x: stop_from_profile(_profile(), default_schedule(), x),
                                PreconditionError, "delta must be positive"),
    # run_dsm refuses them at its discrepancy stage, after building the profile
    "run_dsm.delta": (lambda x: run_dsm(_dec(3), default_schedule(), np.ones(3), x),
                      PreconditionError, "delta must be positive"),
    "run_dsm.C": (lambda x: run_dsm(_dec(3), default_schedule(), np.ones(3), 0.5, x),
                  PreconditionError, "C must be at least 1 and finite"),
    "NoiseSpec.delta": (lambda x: NoiseSpec(x, 0), PreconditionError, "delta must be positive"),
    "nonlinear_discrepancy_result.delta": (
        lambda x: nonlinear_discrepancy_result(_cubic(), np.ones(3), x),
        PreconditionError, "delta must be positive"),
    "nonlinear_discrepancy_result.C": (
        lambda x: nonlinear_discrepancy_result(_cubic(), np.ones(3), 0.1, x),
        PreconditionError, "needs 1 < C < inf"),
    "evolve.t_end": (lambda x: evolve(_dec(3), default_schedule(), np.ones(3), x),
                     PreconditionError, "t_end must be positive"),
    "PowerLawSchedule.invert": (lambda x: PowerLawSchedule().invert(x),
                                PreconditionError, "schedule value must be positive"),
    "PowerLawSchedule.c0": (lambda x: PowerLawSchedule(c0=x), ConfigError, "c0 must be positive"),
    "PowerLawSchedule.c1": (lambda x: PowerLawSchedule(c1=x), ConfigError, "c1 must be positive"),
    "PowerLawSchedule.b": (lambda x: PowerLawSchedule(b=x), ConfigError, "b must lie in (0,1)"),
    "DSMConfig.relative_tolerance": (lambda x: DSMConfig(relative_tolerance=x),
                                     ConfigError, "relative_tolerance must be positive"),
    "DSMConfig.absolute_tolerance": (lambda x: DSMConfig(absolute_tolerance=x),
                                     ConfigError, "absolute_tolerance must be positive"),
    "gaussian_blur_problem.width": (lambda x: gaussian_blur_problem(8, x),
                                    PreconditionError, "width must lie in (0, 1)"),
    "cubic_separable_problem.coefficients": (
        lambda x: cubic_separable_problem(3, x, [1.0, -1.0, 0.5]),
        PreconditionError, "cubic coefficients must be positive and finite"),
}


@pytest.mark.parametrize("entry", list(_SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf], ids=["0", "-1", "nan", "inf"])
def test_scalars_are_positive_and_finite(entry, value):
    call, error, message = _SCALAR_ENTRY_POINTS[entry]
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert message in str(info.value)


@pytest.mark.parametrize("make", [lambda seed: NoiseSpec(0.1, seed),
                                  lambda seed: rank_deficient_problem(6, 3, seed)],
                         ids=["NoiseSpec", "rank_deficient_problem"])
@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), True, np.True_, "3"],
                         ids=["float", "numpy_float", "bool", "numpy_bool", "string"])
def test_seeds_are_integers(make, seed):
    with pytest.raises(PreconditionError) as info:
        make(seed)
    assert type(info.value) is PreconditionError
    assert "seed must be an integer" in str(info.value)
