"""The spectral discrepancy function, its root in eps, and the stopping time.

The residual norm of the regularized normal-equation solution,
``||A (A^T A + eps)^{-1} A^T f - f||``, is evaluated through the spectral
weights of the data; setting it equal to C * delta and solving for eps
yields the regularization strength at which integration should stop.
The same profile is the spectral record the evolution in ``dsm`` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NumericalError, PreconditionError
from .operators import SpectralDecomposition, as_vector, _frozen
from .schedule import Schedule

_BRACKET_RTOL = 1e-13
_EPS_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class DiscrepancyProfile:
    """Spectral record of a data vector under a decomposition.

    ``coefficients`` holds the signed data coefficients g = U_r^T f on the
    retained left singular vectors, ``betas`` their squares, ``lambdas``
    the squared retained singular values (descending), ``null_mass`` the
    squared norm of the remainder f - U_r g (the data outside the retained
    range), and ``data_norm_sq`` the squared data norm.
    Parseval: sum(betas) + null_mass == data_norm_sq up to rounding.
    """

    lambdas: np.ndarray
    coefficients: np.ndarray
    null_mass: float
    data_norm_sq: float
    betas: np.ndarray = field(init=False)

    def __post_init__(self):
        lam = _frozen(self.lambdas)
        g = _frozen(self.coefficients)
        if lam.shape != g.shape or lam.ndim != 1:
            raise DimensionMismatchError(
                f"lambdas {lam.shape} and coefficients {g.shape} must be matching 1-D arrays")
        if np.any(lam < 0):
            raise PreconditionError("squared singular values must be nonnegative")
        if self.null_mass < 0 or self.data_norm_sq <= 0:
            raise PreconditionError("null_mass must be >= 0 and data_norm_sq > 0")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "coefficients", g)
        object.__setattr__(self, "betas", _frozen(g * g))

    @property
    def data_norm(self) -> float:
        return math.sqrt(self.data_norm_sq)


def build_profile(dec: SpectralDecomposition, f_delta) -> DiscrepancyProfile:
    """Assemble the discrepancy profile of ``f_delta`` under ``dec``.

    The null mass is the squared norm of the explicit remainder, not
    ||f||^2 - sum(betas): that difference is cancellation noise of about
    1e-14 ||f||^2, which biases the root once (C delta)^2 falls near it.
    """
    f = as_vector(f_delta, "data vector")
    if f.shape[0] != dec.rows:
        raise DimensionMismatchError(
            f"data vector has length {f.shape[0]}, operator has {dec.rows} rows")
    r = dec.numerical_rank
    U = dec.left_vectors[:, :r]
    g = U.T @ f
    remainder = f - U @ g
    return DiscrepancyProfile(lambdas=dec.singular_values[:r] ** 2, coefficients=g,
                              null_mass=float(remainder @ remainder),
                              data_norm_sq=float(f @ f))


def discrepancy_value(p: DiscrepancyProfile, eps: float) -> float:
    """Residual norm of the eps-regularized solution, from the profile.

    Equals sqrt(null_mass + sum_i eps^2 beta_i / (eps + lambda_i)^2);
    strictly increasing in eps, with limits sqrt(null_mass) at 0+ and
    the data norm at infinity.
    """
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    ratio = eps / (eps + p.lambdas)
    return math.sqrt(p.null_mass + float(p.betas @ (ratio * ratio)))


def _epsilon_root(p: DiscrepancyProfile, delta: float, C: float) -> tuple[float, float, int]:
    """Locate the eps with discrepancy_value(p, eps) = C * delta.

    Bisection on log(eps); the bracket's upper end is returned so the
    achieved residual sits at or marginally above the target, which keeps
    the regularized solution's norm below the reference solution's.
    """
    if delta <= 0 or not math.isfinite(delta):
        raise PreconditionError(f"delta must be positive, got {delta}")
    if C < 1.0:
        raise PreconditionError(f"C must be at least 1, got {C}")
    target = C * delta
    if float(p.betas.sum()) <= 0.0:
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
        mid = math.sqrt(lo * hi)
        if mid <= lo or mid >= hi:
            break
        if discrepancy_value(p, mid) < target:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return hi, discrepancy_value(p, hi), iterations


def solve_for_epsilon(p: DiscrepancyProfile, delta: float, C: float = 1.0) -> float:
    """The unique eps at which the profile's residual equals C * delta.

    Requires C * delta < ||f_delta|| and C * delta > sqrt(null_mass);
    the root exists and is unique because the residual is continuous and
    strictly increasing in eps.
    """
    return _epsilon_root(p, delta, C)[0]


@dataclass(frozen=True)
class StoppingResult:
    """Root of the discrepancy equation mapped to a stopping time."""

    epsilon_star: float
    t_delta: float
    achieved_discrepancy: float
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "epsilon_star": self.epsilon_star,
            "t_delta": self.t_delta,
            "achieved_discrepancy": self.achieved_discrepancy,
            "iterations": self.iterations,
        }


def stopping_time(schedule: Schedule, epsilon_star: float, *,
                  achieved_discrepancy: float = math.nan,
                  iterations: int = 0) -> StoppingResult:
    """Map a discrepancy root to the schedule time at which eps(t) hits it."""
    if epsilon_star > schedule.eval(0.0):
        raise PreconditionError(
            "stopping time negative; decrease c1 or start further back")
    t = schedule.invert(epsilon_star)
    return StoppingResult(epsilon_star=float(epsilon_star), t_delta=float(t),
                          achieved_discrepancy=float(achieved_discrepancy),
                          iterations=int(iterations))


def stop_from_profile(p: DiscrepancyProfile, schedule: Schedule,
                      delta: float, C: float = 1.0) -> StoppingResult:
    """Solve the discrepancy equation and package the stopping time."""
    eps, achieved, iters = _epsilon_root(p, delta, C)
    return stopping_time(schedule, eps, achieved_discrepancy=achieved,
                         iterations=iters)
