"""The spectral discrepancy function, its root in eps, and the stopping time.

The residual norm of the regularized normal-equation solution,
``||A (A^T A + eps)^{-1} A^T f - f||``, is evaluated through the spectral
weights of the data; setting it equal to C * delta and solving for eps
yields the regularization strength at which integration should stop.
The root is located by Newton's method and returned as the end of the
log-bisection bracket, bit for bit, with the profile evaluated only where
Newton's certified margins leave the bisection's comparison open.
The same profile is the spectral record the evolution in ``dsm`` reads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NumericalError, PreconditionError
from .operators import SpectralDecomposition, as_vector, _frozen
from .schedule import Schedule

_BRACKET_RTOL = 1e-13
_EPS_FLOOR = 1e-300
_EPS_CEIL = 1e308
_NORMAL_MIN = sys.float_info.min
_X_FLOOR, _X_CEIL = math.log(_EPS_FLOOR), math.log(_EPS_CEIL)
_NEWTON_XTOL = 1e-13
_NEWTON_STEPS = 50
_PROBES = 3
# Where d ln h / d ln eps is below this at the root, the certified interval,
# about 4 kappa / s wide in ln eps, is too wide for the replay to skip many
# midpoints, and Newton's steps there cost more than the bisection they save.
_FLAT_SLOPE = 1e-6
# Criterion 1's bound on the achieved residual, relative to ||f_delta||.
_ROOT_RTOL = 1e-10


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
    U = dec.left_vectors
    g = U.T @ f
    remainder = f - U @ g
    return DiscrepancyProfile(lambdas=dec.singular_values ** 2, coefficients=g,
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


def _phi_and_slope(p: DiscrepancyProfile, eps: float) -> tuple[float, float]:
    """phi = discrepancy_value(p, eps)**2 and its slope d phi / d ln eps.

    With q_i = eps / (eps + lambda_i), phi = null_mass + sum beta_i q_i^2
    and the slope is 2 sum beta_i q_i^2 (1 - q_i); 1 - q_i is formed as
    lambda_i / (eps + lambda_i), which does not cancel when eps >> lambda_i.
    """
    d = p.lambdas + eps
    q = eps / d
    bq = p.betas * q
    return p.null_mass + float(bq @ q), 2.0 * float(bq @ (q * (p.lambdas / d)))


def _certified_margins(p: DiscrepancyProfile, target: float, mass: float) -> tuple[float, float]:
    """Points a < b such that discrepancy_value(p, eps) < target for every
    eps <= a and >= target for every eps >= b; (0, inf) if none are found.

    A safeguarded Newton iteration in x = ln eps on ln h(e^x) = ln target
    locates the root, then one probe (or a few) either side of it is
    evaluated.  Of all evaluated points, a is the largest eps with
    h <= target (1 - kappa) and b the smallest with h >= target (1 + kappa).
    For positive terms the computed h is within (r + 7) 2^-53 of the exact
    h, relatively, whatever the summation order; kappa is four times that,
    so it covers the error of the evaluation that certified a point and of
    any later one.  As the exact h is nondecreasing, every eps <= a then
    computes below target and every eps >= b at or above it.  The bound is
    relative only while no term underflows or overflows materially, so
    badly scaled profiles are left uncertified.

    Roots flatter than _FLAT_SLOPE are left uncertified too.  As
    q_i^2 (1 - q_i) is at most 1 - q_i^2 and at most q_i^2, the slope
    d ln h / d ln eps is at most min(||f||^2 - h^2, h^2 - null_mass) / h^2
    at every eps, so a target this near either limit of h has a flat root.
    """
    r = p.lambdas.shape[0]
    kappa = 4.0 * (r + 7) * 2.0 ** -53
    t2 = target * target
    if not (t2 > 1e-290 * (mass + r) and mass + p.null_mass < 1e290
            and float(p.lambdas.max()) < 1e300):
        return 0.0, math.inf
    if min(p.data_norm_sq - t2, t2 - p.null_mass) < _FLAT_SLOPE * t2:
        return 0.0, math.inf
    lower, upper = target * (1.0 - kappa), target * (1.0 + kappa)
    ln_target = math.log(target)
    points = []  # (eps, h) of every evaluation
    x_lo, x_hi = _X_FLOOR, _X_CEIL
    x, eps, root = 0.0, 1.0, None
    for _ in range(_NEWTON_STEPS):
        phi, slope = _phi_and_slope(p, eps)
        h = math.sqrt(phi)
        points.append((eps, h))
        if h < target:
            x_lo = x
        else:
            x_hi = x
        s = 0.5 * slope / phi if phi > 0.0 else 0.0  # d ln h / d ln eps
        if s > 0.0:
            gap = ln_target - math.log(h)
            dx = gap / s
            # test for convergence before the safeguard: a converged step
            # lands on a bracket end, and bisecting it would never stop
            if abs(gap) <= kappa / 4.0:  # at the rounding level of h
                root = x
                break
            if abs(dx) <= _NEWTON_XTOL:
                root = x + dx
                break
            x += dx
        if not (s > 0.0 and x_lo < x < x_hi):
            x = 0.5 * (x_lo + x_hi)
        eps = math.exp(x)
    if root is not None:
        for side in (-1.0, 1.0):
            offset = 2.0 * kappa / s
            for _ in range(_PROBES):
                eps = math.exp(min(max(root + side * offset, _X_FLOOR), _X_CEIL))
                h = discrepancy_value(p, eps)
                points.append((eps, h))
                if (h <= lower) if side < 0.0 else (h >= upper):
                    break
                offset *= 2.0
    return (max((e for e, h in points if h <= lower), default=0.0),
            min((e for e, h in points if h >= upper), default=math.inf))


def _epsilon_root(p: DiscrepancyProfile, delta: float, C: float) -> tuple[float, float, int]:
    """Locate the eps with discrepancy_value(p, eps) = C * delta.

    Bisection on log(eps) from [_EPS_FLOOR, 1], the upper end growing by
    tenfold steps until it brackets the root; the bracket's upper end is
    returned so the achieved residual sits at or marginally above the
    target, which keeps the regularized solution's norm below the
    reference solution's.  ``iterations`` counts the bisection's steps
    (expansions plus halvings), not profile evaluations.  The bisection
    only evaluates the profile at midpoints between the margins
    certified by ``_certified_margins``; on either side of them the
    comparison's outcome is known, so the bracket is the same bit for bit.
    A residual more than _ROOT_RTOL ||f|| off the target at the returned
    end, as for a root below _EPS_FLOOR, raises ``NumericalError``.
    """
    if delta <= 0 or not math.isfinite(delta):
        raise PreconditionError(f"delta must be positive, got {delta}")
    if C < 1.0:
        raise PreconditionError(f"C must be at least 1, got {C}")
    target = C * delta
    mass = float(p.betas.sum())
    if mass <= 0.0:
        raise PreconditionError(
            "degenerate profile: data lies entirely in the null space of the adjoint")
    if target >= p.data_norm:
        raise PreconditionError(
            f"noise level exceeds data: C*delta = {target} must be below ||f_delta|| = {p.data_norm}")
    if target <= math.sqrt(p.null_mass):
        raise PreconditionError(
            "data has null-space component exceeding C*delta; project f_delta or increase C")

    a, b = _certified_margins(p, target, mass)
    iterations = 0
    lo, hi = _EPS_FLOOR, 1.0
    while hi <= a or (hi < b and discrepancy_value(p, hi) < target):
        lo = hi
        hi *= 10.0
        iterations += 1
        if hi > _EPS_CEIL:
            raise NumericalError("discrepancy bracket growth overflowed")
    while hi - lo > _BRACKET_RTOL * hi:
        prod = lo * hi  # not a normal number for roots below about 1e-150
        mid = math.sqrt(prod) if prod >= _NORMAL_MIN else math.sqrt(lo) * math.sqrt(hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= a or (mid < b and discrepancy_value(p, mid) < target):
            lo = mid
        else:
            hi = mid
        iterations += 1
    achieved = discrepancy_value(p, hi)
    if abs(achieved - target) > _ROOT_RTOL * p.data_norm:
        raise NumericalError(
            f"discrepancy root missed: residual {achieved} at eps = {hi}, target {target}",
            stage="discrepancy")
    return hi, achieved, iterations


def solve_for_epsilon(p: DiscrepancyProfile, delta: float, C: float = 1.0) -> float:
    """The unique eps at which the profile's residual equals C * delta.

    Requires C * delta < ||f_delta|| and C * delta > sqrt(null_mass);
    the root exists and is unique because the residual is continuous and
    strictly increasing in eps.
    """
    return _epsilon_root(p, delta, C)[0]


@dataclass(frozen=True)
class StoppingResult:
    """Root of the discrepancy equation mapped to a stopping time.

    ``iterations`` counts the steps of the log-bisection whose bracket
    end is ``epsilon_star`` (tenfold expansions plus halvings), not
    profile evaluations.
    """

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
