"""The spectral discrepancy function, its root in eps, and the stopping time.

The residual norm of the regularized normal-equation solution,
``||A (A^T A + eps)^{-1} A^T f - f||``, is evaluated through the spectral
weights of the data; setting it equal to C * delta and solving for eps
yields the regularization strength at which integration should stop.
The root is located by Newton's method, started at a bound on the root
that needs no evaluation, and returned as the end of the log-bisection
bracket, bit for bit, with the profile evaluated only where Newton's
certified margins leave the bisection's comparison open.
The same profile is the spectral record the evolution in ``dsm`` reads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NumericalError, PreconditionError
from .operators import SpectralDecomposition, _frozen, _positive, _sized
from .schedule import Schedule

_BRACKET_RTOL = 1e-13
_EPS_FLOOR = 1e-300
_EPS_CEIL = 1e308
_NORMAL_MIN = sys.float_info.min
_X_FLOOR, _X_CEIL = math.log(_EPS_FLOOR), math.log(_EPS_CEIL)
_NEWTON_XTOL = 1e-7  # a Newton step this short (in ln eps) is taken unevaluated
_NEWTON_STEPS = 50
# Widening, in ln eps, of the root's a priori bracket, so that rounding in
# its ends cannot exclude the root.
_BRACKET_SLACK = 1e-6
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
    ``null_mass``, ``data_norm_sq`` and sum(betas) must be finite.
    ``lambda_min``, ``lambda_max`` and ``beta_sum`` are the extreme lambdas
    (0 for an empty profile) and sum(betas), reduced once here for every
    root the profile is solved for.
    """

    lambdas: np.ndarray
    coefficients: np.ndarray
    null_mass: float
    data_norm_sq: float
    betas: np.ndarray = field(init=False)
    lambda_min: float = field(init=False)
    lambda_max: float = field(init=False)
    beta_sum: float = field(init=False)

    def __post_init__(self):
        lam = _frozen(self.lambdas)
        g = _frozen(self.coefficients)
        if lam.shape != g.shape or lam.ndim != 1:
            raise DimensionMismatchError(
                f"lambdas {lam.shape} and coefficients {g.shape} must be matching 1-D arrays")
        # argmin and argmax find the first NaN if there is one, as a ufunc
        # reduction would, in one C loop without the reduction's set-up
        lam_min, lam_max = ((float(lam[lam.argmin()]), float(lam[lam.argmax()]))
                            if lam.shape[0] else (0.0, 0.0))
        if not lam_min >= 0.0:
            raise PreconditionError("squared singular values must be nonnegative")
        # before g * g, which overflows only where data_norm_sq already has
        if not (0.0 <= self.null_mass < math.inf and 0.0 < self.data_norm_sq < math.inf):
            raise PreconditionError("null_mass must be >= 0 and data_norm_sq > 0, both finite")
        betas = g * g
        betas.setflags(write=False)
        beta_sum = float(np.add.reduce(betas))
        if not beta_sum < math.inf:
            raise PreconditionError(f"squared coefficients must have a finite sum, got {beta_sum}")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "coefficients", g)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "lambda_min", lam_min)
        object.__setattr__(self, "lambda_max", lam_max)
        object.__setattr__(self, "beta_sum", beta_sum)

    @property
    def data_norm(self) -> float:
        return math.sqrt(self.data_norm_sq)


def build_profile(dec: SpectralDecomposition, f_delta) -> DiscrepancyProfile:
    """Assemble the discrepancy profile of ``f_delta`` under ``dec``.

    The null mass is the squared norm of the explicit remainder, not
    ||f||^2 - sum(betas): that difference is cancellation noise of about
    1e-14 ||f||^2, which biases the root once (C delta)^2 falls near it.
    ``np.vdot`` gives the squared norms the bits of ``ndarray.dot``, and an
    overflow as inf without a warning, which the profile refuses.
    """
    f = _sized(f_delta, dec.rows)
    U = dec.left_vectors
    g = U.T.dot(f)
    g.setflags(write=False)  # fresh, so the profile keeps it uncopied
    remainder = f - U.dot(g)
    return DiscrepancyProfile(lambdas=dec.lambdas, coefficients=g,
                              null_mass=float(np.vdot(remainder, remainder)),
                              data_norm_sq=float(np.vdot(f, f)))


def discrepancy_value(p: DiscrepancyProfile, eps: float) -> float:
    """Residual norm of the eps-regularized solution, from the profile.

    Equals sqrt(null_mass + sum_i eps^2 beta_i / (eps + lambda_i)^2);
    strictly increasing in eps, with limits sqrt(null_mass) at 0+ and
    the data norm at infinity.
    """
    _positive(eps, "eps")
    ratio = np.divide(eps, np.add(p.lambdas, eps))
    np.multiply(ratio, ratio, out=ratio)
    return math.sqrt(p.null_mass + float(p.betas.dot(ratio)))


def _phi_and_slope(p: DiscrepancyProfile, eps: float) -> tuple[float, float]:
    """phi = discrepancy_value(p, eps)**2 and its slope d phi / d ln eps.

    With q_i = eps / (eps + lambda_i), phi = null_mass + sum beta_i q_i^2
    and the slope is 2 sum beta_i q_i^2 (1 - q_i); 1 - q_i is formed as
    lambda_i / (eps + lambda_i), which does not cancel when eps >> lambda_i.
    """
    lam = p.lambdas
    d = np.add(lam, eps)
    q = np.divide(eps, d)
    bq = np.multiply(p.betas, q)
    np.divide(lam, d, out=d)
    np.multiply(d, q, out=d)
    return p.null_mass + float(bq.dot(q)), 2.0 * float(bq.dot(d))


def _root_bracket(p: DiscrepancyProfile, t2: float) -> tuple[float, float]:
    """Bounds x_lo <= ln eps <= x_hi on the root of discrepancy_value(p, eps)^2
    = t2, known before any evaluation; (_X_FLOOR, _X_CEIL) where none hold.

    A zero lambda has q_i = 1 at every eps, so its beta_i counts as null
    mass.  Over the other terms, whose betas sum to free, the betas' mean
    of q_i^2 at the root is rho^2 = (t2 - null) / free.  As each
    q_i = eps / (eps + lambda_i) is decreasing in lambda_i, the root has
    q(lambda_max) <= rho <= q(lambda_min), that is
    rho lambda_min / (1 - rho) <= eps <= rho lambda_max / (1 - rho).
    The ends are widened by _BRACKET_SLACK against rounding and clipped.
    """
    null, free = p.null_mass, p.beta_sum
    lam_min, lam_max = p.lambda_min, p.lambda_max
    if lam_min == 0.0 < lam_max:
        zero = p.lambdas == 0.0
        null += float(p.betas[zero].sum())
        free = float(p.betas[~zero].sum())
        lam_min = float(p.lambdas[~zero].min())
    rho2 = (t2 - null) / free if free > 0.0 else 1.0
    if not (lam_max > 0.0 and 0.0 < rho2 < 1.0):
        return _X_FLOOR, _X_CEIL
    rho = math.sqrt(rho2)
    shift = math.log(rho) - math.log1p(-rho)  # ln(rho / (1 - rho))
    x_lo = shift + math.log(lam_min) - _BRACKET_SLACK
    x_hi = shift + math.log(lam_max) + _BRACKET_SLACK
    return min(max(x_lo, _X_FLOOR), _X_CEIL), min(max(x_hi, _X_FLOOR), _X_CEIL)


def _certified_margins(p: DiscrepancyProfile, target: float) -> tuple[float, float]:
    """Points a < b such that discrepancy_value(p, eps) < target for every
    eps <= a and >= target for every eps >= b; (0, inf) if none are found.

    A safeguarded Newton iteration in x = ln eps on g(x) = ln h(e^x) =
    ln target locates the root, then one probe (or a few) either side of it
    is evaluated.  Newton starts at the upper end of the bracket from
    ``_root_bracket``, which needs no evaluation and holds the root because
    each q_i = eps / (eps + lambda_i) is monotone in lambda_i; the bracket
    is also Newton's safeguard.  The step dx = gap / s, with s = g'(x), is
    corrected for curvature once a Newton step (not a bisection of the
    bracket) led to x: the slopes at its two ends give
    g'' ~ (s - s_prev) / (x - x_prev), and dx is divided by
    1 + dx g'' / (2 s), which puts it at the root of g's quadratic model,
    while that factor lies in (0.5, 2).  The correction costs no array
    operation.  Newton only steers the search: a is the largest evaluated
    eps with h <= target (1 - kappa) and b the smallest with
    h >= target (1 + kappa), tracked as each evaluation lands.
    Newton's last step, below _NEWTON_XTOL, is not evaluated: its end only
    centres the probes, so an inexact end costs probes, never a wrong margin.
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
    t2, mass = target * target, p.beta_sum
    if not (t2 > 1e-290 * (mass + r) and mass + p.null_mass < 1e290 and p.lambda_max < 1e300):
        return 0.0, math.inf
    if min(p.data_norm_sq - t2, t2 - p.null_mass) < _FLAT_SLOPE * t2:
        return 0.0, math.inf
    lower, upper = target * (1.0 - kappa), target * (1.0 + kappa)
    a, b = 0.0, math.inf
    ln_target, converged = math.log(target), kappa / 4.0  # |gap| at the rounding level of h
    x_lo, x_hi = _root_bracket(p, t2)
    x, root = (x_hi if x_hi < _X_CEIL else 0.0), None
    eps = math.exp(x)
    x_prev = s_prev = None  # where the Newton step that led to x started, and s there
    for _ in range(_NEWTON_STEPS):
        phi, slope = _phi_and_slope(p, eps)
        h = math.sqrt(phi)
        if h < target:
            x_lo = x
            if h <= lower and eps > a:
                a = eps
        else:
            x_hi = x
            if h >= upper and eps < b:
                b = eps
        s = 0.5 * slope / phi if phi > 0.0 else 0.0  # d ln h / d ln eps
        if s > 0.0:
            gap = ln_target - math.log(h)
            # test for convergence before the safeguard: a converged step
            # lands on a bracket end, and bisecting it would never stop
            if abs(gap) <= converged:
                root = x
                break
            dx = gap / s
            if x_prev is not None and (den := 2.0 * s * (x - x_prev)) != 0.0:
                factor = 1.0 + dx * (s - s_prev) / den
                if 0.5 < factor < 2.0:
                    dx /= factor
            if abs(dx) <= _NEWTON_XTOL:
                root = x + dx
                break
            x_prev, s_prev = x, s
            x += dx
        if not (s > 0.0 and x_lo < x < x_hi):
            x, x_prev = 0.5 * (x_lo + x_hi), None
        eps = math.exp(x)
    if root is not None:
        for side in (-1.0, 1.0):
            offset = 2.0 * kappa / s
            for _ in range(_PROBES):
                eps = math.exp(min(max(root + side * offset, _X_FLOOR), _X_CEIL))
                h = discrepancy_value(p, eps)
                if h <= lower:
                    a = max(a, eps)
                    if side < 0.0:
                        break
                elif h >= upper:
                    b = min(b, eps)
                    if side > 0.0:
                        break
                offset *= 2.0
    return a, b


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
    When the returned end is a midpoint the bisection evaluated, that
    evaluation is the achieved residual; otherwise it is evaluated there.
    A residual more than _ROOT_RTOL ||f|| off the target at the returned
    end, as for a root below _EPS_FLOOR, raises ``NumericalError``.  With
    no data mass or every lambda 0 (underflowed), no eps is a root.
    """
    _positive(delta, "delta")
    if not 1.0 <= C < math.inf:
        raise PreconditionError(f"C must be at least 1 and finite, got {C}")
    target = C * delta
    if p.beta_sum <= 0.0 or p.lambda_max == 0.0:
        raise PreconditionError(
            "degenerate profile: data lies entirely in the null space of the adjoint")
    if target >= p.data_norm:
        raise PreconditionError(
            f"noise level exceeds data: C*delta = {target} must be below ||f_delta|| = {p.data_norm}")
    if target <= math.sqrt(p.null_mass):
        raise PreconditionError(
            "data has null-space component exceeding C*delta; project f_delta or increase C")

    a, b = _certified_margins(p, target)
    iterations = 0
    lo, hi = _EPS_FLOOR, 1.0
    while hi <= a or (hi < b and discrepancy_value(p, hi) < target):
        lo = hi
        hi *= 10.0
        iterations += 1
        if hi > _EPS_CEIL:
            raise NumericalError("discrepancy bracket growth overflowed", stage="discrepancy")
    achieved = None  # discrepancy_value(p, hi), once the replay has evaluated it
    value, sqrt, rtol, tiny, inf = (discrepancy_value, math.sqrt, _BRACKET_RTOL,
                                    _NORMAL_MIN, math.inf)
    while hi - lo > rtol * hi:
        prod = lo * hi  # subnormal below about 1e-150, inf above about 1e154
        mid = sqrt(prod) if tiny <= prod < inf else sqrt(lo) * sqrt(hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi, achieved = mid, None
        elif (h := value(p, mid)) < target:
            lo = mid
        else:
            hi, achieved = mid, h
        iterations += 1
    if achieved is None:
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


def stop_from_profile(p: DiscrepancyProfile, schedule: Schedule,
                      delta: float, C: float = 1.0) -> StoppingResult:
    """Solve the discrepancy equation and map its root eps* to the schedule
    time at which eps(t) reaches it.  A root above eps(0), which no
    t >= 0 reaches, raises PreconditionError."""
    eps, achieved, iters = _epsilon_root(p, delta, C)
    if eps > schedule.eps0:
        raise PreconditionError(
            "stopping time negative; decrease c1 or start further back")
    return StoppingResult(epsilon_star=eps, t_delta=float(schedule.invert(eps)),
                          achieved_discrepancy=achieved, iterations=iters)
