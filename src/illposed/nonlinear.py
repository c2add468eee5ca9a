"""Discrepancy principle for monotone continuous operators.

For a monotone operator A the regularized functional
F(u) = ||A(u) - f_delta||^2 + eps ||u||^2 is near-minimized to within a
certified gap, and the regularization strength is chosen as the smallest
eps at which the near-minimizer's residual equals C * delta (C > 1); where
the residual jumps across that target between two adjacent near-minimizers,
a certified point on the segment between them meets it.

The one operator type is ``SeparableMonotoneOperator``, coordinatewise
strictly increasing scalar maps: golden-section search gives each
coordinate a rigorous gap certificate, and their sum certifies the point.
Any other operator is refused with PreconditionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, NumericalError, PreconditionError
from .operators import _frozen, _norm, _positive, _sized

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCALAR_MAX_ITER = 600
_SCAN_EPS_MIN = 1e-14
_SCAN_EPS_MAX = 1e12
_SCAN_RATIO = 2.0
# theta = k / 2^j stays a distinct float in [0, 1] for j <= 53
_THETA_HALVINGS = 53


class SeparableMonotoneOperator:
    """Coordinatewise operator A(u)_i = phi_i(u_i) with each phi_i
    continuous and nondecreasing (strictly increasing in shipped
    instances), so the regularized functional splits per coordinate.

    Each phi_i must be a pure scalar function of its scalar input (an empty
    tuple of maps, a wrong-length argument or an array-valued map raises);
    monotonicity, (A(u) - A(v), u - v) >= 0 for all u, v, is not checked.

    The gap certificates of :func:`near_minimize` and
    :func:`nonlinear_discrepancy_result` are rigorous only when each
    coordinate functional (phi_i(x) - g_i)^2 + eps x^2 is unimodal on its
    search bracket, as for the shipped cubic family.  Nothing checks this,
    and monotonicity alone does not give it: phi = x up to 1, slope 1e-3 up
    to 10 and slope 1 beyond has two basins at f = [1.5], where the true gap
    at eps = 5.8e-5 is 0.0223.  With delta = 0.1 and C = 1.5 that run is
    refused only because its continuation's lower bound on F lies above F.
    """

    def __init__(self, phis):
        self.phis = tuple(phis)
        if not self.phis:
            raise PreconditionError("separable operator needs at least one coordinate map")
        self.dimension = len(self.phis)

    def __call__(self, u) -> np.ndarray:
        v = _sized(u, self.dimension, "operator argument")
        out = np.array([phi(x) for phi, x in zip(self.phis, v)], dtype=float)
        if out.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"operator returned shape {out.shape}, expected ({self.dimension},)")
        return out


def _require_separable(op) -> None:
    if not isinstance(op, SeparableMonotoneOperator):
        raise PreconditionError(
            f"near-minimization needs a SeparableMonotoneOperator, got {type(op).__name__}")


@dataclass(frozen=True, eq=False)
class NearMinimizer:
    """A point whose functional value provably sits within
    ``gap_certificate`` of the infimum at the given eps; ``residual`` is
    ||A(u) - f_delta||, from the same operator application as ``F_value``."""

    u: np.ndarray
    F_value: float
    gap_certificate: float
    epsilon: float
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "u", _frozen(self.u))


def _near_minimizer(op, f: np.ndarray, eps: float, u: np.ndarray,
                    gap_certificate: float) -> NearMinimizer:
    r = op(u) - f
    return NearMinimizer(u=u, F_value=float(r @ r + eps * (u @ u)),
                         gap_certificate=gap_certificate, epsilon=eps,
                         residual=_norm(r))


def _coordinate_lower_bound(xa: float, xb: float, phia: float, phib: float,
                            g: float, eps: float) -> float:
    # phi monotone: phi([xa, xb]) lies between phia and phib.
    ra, rb = phia - g, phib - g
    resid_lb = 0.0 if ra * rb <= 0.0 else min(ra * ra, rb * rb)
    sq_lb = 0.0 if xa <= 0.0 <= xb else min(xa * xa, xb * xb)
    return resid_lb + eps * sq_lb


def _certified_scalar_min(phi, g: float, eps: float, radius: float,
                          budget: float) -> tuple[float, float]:
    """Golden-section minimization of (phi(x) - g)^2 + eps x^2 on [-radius, radius].

    Returns (x_best, certificate), once the certificate meets ``budget`` or
    after _SCALAR_MAX_ITER steps, whichever comes first; the caller checks
    it.  The certificate bounds the gap to the minimum over the bracket via
    the monotonicity of phi; it is a rigorous global bound when the
    coordinate functional is unimodal on the bracket, which holds for the
    shipped operator families.
    """

    def point(x: float) -> tuple[float, float, float]:
        pv = phi(x)
        d = pv - g
        return x, pv, d * d + eps * x * x

    a = point(-radius)
    b = point(radius)
    c = point(b[0] - _GOLDEN * (b[0] - a[0]))
    d = point(a[0] + _GOLDEN * (b[0] - a[0]))
    best = min((a, b, c, d), key=lambda p: p[2])

    for _ in range(_SCALAR_MAX_ITER):
        if best[2] - _coordinate_lower_bound(a[0], b[0], a[1], b[1], g, eps) <= budget:
            break
        if c[2] <= d[2]:
            b, d = d, c
            c = point(b[0] - _GOLDEN * (b[0] - a[0]))
        else:
            a, c = c, d
            d = point(a[0] + _GOLDEN * (b[0] - a[0]))
        cand = c if c[2] <= d[2] else d
        if cand[2] < best[2]:
            best = cand
    cert = best[2] - _coordinate_lower_bound(a[0], b[0], a[1], b[1], g, eps)
    return best[0], max(cert, 0.0)


def near_minimize(op: SeparableMonotoneOperator, f_delta, eps: float,
                  gap_budget: float) -> NearMinimizer:
    """Minimize the regularized functional to within ``gap_budget``.

    The operator must be separable: each coordinate is minimized by
    golden-section search to a certified share gap_budget / dimension, and
    the shares' sum is the point's certificate.  Any other operator raises
    PreconditionError.  A coordinate whose share is out of reach raises
    NumericalError carrying the point so far, whose certificate exceeds
    the budget; one whose map or search radius overflows raises
    NumericalError naming eps (and the coordinate).
    """
    _require_separable(op)
    _positive(gap_budget, "gap_budget")
    _positive(eps, "eps")
    f = _sized(f_delta, op.dimension)
    a0 = op(np.zeros(op.dimension))
    # Any minimizer satisfies eps ||u||^2 <= ||A(0) - f||^2 <= (||f|| + ||A(0)||)^2,
    # so |u_i| <= S / sqrt(eps); the larger S / eps + 1 is kept for small eps.
    S = _norm(f) + _norm(a0)
    radius = max(S / eps + 1.0, S / math.sqrt(eps) + 1.0)
    if not radius < math.inf:
        raise NumericalError(f"search radius overflows at eps = {eps}")
    per_coord = gap_budget / op.dimension
    u = np.zeros(op.dimension)
    total_cert = 0.0
    for i, phi in enumerate(op.phis):
        try:
            u[i], cert = _certified_scalar_min(phi, f[i], eps, radius, per_coord)
        except OverflowError as exc:  # a Python-float power at the bracket end
            raise NumericalError(f"coordinate {i} overflows on its search bracket "
                                 f"[-{radius}, {radius}] at eps = {eps}") from exc
        total_cert += cert
        if cert > per_coord:
            raise NumericalError(
                f"near-minimization budget unreachable at coordinate {i}",
                best=_near_minimizer(op, f, eps, u, total_cert))
    return _near_minimizer(op, f, eps, u, total_cert)


@dataclass(frozen=True, eq=False)
class NonlinearStopping:
    """Root of the nonlinear discrepancy equation with its near-minimizer.

    ``theta`` is None unless the run was continued across its final
    bracket, and then u_delta = (1 - theta) u_lo + theta u_hi."""

    epsilon_delta: float
    u_delta: np.ndarray
    residual: float
    gap_certificate: float
    F_value: float
    trace: tuple
    theta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "u_delta", _frozen(self.u_delta))


def nonlinear_discrepancy_result(op: SeparableMonotoneOperator, f_delta, delta: float,
                                 C: float = 1.1) -> NonlinearStopping:
    """Locate the smallest eps with ||A(u_{delta,eps}) - f_delta|| = C * delta.

    An ascending geometric scan (ratio 2 from 1e-14) stops at the first eps
    whose residual reaches the target; if that is the first eps, or none
    does up to 1e12, it raises NumericalError.  Bisection on log(eps) then
    halves the bracket until its width is at most 1e-10 of its upper end.
    Each eps's near-minimizer is computed once and cached, and the cache's
    insertion order is the trace.  The bracket's upper end is returned so
    the residual sits at or marginally above the target.

    Where the residual jumps across the target inside the final bracket,
    so that the upper end's residual is more than 1e-9 ||f_delta|| off, the
    run is continued along the segment between the bracket's two cached
    near-minimizers (see :func:`_continue_across`) and ``theta`` records
    the point's position on it; NumericalError naming the bracket is
    raised only if that point's residual misses its bound or its certificate
    lies outside [0, budget].
    The operator must be separable (see :func:`near_minimize`).
    """
    _require_separable(op)
    if not 1.0 < C < math.inf:
        raise PreconditionError(f"the nonlinear principle needs 1 < C < inf, got {C}")
    _positive(delta, "delta")
    f = _sized(f_delta, op.dimension)
    target = C * delta
    residual_zero = _norm(op(np.zeros(op.dimension)) - f)
    if residual_zero <= target:
        raise PreconditionError(
            f"||A(0) - f_delta|| = {residual_zero} must exceed C*delta = {target}")

    budget = (C * C - 1.0) * delta * delta
    cache: dict[float, NearMinimizer] = {}

    def at(eps: float) -> NearMinimizer:
        if eps not in cache:
            cache[eps] = near_minimize(op, f, eps, budget)
        return cache[eps]

    def trace() -> tuple:
        return tuple((eps, nm.residual, nm.F_value, nm.gap_certificate)
                     for eps, nm in cache.items())

    lo, hi = None, _SCAN_EPS_MIN
    while hi <= _SCAN_EPS_MAX and at(hi).residual < target:
        lo, hi = hi, hi * _SCAN_RATIO
    if lo is None or hi > _SCAN_EPS_MAX:
        raise NumericalError(
            "discrepancy equation has no root in scan range", trace=trace())

    while hi - lo > 1e-10 * hi:
        mid = math.sqrt(lo * hi)
        if at(mid).residual < target:
            lo = mid
        else:
            hi = mid

    nm, theta = cache[hi], None
    tolerance = 1e-9 * _norm(f)
    if abs(nm.residual - target) > tolerance:
        nm, theta = _continue_across(op, f, cache[lo], nm, target, tolerance)
        if abs(nm.residual - target) > tolerance or not 0.0 <= nm.gap_certificate <= budget:
            raise NumericalError(
                f"continuation across the bracket [{lo:.12e}, {hi:.12e}] ends "
                f"{abs(nm.residual - target):.3e} off C*delta with the certificate "
                f"{nm.gap_certificate:.3e} against the budget {budget:.3e}",
                trace=trace(), best=nm)
    return NonlinearStopping(epsilon_delta=hi, u_delta=nm.u, residual=nm.residual,
                             gap_certificate=nm.gap_certificate, F_value=nm.F_value,
                             trace=trace(), theta=theta)


def _continue_across(op, f: np.ndarray, below: NearMinimizer, above: NearMinimizer,
                     target: float, tolerance: float) -> tuple[NearMinimizer, float]:
    """Bisect theta in [0, 1] on the residual of (1 - theta) u_lo + theta u_hi,
    which runs continuously from below the target to above it, and certify
    the point at eps_hi.  The infimum of F grows with eps, so both cached
    near-minimizers give a lower bound on the infimum at eps_hi; a negative
    certificate means that bound lies above F, disproving a cached one."""
    eps = above.epsilon
    floor = max(above.F_value - above.gap_certificate, below.F_value - below.gap_certificate)
    t_lo, t_hi = 0.0, 1.0
    for _ in range(_THETA_HALVINGS):
        theta = 0.5 * (t_lo + t_hi)
        nm = _near_minimizer(op, f, eps, (1.0 - theta) * below.u + theta * above.u, 0.0)
        if abs(nm.residual - target) <= tolerance:
            break
        if nm.residual < target:
            t_lo = theta
        else:
            t_hi = theta
    return replace(nm, gap_certificate=nm.F_value - floor), theta

