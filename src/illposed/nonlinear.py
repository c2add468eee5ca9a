"""Discrepancy principle for monotone continuous operators.

For a monotone operator A the regularized functional
F(u) = ||A(u) - f_delta||^2 + eps ||u||^2 is near-minimized to within a
certified gap, and the regularization strength is chosen as the smallest
eps at which the near-minimizer's residual equals C * delta (C > 1).

Separable operators (coordinatewise strictly increasing scalar maps) get
a rigorous per-coordinate gap certificate from golden-section search;
general operators are handled best-effort by coordinate descent with an
explicitly uncertified gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalError, PreconditionError
from .operators import _frozen, as_vector

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCALAR_MAX_ITER = 600
_GOLDEN_ITERS = 120
_MAX_SWEEPS = 200
_SCAN_EPS_MIN = 1e-14
_SCAN_EPS_MAX = 1e12
_SCAN_RATIO = 2.0


class MonotoneOperator:
    """A monotone, continuous map defined on the whole space.

    ``evaluate`` must be a pure function of its input (same vector in,
    same vector out); monotonicity means (A(u) - A(v), u - v) >= 0 for
    all u, v, which :func:`check_monotonicity` spot-checks.
    """

    structure = "general"

    def __init__(self, dimension: int, evaluate):
        if dimension < 1:
            raise PreconditionError(f"dimension must be positive, got {dimension}")
        self.dimension = int(dimension)
        self._evaluate = evaluate

    def __call__(self, u) -> np.ndarray:
        v = as_vector(u, "operator argument")
        if v.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"operator argument has length {v.shape[0]}, expected {self.dimension}")
        out = np.asarray(self._evaluate(v), dtype=float)
        if out.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"operator returned shape {out.shape}, expected ({self.dimension},)")
        return out


class SeparableMonotoneOperator(MonotoneOperator):
    """Coordinatewise operator A(u)_i = phi_i(u_i) with each phi_i
    continuous and nondecreasing (strictly increasing in shipped
    instances), so the regularized functional splits per coordinate."""

    structure = "separable"

    def __init__(self, phis):
        self.phis = tuple(phis)
        if not self.phis:
            raise PreconditionError("separable operator needs at least one coordinate map")
        super().__init__(len(self.phis),
                         lambda u: np.array([phi(x) for phi, x in zip(self.phis, u)]))


@dataclass(frozen=True, eq=False)
class NearMinimizer:
    """A point whose functional value provably (or heuristically) sits
    within ``gap_certificate`` of the infimum at the given eps."""

    u: np.ndarray
    F_value: float
    gap_certificate: float
    epsilon: float
    certified: bool

    def __post_init__(self):
        object.__setattr__(self, "u", _frozen(self.u))


def functional_F(op: MonotoneOperator, f_delta, eps: float, u) -> float:
    """||A(u) - f_delta||^2 + eps ||u||^2."""
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    f = as_vector(f_delta, "data vector")
    v = as_vector(u, "argument")
    r = op(v) - f
    return float(r @ r + eps * (v @ v))


def _search_radius(f_norm_plus_a0: float, eps: float) -> float:
    # Any minimizer satisfies eps ||u||^2 <= ||A(0) - f||^2 <= (||f|| + ||A(0)||)^2,
    # so |u_i| <= S / sqrt(eps); the larger S / eps + 1 is kept for small eps.
    S = f_norm_plus_a0
    return max(S / eps + 1.0, S / math.sqrt(eps) + 1.0)


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


def near_minimize(op: MonotoneOperator, f_delta, eps: float,
                  gap_budget: float) -> NearMinimizer:
    """Minimize the regularized functional to within ``gap_budget``.

    Separable operators are minimized coordinate by coordinate with a
    summed certificate; general operators run derivative-free coordinate
    descent until a full sweep improves the functional by less than
    gap_budget / (10 * dimension), and the reported gap is heuristic
    (``certified`` False).
    """
    if gap_budget <= 0:
        raise PreconditionError(f"gap_budget must be positive, got {gap_budget}")
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    f = as_vector(f_delta, "data vector")
    if f.shape[0] != op.dimension:
        raise DimensionMismatchError(
            f"data vector has length {f.shape[0]}, operator expects {op.dimension}")
    a0 = op(np.zeros(op.dimension))
    radius = _search_radius(float(np.linalg.norm(f) + np.linalg.norm(a0)), eps)

    if op.structure == "separable":
        return _near_minimize_separable(op, f, eps, gap_budget, radius)
    return _near_minimize_general(op, f, eps, gap_budget, radius)


def _near_minimize_separable(op: SeparableMonotoneOperator, f: np.ndarray,
                             eps: float, gap_budget: float,
                             radius: float) -> NearMinimizer:
    n = op.dimension
    per_coord = gap_budget / n
    u = np.zeros(n)
    total_cert = 0.0
    for i, phi in enumerate(op.phis):
        u[i], cert = _certified_scalar_min(phi, f[i], eps, radius, per_coord)
        total_cert += cert
        if cert > per_coord:
            raise NumericalError(
                f"near-minimization budget unreachable at coordinate {i}",
                best=NearMinimizer(u=u, F_value=functional_F(op, f, eps, u),
                                   gap_certificate=total_cert, epsilon=eps,
                                   certified=False))
    return NearMinimizer(u=u, F_value=functional_F(op, f, eps, u),
                         gap_certificate=total_cert, epsilon=eps, certified=True)


def _near_minimize_general(op: MonotoneOperator, f: np.ndarray, eps: float,
                           gap_budget: float, radius: float) -> NearMinimizer:
    n = op.dimension
    u = np.zeros(n)
    value = functional_F(op, f, eps, u)
    stop_gain = gap_budget / (10.0 * n)
    last_gain = math.inf
    for _ in range(_MAX_SWEEPS):
        gain = 0.0
        for i in range(n):
            def slice_val(x: float, i=i) -> float:
                trial = u.copy()
                trial[i] = x
                return functional_F(op, f, eps, trial)

            xi = _golden_scalar(slice_val, u[i] - radius, u[i] + radius)
            candidate = slice_val(xi)
            if candidate < value:
                gain += value - candidate
                u[i] = xi
                value = candidate
        last_gain = gain
        if gain < stop_gain:
            return NearMinimizer(u=u, F_value=value, gap_certificate=gain * n,
                                 epsilon=eps, certified=False)
    raise NumericalError(
        "coordinate descent failed to meet the gap budget within the sweep cap",
        best=NearMinimizer(u=u, F_value=value, gap_certificate=last_gain * n,
                           epsilon=eps, certified=False))


def _golden_scalar(fun, a: float, b: float) -> float:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(_GOLDEN_ITERS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
        if b - a <= 1e-14 * (1.0 + abs(a) + abs(b)):
            break
    return c if fc <= fd else d


@dataclass(frozen=True, eq=False)
class NonlinearStopping:
    """Root of the nonlinear discrepancy equation with its near-minimizer."""

    epsilon_delta: float
    u_delta: np.ndarray
    residual: float
    gap_certificate: float
    certified: bool
    F_value: float
    trace: tuple

    def __post_init__(self):
        object.__setattr__(self, "u_delta", _frozen(self.u_delta))


def nonlinear_discrepancy_result(op: MonotoneOperator, f_delta, delta: float,
                                 C: float = 1.1) -> NonlinearStopping:
    """Locate the smallest eps with ||A(u_{delta,eps}) - f_delta|| = C * delta.

    An ascending geometric scan (ratio 2 from 1e-14) finds the first
    bracket where the residual crosses the target; bisection on log(eps)
    refines it to 1e-10 relative width.  Near-minimizers are cached per
    eps, and the bracket's upper end is returned so the residual sits at
    or marginally above the target; a bracket that collapses more than
    1e-9 ||f_delta|| off target raises NumericalError.
    """
    if not C > 1.0:
        raise PreconditionError(f"C must exceed 1 for the nonlinear principle, got {C}")
    if delta <= 0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    f = as_vector(f_delta, "data vector")
    if f.shape[0] != op.dimension:
        raise DimensionMismatchError(
            f"data vector has length {f.shape[0]}, operator expects {op.dimension}")
    target = C * delta
    residual_zero = float(np.linalg.norm(op(np.zeros(op.dimension)) - f))
    if residual_zero <= target:
        raise PreconditionError(
            f"||A(0) - f_delta|| = {residual_zero} must exceed C*delta = {target}")

    budget = (C * C - 1.0) * delta * delta
    cache: dict[float, NearMinimizer] = {}
    trace: list[tuple[float, float, float, float]] = []

    def h(eps: float) -> float:
        nm = cache.get(eps)
        if nm is None:
            nm = near_minimize(op, f, eps, budget)
            cache[eps] = nm
            trace.append((eps, float(np.linalg.norm(op(nm.u) - f)),
                          nm.F_value, nm.gap_certificate))
            return trace[-1][1]
        return float(np.linalg.norm(op(nm.u) - f))

    lo = None
    eps = _SCAN_EPS_MIN
    prev = None
    while eps <= _SCAN_EPS_MAX:
        value = h(eps)
        if prev is not None and prev[1] <= target <= value:
            lo, hi = prev[0], eps
            break
        prev = (eps, value)
        eps *= _SCAN_RATIO
    else:
        raise NumericalError(
            "discrepancy equation has no root in scan range",
            trace=tuple(trace))

    resid_tol = 1e-9 * float(np.linalg.norm(f))
    for _ in range(250):
        width_ok = hi - lo <= 1e-10 * hi
        resid_ok = abs(h(hi) - target) <= resid_tol
        if width_ok and resid_ok:
            break
        mid = math.sqrt(lo * hi)
        if mid <= lo or mid >= hi:
            break
        if h(mid) < target:
            lo = mid
        else:
            hi = mid

    nm = cache[hi]
    residual = h(hi)
    if abs(residual - target) > resid_tol:
        raise NumericalError(
            f"bisection bracket collapsed at eps = {hi:.6e} with the residual "
            f"{abs(residual - target):.3e} off C*delta", trace=tuple(trace), best=nm)
    return NonlinearStopping(epsilon_delta=hi, u_delta=nm.u, residual=residual,
                             gap_certificate=nm.gap_certificate,
                             certified=nm.certified, F_value=nm.F_value,
                             trace=tuple(trace))


def check_monotonicity(op: MonotoneOperator, pairs: int = 1000, seed: int = 0,
                       scale: float = 1.0) -> float:
    """Smallest inner product (A(u)-A(v), u-v) over seeded random pairs.

    Monotone operators keep this nonnegative up to rounding; callers
    assert the returned minimum is above a small negative tolerance.
    """
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(pairs):
        u = scale * rng.standard_normal(op.dimension)
        v = scale * rng.standard_normal(op.dimension)
        ip = float((op(u) - op(v)) @ (u - v))
        worst = min(worst, ip)
    return worst
