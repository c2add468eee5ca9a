"""Evolution of the regularized normal equation up to the stopping time.

The state obeys u' = -u + w(t) with w(t) = (A^T A + eps(t))^{-1} A^T f.
In the right-singular coordinates z = V_r^T u the evolution is diagonal,

    z_i' = -z_i + s_i g_i / (s_i^2 + eps(t)),    g = U_r^T f,

so both integrators evolve the r-vector z, reading s, g and the null mass
from the data's DiscrepancyProfile, and map back with u = V_r z only at
report times; the part of the start state outside span(V_r) decays as
e^{-t}.  Two independent integrators act as mutual oracles: an exponential
integrator that evaluates the variation-of-constants form

    z(b) = e^{-(b-a)} z(a) + integral_0^{b-a} e^{-tau} w(b - tau) dtau

gap by gap with adaptive Gauss-Legendre panels, and an embedded
Dormand-Prince 5(4) pair with step-size control, the cross-check oracle.
The exponential route works in shifted exponents per gap, so stopping
times far beyond the underflow horizon of e^{-t} are handled exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import (DiscrepancyProfile, StoppingResult, build_profile,
                          stop_from_profile)
from .errors import (ConfigError, DimensionMismatchError, IllposedError,
                     NumericalError, PreconditionError)
from .operators import (SpectralDecomposition, _frozen, as_vector,
                        project_range_closure)
from .schedule import Schedule

INTEGRATORS = ("exponential_quadrature", "adaptive_runge_kutta")

# Weight e^{-tau} below e^{-60} ~ 9e-27 is droppable at double precision.
_WINDOW = 60.0
_MAX_PANEL_WIDTH = 2.0
_MAX_PANEL_DEPTH = 30
_RK_MAX_STEP = 3.0

_GL_X, _GL_W = np.polynomial.legendre.leggauss(7)
_GL_NODES = (_GL_X + 1.0) / 2.0
_GL_WEIGHTS = _GL_W / 2.0

# Null-space data below this relative mass counts as numerical dust and is
# projected away on C = 1 runs; anything larger is a genuine violation of
# the orthogonality assumption and gets rejected.
_NULL_DUST_REL = 1e-14


@dataclass(frozen=True)
class DSMConfig:
    """Integrator selection, tolerances, start state, and step budget."""

    integrator: str = "exponential_quadrature"
    relative_tolerance: float = 1e-8
    absolute_tolerance: float = 1e-12
    initial_state: np.ndarray | None = None
    max_steps: int = 10 ** 6
    trajectory_points: int = 512

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ConfigError(
                f"unknown integrator {self.integrator!r}; choose one of {INTEGRATORS}")
        if self.relative_tolerance <= 0 or self.absolute_tolerance <= 0:
            raise ConfigError("tolerances must be positive")
        if self.max_steps <= 0:
            raise ConfigError("max_steps must be positive")
        if self.trajectory_points < 2:
            raise ConfigError("trajectory_points must be at least 2")
        if self.initial_state is not None:
            object.__setattr__(self, "initial_state",
                               _frozen(as_vector(self.initial_state, "initial_state")))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded along the evolution, with their data residuals."""

    times: np.ndarray
    states: np.ndarray
    residual_norms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen(self.times))
        object.__setattr__(self, "states", _frozen(self.states))
        object.__setattr__(self, "residual_norms", _frozen(self.residual_norms))

    def __len__(self) -> int:
        return self.times.shape[0]

    def to_csv_rows(self, y_reference=None, include_state: bool = False):
        """Header and rows for CSV export: t, residual_norm, then the
        reference error when a reference is supplied, then optionally the
        full state.  Floats are rendered at full round-trip precision."""
        header = ["t", "residual_norm"]
        y = None
        if y_reference is not None:
            y = as_vector(y_reference, "reference solution")
            header.append("error_vs_reference")
        if include_state:
            header.extend(f"state_{i}" for i in range(self.states.shape[1]))
        rows = []
        for i, t in enumerate(self.times):
            row = [repr(float(t)), repr(float(self.residual_norms[i]))]
            if y is not None:
                row.append(repr(float(np.linalg.norm(self.states[i] - y))))
            if include_state:
                row.extend(repr(float(x)) for x in self.states[i])
            rows.append(row)
        return header, rows


@dataclass(frozen=True, eq=False)
class DSMResult:
    """Final state at the stopping time with diagnostics.

    ``w_final`` is the regularized normal-equation solution at the
    stopping regularization strength (the equilibrium the evolution
    tracks); the reference-error fields are filled when the true
    solution is known.
    """

    stopping: StoppingResult
    u_final: np.ndarray
    residual: float
    w_final: np.ndarray
    error_vs_reference: float | None = None
    tikhonov_error_vs_reference: float | None = None
    projected_null_mass: float = 0.0
    trajectory: Trajectory | None = None

    def __post_init__(self):
        object.__setattr__(self, "u_final", _frozen(self.u_final))
        object.__setattr__(self, "w_final", _frozen(self.w_final))

    def to_json_dict(self, include_solution: bool = True) -> dict:
        out = {
            "epsilon_star": self.stopping.epsilon_star,
            "t_delta": self.stopping.t_delta,
            "achieved_discrepancy": self.stopping.achieved_discrepancy,
            "iterations": self.stopping.iterations,
            "residual": self.residual,
            "projected_null_mass": self.projected_null_mass,
            "error_vs_reference": self.error_vs_reference,
            "tikhonov_error_vs_reference": self.tikhonov_error_vs_reference,
        }
        if include_solution:
            out["u_final"] = [float(x) for x in self.u_final]
        return out


def evolve(dec: SpectralDecomposition, schedule: Schedule, f_delta,
           t_end: float, cfg: DSMConfig | None = None) -> Trajectory:
    """Integrate the evolution from 0 to ``t_end`` and record the path.

    ``f_delta`` is the data vector, or its profile from ``build_profile``
    under ``dec``.  A failure raises ``NumericalError`` tagged with stage
    ``integration`` and carrying the trajectory up to the failure.
    """
    cfg = cfg or DSMConfig()
    profile = (f_delta if isinstance(f_delta, DiscrepancyProfile)
               else build_profile(dec, f_delta))
    if profile.coefficients.shape[0] != dec.numerical_rank:
        raise DimensionMismatchError(
            f"profile has {profile.coefficients.shape[0]} coefficients, "
            f"operator has numerical rank {dec.numerical_rank}")
    if not (t_end > 0 and math.isfinite(t_end)):
        raise PreconditionError(f"t_end must be positive and finite, got {t_end}")
    u0 = _initial_state(dec, cfg)
    r = dec.numerical_rank
    sg = dec.singular_values[:r] * profile.coefficients
    times = _report_grid(t_end, cfg.trajectory_points)
    zs = [dec.right_vectors[:, :r].T @ u0]
    integrate = (_evolve_exponential if cfg.integrator == "exponential_quadrature"
                 else _evolve_rk)
    try:
        integrate(schedule, sg, profile.lambdas, times, cfg, zs)
    except NumericalError as exc:
        exc.stage = "integration"
        exc.trajectory = _record(dec, profile, u0, times[:len(zs)], zs)
        raise
    return _record(dec, profile, u0, times, zs)


def _initial_state(dec: SpectralDecomposition, cfg: DSMConfig) -> np.ndarray:
    if cfg.initial_state is None:
        return np.zeros(dec.cols)
    u0 = np.asarray(cfg.initial_state)
    if u0.shape[0] != dec.cols:
        raise DimensionMismatchError(
            f"initial state has length {u0.shape[0]}, operator has {dec.cols} columns")
    return u0


def _report_grid(t_end: float, points: int) -> np.ndarray:
    if t_end <= 2.0 or points < 4:
        return np.linspace(0.0, t_end, max(2, min(points, 65)))
    interior = np.geomspace(1.0, t_end, points - 1)
    interior[-1] = t_end
    return np.unique(np.concatenate([[0.0], interior]))


class _StepBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise _BudgetExceeded()


class _BudgetExceeded(Exception):
    pass


def _record(dec: SpectralDecomposition, p: DiscrepancyProfile, u0: np.ndarray,
            times, zs) -> Trajectory:
    """States u = V_r z + e^{-t} (u0 - V_r V_r^T u0) at ``times``, with the
    spectral residuals sqrt(sum_i (s_i z_i - g_i)^2 + null_mass)."""
    r = dec.numerical_rank
    V = dec.right_vectors[:, :r]
    ts = np.asarray(times, dtype=float)
    z = np.asarray(zs, dtype=float)
    states = z @ V.T + np.exp(-ts)[:, None] * (u0 - V @ (V.T @ u0))
    states[0] = u0  # exactly, not its two parts summed with rounding
    misfit = z * dec.singular_values[:r] - p.coefficients
    residuals = np.sqrt(np.sum(misfit * misfit, axis=1) + p.null_mass)
    return Trajectory(times=ts, states=states, residual_norms=residuals)


def _evolve_exponential(schedule, sg, lam, times, cfg, zs) -> None:
    """Append z at each report time after the first to ``zs``."""
    sg_col, lam_col = sg[:, None], lam[:, None]

    def w(eps: np.ndarray) -> np.ndarray:
        # equilibria in z-coordinates as columns, one per eps
        return sg_col / (lam_col + eps[None, :])

    budget = _StepBudget(cfg.max_steps)
    z = zs[0]
    try:
        for a, b in zip(times[:-1], times[1:]):
            gap = b - a
            window = min(gap, _WINDOW)
            scale = float(np.linalg.norm(sg / (lam + schedule.eval(b))))
            tol = max(cfg.absolute_tolerance, cfg.relative_tolerance * scale)
            z = math.exp(-gap) * z + _gap_integral(w, schedule, b, window, tol, budget)
            if not np.all(np.isfinite(z)):
                raise NumericalError("integration diverged")
            zs.append(z)
    except _BudgetExceeded:
        raise NumericalError(
            f"max_steps = {cfg.max_steps} exceeded at t = {times[len(zs) - 1]}") from None


def _gap_integral(w, schedule, t_right: float, window: float, tol: float,
                  budget: _StepBudget) -> np.ndarray:
    """integral_0^window e^{-tau} w(t_right - tau) dtau, adaptively."""
    n_panels = max(1, int(math.ceil(window / _MAX_PANEL_WIDTH)))
    edges = np.linspace(0.0, window, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        coarse = _gl_panel(w, schedule, t_right, lo, hi, budget)
        total = total + _refine_panel(w, schedule, t_right, lo, hi, coarse,
                                      tol * (hi - lo) / window, 0, budget)
    return total


def _refine_panel(w, schedule, t_right, lo, hi, coarse, tol, depth, budget):
    mid = 0.5 * (lo + hi)
    left = _gl_panel(w, schedule, t_right, lo, mid, budget)
    right = _gl_panel(w, schedule, t_right, mid, hi, budget)
    fine = left + right
    err = float(np.linalg.norm(fine - coarse))
    if err <= tol:
        return fine
    if depth >= _MAX_PANEL_DEPTH:
        raise NumericalError(
            f"quadrature panel [{t_right - hi}, {t_right - lo}] not converged after "
            f"{_MAX_PANEL_DEPTH} bisections: error {err:.3e} > tolerance {tol:.3e}")
    return (_refine_panel(w, schedule, t_right, lo, mid, left, tol / 2, depth + 1, budget)
            + _refine_panel(w, schedule, t_right, mid, hi, right, tol / 2, depth + 1, budget))


def _gl_panel(w, schedule, t_right, lo, hi, budget) -> np.ndarray:
    budget.charge()
    width = hi - lo
    tau = lo + width * _GL_NODES
    s = np.maximum(t_right - tau, 0.0)
    eps = np.asarray(schedule.eval(s), dtype=float)
    weights = _GL_WEIGHTS * width * np.exp(-tau)
    return w(eps) @ weights


# Dormand-Prince 5(4) tableau; the 5th-order solution propagates and the
# first stage is the last stage of the previous step (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4


def _evolve_rk(schedule, sg, lam, times, cfg, zs) -> None:
    """Append z at each report time after the first to ``zs``; steps are
    clipped so that they land on the report times."""
    t_end = float(times[-1])
    min_steps = math.ceil(t_end / _RK_MAX_STEP)
    if min_steps > cfg.max_steps:
        raise NumericalError(
            f"adaptive_runge_kutta needs at least {min_steps} steps of at most "
            f"{_RK_MAX_STEP} to reach t = {t_end}; max_steps = {cfg.max_steps}")

    def deriv(t: float, z: np.ndarray) -> np.ndarray:
        return sg / (lam + float(schedule.eval(t))) - z

    t, z = 0.0, zs[0]
    h = min(0.01, t_end)
    k = [None] * 7
    k[0] = deriv(t, z)
    steps = 0
    for t_next in times[1:]:
        while t < t_next:
            steps += 1
            if steps > cfg.max_steps:
                raise NumericalError(f"max_steps = {cfg.max_steps} exceeded at t = {t}")
            clipped = h >= t_next - t
            step = t_next - t if clipped else h
            for i in range(1, 7):
                incr = sum(aij * k[j] for j, aij in enumerate(_DP_A[i]))
                k[i] = deriv(t + _DP_C[i] * step, z + step * incr)
            z_new = z + step * sum(b * k[j] for j, b in enumerate(_DP_B5) if b != 0.0)
            err_vec = step * sum(e * k[j] for j, e in enumerate(_DP_ERR) if e != 0.0)
            scale = cfg.absolute_tolerance + cfg.relative_tolerance * max(
                float(np.linalg.norm(z)), float(np.linalg.norm(z_new)))
            err = float(np.linalg.norm(err_vec)) / scale
            if not math.isfinite(err):
                raise NumericalError("integration diverged")
            if err <= 1.0:
                t = t_next if clipped else t + step
                z = z_new
                k[0] = k[6]
                if not clipped:
                    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                    h = min(h * factor, _RK_MAX_STEP)
            else:
                # rejected: t, z unchanged, so the FSAL stage k[0] stays valid
                h = step * max(0.2, 0.9 * err ** -0.2)
                if h < 1e-14 * max(t, 1.0):
                    raise NumericalError("step size underflow")
        zs.append(z)


def run_dsm(dec: SpectralDecomposition, schedule: Schedule, f_delta,
            delta: float, C: float = 1.0, cfg: DSMConfig | None = None,
            y_reference=None, store_trajectory: bool = True) -> DSMResult:
    """Full pipeline: profile, discrepancy root, stopping time, evolution.

    On C = 1 runs against a rank-deficient operator the data must be
    orthogonal to the adjoint's null space; numerically tiny residue is
    projected away and reported in ``projected_null_mass``, anything
    larger is rejected (use C > 1 for data with genuine null-space
    content).
    """
    cfg = cfg or DSMConfig()
    f = as_vector(f_delta, "data vector")

    with _stage("projection"):
        f_used, projected_null = f, 0.0
        if C == 1.0 and dec.numerical_rank < dec.rows:
            f_used, projected_null = project_range_closure(dec, f)
            if projected_null > _NULL_DUST_REL * float(f @ f):
                raise PreconditionError(
                    "data has null-space component; project f_delta or increase C")
        profile = build_profile(dec, f_used)

    with _stage("discrepancy"):
        stopping = stop_from_profile(profile, schedule, delta, C)

    with _stage("integration"):
        if stopping.t_delta == 0.0:
            u0 = _initial_state(dec, cfg)
            z0 = dec.right_vectors[:, :dec.numerical_rank].T @ u0
            trajectory = _record(dec, profile, u0, [0.0], [z0])
        else:
            trajectory = evolve(dec, schedule, profile, stopping.t_delta, cfg)

    u_final = trajectory.states[-1]
    residual = float(trajectory.residual_norms[-1])
    r = dec.numerical_rank
    w_final = dec.right_vectors[:, :r] @ (
        dec.singular_values[:r] * profile.coefficients
        / (profile.lambdas + stopping.epsilon_star))

    error = tikh_error = None
    if y_reference is not None:
        y = as_vector(y_reference, "reference solution")
        error = float(np.linalg.norm(u_final - y))
        tikh_error = float(np.linalg.norm(w_final - y))

    return DSMResult(stopping=stopping, u_final=u_final, residual=residual,
                     w_final=w_final, error_vs_reference=error,
                     tikhonov_error_vs_reference=tikh_error,
                     projected_null_mass=projected_null,
                     trajectory=trajectory if store_trajectory else None)


class _stage:
    """Tag escaping library errors with the pipeline stage that failed."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, IllposedError) and exc.stage is None:
            exc.stage = self.name
        return False
