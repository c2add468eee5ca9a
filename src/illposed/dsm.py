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

with Gauss-Legendre panels refined in array rounds, and scipy's RK45
Dormand-Prince 5(4) pair with step-size control, the cross-check oracle.
The gap integrals do not depend on z, so the exponential route integrates
consecutive gaps in groups, a few array rounds per group, and then chains
z across the group.  It works in shifted exponents per gap, so stopping
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
                        project_range_closure, regularized_normal_solve)
from .schedule import Schedule

INTEGRATORS = ("exponential_quadrature", "adaptive_runge_kutta")

# Weight e^{-tau} below e^{-60} ~ 9e-27 is droppable at double precision.
_WINDOW = 60.0
_MAX_PANEL_WIDTH = 2.0
_MAX_PANEL_DEPTH = 30
# Open panels refined per round.  Split halves are refined first, so the open
# list grows by at most this many a round, and a tolerance below rounding
# hits the depth cap in about _MAX_PANEL_DEPTH rounds.
_ROUND_PANELS = 256
_RK_MAX_STEP = 3.0
# scipy's RK45 raises a smaller relative tolerance to this with only a warning
_RK_MIN_RTOL = 100 * np.finfo(float).eps

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
        if self.integrator == "adaptive_runge_kutta" and self.relative_tolerance < _RK_MIN_RTOL:
            raise ConfigError(f"adaptive_runge_kutta needs relative_tolerance >= "
                              f"{_RK_MIN_RTOL:.3g}, got {self.relative_tolerance}")
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

    def to_csv_lines(self, y_reference=None, include_state: bool = False):
        """Header and CSV lines for export: t, residual_norm, then the
        reference error when a reference is supplied, then optionally the
        full state.  Every cell is a float at full round-trip precision, so
        none needs quoting and a line is the floats' reprs joined by commas."""
        header = ["t", "residual_norm"]
        y = None
        if y_reference is not None:
            y = as_vector(y_reference, "reference solution")
            header.append("error_vs_reference")
        if include_state:
            header.extend(f"state_{i}" for i in range(self.states.shape[1]))
        lines = []
        for i, (t, res) in enumerate(zip(self.times.tolist(), self.residual_norms.tolist())):
            row = [t, res]
            if y is not None:
                row.append(float(np.linalg.norm(self.states[i] - y)))
            if include_state:  # a row at a time: the whole matrix as floats is MBs
                row.extend(self.states[i].tolist())
            lines.append(repr(row)[1:-1].replace(", ", ","))
        return header, lines


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
        out = self.stopping.to_json_dict()
        out.update({
            "residual": self.residual,
            "projected_null_mass": self.projected_null_mass,
            "error_vs_reference": self.error_vs_reference,
            "tikhonov_error_vs_reference": self.tikhonov_error_vs_reference,
        })
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
    sg = dec.singular_values * profile.coefficients
    times = _report_grid(t_end, cfg.trajectory_points)
    zs = [dec.right_vectors.T @ u0]
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


def _record(dec: SpectralDecomposition, p: DiscrepancyProfile, u0: np.ndarray,
            times, zs) -> Trajectory:
    """States u = V_r z + e^{-t} (u0 - V_r V_r^T u0) at ``times``, with the
    spectral residuals sqrt(sum_i (s_i z_i - g_i)^2 + null_mass)."""
    V = dec.right_vectors
    ts = np.asarray(times, dtype=float)
    z = np.asarray(zs, dtype=float)
    states = z @ V.T + np.exp(-ts)[:, None] * (u0 - V @ (V.T @ u0))
    states[0] = u0  # exactly, not its two parts summed with rounding
    misfit = z * dec.singular_values - p.coefficients
    residuals = np.sqrt(np.sum(misfit * misfit, axis=1) + p.null_mass)
    return Trajectory(times=ts, states=states, residual_norms=residuals)


def _evolve_exponential(schedule, sg, lam, times, cfg, zs) -> None:
    """Append z at each report time after the first to ``zs``.

    A gap's integral does not depend on the state, so consecutive gaps are
    integrated together in groups, and z is then chained across the group.
    A group closes before its round 0 (three evaluations per top-level
    panel) would pass 2 * _ROUND_PANELS, the size of a later round.
    """
    a, b = times[:-1], times[1:]
    round0 = 3 * _top_panels(np.minimum(b - a, _WINDOW))
    budget = cfg.max_steps
    z = zs[0]
    start = 0
    while start < a.size:
        stop = start + max(1, int(np.searchsorted(
            np.cumsum(round0[start:]), 2 * _ROUND_PANELS, side="right")))
        integrals, panels, failure = _gap_integrals(
            schedule, sg, lam, a[start:stop], b[start:stop], cfg, budget)
        budget -= int(panels.sum())
        done = stop - start if failure is None else failure[0]
        for j in range(done):
            z = math.exp(-(b[start + j] - a[start + j])) * z + integrals[:, j]
            if not np.all(np.isfinite(z)):
                raise NumericalError("integration diverged")
            zs.append(z)
        if failure is not None:
            raise NumericalError(failure[1])
        start = stop


def _top_panels(window: np.ndarray) -> np.ndarray:
    return np.maximum(1, np.ceil(window / _MAX_PANEL_WIDTH)).astype(int)


def _gap_integrals(schedule, sg, lam, a: np.ndarray, b: np.ndarray, cfg: DSMConfig,
                   budget: int) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """integral_0^window e^{-tau} w(b - tau) dtau for each gap [a, b], with
    w = sg / (lam + eps) and window = min(b - a, _WINDOW), by 7-node
    Gauss-Legendre panels.

    Returns the integrals as the columns of an r x gaps array, the panel
    evaluations spent on each gap (at most ``budget`` in all), and ``None``
    or the failure: the index of the earliest gap that could not be
    integrated, and the message.  The gaps before it are complete.

    Round 0 evaluates every top-level panel and its two halves in one array
    call, each later round the halves of the first _ROUND_PANELS open
    panels.  A panel whose halves miss the whole by more than its share
    tol * width / window of its gap's tolerance is split, and its halves go
    to the front.
    """
    window = np.minimum(b - a, _WINDOW)
    scale = np.linalg.norm(sg[:, None] / (lam[:, None] + schedule.eval(b)), axis=0)
    tol = np.maximum(cfg.absolute_tolerance, cfg.relative_tolerance * scale)
    n_top = _top_panels(window)
    gap = np.repeat(np.arange(b.size), n_top)
    pos = np.arange(gap.size) - np.repeat(np.cumsum(n_top) - n_top, n_top)
    step = (window / n_top)[gap]  # the edges of np.linspace(0, window, n_top + 1)
    lo, hi = pos * step, np.where(pos + 1 == n_top[gap], window[gap], (pos + 1) * step)
    # open panels, columns of lo, hi, tolerance share, depth, gap
    open_ = np.array([lo, hi, tol[gap] * (hi - lo) / window[gap], np.zeros(gap.size), gap])
    coarse = None  # the open panels' values, r x panels
    total = np.zeros((sg.size, b.size))
    panels = np.zeros(b.size, dtype=int)
    failure = None
    while open_.shape[1]:
        k = open_.shape[1] if coarse is None else min(open_.shape[1], _ROUND_PANELS)
        lo, hi, tols, depth, g = open_[:, :k]
        g = g.astype(int)
        mid = 0.5 * (lo + hi)
        x0 = np.concatenate([lo, mid] + ([lo] if coarse is None else []))
        x1 = np.concatenate([mid, hi] + ([hi] if coarse is None else []))
        reps = x0.size // k  # 3 in round 0, then 2
        if panels.sum() + x0.size > budget:
            j = int(open_[4].min())
            return total, panels, (j, f"max_steps = {cfg.max_steps} exceeded at t = {a[j]}")
        panels += reps * np.bincount(g, minlength=b.size)
        width = (x1 - x0)[:, None]
        tau = x0[:, None] + width * _GL_NODES
        t_right = np.tile(b[g], reps)[:, None]
        eps = np.asarray(schedule.eval(np.maximum(t_right - tau, 0.0)), dtype=float)
        # r x panels: each panel's weighted sum of the z-equilibria at its nodes
        w = lam[:, None, None] + eps
        np.divide(sg[:, None, None], w, out=w)  # in place: w is the round's largest array
        values = np.einsum("ipk,pk->ip", w, _GL_WEIGHTS * width * np.exp(-tau))
        left, right, whole = np.split(values, [k, 2 * k], axis=1)
        coarse = whole if coarse is None else coarse
        fine = left + right
        err = np.linalg.norm(fine - coarse[:, :k], axis=0)
        split = err > tols
        _add_by_gap(total, fine, g, ~split)
        stuck = split & (depth == _MAX_PANEL_DEPTH)
        rest = np.arange(k, open_.shape[1])
        if stuck.any():
            i = int(np.argmax(stuck & (g == g[stuck].min())))
            failure = (int(g[i]), f"quadrature panel [{b[g[i]] - hi[i]}, {b[g[i]] - lo[i]}] not "
                       f"converged after {_MAX_PANEL_DEPTH} bisections: error {err[i]:.3e} "
                       f"> tolerance {tols[i]:.3e}")
            # give up this gap and the later ones; the earlier ones still
            # finish, so the failure returned is the earliest
            split &= g < g[i]
            rest = rest[open_[4, k:] < g[i]]
        halves = np.array([[lo, mid], [mid, hi], [tols / 2] * 2, [depth + 1] * 2, [g, g]])
        open_ = np.concatenate([halves[:, :, split].reshape(5, -1), open_[:, rest]], axis=1)
        coarse = np.concatenate([left[:, split], right[:, split], coarse[:, rest]], axis=1)
    return total, panels, failure


def _add_by_gap(total: np.ndarray, values: np.ndarray, gap: np.ndarray, mask) -> None:
    """total[:, j] += the sum of the masked columns of ``values`` in gap j,
    in column order and with the rounding of ``ndarray.sum`` over those
    columns alone, so a gap's result does not depend on its group."""
    cols = np.flatnonzero(mask)
    cols = cols[np.argsort(gap[cols], kind="stable")]
    counts = np.bincount(gap[cols], minlength=total.shape[1])
    starts = np.cumsum(counts) - counts
    for n in np.unique(counts[counts > 0]):
        gaps = np.flatnonzero(counts == n)
        total[:, gaps] += values[:, cols[starts[gaps, None] + np.arange(n)]].sum(axis=2)


def _evolve_rk(schedule, sg, lam, times, cfg, zs) -> None:
    """Append z at each report time after the first to ``zs``, by scipy's
    Dormand-Prince 5(4) pair, restarted at each report time so that states
    land on it; ``max_steps`` counts accepted steps."""
    # imported here: scipy.integrate pulls in scipy.special and more, which
    # would add memory and start-up time to every run of the other integrator
    from scipy.integrate import RK45

    t_end = float(times[-1])
    min_steps = math.ceil(t_end / _RK_MAX_STEP)
    if min_steps > cfg.max_steps:
        raise NumericalError(
            f"adaptive_runge_kutta needs at least {min_steps} steps of at most "
            f"{_RK_MAX_STEP} to reach t = {t_end}; max_steps = {cfg.max_steps}")

    def deriv(t: float, z: np.ndarray) -> np.ndarray:
        out = sg / (lam + float(schedule.eval(t))) - z
        # scipy would shrink its steps toward a non-finite point, not stop
        if not np.all(np.isfinite(out)):
            raise NumericalError("integration diverged")
        return out

    h, steps = None, 0
    for t, t_next in zip(times[:-1], times[1:]):
        solver = RK45(deriv, t, zs[-1], t_next, max_step=_RK_MAX_STEP,
                      rtol=cfg.relative_tolerance, atol=cfg.absolute_tolerance,
                      first_step=None if h is None else min(h, t_next - t))
        while solver.status == "running":
            if steps == cfg.max_steps:
                raise NumericalError(f"max_steps = {cfg.max_steps} exceeded at t = {solver.t}")
            message = solver.step()
            if solver.status == "failed":
                raise NumericalError(f"step size underflow: {message}")
            steps += 1
        h = solver.h_abs
        zs.append(solver.y)


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
            z0 = dec.right_vectors.T @ u0
            trajectory = _record(dec, profile, u0, [0.0], [z0])
        else:
            trajectory = evolve(dec, schedule, profile, stopping.t_delta, cfg)

    u_final = trajectory.states[-1]
    residual = float(trajectory.residual_norms[-1])
    w_final = regularized_normal_solve(dec, stopping.epsilon_star, f_used)

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
