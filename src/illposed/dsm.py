"""Evolution of the regularized normal equation up to the stopping time.

The state obeys u' = -u + w(t) with w(t) = (A^T A + eps(t))^{-1} A^T f.
In the right-singular coordinates z = V_r^T u the evolution is diagonal,

    z_i' = -z_i + s_i g_i / (s_i^2 + eps(t)),    g = U_r^T f,

so the integrator evolves the r-vector z from z(0) = 0, reading s, g and
the null mass from the data's DiscrepancyProfile, and maps back with
u = V_r z only at report times.  It is an exponential integrator built on
the variation-of-constants form

    z(b) = e^{-(b-a)} z(a) + integral_0^{b-a} e^{-tau} w(b - tau) dtau.

Once b is past the e^{-tau} window plus the largest Gauss-Laguerre node
(about 112), z(b) is the integral over [0, inf) to rounding: the tracking
of w(eps(t)).  The integrator takes it from a 16-node Gauss-Laguerre rule,
with no chaining, wherever the 8-node rule agrees within the gap tolerance.
Earlier times, and late times whose estimate misses, take the gap integral
from Gauss-Legendre panels refined in array rounds and chain z from the
previous time; the gap integrals do not depend on z, so consecutive gaps
are integrated in groups.  It works in shifted exponents per gap, so
stopping times far beyond the underflow horizon of e^{-t} are handled
exactly.  The tests check it against an independent Runge-Kutta oracle in
the original coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import (DiscrepancyProfile, StoppingResult, build_profile,
                          stop_from_profile)
from .errors import (ConfigError, DimensionMismatchError, NumericalError, PreconditionError,
                     _stage)
from .operators import SpectralDecomposition, _frozen, _positive, _sized, _spectral_solve
from .schedule import Schedule

# Weight e^{-tau} below e^{-60} ~ 9e-27 is droppable at double precision.
_WINDOW = 60.0
_MAX_PANEL_WIDTH = 2.0
_MAX_PANEL_DEPTH = 30
# Open panels refined per round.  Split halves are refined first, so the open
# list grows by at most this many a round, and a tolerance below rounding
# hits the depth cap in about _MAX_PANEL_DEPTH rounds.
_ROUND_PANELS = 256

_GL_X, _GL_W = np.polynomial.legendre.leggauss(7)
_GL_NODES = (_GL_X + 1.0) / 2.0
_GL_WEIGHTS = _GL_W / 2.0

# The 16- and 8-node Gauss-Laguerre rules, nodes side by side.  A report time
# is late once it is past the window plus the largest node, so no node reaches
# back into the first _WINDOW of the schedule, where eps may fall fast.
_LG16_X, _LG16_W = np.polynomial.laguerre.laggauss(16)
_LG8_X, _LG8_W = np.polynomial.laguerre.laggauss(8)
_LG_NODES = np.concatenate([_LG16_X, _LG8_X])
_LATE_TIME = _WINDOW + _LG16_X[-1]

_REPORT_POINTS = 512  # report times of ``evolve`` past t_end = 2, 0 included
_MAX_STEPS = 10 ** 6  # quadrature rows ``evolve`` may evaluate

# Null-space data below this relative mass counts as numerical dust and is
# projected away on C = 1 runs; anything larger is a genuine violation of
# the orthogonality assumption and gets rejected.
_NULL_DUST_REL = 1e-14


@dataclass(frozen=True)
class DSMConfig:
    """Tolerances of ``evolve``.

    Each report time b's quadrature tolerance is
    ``max(absolute_tolerance, relative_tolerance * ||w(b)||)``.  The report
    times, and so the rows of the CLI's ``trajectory.csv``, are 0 and then
    511 geometric points from 1 to ``t_end``, or 65 evenly spaced points
    from 0 to ``t_end`` when ``t_end <= 2``.
    """

    relative_tolerance: float = 1e-8
    absolute_tolerance: float = 1e-12

    def __post_init__(self):
        # a NaN or infinite tolerance would pass or fail every estimate silently
        _positive(self.relative_tolerance, "relative_tolerance", ConfigError)
        _positive(self.absolute_tolerance, "absolute_tolerance", ConfigError)


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


@dataclass(frozen=True, eq=False)
class DSMResult:
    """Final state at the stopping time with diagnostics.

    ``w_final`` is the regularized normal-equation solution at the
    stopping regularization strength (the equilibrium the evolution
    tracks); ``trajectory`` is the path from 0 to the stopping time
    (the zero start state alone when that time is 0), whose last row is
    ``u_final`` and ``residual``.
    """

    stopping: StoppingResult
    w_final: np.ndarray
    trajectory: Trajectory
    projected_null_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "w_final", _frozen(self.w_final))

    @property
    def u_final(self) -> np.ndarray:
        return self.trajectory.states[-1]

    @property
    def residual(self) -> float:
        return float(self.trajectory.residual_norms[-1])


def evolve(dec: SpectralDecomposition, schedule: Schedule, f_delta,
           t_end: float, cfg: DSMConfig | None = None) -> Trajectory:
    """Integrate the evolution from u(0) = 0 to ``t_end`` and record the path.

    ``f_delta`` is the data vector, or its profile from ``build_profile``
    under ``dec``.  A failure raises ``NumericalError`` tagged with stage
    ``integration`` and carrying the trajectory up to the failure; an error
    from the schedule's ``eval`` escapes as it is, with no trajectory.
    """
    cfg = cfg or DSMConfig()
    profile = (f_delta if isinstance(f_delta, DiscrepancyProfile)
               else build_profile(dec, f_delta))
    if profile.coefficients.shape[0] != dec.numerical_rank:
        raise DimensionMismatchError(
            f"profile has {profile.coefficients.shape[0]} coefficients, "
            f"operator has numerical rank {dec.numerical_rank}")
    _positive(t_end, "t_end")
    sg, lam = dec.singular_values * profile.coefficients, profile.lambdas
    times = _report_grid(t_end)
    # each report time's tolerance max(atol, rtol ||w(b)||)
    scale = np.linalg.norm(sg[:, None] / (lam[:, None] + schedule.eval(times[1:])), axis=0)
    tol = np.maximum(cfg.absolute_tolerance, cfg.relative_tolerance * scale)
    z = np.empty((times.size, sg.size))
    z[0] = 0.0
    rows, failure = _evolve_exponential(schedule, sg, lam, times, tol, z)
    trajectory = _record(dec, profile, times[:rows], z[:rows])
    if failure is not None:
        raise NumericalError(failure, stage="integration", trajectory=trajectory)
    return trajectory


def _report_grid(t_end: float) -> np.ndarray:
    if t_end <= 2.0:
        return np.linspace(0.0, t_end, min(_REPORT_POINTS, 65))
    interior = np.geomspace(1.0, t_end, _REPORT_POINTS - 1)
    interior[-1] = t_end
    return np.concatenate([[0.0], interior])  # sorted already: numpy 2.x's unique imports numpy.ma


def _record(dec: SpectralDecomposition, p: DiscrepancyProfile, times, zs) -> Trajectory:
    """States u = V_r z at ``times``, the start row exactly +0.0, with the
    spectral residuals sqrt(sum_i (s_i z_i - g_i)^2 + null_mass)."""
    ts = np.asarray(times, dtype=float)
    z = np.asarray(zs, dtype=float)
    states = z @ dec.right_vectors.T
    states[0] = 0.0  # +0.0: the product can round to -0.0
    states.setflags(write=False)  # so Trajectory keeps it without a copy
    misfit = z * dec.singular_values - p.coefficients
    residuals = np.sqrt(np.sum(misfit * misfit, axis=1) + p.null_mass)
    return Trajectory(times=ts, states=states, residual_norms=residuals)


def _evolve_exponential(schedule, sg, lam, times, tol, z) -> tuple[int, str | None]:
    """Fill ``z`` past its row z(0) = 0 and return the rows filled with
    ``None``, or the rows before the earliest failure with its message;
    ``tol`` holds the tolerance of each report time past 0.

    A late time b, past _LATE_TIME, takes z(b) as the 16-node Gauss-Laguerre
    integral, unchained, when the 8-node rule agrees within the gap
    tolerance; late times are ruled in blocks whose r x times x 24 node
    array is no larger than a panel round's.  Every other gap takes its
    integral from ``_gap_integrals``, in groups that close before their round
    0 (three evaluations per top-level panel) would pass 2 * _ROUND_PANELS,
    and z is chained across the group.  _MAX_STEPS is charged in report-time
    order, a block's rows (one per time) before its groups.
    """
    a, b = times[:-1], times[1:]
    widths = (b - a).tolist()
    round0 = 3 * _top_panels(np.minimum(b - a, _WINDOW))
    block = max(1, 2 * _ROUND_PANELS * _GL_NODES.size // _LG_NODES.size)
    ruled = np.zeros(b.size, dtype=bool)
    # the gaps before ``ready`` are early, or late with their rows evaluated
    ready = int(np.searchsorted(b, _LATE_TIME, side="right"))
    budget = _MAX_STEPS
    start = 0
    while start < b.size:
        if start == ready:
            ready = start + min(block, b.size - start, budget)
            if ready == start:
                return start + 1, f"max_steps = {_MAX_STEPS} exceeded at t = {a[start]}"
            values, ruled[start:ready] = _laguerre_integrals(
                schedule, sg, lam, b[start:ready], tol[start:ready])
            z[start + 1:ready + 1][ruled[start:ready]] = values.T[ruled[start:ready]]
            budget -= ready - start
        cost = np.cumsum(np.where(ruled[start:ready], 0, round0[start:ready]))
        stop = start + max(1, int(np.searchsorted(cost, 2 * _ROUND_PANELS, side="right")))
        gaps = start + np.flatnonzero(~ruled[start:stop])
        end, failure = stop, None
        if gaps.size:  # a group of ruled rows alone takes no panels
            integrals, panels, failure = _gap_integrals(
                schedule, sg, lam, a[gaps], b[gaps], tol[gaps], budget)
            budget -= int(panels.sum())
            end = stop if failure is None else int(gaps[failure[0]])
            # z is chained across the unruled gaps before the failure
            for k, j in enumerate(gaps[gaps < end].tolist()):
                z[j + 1] = integrals[:, k] + math.exp(-widths[j]) * z[j]
        bad = np.flatnonzero(~np.isfinite(z[start + 1:end + 1]).all(axis=1))
        if bad.size:
            return start + 1 + int(bad[0]), "integration diverged"
        if failure is not None:
            return end + 1, failure[1]
        start = stop
    return b.size + 1, None


def _laguerre_integrals(schedule, sg, lam, b: np.ndarray,
                        tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """integral_0^inf e^{-tau} w(b - tau) dtau at each late time b by the
    16-node Gauss-Laguerre rule, as the columns of an r x times array, and
    whether the 8-node rule agrees with it within the time's tolerance."""
    eps = np.asarray(schedule.eval(b[:, None] - _LG_NODES), dtype=float)
    w = lam[:, None, None] + eps
    np.divide(sg[:, None, None], w, out=w)  # in place: w is the block's largest array
    q16 = np.einsum("ipk,k->ip", w[:, :, :16], _LG16_W)
    q8 = np.einsum("ipk,k->ip", w[:, :, 16:], _LG8_W)
    return q16, np.linalg.norm(q16 - q8, axis=0) <= tol


def _top_panels(window: np.ndarray) -> np.ndarray:
    return np.maximum(1, np.ceil(window / _MAX_PANEL_WIDTH)).astype(int)


def _gap_integrals(schedule, sg, lam, a: np.ndarray, b: np.ndarray, tol: np.ndarray,
                   budget: int) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """integral_0^window e^{-tau} w(b - tau) dtau for each gap [a, b], with
    w = sg / (lam + eps) and window = min(b - a, _WINDOW), by 7-node
    Gauss-Legendre panels, to the tolerance ``tol`` of each gap.

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
            return total, panels, (j, f"max_steps = {_MAX_STEPS} exceeded at t = {a[j]}")
        panels += reps * np.bincount(g, minlength=b.size)
        width = (x1 - x0)[:, None]
        tau = x0[:, None] + width * _GL_NODES
        t_right = np.tile(b[g], reps)[:, None]
        eps = np.asarray(schedule.eval(np.maximum(t_right - tau, 0.0)), dtype=float)
        # r x panels: each panel's weighted sum of the z-equilibria at its nodes
        w = lam[:, None, None] + eps
        np.divide(sg[:, None, None], w, out=w)  # in place: w is the round's largest array
        values = np.einsum("ipk,pk->ip", w, _GL_WEIGHTS * width * np.exp(-tau))
        del w  # so the round's smaller arrays below do not add to its peak
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
    for n in np.flatnonzero(np.bincount(counts)[1:]) + 1:  # numpy 2.x's unique imports numpy.ma
        gaps = np.flatnonzero(counts == n)
        total[:, gaps] += values[:, cols[starts[gaps, None] + np.arange(n)]].sum(axis=2)


def run_dsm(dec: SpectralDecomposition, schedule: Schedule, f_delta,
            delta: float, C: float = 1.0, cfg: DSMConfig | None = None) -> DSMResult:
    """Full pipeline: profile, discrepancy root, stopping time, evolution.

    On C = 1 runs against a rank-deficient operator the data must be
    orthogonal to the adjoint's null space; numerically tiny residue (the
    profile's null mass) is projected away and reported in
    ``projected_null_mass``, anything larger is rejected (use C > 1 for
    data with genuine null-space content).
    """
    f = _sized(f_delta, dec.rows)

    with _stage("projection"):
        profile, projected_null = build_profile(dec, f), 0.0
        if C == 1.0 and dec.numerical_rank < dec.rows:
            projected_null = profile.null_mass
            if projected_null > _NULL_DUST_REL * profile.data_norm_sq:
                raise PreconditionError(
                    "data has null-space component; project f_delta or increase C")
            profile = build_profile(dec, dec.left_vectors.dot(profile.coefficients))

    with _stage("discrepancy"):
        stopping = stop_from_profile(profile, schedule, delta, C)

    with _stage("integration"):
        if stopping.t_delta == 0.0:
            trajectory = _record(dec, profile, [0.0], np.zeros((1, dec.numerical_rank)))
        else:
            trajectory = evolve(dec, schedule, profile, stopping.t_delta, cfg)

    return DSMResult(stopping=stopping, trajectory=trajectory,
                     w_final=_spectral_solve(dec, stopping.epsilon_star, profile.coefficients),
                     projected_null_mass=projected_null)
