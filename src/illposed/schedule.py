"""Regularization schedules eps(t) and their admissibility diagnostics.

A schedule couples integration time to regularization strength: it must
be positive, strictly decreasing, and vanish as t grows, with the decay
slow enough that sup_{t/2<=s<=t} |eps'(s)| / eps(t)^2 -> 0.  The shipped
implementation is the power-law family eps(t) = c1 (c0 + t)^(-b), which
also checks these conditions numerically.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, PreconditionError
from .operators import _frozen, _positive


class Schedule(abc.ABC):
    """Positive, strictly decreasing and continuous regularization strength eps(t).

    The evolution and the stopping time read only ``eval`` and ``invert``.
    Continuity is not checked: a jump closer to a report time than the
    integrator's nearest node there (0.0876 past t = 111.7) goes undetected."""

    @abc.abstractmethod
    def eval(self, t):
        """eps(t) for t >= 0; accepts scalars or arrays."""

    @abc.abstractmethod
    def invert(self, g: float) -> float:
        """The unique t >= 0 with eps(t) = g, for 0 < g <= eps(0)."""

    @functools.cached_property
    def eps0(self) -> float:
        """eps(0), evaluated once per instance."""
        return self.eval(0.0)


def _decaying(x: np.ndarray) -> bool:
    """Strict decrease, except that a value already underflowed to zero
    counts as conclusively decayed."""
    if len(x) < 2:
        return True
    a, b = x[:-1], x[1:]
    return bool(np.all((b < a) | ((a == 0.0) & (b == 0.0))))


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    t_grid: np.ndarray
    q_values: np.ndarray
    r_values: np.ndarray
    q_tail_decreasing: bool
    r_tail_decreasing: bool
    admissible: bool

    def __post_init__(self):
        object.__setattr__(self, "t_grid", _frozen(self.t_grid))
        object.__setattr__(self, "q_values", _frozen(self.q_values))
        object.__setattr__(self, "r_values", _frozen(self.r_values))


@dataclass(frozen=True)
class PowerLawSchedule(Schedule):
    """eps(t) = c1 (c0 + t)^(-b) with c0, c1 > 0 and 0 < b < 1; the field
    defaults are the library's default schedule.

    Adds to ``Schedule`` the closed-form ``derivative`` and the decay check
    ``admissibility_report``.
    """

    c0: float = 1.0
    c1: float = 1.0
    b: float = 0.5

    def __post_init__(self):
        _positive(self.c0, "c0", ConfigError)
        _positive(self.c1, "c1", ConfigError)
        if not (0.0 < self.b < 1.0):
            raise ConfigError(f"b must lie in (0,1), got {self.b}")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):  # NaN too
            raise PreconditionError("t must be nonnegative")
        out = self.c1 * (self.c0 + t) ** (-self.b)
        return float(out) if out.ndim == 0 else out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):  # NaN too
            raise PreconditionError("t must be nonnegative")
        out = -self.b * self.c1 * (self.c0 + t) ** (-self.b - 1.0)
        return float(out) if out.ndim == 0 else out

    def invert(self, g: float) -> float:
        _positive(g, "schedule value")
        if g > self.eps0:
            raise PreconditionError(
                f"schedule value {g} exceeds eps(0) = {self.eps0}; the root would be negative")
        log_shifted = math.log(self.c1 / g) / self.b
        if log_shifted > 709.0:
            raise NumericalError(
                f"schedule inverse overflows double precision for value {g}")
        return max(math.exp(log_shifted) - self.c0, 0.0)

    def admissibility_report(self, t_grid) -> AdmissibilityReport:
        """Numeric check of the decay conditions over an ascending grid.

        For each t reports q(t) = sup_{t/2<=s<=t} |eps'(s)| / eps(t)^2 and
        r(t) = exp(-t) / eps(t); |eps'| decreases, so the sup sits at t/2.
        The schedule is flagged admissible when both sequences strictly
        decrease over the tail (second half) of the grid.
        """
        ts = np.asarray(t_grid, dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise PreconditionError("t_grid must be a nonempty 1-D array")
        if not (np.all(ts > 0) and np.all(np.diff(ts) > 0)):  # NaN too
            raise PreconditionError("t_grid must be positive and strictly ascending")
        try:
            q = np.array([abs(self.derivative(t / 2.0)) * self.eval(t) ** -2.0 for t in ts])
            r = np.array([math.exp(-t) / self.eval(t) if t < 745.0 else 0.0
                          for t in ts])
        except (ZeroDivisionError, OverflowError):  # eps(t)**-2 beyond the float range
            raise NumericalError(f"eps(t) = {self.eval(ts[-1])} at t = {ts[-1]} is too small "
                                 "for q(t) in double precision") from None
        tail = slice(len(ts) // 2, None)
        q_ok = _decaying(q[tail])
        r_ok = _decaying(r[tail])
        return AdmissibilityReport(
            t_grid=ts, q_values=q, r_values=r,
            q_tail_decreasing=q_ok, r_tail_decreasing=r_ok,
            admissible=bool(q_ok and r_ok),
        )


def default_schedule() -> PowerLawSchedule:
    """The library default: c0 = 1, c1 = 1, b = 1/2 (so eps(0) = 1)."""
    return PowerLawSchedule()
