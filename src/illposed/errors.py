"""Exception taxonomy shared across the library.

The CLI maps these onto exit codes: config errors exit 2, precondition
violations exit 3, numerical failures exit 4.
"""

from __future__ import annotations

from contextlib import contextmanager


class IllposedError(Exception):
    """Base class for library errors.

    ``stage`` names the pipeline stage that raised, when known (set by
    the pipelines :func:`illposed.dsm.run_dsm` and
    :func:`illposed.nonlinear.nonlinear_discrepancy_result`).
    """

    def __init__(self, message: str, *, stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class ConfigError(IllposedError):
    """Invalid configuration or malformed input file."""


class PreconditionError(IllposedError):
    """An operation's documented precondition does not hold."""


class DimensionMismatchError(PreconditionError):
    """Operands have incompatible shapes."""


class NumericalError(IllposedError):
    """A numerical procedure failed to converge or diverged.

    May carry diagnostic payloads: ``trajectory`` (partial integration
    output), ``trace`` (scan history), ``best`` (best iterate found).
    """

    def __init__(self, message: str, *, stage: str | None = None,
                 trajectory=None, trace=None, best=None):
        super().__init__(message, stage=stage)
        self.trajectory = trajectory
        self.trace = trace
        self.best = best


@contextmanager
def _stage(name: str):
    """Tag escaping library errors with the pipeline stage that failed."""
    try:
        yield
    except IllposedError as exc:
        if exc.stage is None:
            exc.stage = name
        raise
