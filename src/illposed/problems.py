"""Seeded generators of ill-posed test problems with known solutions.

Each linear generator returns an operator normalized to unit spectral
norm, exact data f = A y, and the minimal-norm reference solution y
(constructed orthogonal to the operator's numerical null space).  Noise
is injected with exact magnitude delta, confined to the closure of the
operator's range when ``add_noise`` is given its decomposition.

Randomness comes from ``numpy.random.default_rng`` (the PCG64 generator)
seeded as documented per call, so identical seeds reproduce bit-identical
problems and noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .nonlinear import SeparableMonotoneOperator
from .operators import (DenseOperator, SpectralDecomposition, _frozen, _norm, _positive,
                        _sized, as_vector, decompose, normalize, project_range_closure)


@dataclass(frozen=True, eq=False)
class TestProblem:
    """An operator, exact data, the minimal-norm solution it came from, and
    ``decomposition = decompose(operator)``, taken once by the generator."""

    operator: DenseOperator
    f_exact: np.ndarray
    y_reference: np.ndarray
    label: str
    decomposition: SpectralDecomposition

    def __post_init__(self):
        object.__setattr__(self, "f_exact", _frozen(self.f_exact))
        object.__setattr__(self, "y_reference", _frozen(self.y_reference))


@dataclass(frozen=True)
class NoiseSpec:
    delta: float
    seed: int

    def __post_init__(self):
        _positive(self.delta, "delta")
        _check_seed(self.seed)


def _check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer; numpy integers count, bools not."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise PreconditionError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")


def _finish_linear(entries: np.ndarray, y_raw: np.ndarray, label: str) -> TestProblem:
    """Normalize, project the reference onto the numerical co-kernel, form data."""
    A = normalize(DenseOperator(entries))
    dec = decompose(A)
    V = dec.right_vectors
    y = V @ (V.T @ y_raw)
    return TestProblem(operator=A, f_exact=A.entries @ y, y_reference=y, label=label,
                       decomposition=dec)


def identity_problem(n: int) -> TestProblem:
    """The trivially well-posed baseline: A = I, y = ones/sqrt(n), f = y."""
    if not 1 <= n <= 256:
        raise PreconditionError(f"n must lie in [1, 256], got {n}")
    y = np.ones(n) / math.sqrt(n)
    A = DenseOperator(np.eye(n))
    return TestProblem(operator=A, f_exact=y.copy(), y_reference=y, label=f"identity(n={n})",
                       decomposition=decompose(A))


def hilbert_problem(n: int) -> TestProblem:
    """Hilbert matrix instance, a classically ill-conditioned dense kernel."""
    if not 2 <= n <= 64:
        raise PreconditionError(f"n must lie in [2, 64], got {n}")
    H = 1.0 / (1.0 + np.add.outer(np.arange(n), np.arange(n)))
    y = np.ones(n) / math.sqrt(n)
    return _finish_linear(H, y, f"hilbert(n={n})")


def gaussian_blur_problem(n: int, width: float) -> TestProblem:
    """Discretized Gaussian smoothing kernel on [0, 1]; severely ill-posed.

    Grid points sit at cell midpoints; the reference solution is a smooth
    bump centered at 1/2.
    """
    if not 8 <= n <= 256:
        raise PreconditionError(f"n must lie in [8, 256], got {n}")
    if not 0.0 < width < 1.0:
        raise PreconditionError(f"width must lie in (0, 1), got {width}")
    s = (np.arange(n) + 0.5) / n
    diff = s[:, None] - s[None, :]
    K = np.exp(-diff * diff / (2.0 * width * width)) / n
    y = np.exp(-((s - 0.5) ** 2) / 0.02)
    return _finish_linear(K, y, f"gaussian_blur(n={n},width={width})")


def rank_deficient_problem(n: int, r: int, seed: int) -> TestProblem:
    """Random operator with exact rank r and log-spaced spectrum in [1e-4, 1].

    The reference solution is drawn inside the span of the leading right
    singular vectors, so it is the minimal-norm solution by construction.
    """
    if not 1 <= r < n <= 256:
        raise PreconditionError(f"rank r must satisfy 1 <= r < n <= 256, got r={r}, n={n}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    U = _orthonormal(rng.standard_normal((n, n)))
    V = _orthonormal(rng.standard_normal((n, n)))
    sigma = np.logspace(0.0, -4.0, r)
    entries = (U[:, :r] * sigma) @ V[:, :r].T
    c = rng.standard_normal(r)
    y = V[:, :r] @ c
    y /= np.linalg.norm(y)
    A = DenseOperator(entries)
    return TestProblem(operator=A, f_exact=entries @ y, y_reference=y, decomposition=decompose(A),
                       label=f"rank_deficient(n={n},r={r},seed={seed})")


def _orthonormal(M: np.ndarray) -> np.ndarray:
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def cubic_separable_problem(n: int, coefficients, y) -> tuple[SeparableMonotoneOperator, np.ndarray]:
    """Coordinatewise strictly monotone operator A(u)_i = a_i u_i + u_i^3.

    Returns the operator and f = A(y); y is the unique solution of
    A(u) = f, hence minimal-norm.  An f that overflows is refused.
    """
    if not 1 <= n <= 256:
        raise PreconditionError(f"n must lie in [1, 256], got {n}")
    a = np.asarray(coefficients, dtype=float)
    if a.shape not in ((), (n,)):
        raise PreconditionError(
            f"cubic coefficients must be a scalar or {n} values, got shape {a.shape}")
    a = np.broadcast_to(a, (n,)).copy()
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise PreconditionError("cubic coefficients must be positive and finite")
    yv = _sized(y, n, "reference solution")
    phis = tuple((lambda x, ai=ai: ai * x + x ** 3) for ai in a.tolist())
    try:  # on Python floats, whose cube raises OverflowError rather than warning
        f = np.array([phi(x) for phi, x in zip(phis, yv.tolist())])
    except OverflowError:
        f = None
    if f is None or np.count_nonzero(np.isfinite(f)) != n:  # or a_i y_i is past the range
        raise PreconditionError("cubic data A(y) overflows: y or the coefficients are too large")
    return SeparableMonotoneOperator(phis), f


def add_noise(f_exact, dec: SpectralDecomposition | None,
              spec: NoiseSpec) -> np.ndarray:
    """Perturb exact data by a seeded direction of exact magnitude delta.

    The direction is projected onto the retained range of ``dec`` exactly
    when a decomposition is given, so data orthogonal to N(A^T) stays
    orthogonal; with ``dec`` None it is the raw draw.  A degenerate
    projected draw triggers a redraw with seed+1, at most 8 retries.
    """
    f = as_vector(f_exact, "exact data")
    if spec.delta >= _norm(f):
        raise PreconditionError(
            f"delta = {spec.delta} must be smaller than the exact data norm")
    for attempt in range(9):
        e = np.random.default_rng(spec.seed + attempt).standard_normal(f.shape[0])
        if dec is not None:
            e = project_range_closure(dec, e)
        norm_e = _norm(e)
        if norm_e > 1e-8:
            return f + (spec.delta / norm_e) * e
    raise NumericalError("noise direction degenerated after 8 redraws")
