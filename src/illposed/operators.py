"""Dense linear operators over real finite-dimensional spaces.

Provides the matrix-backed operator type and its singular-value
decomposition cut at the numerical rank, 1e-12 times the largest singular
value.  Every stage reads that decomposition: regularized normal-equation
solves, range projections and discrepancy profiles.  A second solve by
Cholesky factorization is a test oracle.

Products on the request path are taken with ``ndarray.dot``: for these
contiguous float arrays it makes the same BLAS call as ``@``, with the
same bits, and less dispatch around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, PreconditionError

DEFAULT_RANK_TOLERANCE = 1e-12


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return ``x`` as a finite 1-D float array.

    Booleans and integers are converted; complex, string and object input
    is refused rather than cast, which would drop an imaginary part or
    parse text.
    """
    v = np.asarray(x)
    if v.ndim != 1:
        raise DimensionMismatchError(
            f"{name} must be one-dimensional, got shape {v.shape}")
    if v.size == 0:
        raise DimensionMismatchError(f"{name} must be nonempty")
    if v.dtype != float:
        if v.dtype.kind not in "biuf":
            raise PreconditionError(f"{name} must be real numbers, got dtype {v.dtype}")
        v = v.astype(float)
    # count_nonzero counts in one C loop, without ndarray.all's Python
    # wrapper and ufunc-reduction set-up
    if np.count_nonzero(np.isfinite(v)) != v.shape[0]:
        raise PreconditionError(f"{name} contains non-finite entries")
    return v


def _sized(x, n: int, name: str = "data vector") -> np.ndarray:
    """``x`` as a finite vector (``as_vector``) of length ``n``."""
    v = as_vector(x, name)
    if v.shape[0] != n:
        raise DimensionMismatchError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


def _positive(value, name: str, error=PreconditionError) -> None:
    """Refuse ``value`` with ``error`` unless it is positive and finite (not NaN)."""
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be positive, got {value}")


def _norm(x: np.ndarray) -> float:
    """||x||, the bits of ``np.linalg.norm``; inf on overflow, with no warning."""
    return math.sqrt(np.vdot(x, x))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` if it is a read-only float array owning its data, else a read-only float copy."""
    if not (isinstance(a, np.ndarray) and a.dtype == float
            and (flags := a.flags).owndata and not flags.writeable):
        a = np.array(a, dtype=float, copy=True)
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Real matrix acting between finite-dimensional spaces.

    ``entries`` is stored read-only, by ``_frozen``; the operator is
    immutable after construction and safe to share across threads.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.entries)
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionMismatchError(
                f"operator entries must form a nonempty matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PreconditionError("operator entries must be finite")
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """The singular triplets of a dense operator above its rank cutoff.

    ``singular_values`` (r of them, descending), ``left_vectors``
    (rows x r) and ``right_vectors`` (cols x r, both with orthonormal
    columns) hold only the r = ``numerical_rank`` triplets that
    ``decompose`` retained.  Every stage reads these, so none can reach
    the noise-level modes below the cutoff.  ``lambdas``, their squared
    singular values, is formed once, read-only, for profiles and solves.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    lambdas: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("singular_values", "left_vectors", "right_vectors"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "lambdas", self.singular_values ** 2)
        self.lambdas.setflags(write=False)

    @property
    def numerical_rank(self) -> int:
        return self.singular_values.size

    @property
    def rows(self) -> int:
        return self.left_vectors.shape[0]

    @property
    def cols(self) -> int:
        return self.right_vectors.shape[0]


def normalize(A: DenseOperator) -> DenseOperator:
    """``A`` divided by its largest singular value, so that value is 1."""
    scale = float(np.linalg.svd(A.entries, compute_uv=False)[0])
    if scale == 0.0:
        raise PreconditionError("zero operator cannot be normalized")
    return DenseOperator(A.entries / scale)


def decompose(A: DenseOperator) -> SpectralDecomposition:
    """Keep the singular triplets of ``A`` whose singular values exceed
    ``DEFAULT_RANK_TOLERANCE`` times the largest one.  ``A``'s entries are
    finite: ``DenseOperator`` checked them when it froze them."""
    U, s, Vt = np.linalg.svd(A.entries, full_matrices=False)
    sigma1 = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > DEFAULT_RANK_TOLERANCE * sigma1))
    return SpectralDecomposition(singular_values=s[:rank], left_vectors=U[:, :rank],
                                 right_vectors=Vt[:rank].T)


def regularized_normal_solve(dec: SpectralDecomposition, eps: float, f) -> np.ndarray:
    """Solve (A_r^T A_r + eps I) w = A_r^T f on the retained triplets.

    Returns sum_{i <= r} s_i (f . u_i) / (s_i^2 + eps) v_i.  It differs
    from the full solve only by the modes below the rank cutoff, whose
    terms are at most s_i / eps times the data's component on u_i.
    """
    _positive(eps, "eps")
    return _spectral_solve(dec, eps, dec.left_vectors.T.dot(_sized(f, dec.rows)))


def _spectral_solve(dec: SpectralDecomposition, eps: float, g: np.ndarray) -> np.ndarray:
    """sum_i s_i g_i / (s_i^2 + eps) v_i for the data coefficients g = U_r^T f."""
    return dec.right_vectors.dot(dec.singular_values * g / np.add(dec.lambdas, eps))


def regularized_normal_solve_direct(A: DenseOperator, eps: float, f) -> np.ndarray:
    """Solve (A^T A + eps I) w = A^T f by a dense Cholesky factorization.

    A test oracle that no production path calls, independent of the
    spectral path: it factors A^T A + eps I = L L^T, which fails on a
    matrix that is not positive definite, and solves L y = A^T f, then
    L^T w = y.  The two paths differ by rounding that the condition number
    of A^T A + eps I, about 1/eps for a normalized A, magnifies: their
    relative gap grows like 1e-16 / eps (2.7e-9 at eps = 1.1e-7, blur n = 256).
    """
    _positive(eps, "eps")
    v = _sized(f, A.rows)
    L = np.linalg.cholesky(A.entries.T @ A.entries + eps * np.eye(A.cols))
    return np.linalg.solve(L.T, np.linalg.solve(L, A.entries.T @ v))


def project_range_closure(dec: SpectralDecomposition, f) -> np.ndarray:
    """Project ``f`` onto the span of the retained left singular vectors.

    The discarded component ``f - projection`` is the data's part in the
    null space of A^T; callers that judge it form it themselves.
    """
    U = dec.left_vectors
    return U.dot(U.T.dot(_sized(f, dec.rows)))
