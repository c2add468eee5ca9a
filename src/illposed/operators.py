"""Dense linear operators over real finite-dimensional spaces.

Provides the matrix-backed operator type, its singular-value
decomposition cut at the numerical rank, regularized normal-equation
solves through two independent code paths, null-space projections, and
a plain-text serialization format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, PreconditionError

DEFAULT_RANK_TOLERANCE = 1e-12


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return ``x`` as a finite 1-D float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(
            f"{name} must be one-dimensional, got shape {v.shape}")
    if v.size == 0:
        raise DimensionMismatchError(f"{name} must be nonempty")
    if not np.all(np.isfinite(v)):
        raise PreconditionError(f"{name} contains non-finite entries")
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Real matrix acting between finite-dimensional spaces.

    ``entries`` is stored as a read-only copy; the operator is immutable
    after construction and safe to share across threads.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionMismatchError(
                f"operator entries must form a nonempty matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PreconditionError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def apply(self, x) -> np.ndarray:
        """Return ``A x``."""
        v = as_vector(x, "input vector")
        if v.shape[0] != self.cols:
            raise DimensionMismatchError(
                f"apply: vector has length {v.shape[0]}, operator has {self.cols} columns")
        return self.entries @ v

    def adjoint_apply(self, y) -> np.ndarray:
        """Return ``A^T y``; satisfies (A x, y) = (x, A^T y)."""
        v = as_vector(y, "input vector")
        if v.shape[0] != self.rows:
            raise DimensionMismatchError(
                f"adjoint_apply: vector has length {v.shape[0]}, operator has {self.rows} rows")
        return self.entries.T @ v


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """The singular triplets of a dense operator above its rank cutoff.

    ``singular_values`` (r of them, descending), ``left_vectors``
    (rows x r) and ``right_vectors`` (cols x r, both with orthonormal
    columns) hold only the r = ``numerical_rank`` triplets that
    ``decompose`` retained.  Every stage reads these, so none can reach
    the noise-level modes below the cutoff.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "singular_values", _frozen(self.singular_values))
        object.__setattr__(self, "left_vectors", _frozen(self.left_vectors))
        object.__setattr__(self, "right_vectors", _frozen(self.right_vectors))

    @property
    def numerical_rank(self) -> int:
        return self.singular_values.size

    @property
    def rows(self) -> int:
        return self.left_vectors.shape[0]

    @property
    def cols(self) -> int:
        return self.right_vectors.shape[0]

    def apply(self, x) -> np.ndarray:
        """Apply the rank-r operator U_r diag(s) V_r^T to ``x``."""
        v = as_vector(x, "input vector")
        if v.shape[0] != self.cols:
            raise DimensionMismatchError(
                f"apply: vector has length {v.shape[0]}, operator has {self.cols} columns")
        return self.left_vectors @ (self.singular_values * (self.right_vectors.T @ v))

    def adjoint_apply(self, y) -> np.ndarray:
        """Apply V_r diag(s) U_r^T to ``y``."""
        v = as_vector(y, "input vector")
        if v.shape[0] != self.rows:
            raise DimensionMismatchError(
                f"adjoint_apply: vector has length {v.shape[0]}, operator has {self.rows} rows")
        return self.right_vectors @ (self.singular_values * (self.left_vectors.T @ v))


def normalize(A: DenseOperator) -> tuple[DenseOperator, float]:
    """Rescale ``A`` so its largest singular value is 1.

    Returns the rescaled operator and the scale factor.  Callers must
    rescale right-hand-side data consistently (f -> f / scale).
    """
    scale = float(np.linalg.svd(A.entries, compute_uv=False)[0])
    if scale == 0.0:
        raise PreconditionError("zero operator cannot be normalized")
    return DenseOperator(A.entries / scale), scale


def decompose(A: DenseOperator,
              rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> SpectralDecomposition:
    """Keep the singular triplets of ``A`` whose singular values exceed
    ``rank_tolerance`` times the largest one."""
    if not 0.0 <= rank_tolerance < 1.0:
        raise PreconditionError(
            f"rank_tolerance must lie in [0, 1), got {rank_tolerance}")
    if not np.all(np.isfinite(A.entries)):
        raise PreconditionError("operator entries must be finite")
    U, s, Vt = np.linalg.svd(A.entries, full_matrices=False)
    sigma1 = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > rank_tolerance * sigma1))
    return SpectralDecomposition(singular_values=s[:rank], left_vectors=U[:, :rank],
                                 right_vectors=Vt[:rank].T)


def regularized_normal_solve(dec: SpectralDecomposition, eps: float, f) -> np.ndarray:
    """Solve (A_r^T A_r + eps I) w = A_r^T f on the retained triplets.

    Returns sum_{i <= r} s_i (f . u_i) / (s_i^2 + eps) v_i.  It differs
    from the full solve only by the modes below the rank cutoff, whose
    terms are at most s_i / eps times the data's component on u_i.
    """
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    v = as_vector(f, "data vector")
    if v.shape[0] != dec.rows:
        raise DimensionMismatchError(
            f"data vector has length {v.shape[0]}, operator has {dec.rows} rows")
    s = dec.singular_values
    coef = s * (dec.left_vectors.T @ v)
    return dec.right_vectors @ (coef / (s * s + eps))


def regularized_normal_solve_direct(A: DenseOperator, eps: float, f) -> np.ndarray:
    """Solve (A^T A + eps I) w = A^T f by a dense Cholesky factorization.

    Independent of the spectral path; the two must agree to 1e-9 relative.
    """
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    v = as_vector(f, "data vector")
    if v.shape[0] != A.rows:
        raise DimensionMismatchError(
            f"data vector has length {v.shape[0]}, operator has {A.rows} rows")
    B = A.entries.T @ A.entries + eps * np.eye(A.cols)
    rhs = A.entries.T @ v
    c, low = scipy.linalg.cho_factor(B)
    return scipy.linalg.cho_solve((c, low), rhs)


def project_range_closure(dec: SpectralDecomposition, f) -> tuple[np.ndarray, float]:
    """Project ``f`` onto the span of the retained left singular vectors.

    Returns the projection together with the squared norm of the
    discarded component (the data's mass in the null space of A^T).
    """
    v = as_vector(f, "data vector")
    if v.shape[0] != dec.rows:
        raise DimensionMismatchError(
            f"data vector has length {v.shape[0]}, operator has {dec.rows} rows")
    U = dec.left_vectors
    proj = U @ (U.T @ v)
    d = v - proj
    return proj, float(d @ d)


# -- plain-text serialization ------------------------------------------------
#
# Format: first line "rows cols", then one whitespace-separated row per
# line, 17 significant digits (lossless round trip for float64).

def save_matrix(path, array) -> None:
    a = np.atleast_2d(np.asarray(array, dtype=float))
    if a.ndim != 2:
        raise DimensionMismatchError(f"cannot serialize array of shape {a.shape}")
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise PreconditionError(f"malformed matrix header in {path}")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (rows, cols):
        raise PreconditionError(
            f"matrix body {data.shape} does not match header ({rows}, {cols}) in {path}")
    if not np.all(np.isfinite(data)):
        raise PreconditionError(f"non-finite entries in {path}")
    return data


def save_operator(path, A: DenseOperator) -> None:
    save_matrix(path, A.entries)


def load_operator(path) -> DenseOperator:
    return DenseOperator(load_matrix(path))


def save_vector(path, v) -> None:
    save_matrix(path, as_vector(v).reshape(-1, 1))


def load_vector(path) -> np.ndarray:
    m = load_matrix(path)
    if m.shape[1] != 1:
        raise PreconditionError(f"expected a column vector in {path}, got shape {m.shape}")
    return m[:, 0]
