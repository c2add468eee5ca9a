"""Output checks applied to every benchmark request.

Each check takes the program's output and the inputs the benchmark rebuilt
from the seed, and returns a list of human-readable violations (empty when
the output is correct).  The tolerances are those of the acceptance
contracts in ``tests/test_acceptance.py``:

* criterion 1: the achieved discrepancy sits within 1e-10 ||f_delta|| of
  C * delta;
* criterion 5: ||w|| <= ||y|| (1 + 1e-10);
* criterion 6: the evolved state matches the dense Cholesky solve at the
  stopping strength to 1e-6 relative;
* criterion 9: the nonlinear residual sits within 1e-8 ||f_delta|| of
  C * delta, the gap certificate is below (C^2 - 1) delta^2, and the
  ``failure`` cell is empty.

Residuals recomputed by a direct matrix product must sit within
1e-8 ||f_delta|| of C * delta.  The spectral and Cholesky solves agree only
to about 3e-9 relative at n = 256, delta = 1e-6, so no check uses 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

ROOT_RTOL = 1e-10
NORM_RTOL = 1e-10
ORACLE_RTOL = 1e-6
DIRECT_RESIDUAL_RTOL = 1e-8
NONLINEAR_RESIDUAL_RTOL = 1e-8


def _root(achieved: float, delta: float, C: float, f_norm: float) -> list[str]:
    gap = abs(achieved - C * delta)
    if not gap <= ROOT_RTOL * f_norm:
        return [f"achieved discrepancy {achieved!r} is {gap:.3e} from C*delta "
                f"(limit {ROOT_RTOL * f_norm:.3e})"]
    return []


def _norm(norm_ratio: float) -> list[str]:
    if not norm_ratio <= 1.0 + NORM_RTOL:
        return [f"norm ratio {norm_ratio!r} exceeds 1 + {NORM_RTOL}"]
    return []


def _direct_residual(A: np.ndarray, w: np.ndarray, f_delta: np.ndarray,
                     delta: float, C: float, f_norm: float) -> list[str]:
    residual = float(np.linalg.norm(A @ w - f_delta))
    gap = abs(residual - C * delta)
    if not gap <= DIRECT_RESIDUAL_RTOL * f_norm:
        return [f"direct residual {residual!r} is {gap:.3e} from C*delta "
                f"(limit {DIRECT_RESIDUAL_RTOL * f_norm:.3e})"]
    return []


def dsm_solve(result: dict, *, A: np.ndarray, f_delta: np.ndarray,
              w_oracle: np.ndarray, delta: float, C: float) -> list[str]:
    """Check a ``solve`` command's ``results.json`` payload.

    ``w_oracle`` is the dense Cholesky solve at the reported
    ``epsilon_star``; its direct residual must also sit at C * delta, which
    checks the reported root independently of the program's own numbers.
    """
    f_norm = float(np.linalg.norm(f_delta))
    errors = _root(float(result["achieved_discrepancy"]), delta, C, f_norm)
    errors += _norm(float(result["norm_ratio"]))
    u = np.asarray(result["u_final"], dtype=float)
    if u.shape != w_oracle.shape or not np.all(np.isfinite(u)):
        return errors + [f"u_final has shape {u.shape}, expected {w_oracle.shape}"]
    gap = float(np.linalg.norm(u - w_oracle))
    limit = ORACLE_RTOL * float(np.linalg.norm(w_oracle))
    if not gap <= limit:
        errors.append(f"u_final is {gap:.3e} from the Cholesky oracle (limit {limit:.3e})")
    errors += _direct_residual(A, w_oracle, f_delta, delta, C, f_norm)
    return errors


def tikhonov(w: np.ndarray, achieved: float, *, A: np.ndarray, f_exact: np.ndarray,
             f_delta: np.ndarray, y_norm: float, delta: float, C: float) -> list[str]:
    """Check one Monte Carlo request: noise level, root, norm bound, and the
    residual of ``w`` recomputed as a direct product."""
    f_norm = float(np.linalg.norm(f_delta))
    noise = float(np.linalg.norm(f_delta - f_exact))
    errors = []
    if not abs(noise - delta) <= ROOT_RTOL * f_norm:
        errors.append(f"noise norm {noise!r} differs from delta = {delta!r}")
    errors += _root(achieved, delta, C, f_norm)
    errors += _norm(float(np.linalg.norm(w)) / y_norm)
    errors += _direct_residual(A, w, f_delta, delta, C, f_norm)
    return errors


def nonlinear_row(row: dict, *, f_delta: np.ndarray, delta: float, C: float) -> list[str]:
    """Check one row of ``nonlinear.csv`` against criterion 9."""
    if row["failure"]:
        return [f"failure cell at delta = {delta!r}: {row['failure']}"]
    errors = []
    if float(row["delta"]) != delta:
        errors.append(f"row delta {row['delta']} != requested {delta!r}")
    f_norm = float(np.linalg.norm(f_delta))
    residual = float(row["residual_at_root"])
    gap = abs(residual - C * delta)
    if not gap <= NONLINEAR_RESIDUAL_RTOL * f_norm:
        errors.append(f"residual {residual!r} is {gap:.3e} from C*delta at delta = {delta!r}")
    cert = float(row["gap_certificate"])
    budget = (C * C - 1.0) * delta * delta
    if not (math.isfinite(cert) and cert < budget):
        errors.append(f"gap certificate {cert!r} is not below (C^2-1) delta^2 = {budget!r}")
    return errors
