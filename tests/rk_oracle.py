"""Test oracle for ``evolve``: the evolution u' = -u + (A^T A + eps(t) I)^{-1} A^T f
integrated by scipy's RK45 in the original coordinates.  It shares no code
with the library's integrator: no decomposition, profile or state assembly."""

import numpy as np
from scipy.integrate import solve_ivp


def rk_states(A, schedule, f, times, u0=None, rtol=1e-8, atol=1e-12):
    """The states at ``times`` (ascending, from 0), one row per time."""
    A = np.asarray(A, dtype=float)
    B, rhs, eye = A.T @ A, A.T @ np.asarray(f, dtype=float), np.eye(A.shape[1])
    u0 = np.zeros(A.shape[1]) if u0 is None else np.asarray(u0, dtype=float)

    def deriv(t, u):
        return np.linalg.solve(B + float(schedule.eval(t)) * eye, rhs) - u

    sol = solve_ivp(deriv, (0.0, float(times[-1])), u0, method="RK45", t_eval=times,
                    rtol=rtol, atol=atol, max_step=3.0)
    assert sol.success, sol.message
    return sol.y.T
