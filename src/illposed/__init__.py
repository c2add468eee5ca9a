"""Ill-posed linear operator equations solved from noisy data.

The solver integrates u' = -u + (A^T A + eps(t))^{-1} A^T f_delta from
zero up to a stopping time chosen by the discrepancy principle, and the
final state approximates the minimal-norm solution of A u = f as the
noise level shrinks.  A variational discrepancy principle for nonlinear
monotone operators is included, along with seeded ill-posed test
problems and a reproducible CLI.
"""

from .discrepancy import (DiscrepancyProfile, StoppingResult, build_profile,
                          discrepancy_value, solve_for_epsilon,
                          stop_from_profile)
from .dsm import DSMConfig, DSMResult, Trajectory, evolve, run_dsm
from .errors import (ConfigError, DimensionMismatchError, IllposedError,
                     NumericalError, PreconditionError)
from .nonlinear import (NearMinimizer, NonlinearStopping, SeparableMonotoneOperator,
                        near_minimize, nonlinear_discrepancy_result)
from .operators import (DenseOperator, SpectralDecomposition, as_vector,
                        decompose, normalize, project_range_closure,
                        regularized_normal_solve,
                        regularized_normal_solve_direct)
from .problems import (NoiseSpec, TestProblem, add_noise,
                       cubic_separable_problem, gaussian_blur_problem,
                       hilbert_problem, identity_problem,
                       rank_deficient_problem)
from .schedule import (AdmissibilityReport, PowerLawSchedule, Schedule,
                       default_schedule)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "ConfigError",
    "DSMConfig",
    "DSMResult",
    "DenseOperator",
    "DimensionMismatchError",
    "DiscrepancyProfile",
    "IllposedError",
    "NearMinimizer",
    "NoiseSpec",
    "NonlinearStopping",
    "NumericalError",
    "PowerLawSchedule",
    "PreconditionError",
    "Schedule",
    "SeparableMonotoneOperator",
    "SpectralDecomposition",
    "StoppingResult",
    "TestProblem",
    "Trajectory",
    "add_noise",
    "as_vector",
    "build_profile",
    "cubic_separable_problem",
    "decompose",
    "default_schedule",
    "discrepancy_value",
    "evolve",
    "gaussian_blur_problem",
    "hilbert_problem",
    "identity_problem",
    "near_minimize",
    "nonlinear_discrepancy_result",
    "normalize",
    "project_range_closure",
    "rank_deficient_problem",
    "regularized_normal_solve",
    "regularized_normal_solve_direct",
    "run_dsm",
    "solve_for_epsilon",
    "stop_from_profile",
]
