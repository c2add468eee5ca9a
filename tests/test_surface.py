"""The public surface: every exported name is listed here and named in
README's library tour, so a dead name or an undocumented one fails."""

import dataclasses
import re
from pathlib import Path

import illposed

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "AdmissibilityReport", "ConfigError", "DSMConfig", "DSMResult", "DenseOperator",
    "DimensionMismatchError", "DiscrepancyProfile", "IllposedError", "NearMinimizer",
    "NoiseSpec", "NonlinearStopping", "NumericalError", "PowerLawSchedule",
    "PreconditionError", "Schedule", "SeparableMonotoneOperator", "SpectralDecomposition",
    "StoppingResult", "TestProblem", "Trajectory", "add_noise", "as_vector", "build_profile",
    "cubic_separable_problem", "decompose", "default_schedule", "discrepancy_value",
    "evolve", "gaussian_blur_problem", "hilbert_problem", "identity_problem",
    "near_minimize", "nonlinear_discrepancy_result", "normalize", "project_range_closure",
    "rank_deficient_problem", "regularized_normal_solve", "regularized_normal_solve_direct",
    "run_dsm", "solve_for_epsilon", "stop_from_profile",
]


def test_all_is_the_public_list():
    assert len(PUBLIC) == 41
    assert sorted(illposed.__all__) == PUBLIC
    assert all(hasattr(illposed, name) for name in PUBLIC)


def test_readme_library_tour_names_every_public_name():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):text.index("## CLI")]
    missing = [name for name in PUBLIC if not re.search(rf"`(ip\.)?{name}[`(.]", tour)]
    assert missing == []


def test_noise_has_no_projection_switch_of_its_own():
    # add_noise projects exactly when it is given a decomposition
    assert [f.name for f in dataclasses.fields(illposed.NoiseSpec)] == ["delta", "seed"]
    assert "ill_posedness" not in {f.name for f in dataclasses.fields(illposed.TestProblem)}



def test_dsm_config_holds_the_tolerances_and_the_start_state():
    # the report grid and the step budget are the integrator's own constants
    assert [f.name for f in dataclasses.fields(illposed.DSMConfig)] == [
        "relative_tolerance", "absolute_tolerance", "initial_state"]
