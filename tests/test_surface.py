"""The public surface: every exported name is listed here and named in
README's library tour, so a dead name or an undocumented one fails, and
every Python example in README.md and PAPER.md runs."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import illposed

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

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



def test_dsm_config_holds_the_two_tolerances():
    # the report grid, the step budget and the zero start state are the
    # integrator's own constants
    assert [f.name for f in dataclasses.fields(illposed.DSMConfig)] == [
        "relative_tolerance", "absolute_tolerance"]
    # a config of scalars compares and hashes by value
    assert illposed.DSMConfig() == illposed.DSMConfig(1e-8, 1e-12)
    assert hash(illposed.DSMConfig()) == hash(illposed.DSMConfig(1e-8, 1e-12))


def test_public_records_holding_arrays_compare_by_identity():
    # a generated __eq__ compares arrays elementwise and raises on them, and
    # makes the record unhashable
    records = [cls for name in PUBLIC if dataclasses.is_dataclass(cls := getattr(illposed, name))]
    with_arrays = [cls for cls in records
                   if any("ndarray" in str(f.type) for f in dataclasses.fields(cls))]
    assert [cls.__name__ for cls in with_arrays if cls.__eq__ is not object.__eq__] == []
    assert len(with_arrays) == 9


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_every_python_example_runs(doc, tmp_path):
    # each block in a fresh interpreter, as a reader would paste it
    text = (ROOT / doc).read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks
    paths = [str(ROOT / "src"), *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for code in blocks:
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"{doc}:\n{code}\n{proc.stderr}"
