import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import illposed._csvtext as _csvtext
from illposed import (NoiseSpec, Trajectory, add_noise, cubic_separable_problem,
                      default_schedule, gaussian_blur_problem, hilbert_problem,
                      identity_problem, rank_deficient_problem, run_dsm)
from illposed.cli import (CONVERGENCE_COLUMNS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                          EXIT_PRECONDITION, NONLINEAR_COLUMNS, ExperimentConfig,
                          _built_problem, _write_trajectory_csv, build_linear_problem,
                          build_nonlinear_problem, load_config, main)


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "problem": {"name": "identity", "n": 4},
        "schedule": {"c0": 1.0, "c1": 1.0, "b": 0.5},
        "C": 1.0,
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path) as fh:
        comment = fh.readline()
        assert comment.startswith("# config_hash=")
        return list(csv.reader(fh))


# the ids keep their (with_reference, include_state) form, so that test
# histories keep matching; the reference column is always written
@pytest.mark.parametrize("include_state", [True, False], ids=["True-True", "True-False"])
def test_trajectory_csv_matches_csv_writer(tmp_path, include_state):
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-8,
               2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 9999999999999998.0,
               0.0001, 9.999999999999999e-05, 0.3, 1e22, 1e23, 123456789012345680.0, 100.0,
               1.5 * 2.0**-1022]
    states = np.array([special[k:] + special[:k] for k in range(3)])
    traj = Trajectory(times=np.array([0.0, 5e-324, 1e300]),
                      residual_norms=np.array([np.nan, -0.0, np.inf]), states=states)
    y = np.linspace(-1.0, 1.0, len(special))
    _write_trajectory_csv(tmp_path / "t.csv", "abc", traj, y, include_state)

    header = ["t", "residual_norm", "error_vs_reference"]
    header += [f"state_{i}" for i in range(len(special))] if include_state else []
    rows = []
    for t, res, state in zip(traj.times, traj.residual_norms, states):
        with np.errstate(over="ignore"):  # 1.7976931348623157e308 squared
            norm = np.linalg.norm(state - y)
        row = [repr(float(t)), repr(float(res)), repr(float(norm))]
        if include_state:
            row += [repr(float(v)) for v in state]
        rows.append(row)
    expected = io.StringIO()
    expected.write("# config_hash=abc\n")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode("utf-8")


def _reference_trajectory_csv(path, config_hash, trajectory, y_reference, include_state):
    """The row-by-row writer, with a norm and a list repr per row: the
    reference that ``_write_trajectory_csv`` must match byte for byte."""
    header = ["t", "residual_norm", "error_vs_reference"]
    if include_state:
        header.extend(f"state_{i}" for i in range(trajectory.states.shape[1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        end = writer.dialect.lineterminator
        for t, res, state in zip(trajectory.times.tolist(),
                                 trajectory.residual_norms.tolist(), trajectory.states):
            row = [t, res, float(np.linalg.norm(state - y_reference))]
            if include_state:
                row.extend(state.tolist())
            fh.write(repr(row)[1:-1].replace(", ", ",") + end)


@pytest.fixture(scope="module", params=[(64, 1e-2), (64, 1e-6), (256, 1e-2)],
                ids=["n64-1e-2", "n64-1e-6", "n256-1e-2"])
def seeded_blur_trajectory(request):
    """The trajectory and reference solution of ``solve`` on blur, seed 7."""
    n, delta = request.param
    prob = gaussian_blur_problem(n, 0.05)
    f = add_noise(prob.f_exact, prob.decomposition, NoiseSpec(delta, 7))
    result = run_dsm(prob.decomposition, default_schedule(), f, delta)
    return result.trajectory, prob.y_reference


# include_state=False is what ``convergence --store-trajectory`` writes
@pytest.mark.parametrize("include_state", [True, False])
def test_trajectory_csv_matches_the_reference_writer(tmp_path, seeded_blur_trajectory,
                                                     include_state):
    traj, y = seeded_blur_trajectory
    assert traj.times.shape[0] == 512
    _write_trajectory_csv(tmp_path / "t.csv", "abc", traj, y, include_state)
    _reference_trajectory_csv(tmp_path / "ref.csv", "abc", traj, y, include_state)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_trajectory_csv_peaks_at_the_renderer_block_alone(tmp_path, seeded_blur_trajectory):
    # the points x n difference behind the error column is freed before the
    # first block is rendered.  Measured at n = 256: 1.43 MB, 116 B a block
    # cell, against 2.48 MB while the difference stayed alive (1 MB more)
    traj, y = seeded_blur_trajectory
    _write_trajectory_csv(tmp_path / "t.csv", "abc", traj, y, True)
    tracemalloc.start()
    try:
        _write_trajectory_csv(tmp_path / "t.csv", "abc", traj, y, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * _csvtext._BLOCK_CELLS


def test_trajectory_cells_are_certified(tmp_path, monkeypatch, seeded_blur_trajectory):
    # the array digits write almost every trajectory cell; repr writes the
    # powers of two and an exact tie between two candidate digit strings,
    # and at least one cell here, so the count is known to see repr
    written = []
    def counted(x):
        written.append(x)
        return repr(x)
    monkeypatch.setattr(_csvtext, "repr", counted, raising=False)
    traj, y = seeded_blur_trajectory
    _write_trajectory_csv(tmp_path / "t.csv", "abc", traj, y, True)
    known = np.concatenate([traj.times, traj.residual_norms,
                            np.linalg.norm(traj.states - y, axis=1), traj.states.ravel()])
    powers_of_two = np.abs(np.frexp(known)[0]) == 0.5
    assert 0 < len(written) <= powers_of_two.sum() + np.count_nonzero(known) // 1000


def test_trajectory_csv_through_the_repr_fallback(tmp_path, monkeypatch,
                                                  seeded_blur_trajectory):
    # every cell marked uncertain is written by repr itself
    shortest_digits = _csvtext._shortest_digits
    def uncertain(a, low_bits):
        digits, point, _ = shortest_digits(a, low_bits)
        return digits, point, np.ones(a.shape, bool)
    monkeypatch.setattr(_csvtext, "_shortest_digits", uncertain)
    traj, y = seeded_blur_trajectory
    _write_trajectory_csv(tmp_path / "t.csv", "abc", traj, y, True)
    _reference_trajectory_csv(tmp_path / "ref.csv", "abc", traj, y, True)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.fixture(scope="module")
def blur_solve(tmp_path_factory):
    """``solve --store-trajectory`` on seeded blur n = 64, its artifacts and a
    direct ``run_dsm`` on the same inputs."""
    tmp_path = tmp_path_factory.mktemp("blur")
    path = write_config(tmp_path, problem={"name": "gaussian_blur", "n": 64, "width": 0.05},
                        delta=1e-2, seed=7)
    assert main(["solve", "--config", str(path), "--quiet", "--store-trajectory"]) == EXIT_OK
    result = json.loads((tmp_path / "out" / "results.json").read_text())
    rows = read_csv(tmp_path / "out" / "trajectory.csv")
    prob = gaussian_blur_problem(64, 0.05)
    dec = prob.decomposition
    f = add_noise(prob.f_exact, dec, NoiseSpec(1e-2, 7))
    direct = run_dsm(dec, default_schedule(), f, 1e-2)
    return result, rows, direct


@pytest.mark.parametrize("command, fields", [
    ("solve", {"delta": 1e-2}),
    ("convergence", {"delta_sequence": [1e-2, 1e-3, 1e-4]}),
])
def test_one_spectral_decomposition_per_command(tmp_path, monkeypatch, command, fields):
    # normalize's SVD plus the generator's decompose, once per process and
    # problem; the commands read the problem's own decomposition instead of
    # taking a third
    _built_problem.cache_clear()
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)

    def run(n, seed, **more):
        path = write_config(tmp_path, problem={"name": "gaussian_blur", "n": n, "width": 0.05},
                            seed=seed, **{**fields, **more})
        assert main([command, "--config", str(path), "--quiet"]) == EXIT_OK

    run(64, 7)
    assert calls == [False, True]
    run(64, 8)
    run(64, 7, C=1.5)
    assert calls == [False, True]
    run(32, 7)
    assert calls == [False, True, False, True]


DSM_SOLVE_INPUTS = ((64, 1e-2), (64, 1e-4), (64, 1e-6), (256, 1e-2))


def test_cold_and_warm_runs_write_the_same_bytes(tmp_path):
    def run(n, delta):
        path = write_config(tmp_path, problem={"name": "gaussian_blur", "n": n, "width": 0.05},
                            delta=delta, seed=7)
        assert main(["solve", "--config", str(path), "--quiet", "--store-trajectory"]) == EXIT_OK
        return [(tmp_path / "out" / name).read_bytes()
                for name in ("results.json", "trajectory.csv")]

    cold = []
    for n, delta in DSM_SOLVE_INPUTS:
        _built_problem.cache_clear()
        cold.append(run(n, delta))
    _built_problem("gaussian_blur", 64, 0.05)  # the last cold run left n = 256
    hits = _built_problem.cache_info().hits
    assert [run(n, delta) for n, delta in DSM_SOLVE_INPUTS] == cold
    assert _built_problem.cache_info().hits == hits + len(DSM_SOLVE_INPUTS)


def test_rank_deficient_problem_seed_defaults_to_the_config_seed(tmp_path):
    problem = {"name": "rank_deficient", "n": 12, "rank": 6}
    built = [build_linear_problem(load_config(
        write_config(tmp_path, f"{seed}.json", problem=problem, delta=0.01, seed=seed)))
        for seed in (1, 2)]
    assert not np.array_equal(built[0].operator.entries, built[1].operator.entries)
    for seed, prob in zip((1, 2), built):
        fresh = rank_deficient_problem(12, 6, seed)
        assert prob.operator.entries.tobytes() == fresh.operator.entries.tobytes()
        assert prob.label == fresh.label


@pytest.mark.parametrize("name, defaults", [
    ("identity", lambda seed: identity_problem(2)),
    ("hilbert", lambda seed: hilbert_problem(8)),
    ("gaussian_blur", lambda seed: gaussian_blur_problem(64, 0.05)),
    ("rank_deficient", lambda seed: rank_deficient_problem(12, 6, seed)),
    ("cubic", lambda seed: cubic_separable_problem(8, 1.0, [1.0, -1.0, 0.5] * 2 + [1.0, -1.0])),
])
def test_a_problem_giving_only_its_name_takes_the_defaults(tmp_path, name, defaults):
    cfg = load_config(write_config(tmp_path, problem={"name": name}, seed=5))
    if name == "cubic":
        op, f_exact, y = build_nonlinear_problem(cfg)
        expected_op, expected_f = defaults(cfg.seed)
        probe = np.linspace(-2.0, 2.0, 8)
        assert op(probe).tobytes() == expected_op(probe).tobytes()
        assert f_exact.tobytes() == expected_f.tobytes()
        assert y.tolist() == [1.0, -1.0, 0.5] * 2 + [1.0, -1.0]
        return
    prob, expected = build_linear_problem(cfg), defaults(cfg.seed)
    assert prob.operator.entries.tobytes() == expected.operator.entries.tobytes()
    assert prob.f_exact.tobytes() == expected.f_exact.tobytes()
    assert prob.label == expected.label


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = json.loads(readme.split("JSON object:\n\n```json\n", 1)[1].split("```", 1)[0])
    keys = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "raw"]
    assert sorted(example) == sorted(keys) and len(keys) == 13
    path = tmp_path / "config.json"
    path.write_text(json.dumps(example))
    cfg = load_config(path)
    assert {key: getattr(cfg, key) for key in ("C", "delta", "seed", "relative_tolerance",
                                               "absolute_tolerance", "output_dir")} == {
        key: example[key] for key in ("C", "delta", "seed", "relative_tolerance",
                                      "absolute_tolerance", "output_dir")}
    assert cfg.problem == example["problem"]


def test_failed_build_is_not_cached(tmp_path, capsys):
    path = write_config(tmp_path, problem={"name": "gaussian_blur", "n": 4}, delta=0.01)
    misses = _built_problem.cache_info().misses
    for _ in range(2):
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        assert "n must lie in [8, 256]" in json.loads(capsys.readouterr().out)["error"]["message"]
    assert _built_problem.cache_info().misses == misses + 2


class TestSolve:
    def test_identity_closed_form(self, tmp_path):
        path = write_config(tmp_path, delta=0.1, noise=False)
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_OK
        result = json.loads((tmp_path / "out" / "results.json").read_text())
        assert abs(result["epsilon_star"] - 1.0 / 9.0) <= 1e-10
        assert result["config_hash"]

    def test_results_json_schema_pinned(self, tmp_path):
        path = write_config(tmp_path, delta=0.1, noise=False)
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_OK
        result = json.loads((tmp_path / "out" / "results.json").read_text())
        assert sorted(result.keys()) == [
            "C", "achieved_discrepancy", "config_hash", "delta",
            "epsilon_star", "error_vs_reference", "iterations", "norm_ratio",
            "problem", "projected_null_mass", "residual", "t_delta",
            "tikhonov_error_vs_reference", "u_final",
        ]

    def test_results_json_matches_run_dsm(self, blur_solve):
        result, _, direct = blur_solve
        stopping = direct.stopping
        assert result["epsilon_star"] == stopping.epsilon_star
        assert result["t_delta"] == stopping.t_delta
        assert result["achieved_discrepancy"] == stopping.achieved_discrepancy
        assert result["iterations"] == stopping.iterations
        assert result["residual"] == direct.residual
        assert result["u_final"] == direct.u_final.tolist()

    def test_trajectory_csv_rows(self, blur_solve):
        result, rows, direct = blur_solve
        body = rows[1:]
        assert len(body) == direct.trajectory.times.shape[0]
        assert float(body[0][0]) == 0.0
        # full round-trip precision
        assert float(body[-1][1]) == result["residual"] == direct.residual

    def test_trajectory_header_with_states(self, blur_solve):
        _, rows, _ = blur_solve
        assert rows[0] == ["t", "residual_norm", "error_vs_reference"] + [
            f"state_{i}" for i in range(64)]

    def test_byte_identical_reruns(self, tmp_path):
        solve = write_config(tmp_path, "solve.json", problem={"name": "hilbert", "n": 6},
                             delta=0.01, seed=5)
        # at 4.9 the noisy data's norm falls below C*delta, so that row is a
        # failure and failure rows are pinned too; the 1e-4 row is continued
        # across its bisection bracket
        nonlinear = write_config(tmp_path, "nonlinear.json", problem={"name": "cubic", "n": 8},
                                 C=1.1, seed=7, delta_sequence=[4.9, 1e-2, 1e-4])
        for command, path, artifacts in [
                ("solve", solve, ("results.json", "trajectory.csv")),
                ("nonlinear", nonlinear,
                 ("nonlinear.csv", "scan_trace_1.csv", "scan_trace_2.csv"))]:
            argv = [command, "--config", str(path), "--quiet", "--store-trajectory"]
            assert main(argv) == EXIT_OK
            first = [(tmp_path / "out" / name).read_bytes() for name in artifacts]
            assert main(argv) == EXIT_OK
            assert [(tmp_path / "out" / name).read_bytes() for name in artifacts] == first
        assert b"must exceed C*delta" in (tmp_path / "out" / "nonlinear.csv").read_bytes()
        assert not (tmp_path / "out" / "scan_trace_0.csv").exists()

    def test_null_space_rejection(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            problem={"name": "rank_deficient", "n": 12, "rank": 6, "seed": 1},
            schedule={"c0": 1.0, "c1": 2.0, "b": 0.5},
            delta=0.01, seed=13, in_range_closure=False)
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_PRECONDITION
        err = json.loads(capsys.readouterr().out)
        assert "data has null-space component" in err["error"]["message"]

    def test_trajectory_artifact(self, tmp_path):
        path = write_config(tmp_path, delta=0.1, noise=False)
        assert main(["solve", "--config", str(path), "--quiet",
                     "--store-trajectory"]) == EXIT_OK
        rows = read_csv(tmp_path / "out" / "trajectory.csv")
        assert rows[0][:2] == ["t", "residual_norm"]
        assert float(rows[1][0]) == 0.0

    def test_zero_stopping_time(self, tmp_path):
        # delta 0.5 on unit data puts the root at eps(0): the run stops at the
        # zero start state, which the CLI scores against y = f
        path = write_config(tmp_path, delta=0.5, noise=False)
        assert main(["solve", "--config", str(path), "--quiet",
                     "--store-trajectory"]) == EXIT_OK
        result = json.loads((tmp_path / "out" / "results.json").read_text())
        assert result["t_delta"] == 0.0
        assert result["u_final"] == [0.0] * 4
        y_norm = float(np.linalg.norm(identity_problem(4).y_reference))
        assert result["error_vs_reference"] == y_norm == 1.0
        rows = read_csv(tmp_path / "out" / "trajectory.csv")
        assert len(rows) == 2
        assert [float(cell) for cell in rows[1][:3]] == [0.0, result["residual"], y_norm]

    def test_missing_delta(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_numerical_failure_exits_4(self, tmp_path, capsys):
        # no quadrature panel can meet a tolerance of 1e-300
        path = write_config(tmp_path, problem={"name": "gaussian_blur", "n": 32, "width": 0.05},
                            delta=1e-2, seed=7, relative_tolerance=1e-300,
                            absolute_tolerance=1e-300)
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["code"], err["stage"], err["type"]) == (
            EXIT_NUMERICAL, "integration", "NumericalError")
        assert not (tmp_path / "out").exists()


class TestConvergence:
    def test_hilbert_table(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "hilbert", "n": 8},
                            delta_sequence=[1e-1, 1e-2, 1e-3], seed=21)
        assert main(["convergence", "--config", str(path), "--quiet"]) == EXIT_OK
        rows = read_csv(tmp_path / "out" / "convergence.csv")
        assert tuple(rows[0]) == CONVERGENCE_COLUMNS
        body = rows[1:]
        assert len(body) == 3
        assert all(row[-1] == "" for row in body)
        t_delta = [float(r[2]) for r in body]
        assert all(b > a for a, b in zip(t_delta[:-1], t_delta[1:]))
        norm_ratio = [float(r[6]) for r in body]
        assert all(nr <= 1.0 + 1e-10 for nr in norm_ratio)

    def test_deterministic_modulo_timing(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "hilbert", "n": 6},
                            delta_sequence=[1e-1, 1e-2, 1e-3], seed=4)
        timing_col = CONVERGENCE_COLUMNS.index("wall_time_ms")

        def strip(rows):
            return [row[:timing_col] + row[timing_col + 1:] for row in rows]

        assert main(["convergence", "--config", str(path), "--quiet"]) == EXIT_OK
        first = strip(read_csv(tmp_path / "out" / "convergence.csv"))
        assert main(["convergence", "--config", str(path), "--quiet"]) == EXIT_OK
        second = strip(read_csv(tmp_path / "out" / "convergence.csv"))
        assert first == second

    def test_row_failures_recorded_and_run_continues(self, tmp_path):
        # C = 1 with out-of-range noise fails per row; the table still lands
        path = write_config(
            tmp_path,
            problem={"name": "rank_deficient", "n": 12, "rank": 6, "seed": 1},
            schedule={"c0": 1.0, "c1": 2.0, "b": 0.5},
            delta_sequence=[1e-1, 1e-2, 1e-3], seed=13, in_range_closure=False)
        assert main(["convergence", "--config", str(path), "--quiet"]) == EXIT_OK
        rows = read_csv(tmp_path / "out" / "convergence.csv")
        body = rows[1:]
        assert len(body) == 3
        assert all("null-space component" in row[-1] for row in body)
        assert all(row[1] == "" for row in body)

    def test_trajectory_header_without_states(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "hilbert", "n": 6},
                            delta_sequence=[1e-1, 1e-2, 1e-3], seed=4)
        assert main(["convergence", "--config", str(path), "--quiet",
                     "--store-trajectory"]) == EXIT_OK
        for k in range(3):
            rows = read_csv(tmp_path / "out" / f"trajectory_{k}.csv")
            assert rows[0] == ["t", "residual_norm", "error_vs_reference"]

    def test_needs_three_deltas(self, tmp_path):
        path = write_config(tmp_path, delta_sequence=[1e-1, 1e-2])
        assert main(["convergence", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_sequence_must_decrease(self, tmp_path):
        path = write_config(tmp_path, delta_sequence=[1e-2, 1e-1, 1e-3])
        assert main(["convergence", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_delta_above_data_norm(self, tmp_path):
        path = write_config(tmp_path, delta_sequence=[5.0, 1.0, 0.5])
        assert main(["convergence", "--config", str(path), "--quiet"]) == EXIT_CONFIG


class TestNonlinear:
    def test_cubic_table(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "cubic", "n": 8},
                            C=1.1, delta_sequence=[1e-1, 1e-2, 1e-3, 1e-4], seed=7)
        assert main(["nonlinear", "--config", str(path), "--quiet"]) == EXIT_OK
        rows = read_csv(tmp_path / "out" / "nonlinear.csv")
        assert tuple(rows[0]) == NONLINEAR_COLUMNS
        for row in rows[1:]:
            delta = float(row[0])
            residual = float(row[2])
            gap = float(row[4])
            assert abs(residual - 1.1 * delta) <= 1e-6
            assert gap <= (1.1 ** 2 - 1.0) * delta ** 2
        errors = [float(row[3]) for row in rows[1:]]
        assert errors[-1] < errors[0] / 10.0

    def test_scan_trace_artifact(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "cubic", "n": 4},
                            C=1.1, delta_sequence=[1e-1, 1e-2], seed=7)
        assert main(["nonlinear", "--config", str(path), "--quiet",
                     "--store-trajectory"]) == EXIT_OK
        for k in range(2):
            path = tmp_path / "out" / f"scan_trace_{k}.csv"
            rows = read_csv(path)
            assert rows[0] == ["epsilon", "h", "F_value", "gap_certificate"]
            assert len(rows) > 2
            # every cell is a float's repr: csv.writer over the reprs of the
            # parsed cells gives the file back byte for byte
            comment = path.read_bytes().split(b"\n")[0] + b"\n"
            expected = io.StringIO()
            writer = csv.writer(expected)
            writer.writerow(rows[0])
            writer.writerows([repr(float(v)) for v in row] for row in rows[1:])
            assert path.read_bytes() == comment + expected.getvalue().encode("ascii")

    def test_overflowing_map_is_a_failure_row(self, tmp_path):
        # the Python-float cube at the search bracket's end, 1e104, overflows:
        # the row records it as a failure and the command goes on
        path = write_config(tmp_path, problem={"name": "cubic", "n": 2, "y": [1e30, 1.0]},
                            C=1.5, delta_sequence=[1e-3])
        assert main(["nonlinear", "--config", str(path), "--quiet"]) == EXIT_OK
        rows = read_csv(tmp_path / "out" / "nonlinear.csv")
        assert rows[1:] == [["0.001", "", "", "", "", "coordinate 0 overflows on its search "
                             "bracket [-1e+104, 1e+104] at eps = 1e-14"]]

    def test_overflowing_data_norm_is_a_failure_row(self, tmp_path):
        # ||f|| = 1e180: its square overflows, with no warning, to a search
        # radius the row refuses by eps
        path = write_config(tmp_path, problem={"name": "cubic", "n": 2, "y": [1e60, 1.0]},
                            C=1.5, delta_sequence=[1e-3])
        assert main(["nonlinear", "--config", str(path), "--quiet"]) == EXIT_OK
        rows = read_csv(tmp_path / "out" / "nonlinear.csv")
        assert rows[1:] == [["0.001", "", "", "", "", "search radius overflows at eps = 1e-14"]]

    def test_overflowing_data_is_refused_at_build(self, tmp_path, capsys):
        path = write_config(tmp_path, problem={"name": "cubic", "n": 2, "y": [1e200, 1.0]},
                            C=1.5, delta_sequence=[1e-3])
        assert main(["nonlinear", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["message"] == ("problem parameters invalid: cubic data A(y) overflows: "
                                  "y or the coefficients are too large")
        assert not (tmp_path / "out").exists()

    def test_requires_c_above_one(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "cubic", "n": 4},
                            C=1.0, delta_sequence=[1e-1, 1e-2])
        assert main(["nonlinear", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_requires_nonlinear_kind(self, tmp_path):
        path = write_config(tmp_path, C=1.1, delta_sequence=[1e-1, 1e-2])
        assert main(["nonlinear", "--config", str(path), "--quiet"]) == EXIT_CONFIG


def test_summary_lines(tmp_path, capsys):
    # without --quiet each command prints one line naming what it wrote
    out = tmp_path / "out"
    path = write_config(tmp_path, delta=0.1, noise=False)
    assert main(["solve", "--config", str(path)]) == EXIT_OK
    result = json.loads((out / "results.json").read_text())
    assert capsys.readouterr().out == (
        f"solve identity(n=4): epsilon_star={result['epsilon_star']:.6e} "
        f"t_delta={result['t_delta']:.6e} residual={result['residual']:.6e}\n")
    path = write_config(tmp_path, problem={"name": "hilbert", "n": 6},
                        delta_sequence=[1e-1, 1e-2, 1e-3])
    assert main(["convergence", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        f"convergence hilbert(n=6): 3 rows -> {out / 'convergence.csv'}\n")
    path = write_config(tmp_path, problem={"name": "cubic", "n": 4}, C=1.1,
                        delta_sequence=[1e-1, 1e-2])
    assert main(["nonlinear", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == f"nonlinear: 2 rows -> {out / 'nonlinear.csv'}\n"


class TestCheckSchedule:
    def test_default_admissible(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["check-schedule", "--config", str(path), "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "schedule_report.json").read_text())
        assert report["admissible"]
        assert report["r_at_50"] < 1e-15
        assert report["q_decreasing_full_grid"]

    def test_schedule_report_json_schema_pinned(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["check-schedule", "--config", str(path), "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "schedule_report.json").read_text())
        assert sorted(report.keys()) == [
            "admissible", "config_hash", "q_decreasing_full_grid",
            "q_tail_decreasing", "q_values", "r_at_50", "r_tail_decreasing",
            "r_values", "schedule", "t_grid",
        ]

    def test_module_entry_point(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        # both documented entries: the package's __main__ and the cli module's
        for module in ("illposed", "illposed.cli"):
            path = write_config(tmp_path, output_dir=str(tmp_path / module))
            proc = subprocess.run([sys.executable, "-m", module, "check-schedule",
                                   "--config", str(path)], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
            assert "admissible" in proc.stdout
            report = json.loads((tmp_path / module / "schedule_report.json").read_text())
            assert report["admissible"]

    @pytest.mark.parametrize("schedule, verdict, code", [
        ({}, "admissible, r(50)=1.377e-21", EXIT_OK),
        ({"c0": 1e20}, "NOT admissible, r(50)=1.929e-12", EXIT_NUMERICAL),
    ], ids=["default", "c0_1e20"])
    def test_summary_line(self, tmp_path, capsys, schedule, verdict, code):
        path = write_config(tmp_path, schedule=schedule)
        assert main(["check-schedule", "--config", str(path)]) == code
        c0 = schedule.get("c0", 1.0)
        assert capsys.readouterr().out == f"schedule c0={c0} c1=1.0 b=0.5: {verdict}\n"

    # eps(t) underflows to 0, or eps(t)**-2 overflows: these exited 1 with a traceback
    @pytest.mark.parametrize("schedule, eps", [
        ({"c0": 1e300, "c1": 1e-300, "b": 0.5}, "0.0"),
        ({"c1": 1e-200}, "9.999500037496875e-203"),
    ], ids=["eps_underflow", "eps_square_overflow"])
    def test_tiny_eps_is_a_numerical_error(self, tmp_path, capsys, schedule, eps):
        path = write_config(tmp_path, schedule=schedule)
        assert main(["check-schedule", "--config", str(path)]) == EXIT_NUMERICAL
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["code"], error["type"]) == (EXIT_NUMERICAL, "NumericalError")
        assert error["message"].startswith(f"eps(t) = {eps} at t = 10000.0 is too small")
        assert not (tmp_path / "out").exists()

    def test_b_near_one(self, tmp_path):
        path = write_config(tmp_path, schedule={"c0": 1.0, "c1": 1.0, "b": 0.99})
        assert main(["check-schedule", "--config", str(path), "--quiet"]) == EXIT_OK

    def test_b_out_of_range_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, schedule={"c0": 1.0, "c1": 1.0, "b": 1.5})
        assert main(["check-schedule", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert "b must lie in (0,1)" in err["error"]["message"]


class TestConfigParsing:
    @pytest.mark.parametrize("name", ["nope.json", "."], ids=["missing", "directory"])
    def test_missing_file(self, tmp_path, capsys, name):
        assert main(["solve", "--config", str(tmp_path / name), "--quiet"]) == EXIT_CONFIG
        assert "cannot be read" in json.loads(capsys.readouterr().out)["error"]["message"]

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("content", [b'{"seed": \xff}', b'{"seed": ' + b"1" * 5000 + b"}"],
                             ids=["not_utf8", "integer_over_4300_digits"])
    def test_unreadable_json(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_config_root_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"problem": {"name": "identity"}, "delta": 0.1}]))
        assert main(["solve", "--config", str(path), "--output", str(tmp_path / "o1"),
                     "--quiet"]) == EXIT_CONFIG
        assert "must be a JSON object" in json.loads(capsys.readouterr().out)["error"]["message"]
        assert not (tmp_path / "o1").exists()

    def test_unknown_problem(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "radon"}, delta=0.1)
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_unknown_integrator(self, tmp_path):
        path = write_config(tmp_path, delta=0.1, integrator="euler")
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_runge_kutta_is_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, delta=0.1, integrator="adaptive_runge_kutta")
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert "'adaptive_runge_kutta'" in message and "test oracle" in message

    @pytest.mark.parametrize("field, value", [
        ("C", float("nan")), ("C", float("inf")), ("delta", float("nan")),
        ("delta", float("inf")), ("delta_sequence", [1e-1, float("nan"), 1e-3]),
        ("relative_tolerance", float("nan")), ("absolute_tolerance", float("inf")),
        # JSON booleans only: bool("false") is True
        ("noise", "false"), ("in_range_closure", 0), ("store_trajectory", "yes"),
        # no truncation to an integer, and no boolean read as a number
        ("seed", 7.9), ("seed", True), ("C", True), ("delta", True),
        ("delta_sequence", [True, 1e-1, 1e-2]), ("relative_tolerance", True),
        ("absolute_tolerance", True),
        # a path must be a JSON string
        ("output_dir", True),
        # JSON numbers only: float("1e-2") would read a string, and a string
        # delta_sequence would iterate its characters
        ("delta", "1e-2"), ("C", "1.0"), ("relative_tolerance", "1e-8"),
        ("delta_sequence", "521"), ("delta_sequence", ["1e-1", 1e-2, 1e-3]),
        # an integer beyond the float range
        pytest.param("C", 10 ** 400, id="C-int_beyond_float"),
        # default_rng refuses a negative seed
        ("seed", -1),
    ])
    def test_rejected_before_any_computation(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path, **{"delta": 0.1, field: value})
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        assert field in json.loads(capsys.readouterr().out)["error"]["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, overrides, field", [
        ("solve", {"problem": {"name": "gaussian_blur", "n": 16.7}}, "problem.n"),
        ("solve", {"problem": {"name": "hilbert", "n": True}}, "problem.n"),
        ("solve", {"problem": {"name": "rank_deficient", "n": 12, "rank": 6.5}},
         "problem.rank"),
        ("solve", {"problem": {"name": "rank_deficient", "seed": 3.2}}, "problem.seed"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 8.5}, "C": 1.1,
                       "delta_sequence": [1e-1, 1e-2]}, "problem.n"),
        ("solve", {"schedule": {"c0": True}}, "c0"),
        ("solve", {"problem": {"name": "gaussian_blur", "width": True}}, "problem.width"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 4, "coefficients": True}, "C": 1.1,
                       "delta_sequence": [1e-1, 1e-2]}, "problem.coefficients"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 2, "coefficients": [1.0, False]},
                       "C": 1.1, "delta_sequence": [1e-1, 1e-2]}, "problem.coefficients"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 2, "y": [True, 0.5]}, "C": 1.1,
                       "delta_sequence": [1e-1, 1e-2]}, "problem.y"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 1, "y": True}, "C": 1.1,
                       "delta_sequence": [1e-1, 1e-2]}, "problem.y"),
        ("solve", {"problem": {"name": "gaussian_blur", "width": "0.05"}}, "problem.width"),
        ("solve", {"schedule": {"b": "0.5"}}, "b"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 2, "y": ["1", 0.5]}, "C": 1.1,
                       "delta_sequence": [1e-1, 1e-2]}, "problem.y"),
        ("solve", {"problem": {"name": "rank_deficient", "seed": -1}}, "problem.seed"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 4}, "C": 1.1, "seed": -5,
                       "delta_sequence": [1e-1, 1e-2]}, "seed"),
        # a width is one number, not a list like cubic's coefficients
        ("solve", {"problem": {"name": "gaussian_blur", "width": [0.05]}}, "problem.width"),
    ], ids=["blur_n", "hilbert_n_bool", "rank", "problem_seed", "cubic_n", "schedule_c0",
            "blur_width_bool", "cubic_coefficients_bool", "cubic_coefficients_list_bool",
            "cubic_y_list_bool", "cubic_y_bool", "blur_width_string", "schedule_b_string",
            "cubic_y_list_string", "problem_seed_negative", "nonlinear_seed_negative",
            "blur_width_list"])
    def test_nested_numbers_rejected_before_any_computation(self, tmp_path, capsys,
                                                           command, overrides, field):
        path = write_config(tmp_path, **{"delta": 0.1, **overrides})
        assert main([command, "--config", str(path), "--quiet"]) == EXIT_CONFIG
        assert field in json.loads(capsys.readouterr().out)["error"]["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, overrides, message", [
        ("solve", {"problem": {"name": "gaussian_blur", "n": 4}}, "n must lie in [8, 256]"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 4, "coefficients": -1}, "C": 1.1,
                       "delta_sequence": [1e-1, 1e-2]}, "coefficients must be positive"),
        ("solve", {"delta": 5.0}, "not below the exact data norm"),
        ("nonlinear", {"problem": {"name": "cubic", "n": -1}, "C": 1.1,
                       "delta_sequence": [1e-1, 1e-2]}, "n must lie in [1, 256]"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 4, "coefficients": [1, 2]},
                       "C": 1.1, "delta_sequence": [1e-1, 1e-2]},
         "coefficients must be a scalar or 4 values"),
        # the size cap refuses before anything is allocated
        ("solve", {"problem": {"name": "identity", "n": 257}}, "n must lie in [1, 256]"),
        ("solve", {"problem": {"name": "rank_deficient", "n": 257, "rank": 6}},
         "1 <= r < n <= 256"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 257}, "C": 1.1,
                       "delta_sequence": [1e-1, 1e-2]}, "n must lie in [1, 256]"),
        ("solve", {"problem": {}}, 'needs a "problem" object with a "name" field'),
        ("solve", {"schedule": 1}, '"schedule" must be an object'),
        # a key the config does not declare is refused, not run at a default
        ("solve", {"relative_tolerence": 1e-3}, "'relative_tolerence'"),
        ("solve", {"schedule": {"B": 0.99}}, "'B'"),
        ("solve", {"problem": {"name": "gaussian_blur", "n": 16, "widht": 0.1}}, "'widht'"),
        ("solve", {"problem": {"name": "hilbert", "n": 8, "rank": 3}}, "'rank'"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 4, "width": 0.1}, "C": 1.1,
                       "delta_sequence": [1e-1, 1e-2]}, "'width'"),
        ("check-schedule", {"problem": {"name": "identity", "n": 2}, "schedule": {"B": 0.99},
                            "relative_tolerence": 1e-3}, "'relative_tolerence'"),
        # each command refuses a config that it cannot run
        ("solve", {"problem": {"name": "cubic", "n": 4}}, "problem kind 'cubic' is not linear"),
        ("nonlinear", {"problem": {"name": "cubic", "n": 4}, "C": 1.1},
         "nonlinear needs a delta_sequence"),
        # null is no delta, as is leaving it out
        ("solve", {"delta": None}, 'solve needs a single "delta" field'),
    ], ids=["blur_n_4", "cubic_negative_coefficients", "delta_above_data_norm",
            "cubic_n_negative", "cubic_coefficients_length", "identity_n_257",
            "rank_deficient_n_257", "cubic_n_257", "problem_without_name",
            "schedule_number", "unknown_key", "unknown_schedule_key",
            "unknown_blur_key", "unknown_hilbert_key", "unknown_cubic_key",
            "unknown_keys_check_schedule", "solve_cubic", "nonlinear_without_delta_sequence",
            "solve_delta_null"])
    def test_no_output_directory_on_config_error(self, tmp_path, capsys, command,
                                                 overrides, message):
        path = write_config(tmp_path, **{"delta": 0.1, **overrides})
        assert main([command, "--config", str(path), "--output", str(tmp_path / "o1"),
                     "--quiet"]) == EXIT_CONFIG
        assert message in json.loads(capsys.readouterr().out)["error"]["message"]
        assert not (tmp_path / "o1").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_output_naming_a_file_rejected_before_any_command(self, tmp_path, capsys,
                                                               under):
        afile = tmp_path / "afile"
        afile.write_bytes(b"keep me\n")
        output = afile / "sub" if under else afile
        path = write_config(tmp_path, delta=0.1, noise=False)
        assert main(["solve", "--config", str(path), "--output", str(output),
                     "--quiet"]) == EXIT_CONFIG
        assert "is not a directory" in json.loads(capsys.readouterr().out)["error"]["message"]
        assert afile.read_bytes() == b"keep me\n"

    def test_config_hash_stable_under_whitespace(self, tmp_path):
        p1 = write_config(tmp_path, "a.json", delta=0.1)
        cfg = json.loads(p1.read_text())
        p2 = tmp_path / "b.json"
        p2.write_text(json.dumps(cfg, indent=4, sort_keys=True))
        assert load_config(p1).config_hash == load_config(p2).config_hash

    def test_output_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, delta=0.1, noise=False)
        other = tmp_path / "elsewhere"
        assert main(["solve", "--config", str(path), "--output", str(other),
                     "--quiet"]) == EXIT_OK
        assert (other / "results.json").exists()
