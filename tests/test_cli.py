import csv
import io
import json

import numpy as np
import pytest

from illposed import Trajectory
from illposed.cli import (CONVERGENCE_COLUMNS, EXIT_CONFIG, EXIT_OK,
                          EXIT_PRECONDITION, NONLINEAR_COLUMNS,
                          _write_trajectory_csv, load_config, main)


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


@pytest.mark.parametrize("with_reference, include_state",
                         [(True, True), (True, False), (False, True), (False, False)])
def test_trajectory_csv_matches_csv_writer(tmp_path, with_reference, include_state):
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-8]
    states = np.array([special[k:] + special[:k] for k in range(3)])
    traj = Trajectory(times=np.array([0.0, 5e-324, 1e300]),
                      residual_norms=np.array([np.nan, -0.0, np.inf]), states=states)
    y = np.linspace(-1.0, 1.0, len(special)) if with_reference else None
    _write_trajectory_csv(tmp_path / "t.csv", "abc", traj, y, include_state)

    header = ["t", "residual_norm"]
    header += ["error_vs_reference"] if with_reference else []
    header += [f"state_{i}" for i in range(len(special))] if include_state else []
    rows = []
    for t, res, state in zip(traj.times, traj.residual_norms, states):
        row = [repr(float(t)), repr(float(res))]
        if with_reference:
            row.append(repr(float(np.linalg.norm(state - y))))
        if include_state:
            row += [repr(float(v)) for v in state]
        rows.append(row)
    expected = io.StringIO()
    expected.write("# config_hash=abc\n")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode("utf-8")


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

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "hilbert", "n": 6},
                            delta=0.01, seed=5)
        argv = ["solve", "--config", str(path), "--quiet", "--store-trajectory"]
        artifacts = ("results.json", "trajectory.csv")
        assert main(argv) == EXIT_OK
        first = [(tmp_path / "out" / name).read_bytes() for name in artifacts]
        assert main(argv) == EXIT_OK
        assert [(tmp_path / "out" / name).read_bytes() for name in artifacts] == first

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

    def test_missing_delta(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG


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
        rows = read_csv(tmp_path / "out" / "scan_trace_0.csv")
        assert rows[0] == ["epsilon", "h", "F_value", "gap_certificate"]

    def test_requires_c_above_one(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "cubic", "n": 4},
                            C=1.0, delta_sequence=[1e-1, 1e-2])
        assert main(["nonlinear", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_requires_nonlinear_kind(self, tmp_path):
        path = write_config(tmp_path, C=1.1, delta_sequence=[1e-1, 1e-2])
        assert main(["nonlinear", "--config", str(path), "--quiet"]) == EXIT_CONFIG


class TestCheckSchedule:
    def test_default_admissible(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["check-schedule", "--config", str(path), "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "schedule_report.json").read_text())
        assert report["admissible"]
        assert report["r_at_50"] < 1e-15
        assert report["q_decreasing_full_grid"]

    def test_b_near_one(self, tmp_path):
        path = write_config(tmp_path, schedule={"c0": 1.0, "c1": 1.0, "b": 0.99})
        assert main(["check-schedule", "--config", str(path), "--quiet"]) == EXIT_OK

    def test_b_out_of_range_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, schedule={"c0": 1.0, "c1": 1.0, "b": 1.5})
        assert main(["check-schedule", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert "b must lie in (0,1)" in err["error"]["message"]


class TestConfigParsing:
    def test_missing_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--quiet"]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_unknown_problem(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "radon"}, delta=0.1)
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_unknown_integrator(self, tmp_path):
        path = write_config(tmp_path, delta=0.1, integrator="euler")
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_rk_tolerance_below_floor(self, tmp_path, capsys):
        path = write_config(tmp_path, delta=0.1, integrator="adaptive_runge_kutta",
                            relative_tolerance=1e-15)
        assert main(["solve", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)
        assert "relative_tolerance" in err["error"]["message"]

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
