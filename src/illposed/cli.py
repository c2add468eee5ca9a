"""Command-line harness: config-driven solve, convergence, nonlinear, and
schedule-check workflows emitting reproducible JSON/CSV artifacts.

Configs are single JSON files, fully validated before any computation.
Exit codes: 0 success, 2 config error, 3 precondition violation,
4 numerical failure.  Artifacts embed a hash of the canonical config so
every output names the inputs that produced it; apart from the measured
``wall_time_ms`` column, repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsm import DSMConfig, run_dsm
from .errors import ConfigError, IllposedError, NumericalError, PreconditionError
from .nonlinear import nonlinear_discrepancy_result
from .operators import decompose
from .problems import (NoiseSpec, TestProblem, add_noise, cubic_separable_problem,
                       gaussian_blur_problem, hilbert_problem, identity_problem,
                       rank_deficient_problem)
from .schedule import PowerLawSchedule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

CONVERGENCE_COLUMNS = ("delta", "epsilon_star", "t_delta", "residual",
                       "dsm_error", "tikhonov_error", "norm_ratio",
                       "wall_time_ms", "failure")
NONLINEAR_COLUMNS = ("delta", "epsilon_delta", "residual_at_root", "error",
                     "gap_certificate", "failure")

_CUBIC_Y_PATTERN = (1.0, -1.0, 0.5)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, plus the raw dict it came from."""

    problem: dict
    schedule: PowerLawSchedule
    C: float
    delta: float | None
    delta_sequence: tuple[float, ...]
    seed: int
    noise: bool
    in_range_closure: bool
    dsm_config: DSMConfig
    store_trajectory: bool
    output_dir: str
    raw: dict

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    problem = raw.get("problem")
    if not isinstance(problem, dict) or "name" not in problem:
        raise ConfigError('config needs a "problem" object with a "name" field')

    sched_raw = raw.get("schedule", {})
    if not isinstance(sched_raw, dict):
        raise ConfigError('"schedule" must be an object with fields c0, c1, b')

    try:
        schedule = PowerLawSchedule(
            c0=float(sched_raw.get("c0", 1.0)),
            c1=float(sched_raw.get("c1", 1.0)),
            b=float(sched_raw.get("b", 0.5)),
        )
        C = float(raw.get("C", 1.0))
        delta = raw.get("delta")
        delta = float(delta) if delta is not None else None
        seq = tuple(float(d) for d in raw.get("delta_sequence", ()))
        seed = int(raw.get("seed", 0))
        rel = float(raw.get("relative_tolerance", 1e-8))
        abs_ = float(raw.get("absolute_tolerance", 1e-12))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed numeric config field: {exc}") from None

    if C < 1.0:
        raise ConfigError(f"C must be at least 1, got {C}")
    if delta is not None and delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    if seq:
        if any(d <= 0 for d in seq):
            raise ConfigError("delta_sequence entries must be positive")
        if any(b >= a for a, b in zip(seq[:-1], seq[1:])):
            raise ConfigError("delta_sequence must be strictly decreasing")

    dsm_config = DSMConfig(integrator=raw.get("integrator", "exponential_quadrature"),
                           relative_tolerance=rel, absolute_tolerance=abs_)

    return ExperimentConfig(
        problem=problem,
        schedule=schedule,
        C=C,
        delta=delta,
        delta_sequence=seq,
        seed=seed,
        noise=bool(raw.get("noise", True)),
        in_range_closure=bool(raw.get("in_range_closure", True)),
        dsm_config=dsm_config,
        store_trajectory=bool(raw.get("store_trajectory", False)),
        output_dir=str(raw.get("output_dir", "out")),
        raw=raw,
    )


def build_linear_problem(cfg: ExperimentConfig) -> TestProblem:
    p = cfg.problem
    name = p["name"]
    try:
        if name == "identity":
            return identity_problem(int(p.get("n", 2)))
        if name == "hilbert":
            return hilbert_problem(int(p.get("n", 8)))
        if name == "gaussian_blur":
            return gaussian_blur_problem(int(p.get("n", 64)), float(p.get("width", 0.05)))
        if name == "rank_deficient":
            return rank_deficient_problem(int(p.get("n", 12)), int(p.get("rank", 6)),
                                          int(p.get("seed", cfg.seed)))
    except PreconditionError as exc:
        raise ConfigError(f"problem parameters invalid: {exc}") from None
    raise ConfigError(f"unknown linear problem kind {name!r}")


def build_nonlinear_problem(cfg: ExperimentConfig):
    p = cfg.problem
    if p["name"] != "cubic":
        raise ConfigError(f"problem kind {p['name']!r} is not nonlinear; use \"cubic\"")
    n = int(p.get("n", 8))
    coeffs = p.get("coefficients", 1.0)
    y = p.get("y")
    if y is None:
        y = [_CUBIC_Y_PATTERN[i % len(_CUBIC_Y_PATTERN)] for i in range(n)]
    try:
        op, f_exact = cubic_separable_problem(n, coeffs, y)
    except PreconditionError as exc:
        raise ConfigError(f"problem parameters invalid: {exc}") from None
    return op, f_exact, np.asarray(y, dtype=float)


def _check_deltas(deltas, f_exact) -> None:
    fnorm = float(np.linalg.norm(f_exact))
    for d in deltas:
        if d >= fnorm:
            raise ConfigError(
                f"delta = {d} is not below the exact data norm {fnorm}")


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, config_hash: str, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_trajectory_csv(path: Path, config_hash: str, trajectory, y_reference,
                          include_state: bool = False) -> None:
    """The trajectory as CSV, byte for byte what ``_write_csv`` would write:
    its float cells need no quoting, so pre-rendered lines go out as they are."""
    header, lines = trajectory.to_csv_lines(y_reference, include_state)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        end = writer.dialect.lineterminator
        fh.writelines(line + end for line in lines)


def cmd_solve(cfg: ExperimentConfig, out_dir: Path, store_trajectory: bool,
              quiet: bool) -> int:
    if cfg.delta is None:
        raise ConfigError('solve needs a single "delta" field in the config')
    prob = build_linear_problem(cfg)
    _check_deltas([cfg.delta], prob.f_exact)
    dec = decompose(prob.operator)
    if cfg.noise:
        f_delta = add_noise(prob.f_exact, dec,
                            NoiseSpec(cfg.delta, cfg.seed, cfg.in_range_closure))
    else:
        f_delta = prob.f_exact
    result = run_dsm(dec, cfg.schedule, f_delta, cfg.delta, cfg.C,
                     cfg.dsm_config, y_reference=prob.y_reference)

    y_norm = float(np.linalg.norm(prob.y_reference))
    payload = result.to_json_dict()
    payload.update({
        "config_hash": cfg.config_hash,
        "problem": prob.label,
        "delta": cfg.delta,
        "C": cfg.C,
        "norm_ratio": float(np.linalg.norm(result.w_final)) / y_norm,
    })
    _write_json(out_dir / "results.json", payload)
    if store_trajectory and result.trajectory is not None:
        _write_trajectory_csv(out_dir / "trajectory.csv", cfg.config_hash,
                              result.trajectory, prob.y_reference, include_state=True)
    if not quiet:
        print(f"solve {prob.label}: epsilon_star={result.stopping.epsilon_star:.6e} "
              f"t_delta={result.stopping.t_delta:.6e} residual={result.residual:.6e}")
    return EXIT_OK


def cmd_convergence(cfg: ExperimentConfig, out_dir: Path, store_trajectory: bool,
                    quiet: bool) -> int:
    if len(cfg.delta_sequence) < 3:
        raise ConfigError("convergence needs a delta_sequence of length >= 3")
    prob = build_linear_problem(cfg)
    _check_deltas(cfg.delta_sequence, prob.f_exact)
    dec = decompose(prob.operator)
    y = prob.y_reference
    y_norm = float(np.linalg.norm(y))

    rows = []
    for k, delta in enumerate(cfg.delta_sequence):
        started = time.perf_counter()
        try:
            if cfg.noise:
                f_delta = add_noise(prob.f_exact, dec,
                                    NoiseSpec(delta, cfg.seed + k, cfg.in_range_closure))
            else:
                f_delta = prob.f_exact
            result = run_dsm(dec, cfg.schedule, f_delta, delta, cfg.C,
                             cfg.dsm_config, y_reference=y)
        except IllposedError as exc:
            elapsed = 1000.0 * (time.perf_counter() - started)
            rows.append([_fmt(delta), "", "", "", "", "", "", _fmt(elapsed), str(exc)])
            continue
        elapsed = 1000.0 * (time.perf_counter() - started)
        rows.append([
            _fmt(delta),
            _fmt(result.stopping.epsilon_star),
            _fmt(result.stopping.t_delta),
            _fmt(result.residual),
            _fmt(result.error_vs_reference),
            _fmt(result.tikhonov_error_vs_reference),
            _fmt(np.linalg.norm(result.w_final) / y_norm),
            _fmt(elapsed),
            "",
        ])
        if store_trajectory and result.trajectory is not None:
            _write_trajectory_csv(out_dir / f"trajectory_{k}.csv", cfg.config_hash,
                                  result.trajectory, y)
    _write_csv(out_dir / "convergence.csv", cfg.config_hash,
               CONVERGENCE_COLUMNS, rows)
    if not quiet:
        print(f"convergence {prob.label}: {len(rows)} rows -> {out_dir / 'convergence.csv'}")
    return EXIT_OK


def cmd_nonlinear(cfg: ExperimentConfig, out_dir: Path, store_trajectory: bool,
                  quiet: bool) -> int:
    if not cfg.delta_sequence:
        raise ConfigError("nonlinear needs a delta_sequence")
    if cfg.C <= 1.0:
        raise ConfigError("nonlinear runs need C > 1")
    op, f_exact, y = build_nonlinear_problem(cfg)
    _check_deltas(cfg.delta_sequence, f_exact)

    rows = []
    for k, delta in enumerate(cfg.delta_sequence):
        try:
            noise = NoiseSpec(delta, cfg.seed + k, in_range_closure=False)
            f_delta = add_noise(f_exact, None, noise) if cfg.noise else f_exact
            res = nonlinear_discrepancy_result(op, f_delta, delta, cfg.C)
        except IllposedError as exc:
            rows.append([_fmt(delta), "", "", "", "", str(exc)])
            continue
        rows.append([
            _fmt(delta),
            _fmt(res.epsilon_delta),
            _fmt(res.residual),
            _fmt(np.linalg.norm(res.u_delta - y)),
            _fmt(res.gap_certificate),
            "",
        ])
        if store_trajectory:
            _write_csv(out_dir / f"scan_trace_{k}.csv", cfg.config_hash,
                       ("epsilon", "h", "F_value", "gap_certificate"),
                       [[_fmt(a), _fmt(b), _fmt(c), _fmt(d)] for a, b, c, d in res.trace])
    _write_csv(out_dir / "nonlinear.csv", cfg.config_hash, NONLINEAR_COLUMNS, rows)
    if not quiet:
        print(f"nonlinear: {len(rows)} rows -> {out_dir / 'nonlinear.csv'}")
    return EXIT_OK


def cmd_check_schedule(cfg: ExperimentConfig, out_dir: Path, store_trajectory: bool,
                       quiet: bool) -> int:
    t_grid = np.array([10.0, 100.0, 1000.0, 10000.0])
    report = cfg.schedule.admissibility_report(t_grid)
    r50 = float(np.exp(-50.0) / cfg.schedule.eval(50.0))
    q_all_decreasing = bool(np.all(np.diff(report.q_values) < 0))
    payload = report.to_json_dict()
    payload.update({
        "config_hash": cfg.config_hash,
        "r_at_50": r50,
        "q_decreasing_full_grid": q_all_decreasing,
        "schedule": {"c0": cfg.schedule.c0, "c1": cfg.schedule.c1, "b": cfg.schedule.b},
    })
    _write_json(out_dir / "schedule_report.json", payload)
    # the decay conditions are asymptotic; the gate is the tail behavior,
    # full-grid monotonicity stays informational (transients near t ~ c0
    # are legitimate for b close to 1)
    ok = report.admissible
    if not quiet:
        verdict = "admissible" if ok else "NOT admissible"
        print(f"schedule c0={cfg.schedule.c0} c1={cfg.schedule.c1} b={cfg.schedule.b}: "
              f"{verdict}, r(50)={r50:.3e}")
    return EXIT_OK if ok else EXIT_NUMERICAL


_COMMANDS = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "nonlinear": cmd_nonlinear,
    "check-schedule": cmd_check_schedule,
}


def _emit_error(exc: IllposedError, code: int) -> None:
    payload = {"error": {
        "code": code,
        "type": type(exc).__name__,
        "stage": exc.stage,
        "message": str(exc),
    }}
    print(json.dumps(payload, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="illposed",
        description="Solve ill-posed linear equations by a regularized evolution "
                    "with a discrepancy-principle stopping time.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--output", default=None, help="artifact directory "
                       "(default: output_dir from the config)")
        p.add_argument("--store-trajectory", action="store_true",
                       help="also write trajectory / scan-trace CSVs")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = Path(args.output if args.output is not None else cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        store = args.store_trajectory or cfg.store_trajectory
        return _COMMANDS[args.command](cfg, out_dir, store, args.quiet)
    except ConfigError as exc:
        _emit_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except NumericalError as exc:
        _emit_error(exc, EXIT_NUMERICAL)
        return EXIT_NUMERICAL
    except PreconditionError as exc:
        _emit_error(exc, EXIT_PRECONDITION)
        return EXIT_PRECONDITION
    except IllposedError as exc:
        _emit_error(exc, EXIT_NUMERICAL)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
