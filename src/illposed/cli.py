"""Command-line harness: config-driven solve, convergence, nonlinear, and
schedule-check workflows emitting reproducible JSON/CSV artifacts.

Configs are single JSON files, fully validated before any computation.
Exit codes: 0 success, 2 config error, 3 precondition violation,
4 numerical failure.  Artifacts embed a hash of the canonical config so
every output names the inputs that produced it; apart from the measured
``wall_time_ms`` column, repeated runs are byte-identical.  An in-process
caller of ``main`` reuses up to four built linear problems; they are
immutable, so a reused one gives the same bytes as a fresh build.

This module alone defines the artifact schema; the library's results carry
data and no serialization.  ``cmd_solve`` builds ``results.json``,
``cmd_check_schedule`` builds ``schedule_report.json``,
``_write_trajectory_csv`` writes ``trajectory*.csv`` (t, residual_norm,
error_vs_reference, then state_0 ... state_{n-1} for ``solve``), and
``_write_csv`` writes the convergence, nonlinear and scan-trace tables.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsm import DSMConfig, run_dsm
from .errors import ConfigError, IllposedError, PreconditionError
from .nonlinear import nonlinear_discrepancy_result
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


def _number(value, key: str, kind=float):
    """``value`` as ``kind`` if it is a JSON number the cast keeps: no "1e-2",
    no true as 1, and for an int no 7.9 as 7."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError(f"{key!r} must be a number of type {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key!r} is too large for a float") from None


def _numbers(value, key: str):
    """``_number`` of a scalar, or of each entry of a list."""
    return [_number(v, key) for v in value] if isinstance(value, list) else _number(value, key)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # bad JSON, a non-UTF-8 file, or an integer too long to parse
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    problem = raw.get("problem")
    if not isinstance(problem, dict) or "name" not in problem:
        raise ConfigError('config needs a "problem" object with a "name" field')
    for key in ("n", "rank", "seed"):
        _number(problem.get(key, 0), f"problem.{key}", int)
    seq = raw.get("delta_sequence", [])
    if not isinstance(seq, list):
        raise ConfigError(f"'delta_sequence' must be a list of numbers, got {seq!r}")

    sched_raw = raw.get("schedule", {})
    if not isinstance(sched_raw, dict):
        raise ConfigError('"schedule" must be an object with fields c0, c1, b')

    schedule = PowerLawSchedule(**{key: _number(sched_raw[key], key)
                                   for key in ("c0", "c1", "b") if key in sched_raw})
    C = _number(raw.get("C", 1.0), "C")
    delta = None if raw.get("delta") is None else _number(raw["delta"], "delta")
    seq = tuple(_number(d, "delta_sequence") for d in seq)
    seed = _number(raw.get("seed", 0), "seed", int)
    rel = _number(raw.get("relative_tolerance", 1e-8), "relative_tolerance")
    abs_ = _number(raw.get("absolute_tolerance", 1e-12), "absolute_tolerance")
    problem = {**problem, **{key: _numbers(problem[key], f"problem.{key}")
                             for key in ("width", "coefficients", "y")
                             if key in problem}}

    for key, value in (("seed", seed), ("problem.seed", problem.get("seed", 0))):
        if value < 0:
            raise ConfigError(f"{key!r} must be a non-negative integer, got {value}")

    if not (C >= 1.0 and math.isfinite(C)):
        raise ConfigError(f"C must be finite and at least 1, got {C}")
    if delta is not None and not (delta > 0 and math.isfinite(delta)):
        raise ConfigError(f"delta must be positive and finite, got {delta}")
    if seq:
        if not all(d > 0 and math.isfinite(d) for d in seq):
            raise ConfigError("delta_sequence entries must be positive and finite")
        if any(b >= a for a, b in zip(seq[:-1], seq[1:])):
            raise ConfigError("delta_sequence must be strictly decreasing")
    integrator = raw.get("integrator", "exponential_quadrature")
    if integrator != "exponential_quadrature":
        raise ConfigError(f"unknown integrator {integrator!r}: the only one is "
                          f"\"exponential_quadrature\" (Runge-Kutta is a test oracle only)")
    flags = {key: raw.get(key, default) for key, default in
             (("noise", True), ("in_range_closure", True), ("store_trajectory", False))}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise ConfigError(f"{key!r} must be true or false, got {value!r}")
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"'output_dir' must be a string, got {output_dir!r}")

    dsm_config = DSMConfig(relative_tolerance=rel, absolute_tolerance=abs_)

    return ExperimentConfig(
        problem=problem,
        schedule=schedule,
        C=C,
        delta=delta,
        delta_sequence=seq,
        seed=seed,
        noise=flags["noise"],
        in_range_closure=flags["in_range_closure"],
        dsm_config=dsm_config,
        store_trajectory=flags["store_trajectory"],
        output_dir=output_dir,
        raw=raw,
    )


def build_linear_problem(cfg: ExperimentConfig) -> TestProblem:
    p = cfg.problem
    name = p["name"]
    if name == "identity":
        args = (p.get("n", 2),)
    elif name == "hilbert":
        args = (p.get("n", 8),)
    elif name == "gaussian_blur":
        args = (p.get("n", 64), p.get("width", 0.05))
    elif name == "rank_deficient":
        args = (p.get("n", 12), p.get("rank", 6), p.get("seed", cfg.seed))
    else:
        raise ConfigError(f"unknown linear problem kind {name!r}")
    try:
        return _built_problem(name, *args)
    except PreconditionError as exc:
        raise ConfigError(f"problem parameters invalid: {exc}") from None


@functools.lru_cache(maxsize=4)
def _built_problem(name: str, *args) -> TestProblem:
    """The generator's problem, built once per argument set and shared: it is
    immutable.  Generators are looked up by module-level name at call time."""
    return {"identity": identity_problem, "hilbert": hilbert_problem,
            "gaussian_blur": gaussian_blur_problem,
            "rank_deficient": rank_deficient_problem}[name](*args)


def build_nonlinear_problem(cfg: ExperimentConfig):
    p = cfg.problem
    if p["name"] != "cubic":
        raise ConfigError(f"problem kind {p['name']!r} is not nonlinear; use \"cubic\"")
    n = p.get("n", 8)
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
                          include_state: bool) -> None:
    """The trajectory as CSV: t, residual_norm, error_vs_reference, then the
    state when ``include_state``.  Byte for byte what ``_write_csv`` would
    write: every cell is a float at full round-trip precision, so none needs
    quoting, and a line is the floats' reprs joined by commas."""
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
            if include_state:  # a row at a time: the whole matrix as floats is MBs
                row.extend(state.tolist())
            fh.write(repr(row)[1:-1].replace(", ", ",") + end)


def _noisy_run(cfg: ExperimentConfig, prob: TestProblem, delta: float, seed: int):
    """``run_dsm`` on the problem's spectrum, with its exact data noised by
    ``NoiseSpec(delta, seed)`` unless the config turns noise off."""
    dec, f_delta = prob.decomposition, prob.f_exact
    if cfg.noise:
        f_delta = add_noise(f_delta, dec, NoiseSpec(delta, seed, cfg.in_range_closure))
    return run_dsm(dec, cfg.schedule, f_delta, delta, cfg.C, cfg.dsm_config,
                   y_reference=prob.y_reference)


def cmd_solve(cfg: ExperimentConfig, out_dir: Path, store_trajectory: bool,
              quiet: bool) -> int:
    if cfg.delta is None:
        raise ConfigError('solve needs a single "delta" field in the config')
    prob = build_linear_problem(cfg)
    _check_deltas([cfg.delta], prob.f_exact)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = _noisy_run(cfg, prob, cfg.delta, cfg.seed)

    _write_json(out_dir / "results.json", {
        "config_hash": cfg.config_hash,
        "problem": prob.label,
        "delta": cfg.delta,
        "C": cfg.C,
        "epsilon_star": result.stopping.epsilon_star,
        "t_delta": result.stopping.t_delta,
        "achieved_discrepancy": result.stopping.achieved_discrepancy,
        "iterations": result.stopping.iterations,
        "residual": result.residual,
        "projected_null_mass": result.projected_null_mass,
        "error_vs_reference": result.error_vs_reference,
        "tikhonov_error_vs_reference": result.tikhonov_error_vs_reference,
        "norm_ratio": float(np.linalg.norm(result.w_final))
                      / float(np.linalg.norm(prob.y_reference)),
        "u_final": result.u_final.tolist(),
    })
    if store_trajectory:
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
    out_dir.mkdir(parents=True, exist_ok=True)
    y = prob.y_reference
    y_norm = float(np.linalg.norm(y))

    rows = []
    for k, delta in enumerate(cfg.delta_sequence):
        started = time.perf_counter()
        try:
            result = _noisy_run(cfg, prob, delta, cfg.seed + k)
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
        if store_trajectory:
            _write_trajectory_csv(out_dir / f"trajectory_{k}.csv", cfg.config_hash,
                                  result.trajectory, y, include_state=False)
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
    out_dir.mkdir(parents=True, exist_ok=True)

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
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "schedule_report.json", {
        "config_hash": cfg.config_hash,
        "schedule": {"c0": cfg.schedule.c0, "c1": cfg.schedule.c1, "b": cfg.schedule.b},
        "t_grid": report.t_grid.tolist(),
        "q_values": report.q_values.tolist(),
        "r_values": report.r_values.tolist(),
        "q_tail_decreasing": report.q_tail_decreasing,
        "r_tail_decreasing": report.r_tail_decreasing,
        "admissible": report.admissible,
        "q_decreasing_full_grid": bool(np.all(np.diff(report.q_values) < 0)),
        "r_at_50": r50,
    })
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    return parser


def _output_dir(path: str) -> Path:
    """``path``, once its nearest existing ancestor (or itself) is a directory."""
    out_dir = Path(path)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {str(out_dir)!r} cannot be made: "
                          f"{str(existing)!r} is not a directory")
    return out_dir


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = _output_dir(args.output if args.output is not None else cfg.output_dir)
        store = args.store_trajectory or cfg.store_trajectory
        return _COMMANDS[args.command](cfg, out_dir, store, args.quiet)
    except IllposedError as exc:
        code = (EXIT_CONFIG if isinstance(exc, ConfigError) else
                EXIT_PRECONDITION if isinstance(exc, PreconditionError) else EXIT_NUMERICAL)
        _emit_error(exc, code)
        return code


if __name__ == "__main__":
    sys.exit(main())
