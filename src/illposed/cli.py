"""Command-line harness: config-driven solve, convergence, nonlinear, and
schedule-check workflows emitting reproducible JSON/CSV artifacts.

Configs are single JSON files, fully validated before any computation.
Exit codes: 0 success, 2 config error, 3 precondition violation,
4 numerical failure.  Artifacts embed a hash of the canonical config so
every output names the inputs that produced it; apart from the measured
``wall_time_ms`` column, repeated runs are byte-identical.  An in-process
caller of ``main`` reuses up to four built linear problems; they are
immutable, so a reused one gives the same bytes as a fresh build.

This module alone defines the artifact schema and the errors against the
known solution (``_scores`` for a linear run); the library's results carry
neither.  ``cmd_solve`` builds ``results.json``, ``cmd_check_schedule``
builds ``schedule_report.json``, ``_write_trajectory_csv`` lays out
``trajectory*.csv`` (t, residual_norm, error_vs_reference, then state_0 ...
state_{n-1} for ``solve``), and the commands lay out the convergence,
nonlinear and scan-trace tables; ``_csvtext`` writes every CSV's bytes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ._csvtext import cell, write_columns, write_table
from .dsm import DSMConfig, run_dsm
from .errors import ConfigError, IllposedError, PreconditionError
from .nonlinear import nonlinear_discrepancy_result
from .operators import _norm, _positive
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

# Each problem kind: its generator's module-level name, looked up at call
# time, and its fields in argument order as (``_number`` kind, default).  A
# None default is rank_deficient's config seed or cubic's 1, -1, 0.5 pattern.
_PROBLEMS = {
    "identity": ("identity_problem", {"n": (int, 2)}),
    "hilbert": ("hilbert_problem", {"n": (int, 8)}),
    "gaussian_blur": ("gaussian_blur_problem", {"n": (int, 64), "width": (float, 0.05)}),
    "rank_deficient": ("rank_deficient_problem",
                       {"n": (int, 12), "rank": (int, 6), "seed": (int, None)}),
    "cubic": ("cubic_separable_problem",
              {"n": (int, 8), "coefficients": (list, 1.0), "y": (list, None)}),
}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Validated experiment description, plus the raw dict it came from.  The
    fields other than ``raw`` are the config's keys, with their defaults."""

    problem: dict
    schedule: PowerLawSchedule = field(default_factory=PowerLawSchedule)
    C: float = 1.0
    delta: float | None = None
    delta_sequence: tuple[float, ...] = ()
    seed: int = 0
    noise: bool = True
    in_range_closure: bool = True
    integrator: str = "exponential_quadrature"
    relative_tolerance: float | None = None  # None: DSMConfig's default
    absolute_tolerance: float | None = None
    store_trajectory: bool = False
    output_dir: str = "out"
    raw: dict

    @functools.cached_property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @functools.cached_property
    def dsm_config(self) -> DSMConfig:
        return DSMConfig(**{key: getattr(self, key) for key in ("relative_tolerance",
                            "absolute_tolerance") if getattr(self, key) is not None})


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "raw")
_SCHEDULE_KEYS = tuple(f.name for f in fields(PowerLawSchedule))


def _number(value, key: str, kind=float):
    """``value`` as ``kind`` if it is a JSON number the cast keeps: no "1e-2",
    no true as 1, and for an int no 7.9 as 7.  ``tuple`` takes a list of
    floats, and ``list`` a float or a list of floats."""
    if kind in (list, tuple) and isinstance(value, list):
        return kind(_number(v, key) for v in value)
    if kind is tuple:
        raise ConfigError(f"{key!r} must be a list of numbers, got {value!r}")
    kind = float if kind is list else kind
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError(f"{key!r} must be a number of type {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key!r} is too large for a float") from None


def _refuse_unknown(given: dict, known, where: str) -> None:
    """Refuse the keys of ``given`` outside ``known``: a misspelt key would
    otherwise run silently at its default."""
    unknown = [key for key in given if key not in known]
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                          f"the keys are {', '.join(known)}")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:  # no such file, a directory, no permission
        raise ConfigError(f"config file cannot be read: {exc}") from None
    except ValueError as exc:  # bad JSON, a non-UTF-8 file, or an integer too long to parse
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _refuse_unknown(raw, _CONFIG_KEYS, "config")

    given = dict(raw)
    problem = given.get("problem")
    if not isinstance(problem, dict) or "name" not in problem:
        raise ConfigError('config needs a "problem" object with a "name" field')
    name = problem["name"]
    if not isinstance(name, str) or name not in _PROBLEMS:
        raise ConfigError(f"unknown problem kind {name!r}; the kinds are {', '.join(_PROBLEMS)}")
    kind_fields = _PROBLEMS[name][1]
    _refuse_unknown(problem, ("name", *kind_fields), f"problem {name!r}")
    given["problem"] = {"name": name, **{
        key: _number(problem[key], f"problem.{key}", kind) if key in problem else default
        for key, (kind, default) in kind_fields.items()}}

    schedule = given.get("schedule", {})
    if not isinstance(schedule, dict):
        raise ConfigError(f'"schedule" must be an object with fields {", ".join(_SCHEDULE_KEYS)}')
    _refuse_unknown(schedule, _SCHEDULE_KEYS, "schedule")
    given["schedule"] = PowerLawSchedule(**{key: _number(v, key) for key, v in schedule.items()})
    if given.get("delta", 0) is None:
        del given["delta"]  # null is no delta, as is leaving it out
    for key, kind in (("C", float), ("delta", float), ("delta_sequence", tuple), ("seed", int),
                      ("relative_tolerance", float), ("absolute_tolerance", float)):
        if key in given:
            given[key] = _number(given[key], key, kind)
    cfg = ExperimentConfig(raw=raw, **given)

    for key, value in (("seed", cfg.seed), ("problem.seed", cfg.problem.get("seed"))):
        if value is not None and value < 0:
            raise ConfigError(f"{key!r} must be a non-negative integer, got {value}")
    if not (cfg.C >= 1.0 and math.isfinite(cfg.C)):
        raise ConfigError(f"C must be finite and at least 1, got {cfg.C}")
    if cfg.delta is not None:
        _positive(cfg.delta, "delta", ConfigError)
    seq = cfg.delta_sequence
    for d in seq:
        _positive(d, "delta_sequence entry", ConfigError)
    if any(b >= a for a, b in zip(seq[:-1], seq[1:])):
        raise ConfigError("delta_sequence must be strictly decreasing")
    if cfg.integrator != "exponential_quadrature":
        raise ConfigError(f"unknown integrator {cfg.integrator!r}: the only one is "
                          f"\"exponential_quadrature\" (Runge-Kutta is a test oracle only)")
    for key in ("noise", "in_range_closure", "store_trajectory"):
        if not isinstance(getattr(cfg, key), bool):
            raise ConfigError(f"{key!r} must be true or false, got {getattr(cfg, key)!r}")
    if not isinstance(cfg.output_dir, str):
        raise ConfigError(f"'output_dir' must be a string, got {cfg.output_dir!r}")
    cfg.dsm_config  # noqa: B018 -- built here, DSMConfig refuses a bad tolerance
    return cfg


def build_linear_problem(cfg: ExperimentConfig) -> TestProblem:
    name = cfg.problem["name"]
    if name == "cubic":
        raise ConfigError("problem kind 'cubic' is not linear")
    # a linear kind's one None default, rank_deficient's seed, is the config seed
    args = [cfg.seed if cfg.problem[key] is None else cfg.problem[key]
            for key in _PROBLEMS[name][1]]
    try:
        return _built_problem(name, *args)
    except PreconditionError as exc:
        raise ConfigError(f"problem parameters invalid: {exc}") from None


@functools.lru_cache(maxsize=4)
def _built_problem(name: str, *args) -> TestProblem:
    """The generator's problem, built once per argument set and shared: it is
    immutable.  Generators are looked up by module-level name at call time."""
    return globals()[_PROBLEMS[name][0]](*args)


def build_nonlinear_problem(cfg: ExperimentConfig):
    name = cfg.problem["name"]
    if name != "cubic":
        raise ConfigError(f"problem kind {name!r} is not nonlinear; use \"cubic\"")
    n, coefficients, y = (cfg.problem[key] for key in _PROBLEMS[name][1])
    y = [(1.0, -1.0, 0.5)[i % 3] for i in range(n)] if y is None else y
    try:
        op, f_exact = globals()[_PROBLEMS[name][0]](n, coefficients, y)
    except PreconditionError as exc:
        raise ConfigError(f"problem parameters invalid: {exc}") from None
    return op, f_exact, np.asarray(y, dtype=float)


def _check_deltas(deltas, f_exact) -> None:
    fnorm = _norm(f_exact)
    for d in deltas:
        if d >= fnorm:
            raise ConfigError(f"delta = {d} is not below the exact data norm {fnorm}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_trajectory_csv(path: Path, config_hash: str, trajectory, y_reference,
                          include_state: bool) -> None:
    """The trajectory as CSV: t, residual_norm, error_vs_reference, then the
    state when ``include_state``."""
    header = ["t", "residual_norm", "error_vs_reference"]
    if include_state:
        header.extend(f"state_{i}" for i in range(trajectory.states.shape[1]))
    # each row's sqrt(d.dot(d)), the same bits as np.linalg.norm(state - y)
    d = trajectory.states - y_reference
    with np.errstate(over="ignore"):  # a norm beyond the float range is written as inf
        errors = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])).ravel()
    columns = [trajectory.times, trajectory.residual_norms, errors]
    if include_state:
        columns.append(trajectory.states)
    write_columns(path, config_hash, header, columns)


def _noisy_run(cfg: ExperimentConfig, prob: TestProblem, delta: float, seed: int):
    """``run_dsm`` on the problem's spectrum, with its exact data noised by
    ``NoiseSpec(delta, seed)`` unless the config turns noise off, projected
    onto the range when ``in_range_closure`` is set."""
    dec, f_delta = prob.decomposition, prob.f_exact
    if cfg.noise:
        f_delta = add_noise(f_delta, dec if cfg.in_range_closure else None,
                            NoiseSpec(delta, seed))
    return run_dsm(dec, cfg.schedule, f_delta, delta, cfg.C, cfg.dsm_config)


def _scores(result, y: np.ndarray) -> dict:
    """A linear run against the known solution ``y``, by ``results.json`` key."""
    return {"error_vs_reference": float(np.linalg.norm(result.u_final - y)),
            "tikhonov_error_vs_reference": float(np.linalg.norm(result.w_final - y)),
            "norm_ratio": float(np.linalg.norm(result.w_final)) / float(np.linalg.norm(y))}


def cmd_solve(cfg: ExperimentConfig, out_dir: Path, store_trajectory: bool,
              quiet: bool) -> int:
    if cfg.delta is None:
        raise ConfigError('solve needs a single "delta" field in the config')
    prob = build_linear_problem(cfg)
    _check_deltas([cfg.delta], prob.f_exact)
    result = _noisy_run(cfg, prob, cfg.delta, cfg.seed)
    out_dir.mkdir(parents=True, exist_ok=True)  # after the run: a failed solve leaves none

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
        **_scores(result, prob.y_reference),
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

    rows = []
    for k, delta in enumerate(cfg.delta_sequence):
        started = time.perf_counter()
        try:
            result = _noisy_run(cfg, prob, delta, cfg.seed + k)
        except IllposedError as exc:
            elapsed = 1000.0 * (time.perf_counter() - started)
            rows.append([cell(delta), "", "", "", "", "", "", cell(elapsed), str(exc)])
            continue
        elapsed = 1000.0 * (time.perf_counter() - started)
        rows.append([
            cell(delta),
            cell(result.stopping.epsilon_star),
            cell(result.stopping.t_delta),
            cell(result.residual),
            *map(cell, _scores(result, y).values()),
            cell(elapsed),
            "",
        ])
        if store_trajectory:
            _write_trajectory_csv(out_dir / f"trajectory_{k}.csv", cfg.config_hash,
                                  result.trajectory, y, include_state=False)
    write_table(out_dir / "convergence.csv", cfg.config_hash,
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
            noise = NoiseSpec(delta, cfg.seed + k)
            f_delta = add_noise(f_exact, None, noise) if cfg.noise else f_exact
            res = nonlinear_discrepancy_result(op, f_delta, delta, cfg.C)
        except IllposedError as exc:
            rows.append([cell(delta), "", "", "", "", str(exc)])
            continue
        rows.append([
            cell(delta),
            cell(res.epsilon_delta),
            cell(res.residual),
            cell(np.linalg.norm(res.u_delta - y)),
            cell(res.gap_certificate),
            "",
        ])
        if store_trajectory:
            write_columns(out_dir / f"scan_trace_{k}.csv", cfg.config_hash,
                          ("epsilon", "h", "F_value", "gap_certificate"), [np.array(res.trace)])
    write_table(out_dir / "nonlinear.csv", cfg.config_hash, NONLINEAR_COLUMNS, rows)
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
        "schedule": asdict(cfg.schedule),
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
    print(json.dumps({"error": {"code": code, "type": type(exc).__name__, "stage": exc.stage,
                                "message": str(exc)}}, sort_keys=True))


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
