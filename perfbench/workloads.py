"""The three benchmark workloads.

Each workload is a closed loop with one client: it repeats a fixed cycle of
request specs, and request ``i`` (counted from 0 over the whole run) draws
its noise from ``seed + i``.  ``prepare`` builds a request's input outside
the timed region, ``execute`` is the timed call into the library, and
``check`` verifies the output against inputs rebuilt from the seed.

Library calls go through module attributes (``cli.main``,
``problems.add_noise``, ...) looked up at call time, so the traced run can
wrap them from outside.  NOTES.md explains why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import illposed.cli as cli
import illposed.discrepancy as discrepancy
import illposed.operators as operators
import illposed.problems as problems
from illposed.schedule import default_schedule

import checks

BLUR_WIDTH = 0.05
CUBIC_C = 1.1
CUBIC_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)
CUBIC_Y_PATTERN = (1.0, -1.0, 0.5)


def _run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class _CliWorkload:
    """Shared plumbing of the workloads that call ``illposed.cli.main``."""

    command = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config_path = workdir / self.name / "config.json"
        self.out_dir = workdir / self.name / "out"
        self._references = {}  # per size: inputs the checks rebuild from

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def prepare(self, spec, index: int) -> dict:
        for stale in self.out_dir.iterdir():
            stale.unlink()
        request = self.request_config(spec, self.seed + index)
        self.config_path.write_text(json.dumps(request), encoding="utf-8")
        return request

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config_path),
                "--output", str(self.out_dir), "--quiet"]

    def execute(self, request: dict):
        return _run_cli(self.argv())

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out_dir.iterdir())


class DsmSolve(_CliWorkload):
    """``illposed solve --store-trajectory`` on the gaussian blur problem."""

    name = "dsm-solve"
    command = "solve"
    cycle = ((64, 1e-2), (64, 1e-4), (64, 1e-6), (256, 1e-2))
    C = 1.0
    # A 45 s run holds 20 to 28 requests: no percentile above the median
    # keeps ten samples beyond it, so the tail is the median.
    tail_percentile = 50.0

    def mix(self) -> list[dict]:
        return [{"command": "solve --store-trajectory", "problem": "gaussian_blur",
                 "n": n, "width": BLUR_WIDTH, "delta": d, "C": self.C,
                 "integrator": "exponential_quadrature", "schedule": "default"}
                for n, d in self.cycle]

    def request_config(self, spec, seed: int) -> dict:
        n, delta = spec
        return {"problem": {"name": "gaussian_blur", "n": n, "width": BLUR_WIDTH},
                "delta": delta, "C": self.C, "seed": seed,
                "integrator": "exponential_quadrature"}

    def argv(self) -> list[str]:
        return super().argv() + ["--store-trajectory"]

    def prime(self) -> None:
        for n, _ in self.cycle:
            self._reference(n)

    def _reference(self, n: int):
        if n not in self._references:
            prob = problems.gaussian_blur_problem(n, BLUR_WIDTH)
            self._references[n] = (prob, operators.decompose(prob.operator))
        return self._references[n]

    def check(self, request: dict, output) -> tuple[list[str], list[float]]:
        code, text = output
        if code != 0:
            return [f"exit code {code}: {text.strip()}"], []
        trajectory = self.out_dir / "trajectory.csv"
        if not trajectory.is_file() or trajectory.stat().st_size == 0:
            return ["trajectory.csv missing or empty"], []
        result = json.loads((self.out_dir / "results.json").read_text(encoding="utf-8"))
        prob, dec = self._reference(request["problem"]["n"])
        delta = request["delta"]
        f_delta = problems.add_noise(prob.f_exact, dec,
                                     problems.NoiseSpec(delta, request["seed"]))
        w_oracle = operators.regularized_normal_solve_direct(
            prob.operator, result["epsilon_star"], f_delta)
        errors = checks.dsm_solve(result, A=prob.operator.entries, f_delta=f_delta,
                                  w_oracle=w_oracle, delta=delta, C=self.C)
        y = prob.y_reference
        u = np.asarray(result["u_final"], dtype=float)
        return errors, [float(np.linalg.norm(u - y) / np.linalg.norm(y))]


class CubicNonlinear(_CliWorkload):
    """``illposed nonlinear`` on the separable cubic problem."""

    name = "cubic-nonlinear"
    command = "nonlinear"
    cycle = (8,) * 8 + (64,)
    # A 30 s run holds 54 to 99 requests; p75 keeps at least 13 beyond it.
    # A fixed percentile keeps parent and change comparable: p90 would cross
    # from the n = 8 into the n = 64 requests at 100.
    tail_percentile = 75.0

    def mix(self) -> list[dict]:
        return [{"command": "nonlinear", "problem": "cubic", "n": n, "C": CUBIC_C,
                 "delta_sequence": list(CUBIC_DELTAS)} for n in self.cycle]

    def request_config(self, n, seed: int) -> dict:
        return {"problem": {"name": "cubic", "n": n}, "C": CUBIC_C,
                "delta_sequence": list(CUBIC_DELTAS), "seed": seed}

    def prime(self) -> None:
        for n in set(self.cycle):
            self._reference(n)

    def _reference(self, n: int):
        if n not in self._references:
            y = np.array([CUBIC_Y_PATTERN[i % len(CUBIC_Y_PATTERN)] for i in range(n)])
            _, f_exact = problems.cubic_separable_problem(n, 1.0, y)
            self._references[n] = (f_exact, y)
        return self._references[n]

    def check(self, request: dict, output) -> tuple[list[str], list[float]]:
        code, text = output
        if code != 0:
            return [f"exit code {code}: {text.strip()}"], []
        with open(self.out_dir / "nonlinear.csv", newline="", encoding="utf-8") as fh:
            fh.readline()  # config hash comment
            rows = list(csv.DictReader(fh))
        if len(rows) != len(CUBIC_DELTAS):
            return [f"nonlinear.csv has {len(rows)} rows, expected {len(CUBIC_DELTAS)}"], []
        f_exact, y = self._reference(request["problem"]["n"])
        y_norm = float(np.linalg.norm(y))
        errors, rel_errs = [], []
        for k, (delta, row) in enumerate(zip(CUBIC_DELTAS, rows)):
            e = np.random.default_rng(request["seed"] + k).standard_normal(f_exact.shape[0])
            f_delta = f_exact + (delta / np.linalg.norm(e)) * e
            errors += checks.nonlinear_row(row, f_delta=f_delta, delta=delta, C=CUBIC_C)
            if not row["failure"]:
                rel_errs.append(float(row["error"]) / y_norm)
        return errors, rel_errs


class TikhonovMC:
    """Library-level Monte Carlo noise study: noise, profile, root, solve."""

    name = "tikhonov-mc"
    cycle = tuple((n, d) for n in (64, 256) for d in (1e-2, 1e-4, 1e-6))
    C = 1.0
    # About 55k requests a run.  Deeper percentiles measured the machine:
    # over ten seeds p99 moved 7%, p99.9 18% and p99.98 (ten samples
    # beyond) 59%, driven by other tenants' preemptions.
    tail_percentile = 99.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.schedule = default_schedule()
        self.problems = {}

    def mix(self) -> list[dict]:
        return [{"calls": "add_noise, build_profile, stop_from_profile, "
                          "regularized_normal_solve", "problem": "gaussian_blur",
                 "n": n, "width": BLUR_WIDTH, "delta": d, "C": self.C}
                for n, d in self.cycle]

    def setup(self) -> None:
        for n in sorted({n for n, _ in self.cycle}):
            prob = problems.gaussian_blur_problem(n, BLUR_WIDTH)
            dec = operators.decompose(prob.operator)
            self.problems[n] = (prob, dec, float(np.linalg.norm(prob.y_reference)))

    def prime(self) -> None:
        pass

    def prepare(self, spec, index: int) -> tuple:
        n, delta = spec
        return n, delta, self.seed + index

    def execute(self, request: tuple):
        n, delta, seed = request
        prob, dec, _ = self.problems[n]
        f_delta = problems.add_noise(prob.f_exact, dec, problems.NoiseSpec(delta, seed))
        profile = discrepancy.build_profile(dec, f_delta)
        stopping = discrepancy.stop_from_profile(profile, self.schedule, delta, self.C)
        w = operators.regularized_normal_solve(dec, stopping.epsilon_star, f_delta)
        return f_delta, stopping, w

    def check(self, request: tuple, output) -> tuple[list[str], list[float]]:
        n, delta, _ = request
        f_delta, stopping, w = output
        prob, _, y_norm = self.problems[n]
        errors = checks.tikhonov(w, stopping.achieved_discrepancy, A=prob.operator.entries,
                                 f_exact=prob.f_exact, f_delta=f_delta, y_norm=y_norm,
                                 delta=delta, C=self.C)
        return errors, [float(np.linalg.norm(w - prob.y_reference)) / y_norm]

    def artifact_bytes(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (DsmSolve, TikhonovMC, CubicNonlinear)}
