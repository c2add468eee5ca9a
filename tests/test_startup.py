"""The library runs on numpy alone: importing the library and its CLI, the
production path of every CLI command and the Cholesky oracle
``regularized_normal_solve_direct`` load no scipy module, and run with
scipy blocked.

The checks run in a fresh interpreter, because the pytest process has
scipy loaded already (the tests use it as an oracle).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from illposed.cli import EXIT_OK

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import json
import sys
from pathlib import Path

sys.modules["scipy"] = None  # any scipy import now raises ImportError

import illposed
import illposed.cli
from illposed.cli import EXIT_OK, main


def scipy_modules():
    return sorted(m for m, module in sys.modules.items()
                  if module is not None and (m == "scipy" or m.startswith("scipy.")))


work = Path(sys.argv[1])
imported = scipy_modules()
runs = [
    ("solve", ["--store-trajectory"],
     {"problem": {"name": "gaussian_blur", "n": 64, "width": 0.05}, "delta": 1e-2}),
    ("convergence", [],
     {"problem": {"name": "hilbert", "n": 8}, "delta_sequence": [1e-1, 1e-2, 1e-3]}),
    ("nonlinear", [],
     {"problem": {"name": "cubic", "n": 8}, "C": 1.1,
      "delta_sequence": [1e-1, 1e-2, 1e-3, 1e-4]}),
    ("check-schedule", [], {}),
]
codes = {}
for command, flags, problem in runs:
    cfg = {"problem": {"name": "identity", "n": 4},
           "schedule": {"c0": 1.0, "c1": 1.0, "b": 0.5}, "C": 1.0, "seed": 7,
           "output_dir": str(work / command), **problem}
    path = work / f"{command}.json"
    path.write_text(json.dumps(cfg))
    codes[command] = main([command, "--config", str(path), "--quiet", *flags])
after_commands = scipy_modules()

prob = illposed.identity_problem(3)
illposed.regularized_normal_solve_direct(prob.operator, 0.5, prob.f_exact)
print(json.dumps({"imported": imported, "after_commands": after_commands,
                  "codes": codes, "after_oracle": scipy_modules()}))
"""


def test_library_and_cli_commands_run_without_scipy(tmp_path):
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["imported"] == []
    assert report["after_commands"] == []
    assert report["codes"] == dict.fromkeys(
        ("solve", "convergence", "nonlinear", "check-schedule"), EXIT_OK)
    assert report["after_oracle"] == []
    # the commands did their work, not an early exit
    assert (tmp_path / "solve" / "trajectory.csv").stat().st_size > 0
    for name in ("convergence/convergence.csv", "nonlinear/nonlinear.csv",
                 "check-schedule/schedule_report.json"):
        assert (tmp_path / name).stat().st_size > 0
    rows = (tmp_path / "nonlinear" / "nonlinear.csv").read_text().splitlines()
    assert len(rows) == 6 and all(row.endswith(",") for row in rows[2:])
