"""Start a fresh interpreter, import ``illposed`` and do a workload's set-up.

``run.py`` times this script as a whole, several times per run, and
reports the median as ``setup_s``: interpreter start, import and the
set-up done before the first request (problem generation and
``decompose`` for tikhonov-mc).

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports illposed)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name](seed, workdir).setup()
