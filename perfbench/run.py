"""Benchmark of the illposed library: one closed-loop client per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dsm-solve --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the library untouched;
``--trace 1`` wraps the library's module-level names, records spans and
counters, and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (machine, versions, mix, sample counts,
failures) goes to ``.perfbench/results/``.  NOTES.md describes the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
WARMUP_INDEX = 10 ** 6
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "panels": "count", "points": "count",
                   "root_iterations": "count", "phi_evals": "count", "failures": "count",
                   "artifact_bytes": "B", "panels_per_s": "1/s", "share": "ratio",
                   "throughput_ratio": "ratio"}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def listed_per_layer() -> list[str]:
    """The per-layer metrics ``BENCHMARK.json`` lists.  The traced run
    computes more (those of the workloads it does not list); the run
    record keeps them all."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer"]]


def import_illposed():
    """Import the library from this checkout's ``src``, and nothing else."""
    if not (SRC / "illposed" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC / 'illposed'}")
    sys.path.insert(0, str(SRC))
    import illposed
    if Path(illposed.__file__).resolve().parent != (SRC / "illposed").resolve():
        sys.exit(f"perfbench: imported illposed from {illposed.__file__}, not {SRC}")
    return illposed


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[list, list]:
    """Wall times of fresh interpreters that import and set up, in seconds,
    and the calibrations taken around them (see ``closedloop``)."""
    from closedloop import calibrate
    samples, calibrations = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                        str(seed), str(workdir)], check=True, timeout=PROBE_TIMEOUT_S)
        samples.append(perf_counter() - started)
        calibrations.append(calibrate())
    return samples, calibrations


def parse_args(argv):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_untraced(workload, args, record: dict) -> dict:
    from closedloop import calibration_summary, rescale, run_cycles, summarize
    setups, cal = measure_setup(args.workload, args.seed, RUNS / "work")
    run = run_cycles(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = summarize(run, workload.tail_percentile)
    summary["setup_s"] = statistics.median(map(rescale, setups, cal, cal[1:]))
    summary["setup"] = {"plain_s": setups, "calibration_ms": calibration_summary(cal)}
    summary["peak_rss_mb"] = peak_rss_mb
    record["summary"] = summary
    record["failures"] = [{"request": i, "errors": e} for i, e in run.failures]
    record["latencies_ms"] = {"plain": [round(1000.0 * x, 4) for x in run.latencies],
                              "scaled": [round(1000.0 * x, 4) for x in run.scaled_latencies()]}
    return {name: summary[name] for name in END_TO_END}


def run_traced(workload, args, record: dict, tracer) -> dict:
    """Traced cycles for half the run, then the same requests untraced.

    The ratio of the two throughputs is the tracing overhead.
    """
    from closedloop import run_cycles, summarize
    from tracing import layer_metrics
    traced = run_cycles(workload, args.seconds / 2, tracer=tracer)
    tracer.uninstall()
    cycles = len(traced) // len(workload.cycle)
    replay = run_cycles(workload, 0.0, cycles=cycles)
    traced_summary = summarize(traced, workload.tail_percentile)
    replay_summary = summarize(replay, workload.tail_percentile)
    metrics = layer_metrics(tracer, range(len(workload.cycle)))
    metrics["trace.throughput_ratio"] = (traced_summary["throughput_rps"]
                                         / replay_summary["throughput_rps"])
    record["summary"] = {"traced": traced_summary, "untraced_replay": replay_summary}
    record["failures"] = [{"request": i, "errors": e, "traced": traced_run}
                          for traced_run, run in ((True, traced), (False, replay))
                          for i, e in run.failures]
    record["failures_by_stage"] = [{"module": m, "stage": s, "count": c}
                                   for (m, s), c in sorted(tracer.failures.items())]
    spans_path = RUNS / "results" / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import_illposed()
    args = parse_args(argv)
    import workloads
    from tracing import SETUP, Tracer

    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, RUNS / "work")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "mix": workload.mix(), **machine_record()}

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        with tracer.request(SETUP):
            workload.setup()
    else:
        workload.setup()
    workload.prime()
    warm = workload.prepare(workload.cycle[0], WARMUP_INDEX)
    warm_errors, _ = workload.check(warm, workload.execute(warm))
    record["warmup_errors"] = warm_errors

    if tracer is None:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in run_untraced(workload, args, record).items()}
    else:
        layers = run_traced(workload, args, record, tracer)
        record["layer_metrics"] = layers
        metrics = {name: {"value": layers[name], "unit": per_layer_unit(name)}
                   for name in listed_per_layer()}

    failed = len(record["failures"])
    summary = record["summary"]
    attempted = (summary["attempted"] if tracer is None
                 else summary["traced"]["attempted"] + summary["untraced_replay"]["attempted"])
    result = {"correct": failed == 0 and not warm_errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    record["failed_frac"] = failed / attempted
    out = RUNS / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"failed_frac {failed}/{attempted}; record in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
