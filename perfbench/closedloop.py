"""One closed-loop client and the statistics of its latencies.

The client sends the next request only after the previous one has
returned and its output has been checked.  It repeats whole cycles of the
workload's mix until starting another cycle would overrun the run's
seconds, so every run covers the same mix.

On a shared host (the 2-core x86-64 machine the figures in NOTES.md come
from) other tenants slowed every instruction by up to 2x for stretches of
seconds to minutes, and the plain mean latency moved by 30% between runs
of the same code.  So the
client also times a fixed calibration kernel (interpreter loop plus small
array products, the same kind of work as the library's) at least every
``CALIBRATION_EVERY_S``, and each request's latency is rescaled by
``CALIBRATION_REF_S`` over the mean of the calibrations just before and
after it.  The timing metrics are thus milliseconds at the machine speed at
which the kernel takes ``CALIBRATION_REF_S``; the plain figures are kept in
the run record next to them.
"""

from __future__ import annotations

import math
import statistics
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

CALIBRATION_EVERY_S = 0.5
# the kernel's time on an idle core of that 2-core x86-64 (AVX-512) host
CALIBRATION_REF_S = 0.0075

_CAL_A = np.random.default_rng(0).random((64, 64))
_CAL_X = np.random.default_rng(1).random((64, 7))


def _kernel() -> float:
    started = perf_counter()
    total = 0.0
    for i in range(60000):
        total += (i * 0.5) ** 0.5
    for _ in range(300):
        (_CAL_A @ _CAL_X).sum(axis=1)
        np.exp(-_CAL_X)
    return perf_counter() - started


def calibrate() -> float:
    """Seconds the calibration kernel takes now (median of three)."""
    return statistics.median(_kernel() for _ in range(3))


def rescale(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` at the machine speed where the kernel takes the reference time."""
    return seconds * 2.0 * CALIBRATION_REF_S / (cal_before + cal_after)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    xs = sorted(samples)
    return xs[samples_below(len(xs), p) - 1]


def samples_below(n: int, p: float) -> int:
    """Rank of the nearest-rank ``p``-th percentile among ``n`` samples;
    ``n`` minus it is the number of samples beyond."""
    return max(math.ceil(p / 100.0 * n), 1)


@dataclass
class Run:
    """Outcomes of a run, stored compactly so memory does not grow with
    the number of requests (``peak_rss_mb`` is one of the metrics).

    ``epochs[i]`` counts the calibrations taken before request ``i``; the
    list of calibrations ends with one taken after the last request.
    """

    latencies: array = field(default_factory=lambda: array("d"))
    epochs: array = field(default_factory=lambda: array("i"))
    calibrations: array = field(default_factory=lambda: array("d"))
    rel_errs: array = field(default_factory=lambda: array("d"))
    failures: list = field(default_factory=list)  # (request index, errors)

    def __len__(self) -> int:
        return len(self.latencies)

    def add(self, latency: float, errors: list[str], rel_errs, index: int) -> None:
        self.latencies.append(latency)
        self.epochs.append(len(self.calibrations))
        self.rel_errs.extend(rel_errs)
        if errors:
            self.failures.append((index, errors))

    def scaled_latencies(self) -> list[float]:
        """Latencies rescaled to the reference machine speed."""
        cal = self.calibrations
        return [rescale(x, cal[e - 1], cal[e]) for x, e in zip(self.latencies, self.epochs)]


def run_cycles(workload, seconds: float, *, cycles: int | None = None,
               tracer=None) -> Run:
    """Run whole cycles of ``workload`` for ``seconds`` (or exactly ``cycles``).

    Request indices count from 0.  With a ``tracer`` each request runs
    inside a root span carrying its index, and the bytes it wrote are
    counted.
    """
    run = Run()
    index = 0
    started = perf_counter()
    run.calibrations.append(calibrate())
    calibrated = perf_counter()
    while True:
        done = index // len(workload.cycle)
        if cycles is not None:
            if done == cycles:
                break
        elif done:
            elapsed = perf_counter() - started
            if elapsed + elapsed / done > seconds:
                break
        for spec in workload.cycle:
            request = workload.prepare(spec, index)
            error = None
            t0 = perf_counter()
            try:
                if tracer is None:
                    output = workload.execute(request)
                else:
                    with tracer.request(index):
                        output = workload.execute(request)
            except Exception as exc:  # the loop must go on; the failure is recorded
                error = f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            if error is None:
                errors, rel_errs = workload.check(request, output)
            else:
                errors, rel_errs = [error], []
            run.add(latency, errors, rel_errs, index)
            if tracer is not None:
                tracer.count("cli.artifact_bytes", workload.artifact_bytes(), request=index)
            index += 1
            if perf_counter() - calibrated >= CALIBRATION_EVERY_S:
                run.calibrations.append(calibrate())
                calibrated = perf_counter()
    if run.epochs[-1] == len(run.calibrations):
        run.calibrations.append(calibrate())
    return run


def calibration_summary(calibrations) -> dict:
    return {"median": 1000.0 * statistics.median(calibrations),
            "min": 1000.0 * min(calibrations), "max": 1000.0 * max(calibrations),
            "samples": len(calibrations)}


def summarize(run: Run, tail: float) -> dict:
    """End-to-end figures of one run, with the latency tail at the
    workload's fixed percentile ``tail``.

    Timings cover every request, failed or not; failures are counted in
    ``failed``.  Time spent preparing inputs and checking outputs is not
    part of any request.  ``solution_rel_err`` is the geometric mean over
    solves of ||x - y|| / ||y||: the mixes span five orders of magnitude in
    delta, and a median of such a mix falls between two noise levels.
    """
    scaled = run.scaled_latencies()
    return {
        "attempted": len(run),
        "failed": len(run.failures),
        "throughput_rps": len(scaled) / sum(scaled),
        "latency_p50_ms": 1000.0 * statistics.median(scaled),
        "latency_tail_ms": 1000.0 * percentile(scaled, tail),
        "latency_tail_percentile": tail,
        "latency_tail_samples_beyond": len(scaled) - samples_below(len(scaled), tail),
        "latency_samples": len(scaled),
        "calibration_ms": calibration_summary(run.calibrations),
        "solution_rel_err": statistics.geometric_mean(run.rel_errs),
        "solution_rel_err_samples": len(run.rel_errs),
        "plain": {
            "throughput_rps": len(run) / sum(run.latencies),
            "latency_p50_ms": 1000.0 * statistics.median(run.latencies),
            "latency_tail_ms": 1000.0 * percentile(run.latencies, tail),
            "solution_rel_err_median": statistics.median(run.rel_errs),
        },
    }
