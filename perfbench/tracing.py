"""Spans and counters around the calls into each ``illposed`` module.

The traced run wraps module-level names from outside: every binding of a
listed public function, in every loaded ``illposed`` module, is replaced by
a wrapper that records a span; ``uninstall`` puts the originals back.  The
untraced runs never call ``install``, so they execute the library as is.

Spans live in memory as ``[name, start, end, parent, request]`` lists and
are written out once the run ends.  ``schedule.eval`` runs about 30k times
per request, so it is counted, not timed; the cubic problem's coordinate
maps are counted the same way.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from illposed.errors import IllposedError

# (module, function, span name).  Generators share one span name.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("problems", "gaussian_blur_problem", "problems.generate"),
    ("problems", "cubic_separable_problem", "problems.generate"),
    ("problems", "add_noise", "problems.add_noise"),
    ("operators", "decompose", "operators.decompose"),
    ("operators", "project_range_closure", "operators.project_range_closure"),
    ("operators", "regularized_normal_solve", "operators.regularized_normal_solve"),
    ("discrepancy", "build_profile", "discrepancy.build_profile"),
    ("discrepancy", "stop_from_profile", "discrepancy.stop_from_profile"),
    ("dsm", "run_dsm", "dsm.run_dsm"),
    ("dsm", "evolve", "dsm.evolve"),
    ("nonlinear", "nonlinear_discrepancy_result", "nonlinear.nonlinear_discrepancy_result"),
    ("nonlinear", "near_minimize", "nonlinear.near_minimize"),
)
COMMAND_SPAN = "cli.command"
REQUEST_SPAN = "request"
SETUP = "setup"
MODULES = ("cli", "problems", "operators", "discrepancy", "dsm", "nonlinear")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children may nest, abut or (in principle) overlap; the covered part is
    the union of their intervals clipped to the parent's.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """In-memory spans and per-request counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, int] = defaultdict(int)
        self.failures: dict[tuple, int] = defaultdict(int)
        self.active = False
        self._request = None
        self._stack: list[int] = []
        self._cells: list[tuple] = []
        self._last_failure = None
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int = 1, request=None) -> None:
        """Add to a counter of ``request`` (default: the current request)."""
        self.counts[(self._request if request is None else request, name)] += amount

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self._request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _failed(self, name: str, exc) -> None:
        # count an error once, at the innermost span it leaves
        if exc is not self._last_failure:
            self._last_failure = exc
            stage = getattr(exc, "stage", None) or "untagged"
            self.failures[(name.split(".")[0], stage)] += 1

    @contextmanager
    def request(self, request_id):
        """Root span of one request (or of the set-up, id ``SETUP``)."""
        self._request = request_id
        self.active = True
        index = self._open(REQUEST_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self.active = False
            for cell_request, name, cell in self._cells:
                self.counts[(cell_request, name)] += cell[0]
            self._cells.clear()

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that each call while active records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except IllposedError as exc:
                self._failed(name, exc)
                raise
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every module-level binding of the ``WRAPPED`` functions."""
        hooks = {
            "stop_from_profile": lambda r: self.count("discrepancy.root_iterations",
                                                      r.iterations),
            "cubic_separable_problem": lambda r: self._count_phis(r[0]),
        }
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "illposed" or name.startswith("illposed.")]
        for module, func, span_name in WRAPPED:
            original = getattr(importlib.import_module(f"illposed.{module}"), func)
            wrapper = self.span(span_name, original, hooks.get(func))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

        cli = importlib.import_module("illposed.cli")
        for command, fn in list(cli._COMMANDS.items()):
            self._patches.append((cli._COMMANDS, command, fn))
            cli._COMMANDS[command] = self.span(COMMAND_SPAN, fn)

        schedule_cls = importlib.import_module("illposed.schedule").PowerLawSchedule
        evaluate = schedule_cls.eval

        def counted_eval(schedule, t):
            if self.active:
                ndim = getattr(t, "ndim", 0)
                self.count("schedule.eval.points", t.size if ndim else 1)
                if ndim and self._stack and self.spans[self._stack[-1]][0] == "dsm.evolve":
                    self.count("dsm.evolve.panels")
            return evaluate(schedule, t)
        self._patch(schedule_cls, "eval", counted_eval)

    def _count_phis(self, op) -> None:
        cell = [0]

        def counted(phi):
            def call(x):
                cell[0] += 1
                return phi(x)
            return call
        op.phis = tuple(counted(phi) for phi in op.phis)
        self._cells.append((self._request, "nonlinear.phi_evals", cell))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, request), own in zip(self.spans, selfs):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "self": own}) + "\n")


LAYER_TIMES = (
    "dsm.evolve", "dsm.run_dsm", "operators.project_range_closure", "cli.command",
    "discrepancy.stop_from_profile", "discrepancy.build_profile",
    "operators.regularized_normal_solve", "problems.add_noise", "operators.decompose",
    "problems.generate", "nonlinear.nonlinear_discrepancy_result",
    "nonlinear.near_minimize",
)
LAYER_CALLS = ("operators.decompose", "nonlinear.near_minimize")
LAYER_COUNTS = ("dsm.evolve.panels", "schedule.eval.points", "discrepancy.root_iterations",
                "nonlinear.phi_evals", "cli.artifact_bytes")
SETUP_LAYERS = ("operators.decompose", "problems.generate")


def layer_metrics(tracer: Tracer, first_cycle: range) -> dict[str, float]:
    """Per-layer figures of a traced run.

    Times are mean self seconds per request over every traced request.
    Counts are per request over ``first_cycle``, whose inputs depend only
    on the seed, so they repeat exactly.  Work done in the (single) set-up
    is reported apart, as ``setup.<layer>.self_s`` and ``.calls``.
    """
    selfs = self_times(tracer.spans)
    first = set(first_cycle)
    requests = set()
    time_req = defaultdict(float)
    calls_first = defaultdict(int)
    time_setup = defaultdict(float)
    calls_setup = defaultdict(int)
    request_time = 0.0
    for (name, start, end, _, request), own in zip(tracer.spans, selfs):
        if request == SETUP:
            time_setup[name] += own
            calls_setup[name] += 1
            continue
        requests.add(request)
        time_req[name] += own
        if name == REQUEST_SPAN:
            request_time += end - start
        if request in first:
            calls_first[name] += 1

    out = {}
    for name in LAYER_TIMES:
        out[f"{name}.self_s"] = time_req[name] / len(requests) if requests else 0.0
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = calls_first[name] / len(first)
    for name in LAYER_COUNTS:
        total = sum(v for (r, k), v in tracer.counts.items() if k == name and r in first)
        out[name] = total / len(first)
    for name in SETUP_LAYERS:
        out[f"setup.{name}.self_s"] = time_setup[name]
        out[f"setup.{name}.calls"] = calls_setup[name]
    panels = sum(v for (r, k), v in tracer.counts.items()
                 if k == "dsm.evolve.panels" and r != SETUP)
    evolve_s = time_req["dsm.evolve"]
    out["dsm.evolve.panels_per_s"] = panels / evolve_s if evolve_s > 0 else 0.0
    nonlinear_s = sum(v for k, v in time_req.items() if k.startswith("nonlinear."))
    out["nonlinear.share"] = nonlinear_s / request_time if request_time > 0 else 0.0
    for module in MODULES:
        out[f"{module}.failures"] = sum(v for (m, _), v in tracer.failures.items()
                                        if m == module)
    return out
