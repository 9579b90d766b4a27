"""Per-layer tracing of feastube from outside the program.

Spans are recorded around calls into every public function of the package
modules, one span per call with (name, start, end, parent, op).  A wrapper
is installed at every binding site of a function, not only in its defining
module: ``from .simplex import solve_matrix_game`` leaves a second name in
``feastube.ipc`` that patching ``feastube.simplex`` alone would miss.

Calls into the problem's own callables (``f``, ``running_cost`` and each
constraint's ``h``) are counted, not spanned, by wrapping them in a copy of
the problem.  Spans live in flat arrays in memory and are written once, at
the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("problem", "geometry", "simplex", "ipc", "trajectory", "value", "analysis", "cli")


class Tracer:
    """Span recorder and counters; records only while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []          # [span index, name, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.repair_ratios: list[float] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append([idx, name, 0.0])
        self._depth[name] += 1
        self.span_start.append(perf_counter())

    def _close(self) -> None:
        end = perf_counter()
        idx, name, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_time[name] += dur - child
        self.calls[name] += 1
        self._depth[name] -= 1
        if self._depth[name] == 0:          # recursion counts once inclusively
            self.inclusive[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name: str, fn, after=None):
        """Spanning wrapper; ``after(args, kwargs, result)`` may count work
        and may return a replacement result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                replaced = after(args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return traced

    # -- problem callables ---------------------------------------------------

    def instrument(self, p):
        """Copy of problem ``p`` whose f, running_cost and h are counted."""
        n = p.n
        counts = self.counts
        f0, cost0 = p.f, p.running_cost

        def f(t, x, u):
            out = f0(t, x, u)
            if self.active:
                counts["problem.f.calls"] += 1
                counts["problem.f.rows"] += np.size(out) // n
            return out

        def running_cost(t, x, u):
            out = cost0(t, x, u)
            if self.active:
                counts["problem.cost.calls"] += 1
            return out

        def counted_h(h0):
            def h(t, x):
                out = h0(t, x)
                if self.active:
                    counts["problem.h.calls"] += 1
                    counts["problem.h.points"] += np.size(out)
                return out
            return h

        cons = tuple(dataclasses.replace(c, h=counted_h(c.h)) for c in p.constraints)
        return dataclasses.replace(p, f=f, running_cost=running_cost, constraints=cons)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: Path, op_labels: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            op_labels=np.array(op_labels),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


def _after_hooks(tracer: Tracer) -> dict:
    counts = tracer.counts

    def steps(key):
        def hook(args, kwargs, result):
            counts[key] += result.n_steps
        return hook

    def repair(args, kwargs, result):
        counts["trajectory.ref_nodes"] += len(result.corrected.times)
        tracer.repair_ratios.append(result.sup_dist / result.rho_in)

    def field(args, kwargs, result):
        counts["value.field_nodes"] += result.values.size

    def csv_bytes(args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        counts["analysis.write_csv.bytes"] += os.path.getsize(path)

    def problem_built(args, kwargs, result):
        return tracer.instrument(result)

    return {
        "trajectory.filippov_project": steps("trajectory.filippov_project.steps"),
        "trajectory.viable_trajectory": steps("trajectory.viable_trajectory.steps"),
        "trajectory.nft_correct": repair,
        "value.solve_value": field,
        "analysis.write_csv": csv_bytes,
        "problem.get_problem": problem_built,
    }


def public_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> (layer.name, function) for every public function
    defined in a layer module."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"feastube.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                found[id(obj)] = (f"{layer}.{name}", obj)
    return found


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding site of every public function; restore on exit."""
    hooks = _after_hooks(tracer)
    wrappers = {
        key: (fn, tracer.wrap(label, fn, hooks.get(label)))
        for key, (label, fn) in public_functions().items()
    }
    patched = []
    try:
        for modname, mod in list(sys.modules.items()):
            if modname != "feastube" and not modname.startswith("feastube."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        yield tracer
    finally:
        for mod, attr, obj in reversed(patched):
            setattr(mod, attr, obj)
