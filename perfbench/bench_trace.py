"""Span tracing of the otfs_isac layers from outside the package.

The tracer wraps every public function, and every public method of a public
class, defined in each layer module, by rebinding the name in each
``otfs_isac.*`` namespace that holds it. Private ``_``-prefixed names are
never wrapped. :meth:`Tracer.uninstall` puts every original back.

Each call records one span ``[name, start, end, parent, sim_id, error]`` in
memory: ``parent`` is the index of the enclosing span (-1 at the top) and
``sim_id`` is shared by all spans of one ``simulate`` call. Self time is a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

PACKAGE = "otfs_isac"

# The layers of the program, in pipeline order. crlb is not traced: none of
# the benchmark's experiment kinds calls it inside a trial.
LAYERS = ("transforms", "channel", "allocation", "comm", "coarse",
          "virtual_array", "scenario", "experiments", "cli")

ROOT = "bench.simulate"

NAME, START, END, PARENT, SIM_ID, ERROR = range(6)


def _count_solvers(counters, result):
    """Bagging work of one averaged_ssr call: solvers run, and solvers
    whose picks equal the returned estimate."""
    solver_estimates = getattr(result, "solver_estimates", None)
    estimates = getattr(result, "estimates", None)
    if solver_estimates is None or estimates is None:
        return
    counters["ssr_solvers"] = counters.get("ssr_solvers", 0) + len(solver_estimates)
    agree = sum(1 for points, _ in solver_estimates
                if points.shape == estimates.shape and (points == estimates).all())
    counters["ssr_agreeing"] = counters.get("ssr_agreeing", 0) + agree


def _count_output_bytes(counters, result):
    """Bytes of the files one run_scenario call wrote."""
    if isinstance(result, dict):
        size = sum(os.path.getsize(p) for p in result.values()
                   if isinstance(p, str) and os.path.isfile(p))
        counters["output_bytes"] = counters.get("output_bytes", 0) + size


# Counts taken from the return value at a span boundary.
PROBES = {
    "virtual_array.averaged_ssr": _count_solvers,
    "experiments.run_scenario": _count_output_bytes,
}


class Tracer:
    """Wraps the layer functions and records spans while installed."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.spans: list = []
        self.counters: dict = {}
        self.missing_modules: list = []
        self.wrapped: list = []
        self.sim_id = 0
        self._stack: list = []
        self._patches: list = []

    # -- installing ---------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original) for every public callable."""
        for layer in self.layers:
            modname = f"{PACKAGE}.{layer}"
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing_modules.append(modname)
                continue
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == modname:
                    yield f"{layer}.{attr}", module, attr, value
                elif inspect.isclass(value) and value.__module__ == modname:
                    for meth, fn in sorted(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield f"{layer}.{attr}.{meth}", value, meth, fn

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.wrapped, self.missing_modules = [], []
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == PACKAGE
                                            or name.startswith(PACKAGE + "."))]
        for span_name, owner, attr, original in list(self._targets()):
            wrapper = self._wrap(span_name, original)
            if inspect.isclass(owner):
                self._rebind(owner, attr, original, wrapper)
            else:
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is original:
                            self._rebind(namespace, name, original, wrapper)
            self.wrapped.append(span_name)
        return self

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, span_name, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.sim_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc)
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(self.counters, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, sim_id: int):
        """The span around one simulate call; spans inside it get ``sim_id``."""
        self.sim_id = sim_id
        index = len(self.spans)
        self.spans.append([ROOT, perf_counter(), 0.0, -1, sim_id, None])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][END] = perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines, after one header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "sim_id", "error"]}) + "\n")
            for name, start, end, parent, sim_id, error in self.spans:
                fh.write(json.dumps([name, start, end, parent, sim_id,
                                     error.__name__ if error else None]) + "\n")


# -- arithmetic on spans -----------------------------------------------------

def self_times(spans) -> list:
    """Per span: its duration minus the union of its children's intervals,
    each child interval clipped to the parent's."""
    children: dict = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(span)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, edge = 0.0, lo
        for child in sorted(children.get(i, ()), key=lambda s: s[START]):
            start, end = max(child[START], edge), min(child[END], hi)
            if end > start:
                covered += end - start
                edge = end
        out.append((hi - lo) - covered)
    return out


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans, error_base=Exception) -> dict:
    """Totals per span name and per layer, in seconds.

    Returns {"names": {name: {"calls", "self_s", "incl_s", "errors"}},
    "layers": {layer: {"calls", "self_s"}}, "root_s", "root_self_s"}, where
    ``errors`` counts calls that raised an ``error_base`` subclass.
    """
    names: dict = {}
    layers: dict = {}
    root_s = root_self_s = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        name = span[NAME]
        if name == ROOT:
            root_s += span[END] - span[START]
            root_self_s += self_s
            continue
        entry = names.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "incl_s": 0.0, "errors": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["incl_s"] += span[END] - span[START]
        if span[ERROR] is not None and issubclass(span[ERROR], error_base):
            entry["errors"] += 1
        layer = layers.setdefault(module_of(name), {"calls": 0, "self_s": 0.0})
        layer["calls"] += 1
        layer["self_s"] += self_s
    return {"names": names, "layers": layers, "root_s": root_s,
            "root_self_s": root_self_s}
