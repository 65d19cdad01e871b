"""The benchmark's tables follow the package's, checked in its own suite.

``perfbench/run.py`` reads each per-layer metric from the trace span of one
public function or method (``METRIC_SPANS``). A span whose name no longer
resolves reads 0 instead of failing, so a rename in the package would
silently zero a metric. ``perfbench/bench_check.py`` compares the
``DISCRETE`` metrics exactly and the rest within ``REL_TOL``, so a 0/1 or
count metric missing from that list would pass a changed outcome.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

from otfs_isac.experiments import KINDS

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_perfbench(name):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def metric_spans():
    return load_perfbench("run").METRIC_SPANS


def test_metric_spans_resolve_to_public_package_functions(metric_spans):
    assert metric_spans
    for span in metric_spans:
        layer, *path = span.split(".")
        module = importlib.import_module(f"otfs_isac.{layer}")
        owner = module
        for name in path:
            assert not name.startswith("_"), span
            owner = getattr(owner, name, None)
            assert owner is not None, f"{span} is not defined in otfs_isac.{layer}"
        assert inspect.isfunction(owner), f"{span} is not a function"
        assert owner.__module__ == module.__name__, f"{span} is defined elsewhere"


def test_exact_metrics_are_the_rates_and_counts_of_the_kind_tables():
    """A metric aggregated as a ``*_rate`` is 0/1 per trial, and one summed
    or taken as a ratio is a count: both must match a reference exactly."""
    discrete = {metric.name for kind in KINDS.values() for metric in kind.metrics
                if metric.aggregate.endswith("_rate") or metric.reduction != "mean"}
    assert load_perfbench("bench_check").DISCRETE == discrete
