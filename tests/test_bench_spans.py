"""The benchmark's per-layer metrics name package functions that must exist.

``perfbench/run.py`` reads each per-layer metric from the trace span of one
public function or method (``METRIC_SPANS``). A span whose name no longer
resolves reads 0 instead of failing, so a rename in the package would
silently zero a metric; this test catches it in the package's own suite.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def metric_spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(PERFBENCH, "run.py"))
        run = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, run)   # its dataclasses look it up
        spec.loader.exec_module(run)
    return run.METRIC_SPANS


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
