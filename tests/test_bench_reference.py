"""One recorded seed of each benchmark workload reproduces its reference.

``perfbench/run.py`` checks every batch's ``trials.csv`` against the rows
recorded in ``perfbench/reference/<workload>.json`` (``bench_check``). This
test runs one recorded seed of each workload the same way, in a fresh
interpreter with the BLAS thread variables at 1 as the benchmark sets them,
so that output drift fails the package's own suite as well. It only reads
``perfbench/``.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import otfs_isac

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED = 0

# argv: the perfbench directory, the output root, the seed and the JSON list
# of [workload, scenario path, trials, reference path]; prints each
# workload's reference cell count and failed cells as one JSON object
CHECK_SEED = """
import glob, json, os, sys
sys.path.insert(0, sys.argv[1])
import bench_check
from otfs_isac.cli import main
failed = {}
for name, scenario, trials, reference in json.loads(sys.argv[4]):
    out = os.path.join(sys.argv[2], name)
    code = main(["simulate", "--scenario", scenario, "--seed", sys.argv[3],
                 "--trials", str(trials), "--out", out])
    want = bench_check.load_reference(reference, int(sys.argv[3]))
    want = {k: v for k, v in want.items() if k[1] < trials}
    found = glob.glob(os.path.join(out, "**", "trials.csv"), recursive=True)
    got = bench_check.read_trials(found[0]) if code == 0 and len(found) == 1 else {}
    failed[name] = [len(want), sorted(bench_check.failed_cells(got, want))]
print(json.dumps(failed))
"""


@pytest.fixture(scope="module")
def perfbench_run():
    """perfbench/run.py as a module, for its workload table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(PERFBENCH, "run.py"))
        run = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, run)   # its dataclasses look it up
        spec.loader.exec_module(run)
    return run


def test_each_workload_reproduces_its_recorded_seed(perfbench_run, tmp_path):
    cases = [[name, os.path.join(ROOT, w.scenario), w.trials,
              os.path.join(perfbench_run.REFERENCE_DIR, f"{name}.json")]
             for name, w in perfbench_run.WORKLOADS.items()]
    package_root = os.path.dirname(os.path.dirname(otfs_isac.__file__))
    env = dict(os.environ, **dict.fromkeys(perfbench_run.THREAD_VARS, "1"),
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHECK_SEED, PERFBENCH, str(tmp_path),
                           str(SEED), json.dumps(cases)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    failed = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(failed) == sorted(perfbench_run.WORKLOADS)
    assert all(n_cells > 0 for n_cells, _ in failed.values()), failed
    # the first differing (snr_db, trial) cells of each workload
    assert {name: bad[:3] for name, (_, bad) in failed.items() if bad} == {}
