"""Experiment runner: output files, aggregation, and determinism."""

import ctypes
import csv
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import otfs_isac
from otfs_isac.experiments import run_scenario
from otfs_isac.scenario import scenario_from_dict

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


def small_raw(**overrides):
    raw = {
        "name": "exp-unit",
        "experiment_kind": "dd-correlation",
        "system": {"n_doppler": 8, "m_delay": 16, "n_tx": 2, "n_rx": 8},
        "targets": [{"angle_deg": 12.0, "range_m": 300.0, "velocity_mps": 200.0}],
        "allocation": {"diagonal_private_bins": 2},
        "trials": 2,
        "snr_db_values": [20.0],
        "seed": 4,
    }
    raw.update(overrides)
    return raw


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_output_files_and_manifest(tmp_path):
    sc = scenario_from_dict(small_raw())
    paths = run_scenario(sc, tmp_path)
    for key in ("trials", "aggregate", "manifest"):
        assert os.path.exists(paths[key])
    rows = read_csv(paths["trials"])
    assert rows[0] == ["snr_db", "trial", "metric", "value"]
    assert all(len(r) == 4 for r in rows[1:])
    agg = read_csv(paths["aggregate"])
    assert agg[0] == ["snr_db", "metric", "value"]
    manifest = json.loads(Path(paths["manifest"]).read_text())
    assert manifest["scenario"]["name"] == "exp-unit"
    assert manifest["trials_run"] == 2
    assert "version" in manifest


PARALLEL_CASES = {
    "coarse-angle-mse": dict(targets=[]),
    "dd-correlation": {},
    "ssr-angle": dict(estimator={"n_angles": 1, "n_solvers": 2}),
    "ssr-velocity": dict(estimator={"n_solvers": 2}),
    "comm-ber": dict(min_bits=1500),
}


@pytest.mark.parametrize("kind", sorted(PARALLEL_CASES))
def test_serial_parallel_identical(tmp_path, kind):
    sc = scenario_from_dict(small_raw(experiment_kind=kind, trials=3,
                                      **PARALLEL_CASES[kind]))
    p1 = run_scenario(sc, tmp_path / "serial", parallel=1)
    p2 = run_scenario(sc, tmp_path / "parallel", parallel=2)
    assert len(read_csv(p1["trials"])) > 3
    assert Path(p1["trials"]).read_text() == Path(p2["trials"]).read_text()
    assert Path(p1["aggregate"]).read_text() == Path(p2["aggregate"]).read_text()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ssr_angle_nmse_nan_when_true_angles_zero(tmp_path):
    sc = scenario_from_dict(small_raw(
        experiment_kind="ssr-angle", trials=1,
        targets=[{"angle_deg": 0.0, "range_m": 300.0, "velocity_mps": 200.0}],
        estimator={"n_angles": 1, "n_solvers": 2}))
    paths = run_scenario(sc, tmp_path)
    trials = {r[2]: r[3] for r in read_csv(paths["trials"])[1:]}
    assert trials["coarse_failed"] == "0.0"
    assert trials["angle_nmse"] == "nan"
    agg = {r[1]: r[2] for r in read_csv(paths["aggregate"])[1:]}
    assert agg["angle_nmse_mean"] == "nan"


def test_trials_override(tmp_path):
    sc = scenario_from_dict(small_raw(trials=5))
    paths = run_scenario(sc, tmp_path, trials=1)
    rows = read_csv(paths["trials"])[1:]
    assert {r[1] for r in rows} == {"0"}


def test_crlb_kind_single_row_per_snr(tmp_path):
    sc = scenario_from_dict(small_raw(
        experiment_kind="crlb", targets=[], snr_db_values=[0.0, 10.0]))
    paths = run_scenario(sc, tmp_path)
    agg = read_csv(paths["aggregate"])[1:]
    metrics = {r[1] for r in agg}
    assert "angle_crlb_rad2_mean" in metrics
    assert {r[0] for r in agg} == {"0.0", "10.0"}


def test_comm_ber_respects_min_bits(tmp_path):
    sc = scenario_from_dict(small_raw(
        experiment_kind="comm-ber",
        targets=[{"angle_deg": 0.0, "range_m": 0.0, "velocity_mps": 0.0}],
        min_bits=1000, snr_db_values=[20.0]))
    paths = run_scenario(sc, tmp_path)
    agg = {r[1]: float(r[2]) for r in read_csv(paths["aggregate"])[1:]}
    assert agg["total_bits"] >= 1000
    assert 0.0 <= agg["ber"] <= 1.0


def test_unknown_kind_rejected(tmp_path):
    sc = scenario_from_dict(small_raw())
    object.__setattr__(sc, "experiment_kind", "bogus")
    with pytest.raises(ValueError):
        run_scenario(sc, tmp_path)


def test_demo_spectrum_outputs(tmp_path):
    sc = scenario_from_dict(small_raw(
        experiment_kind="demo-spectrum",
        estimator={"n_angles": 1, "peaks_per_angle": 1, "n_solvers": 2}))
    paths = run_scenario(sc, tmp_path)
    spectrum = read_csv(paths["spectrum"])
    assert spectrum[0] == ["omega_rad", "sin_angle", "power"]
    assert len(spectrum) > 10
    surface = read_csv(paths["ssr_surface"])
    assert surface[0] == ["neighborhood", "angle_rad", "correlation"]
    assert os.path.exists(paths["manifest"])


def libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# minor page faults per trial of a warm run_scenario, in a fresh interpreter
WARM_FAULTS = """
import resource, sys, tempfile
from otfs_isac.experiments import run_scenario
from otfs_isac.scenario import load_scenario
sc = load_scenario(sys.argv[1])
with tempfile.TemporaryDirectory() as out:
    run_scenario(sc, out, trials=2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_scenario(sc, out, trials=4)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
"""


@pytest.mark.skipif(not libc_has_mallopt(), reason="libc has no mallopt")
def test_warm_trials_take_no_page_faults():
    """Once warm, a trial reuses heap pages: about 1,900 minor faults per
    trial with glibc's defaults, about 0 with the steady heap. Measured in a
    fresh interpreter, because malloc's dynamic mmap threshold depends on
    what the process allocated and freed before."""
    package_root = os.path.dirname(os.path.dirname(otfs_isac.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", WARM_FAULTS,
                          str(SCENARIO_DIR / "coarse_three_targets.json")],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert float(out.stdout) < 100


def test_steady_heap_sets_top_pad_and_mmap_threshold(tmp_path, monkeypatch):
    """Any mallopt call freezes glibc's dynamic mmap threshold, so the
    threshold is raised along with the top pad."""
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    run_scenario(scenario_from_dict(small_raw()), tmp_path)
    assert calls == [(-2, 64 << 20), (-3, 32 << 20)]


def libc_not_found(name):
    raise OSError("libc not found")


@pytest.mark.parametrize("cdll", [libc_not_found, lambda name: object()],
                         ids=["oserror", "no-mallopt"])
def test_runs_without_mallopt(tmp_path, monkeypatch, cdll):
    """Where libc cannot be loaded or has no mallopt, the heap is left alone
    and the run writes the same files."""
    sc = scenario_from_dict(small_raw())
    expected = Path(run_scenario(sc, tmp_path / "mallopt")["trials"]).read_bytes()
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    paths = run_scenario(sc, tmp_path / "no-mallopt")
    assert Path(paths["trials"]).read_bytes() == expected
