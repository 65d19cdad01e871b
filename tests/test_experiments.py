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
from otfs_isac import experiments
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

# minor page faults of a warm averaged_ssr call made straight from the
# library, in the ssr_close_angles geometry (64x128 grid, 16 Rx, 4 diagonal
# private bins, 3 neighborhoods, 64 solvers)
WARM_SSR_FAULTS = """
import resource, types
import numpy as np
from otfs_isac.config import SystemConfig
from otfs_isac.virtual_array import VirtualSnapshot, averaged_ssr, default_neighborhood
cfg = SystemConfig()
rng = np.random.default_rng(0)
n_rows = 4 * cfg.n_rx
snapshot = VirtualSnapshot(
    values=rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows),
    bin_meta=tuple((p, (p, p)) for p in range(4)), n_rx=cfg.n_rx,
    row_weights=rng.uniform(0.5, 1.5, n_rows))
specs = [default_neighborhood(types.SimpleNamespace(
    angle_rad=np.deg2rad(a), doppler_hz=(3 + 5 * k) * cfg.doppler_spacing_hz,
    delay_s=(4 + 7 * k) * cfg.delay_spacing_s), cfg)
    for k, a in enumerate((12.0, 14.0, 16.0))]
averaged_ssr(snapshot, specs, cfg, n_solvers=64, seed=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
averaged_ssr(snapshot, specs, cfg, n_solvers=64, seed=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def fresh_interpreter(script, *args):
    """stdout of ``script`` run in a fresh interpreter on this package: malloc's
    dynamic mmap threshold depends on what the process allocated and freed
    before."""
    package_root = os.path.dirname(os.path.dirname(otfs_isac.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True).stdout


@pytest.mark.skipif(not libc_has_mallopt(), reason="libc has no mallopt")
@pytest.mark.parametrize("name", ["coarse_three_targets.json", "ssr_close_angles.json"])
def test_warm_trials_take_no_page_faults(name):
    """Once warm, a trial reuses heap pages: about 1,900 minor faults per
    coarse_three_targets trial with glibc's defaults, about 0 with the
    steady heap."""
    assert float(fresh_interpreter(WARM_FAULTS, str(SCENARIO_DIR / name))) < 100


@pytest.mark.skipif(not libc_has_mallopt(), reason="libc has no mallopt")
def test_library_ssr_call_takes_no_page_faults():
    """Importing the package sets the steady heap, so a caller of
    averaged_ssr that never runs a scenario reuses heap pages too: about
    2,000 minor faults per warm call on this snapshot with glibc's defaults,
    about 0 with the steady heap."""
    assert int(fresh_interpreter(WARM_SSR_FAULTS)) < 100


def test_steady_heap_sets_top_pad_and_mmap_threshold(monkeypatch):
    """Any mallopt call freezes glibc's dynamic mmap threshold, so the
    threshold is raised along with the top pad."""
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    experiments._steady_heap()
    assert calls == [(-2, 64 << 20), (-3, 32 << 20)]


def libc_not_found(name):
    raise OSError("libc not found")


@pytest.mark.parametrize("cdll", [libc_not_found, lambda name: object()],
                         ids=["oserror", "no-mallopt"])
def test_runs_without_mallopt(monkeypatch, cdll):
    """Where libc cannot be loaded or has no mallopt, the heap is left alone
    without an error."""
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    experiments._steady_heap()


def test_git_describe_runs_once_per_process(tmp_path, monkeypatch):
    """The manifest's version string is computed once, not once per run."""
    calls = []
    run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    experiments._version_string.cache_clear()
    monkeypatch.setattr(subprocess, "run", counting_run)
    sc = scenario_from_dict(small_raw(experiment_kind="crlb", targets=[]))
    manifests = [json.loads(Path(run_scenario(sc, tmp_path / d)["manifest"]).read_text())
                 for d in ("a", "b")]
    assert len(calls) == 1
    assert manifests[0]["version"] == manifests[1]["version"]
