"""Experiment runner: output files, aggregation, and determinism."""

import csv
import json
import os
from pathlib import Path

import pytest

from otfs_isac.experiments import run_scenario
from otfs_isac.scenario import scenario_from_dict


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
