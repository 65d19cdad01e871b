"""Scenario parsing and validation."""

import glob
import inspect
import json
import os
import re
import tracemalloc
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np
import pytest

import otfs_isac.scenario as scenario_module
from otfs_isac.exceptions import ConfigValidationError
from otfs_isac.schema import FINITE, json_type, to_json
from otfs_isac.experiments import KINDS
from otfs_isac.scenario import (EstimatorSettings, Scenario, load_scenario,
                                scenario_from_dict)
from otfs_isac.virtual_array import default_neighborhood

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
SMALL_SYSTEM = {"n_doppler": 8, "m_delay": 16, "n_tx": 2, "n_rx": 8}


def minimal_raw(**overrides):
    raw = {
        "name": "unit",
        "experiment_kind": "dd-correlation",
        "system": dict(SMALL_SYSTEM),
        "targets": [{"angle_deg": 5.0, "range_m": 50.0, "velocity_mps": 10.0}],
        "allocation": {"diagonal_private_bins": 2},
        "trials": 3,
        "snr_db_values": [10.0],
        "seed": 1,
    }
    raw.update(overrides)
    return raw


def assert_echoes(raw, written):
    """Every value of the input is written back unchanged."""
    if isinstance(raw, dict):
        for key, value in raw.items():
            assert_echoes(value, written[key])
    elif isinstance(raw, list):
        assert len(written) == len(raw)
        for value, copy in zip(raw, written):
            assert_echoes(value, copy)
    else:
        assert written == raw, (written, raw)


def test_minimal_scenario_parses():
    sc = scenario_from_dict(minimal_raw())
    assert isinstance(sc, Scenario)
    assert sc.experiment_kind == "dd-correlation"
    assert sc.system.n_doppler == 8
    assert len(sc.targets) == 1
    assert sc.targets[0].angle_deg == 5.0
    assert sc.paths[0].angle_rad == pytest.approx(np.deg2rad(5.0))
    assert sc.snr_db_values == (10.0,)
    assert isinstance(sc.estimator, EstimatorSettings)


def test_default_neighborhood_defaults_are_the_estimator_box_defaults():
    """``default_neighborhood``'s keyword defaults are the six search-box
    fields of ``EstimatorSettings``, with the same values."""
    box = {f.name: f.default for f in fields(EstimatorSettings)
           if "_step_" in f.name or "_width_" in f.name}
    defaults = {name: p.default
                for name, p in inspect.signature(default_neighborhood).parameters.items()
                if p.default is not inspect.Parameter.empty}
    assert len(box) == 6
    assert defaults == box


def test_to_dict_is_json_serializable_and_round_trips():
    raw = minimal_raw(targets=[{"angle_deg": 12.0, "range_m": 73.48,
                                "velocity_mps": 54.54}])
    sc = scenario_from_dict(raw)
    d = sc.to_dict()
    assert_echoes(raw, d)
    sc2 = scenario_from_dict(json.loads(json.dumps(d)))
    assert sc2 == sc
    assert (sc2.system.tx_spacing_m, sc2.system.rx_spacing_m) == (None, None)
    assert sc2.paths == sc.paths
    assert sc2.bin_allocation == sc.bin_allocation


def test_explicit_private_bins():
    raw = minimal_raw(allocation={"private_bins": [[0, [0, 3]], [1, [2, 5]]]})
    sc = scenario_from_dict(raw)
    assert sc.bin_allocation.private_bins[0] == frozenset({(0, 3)})
    assert sc.bin_allocation.private_bins[1] == frozenset({(2, 5)})


def test_all_errors_collected():
    raw = {
        "experiment_kind": "nope",
        "system": {"n_tx": "x", "bogus_field": 1},
        "targets": [{"angle_deg": 5.0}],
        "allocation": {},
        "trials": 0,
        "seed": -1,
        "snr_db_values": [],
    }
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    messages = "\n".join(exc.value.errors)
    assert len(exc.value.errors) >= 6
    assert "experiment_kind" in messages
    assert "system.n_tx" in messages
    assert "system.bogus_field" in messages
    assert "targets[0]" in messages
    assert "trials" in messages
    assert "seed" in messages


def test_bin_outside_grid_rejected():
    raw = minimal_raw(allocation={"private_bins": [[0, [0, 99]], [1, [1, 1]]]})
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert any("outside" in e for e in exc.value.errors)


def test_kind_specific_target_requirements():
    with pytest.raises(ConfigValidationError):
        scenario_from_dict(minimal_raw(targets=[]))
    ok = minimal_raw(experiment_kind="coarse-angle-mse", targets=[])
    assert scenario_from_dict(ok).experiment_kind == "coarse-angle-mse"
    bad = minimal_raw(experiment_kind="ssr-velocity",
                      targets=[{"angle_deg": 1, "range_m": 1, "velocity_mps": 1},
                               {"angle_deg": 2, "range_m": 2, "velocity_mps": 2}])
    with pytest.raises(ConfigValidationError):
        scenario_from_dict(bad)


def test_unknown_estimator_field_rejected():
    raw = minimal_raw(estimator={"warp_factor": 9})
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert any("estimator.warp_factor" in e for e in exc.value.errors)


def test_invalid_aggregate_rejected():
    """The SSR answer is always the min-residual solution; the old selector
    is an unknown field."""
    raw = minimal_raw(estimator={"ssr_aggregate": "min_residual"})
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.errors == ["estimator.ssr_aggregate: unknown field"]


def test_load_scenario_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigValidationError):
        load_scenario(p)


def test_all_shipped_scenarios_validate():
    paths = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json")))
    assert paths, "no shipped scenario files found"
    for path in paths:
        sc = load_scenario(path)
        assert sc.experiment_kind in KINDS
        with open(path) as fh:
            assert_echoes(json.load(fh), sc.to_dict())
        assert scenario_from_dict(json.loads(json.dumps(sc.to_dict()))) == sc


@pytest.mark.parametrize("field, value", [
    ("n_solvers", 0),
    ("n_solvers", 2.5),
    ("n_solvers", True),
    ("ssr_sweeps", -1),
    ("dft_pad_factor", 0),
    ("peaks_per_angle", 0),
    ("n_angles", 0),
    ("angle_step_deg", 0),
    ("doppler_step_bins", -0.1),
    ("delay_step_bins", "0.1"),
    ("angle_width_deg", 0.5),
    ("doppler_width_bins", 0.05),
    ("delay_width_bins", float("nan")),
])
def test_bad_estimator_values_rejected(field, value):
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(minimal_raw(estimator={field: value}))
    assert any(e.startswith(f"estimator.{field}:") for e in exc.value.errors)


@pytest.mark.parametrize("kind, n_targets", [("ssr-angle", 2), ("demo-spectrum", 2),
                                             ("ssr-velocity", 1)])
def test_ssr_lattice_bound_counts_each_neighborhood(monkeypatch, kind, n_targets):
    """The SSR kinds refine one search box per target (ssr-velocity: one);
    each box here holds 21 * 41 * 41 = 35301 superset columns."""
    columns = n_targets * 35_301
    raw = minimal_raw(experiment_kind=kind, targets=[
        {"angle_deg": a, "range_m": 50.0, "velocity_mps": 10.0}
        for a in (5.0, 9.0)[:n_targets]])
    monkeypatch.setattr(scenario_module, "COLUMN_CAP", columns)
    scenario_from_dict(raw)
    monkeypatch.setattr(scenario_module, "COLUMN_CAP", columns - 1)
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert f"hold {columns} superset columns" in exc.value.errors[0]


@pytest.mark.parametrize("kind", ["dd-correlation", "coarse-angle-mse"])
def test_ssr_lattice_bound_skips_kinds_without_ssr(kind):
    scenario_from_dict(minimal_raw(experiment_kind=kind,
                                   estimator={"angle_step_deg": 1e-6}))


@pytest.mark.parametrize("kind", ["ssr-angle", "ssr-velocity", "demo-spectrum"])
def test_ssr_kinds_accept_several_peaks_per_angle(kind):
    targets = [] if kind == "ssr-velocity" else minimal_raw()["targets"]
    sc = scenario_from_dict(minimal_raw(experiment_kind=kind, targets=targets,
                                        estimator={"peaks_per_angle": 3}))
    assert sc.estimator.peaks_per_angle == 3


def test_edge_estimator_values_accepted():
    est = {"n_solvers": 1, "ssr_sweeps": 0, "dft_pad_factor": 1,
           "peaks_per_angle": 1, "n_angles": None,
           "angle_step_deg": 2.0, "angle_width_deg": 2.0}
    sc = scenario_from_dict(minimal_raw(estimator=est))
    assert sc.estimator.n_solvers == 1 and sc.estimator.ssr_sweeps == 0


@pytest.mark.parametrize("field", ["seed", "trials", "min_bits"])
def test_bool_counts_rejected(field):
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(minimal_raw(**{field: True}))
    assert any(e.startswith(f"{field}:") for e in exc.value.errors)


@pytest.mark.parametrize("name", ["", ".", "..", "../escape", "a/b", "a\\b",
                                  "nul\0", 7])
def test_unsafe_names_rejected(name):
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(minimal_raw(name=name))
    assert any(e.startswith("name:") for e in exc.value.errors)


def test_unnamed_file_named_after_its_stem(tmp_path):
    raw = minimal_raw()
    del raw["name"]
    path = tmp_path / "my-run.json"
    path.write_text(json.dumps(raw))
    assert load_scenario(path).name == "my-run"


@pytest.mark.parametrize("overrides, prefix", [
    ({"targets": None}, "targets:"),
    ({"estimator": [1]}, "estimator:"),
    ({"allocation": {"diagonal_private_bins": -1}}, "allocation.diagonal_private_bins:"),
    ({"allocation": {"diagonal_private_bins": 10 ** 9}},
     "allocation.diagonal_private_bins:"),
    ({"system": dict(SMALL_SYSTEM, rx_spacing_m=0.0)}, "system.rx_spacing_m:"),
    ({"system": dict(SMALL_SYSTEM, rx_spacing_m=-0.006)}, "system.rx_spacing_m:"),
    ({"system": dict(SMALL_SYSTEM, tx_spacing_m=0.0)}, "system.tx_spacing_m:"),
    ({"system": dict(SMALL_SYSTEM, tx_spacing_m=-1.0)}, "system.tx_spacing_m:"),
    ({"system": dict(SMALL_SYSTEM, subcarrier_spacing_hz=float("nan"))},
     "system.subcarrier_spacing_hz:"),
    ({"targets": [{"angle_deg": 5.0, "range_m": float("inf"), "velocity_mps": 1.0}]},
     "targets[0].range_m:"),
    ({"snr_db_values": [10.0, float("nan")]}, "snr_db_values[1]:"),
    ({"snr_db_values": [float("-inf")]}, "snr_db_values[0]:"),
    ({"system": dict(SMALL_SYSTEM, n_doppler=8.9)}, "system.n_doppler:"),
    ({"system": dict(SMALL_SYSTEM, m_delay=16.0)}, "system.m_delay:"),
    ({"system": dict(SMALL_SYSTEM, n_tx=True),
      "allocation": {"diagonal_private_bins": 1}}, "system.n_tx:"),
    ({"system": dict(SMALL_SYSTEM, n_rx="8")}, "system.n_rx:"),
    ({"system": dict(SMALL_SYSTEM, n_comm_rx=2.5)}, "system.n_comm_rx:"),
    ({"system": dict(SMALL_SYSTEM, subcarrier_spacing_hz=True)},
     "system.subcarrier_spacing_hz:"),
    ({"system": dict(SMALL_SYSTEM, carrier_freq_hz="24.25e9")},
     "system.carrier_freq_hz:"),
    ({"system": dict(SMALL_SYSTEM, tx_spacing_m=True)}, "system.tx_spacing_m:"),
    ({"system": dict(SMALL_SYSTEM, rx_spacing_m="0.006")}, "system.rx_spacing_m:"),
    ({"trails": 5}, "trails: unknown field"),
    ({"targets": [{"angle_deg": "5.0", "range_m": 50.0, "velocity_mps": 10.0}]},
     "targets[0].angle_deg:"),
    ({"targets": [{"angle_deg": True, "range_m": 50.0, "velocity_mps": 10.0}]},
     "targets[0].angle_deg:"),
    ({"targets": [{"angle_deg": 90.0, "range_m": 50.0, "velocity_mps": 10.0}]},
     "targets[0].angle_deg:"),
    ({"targets": [{"angle_deg": 5.0, "range_m": -1.0, "velocity_mps": 10.0}]},
     "targets[0].range_m:"),
    ({"targets": [{"angle_deg": 10 ** 400, "range_m": 50.0, "velocity_mps": 10.0}]},
     "targets[0].angle_deg:"),
    ({"targets": [{"angle_deg": 5.0, "range_m": 50.0, "velocity_mps": 10.0,
                   "rcs_m2": 1.0}]}, "targets[0].rcs_m2: unknown field"),
    ({"snr_db_values": ["10"]}, "snr_db_values[0]:"),
    ({"snr_db_values": [True]}, "snr_db_values[0]:"),
    ({"snr_db_values": []}, "snr_db_values:"),
    ({"system": dict(SMALL_SYSTEM, carrier_freq_hz=10 ** 400)},
     "system.carrier_freq_hz:"),
    ({"system": dict(SMALL_SYSTEM, subcarrier_spacing_hz=5e-324)},
     "system.subcarrier_spacing_hz:"),
    ({"system": dict(SMALL_SYSTEM, subcarrier_spacing_hz=1e9 * (1 + 1e-15))},
     "system.subcarrier_spacing_hz:"),
    ({"system": dict(SMALL_SYSTEM, carrier_freq_hz=5e-324)}, "system.carrier_freq_hz:"),
    ({"system": dict(SMALL_SYSTEM, carrier_freq_hz=1.1e13)}, "system.carrier_freq_hz:"),
    ({"system": dict(SMALL_SYSTEM, rx_spacing_m=5e-324)}, "system.rx_spacing_m:"),
    ({"system": dict(SMALL_SYSTEM, tx_spacing_m=1e300)}, "system.tx_spacing_m:"),
    ({"allocation": {"private_bins": [[0.9, [0, 3.7]], [1, [2, 5]]]}},
     "allocation.private_bins[0][0]:"),
    ({"allocation": {"private_bins": [[0.9, [0, 3.7]], [1, [2, 5]]]}},
     "allocation.private_bins[0][1][1]:"),
    ({"allocation": {"private_bins": [[0, [0, 3, 1]]]}}, "allocation.private_bins[0][1]:"),
    ({"allocation": {"private_bins": [[0, [0, 3]]], "diagonal_private_bins": 2}},
     "allocation: give private_bins or diagonal_private_bins, not both"),
    ({"allocation": {"diagonal_private_bins": 2, "shape": "diagonal"}},
     "allocation.shape: unknown field"),
    ({"estimator": {"angle_width_deg": 3.5}}, "estimator.angle_width_deg:"),
    ({"estimator": {"doppler_step_bins": 0.3, "doppler_width_bins": 1.0}},
     "estimator.doppler_width_bins:"),
    ({"experiment_kind": None}, "experiment_kind:"),
    ({"experiment_kind": "ssr-angle", "estimator": {"angle_step_deg": 1e-6}},
     "estimator.angle_step_deg/angle_width_deg/doppler_step_bins/"),
    ({"estimator": {"peaks_per_angle": 2}}, "estimator.peaks_per_angle:"),
    ({"experiment_kind": "ssr-angle", "allocation": {"diagonal_private_bins": 0}},
     "allocation: ssr-angle forms its virtual array"),
    ({"experiment_kind": "ssr-angle", "allocation": {"private_bins": []}},
     "allocation: ssr-angle forms its virtual array"),
    ({"experiment_kind": "ssr-velocity", "allocation": {"diagonal_private_bins": 0}},
     "allocation: ssr-velocity forms its virtual array"),
    ({"experiment_kind": "demo-spectrum", "allocation": {"private_bins": []}},
     "allocation: demo-spectrum forms its virtual array"),
], ids=["targets-null", "estimator-list", "diagonal-negative", "diagonal-huge",
        "rx-spacing-zero", "rx-spacing-negative", "tx-spacing-zero",
        "tx-spacing-negative", "subcarrier-spacing-nan", "target-range-inf",
        "snr-nan", "snr-minus-inf", "n-doppler-float", "m-delay-integral-float",
        "n-tx-bool", "n-rx-string", "n-comm-rx-float", "subcarrier-spacing-bool",
        "carrier-freq-string", "tx-spacing-bool", "rx-spacing-string",
        "top-level-typo", "angle-string", "angle-bool", "angle-90", "range-negative",
        "angle-past-float-range", "target-extra-key", "snr-string", "snr-bool",
        "snr-empty", "carrier-freq-past-float-range", "subcarrier-spacing-denormal",
        "subcarrier-spacing-over-1e9", "carrier-freq-denormal", "carrier-freq-over-1e13",
        "rx-spacing-denormal", "tx-spacing-1e300", "private-bin-antenna-float",
        "private-bin-index-float", "private-bin-three-indices", "both-bin-forms",
        "allocation-extra-key", "angle-width-3.5-steps", "doppler-width-3.33-steps",
        "kind-null", "ssr-lattice-over-cap", "dd-correlation-two-peaks",
        "ssr-angle-no-diagonal-bins", "ssr-angle-empty-bin-list",
        "ssr-velocity-no-private-bins", "demo-spectrum-no-private-bins"])
def test_malformed_input_is_a_validation_error(overrides, prefix):
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(minimal_raw(**overrides))
    assert any(e.startswith(prefix) for e in exc.value.errors), exc.value.errors


def test_oversize_grid_rejected_before_building_transforms(monkeypatch):
    def build(*args):
        pytest.fail("reduced transforms built for an oversize grid")
    monkeypatch.setattr(scenario_module, "modified_sfft", build)
    raw = minimal_raw(system=dict(SMALL_SYSTEM, n_doppler=4096, m_delay=8192, n_tx=4),
                      allocation={"diagonal_private_bins": 4})
    tracemalloc.start()
    try:
        with pytest.raises(ConfigValidationError) as exc:
            scenario_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert any(e.startswith("system:") and "MiB" in e for e in exc.value.errors)


def test_grid_bound_counts_the_reduced_transform_bytes(monkeypatch):
    # 8 x 16 grid, two antennas with one zero-forced bin each: 4096 bytes
    monkeypatch.setattr(scenario_module, "MAX_REDUCED_TRANSFORM_BYTES", 4096)
    scenario_from_dict(minimal_raw())
    monkeypatch.setattr(scenario_module, "MAX_REDUCED_TRANSFORM_BYTES", 4095)
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(minimal_raw())
    assert any(e.startswith("system:") for e in exc.value.errors)


@pytest.mark.parametrize("system", [
    {"n_doppler": 4096, "m_delay": 8192},    # 16 GiB of comm channel blocks
    {"n_doppler": 1, "m_delay": 1, "n_tx": 10 ** 6},    # ~15 TiB of Gram stack
    {"n_doppler": 10 ** 400},    # past float range: the message counts in integers
])
def test_oversize_grid_without_private_bins_rejected(system):
    """No reduced transform to bound, but the grid stacks are too large, and
    the allocation is never built."""
    raw = minimal_raw(system=system, allocation={"diagonal_private_bins": 0})
    tracemalloc.start()
    try:
        with pytest.raises(ConfigValidationError) as exc:
            scenario_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert any("per grid stack" in e for e in exc.value.errors), exc.value.errors


@pytest.mark.parametrize("counts, grids", [
    ({"n_rx": 8, "n_comm_rx": 1, "n_tx": 2}, 8),    # radar receive stack
    ({"n_rx": 2, "n_comm_rx": 4, "n_tx": 2}, 8),    # comm channel blocks
    ({"n_rx": 2, "n_comm_rx": 1, "n_tx": 3}, 12),   # LMMSE systems [Gram | rhs]
    ({"n_rx": 2, "n_comm_rx": 1, "n_tx": 1, "targets": 9}, 9),   # a comm link's path grids
])
def test_grid_stack_bound_counts_the_largest_stack(monkeypatch, counts, grids):
    """Each stack decides the bound when it is the largest; 8 x 16 grids. One
    SSR solver keeps the solver state, which shares the bound, below it. A
    comm link keeps one TF grid per target, and its message names them. The
    message rounds the need up, so one byte over the bound reads as over it."""
    system = dict(counts)
    n_paths = system.pop("targets", 0)
    raw = minimal_raw(system=dict(SMALL_SYSTEM, **system),
                      allocation={"diagonal_private_bins": 0},
                      estimator={"n_solvers": 1})
    if n_paths:
        raw.update(experiment_kind="comm-ber",
                   targets=[{"angle_deg": 0.0, "range_m": 10.0 * j, "velocity_mps": 0.0}
                            for j in range(n_paths)])
    monkeypatch.setattr(scenario_module, "MAX_GRID_STACK_BYTES", 8 * 16 * 16 * grids)
    scenario_from_dict(raw)
    monkeypatch.setattr(scenario_module, "MAX_GRID_STACK_BYTES",
                        8 * 16 * 16 * grids - 1)
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    messages = [e for e in exc.value.errors if "per grid stack" in e]
    assert len(messages) == 1, exc.value.errors
    assert not n_paths or f"{n_paths} targets" in messages[0]
    need, bound = map(int, re.search(r"needs (\d+) MiB per grid stack, over the (\d+) MiB",
                                     messages[0]).groups())
    assert need > bound, messages[0]


@pytest.mark.parametrize("field, value", [("dft_pad_factor", 10 ** 8),
                                          ("n_solvers", 10 ** 10)])
def test_oversize_estimator_counts_rejected(field, value):
    """Counts that size the angle spectrum or the SSR window starts are
    bounded before anything is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigValidationError) as exc:
            scenario_from_dict(minimal_raw(experiment_kind="ssr-angle",
                                           estimator={field: value}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert any(e.startswith(f"estimator.{field}:") and "256 MiB bound" in e
               for e in exc.value.errors), exc.value.errors


@pytest.mark.parametrize("field, value, array_bytes", [
    ("dft_pad_factor", 512, 512 * 8 * 16),    # 8 receive antennas, complex bins
    # 2 targets: a 216 B record, 3 integer starts and 3 float point values each
    ("n_solvers", 2048, 2048 * (216 + 2 * 6 * 8)),
])
def test_estimator_count_bound_is_exact(monkeypatch, field, value, array_bytes):
    two_targets = [{"angle_deg": 5.0, "range_m": 50.0, "velocity_mps": 10.0},
                   {"angle_deg": -9.0, "range_m": 80.0, "velocity_mps": -20.0}]
    raw = minimal_raw(targets=two_targets, allocation={"diagonal_private_bins": 0},
                      estimator={field: value})
    monkeypatch.setattr(scenario_module, "MAX_GRID_STACK_BYTES", array_bytes)
    scenario_from_dict(raw)
    monkeypatch.setattr(scenario_module, "MAX_GRID_STACK_BYTES", array_bytes - 1)
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert [e.split(":")[0] for e in exc.value.errors] == [f"estimator.{field}"]


@pytest.mark.parametrize("kind, field, value", [("dd-correlation", "trials", 10 ** 12),
                                               ("comm-ber", "min_bits", 10 ** 400)])
def test_oversize_run_rejected(kind, field, value):
    """The (SNR, trial) cells of a run are bounded before any is listed."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigValidationError) as exc:
            scenario_from_dict(minimal_raw(experiment_kind=kind, **{field: value}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert [e.split(":")[0] for e in exc.value.errors] == [field]


@pytest.mark.parametrize("overrides, cells", [
    ({"trials": 7}, 14),
    # 2 antennas with one zeroed bin each carry 2 * 2 * 127 = 508 bits a frame
    ({"experiment_kind": "comm-ber", "min_bits": 508 * 6 + 1}, 14),
    # crlb runs once per SNR, whatever its trial count
    ({"experiment_kind": "crlb", "trials": 10 ** 12}, 2),
])
def test_run_length_bound_is_exact(monkeypatch, overrides, cells):
    raw = minimal_raw(snr_db_values=[0.0, 10.0], **overrides)
    monkeypatch.setattr(scenario_module, "MAX_TRIAL_CELLS", cells)
    sc = scenario_from_dict(raw)
    assert len(sc.snr_db_values) * sc.trials_per_snr() == cells
    monkeypatch.setattr(scenario_module, "MAX_TRIAL_CELLS", cells - 1)
    with pytest.raises(ConfigValidationError):
        scenario_from_dict(raw)


# default 24.25 GHz carrier and 120 kHz spacing: range_max_m = 1249.14 m and
# velocity_max_mps / 2 = 370.877 m/s
RANGE_MAX_M = 299_792_458.0 / (2 * 120e3)
VELOCITY_LIMIT_MPS = 299_792_458.0 / 24.25e9 * 120e3 / 4


@pytest.mark.parametrize("kind", ["coarse-angle-mse", "dd-correlation", "ssr-angle",
                                  "ssr-velocity", "demo-spectrum"])
@pytest.mark.parametrize("range_m, velocity_mps, limit", [
    (2000.0, 10.0, "range_max_m"),
    (RANGE_MAX_M * (1 + 1e-9), 10.0, "range_max_m"),
    (50.0, 500.0, "velocity_max_mps / 2"),
    (50.0, VELOCITY_LIMIT_MPS * (1 + 1e-9), "velocity_max_mps / 2"),
    (50.0, -VELOCITY_LIMIT_MPS * (1 + 1e-9), "velocity_max_mps / 2"),
])
def test_aliased_radar_target_rejected(kind, range_m, velocity_mps, limit):
    raw = minimal_raw(experiment_kind=kind, targets=[
        {"angle_deg": 5.0, "range_m": range_m, "velocity_mps": velocity_mps}])
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert [e for e in exc.value.errors if e.startswith("targets[0]:")
            and limit in e] == exc.value.errors


def test_targets_inside_the_unambiguous_intervals_accepted():
    targets = [{"angle_deg": 5.0, "range_m": RANGE_MAX_M * (1 - 1e-9),
                "velocity_mps": -VELOCITY_LIMIT_MPS},
               {"angle_deg": -5.0, "range_m": 0.0,
                "velocity_mps": VELOCITY_LIMIT_MPS * (1 - 1e-9)}]
    assert len(scenario_from_dict(minimal_raw(targets=targets)).targets) == 2


@pytest.mark.parametrize("kind", ["comm-ber", "crlb"])
def test_aliased_targets_allowed_where_no_target_is_estimated(kind):
    """comm-ber's targets are channel paths the receiver knows; crlb reads none."""
    raw = minimal_raw(experiment_kind=kind, targets=[
        {"angle_deg": 0.0, "range_m": 2000.0, "velocity_mps": 500.0}])
    assert scenario_from_dict(raw).experiment_kind == kind


@pytest.mark.parametrize("velocity_mps", [1e300, -299792458.0, 299792458.0])
def test_comm_ber_target_at_or_past_light_speed_rejected(velocity_mps):
    """comm-ber's paths skip the aliasing check, so only the bound |v| < c
    keeps a velocity of 1e300 m/s from an inf Doppler and a NaN channel."""
    with open(os.path.join(SCENARIO_DIR, "comm_ber.json")) as fh:
        raw = json.load(fh)
    for target in raw["targets"]:
        target["velocity_mps"] = velocity_mps
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert any(e.startswith("targets[0].velocity_mps: expected number in "
                            "(-299792458, 299792458)") for e in exc.value.errors)


@pytest.mark.parametrize("kind, n_comm_rx, snr_db_values, rejected", [
    ("comm-ber", 3, [10.0, float("inf")], True),
    ("comm-ber", 4, [10.0, float("inf")], False),
    ("comm-ber", 3, [10.0, 300.0], False),
    # only the comm link reads n_comm_rx
    ("dd-correlation", 3, [float("inf")], False),
])
def test_noise_free_comm_ber_needs_as_many_receivers_as_transmitters(
        kind, n_comm_rx, snr_db_values, rejected):
    """Without noise a link with fewer comm receivers than transmitters has
    a singular LMMSE and no bit error count of its own."""
    with open(os.path.join(SCENARIO_DIR, "comm_ber.json")) as fh:
        raw = json.load(fh)
    raw.update(experiment_kind=kind, snr_db_values=snr_db_values)
    raw["system"]["n_comm_rx"] = n_comm_rx
    if not rejected:
        assert scenario_from_dict(raw).system.n_comm_rx == n_comm_rx
        return
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.errors == [
        "snr_db_values: inf (no noise) needs n_comm_rx >= n_tx for comm-ber, got "
        "n_comm_rx=3 and n_tx=4: without noise the LMMSE is singular and the bit "
        "errors depend on the solver"]


def test_ssr_velocity_draw_range_must_be_unaliased():
    """At 30 kHz spacing the limit is 92.7 m/s, inside the +-100 m/s draws."""
    raw = minimal_raw(experiment_kind="ssr-velocity", targets=[],
                      system=dict(SMALL_SYSTEM, subcarrier_spacing_hz=30e3))
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.errors == [
        "experiment_kind: ssr-velocity draws velocities in [-100, 100) m/s, outside "
        "the unambiguous [-92.7193, 92.7193) m/s (velocity_max_mps / 2)"]
    raw["experiment_kind"] = "ssr-angle"
    raw["targets"] = [{"angle_deg": 5.0, "range_m": 50.0, "velocity_mps": 10.0}]
    scenario_from_dict(raw)


@pytest.mark.parametrize("snr_db, ok", [
    (-300.0, True), (300.0, True), (float("inf"), True), (-300.5, False),
    (300.5, False), (3083.0, False), (-3300.0, False), (-float("inf"), False)])
def test_snr_bound(snr_db, ok):
    """A finite SNR lies in the physical [-300, 300] dB; inf is a noise-free run."""
    raw = minimal_raw(snr_db_values=[10.0, snr_db])
    if ok:
        assert scenario_from_dict(raw).snr_db_values == (10.0, snr_db)
        return
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.errors == [
        f"snr_db_values[1]: expected number in [-300, 300] or inf, got {snr_db!r}"]


@pytest.mark.parametrize("kind", KINDS)
def test_private_bins_needed_exactly_by_the_kinds_with_ssr_boxes(kind):
    """A kind that refines SSR search boxes forms its virtual array from the
    private bins; every other kind runs without one."""
    raw = minimal_raw(experiment_kind=kind, allocation={"diagonal_private_bins": 0})
    if KINDS[kind].boxes is None:
        assert scenario_from_dict(raw).bin_allocation.private_bin_list() == []
        return
    with pytest.raises(ConfigValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.errors == [f"allocation: {kind} forms its virtual array from "
                                "the private bins and needs at least one"]


def test_physical_geometry_edges_accepted():
    """Each end of the subcarrier, carrier and antenna spacing bounds is valid."""
    for system in ({"subcarrier_spacing_hz": 1.0, "carrier_freq_hz": 1e6,
                    "tx_spacing_m": 1e-6, "rx_spacing_m": 1e3},
                   {"subcarrier_spacing_hz": 1e9, "carrier_freq_hz": 1e13,
                    "tx_spacing_m": 1e3, "rx_spacing_m": 1e-6}):
        raw = minimal_raw(experiment_kind="crlb", targets=[],
                          system=dict(SMALL_SYSTEM, **system))
        assert scenario_from_dict(raw).system.subcarrier_spacing_hz == system[
            "subcarrier_spacing_hz"]


def test_edge_values_accepted():
    """dd-correlation reads no virtual array, so it runs without private bins."""
    sc = scenario_from_dict(minimal_raw(experiment_kind="dd-correlation",
                                        allocation={"diagonal_private_bins": 0},
                                        snr_db_values=[float("inf")]))
    assert sc.bin_allocation.private_bin_list() == []
    assert sc.snr_db_values == (float("inf"),)


def schema_rows(cls=Scenario, section="top"):
    """(section, field, JSON type, default, unit, bound) of every field of the
    scenario schema, nested objects after the field that holds them."""
    rows = []
    for f in fields(cls):
        kind = typing.get_type_hints(cls)[f.name]
        inner = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else kind
        if f.default is MISSING:
            default = "required"
        elif is_dataclass(f.default):
            default = "{}"
        else:
            default = json.dumps(to_json(f.default))
        bound = f.metadata.get("bound")
        if isinstance(bound, tuple):
            bound = ", ".join(bound)
        elif bound is None and ("integer" in json_type(kind) or "number" in json_type(kind)):
            bound = FINITE
        rows.append((section, f.name, json_type(kind), default,
                     f.metadata.get("unit", ""), bound or ""))
        if is_dataclass(inner):
            rows.extend(schema_rows(inner, f.name + ("[i]" if inner is not kind else "")))
    return rows


def readme_schema_rows():
    """The rows of the README's scenario field table, without backticks."""
    with open(README) as fh:
        text = fh.read()
    table = text[text.index("| Section | Field |"):].split("\n\n")[0]
    return [tuple(cell.strip().replace("`", "") for cell in line.strip("|").split("|"))
            for line in table.splitlines()[2:]]


def test_readme_table_is_the_schema():
    assert readme_schema_rows() == schema_rows()
