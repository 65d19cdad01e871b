"""Experiment runner: output files, aggregation, and determinism."""

import compileall
import ctypes
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import types
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import otfs_isac
from otfs_isac import experiments
from otfs_isac.coarse import CoarseEstimate
from otfs_isac.comm import symbol_capacity, transmit_chain
from otfs_isac.config import SystemConfig, substream
from otfs_isac.exceptions import PeakSeparationFailure, TooManyTargets
from otfs_isac.experiments import run_scenario
from otfs_isac.scenario import scenario_from_dict
from otfs_isac.transforms import isfft
from oracles import radar_receive_reference

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
README = Path(__file__).parent.parent / "README.md"


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
    assert manifest["failures"] == {"20.0": {}}
    assert "version" in manifest


def manifest_of(paths):
    return json.loads(Path(paths["manifest"]).read_text())


# a small scenario of every kind that runs trials (all but demo-spectrum)
PARALLEL_CASES = {
    "coarse-angle-mse": dict(targets=[]),
    "dd-correlation": {},
    "ssr-angle": dict(estimator={"n_angles": 1, "n_solvers": 2}),
    "ssr-velocity": dict(estimator={"n_solvers": 2}),
    "comm-ber": dict(min_bits=1500),
    "crlb": dict(targets=[]),
}
TRIAL_KINDS = [kind for kind in experiments.KINDS if kind != "demo-spectrum"]


@pytest.mark.parametrize("kind", TRIAL_KINDS)
def test_serial_parallel_identical(tmp_path, kind):
    assert kind in PARALLEL_CASES, f"PARALLEL_CASES has no {kind} scenario"
    sc = scenario_from_dict(small_raw(experiment_kind=kind, trials=3,
                                      **PARALLEL_CASES[kind]))
    p1 = run_scenario(sc, tmp_path / "serial", parallel=1)
    p2 = run_scenario(sc, tmp_path / "parallel", parallel=2)
    assert len(read_csv(p1["trials"])) > 3
    assert Path(p1["trials"]).read_text() == Path(p2["trials"]).read_text()
    assert Path(p1["aggregate"]).read_text() == Path(p2["aggregate"]).read_text()
    assert manifest_of(p1)["failures"] == manifest_of(p2)["failures"]


FRAME_KINDS = [kind for kind in TRIAL_KINDS if experiments.KINDS[kind].draw is not None]


def frame_reference(cell, draw):
    """(truth, x, rx_tf) of ``experiments._frame`` drawn in line, one stage
    after another, with the synchronous receive oracle; ``x`` is the ISFFT
    of the DD frame, before zero-forcing."""
    sc = cell.scenario
    cfg, alloc = sc.system, sc.bin_allocation
    rng = substream(sc.seed, cell.snr_idx, cell.trial, 0)
    targets, truth = draw(sc, rng)
    bits = rng.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, _, tf = transmit_chain(bits, alloc, cfg)
    rx_tf = radar_receive_reference(tf, targets, cfg, cell.snr_db,
                                    substream(sc.seed, cell.snr_idx, cell.trial, 1))
    return truth, isfft(dd), rx_tf


def assert_frame_is_the_reference(cell, kind):
    truth, *scene = frame_reference(cell, experiments.KINDS[kind].draw)
    assert repr(cell.truth) == repr(truth)
    assert [a.tobytes() for a in cell.scene] == [a.tobytes() for a in scene]


FRAME_SYSTEMS = [{"n_doppler": 8, "m_delay": 16, "n_tx": 2, "n_rx": 8},
                 {"n_doppler": 16, "m_delay": 8, "n_tx": 3, "n_rx": 5}]


@pytest.mark.parametrize("kind", FRAME_KINDS)
@pytest.mark.parametrize("system", FRAME_SYSTEMS, ids=["8x16", "16x8"])
def test_frame_equals_the_synchronous_frame(kind, system, thread_starts):
    """A frame built outside a run, its noise drawn in line, is the bytes of
    the reference frame at finite SNRs and at inf, and starts no thread."""
    sc = scenario_from_dict(small_raw(experiment_kind=kind, system=system,
                                      snr_db_values=[-5.0, 12.5, math.inf],
                                      **PARALLEL_CASES[kind]))
    draw = experiments.KINDS[kind].draw
    for snr_idx, snr_db in enumerate(sc.snr_db_values):
        for trial in range(2):
            cell = experiments._frame(experiments.Cell(sc, snr_db, snr_idx, trial), draw)
            assert_frame_is_the_reference(cell, kind)
    assert not thread_starts


def with_estimates(monkeypatch, *estimates, kind="dd-correlation"):
    """Replace the (estimator call, failure rows) list of ``kind`` in KINDS."""
    monkeypatch.setitem(experiments.KINDS, kind,
                        experiments.KINDS[kind]._replace(estimates=list(estimates)))


def assert_one_joined_worker(thread_starts):
    """The run drew its noise on a single worker thread, joined since."""
    assert [thread.name for thread in thread_starts] == ["otfs-isac-noise_0"]
    assert not thread_starts[0].is_alive()


@pytest.mark.parametrize("kind", FRAME_KINDS)
@pytest.mark.parametrize("system", FRAME_SYSTEMS, ids=["8x16", "16x8"])
def test_run_frames_equal_the_synchronous_frame(tmp_path, monkeypatch, kind, system,
                                                thread_starts):
    """The frames of a run, each one's noise drawn on the worker while the
    previous cell is estimated, are the bytes of the reference frames at
    finite SNRs and at inf, where nothing is drawn."""
    frames = []

    def capture(cell):
        frames.append(cell)
        return []

    with_estimates(monkeypatch, (capture, []), kind=kind)
    sc = scenario_from_dict(small_raw(experiment_kind=kind, system=system, trials=2,
                                      snr_db_values=[-5.0, 12.5, math.inf],
                                      **PARALLEL_CASES[kind]))
    run_scenario(sc, tmp_path)
    assert [(cell.snr_idx, cell.trial) for cell in frames] == [
        (si, t) for si in range(3) for t in range(2)]
    for cell in frames:
        assert_frame_is_the_reference(cell, kind)
    assert_one_joined_worker(thread_starts)


@pytest.mark.parametrize("bins, recovered", [(1.5, 1.0), (2.5, 0.0)])
def test_dd_correlation_angle_tolerance_is_one_padded_bin(monkeypatch, bins, recovered):
    """At quarter-wavelength receive spacing one padded-DFT bin is
    lambda / (g_r K) = 4 / K in sine, twice the 2 / K of half-wavelength
    arrays: an estimate 1.5 * (2 / K) off in sine is recovered, 2.5 * (2 / K)
    is not."""
    system = {"n_doppler": 8, "m_delay": 16, "n_tx": 2, "n_rx": 8,
              "rx_spacing_m": SystemConfig().wavelength_m / 4}
    sc = scenario_from_dict(small_raw(system=system))
    cfg, target = sc.system, sc.paths[0]
    k = sc.estimator.dft_pad_factor * cfg.n_rx
    angle = np.arcsin(np.sin(target.angle_rad) + bins * 2 / k)
    estimate = CoarseEstimate(angle, 0, 0, target.doppler_hz, target.delay_s,
                              sc.targets[0].range_m, sc.targets[0].velocity_mps, 1.0)
    monkeypatch.setattr(experiments, "coarse_pipeline", lambda *a, **kw: [estimate])
    rows = dict(experiments._dd_correlation(
        experiments.Cell(sc, 20.0, 0, 0, truth=list(sc.paths), scene=[None, None])))
    assert rows["angle_abs_err_sin_t0"] == pytest.approx(bins * 2 / k)
    assert rows["recovered_all"] == recovered


def test_a_failed_frame_draw_raises_in_the_trial(tmp_path, capfd, monkeypatch, thread_starts):
    """A draw that fails on the worker raises its own exception from the run,
    prints nothing, reaches no threading.excepthook and leaves no thread
    behind."""
    def failing_draw(noise, noise_var, rng):
        raise MemoryError("no room for the noise")

    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    monkeypatch.setattr(experiments, "_draw_noise", failing_draw)
    with pytest.raises(MemoryError, match="no room for the noise") as info:
        run_scenario(scenario_from_dict(small_raw(trials=3)), tmp_path)
    assert "failing_draw" in {entry.name for entry in info.traceback}
    assert not hooked and capfd.readouterr().err == ""
    assert_one_joined_worker(thread_starts)


def test_public_layer_functions_run_on_the_main_thread(tmp_path):
    """Only private package code runs on the noise worker of a serial run
    of several cells, whose draws run ahead while earlier cells are
    estimated: a tracer of the public layer functions keeps a single span
    stack, the main thread's."""
    package_dir = os.path.dirname(otfs_isac.__file__)
    off_main = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package_dir):
            off_main.append(frame.f_code.co_name)

    threading.setprofile(profile)    # every thread started from here on
    try:
        for kind in FRAME_KINDS:
            run_scenario(scenario_from_dict(small_raw(
                experiment_kind=kind, trials=3, snr_db_values=[-5.0, 20.0],
                **PARALLEL_CASES[kind])), tmp_path / kind)
    finally:
        threading.setprofile(None)
    assert "_draw_noise" in off_main
    assert [name for name in off_main if not name.startswith("_")] == []


def recorded_submissions(monkeypatch):
    """The trial of each cell whose noise draw the run submits, in order."""
    submitted, noise = [], experiments._noise

    def recording_noise(cell, pool):
        submitted.append(cell.trial)
        return noise(cell, pool)

    monkeypatch.setattr(experiments, "_noise", recording_noise)
    return submitted


def test_each_draw_starts_before_the_previous_cell_is_estimated(tmp_path, monkeypatch,
                                                                thread_starts):
    """While a cell is estimated the next cell's noise is being drawn, the
    last cell has no draw to submit, and all are drawn on one worker that
    does not outlive the run."""
    submitted, started = recorded_submissions(monkeypatch), []

    def estimate(cell):
        started.append(len(submitted))
        return []

    with_estimates(monkeypatch, (estimate, []))
    before = set(threading.enumerate())
    run_scenario(scenario_from_dict(small_raw(trials=4)), tmp_path)
    assert submitted == [0, 1, 2, 3] and started == [2, 3, 4, 4]
    assert_one_joined_worker(thread_starts)
    assert set(threading.enumerate()) == before


def test_added_noise_is_freed_before_the_next_draw(tmp_path, monkeypatch):
    """A frame's noise buffer is released once it is added to the echo,
    before the next cell's buffer is made, so a run holds one at a time."""
    buffers, alive = [], []
    draw, noise = experiments._draw_noise, experiments._noise

    def recording_draw(buffer, *args):
        buffers.append(weakref.ref(buffer))
        return draw(buffer, *args)

    def counting_noise(cell, pool):
        # every earlier draw has been added, so it has recorded its buffer
        alive.append(sum(ref() is not None for ref in buffers))
        return noise(cell, pool)

    monkeypatch.setattr(experiments, "_draw_noise", recording_draw)
    monkeypatch.setattr(experiments, "_noise", counting_noise)
    run_scenario(scenario_from_dict(small_raw(trials=4)), tmp_path)
    assert alive == [0, 0, 0, 0] and len(buffers) == 4


def test_a_failed_estimate_writes_its_rows_and_leaves_no_draw(tmp_path, monkeypatch,
                                                              thread_starts):
    """A package error in one cell's estimate writes that cell's failure
    rows; the run goes on, and its one worker does not outlive it."""
    def estimate(cell):
        if cell.trial == 1:
            raise PeakSeparationFailure("no separated peaks")
        return [("recovered_all", 1.0)]

    with_estimates(monkeypatch, (estimate, [("recovered_all", 0.0)]))
    before = set(threading.enumerate())
    paths = run_scenario(scenario_from_dict(small_raw(trials=3)), tmp_path)
    assert read_csv(paths["trials"])[1:] == [["20.0", str(t), "recovered_all", value]
                                             for t, value in enumerate(("1.0", "0.0", "1.0"))]
    assert manifest_of(paths)["failures"] == {"20.0": {"PeakSeparationFailure": 1}}
    assert_one_joined_worker(thread_starts)
    assert set(threading.enumerate()) == before


def test_an_unexpected_error_joins_the_pending_draw(tmp_path, monkeypatch, thread_starts):
    """An error that is not a package error propagates out of the run, and
    the worker, with the draw already submitted for the next cell, is
    joined first."""
    submitted = recorded_submissions(monkeypatch)

    def estimate(cell):
        if cell.trial == 1:
            raise RuntimeError("estimator bug")
        return []

    with_estimates(monkeypatch, (estimate, []))
    with pytest.raises(RuntimeError, match="estimator bug"):
        run_scenario(scenario_from_dict(small_raw(trials=4)), tmp_path)
    assert submitted == [0, 1, 2]           # cells 0 and 1, and cell 2 ahead
    assert_one_joined_worker(thread_starts)


class InlinePool:
    """A process pool stand-in that runs the chunks in this process and
    records them."""

    def __init__(self):
        self.chunks = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        self.chunks += [cells for _, cells in items]
        return [func(item) for item in items]


def test_parallel_cells_go_out_in_contiguous_chunks(tmp_path, monkeypatch):
    """--parallel 2 hands out 9 cells in order, about four chunks per
    worker: four of 2 cells and a last one of 1, on a machine of 2 CPUs."""
    pool = InlinePool()
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "_spawn_pool", lambda processes: pool)
    run_scenario(scenario_from_dict(small_raw(trials=3, snr_db_values=[-5.0, 20.0, 30.0])),
                 tmp_path, parallel=2)
    cells = [(si, t) for si in range(3) for t in range(3)]
    assert pool.chunks == [cells[i:i + 2] for i in range(0, 9, 2)]


@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_chunked_parallel_run_is_the_serial_run(tmp_path, kind):
    """A --parallel 2 run of 9 cells (chunks of 2 and a last one of 1, each
    drawing its next cell's noise ahead) writes the serial run's bytes."""
    sc = scenario_from_dict(small_raw(experiment_kind=kind, trials=3,
                                      snr_db_values=[-5.0, 20.0, math.inf],
                                      **PARALLEL_CASES[kind]))
    serial = run_scenario(sc, tmp_path / "serial")
    parallel = run_scenario(sc, tmp_path / "parallel", parallel=2)
    for key in ("trials", "aggregate", "manifest"):
        assert Path(serial[key]).read_bytes() == Path(parallel[key]).read_bytes()


@pytest.mark.parametrize("user_value", [None, "3"])
def test_spawned_workers_get_one_blas_thread_unless_set(monkeypatch, user_value):
    """Each BLAS thread variable the user left unset is 1 in a spawned
    worker, a value the user set reaches it as set, and this process's
    environment is left as it was."""
    names = experiments._BLAS_THREAD_VARS
    for name in names:
        monkeypatch.delenv(name, raising=False)
    if user_value is not None:
        monkeypatch.setenv(names[0], user_value)
    before = dict(os.environ)
    with experiments._spawn_pool(1) as pool:
        seen = pool.map(os.getenv, names)
    assert seen == [user_value or "1"] + ["1"] * (len(names) - 1)
    assert dict(os.environ) == before


def declared_names(table, n_targets):
    """{trials.csv name: aggregate.csv name} that a metric table declares for
    ``n_targets`` targets."""
    return {m.name.format(j=j): m.aggregate.format(j=j)
            for m in table for j in range(max(n_targets, 1))}


@pytest.mark.parametrize("kind", TRIAL_KINDS)
def test_outputs_follow_the_metric_table(tmp_path, kind):
    sc = scenario_from_dict(small_raw(experiment_kind=kind, trials=2,
                                      **PARALLEL_CASES[kind]))
    paths = run_scenario(sc, tmp_path)
    table = experiments.KINDS[kind].metrics
    declared = declared_names(table, len(sc.targets))
    written = {r[2] for r in read_csv(paths["trials"])[1:]}
    assert written <= set(declared)
    aggregate = [r[1] for r in read_csv(paths["aggregate"])[1:]]
    assert sorted(aggregate) == sorted(declared[name] for name in written)
    # in table order
    index = {name: i for i, m in enumerate(table)
             for name in declared_names([m], len(sc.targets)).values()}
    assert [index[a] for a in aggregate] == sorted(index[a] for a in aggregate)


def test_readme_metric_table_is_the_code_table():
    text = README.read_text()
    table = text[text.index("| Kind | `trials.csv` metric |"):].split("\n\n")[0]
    rows = [tuple(cell.strip().replace("`", "") for cell in line.strip("|").split("|"))
            for line in table.splitlines()[2:]]
    assert rows == [(kind, *m) for kind, spec in experiments.KINDS.items()
                    for m in spec.metrics]


def test_readme_quick_start_runs(capsys):
    """The README's library example runs as written against the package's
    exports and prints a refined angle near its target's 12 degrees."""
    text = README.read_text()
    section = text[text.index("## Quick start (library)"):]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README quick start", "exec"), {})
    assert abs(float(capsys.readouterr().out) - 12.0) < 0.5


def kind_table_row(name, kind):
    """A kind's row of the README kind table, as experiments.KINDS declares it."""
    fewest, most = kind.targets
    return (name, "yes" if kind.draw else "",
            f"[{fewest}, {most}]" if most < math.inf else f"[{fewest}, inf)",
            str(kind.boxes or ""), kind.trials or "one",
            "[{:g}, {:g})".format(*kind.velocities) if kind.velocities else "",
            "yes" if kind.one_peak else "", "yes" if kind.comm_link else "")


def test_readme_kind_table_is_the_code_table():
    text = README.read_text()
    table = text[text.index("| Kind | Radar frame |"):].split("\n\n")[0]
    rows = [tuple(cell.strip().replace("`", "") for cell in line.strip("|").split("|"))
            for line in table.splitlines()[2:]]
    assert rows == [kind_table_row(name, kind) for name, kind in experiments.KINDS.items()]


def test_ssr_sweeps_stop_at_their_fixed_point(tmp_path):
    """Sweeps past the one that moves no pick change nothing, so an absurd
    sweep count finishes and writes what 50 sweeps write."""
    raw = json.loads((SCENARIO_DIR / "ssr_close_angles.json").read_text())
    trials = []
    for sweeps in (50, 10 ** 18):
        raw["estimator"]["ssr_sweeps"] = sweeps
        paths = run_scenario(scenario_from_dict(raw), tmp_path / str(sweeps), trials=1)
        trials.append(Path(paths["trials"]).read_bytes())
    assert trials[0] == trials[1]


def test_undeclared_metric_is_an_error(tmp_path, monkeypatch):
    """A trial row whose metric the kind's table does not declare stops the
    run instead of being reduced by a guess."""
    crlb = experiments.KINDS["crlb"]
    monkeypatch.setitem(experiments.KINDS, "crlb", crlb._replace(
        estimates=[(lambda cell: [("angle_crlb_rad2", 1.0), ("bogus_rate", 1.0)], [])]))
    sc = scenario_from_dict(small_raw(experiment_kind="crlb", targets=[]))
    with pytest.raises(ValueError, match="bogus_rate"):
        run_scenario(sc, tmp_path)


def test_aggregate_reductions():
    inf, nan = math.inf, math.nan
    assert experiments._aggregate("coarse-angle-mse", {0.0: {
        "angle_sq_err_single_bin_rad2": [nan, nan],
        "angle_sq_err_all_bins_rad2": [nan, 1.0, 3.0],
        "angle_crlb_rad2": [inf, inf]}})[:2] == [
        (0.0, "angle_crlb_rad2_mean", inf), (0.0, "angle_mse_all_bins_rad2_mean", 2.0)]
    assert math.isnan(experiments._aggregate("coarse-angle-mse", {0.0: {
        "angle_sq_err_single_bin_rad2": [nan, nan]}})[0][2])
    assert experiments._aggregate("comm-ber", {5.0: {
        "bit_errors": [1.0, 2.0], "bit_count": [100.0, 300.0]}}) == [
        (5.0, "ber", 3.0 / 400.0), (5.0, "total_bits", 400.0)]


def test_infinite_bound_stays_infinite_in_the_aggregate(tmp_path):
    """With one receive antenna the angle bound is infinite; the aggregate
    skips only the nan of a failed estimate, so it stays inf."""
    sc = scenario_from_dict(small_raw(experiment_kind="crlb", targets=[],
                                      system={"n_doppler": 8, "m_delay": 16, "n_rx": 1}))
    paths = run_scenario(sc, tmp_path)
    trials = {r[2]: r[3] for r in read_csv(paths["trials"])[1:]}
    agg = {r[1]: r[2] for r in read_csv(paths["aggregate"])[1:]}
    assert trials["omega_crlb"] == trials["angle_crlb_rad2"] == "inf"
    assert agg["omega_crlb_mean"] == agg["angle_crlb_rad2_mean"] == "inf"


def test_manifest_counts_failures_by_type(tmp_path):
    """ssr-angle with one receive antenna fails every trial with
    TooManyTargets; the manifest says so, serial and parallel alike."""
    sc = scenario_from_dict(small_raw(
        experiment_kind="ssr-angle", trials=3, snr_db_values=[10.0, 20.0],
        system={"n_doppler": 8, "m_delay": 16, "n_tx": 2, "n_rx": 1},
        estimator={"n_angles": 1, "n_solvers": 2}))
    serial = run_scenario(sc, tmp_path / "serial")
    expected = {"10.0": {"TooManyTargets": 3}, "20.0": {"TooManyTargets": 3}}
    assert manifest_of(serial)["failures"] == expected
    assert {(r[2], r[3]) for r in read_csv(serial["trials"])[1:]} == {("coarse_failed", "1.0")}
    assert manifest_of(run_scenario(sc, tmp_path / "parallel", parallel=2))["failures"] == expected


def test_failed_coarse_mode_writes_its_nan_and_the_bounds(tmp_path):
    """With one receive antenna both DFT modes fail; each writes its own nan
    and the bounds are still written, one failure counted per mode."""
    sc = scenario_from_dict(small_raw(
        experiment_kind="coarse-angle-mse", targets=[], trials=2,
        system={"n_doppler": 8, "m_delay": 16, "n_tx": 2, "n_rx": 1}))
    paths = run_scenario(sc, tmp_path)
    rows = [(r[1], r[2], r[3]) for r in read_csv(paths["trials"])[1:]]
    assert [(t, m) for t, m, _ in rows] == [
        (t, m) for t in "01" for m in ("angle_sq_err_all_bins_rad2",
                                       "angle_sq_err_single_bin_rad2",
                                       "angle_crlb_rad2", "angle_floor_rad2")]
    assert [v for _, m, v in rows if m.startswith("angle_sq_err")] == ["nan"] * 4
    assert manifest_of(paths)["failures"] == {"20.0": {"TooManyTargets": 4}}


def test_each_coarse_mode_fails_alone(tmp_path, monkeypatch):
    """A failure of the single-bin mode leaves the all-bins estimate."""
    estimate_angles = experiments.estimate_angles

    def single_bin_fails(*args, average=True, **kwargs):
        if not average:
            raise PeakSeparationFailure("no peak in DD bin (0, 0)")
        return estimate_angles(*args, average=average, **kwargs)

    monkeypatch.setattr(experiments, "estimate_angles", single_bin_fails)
    sc = scenario_from_dict(small_raw(experiment_kind="coarse-angle-mse", targets=[]))
    paths = run_scenario(sc, tmp_path)
    trials = [(r[2], r[3]) for r in read_csv(paths["trials"])[1:]]
    assert [v for m, v in trials if m == "angle_sq_err_single_bin_rad2"] == ["nan"] * 2
    assert all(v != "nan" for m, v in trials if m != "angle_sq_err_single_bin_rad2")
    assert manifest_of(paths)["failures"] == {"20.0": {"PeakSeparationFailure": 2}}


def test_zero_private_symbol_fails_the_trial_not_the_run(tmp_path):
    """On a 1x2 grid with one transmit antenna the private bin's symbol is
    the sum of two QPSK symbols, so some frames send 0 there and the virtual
    snapshot raises ZeroPrivateSymbol. That trial writes coarse_failed 1 and
    the run goes on (before one trial's error stopped the whole run)."""
    sc = scenario_from_dict(small_raw(
        experiment_kind="ssr-angle", trials=8, seed=0,
        system={"n_doppler": 1, "m_delay": 2, "n_tx": 1, "n_rx": 4},
        targets=[{"angle_deg": 10.0, "range_m": 0.0, "velocity_mps": 0.0}],
        allocation={"diagonal_private_bins": 1}, estimator={"n_solvers": 2}))
    paths = run_scenario(sc, tmp_path)
    failed = [r[3] for r in read_csv(paths["trials"])[1:] if r[2] == "coarse_failed"]
    assert failed.count("1.0") == 3 and failed.count("0.0") == 5
    assert manifest_of(paths)["failures"] == {"20.0": {"ZeroPrivateSymbol": 3}}


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
    assert manifest_of(paths)["outputs"] == {"spectrum": "spectrum.csv",
                                             "ssr_surface": "ssr_surface.csv",
                                             "aggregate": "aggregate.csv"}


def test_demo_raises_the_coarse_stage_error(tmp_path):
    """The demo has no failure rows: its coarse stage's own error stops it.
    Validation rejects one receive antenna, so the scenario is built past it."""
    sc = scenario_from_dict(small_raw(
        experiment_kind="demo-spectrum",
        system={"n_doppler": 8, "m_delay": 16, "n_tx": 2, "n_rx": 2},
        estimator={"n_angles": 1, "n_solvers": 2}))
    sc = replace(sc, system=replace(sc.system, n_rx=1))
    with pytest.raises(TooManyTargets):
        run_scenario(sc, tmp_path)


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
from otfs_isac.scenario import EstimatorSettings
cfg = SystemConfig()
rng = np.random.default_rng(0)
n_rows = 4 * cfg.n_rx
snapshot = VirtualSnapshot(
    values=rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows),
    bin_meta=tuple((p, (p, p)) for p in range(4)), n_rx=cfg.n_rx,
    row_weights=rng.uniform(0.5, 1.5, n_rows))
specs = [default_neighborhood(types.SimpleNamespace(
    angle_rad=np.deg2rad(a), doppler_hz=(3 + 5 * k) * cfg.doppler_spacing_hz,
    delay_s=(4 + 7 * k) * cfg.delay_spacing_s), cfg, EstimatorSettings())
    for k, a in enumerate((12.0, 14.0, 16.0))]
averaged_ssr(snapshot, specs, cfg, n_solvers=64, seed=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
averaged_ssr(snapshot, specs, cfg, n_solvers=64, seed=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.fixture(scope="module")
def fresh_interpreter(tmp_path_factory):
    """Runs a script in a fresh interpreter on this package and returns its
    stdout: malloc's dynamic mmap threshold depends on what the process
    allocated and freed before.

    That includes compiling the package's source when no cached bytecode is
    found (``PYTHONDONTWRITEBYTECODE`` keeps it from being written), so the
    interpreter imports a copy of the package compiled here. A
    ``PYTHONPYCACHEPREFIX`` would not do: it moves the cache of numpy and
    the standard library as well, which are then compiled at import.
    """
    root = tmp_path_factory.mktemp("compiled")
    package = root / "otfs_isac"
    shutil.copytree(os.path.dirname(otfs_isac.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(package, quiet=1)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root),
                                                        os.environ.get("PYTHONPATH")])))

    def run(script, *args):
        return subprocess.run([sys.executable, "-c", script, *args], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True).stdout
    return run


def test_importing_the_package_loads_no_process_or_pool_module(fresh_interpreter):
    """multiprocessing, subprocess and concurrent.futures are imported in the
    functions that use them, so ``import otfs_isac`` loads none of them."""
    loaded = fresh_interpreter(
        "import sys, otfs_isac\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing', 'subprocess')"
        " if m in sys.modules])")
    assert loaded.strip() == "[]"


@pytest.mark.skipif(not libc_has_mallopt(), reason="libc has no mallopt")
@pytest.mark.parametrize("name", ["coarse_three_targets.json", "ssr_close_angles.json"])
def test_warm_trials_take_no_page_faults(name, fresh_interpreter):
    """Once warm, a trial reuses heap pages: about 1,900 minor faults per
    coarse_three_targets trial with glibc's defaults, about 0 with the
    steady heap."""
    assert float(fresh_interpreter(WARM_FAULTS, str(SCENARIO_DIR / name))) < 100


@pytest.mark.skipif(not libc_has_mallopt(), reason="libc has no mallopt")
def test_library_ssr_call_takes_no_page_faults(fresh_interpreter):
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
