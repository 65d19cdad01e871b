"""Command-line interface: subcommands, error reporting, env override."""

import json
import math
import multiprocessing
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import otfs_isac.scenario as scenario_module
from otfs_isac import experiments
from otfs_isac.cli import build_parser, main
from otfs_isac.coarse import resolution_report
from otfs_isac.config import SystemConfig
from otfs_isac.exceptions import ConfigValidationError
from otfs_isac.experiments import run_scenario
from otfs_isac.scenario import scenario_from_dict
from otfs_isac.virtual_array import RATIO_RTOL, AxisSpec

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


def scenario_raw(**overrides):
    raw = {
        "name": "cli-unit",
        "experiment_kind": "crlb",
        "system": {"n_doppler": 8, "m_delay": 16, "n_rx": 8},
        "targets": [],
        "allocation": {"diagonal_private_bins": 4},
        "snr_db_values": [0.0, 10.0],
        "seed": 2,
    }
    raw.update(overrides)
    return raw


# a coarse-angle-mse run of 8x16 grids, a few ms per cell
TINY_COARSE = dict(experiment_kind="coarse-angle-mse",
                   system={"n_doppler": 8, "m_delay": 16, "n_tx": 2, "n_rx": 8},
                   allocation={"diagonal_private_bins": 2})


def write_scenario(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_raw(**overrides)))
    return str(path)


def test_resolution_prints_range_resolution(capsys):
    assert main(["resolution", "--M", "2048", "--df", "120e3"]) == 0
    out = capsys.readouterr().out
    values = {line.split(" = ")[0]: float(line.split(" = ")[1])
              for line in out.strip().splitlines()}
    assert abs(values["range_resolution_m"] - 0.61) <= 0.01


def test_resolution_defaults_are_the_system_config_defaults(capsys):
    assert main(["resolution"]) == 0
    expected = "".join(f"{key} = {value:.6g}\n"
                       for key, value in resolution_report(SystemConfig()).items())
    assert capsys.readouterr().out == expected


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_commands_share_the_parser_in_one_process(tmp_path, capsys):
    """simulate, resolution and simulate again each exit 0 with their usual
    output; the second simulate takes none of the first one's flags."""
    path = write_scenario(tmp_path, **TINY_COARSE, trials=1)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "a"),
                 "--seed", "77", "--trials", "2"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["resolution"]) == 0
    expected = "".join(f"{key} = {value:.6g}\n"
                       for key, value in resolution_report(SystemConfig()).items())
    assert capsys.readouterr().out == expected
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "b")]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["scenario"] == second["scenario"] == "cli-unit"
    manifests = [json.loads(Path(p["outputs"]["manifest"]).read_text())
                 for p in (first, second)]
    assert [(m["scenario"]["seed"], m["trials_run"]) for m in manifests] == [(77, 2), (2, 1)]


def test_crlb_outputs_csv(capsys):
    assert main(["crlb", "--snr-db", "0", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("snr_db,")
    assert len(lines) == 3


def test_validate_config_ok(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["validate-config", "--scenario", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["scenario"]["name"] == "cli-unit"


def test_validate_config_reports_errors_on_stderr(tmp_path, capsys):
    path = write_scenario(tmp_path, experiment_kind="bogus", trials=-5)
    assert main(["validate-config", "--scenario", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid-scenario"
    assert len(payload["details"]) >= 2


def test_overlong_json_integer_is_invalid_scenario(tmp_path, capsys):
    """The JSON decoder rejects a 5,001-digit integer with a plain ValueError."""
    path = tmp_path / "scenario.json"
    path.write_text(Path(write_scenario(tmp_path)).read_text()[:-1]
                    + ', "min_bits": ' + "9" * 5001 + "}")
    assert main(["validate-config", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid-scenario"
    assert "invalid JSON" in payload["details"][0]


@pytest.mark.parametrize("command", [["validate-config"], ["simulate", "--out", "out"]],
                         ids=["validate-config", "simulate"])
def test_deeply_nested_json_is_invalid_scenario(tmp_path, capsys, command):
    """The JSON decoder raises RecursionError on 3,000 nested arrays."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_raw(name="NEST")).replace(
        '"NEST"', "[" * 3000 + "]" * 3000))
    command = [str(tmp_path / arg) if arg == "out" else arg for arg in command]
    assert main([command[0], "--scenario", str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid-scenario"
    assert payload["details"][0].startswith("invalid JSON: maximum recursion depth")
    assert not (tmp_path / "out").exists()


def ssr_close_with_bins(n_bins):
    """ssr_close_angles.json with ``n_bins`` private bins at distinct random
    TF bins, dealt to its 4 antennas in turn; the 160 of seed 0 pass the
    reduced-transform rank check."""
    raw = json.loads((SCENARIO_DIR / "ssr_close_angles.json").read_text())
    flat = np.random.default_rng(0).choice(64 * 128, size=n_bins, replace=False)
    return dict(raw, allocation={"private_bins": [[k % 4, [int(f) // 128, int(f) % 128]]
                                                  for k, f in enumerate(flat)]})


def shipped_with(name, **fields):
    return dict(json.loads((SCENARIO_DIR / name).read_text()), **fields)


@pytest.mark.parametrize("raw, fields", [
    # 2,100 target grids of the radar frame: 263 MiB
    (shipped_with("coarse_three_targets.json",
                  targets=shipped_with("coarse_three_targets.json")["targets"] * 700),
     ["system"]),
    (ssr_close_with_bins(160), ["allocation"]),    # the pair tables: 1.8 GiB for 8 solvers
    (ssr_close_with_bins(400), ["allocation"]),
    (scenario_raw(experiment_kind="demo-spectrum",
                  system={"n_doppler": 8, "m_delay": 16, "n_tx": 2, "n_rx": 1},
                  targets=[{"angle_deg": 10.0, "range_m": 50.0, "velocity_mps": 5.0}],
                  allocation={"diagonal_private_bins": 2}), ["system.n_rx"]),
    # grid stacks and reduced transforms of 10^8000 bins, sizes str() cannot write
    (shipped_with("comm_ber.json", system={"n_doppler": 10 ** 4000, "m_delay": 10 ** 4000}),
     ["system", "allocation"]),
], ids=["2100-targets", "160-private-bins", "400-private-bins", "demo-one-rx",
        "4000-digit-grid"])
def test_validate_config_rejects_what_the_run_cannot_hold(tmp_path, capsys, raw, fields):
    """None of these can run: the first three hold arrays over the size
    bound, the demo's coarse stage would raise TooManyTargets, and the grid's
    sizes have too many digits for str(). Each is one invalid-scenario line."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["validate-config", "--scenario", str(path)]) == 1
    error = cli_error(capsys)
    assert error["error"] == "invalid-scenario"
    assert [detail.split(": ")[0] for detail in error["details"]] == fields, error


def test_validate_config_accepts_20_private_bins(tmp_path, capsys):
    """ssr_close_angles with 20 scattered private bins peaks at 32 MiB for 8 solvers."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ssr_close_with_bins(20)))
    assert main(["validate-config", "--scenario", str(path)]) == 0, capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate-config", "--scenario",
                 str(tmp_path / "missing.json")]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "io-error"


@pytest.mark.parametrize("argv", [["simulate", "--scenario", "SCENARIO"], ["demo"]])
def test_output_path_that_is_a_file_is_io_error(tmp_path, capsys, argv):
    """``--out`` naming a regular file: the output directory cannot be made."""
    out = tmp_path / "taken"
    out.write_text("")
    argv = [write_scenario(tmp_path) if a == "SCENARIO" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "io-error"
    assert str(out) in payload["message"]


def test_simulate_writes_results(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out_dir = str(tmp_path / "results")
    assert main(["simulate", "--scenario", path, "--out", out_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert os.path.exists(payload["outputs"]["aggregate"])
    assert payload["scenario"] == "cli-unit"


def test_simulate_seed_override_changes_manifest(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out_dir = str(tmp_path / "results")
    assert main(["simulate", "--scenario", path, "--out", out_dir,
                 "--seed", "77"]) == 0
    payload = json.loads(capsys.readouterr().out)
    manifest = json.loads(Path(payload["outputs"]["manifest"]).read_text())
    assert manifest["scenario"]["seed"] == 77


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    path = write_scenario(tmp_path)
    env_dir = str(tmp_path / "env-results")
    monkeypatch.setenv("OTFS_ISAC_OUT", env_dir)
    assert main(["simulate", "--scenario", path]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(env_dir, "cli-unit", "aggregate.csv"))
    # the explicit flag wins over the environment variable
    flag_dir = str(tmp_path / "flag-results")
    assert main(["simulate", "--scenario", path, "--out", flag_dir]) == 0
    assert os.path.exists(os.path.join(flag_dir, "cli-unit", "aggregate.csv"))


def test_simulate_parallel_flag(tmp_path, capsys):
    path = write_scenario(tmp_path, experiment_kind="coarse-angle-mse",
                          system={"n_doppler": 8, "m_delay": 16,
                                  "n_tx": 2, "n_rx": 8},
                          allocation={"diagonal_private_bins": 2},
                          snr_db_values=[20.0], trials=2)
    out1 = str(tmp_path / "serial")
    out2 = str(tmp_path / "par")
    assert main(["simulate", "--scenario", path, "--out", out1]) == 0
    assert main(["simulate", "--scenario", path, "--out", out2,
                 "--parallel", "2"]) == 0
    capsys.readouterr()
    a = Path(out1, "cli-unit", "trials.csv").read_text()
    b = Path(out2, "cli-unit", "trials.csv").read_text()
    assert a == b


def test_no_command_exits_nonzero():
    with pytest.raises(SystemExit):
        main([])


class _RecordingContext:
    """Stands in for a multiprocessing context: records pool sizes and runs
    the tasks inline."""

    def __init__(self):
        self.sizes = []

    def Pool(self, processes):
        self.sizes.append(processes)
        return _InlinePool()


class _InlinePool:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return [func(item) for item in items]


@pytest.fixture
def recording_pool(monkeypatch):
    ctx = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    return ctx


def test_simulate_parallel_capped_at_cpu_count(tmp_path, capsys, monkeypatch,
                                               recording_pool):
    """6 cells make 6 chunks for 3 CPUs, so the CPU count is what binds."""
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    path = write_scenario(tmp_path, **TINY_COARSE, snr_db_values=[20.0], trials=6)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path),
                 "--parallel", str(10 ** 9)]) == 0
    capsys.readouterr()
    assert recording_pool.sizes == [3]


@pytest.mark.parametrize("cpus, trials, sizes", [
    (3, 6, [3]),        # capped at the CPU count
    (64, 2, [2]),       # capped at the chunk count: one cell each
    (None, 6, []),      # an unknown CPU count is one CPU: no pool
])
def test_run_scenario_caps_its_workers(tmp_path, monkeypatch, recording_pool,
                                       cpus, trials, sizes):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    sc = scenario_from_dict(scenario_raw(**TINY_COARSE, snr_db_values=[20.0]))
    paths = run_scenario(sc, tmp_path / "out", trials=trials, parallel=10 ** 9)
    assert recording_pool.sizes == sizes
    assert json.loads(Path(paths["manifest"]).read_text())["trials_run"] == trials


def test_one_cell_run_starts_no_pool(tmp_path, monkeypatch):
    def no_pool(processes):
        raise AssertionError(f"a pool of {processes} was started")
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "_spawn_pool", no_pool)
    sc = scenario_from_dict(scenario_raw(**TINY_COARSE, snr_db_values=[20.0]))
    paths = run_scenario(sc, tmp_path, trials=1, parallel=2)
    assert os.path.exists(paths["trials"])


@pytest.mark.parametrize("kwargs, error", [
    ({"parallel": 0}, ValueError), ({"parallel": -3}, ValueError),
    ({"trials": 0}, ValueError), ({"trials": -1}, ValueError),
    ({"trials": 10 ** 12}, ConfigValidationError),
], ids=["parallel-0", "parallel-neg", "trials-0", "trials-neg", "trials-over-bound"])
def test_run_scenario_rejects_its_limits_before_any_cell(tmp_path, monkeypatch,
                                                         recording_pool, kwargs, error):
    """Bad counts raise before the output directory or any cell exists."""
    def no_cells(chunk):
        raise AssertionError("a cell ran")
    monkeypatch.setattr(experiments, "_run_cells", no_cells)
    sc = scenario_from_dict(scenario_raw(**TINY_COARSE, trials=2))
    with pytest.raises(error):
        run_scenario(sc, tmp_path / "out", **kwargs)
    assert recording_pool.sizes == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-4"])
def test_simulate_parallel_below_one_rejected(tmp_path, capsys, value,
                                              recording_pool):
    path = write_scenario(tmp_path)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path),
                 "--parallel", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-argument"
    assert recording_pool.sizes == []
    assert not os.path.exists(tmp_path / "cli-unit")


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "-3"),
                                        ("--seed", "-1")])
def test_simulate_bad_override_rejected(tmp_path, capsys, flag, value):
    path = write_scenario(tmp_path)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path),
                 flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-argument"
    assert not os.path.exists(tmp_path / "cli-unit")


def test_demo_bad_seed_rejected(tmp_path, capsys):
    assert main(["demo", "--seed", "-1", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-argument"
    assert list(tmp_path.iterdir()) == []


def test_manifest_scenario_replays_the_run(tmp_path, capsys):
    """The manifest's scenario block, run as a scenario file, writes the
    same trials.csv byte for byte."""
    first = tmp_path / "first"
    assert main(["simulate", "--scenario", str(SCENARIO_DIR / "ssr_close_angles.json"),
                 "--trials", "2", "--out", str(first)]) == 0
    manifest = json.loads(Path(json.loads(capsys.readouterr().out)
                               ["outputs"]["manifest"]).read_text())
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(manifest["scenario"]))
    second = tmp_path / "second"
    assert main(["simulate", "--scenario", str(replay), "--trials",
                 str(manifest["trials_run"]), "--out", str(second)]) == 0
    name = manifest["scenario"]["name"]
    assert ((second / name / "trials.csv").read_bytes()
            == (first / name / "trials.csv").read_bytes())


@pytest.mark.parametrize("bound, code", [(4, 0), (3, 1)])
def test_simulate_trials_at_the_cell_bound(tmp_path, capsys, monkeypatch, bound, code):
    """--trials 2 over 2 SNRs makes 4 cells: it runs at a bound of 4 and is
    an invalid-argument error, with no output directory, at a bound of 3."""
    monkeypatch.setattr(scenario_module, "MAX_TRIAL_CELLS", bound)
    path = write_scenario(tmp_path, **TINY_COARSE, trials=1)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", path, "--out", str(out),
                 "--trials", "2"]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["scenario"] == "cli-unit"
        return
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "invalid-argument"
    assert not out.exists()


def test_simulate_oversize_trial_count_rejected(tmp_path, capsys):
    """--trials is bounded with the scenario's SNRs before any cell is listed."""
    path = write_scenario(tmp_path, experiment_kind="coarse-angle-mse")
    tracemalloc.start()
    try:
        code = main(["simulate", "--scenario", path, "--out", str(tmp_path),
                     "--trials", str(10 ** 12)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 2 ** 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-argument"
    assert not os.path.exists(tmp_path / "cli-unit")


def test_simulate_rejects_escaping_name(tmp_path, capsys):
    path = write_scenario(tmp_path, name="..")
    out_dir = tmp_path / "out"
    assert main(["simulate", "--scenario", path, "--out", str(out_dir)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-scenario"
    assert not out_dir.exists()


def test_unexpected_exception_is_one_json_error(tmp_path, capsys, monkeypatch):
    import otfs_isac.cli as cli

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(cli, "run_scenario", broken)
    path = write_scenario(tmp_path)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "internal-error"
    assert "LinAlgError" in payload["message"]


def cli_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)


@pytest.mark.parametrize("snr_db", [-3300.0, -300.5, 300.5, 3083.0])
@pytest.mark.parametrize("name", ["crlb_sweep.json", "comm_ber.json"])
def test_snr_past_the_bound_is_a_documented_error(tmp_path, capsys, name, snr_db):
    """Before the bound, 3083 dB overflowed and -3300 dB divided by zero:
    both ended as internal-error."""
    raw = json.loads((SCENARIO_DIR / name).read_text())
    path = tmp_path / name
    path.write_text(json.dumps(dict(raw, snr_db_values=[snr_db])))
    for argv in (["validate-config", "--scenario", str(path)],
                 ["simulate", "--scenario", str(path), "--out", str(tmp_path)]):
        assert main(argv) == 1
        error = cli_error(capsys)
        assert error["error"] == "invalid-scenario"
        assert error["details"] == [
            f"snr_db_values[0]: expected number in [-300, 300] or inf, got {snr_db!r}"]
    assert main(["crlb", "--snr-db", "10", str(snr_db)]) == 1
    assert cli_error(capsys) == {
        "error": "invalid-argument",
        "message": f"--snr-db: expected number in [-300, 300] or inf, got {snr_db!r}"}


@pytest.mark.parametrize("snr_db", [-300.0, 300.0, float("inf")])
def test_snr_at_the_bound_runs(tmp_path, capsys, snr_db):
    for name in ("comm_ber.json", "crlb_sweep.json"):
        raw = json.loads((SCENARIO_DIR / name).read_text())
        path = tmp_path / name
        path.write_text(json.dumps(dict(raw, snr_db_values=[snr_db])))
        assert main(["validate-config", "--scenario", str(path)]) == 0
        assert main(["simulate", "--scenario", str(path), "--trials", "2",
                     "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    assert main(["crlb", "--snr-db", str(snr_db)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--N", "--n-rx"])
def test_crlb_single_sample_axis_prints_inf(capsys, flag):
    assert main(["crlb", flag, "1", "--snr-db", "10"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert "inf" in row.split(",")


@pytest.mark.parametrize("argv", [["crlb", "--N", "0"], ["resolution", "--M", "0"],
                                  ["resolution", "--df", "-5"], ["crlb", "--df", "5e-324"],
                                  ["crlb", "--df", "1e300"], ["resolution", "--df", "0.5"]])
def test_bad_geometry_flag_is_invalid_argument(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-argument"


@pytest.mark.parametrize("kind, grid", [("coarse-angle-mse", (1, 3)),
                                        ("coarse-angle-mse", (3, 1)),
                                        ("crlb", (1, 3)), ("crlb", (3, 1))])
def test_simulate_single_sample_axis_runs(tmp_path, capsys, kind, grid):
    path = write_scenario(tmp_path, experiment_kind=kind,
                          system={"n_doppler": grid[0], "m_delay": grid[1],
                                  "n_tx": 1, "n_rx": 4},
                          allocation={"diagonal_private_bins": 0}, trials=1)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path)]) == 0, \
        capsys.readouterr().err


# Search-box widths within a few ulps of k whole steps times (1 +- RATIO_RTOL),
# where the whole-number check can round either way. The run builds its box
# in rad, Hz and s; the file gives degrees and bins.
KNIFE_SYSTEM = {"n_doppler": 16, "m_delay": 16, "n_tx": 2, "n_rx": 8}
KNIFE_STEPS = (0.05, 0.1, 0.3, 0.7, 1.0)
KNIFE_AXES = {"angle": "deg", "doppler": "bins", "delay": "bins"}


def knife_edge_widths(step):
    for k in (2, 4, 10, 20):
        for sign in (1, -1):
            lo = hi = k * step * (1 + sign * RATIO_RTOL)
            yield lo
            for _ in range(4):
                lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
                yield from (lo, hi)


def builds(step, width):
    """Whether an AxisSpec of this step and width builds."""
    try:
        AxisSpec(0.0, step, width)
    except ValueError:
        return False
    return True


def builds_in_run_units(axis, step, width):
    """Whether the box of this step and width builds in the run's rad, Hz or s."""
    cfg = SystemConfig(**KNIFE_SYSTEM)
    if axis == "angle":
        return builds(np.deg2rad(step), np.deg2rad(width))
    scale = cfg.doppler_spacing_hz if axis == "doppler" else cfg.delay_spacing_s
    return builds(step * scale, width * scale)


def knife_raw(kind, axis, step, width):
    unit = KNIFE_AXES[axis]
    targets = [] if kind == "ssr-velocity" else [
        {"angle_deg": 10.0, "range_m": 300.0, "velocity_mps": 40.0}]
    return scenario_raw(experiment_kind=kind, system=KNIFE_SYSTEM, targets=targets,
                        allocation={"diagonal_private_bins": 2}, snr_db_values=[20.0],
                        estimator={f"{axis}_step_{unit}": step,
                                   f"{axis}_width_{unit}": width, "n_solvers": 2})


@pytest.mark.parametrize("axis", KNIFE_AXES)
def test_validation_accepts_exactly_the_boxes_the_run_builds(axis):
    """At every knife-edge width, validation accepts the scenario if and only
    if the run's AxisSpec builds; a rejection names the width field."""
    field = f"estimator.{axis}_width_{KNIFE_AXES[axis]}:"
    for step in KNIFE_STEPS:
        for width in knife_edge_widths(step):
            try:
                scenario_from_dict(knife_raw("ssr-angle", axis, step, width))
                accepted = True
            except ConfigValidationError as exc:
                accepted = False
                assert [e for e in exc.errors if e.startswith(field)], exc.errors
            assert accepted == builds_in_run_units(axis, step, width), (step, width)


def test_ssr_kinds_run_or_fail_cleanly_where_degrees_and_run_units_disagree(
        tmp_path, capsys):
    """Where the box builds in the file's degrees and bins but not in the run's
    units, or the other way round, ``simulate --trials 1`` of every SSR kind
    exits 0 or prints one JSON error that is not an internal error."""
    cases = []
    for axis in KNIFE_AXES:
        for step in KNIFE_STEPS:
            cases += [(axis, step, width) for width in knife_edge_widths(step)
                      if builds(step, width) != builds_in_run_units(axis, step, width)]
    assert len(cases) >= 20
    path = tmp_path / "scenario.json"
    for case in cases:
        for kind in ("ssr-angle", "ssr-velocity", "demo-spectrum"):
            path.write_text(json.dumps(knife_raw(kind, *case)))
            code = main(["simulate", "--scenario", str(path), "--trials", "1",
                         "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if code != 0:
                lines = err.splitlines()
                assert len(lines) == 1, (kind, case, err)
                assert json.loads(lines[0])["error"] != "internal-error", (kind, case, err)
