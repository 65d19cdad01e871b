"""Command-line interface: subcommands, error reporting, env override."""

import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from otfs_isac.cli import main
from otfs_isac.coarse import resolution_report
from otfs_isac.config import SystemConfig

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


def write_scenario(tmp_path, **overrides):
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
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
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


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate-config", "--scenario",
                 str(tmp_path / "missing.json")]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "io-error"


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
    import otfs_isac.experiments as experiments
    ctx = _RecordingContext()
    monkeypatch.setattr(experiments.multiprocessing, "get_context",
                        lambda method: ctx)
    return ctx


def test_simulate_parallel_capped_at_cpu_count(tmp_path, capsys, monkeypatch,
                                               recording_pool):
    import otfs_isac.cli as cli
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    path = write_scenario(tmp_path, experiment_kind="coarse-angle-mse",
                          system={"n_doppler": 8, "m_delay": 16,
                                  "n_tx": 2, "n_rx": 8},
                          allocation={"diagonal_private_bins": 2},
                          snr_db_values=[20.0], trials=2)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path),
                 "--parallel", str(10 ** 9)]) == 0
    capsys.readouterr()
    assert recording_pool.sizes == [3]


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
