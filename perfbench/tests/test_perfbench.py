"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import bench_check  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _span(name, start, end, parent=-1, error=None):
    return [name, start, end, parent, 0, error]


# -- self-time arithmetic ------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        _span(bench_trace.ROOT, 0.0, 10.0),
        _span("coarse.coarse_pipeline", 1.0, 4.0, parent=0),
        _span("coarse.estimate_angles", 2.0, 3.0, parent=1),
        _span("transforms.sfft", 3.0, 6.0, parent=0),   # overlaps its sibling
        _span("transforms.isfft", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    assert bench_trace.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_summarize_sums_layers_and_counts_errors_by_base_class():
    class PackageError(Exception):
        pass

    spans = [
        _span(bench_trace.ROOT, 0.0, 10.0),
        _span("coarse.coarse_pipeline", 0.0, 4.0, parent=0, error=PackageError),
        _span("coarse.coarse_pipeline", 4.0, 6.0, parent=0, error=KeyError),
        _span("transforms.sfft", 1.0, 2.0, parent=1),
    ]
    summary = bench_trace.summarize(spans, PackageError)
    pipeline = summary["names"]["coarse.coarse_pipeline"]
    assert pipeline["calls"] == 2 and pipeline["errors"] == 1
    assert pipeline["self_s"] == pytest.approx(5.0)
    assert pipeline["incl_s"] == pytest.approx(6.0)
    assert summary["layers"]["coarse"]["self_s"] == pytest.approx(5.0)
    assert summary["layers"]["transforms"] == {"calls": 1, "self_s": 1.0}
    assert summary["root_s"] == 10.0
    assert summary["root_self_s"] == pytest.approx(4.0)


# -- tracer installation --------------------------------------------------------

def test_tracer_rebinds_public_names_everywhere_and_restores_them():
    import otfs_isac
    from otfs_isac import comm, experiments, transforms
    originals = (transforms.sfft, comm.sfft, otfs_isac.sfft, experiments.sfft,
                 transforms.ModifiedSfft.recover, transforms._tf_linear)
    tracer = bench_trace.Tracer(layers=bench_trace.LAYERS + ("no_such_layer",))
    with tracer:  # a second installation reports the same missing module once
        pass
    with tracer:
        assert comm.sfft is transforms.sfft is otfs_isac.sfft is experiments.sfft
        assert transforms.sfft is not originals[0]
        assert transforms.ModifiedSfft.recover is not originals[4]
        assert transforms._tf_linear is originals[5]  # private: never wrapped
        with tracer.root(7):
            comm.sfft(transforms.isfft(otfs_isac.qpsk_modulate([0, 1] * 8)
                                       .reshape(2, 4)))
    assert (transforms.sfft, comm.sfft, otfs_isac.sfft, experiments.sfft,
            transforms.ModifiedSfft.recover, transforms._tf_linear) == originals
    assert tracer.missing_modules == ["otfs_isac.no_such_layer"]
    names = [s[bench_trace.NAME] for s in tracer.spans]
    assert names == [bench_trace.ROOT, "comm.qpsk_modulate", "transforms.isfft",
                     "transforms.sfft"]
    assert {s[bench_trace.SIM_ID] for s in tracer.spans} == {7}
    assert [s[bench_trace.PARENT] for s in tracer.spans] == [-1, 0, 0, 0]


def test_missing_named_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(run, "METRIC_SPANS",
                        run.METRIC_SPANS + ["coarse.renamed_away"])
    result = run.run_workload("comm-ber", 0, 0.0, True, trials=1)
    assert result["correct"], result["report"]["problems"]
    assert result["report"]["missing_names"] == ["coarse.renamed_away"]
    assert result["metrics"]["trace.missing_names"]["value"] == 1


# -- correctness checks -----------------------------------------------------------

def test_rows_match_tolerates_last_bits_but_not_changed_estimates():
    want = [("coarse_failed", 0.0), ("angle_est_rad_t0", 0.2094395102393195)]
    assert bench_check.rows_match(
        [("coarse_failed", 0.0), ("angle_est_rad_t0", 0.2094395102393196)], want)
    assert not bench_check.rows_match(
        [("coarse_failed", 0.0), ("angle_est_rad_t0", 0.2094395102393195 + 1e-4)],
        want)
    assert not bench_check.rows_match(
        [("coarse_failed", 1e-12), ("angle_est_rad_t0", 0.2094395102393195)], want)


def test_altered_reference_value_counts_as_failed_trial(tmp_path):
    with open(os.path.join(run.REFERENCE_DIR, "comm-ber.json")) as fh:
        data = json.load(fh)
    rows = data["seeds"]["0"]
    index = next(i for i, (snr, trial, metric, _) in enumerate(rows)
                 if trial == 0 and metric == "bit_errors")
    rows[index][3] += 1
    with open(tmp_path / "comm-ber.json", "w") as fh:
        json.dump(data, fh)
    result = run.run_workload("comm-ber", 0, 0.0, False, trials=1,
                              setup_repeats=1, min_batches=1,
                              reference_dir=str(tmp_path))
    # warm-up plus one timed batch, five SNRs each; one altered cell per batch
    assert result["attempted"] == 10
    assert result["failed"] == 2
    assert not result["correct"]
    assert result["metrics"]["ok_trials_frac"]["value"] == pytest.approx(0.8)


# -- smoke runs ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_end_to_end(workload):
    result = run.run_workload(workload, 0, 0.0, False, trials=1,
                              setup_repeats=1, min_batches=1)
    assert result["correct"], result["report"]["problems"]
    assert result["report"]["has_reference"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_traced(workload):
    result = run.run_workload(workload, 0, 0.0, True, trials=1)
    assert result["correct"], result["report"]["problems"]
    assert result["report"]["missing_names"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["trace.unattributed_frac"] < run.TRACE_MARGIN
    if workload == "comm-ber":
        assert metrics["coarse.calls_per_trial"] == 0
        assert metrics["virtual_array.calls_per_trial"] == 0
        assert metrics["comm.ber_frame.self_ms_per_trial"] > 0
    else:
        assert metrics["coarse.coarse_pipeline.self_ms_per_trial"] > 0
        assert metrics["channel.radar_receive.self_ms_per_trial"] > 0
    if workload == "ssr-close":
        assert metrics["virtual_array.solvers_per_trial"] == 64


def test_seed_without_reference_gets_sanity_checks():
    result = run.run_workload("dd-3tgt", 10**6, 0.0, False, trials=1,
                              setup_repeats=1, min_batches=1)
    assert not result["report"]["has_reference"]
    assert result["correct"], result["report"]["problems"]


def test_benchmark_json_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
