"""Monte Carlo benchmark of the otfs_isac simulator.

Usage::

    python3 perfbench/run.py --workload dd-3tgt --seed 0 --seconds 20 --trace 0

Each workload runs ``otfs_isac.cli.main(["simulate", ...])`` in this process
on one shipped scenario, one batch of trials at a time, in a closed loop with
one client and no ``--parallel``. Every batch's ``trials.csv`` is checked
against the recorded reference (see ``bench_check``). With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced batches and reports the per-layer metrics. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every trial passed.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import bench_check
import bench_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE_DIR = os.path.join(HERE, "reference")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_BATCHES = 3           # timed batches per --trace 0 run, at least
MIN_TRACE_PAIRS = 2       # untraced/traced batch pairs per --trace 1 run
SETUP_REPEATS = 15        # fresh processes timed for setup_s
TRACE_MARGIN = 0.02       # simulate wall time the layer spans may leave uncovered


@dataclass(frozen=True)
class Workload:
    scenario: str          # path relative to the checkout root
    trials: int            # trials per SNR in one simulate batch


# Why each workload was chosen is in BENCHMARK.json and README.md. Trial
# counts make one batch 0.5-6 s; ssr-close needs 10 trials per batch because
# its trial time varies with the data.
WORKLOADS = {
    "dd-3tgt": Workload("scenarios/coarse_three_targets.json", 8),
    "ssr-close": Workload("scenarios/ssr_close_angles.json", 10),
    "comm-ber": Workload("scenarios/comm_ber.json", 16),
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import otfs_isac
from otfs_isac.scenario import load_scenario
load_scenario(sys.argv[1])
print(time.perf_counter() - t0, otfs_isac.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


# -- per-layer metric table --------------------------------------------------

SELF_MS_SPANS = (
    "transforms.sfft", "transforms.isfft", "transforms.ModifiedSfft.recover",
    "channel.radar_receive", "allocation.zero_force",
    "comm.transmit_chain", "comm.ber_frame", "comm.tf_block_channel",
    "comm.lmmse_equalize_tf", "comm.recover_and_demap",
    "coarse.estimate_angles", "coarse.extract_angle_profiles",
    "coarse.delay_doppler_peaks", "coarse.coarse_pipeline",
    "virtual_array.averaged_ssr", "virtual_array.build_virtual_snapshot",
    "experiments.run_scenario",
)
CALL_SPANS = ("transforms.sfft", "transforms.isfft",
              "transforms.build_modified_sfft", "channel.tf_channel_grid")
# Every span a metric is read from. One missing from the program is reported,
# and its metrics read 0.
METRIC_SPANS = sorted(set(SELF_MS_SPANS + CALL_SPANS)
                      | {"scenario.load_scenario", "cli.main"})


def _short(span_name: str) -> str:
    """Metric prefix of a span: module and function, without a class name."""
    parts = span_name.split(".")
    return f"{parts[0]}.{parts[-1]}"


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SELF_MS_SPANS:
        units[f"{_short(span)}.self_ms_per_trial"] = "ms/trial"
    for span in CALL_SPANS:
        units[f"{_short(span)}.calls_per_trial"] = "count/trial"
    for layer in bench_trace.LAYERS:
        units[f"{layer}.self_ms_per_trial"] = "ms/trial"
        units[f"{layer}.calls_per_trial"] = "count/trial"
    units.update({
        "coarse.failed_frac": "frac",
        "coarse.estimate_angles.share_of_trial": "frac",
        "virtual_array.solvers_per_trial": "count/trial",
        "virtual_array.ms_per_solver": "ms",
        "virtual_array.solver_agreement": "frac",
        "virtual_array.averaged_ssr.share_of_trial": "frac",
        "scenario.load_scenario.ms": "ms",
        "experiments.output_bytes_per_trial": "B/trial",
        "cli.main.self_ms": "ms",
        "trace_overhead_frac": "frac",
        "trace.unattributed_frac": "frac",
        "trace.missing_names": "count",
    })
    return units


END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_trials_frac": "frac"}


def layer_metrics(summary: dict, counters: dict, cells: int, n_sims: int,
                  overhead_frac: float, n_missing: int) -> dict:
    """Per-layer values from the spans of ``n_sims`` traced simulate calls
    that ran ``cells`` trials in total."""
    names, layers = summary["names"], summary["layers"]
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "errors": 0}

    def span(name):
        return names.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name in SELF_MS_SPANS:
        values[f"{_short(name)}.self_ms_per_trial"] = 1e3 * span(name)["self_s"] / cells
    for name in CALL_SPANS:
        values[f"{_short(name)}.calls_per_trial"] = span(name)["calls"] / cells
    for layer in bench_trace.LAYERS:
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.self_ms_per_trial"] = 1e3 * entry["self_s"] / cells
        values[f"{layer}.calls_per_trial"] = entry["calls"] / cells
    pipeline = span("coarse.coarse_pipeline")
    ssr = span("virtual_array.averaged_ssr")
    load = span("scenario.load_scenario")
    solvers = counters.get("ssr_solvers", 0)
    values.update({
        "coarse.failed_frac": ratio(pipeline["errors"], pipeline["calls"]),
        "coarse.estimate_angles.share_of_trial":
            ratio(span("coarse.estimate_angles")["incl_s"], summary["root_s"]),
        "virtual_array.solvers_per_trial": solvers / cells,
        "virtual_array.ms_per_solver": ratio(1e3 * ssr["incl_s"], solvers),
        "virtual_array.solver_agreement":
            ratio(counters.get("ssr_agreeing", 0), solvers),
        "virtual_array.averaged_ssr.share_of_trial":
            ratio(ssr["incl_s"], summary["root_s"]),
        "scenario.load_scenario.ms": ratio(1e3 * load["incl_s"], load["calls"]),
        "experiments.output_bytes_per_trial": counters.get("output_bytes", 0) / cells,
        "cli.main.self_ms": 1e3 * span("cli.main")["self_s"] / n_sims,
        "trace_overhead_frac": overhead_frac,
        "trace.unattributed_frac": ratio(summary["root_self_s"], summary["root_s"]),
        "trace.missing_names": n_missing,
    })
    return values


# -- running simulate batches ------------------------------------------------

class Runner:
    """Runs and checks simulate batches of one workload and one seed."""

    def __init__(self, workload: Workload, seed: int, out_dir: str,
                 trials: int | None = None, reference_path: str | None = None):
        from otfs_isac import cli
        self.cli = cli  # main is looked up per call, so tracing sees it
        self.scenario = os.path.join(ROOT, workload.scenario)
        with open(self.scenario) as fh:
            raw = json.load(fh)
        self.kind = raw["experiment_kind"]
        self.snrs = [float(s) for s in raw["snr_db_values"]]
        self.seed = seed
        self.trials = trials or workload.trials
        self.cells = len(self.snrs) * self.trials
        self.sim_dir = os.path.join(out_dir, "sim")
        self.expected = None
        if reference_path and os.path.exists(reference_path):
            ref = bench_check.load_reference(reference_path, seed)
            if ref is not None:
                self.expected = {k: v for k, v in ref.items() if k[1] < self.trials}
        self.has_reference = self.expected is not None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def batch(self, tracer=None, sim_id: int = 0, trials: int | None = None) -> float:
        """Run one simulate call, check its trials and return its wall time.

        ``trials`` runs a shorter batch, checked on the trials it ran.
        """
        trials = trials or self.trials
        n_cells = len(self.snrs) * trials
        shutil.rmtree(self.sim_dir, ignore_errors=True)
        argv = ["simulate", "--scenario", self.scenario, "--seed", str(self.seed),
                "--trials", str(trials), "--out", self.sim_dir]
        sink = io.StringIO()
        root = tracer.root(sim_id) if tracer else contextlib.nullcontext()
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            try:
                with root:
                    code = self.cli.main(argv)
            except Exception as exc:  # a failed batch is counted, not fatal
                code, error = None, f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
        self.attempted += n_cells
        if code != 0:
            self._fail(n_cells, error or f"simulate exited {code}: "
                                         f"{sink.getvalue()[-300:]}")
            return wall
        found = glob.glob(os.path.join(self.sim_dir, "**", "trials.csv"),
                          recursive=True)
        if len(found) != 1:
            self._fail(n_cells, f"expected one trials.csv, found {len(found)}")
            return wall
        cells = bench_check.read_trials(found[0])
        want = self.expected
        if want is None:
            problems = bench_check.sanity_failures(cells, self.snrs, trials,
                                                   self.kind)
            if problems:
                self._fail(n_cells, "; ".join(problems))
                return wall
            if trials == self.trials:
                self.expected = cells  # later batches must repeat this one
            want = cells
        bad = bench_check.failed_cells(
            cells, {k: v for k, v in want.items() if k[1] < trials})
        if bad:
            self.failed += len(bad)
            self.problems.append(f"{len(bad)} trials differ from the reference, "
                                 f"first {sorted(bad)[:3]}")
        return wall

    def _fail(self, n_cells: int, message: str) -> None:
        self.failed += n_cells
        self.problems.append(message)


def _has_time(start: float, seconds: float, last: float) -> bool:
    """Whether one more step as long as the last still ends within the run."""
    return perf_counter() - start + last <= seconds


def _median_rate(cells: int, walls) -> float:
    return statistics.median(cells / w for w in walls)


def measure_setup(scenario: str, repeats: int) -> float:
    """Median time for a fresh process to import otfs_isac and load the scenario."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, scenario, SRC],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup process failed: {proc.stderr.strip()[-500:]}")
        seconds, module_file = proc.stdout.split()
        _require_checkout_module(module_file)
        times.append(float(seconds))
    return statistics.median(times)


def _require_checkout_module(module_file: str) -> None:
    if not os.path.realpath(module_file).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"otfs_isac imported from {module_file}, not from {SRC}")


def run_end_to_end(runner: Runner, seconds: float,
                   min_batches: int = MIN_BATCHES) -> tuple[dict, list]:
    """Untraced batches for ``seconds``; returns metric values and batch walls."""
    runner.batch(trials=1)  # warm-up: lazy imports and first allocations
    walls = []
    start = perf_counter()
    while len(walls) < min_batches or _has_time(start, seconds, walls[-1]):
        walls.append(runner.batch())
    return {
        "trials_per_s": _median_rate(runner.cells, walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_trials_frac": 1.0 - runner.failed / runner.attempted,
    }, walls


def run_traced(runner: Runner, seconds: float, spans_path: str,
               min_pairs: int = MIN_TRACE_PAIRS) -> tuple[dict, list, list]:
    """Alternating untraced and traced batches; returns per-layer values,
    problems found in the trace, and the named functions that were missing."""
    from otfs_isac.exceptions import OtfsIsacError
    runner.batch(trials=1)  # warm-up
    untraced, traced = [], []
    tracer = bench_trace.Tracer()
    start = perf_counter()
    while len(traced) < min_pairs or _has_time(start, seconds,
                                               untraced[-1] + traced[-1]):
        untraced.append(runner.batch())
        with tracer:
            traced.append(runner.batch(tracer, sim_id=len(traced)))
    tracer.write(spans_path)
    summary = bench_trace.summarize(tracer.spans, OtfsIsacError)
    problems = []
    unattributed = summary["root_self_s"] / summary["root_s"]
    if unattributed > TRACE_MARGIN:
        problems.append(f"layer self times leave {unattributed:.1%} of the traced "
                        f"simulate wall time uncovered (margin {TRACE_MARGIN:.0%})")
    overhead = (_median_rate(runner.cells, untraced)
                / _median_rate(runner.cells, traced) - 1.0)
    missing = tracer.missing_modules + [n for n in METRIC_SPANS
                                        if n not in tracer.wrapped]
    values = layer_metrics(summary, tracer.counters, runner.cells * len(traced),
                           len(traced), overhead, len(missing))
    return values, problems, missing


# -- environment ---------------------------------------------------------------

def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- entry point ---------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trials: int | None = None, setup_repeats: int = SETUP_REPEATS,
                 min_batches: int = MIN_BATCHES,
                 reference_dir: str = REFERENCE_DIR) -> dict:
    """One benchmark run; returns the result line plus a report for humans."""
    workload = WORKLOADS[name]
    scenario = os.path.join(ROOT, workload.scenario)
    if not os.path.isfile(os.path.join(SRC, "otfs_isac", "__init__.py")):
        raise BenchError(f"no otfs_isac package under {SRC}")
    if not os.path.isfile(scenario):
        raise BenchError(f"missing scenario {scenario}")
    out_dir = os.path.join(OUT, name)
    os.makedirs(out_dir, exist_ok=True)
    setup_s = None if trace else measure_setup(scenario, setup_repeats)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import otfs_isac
    _require_checkout_module(otfs_isac.__file__)

    runner = Runner(workload, seed, out_dir, trials,
                    os.path.join(reference_dir, f"{name}.json"))
    report = {"workload": name, "seed": seed, "trials_per_batch": runner.trials,
              "cells_per_batch": runner.cells, "has_reference": runner.has_reference,
              "tolerance": {"rel": bench_check.REL_TOL, "abs": bench_check.ABS_TOL}}
    if trace:
        values, problems, report["missing_names"] = run_traced(
            runner, seconds, os.path.join(out_dir, "spans.jsonl"))
        units = per_layer_units()
    else:
        values, walls = run_end_to_end(runner, seconds, min_batches)
        values["setup_s"] = setup_s
        report["batches"] = len(walls)
        report["batch_s_median"] = statistics.median(walls)
        report["batch_s_max"] = max(walls)
        report["failed_trials_frac"] = runner.failed / runner.attempted
        problems = []
        units = END_TO_END_UNITS
    problems = runner.problems + problems
    report["problems"] = problems
    return {
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "report": report,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    seed = args.seed % 2**32  # the simulator takes non-negative seeds
    try:
        result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report = result.pop("report")
    env = environment()
    with open(os.path.join(OUT, args.workload, "result.json"), "w") as fh:
        json.dump({"env": env, "report": report, **result}, fh, indent=2)
    print(json.dumps({"env": env}))
    print(json.dumps({"report": report}))
    for key, metric in result["metrics"].items():
        print(f"{args.workload:10s} {key:50s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload:10s} {'failed_trials_frac':50s} "
              f"{report['failed_trials_frac']:14.6g} frac")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
