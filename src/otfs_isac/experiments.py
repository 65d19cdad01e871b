"""Monte Carlo experiment runner: scenarios in, CSV/JSON data files out.

Each experiment writes one long-format per-trial CSV (snr_db, trial, metric,
value), one aggregate CSV (snr_db, metric, value) as the kind's metric table
declares, and a JSON manifest with the resolved configuration and failures.
Per-trial RNG sub-streams are keyed by (SNR index, trial index), so results
are bit-identical regardless of the degree of parallelism.
"""

from __future__ import annotations

import collections
import csv
import ctypes
import functools
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
from dataclasses import replace

import numpy as np

from .coarse import coarse_pipeline, estimate_angles, resolution_report
from .comm import ber_frame, symbol_capacity, transmit_chain
from .config import SPEED_OF_LIGHT, Target, substream, unit_phases
from .crlb import crlb_report
from .channel import radar_receive
from .exceptions import OtfsIsacError
from .virtual_array import (angle_surface, averaged_ssr, build_virtual_snapshot,
                            default_neighborhood)

# ``Scenario`` is scenario.Scenario, which imports KINDS from here

RANDOM_ANGLE_RANGE_DEG = (-60.0, 60.0)
RANDOM_VELOCITY_RANGE_MPS = (-100.0, 100.0)     # of ssr-velocity's uniform draws
NAN = float("nan")
PER_TARGET = "one per target"

# glibc mallopt parameters (malloc.h)
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3


def _steady_heap() -> None:
    """Keep glibc's heap mapped between calls in this process.

    A trial allocates and frees stacks of several MiB. With glibc's defaults
    their pages go back to the kernel when they are freed, so every trial
    faults them in again (about 1,900 minor faults per coarse_three_targets
    trial). A 64 MiB top pad keeps them in the heap. Any ``mallopt`` call
    also freezes glibc's dynamic mmap threshold at its current value, so the
    threshold is set too, to 32 MiB, the ceiling of the dynamic threshold on
    64-bit: a frozen low threshold would give each stack that the heap top
    cannot hold a fresh mapping. Process-wide; a silent no-op where libc has
    no ``mallopt``. Changes no result.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TOP_PAD, 64 << 20)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    except (AttributeError, OSError, TypeError):
        pass


# Applied once, when the package is imported (its __init__ imports this
# module): library callers and spawned --parallel workers, which import the
# package to unpickle _run_cell, all run under the steady heap.
_steady_heap()


@functools.cache
def _version_string() -> str:
    from . import __version__
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(__file__), capture_output=True, text=True,
            timeout=5)
        if out.returncode == 0 and out.stdout.strip():
            return f"{__version__}+{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


# --- the trial skeleton: draw, transmit, receive, estimate -----------------

# One (SNR, trial) cell of a run; ``truth`` is what the kind's estimates are
# scored against and ``scene`` the (dd, tf, rx_tf) of its radar frame.
Cell = collections.namedtuple("Cell", "scenario snr_db snr_idx trial truth scene",
                              defaults=(None, ()))


def _frame(cell: Cell, draw) -> Cell:
    """``cell`` with the truth of ``draw`` and its targets' radar frame: targets
    and bits from the purpose-0 stream, noise from purpose 1."""
    scenario = cell.scenario
    cfg, alloc = scenario.system, scenario.bin_allocation
    rng = substream(scenario.seed, cell.snr_idx, cell.trial, 0)
    targets, truth = draw(scenario, rng)
    bits = rng.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, tf = transmit_chain(bits, alloc, cfg)
    rx_tf = radar_receive(tf, targets, cfg, snr_db=cell.snr_db,
                          rng=substream(scenario.seed, cell.snr_idx, cell.trial, 1))
    return cell._replace(truth=truth, scene=(dd, tf, rx_tf))


def _run_cell(args):
    """(snr_idx, trial, rows, the exception type name of each failed call) of
    one cell; a call that raises a package error writes its failure rows."""
    scenario, snr_idx, trial = args
    kind = KINDS[scenario.experiment_kind]
    cell = Cell(scenario, scenario.snr_db_values[snr_idx], snr_idx, trial)
    if kind.draw is not None:
        cell = _frame(cell, kind.draw)
    rows, failures = [], []
    for estimate, failure_rows in kind.estimates:
        try:
            rows += estimate(cell)
        except OtfsIsacError as exc:
            rows += failure_rows
            failures.append(type(exc).__name__)
    return snr_idx, trial, rows, failures


def _solver_seed(cell: Cell) -> int:
    return cell.scenario.seed * 1_000_003 + cell.snr_idx * 10_007 + cell.trial


def _refine(cell: Cell, n_angles, peaks_per_angle, solver_seed):
    """The cell's coarse estimates refined by bagged SSR on the virtual array:
    (snapshot, specs, result). The kind's search boxes cycle through the
    coarse estimates; a failed coarse stage raises."""
    scenario = cell.scenario
    cfg, est = scenario.system, scenario.estimator
    dd, tf, rx_tf = cell.scene
    coarse = coarse_pipeline(rx_tf, dd, cfg, n_angles=n_angles,
                             peaks_per_angle=peaks_per_angle,
                             pad_factor=est.dft_pad_factor)
    snapshot = build_virtual_snapshot(rx_tf, tf, scenario.bin_allocation)
    specs = [default_neighborhood(
        c, cfg,
        angle_step_deg=est.angle_step_deg, angle_width_deg=est.angle_width_deg,
        doppler_step_bins=est.doppler_step_bins,
        doppler_width_bins=est.doppler_width_bins,
        delay_step_bins=est.delay_step_bins,
        delay_width_bins=est.delay_width_bins)
        for c in itertools.islice(itertools.cycle(coarse),
                                  KINDS[scenario.experiment_kind].n_boxes(scenario))]
    result = averaged_ssr(snapshot, specs, cfg, n_solvers=est.n_solvers,
                          seed=solver_seed, sweeps=est.ssr_sweeps)
    return snapshot, specs, result


def _single_target(scenario: Scenario, rng):
    """The first listed target, else a random one; the truth is its angle."""
    if scenario.paths:
        target = scenario.paths[0]
    else:
        cfg = scenario.system
        res = resolution_report(cfg)
        angle = rng.uniform(*RANDOM_ANGLE_RANGE_DEG)
        rng_m = rng.uniform(0.1 * res["range_max_m"], 0.8 * res["range_max_m"])
        vel = rng.uniform(-0.4 * res["velocity_max_mps"], 0.4 * res["velocity_max_mps"])
        target = Target.from_range_velocity(angle, rng_m, vel, cfg.carrier_freq_hz,
                                            gain=unit_phases(rng, 1)[0])
    return [target], target.angle_rad


def _random_gains(scenario: Scenario, rng):
    """The scenario's targets with fresh unit-magnitude gains, as the truth too."""
    gains = unit_phases(rng, len(scenario.paths))
    targets = [replace(t, gain=g) for t, g in zip(scenario.paths, gains)]
    return targets, targets


def _random_velocity(scenario: Scenario, rng):
    """One target at the template's angle and range and a random velocity, the truth."""
    cfg = scenario.system
    if scenario.targets:
        template = scenario.targets[0]
        angle_deg, range_m = template.angle_deg, template.range_m
    else:
        angle_deg = 10.0
        range_m = 8.0 * resolution_report(cfg)["range_resolution_m"]
    velocity = rng.uniform(*RANDOM_VELOCITY_RANGE_MPS)
    target = Target.from_range_velocity(angle_deg, range_m, velocity,
                                        cfg.carrier_freq_hz,
                                        gain=unit_phases(rng, 1)[0])
    return [target], velocity


def _angle_sq_err(mode: str, cell: Cell):
    angles, _, _ = estimate_angles(cell.scene[2], 1, cell.scenario.system,
                                   pad_factor=cell.scenario.estimator.dft_pad_factor,
                                   average=mode == "all_bins")
    return [(f"angle_sq_err_{mode}_rad2", float((angles[0] - cell.truth) ** 2))]


def _angle_bounds(cell: Cell):
    """The CRLB and the quantization floor: the nearest padded-DFT grid angle's error."""
    cfg, true = cell.scenario.system, cell.truth
    k = cell.scenario.estimator.dft_pad_factor * cfg.n_rx
    sin_grid = np.fft.fftfreq(k) * cfg.wavelength_m / cfg.g_r
    grid = np.arcsin(sin_grid[np.abs(sin_grid) <= 1.0])
    return [("angle_crlb_rad2",
             crlb_report(cfg, cell.snr_db, ref_angle_rad=true)["angle_crlb_rad2"]),
            ("angle_floor_rad2", float((grid[np.argmin(np.abs(grid - true))] - true) ** 2))]


def _dd_correlation(cell: Cell):
    cfg, est, targets = cell.scenario.system, cell.scenario.estimator, cell.truth
    dd, _, rx_tf = cell.scene
    res = resolution_report(cfg)
    names = ("angle_abs_err_sin", "range_abs_err_m", "velocity_abs_err_mps")
    limits = (2.0 / (est.dft_pad_factor * cfg.n_rx) + 1e-12, res["range_resolution_m"],
              res["velocity_resolution_mps"])
    # one peak per angle (validation holds peaks_per_angle to 1)
    estimates = coarse_pipeline(rx_tf, dd, cfg, n_angles=len(targets),
                                pad_factor=est.dft_pad_factor)
    estimates = sorted(estimates, key=lambda e: e.angle_rad)
    order = np.argsort([t.angle_rad for t in targets])
    ok = len(estimates) == len(targets)
    rows = []
    for j, e in zip(order, estimates):
        t = targets[j]
        errors = (abs(np.sin(e.angle_rad) - np.sin(t.angle_rad)), abs(e.range_m - t.range_m),
                  abs(e.velocity_mps - t.velocity_mps(cfg.carrier_freq_hz)))
        rows += [(f"{name}_t{j}", float(error)) for name, error in zip(names, errors)]
        ok = ok and all(error <= limit for error, limit in zip(errors, limits))
    return rows + [("recovered_all", float(ok))]


def _ssr_angle(cell: Cell):
    est, targets = cell.scenario.estimator, cell.truth
    _, _, result = _refine(cell, est.n_angles or 1, est.peaks_per_angle,
                           _solver_seed(cell))
    est_angles = np.sort(result.estimates[:, 0])
    true = np.sort([t.angle_rad for t in targets])
    # With every true angle at 0 the normalized error is undefined; nan is
    # skipped by the aggregate like a failed estimate.
    power = np.sum(true ** 2)
    nmse = float(np.sum((est_angles - true) ** 2) / power) if power > 0 else NAN
    rows = [("coarse_failed", 0.0), ("angle_nmse", nmse),
            ("all_within_1deg",
             float(np.max(np.abs(est_angles - true)) <= np.deg2rad(1.0) + 1e-12))]
    return rows + [(f"angle_est_rad_t{j}", float(a)) for j, a in enumerate(est_angles)]


def _ssr_velocity(cell: Cell):
    cfg = cell.scenario.system
    _, _, result = _refine(cell, 1, 1, _solver_seed(cell))
    v_hat = result.estimates[0][1] * SPEED_OF_LIGHT / (2.0 * cfg.carrier_freq_hz)
    return [("coarse_failed", 0.0),
            ("velocity_sq_err_mps2", float((v_hat - cell.truth) ** 2)),
            ("velocity_crlb_mps2",
             crlb_report(cfg, cell.snr_db)["velocity_crlb_mps2"])]


def _comm_ber(cell: Cell):
    scenario = cell.scenario
    errors, bits = ber_frame(scenario.system, scenario.bin_allocation,
                             scenario.paths, cell.snr_db,
                             seed=scenario.seed * 1_000_003 + cell.snr_idx,
                             frame_index=cell.trial)
    return [("bit_errors", float(errors)), ("bit_count", float(bits))]


def _crlb(cell: Cell):
    return sorted(crlb_report(cell.scenario.system, cell.snr_db).items())


class Kind(collections.namedtuple(
        "Kind", "draw estimates metrics targets boxes trials velocities one_peak comm_link",
        defaults=((0, math.inf), None, "trials", None, False, False))):
    """An experiment kind, declared once: its ``draw`` of a trial's targets
    and truth with a radar frame (None: no frame), its (estimator call, rows
    written when the call raises) ``estimates`` and its ``metrics`` table.
    Validation reads the rest: the fewest and most ``targets``, the SSR
    search ``boxes`` (PER_TARGET or a count; None: no SSR), the scenario
    field that sets the ``trials`` per SNR (None: one), the [low, high) m/s
    ``velocities`` its draw picks, whether it pairs ``one_peak`` with
    each target, and whether its trials run the ``comm_link`` (see
    ``comm.undefined_noiseless_ber``). The README's kind table says what
    each one requires."""

    def n_boxes(self, scenario) -> int:
        """The SSR search boxes it refines for ``scenario``; 0 without SSR."""
        return len(scenario.targets) if self.boxes == PER_TARGET else self.boxes or 0


# A trials.csv metric ({j}: a target index), its unit, and its aggregate.csv
# name and reduction: "mean", "sum" or "ratio to <metric>" (see _aggregate).
Metric = collections.namedtuple("Metric", "name unit aggregate reduction", defaults=("mean",))
KINDS = {
    # each DFT mode is its own call, so a failed mode writes only its own nan
    "coarse-angle-mse": Kind(_single_target, [
        (functools.partial(_angle_sq_err, "all_bins"), [("angle_sq_err_all_bins_rad2", NAN)]),
        (functools.partial(_angle_sq_err, "single_bin"),
         [("angle_sq_err_single_bin_rad2", NAN)]),
        (_angle_bounds, [])], (
        Metric("angle_crlb_rad2", "rad^2", "angle_crlb_rad2_mean"),
        Metric("angle_floor_rad2", "rad^2", "angle_floor_rad2_mean"),
        Metric("angle_sq_err_all_bins_rad2", "rad^2", "angle_mse_all_bins_rad2_mean"),
        Metric("angle_sq_err_single_bin_rad2", "rad^2", "angle_mse_single_bin_rad2_mean"))),
    "dd-correlation": Kind(_random_gains, [(_dd_correlation, [("recovered_all", 0.0)])], (
        Metric("angle_abs_err_sin_t{j}", "", "angle_abs_err_sin_t{j}_mean"),
        Metric("range_abs_err_m_t{j}", "m", "range_abs_err_m_t{j}_mean"),
        Metric("recovered_all", "", "recovered_all_rate"),
        Metric("velocity_abs_err_mps_t{j}", "m/s", "velocity_abs_err_mps_t{j}_mean")),
        targets=(1, math.inf), one_peak=True),
    "ssr-angle": Kind(_random_gains, [(_ssr_angle, [("coarse_failed", 1.0)])], (
        Metric("all_within_1deg", "", "all_within_1deg_rate"),
        Metric("angle_est_rad_t{j}", "rad", "angle_est_rad_t{j}_mean"),
        Metric("angle_nmse", "", "angle_nmse_mean"),
        Metric("coarse_failed", "", "coarse_failed_rate")),
        targets=(1, math.inf), boxes=PER_TARGET),
    "ssr-velocity": Kind(_random_velocity, [(_ssr_velocity, [("coarse_failed", 1.0)])], (
        Metric("coarse_failed", "", "coarse_failed_rate"),
        Metric("velocity_crlb_mps2", "(m/s)^2", "velocity_crlb_mps2_mean"),
        Metric("velocity_sq_err_mps2", "(m/s)^2", "velocity_mse_mps2_mean")),
        targets=(0, 1), boxes=1, velocities=RANDOM_VELOCITY_RANGE_MPS),
    "comm-ber": Kind(None, [(_comm_ber, [])], (
        Metric("bit_errors", "bits", "ber", "ratio to bit_count"),
        Metric("bit_count", "bits", "total_bits", "sum")),
        targets=(1, math.inf), trials="min_bits", comm_link=True),
    "crlb": Kind(None, [(_crlb, [])], (
        Metric("angle_crlb_rad2", "rad^2", "angle_crlb_rad2_mean"),
        Metric("nu_crlb", "Hz^2", "nu_crlb_mean"),
        Metric("omega_crlb", "rad^2", "omega_crlb_mean"),
        Metric("range_crlb_m2", "m^2", "range_crlb_m2_mean"),
        Metric("tau_crlb", "s^2", "tau_crlb_mean"),
        Metric("velocity_crlb_mps2", "(m/s)^2", "velocity_crlb_mps2_mean")),
        trials=None),
    # one showcase run of its own (_run_demo_spectrum), not trials of estimates
    "demo-spectrum": Kind(_random_gains, [], (), targets=(1, math.inf), boxes=PER_TARGET,
                          trials=None),
}


def _aggregate(kind: str, per_snr: dict) -> list:
    """One row per SNR and trials.csv metric, reduced as the kind's metric
    table declares; a metric the table does not declare raises ValueError."""
    rows = []
    for snr_db, metrics in per_snr.items():
        undeclared = set(metrics)
        for m in KINDS[kind].metrics:
            pattern = re.escape(m.name).replace(r"\{j\}", r"(?P<j>\d+)")
            for name in sorted(metrics):
                hit = re.fullmatch(pattern, name)
                if hit is None:
                    continue
                undeclared.discard(name)
                values = metrics[name]
                if m.reduction == "mean":
                    kept = np.asarray(values)[~np.isnan(values)]
                    value = float(np.mean(kept)) if kept.size else NAN
                elif m.reduction == "sum":
                    value = sum(values)
                else:    # "ratio to <metric>": a ratio of sums
                    value = sum(values) / sum(metrics[m.reduction.removeprefix("ratio to ")])
                rows.append((snr_db, m.aggregate.format(**hit.groupdict()), value))
        if undeclared:
            raise ValueError(f"{kind} metrics {sorted(undeclared)} are not in its table")
    return rows


def run_scenario(scenario: Scenario, out_dir, trials: int | None = None,
                 parallel: int = 1) -> dict:
    """Run the experiment and write trials.csv, aggregate.csv, manifest.json.

    ``parallel`` > 1 dispatches trials to a process pool; output files are
    identical for any pool size because every trial owns its RNG sub-stream
    and rows are merged in (snr, trial) order. The manifest's ``failures``
    counts the failed estimator calls of each SNR by exception type.
    """
    kind = scenario.experiment_kind
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    os.makedirs(out_dir, exist_ok=True)
    if kind == "demo-spectrum":
        return _run_demo_spectrum(scenario, out_dir)
    n_trials = scenario.trials_per_snr(trials)
    cells = [(scenario, si, t)
             for si in range(len(scenario.snr_db_values))
             for t in range(n_trials)]
    if parallel > 1:
        with multiprocessing.get_context("spawn").Pool(parallel) as pool:
            results = pool.map(_run_cell, cells)
    else:
        results = [_run_cell(c) for c in cells]

    per_snr: dict = {}
    trial_rows = []
    failures: dict = {}
    for snr_idx, trial, rows, failed in results:
        snr_db = scenario.snr_db_values[snr_idx]
        bucket = per_snr.setdefault(snr_db, {})
        failures.setdefault(repr(snr_db), collections.Counter()).update(failed)
        for metric, value in rows:
            trial_rows.append((snr_db, trial, metric, float(value)))
            bucket.setdefault(metric, []).append(float(value))
    return _write_outputs(out_dir, scenario, {
        "trials": (["snr_db", "trial", "metric", "value"], trial_rows),
        "aggregate": (["snr_db", "metric", "value"], _aggregate(kind, per_snr)),
    }, trials_run=n_trials, failures=failures)


def _write_outputs(out_dir: str, scenario: Scenario, tables: dict, **fields) -> dict:
    """Write each ``{key: (header, rows)}`` of ``tables`` to <key>.csv, floats
    in full precision (repr), then manifest.json: version, resolved scenario,
    output file names and ``fields``. Returns the paths by key."""
    paths = {}
    for key, (header, rows) in tables.items():
        paths[key] = os.path.join(out_dir, f"{key}.csv")
        with open(paths[key], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([repr(float(v)) if isinstance(v, float) else v
                              for v in row] for row in rows)
    manifest = {"version": _version_string(), "scenario": scenario.to_dict(),
                "outputs": {key: f"{key}.csv" for key in tables}, **fields}
    paths["manifest"] = os.path.join(out_dir, "manifest.json")
    with open(paths["manifest"], "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _run_demo_spectrum(scenario: Scenario, out_dir: str) -> dict:
    """Single showcase run: averaged DFT spectrum plus SSR angle surfaces."""
    cfg = scenario.system
    est = scenario.estimator
    cell = _frame(Cell(scenario, scenario.snr_db_values[0], 0, 0), _random_gains)
    _, omegas, power = estimate_angles(cell.scene[2], 1, cfg,
                                       pad_factor=est.dft_pad_factor)
    lam_over_g = cfg.wavelength_m / (2.0 * np.pi * cfg.g_r)
    snapshot, specs, result = _refine(cell, est.n_angles or 1, est.peaks_per_angle,
                                      scenario.seed)
    surface = []
    for tid, spec in enumerate(specs):
        angles = spec.angle.superset_points()
        corr = angle_surface(snapshot, spec, result.estimates[tid], cfg)
        surface.extend((tid, a, c) for a, c in zip(angles, corr))
    estimates = [(cell.snr_db, f"angle_est_rad_t{tid}", result.estimates[tid][0])
                 for tid in range(len(specs))]
    return _write_outputs(out_dir, scenario, {
        "spectrum": (["omega_rad", "sin_angle", "power"],
                     [(w, w * lam_over_g, p) for w, p in zip(omegas, power)]),
        "ssr_surface": (["neighborhood", "angle_rad", "correlation"], surface),
        "aggregate": (["snr_db", "metric", "value"],
                      estimates + [(cell.snr_db, "residual", result.residual)]),
    })
