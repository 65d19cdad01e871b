"""Monte Carlo experiment runner: scenarios in, CSV/JSON data files out.

Each experiment writes one long-format per-trial CSV (snr_db, trial, metric,
value), one aggregate CSV (snr_db, metric, value), and a JSON manifest with
the resolved configuration. Per-trial RNG sub-streams are keyed by (SNR
index, trial index), so results are bit-identical regardless of the degree
of parallelism.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import itertools
import json
import multiprocessing
import os
import subprocess
from dataclasses import replace

import numpy as np

from .coarse import coarse_pipeline, estimate_angles, resolution_report
from .comm import ber_frame, symbol_capacity, transmit_chain
from .config import SPEED_OF_LIGHT, Target, substream, unit_phases
from .crlb import crlb_report
from .channel import radar_receive
from .exceptions import OtfsIsacError, PeakSeparationFailure
from .scenario import RANDOM_VELOCITY_RANGE_MPS, Scenario
from .virtual_array import (angle_surface, averaged_ssr, build_virtual_snapshot,
                            default_neighborhood)

RANDOM_ANGLE_RANGE_DEG = (-60.0, 60.0)

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


def _rng(scenario: Scenario, snr_idx: int, trial: int, purpose: int):
    return substream(scenario.seed, snr_idx, trial, purpose)


def _angle_floor(true_rad: float, cfg, pad_factor: int) -> float:
    """Squared error of the nearest padded-DFT grid angle (quantization floor)."""
    k = pad_factor * cfg.n_rx
    sin_grid = np.fft.fftfreq(k) * cfg.wavelength_m / cfg.g_r
    grid = np.arcsin(sin_grid[np.abs(sin_grid) <= 1.0])
    return float((grid[np.argmin(np.abs(grid - true_rad))] - true_rad) ** 2)


def _random_single_target(scenario: Scenario, rng) -> Target:
    cfg = scenario.system
    res = resolution_report(cfg)
    angle = rng.uniform(*RANDOM_ANGLE_RANGE_DEG)
    rng_m = rng.uniform(0.1 * res["range_max_m"], 0.8 * res["range_max_m"])
    vel = rng.uniform(-0.4 * res["velocity_max_mps"], 0.4 * res["velocity_max_mps"])
    return Target.from_range_velocity(angle, rng_m, vel, cfg.carrier_freq_hz,
                                      gain=unit_phases(rng, 1)[0])


def _with_random_gains(scenario: Scenario, rng) -> list:
    """The scenario's targets, each with a fresh unit-magnitude gain."""
    gains = unit_phases(rng, len(scenario.paths))
    return [replace(t, gain=g) for t, g in zip(scenario.paths, gains)]


# --- the trial skeleton: transmit, receive, refine ------------------------

def _scene(scenario: Scenario, targets, snr_db, snr_idx, trial, rng):
    """One frame through the radar channel; returns (dd, tf, rx_tf).

    The bits come from ``rng`` (purpose 0, after the targets), the noise
    from purpose 1.
    """
    cfg, alloc = scenario.system, scenario.bin_allocation
    bits = rng.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, tf = transmit_chain(bits, alloc, cfg)
    rx_tf = radar_receive(tf, targets, cfg, snr_db=snr_db,
                          rng=_rng(scenario, snr_idx, trial, 1))
    return dd, tf, rx_tf


def _solver_seed(scenario: Scenario, snr_idx: int, trial: int) -> int:
    return scenario.seed * 1_000_003 + snr_idx * 10_007 + trial


def _refine(scenario: Scenario, scene, n_targets, n_angles, peaks_per_angle,
            solver_seed):
    """Coarse estimates refined by bagged SSR on the virtual array.

    Returns (snapshot, specs, result), or None when the coarse stage fails.
    The neighborhoods cycle through the coarse estimates, one per target.
    """
    cfg, est = scenario.system, scenario.estimator
    dd, tf, rx_tf = scene
    try:
        coarse = coarse_pipeline(rx_tf, dd, cfg, n_angles=n_angles,
                                 peaks_per_angle=peaks_per_angle,
                                 pad_factor=est.dft_pad_factor)
    except OtfsIsacError:
        return None
    snapshot = build_virtual_snapshot(rx_tf, tf, scenario.bin_allocation)
    specs = [default_neighborhood(
        c, cfg,
        angle_step_deg=est.angle_step_deg, angle_width_deg=est.angle_width_deg,
        doppler_step_bins=est.doppler_step_bins,
        doppler_width_bins=est.doppler_width_bins,
        delay_step_bins=est.delay_step_bins,
        delay_width_bins=est.delay_width_bins)
        for c in itertools.islice(itertools.cycle(coarse), n_targets)]
    result = averaged_ssr(snapshot, specs, cfg, n_solvers=est.n_solvers,
                          seed=solver_seed, sweeps=est.ssr_sweeps)
    return snapshot, specs, result


# --- one (snr, trial) record per experiment kind -------------------------

def _trial_coarse_angle_mse(scenario, snr_db, snr_idx, trial):
    cfg = scenario.system
    est = scenario.estimator
    rng = _rng(scenario, snr_idx, trial, 0)
    target = (scenario.paths[0] if scenario.paths
              else _random_single_target(scenario, rng))
    _, _, rx_tf = _scene(scenario, [target], snr_db, snr_idx, trial, rng)
    true = target.angle_rad
    rows = []
    for mode, average in (("all_bins", True), ("single_bin", False)):
        try:
            angles, _, _ = estimate_angles(rx_tf, 1, cfg,
                                           pad_factor=est.dft_pad_factor,
                                           average=average)
            rows.append((f"angle_sq_err_{mode}_rad2", float((angles[0] - true) ** 2)))
        except OtfsIsacError:
            rows.append((f"angle_sq_err_{mode}_rad2", float("nan")))
    rows.append(("angle_crlb_rad2",
                 crlb_report(cfg, snr_db, ref_angle_rad=true)["angle_crlb_rad2"]))
    rows.append(("angle_floor_rad2", _angle_floor(true, cfg, est.dft_pad_factor)))
    return rows


def _trial_dd_correlation(scenario, snr_db, snr_idx, trial):
    cfg = scenario.system
    est = scenario.estimator
    rng = _rng(scenario, snr_idx, trial, 0)
    targets = _with_random_gains(scenario, rng)
    dd, _, rx_tf = _scene(scenario, targets, snr_db, snr_idx, trial, rng)
    res = resolution_report(cfg)
    sin_tol = 2.0 / (est.dft_pad_factor * cfg.n_rx)
    rows = []
    try:
        # one peak per angle (validation holds peaks_per_angle to 1)
        estimates = coarse_pipeline(rx_tf, dd, cfg, n_angles=len(targets),
                                    pad_factor=est.dft_pad_factor)
    except OtfsIsacError:
        rows.append(("recovered_all", 0.0))
        return rows
    estimates = sorted(estimates, key=lambda e: e.angle_rad)
    order = np.argsort([t.angle_rad for t in targets])
    ok = len(estimates) == len(targets)
    for j, e in zip(order, estimates):
        t = targets[j]
        rows.append((f"angle_abs_err_sin_t{j}",
                     float(abs(np.sin(e.angle_rad) - np.sin(t.angle_rad)))))
        rows.append((f"range_abs_err_m_t{j}", float(abs(e.range_m - t.range_m))))
        rows.append((f"velocity_abs_err_mps_t{j}",
                     float(abs(e.velocity_mps
                               - t.velocity_mps(cfg.carrier_freq_hz)))))
        ok = ok and abs(np.sin(e.angle_rad) - np.sin(t.angle_rad)) <= sin_tol + 1e-12
        ok = ok and abs(e.range_m - t.range_m) <= res["range_resolution_m"]
        ok = ok and (abs(e.velocity_mps - t.velocity_mps(cfg.carrier_freq_hz))
                     <= res["velocity_resolution_mps"])
    rows.append(("recovered_all", float(ok)))
    return rows


def _trial_ssr_angle(scenario, snr_db, snr_idx, trial):
    est = scenario.estimator
    rng = _rng(scenario, snr_idx, trial, 0)
    targets = _with_random_gains(scenario, rng)
    scene = _scene(scenario, targets, snr_db, snr_idx, trial, rng)
    refined = _refine(scenario, scene, len(targets), est.n_angles or 1,
                      est.peaks_per_angle, _solver_seed(scenario, snr_idx, trial))
    if refined is None:
        return [("coarse_failed", 1.0)]
    est_angles = np.sort(refined[2].estimates[:, 0])
    true = np.sort([t.angle_rad for t in targets])
    # With every true angle at 0 the normalized error is undefined; nan is
    # skipped by the aggregate like a failed estimate.
    power = np.sum(true ** 2)
    nmse = float(np.sum((est_angles - true) ** 2) / power) if power > 0 else float("nan")
    rows = [("coarse_failed", 0.0), ("angle_nmse", nmse),
            ("all_within_1deg",
             float(np.max(np.abs(est_angles - true)) <= np.deg2rad(1.0) + 1e-12))]
    rows.extend((f"angle_est_rad_t{j}", float(a)) for j, a in enumerate(est_angles))
    return rows


def _trial_ssr_velocity(scenario, snr_db, snr_idx, trial):
    cfg = scenario.system
    rng = _rng(scenario, snr_idx, trial, 0)
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
    scene = _scene(scenario, [target], snr_db, snr_idx, trial, rng)
    refined = _refine(scenario, scene, 1, 1, 1,
                      _solver_seed(scenario, snr_idx, trial))
    if refined is None:
        return [("coarse_failed", 1.0)]
    v_hat = refined[2].estimates[0][1] * SPEED_OF_LIGHT / (2.0 * cfg.carrier_freq_hz)
    return [("coarse_failed", 0.0),
            ("velocity_sq_err_mps2", float((v_hat - velocity) ** 2)),
            ("velocity_crlb_mps2",
             crlb_report(cfg, snr_db)["velocity_crlb_mps2"])]


def _trial_comm_ber(scenario, snr_db, snr_idx, trial):
    errors, bits = ber_frame(scenario.system, scenario.bin_allocation,
                             list(scenario.paths), snr_db,
                             seed=scenario.seed * 1_000_003 + snr_idx,
                             frame_index=trial)
    return [("bit_errors", float(errors)), ("bit_count", float(bits))]


def _trial_crlb(scenario, snr_db, snr_idx, trial):
    report = crlb_report(scenario.system, snr_db)
    return sorted(report.items())


_TRIAL_FUNCS = {
    "coarse-angle-mse": _trial_coarse_angle_mse,
    "dd-correlation": _trial_dd_correlation,
    "ssr-angle": _trial_ssr_angle,
    "ssr-velocity": _trial_ssr_velocity,
    "comm-ber": _trial_comm_ber,
    "crlb": _trial_crlb,
}


def _run_cell(args):
    scenario, snr_idx, trial = args
    snr_db = scenario.snr_db_values[snr_idx]
    trial_func = _TRIAL_FUNCS[scenario.experiment_kind]
    return snr_idx, trial, trial_func(scenario, snr_db, snr_idx, trial)


def _aggregate(kind: str, per_snr: dict) -> list:
    """Reduce metric lists to one aggregate row set per SNR."""
    rows = []
    for snr_db, metrics in per_snr.items():
        if kind == "comm-ber":
            errors = sum(metrics.get("bit_errors", [0.0]))
            bits = sum(metrics.get("bit_count", [1.0]))
            rows.append((snr_db, "ber", errors / bits))
            rows.append((snr_db, "total_bits", bits))
            continue
        for name, values in sorted(metrics.items()):
            values = np.asarray(values, dtype=float)
            finite = values[np.isfinite(values)]
            mean = float(np.mean(finite)) if finite.size else float("nan")
            if name.startswith(("angle_sq_err", "velocity_sq_err", "angle_nmse")):
                rows.append((snr_db, name.replace("sq_err", "mse") + "_mean", mean))
            elif name in ("recovered_all", "all_within_1deg", "coarse_failed"):
                rows.append((snr_db, name + "_rate", mean))
            else:
                rows.append((snr_db, name + "_mean", mean))
    return rows


def run_scenario(scenario: Scenario, out_dir, trials: int | None = None,
                 parallel: int = 1) -> dict:
    """Run the experiment and write trials.csv, aggregate.csv, manifest.json.

    ``parallel`` > 1 dispatches trials to a process pool; output files are
    identical for any pool size because every trial owns its RNG sub-stream
    and rows are merged in (snr, trial) order.
    """
    kind = scenario.experiment_kind
    if kind not in _TRIAL_FUNCS and kind != "demo-spectrum":
        raise ValueError(f"unknown experiment kind {kind!r}")
    out_dir = os.fspath(out_dir)
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
    for snr_idx, trial, rows in results:
        snr_db = scenario.snr_db_values[snr_idx]
        bucket = per_snr.setdefault(snr_db, {})
        for metric, value in rows:
            trial_rows.append((snr_db, trial, metric, float(value)))
            bucket.setdefault(metric, []).append(float(value))
    return {
        "trials": _write_csv(out_dir, "trials.csv",
                             ["snr_db", "trial", "metric", "value"], trial_rows),
        "aggregate": _write_csv(out_dir, "aggregate.csv",
                                ["snr_db", "metric", "value"],
                                _aggregate(kind, per_snr)),
        "manifest": _write_manifest(out_dir, scenario,
                                    {"trials": "trials.csv",
                                     "aggregate": "aggregate.csv"},
                                    trials_run=n_trials),
    }


def _write_csv(out_dir: str, name: str, header, rows) -> str:
    """Write one CSV file; floats are written in full precision (repr)."""
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)
    return path


def _write_manifest(out_dir: str, scenario: Scenario, outputs: dict,
                    **fields) -> str:
    """manifest.json: version, resolved scenario, output file names."""
    path = os.path.join(out_dir, "manifest.json")
    manifest = {"version": _version_string(), "scenario": scenario.to_dict(),
                "outputs": outputs, **fields}
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _run_demo_spectrum(scenario: Scenario, out_dir: str) -> dict:
    """Single showcase run: averaged DFT spectrum plus SSR angle surfaces."""
    cfg = scenario.system
    est = scenario.estimator
    snr_db = scenario.snr_db_values[0]
    rng = _rng(scenario, 0, 0, 0)
    targets = _with_random_gains(scenario, rng)
    scene = _scene(scenario, targets, snr_db, 0, 0, rng)

    _, omegas, power = estimate_angles(scene[2], 1, cfg,
                                       pad_factor=est.dft_pad_factor)
    lam_over_g = cfg.wavelength_m / (2.0 * np.pi * cfg.g_r)
    spectrum_path = _write_csv(out_dir, "spectrum.csv",
                               ["omega_rad", "sin_angle", "power"],
                               [(w, w * lam_over_g, p)
                                for w, p in zip(omegas, power)])

    refined = _refine(scenario, scene, len(targets), est.n_angles or 1,
                      est.peaks_per_angle, scenario.seed)
    if refined is None:
        raise PeakSeparationFailure("the coarse stage found no estimates to refine")
    snapshot, specs, result = refined
    surface = []
    for tid, spec in enumerate(specs):
        angles = spec.angle.superset_points()
        corr = angle_surface(snapshot, spec, result.estimates[tid], cfg)
        surface.extend((tid, a, c) for a, c in zip(angles, corr))
    surface_path = _write_csv(out_dir, "ssr_surface.csv",
                              ["neighborhood", "angle_rad", "correlation"],
                              surface)

    estimates = [(snr_db, f"angle_est_rad_t{tid}", result.estimates[tid][0])
                 for tid in range(len(specs))]
    agg_path = _write_csv(out_dir, "aggregate.csv", ["snr_db", "metric", "value"],
                          estimates + [(snr_db, "residual", result.residual)])
    return {"spectrum": spectrum_path, "ssr_surface": surface_path,
            "aggregate": agg_path,
            "manifest": _write_manifest(out_dir, scenario,
                                        {"spectrum": "spectrum.csv",
                                         "ssr_surface": "ssr_surface.csv",
                                         "aggregate": "aggregate.csv"})}
