"""Scenario files: JSON configuration for reproducible experiments.

A scenario bundles the system configuration, target list, bin allocation,
estimator settings, and Monte Carlo controls for one experiment. Field names
carry explicit units (``_hz``, ``_m``, ``_mps``, ``_deg``) so files remain
self-describing.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .allocation import BinAllocation, diagonal_allocation, make_allocation
from .coarse import resolution_report
from .comm import modified_sffts, symbol_capacity
from .config import SystemConfig, Target
from .exceptions import ConfigValidationError, OtfsIsacError

EXPERIMENT_KINDS = (
    "coarse-angle-mse",
    "dd-correlation",
    "ssr-angle",
    "ssr-velocity",
    "comm-ber",
    "crlb",
    "demo-spectrum",
)

_SYSTEM_FIELDS = {
    "n_doppler": int,
    "m_delay": int,
    "subcarrier_spacing_hz": float,
    "carrier_freq_hz": float,
    "n_tx": int,
    "n_rx": int,
    "n_comm_rx": int,
    "tx_spacing_m": float,
    "rx_spacing_m": float,
}
# Bound on the bytes of the reduced-transform columns that validation builds
# (N * M * sum_i |Z_i| complex values); a 64x128 grid with four diagonal
# private bins needs 1.5 MiB.
MAX_REDUCED_TRANSFORM_BYTES = 256 * 2 ** 20
# Bound on the bytes of the largest per-frame grid stack a run allocates: the
# radar receive stack (N_r * N * M), the comm channel blocks (N_c * N_t * N * M)
# and the LMMSE Gram stack (N_t^2 * N * M) complex values. The shipped 64x128
# scenarios need 4 MiB. The arrays that the estimator counts size share the
# bound: the coarse angle spectrum (dft_pad_factor * N_r complex bins, 4 KiB
# shipped) and what each SSR solver keeps (SOLVER_RECORD_BYTES plus
# 48 bytes per target: its 3 integer window starts and 3 float point values).
MAX_GRID_STACK_BYTES = 256 * 2 ** 20
# Bytes of one averaged_ssr solver_estimates record besides its 24 B of point
# values per target: the (points, residual) tuple, the points array, the
# residual float and the list slot. tracemalloc measured 240, 268 and 291 B
# per record for 1, 2 and 3 targets (CPython 3.11, numpy 2.4).
SOLVER_RECORD_BYTES = 216
# Bound on the (SNR, trial) cells of one run. run_scenario lists every cell
# before the first trial runs and keeps every cell's rows until it writes
# them, 0.7-2.5 KB per cell for 2-10 rows; the shipped scenarios run at most
# 500 cells.
MAX_TRIAL_CELLS = 100_000
# Kinds whose targets are estimated from the radar frame; their targets must lie
# inside the grid's unambiguous delay and Doppler intervals.
RADAR_KINDS = ("coarse-angle-mse", "dd-correlation", "ssr-angle", "ssr-velocity",
               "demo-spectrum")
# ssr-velocity draws each trial's target velocity uniformly from this range.
RANDOM_VELOCITY_RANGE_MPS = (-100.0, 100.0)


@dataclass(frozen=True)
class EstimatorSettings:
    """Knobs of the coarse and sparse-recovery estimators."""

    dft_pad_factor: int = 16
    peaks_per_angle: int = 1
    n_angles: int | None = None          # default: number of targets
    n_solvers: int = 64
    ssr_sweeps: int = 3
    angle_step_deg: float = 1.0
    angle_width_deg: float = 10.0
    doppler_step_bins: float = 0.1
    doppler_width_bins: float = 2.0
    delay_step_bins: float = 0.1
    delay_width_bins: float = 2.0


@dataclass(frozen=True)
class Scenario:
    """One fully specified, reproducible experiment."""

    name: str
    kind: str
    config: SystemConfig
    targets: tuple
    allocation: BinAllocation
    estimator: EstimatorSettings = field(default_factory=EstimatorSettings)
    trials: int = 100
    snr_db_values: tuple = (20.0,)
    seed: int = 0
    min_bits: int = 100_000              # comm-ber only

    def trials_per_snr(self, trials: int | None = None) -> int:
        """Trials a run makes at each SNR; ``trials`` overrides the count.

        crlb and demo-spectrum run once; without an override, comm-ber runs
        enough frames to carry ``min_bits``.
        """
        if self.kind in ("crlb", "demo-spectrum"):
            return 1
        if trials is not None:
            return trials
        if self.kind == "comm-ber":
            bits_per_frame = 2 * sum(symbol_capacity(self.allocation, self.config))
            return -(-self.min_bits // bits_per_frame)
        return self.trials

    def to_dict(self) -> dict:
        """JSON-serializable form (used in output manifests)."""
        return {
            "name": self.name,
            "experiment_kind": self.kind,
            "trials": self.trials,
            "seed": self.seed,
            "snr_db_values": list(self.snr_db_values),
            "min_bits": self.min_bits,
            "system": {
                "n_doppler": self.config.n_doppler,
                "m_delay": self.config.m_delay,
                "subcarrier_spacing_hz": self.config.subcarrier_spacing_hz,
                "carrier_freq_hz": self.config.carrier_freq_hz,
                "n_tx": self.config.n_tx,
                "n_rx": self.config.n_rx,
                "n_comm_rx": self.config.n_comm_rx,
                "tx_spacing_m": self.config.g_t,
                "rx_spacing_m": self.config.g_r,
            },
            "targets": [
                {
                    "angle_deg": float(np.rad2deg(t.angle_rad)),
                    "range_m": float(t.range_m),
                    "velocity_mps": float(t.velocity_mps(self.config.carrier_freq_hz)),
                }
                for t in self.targets
            ],
            "allocation": {
                "private_bins": sorted(
                    [ant, list(b)] for ant, b in self.allocation.private_bin_list()
                ),
            },
            "estimator": {k: getattr(self.estimator, k)
                          for k in EstimatorSettings.__dataclass_fields__},
        }


def _check(errors, condition, message):
    if not condition:
        errors.append(message)
    return condition


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


# estimator count fields and their least valid value
_ESTIMATOR_COUNTS = {"dft_pad_factor": 1, "peaks_per_angle": 1, "n_solvers": 1,
                     "ssr_sweeps": 0}
# search-box axes: (step field, width field)
_ESTIMATOR_AXES = (("angle_step_deg", "angle_width_deg"),
                   ("doppler_step_bins", "doppler_width_bins"),
                   ("delay_step_bins", "delay_width_bins"))


def _check_estimator(errors, estimator: EstimatorSettings, n_rx: int,
                     n_targets: int):
    for key, low in _ESTIMATOR_COUNTS.items():
        value = getattr(estimator, key)
        _check(errors, _is_int(value) and value >= low,
               f"estimator.{key}: expected an integer >= {low}, got {value!r}")
    # bytes per unit of the counts that size what a run allocates and keeps
    for key, unit_bytes, array in (
            ("dft_pad_factor", 16 * n_rx, "angle spectrum"),
            ("n_solvers", SOLVER_RECORD_BYTES + 48 * n_targets, "SSR solver state")):
        value = getattr(estimator, key)
        if _is_int(value):
            _check(errors, value * unit_bytes <= MAX_GRID_STACK_BYTES,
                   f"estimator.{key}: {value} needs {value * unit_bytes // 2 ** 20} "
                   f"MiB of {array}, over the {MAX_GRID_STACK_BYTES // 2 ** 20} MiB bound")
    _check(errors, estimator.n_angles is None
           or (_is_int(estimator.n_angles) and estimator.n_angles >= 1),
           f"estimator.n_angles: expected null or an integer >= 1, "
           f"got {estimator.n_angles!r}")
    for step_key, width_key in _ESTIMATOR_AXES:
        step, width = getattr(estimator, step_key), getattr(estimator, width_key)
        if not _check(errors, _is_finite(step) and step > 0,
                      f"estimator.{step_key}: expected a number > 0, got {step!r}"):
            continue
        _check(errors, _is_finite(width) and width >= step,
               f"estimator.{width_key}: expected a number >= {step_key} "
               f"({step!r}), got {width!r}")


def _check_name(errors, name):
    """The name becomes a directory under the output root: one plain component."""
    _check(errors,
           isinstance(name, str) and name not in ("", ".", "..")
           and not any(c in name for c in ("/", "\\", "\0")),
           f"name: {name!r} must be a non-empty string other than '.' and '..' "
           "without a path separator or NUL")


def _check_unaliased(errors, kind: str, targets, cfg: SystemConfig):
    """Radar targets must lie in the coarse stage's unambiguous intervals:
    delay in [0, M) bins (range below range_max_m) and Doppler in the signed
    [-N/2, N/2) bins (|velocity| below velocity_max_mps / 2). An aliased
    target would be scored against a truth that the frame cannot show."""
    if kind not in RADAR_KINDS:
        return
    rep = resolution_report(cfg)
    half_n = cfg.n_doppler / 2
    v_lim = rep["velocity_max_mps"] / 2
    unambiguous = (f"the unambiguous [-{v_lim:.6g}, {v_lim:.6g}) m/s "
                   "(velocity_max_mps / 2)")
    for i, t in enumerate(targets):
        _check(errors, t.delay_s / cfg.delay_spacing_s < cfg.m_delay,
               f"targets[{i}]: range {t.range_m:.6g} m is not below range_max_m "
               f"= {rep['range_max_m']:.6g} m")
        _check(errors, -half_n <= t.doppler_hz / cfg.doppler_spacing_hz < half_n,
               f"targets[{i}]: velocity {t.velocity_mps(cfg.carrier_freq_hz):.6g} m/s "
               f"outside {unambiguous}")
    if kind == "ssr-velocity":
        lo, hi = RANDOM_VELOCITY_RANGE_MPS
        # the uniform draws stay below the top end
        _check(errors, -v_lim <= lo and hi <= v_lim,
               f"experiment_kind: ssr-velocity draws velocities in [{lo:g}, {hi:g}) "
               f"m/s, outside {unambiguous}")


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    """Build and validate a Scenario; raises ConfigValidationError."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigValidationError(["top level: expected a JSON object"])

    kind = raw.get("experiment_kind")
    _check(errors, kind in EXPERIMENT_KINDS,
           f"experiment_kind: {kind!r} not one of {EXPERIMENT_KINDS}")

    system = raw.get("system", {})
    cfg_kwargs = {}
    if _check(errors, isinstance(system, dict), "system: expected an object"):
        for key, value in system.items():
            if key not in _SYSTEM_FIELDS:
                errors.append(f"system.{key}: unknown field")
                continue
            want = _SYSTEM_FIELDS[key]
            try:
                if not (_is_int(value) if want is int else _is_number(value)):
                    raise TypeError
                cfg_kwargs[key] = want(value)
            except (TypeError, OverflowError):
                errors.append(f"system.{key}: expected {want.__name__}, got {value!r}")
    try:
        cfg = SystemConfig(**cfg_kwargs)
    except (ValueError, TypeError) as exc:
        errors.append(f"system: {exc}")
        cfg = SystemConfig()
    stack_bytes = cfg.n_doppler * cfg.m_delay * 16 * max(
        cfg.n_rx, cfg.n_comm_rx * cfg.n_tx, cfg.n_tx ** 2)
    if not _check(errors, stack_bytes <= MAX_GRID_STACK_BYTES,
                  f"system: a {cfg.n_doppler}x{cfg.m_delay} grid with n_tx={cfg.n_tx}, "
                  f"n_rx={cfg.n_rx} and n_comm_rx={cfg.n_comm_rx} needs "
                  f"{stack_bytes // 2 ** 20} MiB per grid stack, over the "
                  f"{MAX_GRID_STACK_BYTES // 2 ** 20} MiB bound"):
        # stop here: the allocation below builds n_tx per-antenna sets
        raise ConfigValidationError(errors)

    targets = []
    targets_raw = raw.get("targets", [])
    if not _check(errors, isinstance(targets_raw, list), "targets: expected a list"):
        targets_raw = []
    for i, t in enumerate(targets_raw):
        try:
            values = [float(t[key]) for key in ("angle_deg", "range_m", "velocity_mps")]
            if _check(errors, all(map(math.isfinite, values)),
                      f"targets[{i}]: expected finite numbers, got {values}"):
                targets.append(Target.from_range_velocity(*values, cfg.carrier_freq_hz))
        except KeyError as exc:
            errors.append(f"targets[{i}]: missing field {exc}")
        except (TypeError, ValueError, OverflowError) as exc:
            errors.append(f"targets[{i}]: {exc}")

    alloc_raw = raw.get("allocation", {"diagonal_private_bins": cfg.n_tx})
    alloc = None
    if not isinstance(alloc_raw, dict):
        errors.append("allocation: expected an object")
    elif "private_bins" in alloc_raw:
        try:
            assignments = [(int(a), (int(b[0]), int(b[1])))
                           for a, b in alloc_raw["private_bins"]]
            alloc = make_allocation(cfg.n_tx, assignments)
        except (OtfsIsacError, ValueError, TypeError, LookupError,
                OverflowError) as exc:
            errors.append(f"allocation: {exc}")
    elif "diagonal_private_bins" in alloc_raw:
        # checked before the bin list is built, so a huge count costs nothing
        count = alloc_raw["diagonal_private_bins"]
        if _check(errors, _is_int(count) and 0 <= count <= cfg.n_tx,
                  f"allocation.diagonal_private_bins: expected an integer in "
                  f"[0, {cfg.n_tx}], got {count!r}"):
            alloc = make_allocation(cfg.n_tx, [(i, (i, i)) for i in range(count)])
    else:
        errors.append("allocation: need private_bins or diagonal_private_bins")
    if alloc is None:
        alloc = diagonal_allocation(cfg.n_tx)

    est_raw = raw.get("estimator", {})
    if not _check(errors, isinstance(est_raw, dict), "estimator: expected an object"):
        est_raw = {}
    est_kwargs = {}
    for key, value in est_raw.items():
        if key not in EstimatorSettings.__dataclass_fields__:
            errors.append(f"estimator.{key}: unknown field")
        else:
            est_kwargs[key] = value
    try:
        estimator = EstimatorSettings(**est_kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"estimator: {exc}")
        estimator = EstimatorSettings()
    _check_estimator(errors, estimator, cfg.n_rx, max(1, len(targets)))

    scenario_name = raw.get("name", name)
    _check_name(errors, scenario_name)
    trials = raw.get("trials", 100)
    _check(errors, _is_int(trials) and trials >= 1,
           "trials: expected a positive integer")
    seed = raw.get("seed", 0)
    _check(errors, _is_int(seed) and seed >= 0,
           "seed: expected a non-negative integer")
    snrs = raw.get("snr_db_values", [20.0])
    if _check(errors, isinstance(snrs, list) and len(snrs) > 0,
              "snr_db_values: expected a non-empty list"):
        try:
            snrs = tuple(float(s) for s in snrs)
        except (TypeError, ValueError, OverflowError):
            errors.append("snr_db_values: entries must be numbers")
            snrs = (20.0,)
        _check(errors, not any(math.isnan(s) or s == -math.inf for s in snrs),
               f"snr_db_values: NaN and -inf are not SNRs, got {list(snrs)}")
    else:
        snrs = (20.0,)
    min_bits = raw.get("min_bits", 100_000)
    _check(errors, _is_int(min_bits) and min_bits >= 1,
           "min_bits: expected a positive integer")

    # bin indices inside the grid, and the reduced transform must be full rank
    for ant, (n, m) in alloc.private_bin_list():
        if not (0 <= n < cfg.n_doppler and 0 <= m < cfg.m_delay):
            errors.append(f"allocation: bin {(n, m)} outside "
                          f"{cfg.n_doppler}x{cfg.m_delay} grid")
    n_zeroed = sum(len(z) for z in alloc.zero_bins)
    transform_bytes = cfg.n_doppler * cfg.m_delay * n_zeroed * 16
    _check(errors, transform_bytes <= MAX_REDUCED_TRANSFORM_BYTES,
           f"system: a {cfg.n_doppler}x{cfg.m_delay} grid with {n_zeroed} "
           f"zero-forced bins needs {transform_bytes / 2 ** 20:.0f} MiB of reduced "
           f"transforms, over the {MAX_REDUCED_TRANSFORM_BYTES // 2 ** 20} MiB bound")

    if kind in ("dd-correlation", "ssr-angle", "comm-ber", "demo-spectrum"):
        _check(errors, len(targets) >= 1, f"targets: {kind} needs at least one target")
    if kind == "ssr-velocity":
        _check(errors, len(targets) <= 1,
               "targets: ssr-velocity uses a single randomized target; "
               "list at most one as the angle/range template")
    _check_unaliased(errors, kind, targets, cfg)

    if errors:
        raise ConfigValidationError(errors)
    scenario = Scenario(
        name=scenario_name,
        kind=kind,
        config=cfg,
        targets=tuple(targets),
        allocation=alloc,
        estimator=estimator,
        trials=trials,
        snr_db_values=snrs,
        seed=seed,
        min_bits=min_bits,
    )
    # checked before the reduced transforms are built, and without
    # formatting the counts, which can be too long for str()
    if len(snrs) * scenario.trials_per_snr() > MAX_TRIAL_CELLS:
        field = "min_bits" if kind == "comm-ber" else "trials"
        raise ConfigValidationError([
            f"{field}: the run would make more than {MAX_TRIAL_CELLS} "
            f"(SNR, trial) cells for {len(snrs)} SNR value(s)"])
    try:
        modified_sffts(alloc, cfg)     # also warms the cache for the run
    except OtfsIsacError as exc:
        raise ConfigValidationError(
            [f"allocation: reduced transform check failed: {exc}"])
    return scenario


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file.

    A scenario without a ``name`` is named after the file, without its
    directory and extension.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigValidationError([f"invalid JSON: {exc}"])
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return scenario_from_dict(raw, name=stem)
