"""Scenario files: JSON configuration for reproducible experiments.

A scenario bundles the system configuration, target list, bin allocation,
estimator settings, and Monte Carlo controls for one experiment. Field names
carry explicit units (``_hz``, ``_m``, ``_mps``, ``_deg``) so files remain
self-describing.

Each object of the file is a dataclass whose fields are its keys. Their
types, defaults, units and bounds (``schema.param``) are the one table that
parses, validates and writes a scenario, so a run's manifest replays it.
``scenario_from_dict`` adds the checks that relate fields to each other.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from functools import cached_property

from .allocation import BinAllocation, diagonal_allocation, make_allocation
from .coarse import DEFAULT_PAD_FACTOR, resolution_report
from .comm import modified_sfft, symbol_capacity, undefined_noiseless_ber
from .config import VELOCITY_BOUND_MPS, SystemConfig, Target
from .crlb import SNR_DB_BOUND
from .exceptions import ConfigValidationError, OtfsIsacError
from .experiments import KINDS
from .schema import COUNT, NON_NEGATIVE, POSITIVE, from_json, param, to_json
from .virtual_array import COLUMN_CAP, DEFAULT_N_SOLVERS, DEFAULT_SWEEPS, AxisSpec

# Bound on the bytes of the reduced-transform corrections that validation
# builds (N * M * sum_i |Z_i| complex values); a 64x128 grid with four diagonal
# private bins needs 1.5 MiB.
MAX_REDUCED_TRANSFORM_BYTES = 256 * 2 ** 20
# Bound on the bytes of the largest grid stack a run allocates: the radar
# receive stack (N_r * N * M), the comm channel blocks (N_c * N_t * N * M), the
# LMMSE systems [Gram | rhs] (N_t * (N_t + 1) * N * M) and, for a kind with a
# comm link, the TF grids of its J paths (J * N * M, kept for the whole run)
# complex values; no other array of the comm chain is larger than these. The shipped
# 64x128 scenarios need 4 MiB. The arrays that the estimator counts size share the
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


@dataclass(frozen=True)
class TargetSpec:
    """One target as the scenario gives it."""

    angle_deg: float = param(unit="deg", bound="(-90, 90)")
    range_m: float = param(unit="m", bound=NON_NEGATIVE)
    velocity_mps: float = param(unit="m/s", bound=VELOCITY_BOUND_MPS)


@dataclass(frozen=True)
class AllocationSpec:
    """Private TF bins: ``private_bins`` lists [antenna, [n, m]] pairs, and
    ``diagonal_private_bins`` = k gives antennas 0..k-1 the bin (i, i), with
    k at most n_tx. A scenario gives at most one of them; with neither, every
    antenna gets its diagonal bin."""

    private_bins: tuple[tuple[int, tuple[int, int]], ...] | None = param(
        None, bound=NON_NEGATIVE)
    diagonal_private_bins: int | None = param(None, bound=NON_NEGATIVE)


@dataclass(frozen=True)
class EstimatorSettings:
    """Knobs of the coarse and sparse-recovery estimators. Each search-box
    width must be a whole number of its steps (``AxisSpec``)."""

    dft_pad_factor: int = param(DEFAULT_PAD_FACTOR, bound=COUNT)
    # peaks per coarse angle, 1 where the kind pairs one with each target
    peaks_per_angle: int = param(1, bound=COUNT)
    # distinct angles the coarse stage looks for where the kind reads it (None: 1)
    n_angles: int | None = param(None, bound=COUNT)
    n_solvers: int = param(DEFAULT_N_SOLVERS, bound=COUNT)
    ssr_sweeps: int = param(DEFAULT_SWEEPS, bound=NON_NEGATIVE)
    angle_step_deg: float = param(1.0, "deg", POSITIVE)
    angle_width_deg: float = param(10.0, "deg", POSITIVE)
    doppler_step_bins: float = param(0.1, "bins", POSITIVE)
    doppler_width_bins: float = param(2.0, "bins", POSITIVE)
    delay_step_bins: float = param(0.1, "bins", POSITIVE)
    delay_width_bins: float = param(2.0, "bins", POSITIVE)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One fully specified, reproducible experiment.

    The fields hold the validated input values as given (degrees, metres,
    m/s, a None antenna spacing), so ``to_dict`` writes the input back and
    ``scenario_from_dict(s.to_dict()) == s``. ``paths`` and
    ``bin_allocation`` are derived from them.
    """

    name: str = "scenario"
    experiment_kind: str = param(bound=tuple(KINDS))
    trials: int = param(100, bound=COUNT)
    seed: int = param(0, bound=NON_NEGATIVE)
    snr_db_values: tuple[float, ...] = param((20.0,), "dB", SNR_DB_BOUND)
    min_bits: int = param(100_000, "bits", COUNT)    # where it sets the trials
    system: SystemConfig = SystemConfig()
    targets: tuple[TargetSpec, ...] = ()
    allocation: AllocationSpec = AllocationSpec()
    estimator: EstimatorSettings = EstimatorSettings()

    @cached_property
    def paths(self) -> tuple:
        """The targets as ``Target`` paths (angle in rad, delay, Doppler)."""
        return tuple(Target.from_range_velocity(t.angle_deg, t.range_m, t.velocity_mps,
                                                self.system.carrier_freq_hz)
                     for t in self.targets)

    @cached_property
    def bin_allocation(self) -> BinAllocation:
        spec, n_tx = self.allocation, self.system.n_tx
        if spec.private_bins is not None:
            return make_allocation(n_tx, spec.private_bins)
        return diagonal_allocation(n_tx, spec.diagonal_private_bins)

    def trials_per_snr(self, trials: int | None = None) -> int:
        """Trials a run makes at each SNR, set by the field the kind names
        (``min_bits``: the frames that carry them); ``trials`` overrides it,
        except for a kind of one trial per SNR."""
        field = KINDS[self.experiment_kind].trials
        if field is None:
            return 1
        if trials is not None:
            return trials
        if field == "min_bits":
            bits_per_frame = 2 * sum(symbol_capacity(self.bin_allocation, self.system))
            return -(-self.min_bits // bits_per_frame)
        return self.trials

    def to_dict(self) -> dict:
        """JSON form: the input with every default filled in (the
        ``scenario`` block of the output manifests)."""
        return to_json(self)


def _check(errors, condition, message):
    if not condition:
        errors.append(message)
    return condition


def _mib(nbytes: int) -> int:
    """Whole MiB, rounded up, so a size over a bound never reads as the bound."""
    return -(-nbytes // 2 ** 20)


def _check_name(errors, name):
    """The name becomes a directory under the output root: one plain component."""
    _check(errors,
           name not in ("", ".", "..") and not any(c in name for c in ("/", "\\", "\0")),
           f"name: {name!r} must be a non-empty string other than '.' and '..' "
           "without a path separator or NUL")


def _check_unaliased(errors, kind: str, targets, cfg: SystemConfig):
    """A radar frame's targets and velocity draws must lie in the coarse
    stage's unambiguous intervals: delay in [0, M) bins (range below
    range_max_m) and Doppler in the signed [-N/2, N/2) bins (|velocity| below
    velocity_max_mps / 2), or be scored against a truth the frame cannot show."""
    if KINDS[kind].draw is None:
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
    if KINDS[kind].velocities is not None:
        lo, hi = KINDS[kind].velocities
        # the uniform draws stay below the top end
        _check(errors, -v_lim <= lo and hi <= v_lim,
               f"experiment_kind: {kind} draws velocities in [{lo:g}, {hi:g}) "
               f"m/s, outside {unambiguous}")


def _check_allocation(errors, scenario: Scenario):
    """At most one bin form, a diagonal count up to n_tx, distinct bins of
    existing antennas inside the grid, at least one private bin for a kind
    that refines by SSR, and reduced transforms within bound."""
    spec, cfg = scenario.allocation, scenario.system
    count = spec.diagonal_private_bins
    if spec.private_bins is not None and count is not None:
        errors.append("allocation: give private_bins or diagonal_private_bins, not both")
        return
    # checked before the bin list is built, so a huge count costs nothing
    if not _check(errors, count is None or count <= cfg.n_tx,
                  f"allocation.diagonal_private_bins: expected an integer in "
                  f"[0, {cfg.n_tx}] (n_tx), got {count!r}"):
        return
    try:
        alloc = scenario.bin_allocation
    except OtfsIsacError as exc:    # an antenna out of range or a bin given twice
        errors.append(f"allocation: {exc}")
        return
    private, kind = alloc.private_bin_list(), scenario.experiment_kind
    _check(errors, private or KINDS[kind].boxes is None,
           f"allocation: {kind} forms its virtual array from the private bins "
           f"and needs at least one")
    for ant, (n, m) in private:
        if not (n < cfg.n_doppler and m < cfg.m_delay):
            errors.append(f"allocation: bin {(n, m)} outside "
                          f"{cfg.n_doppler}x{cfg.m_delay} grid")
    n_zeroed = sum(len(z) for z in alloc.zero_bins)
    transform_bytes = cfg.n_doppler * cfg.m_delay * n_zeroed * 16
    _check(errors, transform_bytes <= MAX_REDUCED_TRANSFORM_BYTES,
           f"system: a {cfg.n_doppler}x{cfg.m_delay} grid with {n_zeroed} "
           f"zero-forced bins needs {_mib(transform_bytes)} MiB of reduced "
           f"transforms, over the {MAX_REDUCED_TRANSFORM_BYTES // 2 ** 20} MiB bound")


def _check_estimator(errors, scenario: Scenario):
    """What the counts allocate within bound, search boxes of whole steps and
    at most ``COLUMN_CAP`` SSR columns, and one peak per angle for a kind that
    pairs one peak with each target."""
    est, n_rx, kind = scenario.estimator, scenario.system.n_rx, scenario.experiment_kind
    # bytes per unit of the counts that size what a run allocates and keeps
    for key, unit_bytes, array in (
            ("dft_pad_factor", 16 * n_rx, "angle spectrum"),
            ("n_solvers", SOLVER_RECORD_BYTES + 48 * max(1, len(scenario.targets)),
             "SSR solver state")):
        value = getattr(est, key)
        _check(errors, value * unit_bytes <= MAX_GRID_STACK_BYTES,
               f"estimator.{key}: {value} needs {_mib(value * unit_bytes)} "
               f"MiB of {array}, over the {MAX_GRID_STACK_BYTES // 2 ** 20} MiB bound")
    # the superset columns that averaged_ssr caps: one lattice per search box
    # of the kind; a count can have hundreds of digits
    columns = KINDS[kind].n_boxes(scenario)
    box_keys = []
    for f in fields(EstimatorSettings):
        if "_step_" in f.name:
            width_key = f.name.replace("_step_", "_width_")
            box_keys += [f.name, width_key]
            try:
                columns *= AxisSpec(0.0, getattr(est, f.name),
                                    getattr(est, width_key)).n_superset
            except ValueError as exc:
                errors.append(f"estimator.{width_key}: {exc}")
                columns = 0
    _check(errors, columns <= COLUMN_CAP,
           f"estimator.{'/'.join(box_keys)}: the {kind} search boxes hold "
           f"{columns if columns < 10 ** 12 else 'over 10^12'} superset columns, "
           f"over COLUMN_CAP = {COLUMN_CAP}")
    _check(errors, not KINDS[kind].one_peak or est.peaks_per_angle == 1,
           f"estimator.peaks_per_angle: {kind} pairs one estimate with each "
           f"target and needs 1, got {est.peaks_per_angle}")


def scenario_from_dict(raw: dict, name: str | None = None) -> Scenario:
    """Build and validate a Scenario; raises ConfigValidationError.

    ``name`` names a scenario whose ``raw`` has no name of its own.
    """
    if name is not None and isinstance(raw, dict):
        raw = {"name": name, **raw}
    errors: list[str] = []
    scenario = from_json(Scenario, raw, "", errors)
    if errors:
        raise ConfigValidationError(errors)

    cfg, kind = scenario.system, scenario.experiment_kind
    _check_name(errors, scenario.name)
    _check(errors, scenario.snr_db_values, "snr_db_values: expected a non-empty list")
    n_paths = len(scenario.targets) if KINDS[kind].comm_link else 0
    stack_bytes = cfg.n_doppler * cfg.m_delay * 16 * max(
        cfg.n_rx, cfg.n_comm_rx * cfg.n_tx, cfg.n_tx * (cfg.n_tx + 1), n_paths)
    counts = f"n_tx={cfg.n_tx}, n_rx={cfg.n_rx}, n_comm_rx={cfg.n_comm_rx}"
    counts += f" and {n_paths} targets (path grids)" if n_paths else ""
    if not _check(errors, stack_bytes <= MAX_GRID_STACK_BYTES,
                  f"system: a {cfg.n_doppler}x{cfg.m_delay} grid with {counts} needs "
                  f"{_mib(stack_bytes)} MiB per grid stack, over the "
                  f"{MAX_GRID_STACK_BYTES // 2 ** 20} MiB bound"):
        # stop here: the allocation builds n_tx per-antenna sets
        raise ConfigValidationError(errors)
    _check_allocation(errors, scenario)
    _check_estimator(errors, scenario)
    fewest, most = KINDS[kind].targets
    _check(errors, fewest <= len(scenario.targets) <= most,
           f"targets: {kind} takes {fewest} to {most} targets, got {len(scenario.targets)}")
    _check_unaliased(errors, kind, scenario.paths, cfg)
    _check(errors, not KINDS[kind].comm_link or not any(
        undefined_noiseless_ber(cfg, snr_db) for snr_db in scenario.snr_db_values),
           f"snr_db_values: inf (no noise) needs n_comm_rx >= n_tx for {kind}, got "
           f"n_comm_rx={cfg.n_comm_rx} and n_tx={cfg.n_tx}: without noise the "
           f"LMMSE is singular and the bit errors depend on the solver")
    if errors:
        raise ConfigValidationError(errors)

    # checked before the reduced transforms are built, and without
    # formatting the counts, which can be too long for str()
    n_snrs = len(scenario.snr_db_values)
    if n_snrs * scenario.trials_per_snr() > MAX_TRIAL_CELLS:
        # a kind of one trial per SNR reaches the bound by its SNR count alone
        field = KINDS[kind].trials or "trials"
        raise ConfigValidationError([
            f"{field}: the run would make more than {MAX_TRIAL_CELLS} "
            f"(SNR, trial) cells for {n_snrs} SNR value(s)"])
    try:
        modified_sfft(scenario.bin_allocation, cfg)     # also warms the cache for the run
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
        # JSONDecodeError, and the plain ValueError of an integer literal
        # longer than the interpreter's digit limit
        except ValueError as exc:
            raise ConfigValidationError([f"invalid JSON: {exc}"])
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return scenario_from_dict(raw, name=stem)
