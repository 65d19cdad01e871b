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
from dataclasses import dataclass
from functools import cached_property

from .allocation import BinAllocation, diagonal_allocation, make_allocation
from .coarse import DEFAULT_PAD_FACTOR, resolution_report
from .comm import modified_sfft, symbol_capacity, undefined_noiseless_ber
from .config import VELOCITY_BOUND_MPS, SystemConfig, Target
from .crlb import SNR_DB_BOUND
from .exceptions import ConfigValidationError, OtfsIsacError
from .experiments import KINDS
from .schema import COUNT, NON_NEGATIVE, POSITIVE, from_json, param, to_json
from .virtual_array import (COLUMN_CAP, DEFAULT_N_SOLVERS, DEFAULT_SWEEPS, AxisSpec,
                            NeighborhoodSpec, _box_axes, _ssr_table_bytes)

# Bound on the bytes of each array that ``_check_sizes`` counts: the largest
# per-frame grid stack, the reduced transforms, the coarse angle spectrum, the
# SSR solver records and the SSR scoring arrays. The shipped 64x128
# scenarios need at most 8 MiB of any of them.
MAX_ARRAY_BYTES = 256 * 2 ** 20
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
        except for a kind of one trial per SNR.

        Raises ConfigValidationError, naming the field or ``trials`` for an
        override, when the run would make more than ``MAX_TRIAL_CELLS``
        (SNR, trial) cells.
        """
        field = KINDS[self.experiment_kind].trials
        if field is None:
            count = 1
        elif trials is not None:
            count = trials
        elif field == "min_bits":
            bits_per_frame = 2 * sum(symbol_capacity(self.bin_allocation, self.system))
            count = -(-self.min_bits // bits_per_frame)
        else:
            count = self.trials
        # compared without formatting the count, which can be too long for str()
        n_snrs = len(self.snr_db_values)
        if n_snrs * count > MAX_TRIAL_CELLS:
            # a kind of one trial per SNR reaches the bound by its SNR count alone
            name = field if field is not None and trials is None else "trials"
            raise ConfigValidationError([
                f"{name}: the run would make more than {MAX_TRIAL_CELLS} "
                f"(SNR, trial) cells for {n_snrs} SNR value(s)"])
        return count

    def to_dict(self) -> dict:
        """JSON form: the input with every default filled in (the
        ``scenario`` block of the output manifests)."""
        return to_json(self)


def _check(errors, condition, message):
    if not condition:
        errors.append(message)
    return condition


def _mib(nbytes: int) -> str:
    """Whole MiB, rounded up, so a size over a bound never reads as the bound;
    past 10^12, which str() may not be able to write, 'over 10^12'."""
    mib = -(-nbytes // 2 ** 20)
    return str(mib) if mib <= 10 ** 12 else "over 10^12"


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


def _search_box(errors, scenario: Scenario) -> NeighborhoodSpec | None:
    """The search box the run builds, centred at 0: the checks do not depend
    on the centre. None, with one error per invalid axis, where it cannot be
    built."""
    axes = []
    for key, (step, width) in _box_axes(scenario.system, scenario.estimator).items():
        try:
            axes.append(AxisSpec(0.0, step, width))
        except ValueError as exc:
            errors.append(f"estimator.{key}: {exc}, in the run's rad, Hz or s")
    return NeighborhoodSpec(*axes) if len(axes) == 3 else None


def _check_sizes(scenario: Scenario) -> list:
    """An error for each array of the run over ``MAX_ARRAY_BYTES``, counted
    from the fields before anything is built. A frame's largest grid stack
    holds N*M complex values per radar receive antenna, comm channel block,
    row of the LMMSE systems [Gram | rhs] or target of a radar frame or comm
    link; no other array of a frame is larger. Each SSR solver keeps a record
    and 48 B per target, its 3 window starts and 3 point values."""
    cfg, est, kind = scenario.system, scenario.estimator, KINDS[scenario.experiment_kind]
    bins, count = scenario.allocation.private_bins, scenario.allocation.diagonal_private_bins
    n_private = (len(bins) if bins is not None
                 else min(cfg.n_tx, cfg.n_tx if count is None else count))
    n_paths = len(scenario.targets) if kind.draw is not None or kind.comm_link else 0
    grid, nm = f"a {cfg.n_doppler}x{cfg.m_delay} grid with", cfg.n_doppler * cfg.m_delay
    counts = f"n_tx={cfg.n_tx}, n_rx={cfg.n_rx}, n_comm_rx={cfg.n_comm_rx}"
    counts += f" and {n_paths} targets" if n_paths else ""
    rows = [("system", f"{grid} {counts}", "per grid stack", 16 * nm * max(
                cfg.n_rx, cfg.n_comm_rx * cfg.n_tx, cfg.n_tx * (cfg.n_tx + 1), n_paths)),
            ("allocation", f"{grid} {n_private} private bins of n_tx={cfg.n_tx} antennas",
             "of reduced transforms", 16 * nm * n_private * (cfg.n_tx - 1)),
            ("estimator.dft_pad_factor", est.dft_pad_factor, "of angle spectrum",
             16 * est.dft_pad_factor * cfg.n_rx),
            ("estimator.n_solvers", est.n_solvers, "of SSR solver state",
             est.n_solvers * (SOLVER_RECORD_BYTES + 48 * max(1, len(scenario.targets))))]
    box = _search_box([], scenario) if kind.boxes is not None else None
    n_boxes = kind.n_boxes(scenario)
    # _check_estimator reports an invalid box and boxes over COLUMN_CAP
    if box is not None and n_boxes * box.n_columns <= COLUMN_CAP:
        rows.append(("allocation", f"{n_private} private bins", "of SSR scoring arrays",
                     _ssr_table_bytes(box, n_boxes, n_private, cfg.n_rx, est.n_solvers)))
    return [f"{field}: {what} needs {_mib(nbytes)} MiB {array}, over the "
            f"{MAX_ARRAY_BYTES // 2 ** 20} MiB bound"
            for field, what, array, nbytes in rows if nbytes > MAX_ARRAY_BYTES]


def _check_allocation(errors, scenario: Scenario):
    """At most one bin form, a diagonal count up to n_tx, distinct bins of
    existing antennas inside the grid, and at least one private bin for a
    kind that refines by SSR."""
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


def _check_estimator(errors, scenario: Scenario):
    """Search boxes the run can build with at most ``COLUMN_CAP`` SSR
    columns, one peak per angle for a kind that pairs one peak with each
    target, and more receive antennas than angles for the demo, whose coarse
    stage has no failure rows."""
    est, n_rx, kind = scenario.estimator, scenario.system.n_rx, scenario.experiment_kind
    box = _search_box(errors, scenario)
    if box is not None:
        # the columns that averaged_ssr caps; a count can have hundreds of digits
        columns = KINDS[kind].n_boxes(scenario) * box.n_columns
        _check(errors, columns <= COLUMN_CAP,
               f"estimator.angle_step_deg/angle_width_deg/doppler_step_bins/"
               f"doppler_width_bins/delay_step_bins/delay_width_bins: the {kind} "
               f"search boxes hold {columns if columns < 10 ** 12 else 'over 10^12'} "
               f"superset columns, over COLUMN_CAP = {COLUMN_CAP}")
    _check(errors, not KINDS[kind].one_peak or est.peaks_per_angle == 1,
           f"estimator.peaks_per_angle: {kind} pairs one estimate with each "
           f"target and needs 1, got {est.peaks_per_angle}")
    n_angles = est.n_angles or 1
    _check(errors, kind != "demo-spectrum" or n_rx > n_angles,
           f"system.n_rx: demo-spectrum looks for {n_angles} angle(s) and needs "
           f"more receive antennas, got {n_rx}")


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
    sizes = _check_sizes(scenario)
    if sizes:
        # stop here: the allocation builds n_tx per-antenna sets
        raise ConfigValidationError(errors + sizes)
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

    scenario.trials_per_snr()     # the run-length bound, checked before the reduced transforms
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
        # JSONDecodeError, the plain ValueError of an integer literal longer
        # than the interpreter's digit limit, and the RecursionError of
        # arrays or objects nested past the interpreter's recursion limit
        except (ValueError, RecursionError) as exc:
            raise ConfigValidationError([f"invalid JSON: {exc}"])
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return scenario_from_dict(raw, name=stem)
