"""Property-based tests: transform round trips, stacked transforms and the
transmit chain against their one-grid-at-a-time oracles, reduced-transform
recovery, the TF-domain coarse chain against its DD route, scenario
validation on fuzzed input, and the command line run end to end on tiny
fuzzed scenarios and on the shipped scenarios at the edges of every bound.

Examples are derandomized, so every run checks the same inputs.
"""

import contextlib
import copy
import glob
import io
import json
import math
import os
import types
import typing
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from otfs_isac.allocation import make_allocation
from otfs_isac.cli import main
from otfs_isac.coarse import coarse_pipeline
from otfs_isac.comm import (modified_sfft, recover_and_demap, symbol_capacity,
                            transmit_chain)
from otfs_isac.config import SystemConfig
from otfs_isac.exceptions import (ConfigValidationError, OtfsIsacError,
                                  SingularReducedMatrix)
from otfs_isac.experiments import KINDS
from otfs_isac.scenario import EstimatorSettings, Scenario, scenario_from_dict
from otfs_isac.schema import FINITE
from otfs_isac.transforms import isfft, sfft
from otfs_isac.virtual_array import RATIO_RTOL
from oracles import (dd_route_coarse_pipeline, grid_isfft, grid_sfft, per_grid,
                     serial_transmit_chain)

PROPERTY = settings(derandomize=True, database=None, max_examples=50, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


@PROPERTY
@given(n=st.integers(1, 8), m=st.integers(1, 8), seed=SEEDS)
def test_isfft_sfft_round_trip(n, m, seed):
    rng = np.random.default_rng(seed)
    dd = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    np.testing.assert_allclose(sfft(isfft(dd)), dd, atol=1e-12)
    np.testing.assert_allclose(isfft(sfft(dd)), dd, atol=1e-12)


@PROPERTY
@given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       n=st.sampled_from([1, 3, 4, 16, 64]), m=st.sampled_from([1, 5, 16, 32, 128]),
       seed=SEEDS)
def test_stacked_transforms_equal_per_grid_loop(lead, n, m, seed):
    """Shapes (k, N, M) and (a, b, N, M) transform as one call, bit for bit."""
    rng = np.random.default_rng(seed)
    shape = (*lead, n, m)
    grids = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    np.testing.assert_array_equal(isfft(grids), per_grid(grid_isfft, grids))
    np.testing.assert_array_equal(sfft(grids), per_grid(grid_sfft, grids))


@st.composite
def allocations(draw):
    """A grid up to 8x8, 1-4 antennas and distinct private bins with owners."""
    n, m, n_tx = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    bins = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                         min_size=1, max_size=min(n * m, 8), unique=True))
    owners = draw(st.lists(st.integers(0, n_tx - 1), min_size=len(bins),
                           max_size=len(bins)))
    return (SystemConfig(n_doppler=n, m_delay=m, n_tx=n_tx),
            make_allocation(n_tx, list(zip(owners, bins))))


@PROPERTY
@given(case=allocations(), seed=SEEDS)
def test_modified_sfft_recovers_transmitted_bits(case, seed):
    cfg, alloc = case
    try:
        modified_sfft(alloc, cfg)
    except SingularReducedMatrix:
        return
    bits = np.random.default_rng(seed).integers(
        0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    *_, tf = transmit_chain(bits, alloc, cfg)
    np.testing.assert_array_equal(recover_and_demap(tf, alloc, cfg), bits)


@PROPERTY
@given(case=allocations(), seed=SEEDS)
def test_transmit_chain_equals_per_antenna_oracle(case, seed):
    cfg, alloc = case
    bits = np.random.default_rng(seed).integers(
        0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, x, tf = transmit_chain(bits, alloc, cfg)
    want_dd, want_tf = serial_transmit_chain(bits, alloc, cfg)
    np.testing.assert_array_equal(dd, want_dd)
    np.testing.assert_array_equal(tf, want_tf)
    np.testing.assert_array_equal(x, isfft(dd))


@PROPERTY
@given(n_rx=st.integers(2, 5), n_tx=st.integers(1, 3), n=st.integers(1, 6),
       m=st.integers(1, 6), n_angles=st.integers(1, 3), peaks=st.integers(1, 3),
       pad=st.integers(1, 4), seed=SEEDS)
def test_coarse_pipeline_equals_dd_route_on_tiny_stacks(n_rx, n_tx, n, m, n_angles,
                                                        peaks, pad, seed):
    """Random TF receive and DD transmit stacks: the TF-domain coarse chain
    finds the DD route's estimates, or raises the same error."""
    rng = np.random.default_rng(seed)
    rx_tf, tx_dd = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    for shape in ((n_rx, n, m), (n_tx, n, m)))
    cfg = SystemConfig(n_doppler=n, m_delay=m, n_tx=n_tx, n_rx=n_rx)
    try:
        want = dd_route_coarse_pipeline(rx_tf, tx_dd, cfg, n_angles, peaks, pad)
    except OtfsIsacError as exc:
        with pytest.raises(type(exc)):
            coarse_pipeline(rx_tf, isfft(tx_dd), cfg, n_angles, peaks, pad)
        return
    got = coarse_pipeline(rx_tf, isfft(tx_dd), cfg, n_angles, peaks, pad)
    assert [(e.angle_rad, e.doppler_index % n, e.delay_index) for e in got] \
        == [w[:3] for w in want]
    np.testing.assert_allclose([e.peak_strength for e in got], [w[3] for w in want],
                               rtol=1e-12)


VALID_RAW = {
    "name": "fuzz",
    "experiment_kind": "dd-correlation",
    "system": {"n_doppler": 8, "m_delay": 16, "n_tx": 2, "n_rx": 8},
    "targets": [{"angle_deg": 5.0, "range_m": 50.0, "velocity_mps": 10.0}],
    "allocation": {"diagonal_private_bins": 2},
    "trials": 3,
    "snr_db_values": [10.0],
    "seed": 1,
}
_FULL = scenario_from_dict(VALID_RAW).to_dict()
# every slot of a scenario file as a key path; an allocation holds one key
SLOTS = ([(key,) for key in _FULL]
         + [("system", key) for key in _FULL["system"]]
         + [("estimator", key) for key in EstimatorSettings.__dataclass_fields__]
         + [("allocation", "private_bins"), ("allocation", "diagonal_private_bins")]
         + [("targets", 0, key) for key in _FULL["targets"][0]])
JSON_KEYS = (st.sampled_from(sorted({s[-1] for s in SLOTS if s[-1] != 0}))
             | st.text(max_size=4))
# small magnitudes only, so that no fuzzed grid or bin count allocates much
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 300) | st.floats(-1e3, 1e3)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(JSON_KEYS, inner, max_size=3)),
    max_leaves=6)


@settings(PROPERTY, max_examples=300)
@given(path=st.sampled_from(SLOTS), value=JSON_VALUES)
def test_scenario_from_dict_fuzzed_slot_raises_only_validation_error(path, value):
    raw = json.loads(json.dumps(VALID_RAW))
    if path[0] == "allocation":
        raw["allocation"] = {}
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    try:
        scenario_from_dict(raw)
    except ConfigValidationError:
        pass


BOX_AXES = (("angle", "deg"), ("doppler", "bins"), ("delay", "bins"))


@st.composite
def knife_edge_boxes(draw):
    """One axis whose width lies within 4 ulps of k steps times
    (1 +- RATIO_RTOL), where the whole-number check rounds either way and the
    file's degrees and bins can disagree with the run's rad, Hz and s."""
    axis, unit = draw(st.sampled_from(BOX_AXES))
    step = draw(st.sampled_from([0.05, 0.1, 0.3, 0.7, 1.0]))
    width = (draw(st.sampled_from([2, 4, 10, 20])) * step
             * (1 + draw(st.sampled_from([1, -1])) * RATIO_RTOL))
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        width = math.nextafter(width, math.copysign(math.inf, ulps))
    return {f"{axis}_step_{unit}": step, f"{axis}_width_{unit}": width}


# Estimator search boxes: the default, a small one, one far over COLUMN_CAP,
# one whose angle width is not a whole number of steps, and knife-edge ones.
# Repeats weight the draws toward valid scenarios, so that most of them
# still run.
SMALL_BOX = {f"{axis}_{key}_{unit}": value
             for axis, unit in BOX_AXES for key, value in (("step", 0.5), ("width", 1.0))}
SEARCH_BOXES = st.sampled_from([{}, {}, {}, SMALL_BOX, SMALL_BOX,
                                {"angle_step_deg": 1e-6}, {"angle_width_deg": 3.5}]
                               ) | knife_edge_boxes()
PEAKS_PER_ANGLE = st.sampled_from([1, 1, 1, 2, 3])


@st.composite
def tiny_scenarios(draw, kind):
    """A scenario of this kind on a grid up to 6x6 with up to 3 transmit,
    4 radar receive and 3 comm receive antennas; its diagonal private bins
    may fall outside the grid. The targets lie inside the default grid's
    unambiguous range (1249 m) and velocity (+-370.9 m/s). A kind that refines
    SSR search boxes or takes one peak per angle (``experiments.KINDS``)
    also draws the search boxes and ``peaks_per_angle``. A kind that refines
    SSR search boxes mostly draws private bins inside the grid and a target
    count it takes, so that most of its draws reach the run; the rest may
    miss either."""
    n_tx = draw(st.integers(1, 3))
    target = st.fixed_dictionaries({"angle_deg": st.floats(-80.0, 80.0),
                                    "range_m": st.floats(0.0, 1240.0),
                                    "velocity_mps": st.floats(-370.0, 370.0)})
    estimator = {"n_solvers": draw(st.integers(1, 4))}
    if KINDS[kind].boxes is not None or KINDS[kind].one_peak:
        estimator.update(draw(SEARCH_BOXES), peaks_per_angle=draw(PEAKS_PER_ANGLE))
    system = {"n_doppler": draw(st.integers(1, 6)), "m_delay": draw(st.integers(1, 6)),
              "n_tx": n_tx, "n_rx": draw(st.integers(1, 4)),
              "n_comm_rx": draw(st.integers(1, 3))}
    bins, targets = st.integers(0, n_tx), st.lists(target, max_size=3)
    if KINDS[kind].boxes is not None and draw(st.sampled_from([True] * 4 + [False])):
        fewest, most = KINDS[kind].targets
        bins = st.integers(1, min(n_tx, system["n_doppler"], system["m_delay"]))
        targets = st.lists(target, min_size=fewest, max_size=min(most, 3))
    return {
        "name": "fuzz",
        "experiment_kind": kind,
        "system": system,
        "targets": draw(targets),
        "allocation": {"diagonal_private_bins": draw(bins)},
        "estimator": estimator,
        "snr_db_values": draw(st.lists(st.sampled_from([-10.0, 10.0, 40.0, math.inf]),
                                       min_size=1, max_size=2)),
        "seed": draw(st.integers(0, 1000)),
    }


@PROPERTY
@given(raw=st.sampled_from(list(KINDS)).flatmap(tiny_scenarios))
def test_to_dict_round_trips_on_tiny_scenarios(raw):
    """A valid scenario's JSON form reads back as an equal scenario."""
    try:
        sc = scenario_from_dict(raw)
    except ConfigValidationError:
        return
    assert scenario_from_dict(json.loads(json.dumps(sc.to_dict()))) == sc


def run_cli(argv):
    """(exit code, stderr) of one in-process ``otfs-isac`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    """Exit 0, or exactly one JSON error line that is not an internal error."""
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert json.loads(lines[0])["error"] != "internal-error", err


CLI_PROPERTY = settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("kind", KINDS)
@settings(CLI_PROPERTY, max_examples=25)
@given(data=st.data())
def test_cli_runs_or_fails_cleanly_on_tiny_scenarios(tmp_path, kind, data):
    raw = data.draw(tiny_scenarios(kind))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    code, err = run_cli(["validate-config", "--scenario", str(path)])
    assert_clean_exit(code, err)
    if code == 0:
        assert_clean_exit(*run_cli(["simulate", "--scenario", str(path), "--trials", "1",
                                    "--out", str(tmp_path / "out")]))


@settings(CLI_PROPERTY, max_examples=5)
@given(raw=st.sampled_from([k for k in KINDS if k != "demo-spectrum"])
       .flatmap(tiny_scenarios))
def test_cli_parallel_run_equals_serial_on_tiny_scenarios(tmp_path, raw):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    outputs = []
    for parallel in ("1", "2"):
        out = tmp_path / f"parallel-{parallel}"
        code, _ = run_cli(["simulate", "--scenario", str(path), "--trials", "2",
                           "--parallel", parallel, "--out", str(out)])
        assume(code == 0)
        outputs.append((out / "fuzz" / "trials.csv").read_bytes())
    assert outputs[0] == outputs[1]


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def bound_edges(kind, bound) -> list:
    """Every choice of a string ``bound``; else the value at each end of a
    number's bound (an infinite end as +-10**18 or +-1e300, an open end as
    the nearest float inside) and its one extra value."""
    if isinstance(bound, tuple):
        return list(bound)
    interval, _, extra = (bound or FINITE).partition(" or ")
    ends = [float(end) for end in interval[1:-1].split(",")]
    values = []
    for end, other, closed in zip(ends, ends[::-1], (interval[0] == "[", interval[-1] == "]")):
        if math.isinf(end):
            big = 10 ** 18 if kind is int else 1e300
            values.append(big if end > 0 else -big)
        else:
            values.append(kind(end) if closed else float(np.nextafter(end, other)))
    return values + ([float(extra)] if extra else [])


def edge_cases(cls=Scenario, path=()):
    """(key path, value) for each edge of each checked field of the scenario
    schema: a list gets a one-item list, and a list of objects is entered
    (its key stands for every item)."""
    for f in fields(cls):
        kind = typing.get_type_hints(cls)[f.name]
        if typing.get_origin(kind) is types.UnionType:
            kind = typing.get_args(kind)[0]
        item = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else None
        bound = f.metadata.get("bound")
        if is_dataclass(kind) or is_dataclass(item):
            yield from edge_cases(item or kind, path + (f.name,))
        elif kind is str:
            yield from ((path + (f.name,), v) for v in bound or ())
        elif item is None:
            yield from ((path + (f.name,), v) for v in bound_edges(kind, bound))
        elif item is float:
            yield from ((path + (f.name,), [v]) for v in bound_edges(float, bound))
        else:    # private_bins: [antenna, [n, m]] pairs
            yield from ((path + (f.name,), [[v, [v, v]]]) for v in bound_edges(int, bound))


@pytest.mark.parametrize("scenario_file", sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json"))),
                         ids=os.path.basename)
def test_cli_runs_or_fails_cleanly_at_every_bound_edge(tmp_path, scenario_file):
    """A shipped scenario with one field of the schema at an edge of its
    bound runs, or fails with one documented JSON error, and writes nothing
    else to stderr, no warning either. An allocation field replaces the whole
    allocation, and a target field is set on every listed target."""
    with open(scenario_file) as fh:
        shipped = json.load(fh)
    path = tmp_path / "scenario.json"
    for keys, value in edge_cases():
        raw = copy.deepcopy(shipped)
        if keys[0] == "allocation":
            raw["allocation"] = {}
        node = raw
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        if node == []:    # no listed target to set
            continue
        for item in node if isinstance(node, list) else [node]:
            item[keys[-1]] = value
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = run_cli(["simulate", "--scenario", str(path), "--trials", "1",
                                 "--out", str(tmp_path / "out")])
        # stderr holds nothing on success and one JSON error line otherwise
        assert len(err.splitlines()) == (code != 0), (keys, value, err)
        if code:
            assert json.loads(err)["error"] != "internal-error", (keys, value, err)
