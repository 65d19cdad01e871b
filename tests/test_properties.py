"""Property-based tests: transform round trips, stacked transforms and the
transmit chain against their one-grid-at-a-time oracles, reduced-transform
recovery and scenario validation on fuzzed input.

Examples are derandomized, so every run checks the same inputs.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otfs_isac.allocation import make_allocation
from otfs_isac.comm import (modified_sffts, recover_and_demap, symbol_capacity,
                            transmit_chain)
from otfs_isac.config import SystemConfig
from otfs_isac.exceptions import ConfigValidationError, SingularReducedMatrix
from otfs_isac.scenario import EstimatorSettings, scenario_from_dict
from otfs_isac.transforms import isfft, sfft
from oracles import grid_isfft, grid_sfft, per_grid, serial_transmit_chain

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
        modified_sffts(alloc, cfg)
    except SingularReducedMatrix:
        return
    bits = np.random.default_rng(seed).integers(
        0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, _ = transmit_chain(bits, alloc, cfg)
    np.testing.assert_array_equal(recover_and_demap(dd, alloc, cfg), bits)


@PROPERTY
@given(case=allocations(), seed=SEEDS)
def test_transmit_chain_equals_per_antenna_oracle(case, seed):
    cfg, alloc = case
    bits = np.random.default_rng(seed).integers(
        0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, tf = transmit_chain(bits, alloc, cfg)
    want_dd, want_tf = serial_transmit_chain(bits, alloc, cfg)
    np.testing.assert_array_equal(dd, want_dd)
    np.testing.assert_array_equal(tf, want_tf)


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
