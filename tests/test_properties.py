"""Property-based tests: transform round trips and reduced-transform recovery.

Examples are derandomized, so every run checks the same inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otfs_isac.allocation import make_allocation
from otfs_isac.comm import (modified_sffts, recover_and_demap, symbol_capacity,
                            transmit_chain)
from otfs_isac.config import SystemConfig
from otfs_isac.exceptions import SingularReducedMatrix
from otfs_isac.transforms import isfft, sfft

PROPERTY = settings(derandomize=True, database=None, max_examples=50, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


@PROPERTY
@given(n=st.integers(1, 8), m=st.integers(1, 8), seed=SEEDS)
def test_isfft_sfft_round_trip(n, m, seed):
    rng = np.random.default_rng(seed)
    dd = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    np.testing.assert_allclose(sfft(isfft(dd)), dd, atol=1e-12)
    np.testing.assert_allclose(isfft(sfft(dd)), dd, atol=1e-12)


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
