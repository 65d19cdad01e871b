"""Private-bin allocation bookkeeping and rate accounting."""

import numpy as np
import pytest

from otfs_isac.allocation import (diagonal_allocation, make_allocation,
                                  rate_accounting, zero_force)
from otfs_isac.exceptions import (AntennaOutOfRange, DimensionMismatch,
                                  DuplicatePrivateBin)


def test_diagonal_allocation_structure():
    alloc = diagonal_allocation(4)
    assert alloc.n_tx == 4
    assert alloc.n_private_total == 4
    for i in range(4):
        assert alloc.private_bins[i] == frozenset({(i, i)})
        # each antenna zero-forces everyone else's private bins
        assert alloc.zero_bins[i] == frozenset((j, j) for j in range(4) if j != i)


def test_diagonal_allocation_of_the_first_count_antennas():
    assert diagonal_allocation(4, 2) == make_allocation(4, [(0, (0, 0)), (1, (1, 1))])
    assert diagonal_allocation(4, 4) == diagonal_allocation(4)
    assert diagonal_allocation(3, 0).n_private_total == 0


def test_private_bin_list_order():
    alloc = make_allocation(2, [(1, (0, 3)), (0, (2, 1)), (1, (0, 1))])
    assert alloc.private_bin_list() == [(0, (2, 1)), (1, (0, 1)), (1, (0, 3))]


def test_duplicate_bin_rejected():
    with pytest.raises(DuplicatePrivateBin):
        make_allocation(2, [(0, (1, 1)), (1, (1, 1))])


def test_antenna_out_of_range():
    with pytest.raises(AntennaOutOfRange):
        make_allocation(2, [(2, (0, 0))])
    with pytest.raises(ValueError):
        make_allocation(0)


def test_zero_force():
    alloc = diagonal_allocation(3)
    tf = np.ones((3, 4, 4), dtype=complex)
    out = zero_force(tf, alloc)
    for ant in range(3):
        zeroed = {(a, b) for a in range(4) for b in range(4) if out[ant, a, b] == 0}
        assert zeroed == alloc.zero_bins[ant]  # own private bin untouched
    assert np.all(tf == 1)   # input not modified
    with pytest.raises(DimensionMismatch):
        zero_force(tf[:2], alloc)
    with pytest.raises(DimensionMismatch):
        zero_force(tf[0], alloc)


def test_zero_mask_rejects_bin_outside_grid():
    alloc = make_allocation(2, [(0, (0, 4)), (1, (1, 1))])
    assert alloc.zero_mask(4, 5)[1, 0, 4]
    with pytest.raises(DimensionMismatch):
        alloc.zero_mask(4, 4)


def test_rate_accounting():
    alloc = diagonal_allocation(4)
    acc = rate_accounting(alloc, 64, 128, bits_per_symbol=2,
                          subcarrier_spacing_hz=120e3)
    assert acc["symbols_lost"] == 12
    assert acc["symbols_total"] == 4 * 64 * 128 - 12
    assert acc["loss_fraction"] == 12 / 32768
    assert acc["rate_loss_bits_per_s"] == 12 * 2 * 120e3
    assert acc["rate_loss_bits_per_s_per_private_bin"] == 3 * 2 * 120e3
