"""Private-bin allocation bookkeeping and rate accounting."""

import numpy as np
import pytest

from otfs_isac.allocation import (diagonal_allocation, make_allocation,
                                  rate_accounting, zero_force)
from otfs_isac.exceptions import AntennaOutOfRange, DuplicatePrivateBin


def test_diagonal_allocation_structure():
    alloc = diagonal_allocation(4)
    assert alloc.n_tx == 4
    assert alloc.n_private_total == 4
    for i in range(4):
        assert alloc.private_bins[i] == frozenset({(i, i)})
        # each antenna zero-forces everyone else's private bins
        assert alloc.zero_bins[i] == frozenset((j, j) for j in range(4) if j != i)
        # the default empty DD set mirrors the zero set
        assert alloc.empty_dd_bins[i] == alloc.zero_bins[i]


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
    tf = np.ones((4, 4), dtype=complex)
    out = zero_force(tf, alloc, 0)
    assert out[1, 1] == 0 and out[2, 2] == 0
    assert out[0, 0] == 1  # own private bin untouched
    assert tf[1, 1] == 1   # input not modified
    with pytest.raises(AntennaOutOfRange):
        zero_force(tf, alloc, 3)


def test_rate_accounting():
    alloc = diagonal_allocation(4)
    acc = rate_accounting(alloc, 64, 128, bits_per_symbol=2,
                          subcarrier_spacing_hz=120e3)
    assert acc["symbols_lost"] == 12
    assert acc["symbols_total"] == 4 * 64 * 128 - 12
    assert acc["loss_fraction"] == 12 / 32768
    assert acc["rate_loss_bits_per_s"] == 12 * 2 * 120e3
    assert acc["rate_loss_bits_per_s_per_private_bin"] == 3 * 2 * 120e3
