"""Transforms: round trips, direct-sum oracles, and the reduced inverse."""

import numpy as np
import pytest

from otfs_isac.exceptions import DimensionMismatch, SingularReducedMatrix
from otfs_isac.transforms import build_modified_sfft, isfft, sfft
from oracles import isfft_matrix


def direct_isfft(dd):
    """O(N^2 M^2) reference implementation of the forward transform."""
    n, m = dd.shape
    out = np.zeros((n, m), dtype=complex)
    for nn in range(n):
        for mm in range(m):
            acc = 0.0 + 0.0j
            for k in range(n):
                for l in range(m):
                    acc += dd[k, l] * np.exp(2j * np.pi * (k * nn / n - mm * l / m))
            out[nn, mm] = acc / (n * m)
    return out


def direct_sfft(tf):
    """O(N^2 M^2) reference implementation of the unit-scale inverse."""
    n, m = tf.shape
    out = np.zeros((n, m), dtype=complex)
    for k in range(n):
        for l in range(m):
            acc = 0.0 + 0.0j
            for nn in range(n):
                for mm in range(m):
                    acc += tf[nn, mm] * np.exp(-2j * np.pi * (k * nn / n - mm * l / m))
            out[k, l] = acc
    return out


@pytest.mark.parametrize("n,m", [(2, 2), (3, 5), (4, 8), (8, 8)])
def test_isfft_matches_direct_sum(n, m):
    rng = np.random.default_rng(1)
    dd = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    assert np.max(np.abs(isfft(dd) - direct_isfft(dd))) <= 1e-10


@pytest.mark.parametrize("n,m", [(2, 2), (3, 5), (8, 8)])
def test_sfft_matches_direct_sum(n, m):
    rng = np.random.default_rng(2)
    tf = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    assert np.max(np.abs(sfft(tf) - direct_sfft(tf))) <= 1e-10


@pytest.mark.parametrize("n,m", [(2, 2), (3, 5), (8, 8), (16, 16)])
def test_round_trip(n, m):
    rng = np.random.default_rng(3)
    dd = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    assert np.max(np.abs(sfft(isfft(dd)) - dd)) <= 1e-10
    tf = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    assert np.max(np.abs(isfft(sfft(tf)) - tf)) <= 1e-10


def test_isfft_matrix_matches_function():
    rng = np.random.default_rng(5)
    n, m = 4, 6
    dd = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    g = isfft_matrix(n, m)
    np.testing.assert_allclose((g @ dd.ravel()).reshape(n, m), isfft(dd),
                               atol=1e-12)


def test_non_2d_input_rejected():
    with pytest.raises(DimensionMismatch):
        isfft(np.zeros(8))
    with pytest.raises(DimensionMismatch):
        sfft(np.zeros(8))
    # a stack of grids transforms grid by grid over its last two axes
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((2, 3, 4, 8)) + 1j * rng.standard_normal((2, 3, 4, 8))
    out = sfft(stack)
    assert out.shape == stack.shape
    np.testing.assert_array_equal(out[1, 2], sfft(stack[1, 2]))
    np.testing.assert_array_equal(isfft(stack)[0, 1], isfft(stack[0, 1]))


def one_grid_mask(n, m, zeroed):
    """The (1, n, m) zero mask of one grid, True at the ``zeroed`` bins."""
    empty = np.zeros((1, n, m), dtype=bool)
    for (a, b) in zeroed:
        empty[0, a, b] = True
    return empty


def dd_with_empty_bins(symbols, empty):
    """A DD grid holding ``symbols`` row-major, zero at the empty bins."""
    dd = np.zeros(empty.shape[1:], dtype=complex)
    dd[~empty[0]] = symbols
    return dd


def test_modified_sfft_recovers_symbols():
    rng = np.random.default_rng(6)
    n, m = 8, 8
    empty = one_grid_mask(n, m, [(0, 0), (1, 3), (5, 2)])
    msfft = build_modified_sfft(empty)
    n_info = n * m - 3
    symbols = rng.standard_normal(n_info) + 1j * rng.standard_normal(n_info)
    tf = isfft(dd_with_empty_bins(symbols, empty))
    tf[empty[0]] = 0.0
    np.testing.assert_allclose(msfft.recover(tf[None]), symbols, atol=1e-10)


def test_modified_sfft_agrees_with_explicit_operator():
    rng = np.random.default_rng(7)
    n, m = 4, 8
    empty = one_grid_mask(n, m, [(3, 2), (2, 4)])
    msfft = build_modified_sfft(empty)
    n_info = n * m - 2
    symbols = rng.standard_normal(n_info) + 1j * rng.standard_normal(n_info)
    tf = isfft(dd_with_empty_bins(symbols, empty))
    tf[empty[0]] = 0.0
    # the zeroed TF rows and the empty DD columns share linear indices
    keep = ~empty[0].ravel()
    reduced_obs = tf.ravel()[keep]
    operator = np.linalg.inv(isfft_matrix(n, m)[np.ix_(keep, keep)])
    np.testing.assert_allclose(operator @ reduced_obs, symbols, atol=1e-10)
    np.testing.assert_allclose(msfft.recover(tf[None]), symbols, atol=1e-10)


def test_modified_sfft_trivial_empty_sets():
    msfft = build_modified_sfft(np.zeros((1, 4, 4), dtype=bool))
    rng = np.random.default_rng(8)
    dd = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(msfft.recover(isfft(dd)[None]), dd.ravel(), atol=1e-10)


def test_singular_bin_choice_rejected():
    # Zeroing (0,0) and (4,0) on an 8x8 grid gives an all-ones 2x2 reduced
    # block.
    with pytest.raises(SingularReducedMatrix,
                       match=r"^reduced transform is rank deficient for "
                             r"zeroed=\[\(0, 0\), \(4, 0\)\]$"):
        build_modified_sfft(one_grid_mask(8, 8, [(4, 0), (0, 0)]))


def test_mask_that_is_not_3d_rejected():
    # bins outside the grid are the allocation's zero_mask check
    for shape in [(4, 4), (4,), (1, 1, 4, 4)]:
        with pytest.raises(DimensionMismatch):
            build_modified_sfft(np.zeros(shape, dtype=bool))


def test_mask_is_copied_and_kept_read_only():
    empty = one_grid_mask(4, 4, [(1, 2)])
    msfft = build_modified_sfft(empty)
    empty[0, 0, 0] = True
    assert msfft._empty.sum() == 1 and not msfft._empty.flags.writeable
    assert msfft._index[0].tolist() == [6]
