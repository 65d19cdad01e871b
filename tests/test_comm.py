"""Communication chain: mapping, equalization factorization, BER."""

import numpy as np
import pytest

from otfs_isac.allocation import diagonal_allocation, make_allocation
from otfs_isac.comm import (ber_frame, lmmse_equalize_tf, qpsk_demodulate,
                            qpsk_modulate, random_pair_gains,
                            recover_and_demap, symbol_capacity,
                            tf_block_channel, transmit_chain)
from otfs_isac.config import SystemConfig, Target, substream
from otfs_isac.exceptions import BitCountMismatch, DimensionMismatch
from otfs_isac.transforms import isfft, sfft
from oracles import lmmse_equalize


def small_cfg(**kw):
    base = dict(n_doppler=4, m_delay=8, n_tx=3, n_rx=4, n_comm_rx=5)
    base.update(kw)
    return SystemConfig(**base)


def on_grid_paths(cfg):
    return [Target(0.0, l * cfg.delay_spacing_s, k * cfg.doppler_spacing_hz)
            for k, l in [(0, 0), (1, 2), (3, 5)]]


def test_qpsk_round_trip():
    rng = np.random.default_rng(30)
    bits = rng.integers(0, 2, size=128)
    symbols = qpsk_modulate(bits)
    np.testing.assert_allclose(np.abs(symbols), 1.0, atol=1e-12)
    np.testing.assert_array_equal(qpsk_demodulate(symbols), bits)
    with pytest.raises(BitCountMismatch):
        qpsk_modulate(np.zeros(3))


def test_symbol_capacity_and_bit_count():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    caps = symbol_capacity(alloc, cfg)
    assert caps == [30, 30, 30]   # NM=32 minus |Z_i|=2 per antenna
    with pytest.raises(BitCountMismatch):
        transmit_chain(np.zeros(10), alloc, cfg)


def test_transmit_chain_zero_forcing():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, tf = transmit_chain(bits, alloc, cfg)
    for i in range(cfg.n_tx):
        for (n, m) in alloc.zero_bins[i]:
            assert tf[i, n, m] == 0.0
        for (k, l) in alloc.empty_dd_bins[i]:
            assert dd[i, k, l] == 0.0
        # own private bin carries signal
        (n, m) = next(iter(alloc.private_bins[i]))
        assert abs(tf[i, n, m]) > 1e-6


def test_recover_inverts_transmit_noiseless():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    rng = np.random.default_rng(32)
    bits = rng.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, _ = transmit_chain(bits, alloc, cfg)
    np.testing.assert_array_equal(recover_and_demap(dd, alloc, cfg), bits)


def test_lmmse_equalize_matches_normal_equations():
    rng = np.random.default_rng(33)
    h = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    sigma2 = 0.3
    expected = np.linalg.inv(h.conj().T @ h + sigma2 * np.eye(6)) @ h.conj().T @ y
    np.testing.assert_allclose(lmmse_equalize(y, h, sigma2), expected, atol=1e-10)
    with pytest.raises(DimensionMismatch):
        lmmse_equalize(y[:5], h, sigma2)


def stacked_channel_from_blocks(blocks, cfg):
    """Explicit stacked DD channel built column by column from the TF blocks."""
    nm = cfg.n_doppler * cfg.m_delay
    h = np.empty((cfg.n_comm_rx * nm, cfg.n_tx * nm), dtype=complex)
    for nt in range(cfg.n_tx):
        for j in range(nm):
            dd = np.zeros((cfg.n_tx, cfg.n_doppler, cfg.m_delay), dtype=complex)
            dd[nt].ravel()[j] = 1.0
            x_tf = np.stack([isfft(g) for g in dd])
            y = np.stack([sfft(g)
                          for g in np.einsum("nmca,anm->cnm", blocks, x_tf)])
            h[:, nt * nm + j] = y.reshape(-1)
    return h


def test_lmmse_tf_factorization_equals_stacked_solve():
    cfg = small_cfg()
    paths = [Target(0.0, 0.6e-7, 1234.5), Target(0.0, 2.3e-7, -3456.7)]
    rng = np.random.default_rng(34)
    gains = random_pair_gains(len(paths), cfg, rng)
    blocks = tf_block_channel(paths, cfg, gains)
    h = stacked_channel_from_blocks(blocks, cfg)
    y = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    sigma2 = 0.2
    stacked = lmmse_equalize(y, h, sigma2)
    factored = lmmse_equalize_tf(
        y.reshape(cfg.n_comm_rx, cfg.n_doppler, cfg.m_delay), blocks, sigma2)
    np.testing.assert_allclose(factored.reshape(-1), stacked, atol=1e-10)


def test_random_pair_gains_shape_and_magnitude():
    cfg = small_cfg()
    gains = random_pair_gains(3, cfg, np.random.default_rng(35))
    assert gains.shape == (cfg.n_comm_rx, cfg.n_tx, 3)
    np.testing.assert_allclose(np.abs(gains), 1.0, atol=1e-12)


def test_ber_frame_noiseless_zero_errors():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    errors, bits = ber_frame(cfg, alloc, on_grid_paths(cfg), np.inf, seed=1)
    assert errors == 0
    assert bits == 2 * sum(symbol_capacity(alloc, cfg))


def test_ber_frame_deterministic():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    a = ber_frame(cfg, alloc, on_grid_paths(cfg), 5.0, seed=7, frame_index=2)
    b = ber_frame(cfg, alloc, on_grid_paths(cfg), 5.0, seed=7, frame_index=2)
    c = ber_frame(cfg, alloc, on_grid_paths(cfg), 5.0, seed=7, frame_index=3)
    assert a == b
    assert a != c


def test_ber_frame_non_diagonal_allocation():
    cfg = small_cfg(n_tx=2)
    alloc = make_allocation(2, [(0, (0, 3)), (1, (2, 6))])
    errors, _ = ber_frame(cfg, alloc, on_grid_paths(cfg), np.inf, seed=2)
    assert errors == 0
