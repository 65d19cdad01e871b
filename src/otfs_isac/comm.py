"""End-to-end communication chain: mapping, equalization, recovery, BER."""

from __future__ import annotations

import numpy as np

from .allocation import BinAllocation, zero_force
from .channel import add_noise, tf_channel_grid
from .config import SystemConfig, Target, substream, unit_phases
from .exceptions import BitCountMismatch
from .transforms import build_modified_sfft, isfft, place_symbols, sfft

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def qpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-power QPSK; two bits per symbol."""
    bits = np.asarray(bits, dtype=int).ravel()
    if bits.size % 2:
        raise BitCountMismatch("QPSK needs an even number of bits")
    pairs = bits.reshape(-1, 2)
    return ((1 - 2 * pairs[:, 0]) + 1j * (1 - 2 * pairs[:, 1])) * _INV_SQRT2


def qpsk_demodulate(symbols: np.ndarray) -> np.ndarray:
    """Hard-decision nearest-point demapping to bits."""
    symbols = np.asarray(symbols, dtype=complex).ravel()
    bits = np.empty((symbols.size, 2), dtype=int)
    bits[:, 0] = symbols.real < 0
    bits[:, 1] = symbols.imag < 0
    return bits.ravel()


def symbol_capacity(alloc: BinAllocation, cfg: SystemConfig):
    """Information symbols each antenna can carry per frame."""
    nm = cfg.n_doppler * cfg.m_delay
    return [nm - len(e) for e in alloc.empty_dd_bins]


def transmit_chain(bits: np.ndarray, alloc: BinAllocation, cfg: SystemConfig):
    """Map bits to per-antenna DD grids, transform, and zero-force.

    Returns (dd_grids, tf_grids) of shape (N_t, N, M); tf_grids carry exact
    zeros at each antenna's zero set. Bit count must match the allocation's
    total symbol capacity at 2 bits/symbol.
    """
    bits = np.asarray(bits, dtype=int).ravel()
    caps = symbol_capacity(alloc, cfg)
    if bits.size != 2 * sum(caps):
        raise BitCountMismatch(f"expected {2 * sum(caps)} bits, got {bits.size}")
    n, m = cfg.n_doppler, cfg.m_delay
    dd = np.empty((alloc.n_tx, n, m), dtype=complex)
    tf = np.empty_like(dd)
    start = 0
    for i in range(alloc.n_tx):
        symbols = qpsk_modulate(bits[start:start + 2 * caps[i]])
        start += 2 * caps[i]
        dd[i] = place_symbols(symbols, n, m, alloc.empty_dd_bins[i])
        tf[i] = zero_force(isfft(dd[i]), alloc, i)
    return dd, tf


def modified_sffts(alloc: BinAllocation, cfg: SystemConfig):
    """Per-antenna reduced inverse transforms for this allocation."""
    return [build_modified_sfft(cfg.n_doppler, cfg.m_delay,
                                alloc.zero_bins[i], alloc.empty_dd_bins[i])
            for i in range(alloc.n_tx)]


def recover_and_demap(equalized_dd: np.ndarray, alloc: BinAllocation,
                      cfg: SystemConfig, msffts=None) -> np.ndarray:
    """Information bits from the equalized per-antenna DD grids.

    Each grid is taken back to the TF domain, the zero-forced samples are
    dropped, and the reduced inverse transform yields the information
    symbols, which are then hard-demapped.
    """
    equalized_dd = np.asarray(equalized_dd, dtype=complex)
    if msffts is None:
        msffts = modified_sffts(alloc, cfg)
    bits = []
    for i in range(alloc.n_tx):
        symbols = msffts[i].recover(isfft(equalized_dd[i]))
        bits.append(qpsk_demodulate(symbols))
    return np.concatenate(bits)


def random_pair_gains(n_paths: int, cfg: SystemConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """Unit-magnitude complex gains, shape (N_c, N_t, n_paths)."""
    return unit_phases(rng, (cfg.n_comm_rx, cfg.n_tx, n_paths))


def tf_block_channel(paths, cfg: SystemConfig, pair_gains: np.ndarray) -> np.ndarray:
    """Per-TF-bin MIMO coefficient matrices B[n, m] of shape (N_c, N_t).

    Because every path acts multiplicatively on TF samples, the stacked DD
    channel is block-diagonalized by the (unitary up to scale) DD<->TF
    transforms; B[n, m] = sum_paths gains[:, :, path] * h_path_tf[n, m].
    """
    b = np.zeros((cfg.n_doppler, cfg.m_delay, cfg.n_comm_rx, cfg.n_tx),
                 dtype=complex)
    for j, path in enumerate(paths):
        unit = Target(path.angle_rad, path.delay_s, path.doppler_hz, 1.0 + 0.0j)
        h_tf = tf_channel_grid(unit, cfg)
        b += h_tf[:, :, None, None] * (path.gain * pair_gains[None, None, :, :, j])
    return b


def lmmse_equalize_tf(y_dd: np.ndarray, blocks: np.ndarray,
                      noise_var: float) -> np.ndarray:
    """LMMSE equalization done per TF bin; exactly equals the stacked solve.

    The stacked channel H factors as (unitary) * blockdiag(B[n,m]) * (unitary)
    with the same scale on both sides, so (H^H H + s I)^{-1} H^H y reduces to
    NM independent small solves on the TF-domain receive grids. ``y_dd`` has
    shape (N_c, N, M); returns equalized DD grids of shape (N_t, N, M).
    """
    n_c, n, m = y_dd.shape
    y_tf = np.stack([isfft(g) for g in y_dd])          # (N_c, N, M)
    b = blocks.reshape(n * m, n_c, -1)                 # (NM, N_c, N_t)
    n_t = b.shape[2]
    gram = np.einsum("bca,bcd->bad", b.conj(), b)      # (NM, N_t, N_t)
    gram[:, np.arange(n_t), np.arange(n_t)] += noise_var
    rhs = np.einsum("bca,bc->ba", b.conj(), y_tf.reshape(n_c, -1).T)
    x_tf = np.linalg.solve(gram, rhs[..., None])[..., 0]   # (NM, N_t)
    x_tf = x_tf.T.reshape(n_t, n, m)
    return np.stack([sfft(g) for g in x_tf])


def ber_frame(cfg: SystemConfig, alloc: BinAllocation, paths, snr_db: float,
              seed: int, frame_index: int = 0, msffts=None) -> tuple[int, int]:
    """One Monte Carlo communication frame; returns (bit_errors, bit_count).

    The receiver is given the true channel. The noise variance is
    N0 = P_avg / 10^(snr_db/10) per DD receive sample with unit-power
    constellations (P_avg = 1). Channel application and equalization run in
    the per-TF-bin factored form, which equals the stacked DD-operator route
    exactly.
    """
    rng_bits = substream(seed, frame_index, 0)
    rng_chan = substream(seed, frame_index, 1)
    rng_noise = substream(seed, frame_index, 2)
    caps = symbol_capacity(alloc, cfg)
    bits = rng_bits.integers(0, 2, size=2 * sum(caps))
    dd, _ = transmit_chain(bits, alloc, cfg)
    gains = random_pair_gains(len(paths), cfg, rng_chan)
    blocks = tf_block_channel(paths, cfg, gains)
    x_tf = np.stack([isfft(g) for g in dd])
    y = np.stack([sfft(g)
                  for g in np.einsum("nmca,anm->cnm", blocks, x_tf)])
    if np.isinf(snr_db):
        noise_var = 1e-12
    else:
        noise_var = 10.0 ** (-snr_db / 10.0)
        y = add_noise(y, noise_var, rng_noise)
    x_hat = lmmse_equalize_tf(y, blocks, noise_var)
    decoded = recover_and_demap(x_hat, alloc, cfg, msffts=msffts)
    return int(np.count_nonzero(decoded != bits)), bits.size
