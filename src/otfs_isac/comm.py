"""End-to-end communication chain: mapping, equalization, recovery, BER."""

from __future__ import annotations

import functools
import math

import numpy as np

from .allocation import BinAllocation, zero_force
from .channel import complex_noise, noise_variance, tf_channel_grid
from .config import SystemConfig, substream, unit_phases
from .exceptions import BitCountMismatch
from .transforms import ModifiedSfft, build_modified_sfft, isfft

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# Distinct (allocation, grid) pairs whose reduced transforms stay cached.
_MSFFT_CACHE_SIZE = 16


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
    return [nm - len(z) for z in alloc.zero_bins]


def dd_frame(bits: np.ndarray, alloc: BinAllocation, cfg: SystemConfig) -> np.ndarray:
    """Map bits to the per-antenna DD grids, shape (N_t, N, M).

    Bit count must match the allocation's total symbol capacity at 2
    bits/symbol. The symbols fill the DD grids antenna by antenna, each
    row-major, skipping the empty DD bins, which stay 0.
    """
    bits = np.asarray(bits, dtype=int).ravel()
    caps = symbol_capacity(alloc, cfg)
    if bits.size != 2 * sum(caps):
        raise BitCountMismatch(f"expected {2 * sum(caps)} bits, got {bits.size}")
    empty = alloc.zero_mask(cfg.n_doppler, cfg.m_delay)
    dd = np.zeros(empty.shape, dtype=complex)
    dd[~empty] = qpsk_modulate(bits)
    return dd


def transmit_chain(bits: np.ndarray, alloc: BinAllocation, cfg: SystemConfig):
    """The radar frame: :func:`dd_frame`, one ISFFT, and zero-forcing.

    Returns (dd_grids, tf_grids) of shape (N_t, N, M); tf_grids carry exact
    zeros at each antenna's zero set.
    """
    dd = dd_frame(bits, alloc, cfg)
    return dd, zero_force(isfft(dd), alloc)


@functools.lru_cache(maxsize=_MSFFT_CACHE_SIZE)
def _modified_sfft(alloc: BinAllocation, n: int, m: int) -> ModifiedSfft:
    return build_modified_sfft(n, m, alloc.zero_bins)


def modified_sfft(alloc: BinAllocation, cfg: SystemConfig) -> ModifiedSfft:
    """The reduced inverse transform of this allocation's (N_t, N, M) stack,
    built once per (allocation, grid) in each process and shared, with
    read-only arrays."""
    return _modified_sfft(alloc, cfg.n_doppler, cfg.m_delay)


def recover_and_demap(tf: np.ndarray, alloc: BinAllocation,
                      cfg: SystemConfig) -> np.ndarray:
    """Information bits from the per-antenna TF grids, shape (N_t, N, M).

    The zero-forced samples are dropped, and the reduced inverse transform
    yields the information symbols, which are then hard-demapped: the
    inverse of :func:`transmit_chain`'s TF output.
    """
    return qpsk_demodulate(modified_sfft(alloc, cfg).recover(tf))


def random_pair_gains(n_paths: int, cfg: SystemConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """Unit-magnitude complex gains, shape (N_c, N_t, n_paths)."""
    return unit_phases(rng, (cfg.n_comm_rx, cfg.n_tx, n_paths))


def tf_block_channel(paths, cfg: SystemConfig, pair_gains: np.ndarray) -> np.ndarray:
    """Per-TF-bin MIMO coefficients B[c, a, n, m], shape (N_c, N_t, N, M).

    Because every path acts multiplicatively on TF samples, the stacked DD
    channel is block-diagonalized by the (unitary up to scale) DD<->TF
    transforms; the (N_c, N_t) matrix of bin (n, m) is B[:, :, n, m] =
    sum_paths gains[:, :, path] * h_path_tf[n, m], one (N_c N_t x J) @
    (J x NM) product over the paths' TF grids. Those grids are built once
    per (paths, config) and kept, read-only, until another pair asks.
    """
    h_tf = _path_tf_grids(tuple(paths), cfg)
    gains = pair_gains.reshape(cfg.n_comm_rx * cfg.n_tx, len(h_tf))
    return (gains @ h_tf).reshape(cfg.n_comm_rx, cfg.n_tx, cfg.n_doppler, cfg.m_delay)


# One entry: a run serves one (paths, config), and a validated scenario's
# grids take up to MAX_GRID_STACK_BYTES (256 MiB).
@functools.lru_cache(maxsize=1)
def _path_tf_grids(paths: tuple, cfg: SystemConfig) -> np.ndarray:
    """The paths' flattened TF grids, shape (J, N M), read-only."""
    h_tf = np.empty((len(paths), cfg.n_doppler * cfg.m_delay), dtype=complex)
    for j, path in enumerate(paths):
        h_tf[j] = tf_channel_grid(path, cfg).ravel()
    h_tf.flags.writeable = False
    return h_tf


def _solve_hermitian(system: np.ndarray) -> np.ndarray:
    """Solve A[:, :, i] @ x[:, i] = b[:, i] for every column i at once.

    ``system`` is a (K, K + 1, L) stack of augmented matrices [A | b] whose
    A is Hermitian positive definite; only its upper triangle is read, and
    ``system`` is overwritten. Gaussian elimination without pivoting, which
    is stable on such matrices, runs as whole-stack array operations with
    the real pivots D of A = L D L^H. Returns x, shape (K, L).
    """
    k_dim = system.shape[0]
    for k in range(k_dim):
        factors = system[k, k + 1:k_dim].conj()          # D[k] * column k of L
        # row k becomes row k of L^H, and its last entry (D^-1 L^-1 b)[k]
        system[k, k + 1:] *= 1.0 / system[k, k].real
        system[k + 1:, k + 1:] -= factors[:, None] * system[k, k + 1:]
    x = system[:, k_dim]
    for k in range(k_dim - 1, 0, -1):
        x[:k] -= system[:k, k] * x[k]
    return x


def lmmse_equalize_tf(y_tf: np.ndarray, blocks: np.ndarray,
                      noise_var: float) -> np.ndarray:
    """LMMSE equalization done per TF bin; exactly equals the stacked solve.

    The stacked DD channel H factors as (unitary) * blockdiag(B[n,m]) *
    (unitary) with the same scale on both sides, so (H^H H + s I)^{-1} H^H y
    reduces to NM independent small solves on the TF receive grids. ``y_tf``
    has shape (N_c, N, M) and ``blocks`` (N_c, N_t, N, M); returns the TF
    estimates of shape (N_t, N, M). The Gram matrices B^H B + s I are
    Hermitian positive definite for s > 0, so every bin is solved at once by
    :func:`_solve_hermitian`.
    """
    n_c, n_t, n, m = blocks.shape
    b = blocks.reshape(n_c, n_t, n * m)
    b_h = b.conj()
    # per bin [B^H B + s I | B^H y], upper triangle summed over the receivers
    system = np.zeros((n_t, n_t + 1, n * m), dtype=complex)
    for i in range(n_t):
        system[i, i:n_t] = np.sum(b_h[:, i, None] * b[:, i:], axis=0)
    system[np.arange(n_t), np.arange(n_t)] += noise_var
    system[:, n_t] = np.sum(b_h * y_tf.reshape(n_c, 1, n * m), axis=0)
    return _solve_hermitian(system).reshape(n_t, n, m)


def undefined_noiseless_ber(cfg: SystemConfig, snr_db: float) -> bool:
    """Whether the link has no bit error count of its own at ``snr_db``.

    Without noise the LMMSE is regularized by N0 = 1e-12 only. With fewer
    comm receivers than transmitters every TF bin's Gram matrix is then
    singular up to that regularizer, the null-space part of each estimate
    is rounding amplified about 1e12 times, and the bit errors depend on
    the linear solver rather than on the link.
    """
    return snr_db == math.inf and cfg.n_comm_rx < cfg.n_tx


def ber_frame(cfg: SystemConfig, alloc: BinAllocation, paths, snr_db: float,
              seed: int, frame_index: int = 0) -> tuple[int, int]:
    """One Monte Carlo communication frame; returns (bit_errors, bit_count).

    The receiver is given the true channel. The noise variance is
    N0 = P_avg / 10^(snr_db/10) per DD receive sample with unit-power
    constellations (P_avg = 1); it is drawn in the DD domain and carried to
    TF once. Channel, equalization and recovery all run on TF grids, which
    equals the stacked DD-operator route exactly. The frame is built once
    (:func:`dd_frame`, one zero-mask build) and transformed once: a noisy
    frame runs two ISFFTs, a noise-free one a single ISFFT. The paths' TF
    grids and the reduced transforms are cached per run. Raises
    ValueError where the bit errors are not the link's
    (:func:`undefined_noiseless_ber`).
    """
    if undefined_noiseless_ber(cfg, snr_db):
        raise ValueError(f"no noise-free BER with n_comm_rx={cfg.n_comm_rx} < "
                         f"n_tx={cfg.n_tx}: the LMMSE is singular without noise")
    rng_bits = substream(seed, frame_index, 0)
    rng_chan = substream(seed, frame_index, 1)
    rng_noise = substream(seed, frame_index, 2)
    caps = symbol_capacity(alloc, cfg)
    bits = rng_bits.integers(0, 2, size=2 * sum(caps))
    # The link sends isfft(dd), not the zero-forced radar frame of
    # transmit_chain. Sending that changes the bit errors of every recorded
    # run, so it waits for the next change of the random streams.
    x = isfft(dd_frame(bits, alloc, cfg))
    gains = random_pair_gains(len(paths), cfg, rng_chan)
    blocks = tf_block_channel(paths, cfg, gains)
    # y[:, n, m] = B[:, :, n, m] @ x[:, n, m] for every TF bin at once
    y = np.sum(blocks * x, axis=1)                                    # (N_c, N, M)
    if snr_db == math.inf:
        noise_var = 1e-12    # no noise is added; only regularizes the LMMSE solve
    else:
        noise_var = noise_variance(snr_db)
        y += isfft(complex_noise(y.shape, noise_var, rng_noise))
    x_hat = lmmse_equalize_tf(y, blocks, noise_var)
    decoded = recover_and_demap(x_hat, alloc, cfg)
    return int(np.count_nonzero(decoded != bits)), bits.size
