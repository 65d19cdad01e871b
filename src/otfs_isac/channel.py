"""Multi-target MIMO channel applied in the TF domain.

The channel acts multiplicatively on each TF sample (exact under the
bi-orthogonal pulse assumption), which supports arbitrary fractional delay
and Doppler without a time-domain simulation.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig, Target
from .crlb import snr_linear

# Samples per standard-normal call of a noise draw (256 KiB of float64).
_NOISE_CHUNK = 1 << 15


def tf_channel_grid(target: Target, cfg: SystemConfig) -> np.ndarray:
    """Single-path TF channel coefficients on the (N, M) grid, array factor
    excluded: H[n, m] = beta e^{-j2pi nu tau} e^{j2pi (nu n T - m df tau)}."""
    nu, tau = target.doppler_hz, target.delay_s
    dt, df = cfg.symbol_duration_s, cfg.subcarrier_spacing_hz
    time_phase = np.exp(2j * np.pi * nu * dt * np.arange(cfg.n_doppler))
    freq_phase = np.exp(-2j * np.pi * df * tau * np.arange(cfg.m_delay))
    return target.gain * np.exp(-2j * np.pi * nu * tau) * np.outer(time_phase, freq_phase)


def tx_array_phase(target_angle_rad: float, n_tx: int, cfg: SystemConfig) -> np.ndarray:
    """exp(-j2pi n_t g_t sin(phi)/lambda) over transmit antennas."""
    s = np.sin(target_angle_rad) * cfg.g_t / cfg.wavelength_m
    return np.exp(-2j * np.pi * s * np.arange(n_tx))


def rx_array_phase(target_angle_rad: float, n_rx: int, cfg: SystemConfig) -> np.ndarray:
    """exp(+j2pi n_r g_r sin(phi)/lambda) over receive antennas."""
    s = np.sin(target_angle_rad) * cfg.g_r / cfg.wavelength_m
    return np.exp(2j * np.pi * s * np.arange(n_rx))


def radar_receive(tx_tf, targets, cfg: SystemConfig, snr_db: float | None = None,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Monostatic receive TF grids, one per receive antenna.

    Y_{n_r}[n,m] = sum_j sum_{n_t} e^{j2pi(n_r g_r - n_t g_t) sin(phi_j)/lambda}
    X_{n_t}[n,m] H^j[n,m], plus circular Gaussian noise of variance
    :func:`receiver_noise_variance` drawn in line from ``rng`` after the
    echo, ``y += complex_noise(...)``, when ``snr_db`` is set and finite.
    Each antenna's grid adds the J targets' terms in target order while it
    is in cache, with no (N_r, N, M) temporary.
    """
    tx = np.asarray(tx_tf, dtype=complex)
    shape = (cfg.n_rx,) + tx.shape[1:]
    noise_var = receiver_noise_variance(snr_db, cfg)
    # (J, N, M) grids sum_{n_t} e^{-j2pi n_t g_t sin(phi_j)/lambda} X_{n_t} H^j
    combined = np.empty((len(targets),) + tx.shape[1:], dtype=complex)
    a_r = np.empty((cfg.n_rx, len(targets)), dtype=complex)
    for j, tgt in enumerate(targets):
        a_t = tx_array_phase(tgt.angle_rad, tx.shape[0], cfg)
        a_r[:, j] = rx_array_phase(tgt.angle_rad, cfg.n_rx, cfg)
        np.multiply(np.tensordot(a_t, tx, axes=1), tf_channel_grid(tgt, cfg),
                    out=combined[j])
    y = np.zeros(shape, dtype=complex)
    term = np.empty(tx.shape[1:], dtype=complex)
    for y_r, a_rj in zip(y, a_r):
        for a, grid in zip(a_rj, combined):
            y_r += np.multiply(a, grid, out=term)
    if noise_var:
        y += complex_noise(shape, noise_var, rng)
    return y


def receiver_noise_variance(snr_db: float | None, cfg: SystemConfig) -> float:
    """Per-sample variance of the white TF noise of a radar receive stack;
    0 when ``snr_db`` is None or infinite. Raises ValueError outside
    ``crlb.SNR_DB_BOUND``.

    SNR is defined per DD-domain sample against unit-power symbols
    (N0 = P_avg / 10^(snr/10)). The unit-scale DD demodulation sums NM TF
    samples, so white TF noise of variance N0/NM lands in the DD domain
    with variance exactly N0.
    """
    if snr_db is None:
        return 0.0
    return noise_variance(snr_db) / (cfg.n_doppler * cfg.m_delay)


def noise_variance(snr_db: float) -> float:
    """Per-sample complex noise variance for the given SNR, unit signal power:
    1 / snr_linear, 0 for an infinite SNR. Raises ValueError outside
    ``crlb.SNR_DB_BOUND``."""
    return 1.0 / snr_linear(snr_db)


def _draw_noise(noise: np.ndarray, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """Fill the complex array ``noise`` with circular Gaussian noise of
    variance ``noise_var`` and return it: standard-normal draws of all the
    real parts in turn, then of all the imaginary parts, scaled by
    sqrt(noise_var / 2). The draws go through a buffer of _NOISE_CHUNK
    samples; consecutive draws give the values of one draw of their total
    length. numpy's generators fill arrays with the GIL released, so a draw
    on another thread runs beside the caller's numpy work."""
    scale = np.sqrt(noise_var / 2.0)
    flat = noise.reshape(-1)
    chunk = np.empty(max(1, min(_NOISE_CHUNK, flat.size)))
    for part in (flat.real, flat.imag):
        for start in range(0, flat.size, chunk.size):
            out = chunk[:flat.size - start]
            rng.standard_normal(out=out)
            out *= scale
            part[start:start + out.size] = out
    return noise


def complex_noise(shape, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. circular complex Gaussian noise of variance ``noise_var``.

    The real parts are drawn first, then the imaginary parts, each scaled by
    sqrt(noise_var / 2): the same values as sqrt(noise_var / 2) * (a + 1j * b).
    """
    return _draw_noise(np.empty(shape, dtype=complex), noise_var, rng)

