"""Multi-target MIMO channel applied in the TF domain.

The channel acts multiplicatively on each TF sample (exact under the
bi-orthogonal pulse assumption), which supports arbitrary fractional delay
and Doppler without a time-domain simulation.
"""

from __future__ import annotations

import math

import numpy as np

from .config import SystemConfig, Target
from .crlb import snr_linear


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
    X_{n_t}[n,m] H^j[n,m], plus circular Gaussian noise drawn from ``rng``
    when ``snr_db`` is set and finite.
    """
    tx = np.asarray(tx_tf, dtype=complex)
    n_tx = tx.shape[0]
    y = np.zeros((cfg.n_rx,) + tx.shape[1:], dtype=complex)
    for tgt in targets:
        a_t = tx_array_phase(tgt.angle_rad, n_tx, cfg)
        a_r = rx_array_phase(tgt.angle_rad, cfg.n_rx, cfg)
        combined = np.tensordot(a_t, tx, axes=1) * tf_channel_grid(tgt, cfg)
        y += a_r[:, None, None] * combined
    if snr_db is not None and snr_db != math.inf:
        # SNR is defined per DD-domain sample against unit-power symbols
        # (N0 = P_avg / 10^(snr/10)). The unit-scale DD demodulation sums NM
        # TF samples, so white TF noise of variance N0/NM lands in the DD
        # domain with variance exactly N0.
        tf_noise_var = noise_variance(snr_db) / (cfg.n_doppler * cfg.m_delay)
        y = y + complex_noise(y.shape, tf_noise_var, rng)
    return y


def noise_variance(snr_db: float) -> float:
    """Per-sample complex noise variance for the given SNR, unit signal power:
    1 / snr_linear, 0 for an infinite SNR. Raises ValueError outside
    ``crlb.SNR_DB_BOUND``."""
    return 1.0 / snr_linear(snr_db)


def complex_noise(shape, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. circular complex Gaussian noise of variance ``noise_var``.

    The real parts are drawn first, then the imaginary parts, each scaled by
    sqrt(noise_var / 2) straight into the returned array through one reused
    real buffer: the same values as sqrt(noise_var / 2) * (a + 1j * b).
    """
    scale = np.sqrt(noise_var / 2.0)
    noise = np.empty(shape, dtype=complex)
    draw = rng.standard_normal(shape)
    np.multiply(draw, scale, out=noise.real)
    rng.standard_normal(out=draw)
    np.multiply(draw, scale, out=noise.imag)
    return noise
