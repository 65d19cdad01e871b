"""Multi-target MIMO channel applied in the TF domain.

The channel acts multiplicatively on each TF sample (exact under the
bi-orthogonal pulse assumption), which supports arbitrary fractional delay
and Doppler without a time-domain simulation.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig, Target


def tf_channel_coeff(target: Target, n: int, m: int, cfg: SystemConfig) -> complex:
    """Single-path TF channel coefficient at bin (n, m), array factor excluded."""
    nu, tau = target.doppler_hz, target.delay_s
    dt, df = cfg.symbol_duration_s, cfg.subcarrier_spacing_hz
    return (target.gain * np.exp(-2j * np.pi * nu * tau)
            * np.exp(2j * np.pi * (nu * n * dt - m * df * tau)))


def tf_channel_grid(target: Target, cfg: SystemConfig) -> np.ndarray:
    """Full (N, M) grid of :func:`tf_channel_coeff` values."""
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
    if snr_db is not None and not np.isinf(snr_db):
        # SNR is defined per DD-domain sample against unit-power symbols
        # (N0 = P_avg / 10^(snr/10)). The unit-scale DD demodulation sums NM
        # TF samples, so white TF noise of variance N0/NM lands in the DD
        # domain with variance exactly N0.
        y = add_noise(y, noise_variance(snr_db) / (cfg.n_doppler * cfg.m_delay), rng)
    return y


def noise_variance(snr_db: float) -> float:
    """Per-sample complex noise variance for the given SNR, unit signal power."""
    if np.isinf(snr_db):
        return 0.0
    return 1.0 / 10.0 ** (snr_db / 10.0)


def add_noise(grids, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. circular complex Gaussian noise of variance ``noise_var``."""
    grids = np.asarray(grids, dtype=complex)
    return grids + np.sqrt(noise_var / 2.0) * (rng.standard_normal(grids.shape)
                                               + 1j * rng.standard_normal(grids.shape))
