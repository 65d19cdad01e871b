"""Low-complexity coarse target estimation.

Angles come from the covariance-domain Bartlett spectrum: the zero-padded
DFT power across the receive array, averaged (non-coherently) over all DD
bins, computed as a length-K DFT of the lag sums of the N_r x N_r sample
covariance. Delay/Doppler indices then come from the peaks of a 2D circular
cross-correlation between the per-angle receive profile and a reference
profile built from the known transmit symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, SystemConfig
from .exceptions import (DimensionMismatch, IllConditionedSteering,
                         PeakSeparationFailure, TooManyTargets)

DEFAULT_PAD_FACTOR = 16
STEERING_COND_LIMIT = 1e8


@dataclass(frozen=True)
class CoarseEstimate:
    """One coarse target estimate in both index and physical units."""

    angle_rad: float
    doppler_index: int       # signed, in [-N/2, N/2)
    delay_index: int         # in [0, M)
    doppler_hz: float
    delay_s: float
    range_m: float
    velocity_mps: float
    peak_strength: float


def angle_to_spatial_freq(angle_rad, cfg: SystemConfig):
    """omega = 2pi g_r sin(phi) / lambda."""
    return 2.0 * np.pi * cfg.g_r * np.sin(angle_rad) / cfg.wavelength_m


def _circular_local_maxima_1d(power: np.ndarray) -> np.ndarray:
    left = np.roll(power, 1)
    right = np.roll(power, -1)
    return np.flatnonzero((power > left) & (power >= right))


def estimate_angles(rx_dd: np.ndarray, n_targets: int, cfg: SystemConfig,
                    pad_factor: int = DEFAULT_PAD_FACTOR, average: bool = True):
    """Estimate target angles from the per-bin receive-array snapshots.

    ``rx_dd`` has shape (N_r, N, M). With ``average`` the magnitude-squared
    spectra of all NM bins are averaged before peak picking; otherwise only
    bin (0, 0) is used. Returns (angles, omega_grid, averaged_power) with
    angles ordered by decreasing peak power.
    """
    rx = np.asarray(rx_dd, dtype=complex)
    n_rx = rx.shape[0]
    if n_targets >= n_rx:
        raise TooManyTargets(f"{n_targets} targets with only {n_rx} receive antennas")
    snapshots = rx.reshape(n_rx, -1)
    if not average:
        snapshots = snapshots[:, :1]
    k = pad_factor * n_rx
    # mean_s |sum_n x[n, s] e^{-j2pi q n / K}|^2 = sum_{n, n'} cov[n, n']
    # e^{-j2pi q (n - n') / K}: a length-K DFT of the covariance summed along
    # its diagonals, with lags folded mod K (exact for every K).
    cov = snapshots @ snapshots.conj().T / snapshots.shape[1]
    lag = np.subtract.outer(np.arange(n_rx), np.arange(n_rx)) % k
    r = np.zeros(k, dtype=complex)
    np.add.at(r, lag, cov)
    power = np.fft.fft(r).real
    omegas = 2.0 * np.pi * np.fft.fftfreq(k)
    sin_phi = omegas * cfg.wavelength_m / (2.0 * np.pi * cfg.g_r)
    valid = np.abs(sin_phi) <= 1.0

    candidates = _circular_local_maxima_1d(power)
    candidates = candidates[valid[candidates]]
    candidates = candidates[np.argsort(power[candidates])[::-1]]
    picked = []
    min_sep = pad_factor  # one unpadded DFT bin
    for idx in candidates:
        dist = np.abs(idx - np.asarray(picked, dtype=float))
        dist = np.minimum(dist, k - dist) if picked else dist
        if not picked or dist.min() >= min_sep:
            picked.append(int(idx))
        if len(picked) == n_targets:
            break
    if len(picked) < n_targets:
        raise PeakSeparationFailure(
            f"found {len(picked)} separated peaks, needed {n_targets}")
    angles = np.arcsin(sin_phi[picked])
    return angles, omegas, power


def extract_angle_profiles(rx_dd: np.ndarray, angles, cfg: SystemConfig) -> np.ndarray:
    """Least-squares per-angle complex profiles A_j[k, l].

    Solves, per DD bin, y_{n_r} = sum_j A_j e^{j n_r omega_j} over the
    steering matrix of the estimated angles. One thin SVD of that N_r x J
    matrix gives both the conditioning check and the pseudo-inverse applied
    to all bins. Shape (J, N, M).
    """
    rx = np.asarray(rx_dd, dtype=complex)
    n_rx, n, m = rx.shape
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size >= n_rx:
        raise TooManyTargets("need more receive antennas than angles")
    omegas = angle_to_spatial_freq(angles, cfg)
    steering = np.exp(1j * np.outer(np.arange(n_rx), omegas))
    u, sv, vh = np.linalg.svd(steering, full_matrices=False)
    if sv[0] > STEERING_COND_LIMIT * sv[-1]:
        raise IllConditionedSteering(
            "estimated angles too close for least-squares separation; "
            "virtual-array refinement required")
    profiles = (vh.conj().T / sv) @ (u.conj().T @ rx.reshape(n_rx, -1))
    return profiles.reshape(angles.size, n, m)


def reference_profile(tx_dd: np.ndarray, angle_rad: float, cfg: SystemConfig) -> np.ndarray:
    """Transmit-side profile sum_t e^{-j2pi n_t g_t sin(phi)/lambda} x_t[k, l]."""
    tx = np.asarray(tx_dd, dtype=complex)
    n_tx = tx.shape[0]
    phase = np.exp(-2j * np.pi * np.arange(n_tx) * cfg.g_t
                   * np.sin(angle_rad) / cfg.wavelength_m)
    return np.tensordot(phase, tx, axes=1)


def cross_correlation_2d(a: np.ndarray, a_ref: np.ndarray) -> np.ndarray:
    """Circular C[k,l] = sum_{k',l'} a[k',l'] conj(a_ref[k'-k, l'-l])."""
    if a.shape != a_ref.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {a_ref.shape}")
    return np.fft.ifft2(np.fft.fft2(a) * np.conj(np.fft.fft2(a_ref)))


def delay_doppler_peaks(a: np.ndarray, a_ref: np.ndarray, n_peaks: int):
    """Peaks of the 2D circular cross-correlation of ``a`` against ``a_ref``.

    Returns the ``n_peaks`` strongest local maxima as [(k, l, strength), ...]
    sorted by decreasing strength.
    """
    mag = np.abs(cross_correlation_2d(a, a_ref))
    is_max = np.ones_like(mag, dtype=bool)
    for dk in (-1, 0, 1):
        for dl in (-1, 0, 1):
            if dk == 0 and dl == 0:
                continue
            shifted = np.roll(mag, (dk, dl), axis=(0, 1))
            is_max &= mag >= shifted
    kk, ll = np.nonzero(is_max)
    strengths = mag[kk, ll]
    order = np.argsort(strengths)[::-1]
    return [(int(kk[i]), int(ll[i]), float(strengths[i])) for i in order[:n_peaks]]


def indices_to_estimate(angle_rad: float, k: int, l: int, strength: float,
                        cfg: SystemConfig) -> CoarseEstimate:
    """Map correlation-peak grid indices to physical target parameters."""
    n = cfg.n_doppler
    k_signed = k - n if k >= n / 2 else k
    doppler = k_signed * cfg.doppler_spacing_hz
    delay = l * cfg.delay_spacing_s
    return CoarseEstimate(
        angle_rad=float(angle_rad),
        doppler_index=int(k_signed),
        delay_index=int(l),
        doppler_hz=float(doppler),
        delay_s=float(delay),
        range_m=float(delay * SPEED_OF_LIGHT / 2.0),
        velocity_mps=float(doppler * SPEED_OF_LIGHT / (2.0 * cfg.carrier_freq_hz)),
        peak_strength=float(strength),
    )


def coarse_pipeline(rx_dd: np.ndarray, tx_dd: np.ndarray, cfg: SystemConfig,
                    n_angles: int, peaks_per_angle: int = 1,
                    pad_factor: int = DEFAULT_PAD_FACTOR):
    """Full coarse chain: angles, per-angle profiles, delay/Doppler peaks."""
    angles, _, _ = estimate_angles(rx_dd, n_angles, cfg, pad_factor=pad_factor)
    profiles = extract_angle_profiles(rx_dd, angles, cfg)
    estimates = []
    for angle, profile in zip(angles, profiles):
        ref = reference_profile(tx_dd, angle, cfg)
        for (k, l, s) in delay_doppler_peaks(profile, ref, n_peaks=peaks_per_angle):
            estimates.append(indices_to_estimate(angle, k, l, s, cfg))
    return estimates


def resolution_report(cfg: SystemConfig) -> dict:
    """Range/velocity resolution and unambiguous limits of the frame."""
    c = SPEED_OF_LIGHT
    lam = cfg.wavelength_m
    df = cfg.subcarrier_spacing_hz
    dt = cfg.symbol_duration_s
    return {
        "range_resolution_m": c / (2.0 * cfg.m_delay * df),
        "range_max_m": c / (2.0 * df),
        "velocity_resolution_mps": lam / (2.0 * cfg.n_doppler * dt),
        "velocity_max_mps": lam / (2.0 * dt),
    }
