"""Low-complexity coarse target estimation on the TF receive stack.

Angles come from the covariance-domain Bartlett spectrum: the zero-padded
DFT power across the receive array, averaged (non-coherently) over all DD
bins, computed as a length-K DFT of the lag sums of the N_r x N_r sample
covariance. Delay/Doppler indices then come from the peaks of a 2D circular
DD cross-correlation between each angle's receive profile and a reference
profile built from the known transmit symbols. The SFFT is unitary up to a
scale of sqrt(NM), so both steps are exact on TF grids: the DD covariance
is the TF one, and a DD correlation is the SFFT of a TF product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import rx_array_phase, tx_array_phase
from .config import SPEED_OF_LIGHT, SystemConfig
from .exceptions import (DimensionMismatch, IllConditionedSteering,
                         PeakSeparationFailure, TooManyTargets)
from .transforms import isfft, sfft

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


def estimate_angles(rx_tf: np.ndarray, n_targets: int, cfg: SystemConfig,
                    pad_factor: int = DEFAULT_PAD_FACTOR, average: bool = True):
    """Estimate target angles from the (N_r, N, M) TF receive stack.

    With ``average`` the power spectra of all NM DD bins are averaged, which
    by Parseval is the spectrum of the TF covariance S S^H; otherwise only DD
    bin (0, 0), the sum of ``rx_tf`` over both grid axes, is used. Returns
    (angles, omega_grid, averaged_power), angles by decreasing peak power.
    """
    rx = np.asarray(rx_tf, dtype=complex)
    n_rx = rx.shape[0]
    if n_targets >= n_rx:
        raise TooManyTargets(f"{n_targets} targets with only {n_rx} receive antennas")
    snapshots = rx.reshape(n_rx, -1) if average else rx.sum(axis=(1, 2))[:, None]
    k = pad_factor * n_rx
    # mean_s |sum_n x[n, s] e^{-j2pi q n / K}|^2 over DD bins s = sum_{n, n'}
    # cov[n, n'] e^{-j2pi q (n - n') / K}: a length-K DFT of the covariance
    # summed along its diagonals, lags folded mod K (exact for every K).
    cov = snapshots @ snapshots.conj().T
    lag = np.subtract.outer(np.arange(n_rx), np.arange(n_rx)) % k
    r = np.zeros(k, dtype=complex)
    np.add.at(r, lag, cov)
    power = np.fft.fft(r).real
    omegas = 2.0 * np.pi * np.fft.fftfreq(k)
    sin_phi = omegas * cfg.wavelength_m / (2.0 * np.pi * cfg.g_r)
    # circular local maxima inside the visible region, strongest first, at
    # least one unpadded DFT bin (pad_factor padded bins) apart
    candidates = np.flatnonzero((power > np.roll(power, 1)) & (power >= np.roll(power, -1))
                                & (np.abs(sin_phi) <= 1.0))
    picked = []
    for idx in candidates[np.argsort(power[candidates])[::-1]]:
        dist = np.abs(idx - np.asarray(picked))
        if not picked or np.minimum(dist, k - dist).min() >= pad_factor:
            picked.append(int(idx))
        if len(picked) == n_targets:
            break
    if len(picked) < n_targets:
        raise PeakSeparationFailure(
            f"found {len(picked)} separated peaks, needed {n_targets}")
    angles = np.arcsin(sin_phi[picked])
    return angles, omegas, power


def extract_angle_profiles(rx_tf: np.ndarray, angles, cfg: SystemConfig) -> np.ndarray:
    """Least-squares per-angle complex TF profiles, shape (J, N, M).

    Solves, per TF bin, y_{n_r} = sum_j A_j e^{j n_r omega_j} over the
    steering matrix of the estimated angles. One thin SVD of that N_r x J
    matrix gives both the conditioning check and the pseudo-inverse applied
    to all bins. It acts across antennas only, so it commutes with the SFFT.
    """
    rx = np.asarray(rx_tf, dtype=complex)
    n_rx, n, m = rx.shape
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size >= n_rx:
        raise TooManyTargets("need more receive antennas than angles")
    steering = rx_array_phase(angles[:, None], n_rx, cfg).T
    u, sv, vh = np.linalg.svd(steering, full_matrices=False)
    if sv[0] > STEERING_COND_LIMIT * sv[-1]:
        raise IllConditionedSteering(
            "estimated angles too close for least-squares separation; "
            "virtual-array refinement required")
    profiles = (vh.conj().T / sv) @ (u.conj().T @ rx.reshape(n_rx, -1))
    return profiles.reshape(angles.size, n, m)


def delay_doppler_peaks(profiles_tf: np.ndarray, tx_dd: np.ndarray, angles,
                        cfg: SystemConfig, n_peaks: int):
    """Peaks of each angle's 2D circular DD cross-correlation with its
    transmit reference, strongest ``n_peaks`` local maxima first.

    With TF profiles P_j (``profiles_tf``, (J, N, M)) and DD references
    r_j = sum_t e^{-j2pi t g_t sin(phi_j)/lambda} x_t of the (N_t, N, M) DD
    transmit stack, C_j[k, l] = sum_{k', l'} sfft(P_j)[k', l']
    conj(r_j[k' - k, l' - l]) is N M sfft(P_j conj(isfft(r_j))): one ISFFT
    and one SFFT of J grids. Returns per angle [(k, l, |C_j|), ...].
    """
    profiles = np.asarray(profiles_tf, dtype=complex)
    tx = np.asarray(tx_dd, dtype=complex)
    phase = tx_array_phase(np.atleast_1d(np.asarray(angles, dtype=float))[:, None],
                           tx.shape[0], cfg)
    ref_tf = isfft(np.tensordot(phase, tx, axes=1))
    if profiles.shape != ref_tf.shape:
        raise DimensionMismatch(f"profiles {profiles.shape} vs references {ref_tf.shape}")
    mag = np.abs(sfft(profiles * ref_tf.conj()))
    mag *= profiles.shape[-2] * profiles.shape[-1]
    is_max = np.all([mag >= np.roll(mag, shift, axis=(-2, -1))
                     for shift in itertools.product((-1, 0, 1), repeat=2)], axis=0)
    peaks = []
    for angle_mag, angle_max in zip(mag, is_max):
        kk, ll = np.nonzero(angle_max)
        strengths = angle_mag[kk, ll]
        order = np.argsort(strengths)[::-1][:n_peaks]
        peaks.append([(int(kk[i]), int(ll[i]), float(strengths[i])) for i in order])
    return peaks


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


def coarse_pipeline(rx_tf: np.ndarray, tx_dd: np.ndarray, cfg: SystemConfig,
                    n_angles: int, peaks_per_angle: int = 1,
                    pad_factor: int = DEFAULT_PAD_FACTOR):
    """Full coarse chain on the TF receive stack: angles, per-angle profiles,
    delay/Doppler peaks. Estimates are grouped by angle, strongest first."""
    angles, _, _ = estimate_angles(rx_tf, n_angles, cfg, pad_factor=pad_factor)
    profiles = extract_angle_profiles(rx_tf, angles, cfg)
    peaks = delay_doppler_peaks(profiles, tx_dd, angles, cfg, n_peaks=peaks_per_angle)
    return [indices_to_estimate(angle, k, l, s, cfg)
            for angle, angle_peaks in zip(angles, peaks) for (k, l, s) in angle_peaks]


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
