"""Fisher information and Cramer-Rao lower bounds for target parameters.

Parameters per target are theta = [tau, nu, u, phi] with u = pi*sin(angle)
(half-wavelength arrays) and phi the lumped phase of the combined transmit
response. The asymptotic (on-grid, large-array) information matrix admits
closed-form diagonal bounds after block inversion.
"""

from __future__ import annotations

import numpy as np

from .config import SPEED_OF_LIGHT, SystemConfig


def snr_linear(snr_db: float, beta_mag: float = 1.0) -> float:
    """|beta|^2 P_avg / N0 for unit-power constellations."""
    return beta_mag ** 2 * 10.0 ** (snr_db / 10.0)


def asymptotic_c_matrix(cfg: SystemConfig) -> np.ndarray:
    """The 4x4 structure matrix of the asymptotic per-target FIM."""
    n, m, nr = cfg.n_doppler, cfg.m_delay, cfg.n_rx
    df = cfg.subcarrier_spacing_hz
    dt = cfg.symbol_duration_s
    a = np.pi * df * (m - 1)
    b = np.pi * dt * (n - 1)
    s = (nr - 1) / 2.0
    return np.array([
        [4 * np.pi ** 2 * df ** 2 * (m - 1) * (2 * m - 1) / 6.0,
         -np.pi ** 2 * (n - 1) * (m - 1), -a * s, -a],
        [-np.pi ** 2 * (n - 1) * (m - 1),
         4 * np.pi ** 2 * dt ** 2 * (n - 1) * (2 * n - 1) / 6.0, b * s, b],
        [-a * s, b * s, (nr - 1) * (2 * nr - 1) / 6.0, s],
        [-a, b, s, 1.0],
    ])


def asymptotic_fim(cfg: SystemConfig, snr_db: float, beta_mag: float = 1.0) -> np.ndarray:
    """Per-target 4x4 Fisher information matrix, asymptotic on-grid case."""
    return 2.0 * snr_linear(snr_db, beta_mag) * cfg.n_rx * asymptotic_c_matrix(cfg)


def crlb_closed_form(cfg: SystemConfig, snr_db: float, beta_mag: float = 1.0) -> dict:
    """Closed-form delay / Doppler / spatial-frequency bounds.

    These are the exact diagonal entries of the inverse asymptotic FIM. The
    spatial-frequency bound is 12/(N_r^2 - 1) times the common scalar, which
    is what the block inversion of the structure matrix actually yields.
    """
    n, m, nr = cfg.n_doppler, cfg.m_delay, cfg.n_rx
    df = cfg.subcarrier_spacing_hz
    dt = cfg.symbol_duration_s
    scalar = 1.0 / (2.0 * snr_linear(snr_db, beta_mag) * nr)
    return {
        "tau_crlb": scalar * 3.0 / (np.pi ** 2 * df ** 2 * (m ** 2 - 1)),
        "nu_crlb": scalar * 3.0 / (np.pi ** 2 * dt ** 2 * (n ** 2 - 1)),
        "omega_crlb": scalar * 12.0 / (nr ** 2 - 1),
    }


def crlb_report(cfg: SystemConfig, snr_db: float, beta_mag: float = 1.0,
                ref_angle_rad: float = 0.0) -> dict:
    """Closed-form bounds plus range/velocity/angle-domain conversions.

    The angle bound linearizes u = pi*sin(phi) at ``ref_angle_rad``:
    var(phi) ~ var(u) / (pi cos(phi))^2.
    """
    out = crlb_closed_form(cfg, snr_db, beta_mag)
    lam = cfg.wavelength_m
    out["range_crlb_m2"] = (SPEED_OF_LIGHT / 2.0) ** 2 * out["tau_crlb"]
    out["velocity_crlb_mps2"] = (lam / 2.0) ** 2 * out["nu_crlb"]
    out["angle_crlb_rad2"] = out["omega_crlb"] / (np.pi * np.cos(ref_angle_rad)) ** 2
    return out


def crlb_curve(cfg: SystemConfig, snr_db_values, beta_mag: float = 1.0,
               ref_angle_rad: float = 0.0) -> list[dict]:
    """Bounds tabulated over an SNR sweep."""
    rows = []
    for snr_db in snr_db_values:
        row = {"snr_db": float(snr_db)}
        row.update(crlb_report(cfg, snr_db, beta_mag, ref_angle_rad))
        rows.append(row)
    return rows
