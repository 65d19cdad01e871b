"""Fisher information and Cramer-Rao lower bounds for target parameters.

Parameters per target are theta = [tau, nu, u, phi] with u = pi*sin(angle)
(half-wavelength arrays) and phi the lumped phase of the combined transmit
response. The asymptotic (on-grid, large-array) information matrix admits
closed-form diagonal bounds after block inversion.
"""

from __future__ import annotations

import math

import numpy as np

from .config import SPEED_OF_LIGHT, SystemConfig
from .schema import check

# Bound on an SNR in dB, shared by snr_db_values, ``crlb --snr-db`` and every
# function that reads an SNR through snr_linear; inf is a noise-free run. A
# power ratio of 10^30 either way is beyond any physical link, and inside it
# 10^(snr/10) and its inverse are normal floats: outside [-3082, 3082] dB one
# of them overflows, and below -3236 dB the noise variance divides by zero.
SNR_DB_BOUND = "[-300, 300] or inf"


def snr_linear(snr_db: float) -> float:
    """|beta|^2 P_avg / N0 for unit-power constellations and |beta| = 1.

    Raises ValueError for an SNR outside ``SNR_DB_BOUND``, -inf and nan
    included.
    """
    message = check(float, snr_db, SNR_DB_BOUND)
    if message:
        raise ValueError(f"snr_db: {message}")
    return 10.0 ** (snr_db / 10.0)


def crlb_closed_form(cfg: SystemConfig, snr_db: float) -> dict:
    """Closed-form delay / Doppler / spatial-frequency bounds.

    These are the exact diagonal entries of the inverse asymptotic FIM. The
    spatial-frequency bound is 12/(N_r^2 - 1) times the common scalar, which
    is what the block inversion of the structure matrix actually yields. An
    axis with one sample carries no information, so its bound is infinite.
    """
    n, m, nr = cfg.n_doppler, cfg.m_delay, cfg.n_rx
    df = cfg.subcarrier_spacing_hz
    dt = cfg.symbol_duration_s
    scalar = 1.0 / (2.0 * snr_linear(snr_db) * nr)
    return {
        "tau_crlb": (scalar * 3.0 / (np.pi ** 2 * df ** 2 * (m ** 2 - 1))
                     if m > 1 else math.inf),
        "nu_crlb": (scalar * 3.0 / (np.pi ** 2 * dt ** 2 * (n ** 2 - 1))
                    if n > 1 else math.inf),
        "omega_crlb": scalar * 12.0 / (nr ** 2 - 1) if nr > 1 else math.inf,
    }


def crlb_report(cfg: SystemConfig, snr_db: float,
                ref_angle_rad: float = 0.0) -> dict:
    """Closed-form bounds plus range/velocity/angle-domain conversions.

    The angle bound linearizes u = pi*sin(phi) at ``ref_angle_rad``:
    var(phi) ~ var(u) / (pi cos(phi))^2.
    """
    out = crlb_closed_form(cfg, snr_db)
    lam = cfg.wavelength_m
    out["range_crlb_m2"] = (SPEED_OF_LIGHT / 2.0) ** 2 * out["tau_crlb"]
    out["velocity_crlb_mps2"] = (lam / 2.0) ** 2 * out["nu_crlb"]
    out["angle_crlb_rad2"] = out["omega_crlb"] / (np.pi * np.cos(ref_angle_rad)) ** 2
    return out


def crlb_curve(cfg: SystemConfig, snr_db_values,
               ref_angle_rad: float = 0.0) -> list[dict]:
    """Bounds tabulated over an SNR sweep."""
    rows = []
    for snr_db in snr_db_values:
        row = {"snr_db": float(snr_db)}
        row.update(crlb_report(cfg, snr_db, ref_angle_rad))
        rows.append(row)
    return rows
