"""Estimation lower bounds: closed forms vs numeric inversion."""

import numpy as np
import pytest

from otfs_isac.config import SPEED_OF_LIGHT, SystemConfig
from otfs_isac.crlb import crlb_closed_form, crlb_curve, crlb_report, snr_linear
from oracles import (asymptotic_c_matrix, asymptotic_fim, single_path_response,
                     single_path_response_derivatives)

SWEEP = [(8, 8, 4), (16, 32, 8), (64, 128, 16), (32, 64, 12)]


@pytest.mark.parametrize("n,m,nr", SWEEP)
def test_closed_form_equals_numeric_inverse(n, m, nr):
    cfg = SystemConfig(n_doppler=n, m_delay=m, n_rx=nr)
    snr_db = 13.0
    fim = asymptotic_fim(cfg, snr_db)
    inv = np.linalg.inv(fim)
    closed = crlb_closed_form(cfg, snr_db)
    for key, idx in (("tau_crlb", 0), ("nu_crlb", 1), ("omega_crlb", 2)):
        assert abs(closed[key] - inv[idx, idx].real) <= 1e-8 * inv[idx, idx].real


@pytest.mark.parametrize("n,m,nr", SWEEP)
def test_fim_positive_semidefinite(n, m, nr):
    cfg = SystemConfig(n_doppler=n, m_delay=m, n_rx=nr)
    c = asymptotic_c_matrix(cfg)
    eigs = np.linalg.eigvalsh((c + c.T) / 2.0)
    assert eigs.min() >= -1e-8 * np.linalg.norm(c)


def test_snr_linear():
    assert snr_linear(0.0) == 1.0
    assert snr_linear(10.0) == pytest.approx(10.0)


@pytest.mark.parametrize("snr_db", [300.5, 3083.0, -3300.0, -np.inf, np.nan])
def test_snr_outside_the_bound_is_a_value_error(snr_db):
    """10^(snr/10) overflows past 3082 dB; the bound stops it for library callers."""
    with pytest.raises(ValueError, match=r"snr_db: expected number in \[-300, 300\] or inf"):
        snr_linear(snr_db)
    with pytest.raises(ValueError, match="snr_db:"):
        crlb_report(SystemConfig(), snr_db)


def test_fim_scaling():
    cfg = SystemConfig(n_doppler=8, m_delay=8, n_rx=4)
    np.testing.assert_allclose(asymptotic_fim(cfg, 10.0),
                               10.0 * asymptotic_fim(cfg, 0.0))


def test_report_unit_conversions():
    cfg = SystemConfig()
    rep = crlb_report(cfg, 20.0, ref_angle_rad=0.3)
    assert rep["range_crlb_m2"] == pytest.approx(
        (SPEED_OF_LIGHT / 2) ** 2 * rep["tau_crlb"])
    assert rep["velocity_crlb_mps2"] == pytest.approx(
        (cfg.wavelength_m / 2) ** 2 * rep["nu_crlb"])
    assert rep["angle_crlb_rad2"] == pytest.approx(
        rep["omega_crlb"] / (np.pi * np.cos(0.3)) ** 2)


def test_curve_monotone_with_unit_slope():
    cfg = SystemConfig()
    snrs = [-10.0, 0.0, 10.0, 20.0]
    rows = crlb_curve(cfg, snrs)
    bounds = [r["angle_crlb_rad2"] for r in rows]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    # 1/SNR law: one decade per 10 dB
    for b1, b2 in zip(bounds, bounds[1:]):
        assert np.log10(b1 / b2) == pytest.approx(1.0, abs=1e-12)


def test_derivatives_match_finite_differences():
    cfg = SystemConfig(n_doppler=4, m_delay=4, n_rx=4)
    theta = np.array([0.7 * cfg.delay_spacing_s, 1.3 * cfg.doppler_spacing_hz,
                      0.9, 0.4])
    steps = np.array([1e-6 * cfg.delay_spacing_s,
                      1e-6 * cfg.doppler_spacing_hz, 1e-6, 1e-6])
    for n_r in range(4):
        for k in range(4):
            for l in range(4):
                analytic = single_path_response_derivatives(
                    theta[0], theta[1], theta[2], theta[3], n_r, k, l, cfg)
                for i in range(4):
                    tp, tm = theta.copy(), theta.copy()
                    tp[i] += steps[i]
                    tm[i] -= steps[i]
                    fd = (single_path_response(tp[0], tp[1], tp[2], tp[3],
                                               n_r, k, l, cfg)
                          - single_path_response(tm[0], tm[1], tm[2], tm[3],
                                                 n_r, k, l, cfg)) / (2 * steps[i])
                    scale = max(abs(analytic[i]), 1e-12)
                    assert abs(fd - analytic[i]) <= 1e-5 * scale


@pytest.mark.parametrize("field, key", [("n_doppler", "nu_crlb"),
                                        ("m_delay", "tau_crlb"),
                                        ("n_rx", "omega_crlb")])
def test_single_sample_axis_has_infinite_bound(field, key):
    """One sample on an axis carries no information; the other bounds hold."""
    base = dict(n_doppler=8, m_delay=16, n_rx=4)
    reference = crlb_closed_form(SystemConfig(**base), 10.0)
    base[field] = 1
    bounds = crlb_closed_form(SystemConfig(**base), 10.0)
    assert bounds[key] == np.inf
    if field != "n_rx":    # N_r also scales the common factor
        assert {k: v for k, v in bounds.items() if k != key} == {
            k: v for k, v in reference.items() if k != key}
