"""Channel application: TF route vs delay-Doppler closed forms."""

import numpy as np
import pytest

from otfs_isac.channel import (add_noise, noise_variance, radar_receive,
                               rx_array_phase, tf_channel_coeff,
                               tf_channel_grid, tx_array_phase)
from otfs_isac.config import SystemConfig, Target
from otfs_isac.transforms import isfft, sfft
from oracles import dd_channel_operator, dd_circular_shift_operator


def small_cfg(**kw):
    base = dict(n_doppler=8, m_delay=8, n_tx=2, n_rx=4, n_comm_rx=2)
    base.update(kw)
    return SystemConfig(**base)


def on_grid_target(cfg, k, l, gain=1.0 + 0.0j, angle_rad=0.0):
    return Target(angle_rad=angle_rad, delay_s=l * cfg.delay_spacing_s,
                  doppler_hz=k * cfg.doppler_spacing_hz, gain=gain)


def circular_convolution_oracle(dd, targets, cfg):
    """On-grid DD receive signal: phase-weighted circular shifts."""
    n, m = dd.shape
    out = np.zeros_like(dd)
    for t in targets:
        k = int(round(t.doppler_hz / cfg.doppler_spacing_hz))
        l = int(round(t.delay_s / cfg.delay_spacing_s))
        phase = t.gain * np.exp(-2j * np.pi * k * l / (n * m))
        out += phase * np.roll(dd, (k, l), axis=(0, 1))
    return out


def test_tf_route_matches_circular_convolution():
    cfg = small_cfg()
    rng = np.random.default_rng(10)
    dd = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    targets = [on_grid_target(cfg, 0, 0, gain=0.7 + 0.1j),
               on_grid_target(cfg, 2, 3, gain=-0.4 + 0.9j),
               on_grid_target(cfg, 5, 7, gain=0.2 - 0.6j)]
    tf = isfft(dd)
    rx_tf = sum(tf_channel_grid(t, cfg) * tf for t in targets)
    route = sfft(rx_tf)
    oracle = circular_convolution_oracle(dd, targets, cfg)
    assert np.max(np.abs(route - oracle)) <= 1e-9


def test_tf_channel_grid_matches_coeff():
    cfg = small_cfg()
    t = Target(angle_rad=0.2, delay_s=1.7e-7, doppler_hz=3456.0, gain=0.5 + 0.5j)
    grid = tf_channel_grid(t, cfg)
    for n in (0, 3, 7):
        for m in (0, 4, 7):
            assert abs(grid[n, m] - tf_channel_coeff(t, n, m, cfg)) < 1e-12


def test_dd_operator_compose_equals_shift_on_grid():
    cfg = small_cfg()
    targets = [on_grid_target(cfg, 1, 2, gain=0.8 - 0.3j),
               on_grid_target(cfg, 6, 5, gain=-0.1 + 0.9j)]
    op_c = dd_channel_operator(targets, cfg, method="compose")
    op_s = dd_channel_operator(targets, cfg, method="shift")
    assert np.max(np.abs(op_c - op_s)) <= 1e-10


def test_dd_operator_matches_grid_application():
    cfg = small_cfg()
    rng = np.random.default_rng(11)
    dd = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    t = Target(angle_rad=0.0, delay_s=0.37 * cfg.delay_spacing_s,
               doppler_hz=2.21 * cfg.doppler_spacing_hz, gain=1.0 + 0.0j)
    op = dd_channel_operator([t], cfg, method="compose")
    route = sfft(tf_channel_grid(t, cfg) * isfft(dd)).ravel()
    np.testing.assert_allclose(op @ dd.ravel(), route, atol=1e-10)


def test_shift_method_rejects_fractional_paths():
    cfg = small_cfg()
    t = Target(angle_rad=0.0, delay_s=0.5 * cfg.delay_spacing_s, doppler_hz=0.0)
    with pytest.raises(ValueError):
        dd_channel_operator([t], cfg, method="shift")


def test_circular_shift_operator_entries():
    op = dd_circular_shift_operator(1, 2, 1.0 + 0.0j, 4, 4)
    rng = np.random.default_rng(12)
    dd = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    expected = np.exp(-2j * np.pi * 2 / 16) * np.roll(dd, (1, 2), axis=(0, 1))
    np.testing.assert_allclose((op @ dd.ravel()).reshape(4, 4), expected,
                               atol=1e-12)


def test_radar_receive_single_target_formula():
    cfg = small_cfg()
    rng = np.random.default_rng(13)
    tx = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
    t = Target(angle_rad=0.3, delay_s=2e-7, doppler_hz=5000.0, gain=0.9 - 0.2j)
    y = radar_receive(tx, [t], cfg)
    a_t = tx_array_phase(t.angle_rad, 2, cfg)
    a_r = rx_array_phase(t.angle_rad, 4, cfg)
    h = tf_channel_grid(t, cfg)
    expected = a_r[:, None, None] * (a_t[0] * tx[0] + a_t[1] * tx[1]) * h
    np.testing.assert_allclose(y, expected, atol=1e-12)


def test_radar_receive_noise_statistics():
    # DD-domain noise variance should equal the per-sample N0 of the SNR.
    cfg = small_cfg()
    tx = np.zeros((2, 8, 8), dtype=complex)
    rng = np.random.default_rng(14)
    snr_db = 3.0
    samples = []
    for _ in range(200):
        y_tf = radar_receive(tx, [], cfg, snr_db=snr_db, rng=rng)
        samples.append(sfft(y_tf[0]).ravel())
    var = np.mean(np.abs(np.concatenate(samples)) ** 2)
    assert abs(var - noise_variance(snr_db)) < 0.05 * noise_variance(snr_db)


def test_add_noise_infinite_snr_passthrough():
    grids = np.ones((2, 3, 3), dtype=complex)
    np.testing.assert_array_equal(
        add_noise(grids, noise_variance(np.inf), np.random.default_rng(0)), grids)
    assert noise_variance(np.inf) == 0.0
    assert noise_variance(0.0) == 1.0
