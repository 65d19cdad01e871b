"""Channel application: TF route vs delay-Doppler closed forms."""

import sys
import threading

import numpy as np
import pytest

from otfs_isac.channel import (complex_noise, noise_variance, radar_receive,
                               receiver_noise_variance, rx_array_phase, tf_channel_grid,
                               tx_array_phase)
from otfs_isac.config import SystemConfig, Target
from otfs_isac.crlb import snr_linear
from otfs_isac.transforms import isfft, sfft
from oracles import (complex_noise_reference, dd_channel_operator,
                     dd_circular_shift_operator, radar_receive_reference, tf_channel_coeff)


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
    noise = complex_noise((2, 3, 3), noise_variance(np.inf), np.random.default_rng(0))
    np.testing.assert_array_equal(noise, np.zeros((2, 3, 3)))
    assert noise_variance(np.inf) == 0.0
    assert noise_variance(0.0) == 1.0


@pytest.mark.parametrize("snr_db", [-300.0, -17.3, 0.0, 3.0, 20.0, 300.0])
def test_noise_variance_is_one_over_snr_linear(snr_db):
    """One dB-to-linear conversion: bit for bit the inverse of the CRLB's."""
    assert noise_variance(snr_db) == 1.0 / snr_linear(snr_db) == 1.0 / 10.0 ** (snr_db / 10.0)


@pytest.mark.parametrize("snr_db", [-3300.0, -np.inf, 301.0])
def test_noise_variance_outside_the_snr_bound_is_a_value_error(snr_db):
    """1 / 10^(snr/10) divides by zero below -3236 dB; the bound stops it first."""
    with pytest.raises(ValueError, match="snr_db:"):
        noise_variance(snr_db)


def test_radar_receive_minus_infinite_snr_is_a_value_error(thread_starts):
    """-inf dB is infinite noise, not none: outside the bound, unlike +inf.
    Neither starts a thread."""
    cfg = small_cfg()
    tx = np.zeros((2, 8, 8), dtype=complex)
    with pytest.raises(ValueError, match="snr_db:"):
        radar_receive(tx, [], cfg, snr_db=-np.inf, rng=np.random.default_rng(0))
    assert not radar_receive(tx, [], cfg, snr_db=np.inf).any()
    assert not thread_starts


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 4, 6), (16, 64, 128)])
@pytest.mark.parametrize("noise_var", [1e-6, 0.37, 1.0, 42.0])
def test_complex_noise_equals_one_expression_draw(shape, noise_var):
    """The in-place draw gives the bytes of sqrt(v/2) * (a + 1j*b)."""
    for seed in (0, 5, 2 ** 31 + 7):
        got = complex_noise(shape, noise_var, np.random.default_rng(seed))
        want = complex_noise_reference(shape, noise_var, np.random.default_rng(seed))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", [(8, 8, 2, 4), (4, 16, 1, 3), (16, 32, 4, 8)],
                         ids=lambda g: "x".join(map(str, g)))
@pytest.mark.parametrize("snr_db", [-10.0, 3.0, 20.0, np.inf, None])
def test_radar_receive_equals_the_synchronous_draw(grid, snr_db, thread_starts):
    """The echo and its noise are the bytes of the per-target sum plus
    ``complex_noise_reference``; the noise is drawn in line, so no call
    starts a thread."""
    n, m, n_tx, n_rx = grid
    cfg = small_cfg(n_doppler=n, m_delay=m, n_tx=n_tx, n_rx=n_rx)
    rng = np.random.default_rng(n * m + n_rx)
    tx = rng.standard_normal((n_tx, n, m)) + 1j * rng.standard_normal((n_tx, n, m))
    targets = [Target(angle_rad=0.2 * j - 0.3, delay_s=(1.5 + j) * cfg.delay_spacing_s,
                      doppler_hz=(0.7 - j) * cfg.doppler_spacing_hz,
                      gain=np.exp(1j * (0.4 + j))) for j in range(3)]
    for seed in (0, 9):
        got = radar_receive(tx, targets, cfg, snr_db=snr_db,
                            rng=np.random.default_rng(seed))
        want = radar_receive_reference(tx, targets, cfg, snr_db,
                                       np.random.default_rng(seed))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert not thread_starts


def test_concurrent_receive_stacks_keep_their_own_noise():
    """Each call owns its draw: receive stacks built on more threads than
    cores, with a short switch interval, each equal their own in-line draw."""
    cfg = small_cfg(n_doppler=16, m_delay=32)
    tx = np.ones((2, 16, 32), dtype=complex)
    target = [on_grid_target(cfg, 1, 2, angle_rad=0.2)]
    want = {seed: radar_receive_reference(tx, target, cfg, 5.0, np.random.default_rng(seed))
            for seed in range(6)}
    got = {}

    def receive(seed):
        for _ in range(20):
            y = radar_receive(tx, target, cfg, snr_db=5.0, rng=np.random.default_rng(seed))
            got.setdefault(seed, set()).add(y.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=receive, args=(seed,)) for seed in want]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {seed: {y.tobytes()} for seed, y in want.items()}


class BrokenGenerator:
    def standard_normal(self, *args, **kwargs):
        raise FloatingPointError("draw failed")


def test_a_failed_draw_raises_in_the_caller(capfd, monkeypatch, thread_starts):
    """The draw's own exception reaches the caller of radar_receive, with
    nothing printed and no thread started."""
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    cfg = small_cfg()
    with pytest.raises(FloatingPointError, match="draw failed") as info:
        radar_receive(np.ones((2, 8, 8)), [], cfg, snr_db=3.0, rng=BrokenGenerator())
    assert "_draw_noise" in {entry.name for entry in info.traceback}
    assert not hooked and capfd.readouterr().err == ""
    assert not thread_starts


@pytest.mark.parametrize("snr_db", [-300.0, -17.3, 3.0, 300.0, np.inf, None])
def test_receiver_noise_variance_is_n0_over_nm(snr_db):
    """The TF noise of a receive stack is N0 / (N M), so that the unit-scale
    SFFT's sum of NM samples gives DD noise of variance N0; none without an
    SNR or at an infinite one."""
    cfg = small_cfg(n_doppler=4, m_delay=16)
    want = 0.0 if snr_db is None else noise_variance(snr_db) / 64
    assert receiver_noise_variance(snr_db, cfg) == want
