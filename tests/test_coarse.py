"""Coarse estimation on the TF receive stack: DFT angle search and 2D
correlation peaks, checked against DD-domain oracles."""

import os
from dataclasses import replace

import numpy as np
import pytest

from otfs_isac import coarse
from otfs_isac.coarse import (coarse_pipeline, delay_doppler_peaks, estimate_angles,
                              extract_angle_profiles, indices_to_estimate,
                              resolution_report)
from otfs_isac.comm import symbol_capacity, transmit_chain
from otfs_isac.config import (SPEED_OF_LIGHT, SystemConfig, Target, substream,
                              unit_phases)
from otfs_isac.allocation import diagonal_allocation
from otfs_isac.channel import radar_receive
from otfs_isac.exceptions import (DimensionMismatch, IllConditionedSteering,
                                  PeakSeparationFailure, TooManyTargets)
from otfs_isac.scenario import load_scenario
from otfs_isac.transforms import isfft, sfft
from oracles import (dd_route_coarse_pipeline, lstsq_angle_profiles,
                     nine_shift_maxima, padded_fft_estimate_angles)

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "scenarios")

EXACT = 1e-12


def make_scene(cfg, targets, snr_db=None, seed=0, alloc=None):
    """(DD transmit stack, TF receive stack) of one frame."""
    alloc = alloc or diagonal_allocation(cfg.n_tx)
    rng = substream(seed, 0)
    bits = rng.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, _, tf = transmit_chain(bits, alloc, cfg)
    return dd, radar_receive(tf, targets, cfg, snr_db=snr_db, rng=substream(seed, 1))


def test_cross_correlation_matches_direct_sum():
    """The peaks are the local maxima of |C_j|, C_j[k, l] = sum_{k', l'}
    a_j[k', l'] conj(r_j[k' - k, l' - l]), summed directly on the DD grids
    a_j = sfft(P_j) and r_j = sum_t e^{-j2pi t g_t sin(phi_j)/lambda} x_t."""
    cfg = SystemConfig(n_doppler=4, m_delay=5, n_tx=3)
    rng = np.random.default_rng(20)
    p, tx = (rng.standard_normal((count, 4, 5)) + 1j * rng.standard_normal((count, 4, 5))
             for count in (2, 3))
    angles = [0.3, -0.7]
    a = sfft(p)
    for j, peaks in enumerate(delay_doppler_peaks(p, isfft(tx), angles, cfg, n_peaks=20)):
        r = sum(np.exp(-2j * np.pi * t * cfg.g_t * np.sin(angles[j]) / cfg.wavelength_m)
                * tx[t] for t in range(3))
        direct = np.zeros((4, 5), dtype=complex)
        for k in range(4):
            for l in range(5):
                for kp in range(4):
                    for lp in range(5):
                        direct[k, l] += a[j, kp, lp] * np.conj(r[(kp - k) % 4, (lp - l) % 5])
        mag = np.abs(direct)
        maxima = {(k, l) for k in range(4) for l in range(5)
                  if all(mag[k, l] >= mag[(k + dk) % 4, (l + dl) % 5]
                         for dk in (-1, 0, 1) for dl in (-1, 0, 1))}
        assert {(k, l) for k, l, _ in peaks} == maxima
        strengths = [s for *_, s in peaks]
        assert strengths == sorted(strengths, reverse=True)
        np.testing.assert_allclose(strengths, [mag[k, l] for k, l, _ in peaks],
                                   rtol=1e-12)
    with pytest.raises(DimensionMismatch):
        delay_doppler_peaks(p, isfft(tx), angles[:1], cfg, n_peaks=1)


def test_estimate_angles_noiseless_single_target():
    cfg = SystemConfig(n_doppler=8, m_delay=16, n_tx=2, n_rx=16)
    target = Target.from_range_velocity(23.0, 60.0, 30.0, cfg.carrier_freq_hz)
    _, rx_tf = make_scene(cfg, [target])
    angles, _, _ = estimate_angles(rx_tf, 1, cfg, pad_factor=64)
    # padded-DFT bin width in sin space is 2 / (pad * N_r)
    assert abs(np.sin(angles[0]) - np.sin(target.angle_rad)) <= 1.0 / (64 * 16)


def test_estimate_angles_too_many_targets():
    cfg = SystemConfig(n_rx=4)
    with pytest.raises(TooManyTargets):
        estimate_angles(np.zeros((4, 2, 2), dtype=complex), 4, cfg)


def test_estimate_angles_separation_failure():
    cfg = SystemConfig(n_rx=8)
    # single-antenna impulse: circularly flat spectrum, no local maxima
    rx = np.zeros((8, 2, 2), dtype=complex)
    rx[0] = 1.0
    with pytest.raises(PeakSeparationFailure):
        estimate_angles(rx, 1, cfg)


def test_extract_angle_profiles_ill_conditioned():
    cfg = SystemConfig(n_rx=8)
    rx = np.ones((8, 2, 2), dtype=complex)
    with pytest.raises(IllConditionedSteering):
        extract_angle_profiles(rx, [0.1, 0.1 + 1e-9], cfg)


def assert_close_to_peak(actual, expected):
    """Agreement within EXACT of the largest magnitude of ``expected``."""
    np.testing.assert_allclose(actual, expected, rtol=EXACT,
                               atol=EXACT * np.abs(expected).max())


def three_target_scene(n_rx, seed):
    cfg = SystemConfig(n_doppler=8, m_delay=16, n_tx=2, n_rx=n_rx)
    targets = [Target.from_range_velocity(a, r, v, cfg.carrier_freq_hz)
               for a, r, v in ((7.0, 73.5, 54.5), (-14.0, 64.3, -98.2),
                               (22.0, 45.9, 76.4))]
    return (cfg,) + make_scene(cfg, targets, snr_db=10.0, seed=seed)


@pytest.mark.parametrize("pad", [1, 2, 3, 16])
@pytest.mark.parametrize("n_rx", [16, 7])
@pytest.mark.parametrize("average", [True, False])
def test_estimate_angles_matches_padded_fft_oracle(pad, n_rx, average):
    cfg, _, rx_tf = three_target_scene(n_rx, seed=pad)
    rx_dd = sfft(rx_tf)
    for n_targets in (1, 2, 3):
        try:
            ref_angles, ref_omegas, ref_power = padded_fft_estimate_angles(
                rx_dd, n_targets, cfg, pad, average=average)
        except PeakSeparationFailure:
            with pytest.raises(PeakSeparationFailure):
                estimate_angles(rx_tf, n_targets, cfg, pad_factor=pad,
                                average=average)
            continue
        angles, omegas, power = estimate_angles(rx_tf, n_targets, cfg,
                                                pad_factor=pad, average=average)
        assert_close_to_peak(power, ref_power)
        np.testing.assert_array_equal(omegas, ref_omegas)
        np.testing.assert_array_equal(angles, ref_angles)


@pytest.mark.parametrize("average", [True, False])
def test_estimate_angles_all_zero_input(average):
    cfg = SystemConfig(n_rx=8)
    rx = np.zeros((8, 2, 3), dtype=complex)
    for estimator in (estimate_angles, padded_fft_estimate_angles):
        with pytest.raises(PeakSeparationFailure):
            estimator(rx, 1, cfg, pad_factor=16, average=average)


@pytest.mark.parametrize("angles_deg", [[7.0, -14.0, 22.0], [12.0, 14.0],
                                        [-40.0]])
@pytest.mark.parametrize("n_rx", [16, 7])
def test_extract_angle_profiles_matches_lstsq_oracle(angles_deg, n_rx):
    cfg, _, rx_tf = three_target_scene(n_rx, seed=n_rx)
    angles = np.deg2rad(angles_deg)
    profiles = extract_angle_profiles(rx_tf, angles, cfg)
    assert_close_to_peak(profiles, lstsq_angle_profiles(rx_tf, angles, cfg))
    # the per-bin solve commutes with the SFFT
    assert_close_to_peak(sfft(profiles), lstsq_angle_profiles(sfft(rx_tf), angles, cfg))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_separable_local_maxima_equal_the_nine_shift_test(n, m):
    """The circular 3 x 3 maximum taken one axis after the other marks the
    entries the 9-shift test marks, with ties and plateaus, and on axes of
    1 and 2 bins, where the shifts wrap onto the entry or its one neighbour."""
    rng = np.random.default_rng(10 * n + m)
    for levels in (1, 2, 3, 1000):      # 1: one plateau; few levels: many ties
        for _ in range(20):
            mag = rng.integers(0, levels, size=(3, n, m)).astype(float)
            np.testing.assert_array_equal(coarse._local_maxima(mag), nine_shift_maxima(mag))


@pytest.mark.parametrize("n_rx", [1, 5, 16])
@pytest.mark.parametrize("n_bins", [1, 7, coarse._COV_BLOCK, coarse._COV_BLOCK + 1,
                                    3 * coarse._COV_BLOCK - 5])
def test_blocked_covariance_is_the_full_product(n_rx, n_bins):
    """S S^H summed over blocks of bins is within 1e-13 of the one product."""
    rng = np.random.default_rng(n_rx * n_bins)
    s = rng.standard_normal((n_rx, n_bins)) + 1j * rng.standard_normal((n_rx, n_bins))
    want = s @ s.conj().T
    assert np.abs(coarse._covariance(s) - want).max() <= 1e-13 * np.abs(want).max()


def test_delay_doppler_peaks_planted():
    # one transmit antenna: every angle's reference is the transmit grid
    cfg = SystemConfig(n_doppler=8, m_delay=8, n_tx=1)
    rng = np.random.default_rng(21)
    ref = rng.standard_normal((1, 8, 8)) + 1j * rng.standard_normal((1, 8, 8))
    shifted = np.exp(0.4j) * np.stack([np.roll(ref[0], (2, 5), axis=(0, 1)),
                                       np.roll(ref[0], (7, 1), axis=(0, 1))])
    peaks = delay_doppler_peaks(isfft(shifted), isfft(ref), [0.2, -0.4], cfg, n_peaks=1)
    assert [p[0][:2] for p in peaks] == [(2, 5), (7, 1)]


def test_indices_to_estimate_units():
    cfg = SystemConfig()
    est = indices_to_estimate(0.1, cfg.n_doppler - 2, 5, 1.0, cfg)
    assert est.doppler_index == -2          # wrapped to the signed range
    assert est.delay_index == 5
    assert est.range_m == pytest.approx(5 * cfg.delay_spacing_s * SPEED_OF_LIGHT / 2)
    assert est.velocity_mps == pytest.approx(
        -2 * cfg.doppler_spacing_hz * SPEED_OF_LIGHT / (2 * cfg.carrier_freq_hz))


def test_coarse_pipeline_on_grid_target_exact_bins():
    cfg = SystemConfig(n_doppler=16, m_delay=32, n_tx=2, n_rx=16)
    target = Target(angle_rad=np.deg2rad(17.0),
                    delay_s=6 * cfg.delay_spacing_s,
                    doppler_hz=3 * cfg.doppler_spacing_hz,
                    gain=np.exp(0.7j))
    dd, rx_tf = make_scene(cfg, [target])
    est = coarse_pipeline(rx_tf, isfft(dd), cfg, n_angles=1)[0]
    assert est.doppler_index == 3
    assert est.delay_index == 6
    assert abs(np.sin(est.angle_rad) - np.sin(target.angle_rad)) <= 1.0 / (16 * 16)


def test_resolution_report_values():
    cfg = SystemConfig(n_doppler=64, m_delay=128, subcarrier_spacing_hz=120e3)
    rep = resolution_report(cfg)
    c = SPEED_OF_LIGHT
    assert rep["range_resolution_m"] == pytest.approx(c / (2 * 128 * 120e3))
    assert rep["range_max_m"] == pytest.approx(c / (2 * 120e3))
    lam = cfg.wavelength_m
    dt = 1 / 120e3
    assert rep["velocity_resolution_mps"] == pytest.approx(lam / (2 * 64 * dt))
    assert rep["velocity_max_mps"] == pytest.approx(lam / (2 * dt))


@pytest.mark.parametrize("name", ["coarse_three_targets", "ssr_close_angles"])
def test_coarse_pipeline_matches_dd_route_oracle(name):
    """The TF route finds the DD route's estimates on the shipped geometries."""
    sc = load_scenario(os.path.join(SCENARIOS, name + ".json"))
    cfg, est = sc.system, sc.estimator
    n_angles = len(sc.paths) if sc.experiment_kind == "dd-correlation" else est.n_angles
    for seed in range(20):
        targets = [replace(t, gain=g)
                   for t, g in zip(sc.paths, unit_phases(substream(seed, 2), len(sc.paths)))]
        dd, rx_tf = make_scene(cfg, targets, snr_db=sc.snr_db_values[0], seed=seed,
                               alloc=sc.bin_allocation)
        got = coarse_pipeline(rx_tf, isfft(dd), cfg, n_angles,
                              peaks_per_angle=est.peaks_per_angle,
                              pad_factor=est.dft_pad_factor)
        want = dd_route_coarse_pipeline(rx_tf, dd, cfg, n_angles, est.peaks_per_angle,
                                        est.dft_pad_factor)
        assert [(e.angle_rad, e.doppler_index % cfg.n_doppler, e.delay_index)
                for e in got] == [w[:3] for w in want]
        np.testing.assert_allclose([e.peak_strength for e in got], [w[3] for w in want],
                                   rtol=EXACT)
