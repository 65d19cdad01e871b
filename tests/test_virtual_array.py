"""Virtual-array snapshot, steering columns, and sparse recovery."""

import numpy as np
import pytest

from otfs_isac import virtual_array
from otfs_isac.allocation import diagonal_allocation, make_allocation
from otfs_isac.channel import radar_receive
from otfs_isac.coarse import CoarseEstimate
from otfs_isac.comm import symbol_capacity, transmit_chain
from otfs_isac.config import SystemConfig, Target, substream
from otfs_isac.exceptions import (DictionaryTooLarge, DimensionMismatch,
                                  ZeroPrivateSymbol)
from otfs_isac.virtual_array import (SOLVER_BLOCK, AxisSpec, SsrDictionary,
                                     averaged_ssr, build_virtual_snapshot,
                                     default_neighborhood, omp,
                                     steering_columns)
from oracles import serial_averaged_ssr


def small_cfg(**kw):
    base = dict(n_doppler=8, m_delay=16, n_tx=4, n_rx=8)
    base.update(kw)
    return SystemConfig(**base)


def make_snapshot(cfg, targets, snr_db=None, seed=0, alloc=None):
    alloc = alloc or diagonal_allocation(cfg.n_tx)
    rng = substream(seed, 0)
    bits = rng.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    _, tf = transmit_chain(bits, alloc, cfg)
    rx_tf = radar_receive(tf, targets, cfg, snr_db=snr_db, rng=substream(seed, 1))
    return build_virtual_snapshot(rx_tf, tf, alloc), tf, alloc


def test_snapshot_values_and_weights():
    cfg = small_cfg()
    t = Target(angle_rad=0.2, delay_s=1.1e-7, doppler_hz=4321.0, gain=0.8 + 0.3j)
    snap, tf, alloc = make_snapshot(cfg, [t])
    bins = alloc.private_bin_list()
    assert snap.values.shape == (len(bins) * cfg.n_rx,)
    rx_tf = radar_receive(tf, [t], cfg)
    for i, (owner, (n_p, m_p)) in enumerate(bins):
        x = tf[owner, n_p, m_p]
        np.testing.assert_allclose(
            snap.values[i * cfg.n_rx:(i + 1) * cfg.n_rx],
            rx_tf[:, n_p, m_p] / x, atol=1e-12)
        np.testing.assert_allclose(
            snap.row_weights[i * cfg.n_rx:(i + 1) * cfg.n_rx], abs(x), atol=1e-12)


def test_zero_private_symbol_rejected():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    tf = np.zeros((cfg.n_tx, cfg.n_doppler, cfg.m_delay), dtype=complex)
    rx = np.ones((cfg.n_rx, cfg.n_doppler, cfg.m_delay), dtype=complex)
    with pytest.raises(ZeroPrivateSymbol):
        build_virtual_snapshot(rx, tf, alloc)


def test_steering_column_formula():
    cfg = small_cfg()
    bin_meta = ((1, (2, 3)), (3, (0, 5)))
    angle, nu, tau = 0.3, 1234.0, 2.2e-7
    cols = steering_columns([angle], [nu], [tau], bin_meta, cfg.n_rx, cfg)
    dt, df = cfg.symbol_duration_s, cfg.subcarrier_spacing_hz
    lam = cfg.wavelength_m
    for p, (owner, (n_p, m_p)) in enumerate(bin_meta):
        for n_r in range(cfg.n_rx):
            expected = (np.exp(2j * np.pi * (n_r * cfg.g_r - owner * cfg.g_t)
                               * np.sin(angle) / lam)
                        * np.exp(-2j * np.pi * nu * tau)
                        * np.exp(2j * np.pi * (nu * n_p * dt - m_p * df * tau)))
            assert abs(cols[p * cfg.n_rx + n_r, 0] - expected) < 1e-12


def test_axis_spec_lattice():
    ax = AxisSpec(center=10.0, step=1.0, width=4.0)
    assert ax.n_points == 5
    assert ax.n_superset == 9
    np.testing.assert_allclose(ax.superset_points(), np.arange(6.0, 15.0))
    # every offset window is a contiguous slice of the superset lattice
    for off in ax.offset_choices():
        start = ax.window_start(off)
        window = 10.0 - off * 4.0 + 1.0 * np.arange(5)
        np.testing.assert_allclose(window, ax.superset_points()[start:start + 5],
                                   atol=1e-12)
    with pytest.raises(ValueError):
        AxisSpec(0.0, -1.0, 4.0)
    with pytest.raises(ValueError):
        AxisSpec(0.0, 2.0, 1.0)


def test_omp_recovers_planted_support():
    rng = np.random.default_rng(40)
    a = rng.standard_normal((32, 50)) + 1j * rng.standard_normal((32, 50))
    norms = np.linalg.norm(a, axis=0)
    d = SsrDictionary(matrix=a / norms, grid_points=np.zeros((50, 3)),
                      target_ids=np.zeros(50, dtype=int), column_norms=norms)
    support = [7, 23, 41]
    coef = np.array([1.0 + 0.5j, -0.8 + 0.2j, 0.6 - 0.9j])
    y = d.matrix[:, support] @ coef
    result = omp(y, d, k_sparse=3)
    assert sorted(result.support) == support
    assert result.final_residual < 1e-10
    # de-normalized coefficients map back to the normalized-domain ones
    order = np.argsort(result.support)
    np.testing.assert_allclose(
        np.asarray(result.coefficients)[order] * norms[np.sort(result.support)],
        coef[np.argsort(support)], atol=1e-8)


def test_omp_stopping_rules():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((16, 20)) + 1j * rng.standard_normal((16, 20))
    norms = np.linalg.norm(a, axis=0)
    d = SsrDictionary(matrix=a / norms, grid_points=np.zeros((20, 3)),
                      target_ids=np.zeros(20, dtype=int), column_norms=norms)
    y = d.matrix[:, 3] * 2.0
    res = omp(y, d, residual_tol=1e-8)
    assert res.support == [3]
    with pytest.raises(ValueError):
        omp(y, d)
    with pytest.raises(ValueError):
        omp(y, d, k_sparse=17)
    with pytest.raises(DimensionMismatch):
        omp(y[:5], d, k_sparse=1)


def test_averaged_ssr_single_target_noiseless_exact():
    cfg = small_cfg(n_rx=8)
    t = Target(angle_rad=np.deg2rad(10.0), delay_s=3 * cfg.delay_spacing_s,
               doppler_hz=2 * cfg.doppler_spacing_hz, gain=np.exp(0.3j))
    snap, _, _ = make_snapshot(cfg, [t])
    est = CoarseEstimate(t.angle_rad, 2, 3, t.doppler_hz, t.delay_s,
                         0.0, 0.0, 1.0)
    spec = default_neighborhood(est, cfg, angle_step_deg=0.5, angle_width_deg=4.0)
    res = averaged_ssr(snap, [spec], cfg, n_solvers=4, seed=0)
    angle, doppler, delay = res.estimates[0]
    assert abs(angle - t.angle_rad) < np.deg2rad(0.5) + 1e-9
    assert abs(doppler - t.doppler_hz) <= 0.1 * cfg.doppler_spacing_hz + 1e-6
    assert abs(delay - t.delay_s) <= 0.1 * cfg.delay_spacing_s + 1e-15


def test_averaged_ssr_vote_aggregate_and_errors(monkeypatch):
    cfg = small_cfg(n_rx=8)
    t = Target(angle_rad=0.1, delay_s=2 * cfg.delay_spacing_s,
               doppler_hz=cfg.doppler_spacing_hz)
    snap, _, _ = make_snapshot(cfg, [t])
    est = CoarseEstimate(0.1, 1, 2, t.doppler_hz, t.delay_s, 0.0, 0.0, 1.0)
    spec = default_neighborhood(est, cfg, angle_step_deg=1.0, angle_width_deg=4.0)
    res = averaged_ssr(snap, [spec], cfg, n_solvers=4, seed=1, aggregate="vote")
    assert res.estimates.shape == (1, 3)
    assert sum(res.vote_counts[0].values()) == 4
    with pytest.raises(ValueError):
        averaged_ssr(snap, [spec], cfg, n_solvers=0)
    with pytest.raises(ValueError):
        averaged_ssr(snap, [spec], cfg, aggregate="bogus")
    monkeypatch.setattr(virtual_array, "COLUMN_CAP", 10)
    with pytest.raises(DictionaryTooLarge):
        averaged_ssr(snap, [spec], cfg)


def test_averaged_ssr_deterministic():
    cfg = small_cfg(n_rx=8)
    t = Target(angle_rad=0.15, delay_s=4 * cfg.delay_spacing_s,
               doppler_hz=3 * cfg.doppler_spacing_hz)
    snap, _, _ = make_snapshot(cfg, [t], snr_db=10.0, seed=5)
    est = CoarseEstimate(0.15, 3, 4, t.doppler_hz, t.delay_s, 0.0, 0.0, 1.0)
    spec = default_neighborhood(est, cfg, angle_step_deg=1.0, angle_width_deg=6.0)
    a = averaged_ssr(snap, [spec], cfg, n_solvers=6, seed=9)
    b = averaged_ssr(snap, [spec], cfg, n_solvers=6, seed=9)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    assert a.residual == b.residual


def _ssr_case(centers_deg, target_deg, snr_db=15.0, seed=3, alloc=None):
    """Snapshot of targets plus one search box per listed center angle."""
    cfg = small_cfg(n_rx=8)
    dnu, dtau = cfg.doppler_spacing_hz, cfg.delay_spacing_s
    targets = [Target(angle_rad=np.deg2rad(a), delay_s=(2 + 3 * k) * dtau,
                      doppler_hz=(1 + k) * dnu, gain=np.exp(0.7j * k))
               for k, a in enumerate(target_deg)]
    snap, _, _ = make_snapshot(cfg, targets, snr_db=snr_db, seed=seed,
                               alloc=alloc)
    specs = []
    for k, a in enumerate(centers_deg):
        tk = targets[min(k, len(targets) - 1)]
        est = CoarseEstimate(np.deg2rad(a), 0, 0, tk.doppler_hz, tk.delay_s,
                             0.0, 0.0, 1.0)
        specs.append(default_neighborhood(est, cfg, angle_step_deg=1.0,
                                          angle_width_deg=6.0))
    return snap, specs, cfg


@pytest.mark.parametrize("case, kwargs", [
    ("three", {}),
    ("one", {}),
    ("identical", {}),
    ("three", {"sweeps": 0}),
    ("three", {"aggregate": "vote"}),
    ("three", {"n_solvers": SOLVER_BLOCK + 3}),
    ("one-private-bin", {}),
])
def test_averaged_ssr_matches_serial_oracle(case, kwargs):
    snap, specs, cfg = {
        "three": lambda: _ssr_case([9.0, 15.0, 21.0], [10.0, 14.0, 20.0]),
        "one": lambda: _ssr_case([12.0], [11.0]),
        # two boxes on one neighborhood holding two targets: the first greedy
        # step ties across the boxes and must go to the lower index
        "identical": lambda: _ssr_case([12.0, 12.0], [10.0, 14.0],
                                       snr_db=None),
        # no pair of private bins: the projection has no cross terms
        "one-private-bin": lambda: _ssr_case(
            [9.0, 15.0, 21.0], [10.0, 14.0, 20.0],
            alloc=make_allocation(4, [(0, (0, 0))])),
    }[case]()
    if case == "identical":
        specs = [specs[0], specs[0]]
    kwargs = {"n_solvers": 20, "seed": 4, **kwargs}
    res = averaged_ssr(snap, specs, cfg, **kwargs)
    ref = serial_averaged_ssr(snap, specs, cfg, **kwargs)
    assert len(res.solver_estimates) == kwargs["n_solvers"]
    for (points, residual), (ref_points, ref_residual) in zip(
            res.solver_estimates, ref["solver_estimates"]):
        np.testing.assert_array_equal(points, ref_points)
        assert residual == pytest.approx(ref_residual, rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(res.estimates, ref["estimates"])
    assert res.residual == pytest.approx(ref["residual"], rel=1e-12, abs=0.0)
    assert res.vote_counts == ref["vote_counts"]


def test_averaged_ssr_needs_a_neighborhood():
    cfg = small_cfg(n_rx=8)
    snap, _, _ = make_snapshot(cfg, [Target(0.1, 1e-7, 1000.0)])
    with pytest.raises(ValueError):
        averaged_ssr(snap, [], cfg)
