"""Virtual-array snapshot, steering columns, and sparse recovery."""

import tracemalloc

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
from otfs_isac.virtual_array import (AxisSpec, NeighborhoodSpec, _FactoredGrid,
                                     _solver_block, angle_surface, averaged_ssr,
                                     build_virtual_snapshot, default_neighborhood)
from oracles import (SsrDictionary, exhaustive_ssr_minimum, omp, penalty_table,
                     serial_averaged_ssr, steering_columns, window_draws)


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


def test_grid_columns_match_steering_formula():
    """The solver's one column builder against the explicit phase terms."""
    cfg = small_cfg()
    bin_meta = ((1, (2, 3)), (3, (0, 5)))
    weights = np.repeat([0.7, 1.3], cfg.n_rx)
    spec = NeighborhoodSpec(angle=AxisSpec(0.3, 0.02, 0.08),
                            doppler=AxisSpec(1234.0, 150.0, 600.0),
                            delay=AxisSpec(2.2e-7, 1e-8, 4e-8))
    grid = _FactoredGrid(spec, bin_meta, cfg.n_rx, cfg, weights)
    dt, df = cfg.symbol_duration_s, cfg.subcarrier_spacing_hz
    lam = cfg.wavelength_m
    ia, iv, it = np.array([0, 4, 8]), np.array([3, 8, 0]), np.array([8, 1, 4])
    cols = grid.columns(ia, iv, it)
    assert cols.shape == (3, len(bin_meta) * cfg.n_rx)
    for c, (i, j, k) in enumerate(zip(ia, iv, it)):
        angle, nu, tau = grid.angles[i], grid.dopplers[j], grid.delays[k]
        np.testing.assert_array_equal(grid.columns(i, j, k), cols[c])
        for p, (owner, (n_p, m_p)) in enumerate(bin_meta):
            for n_r in range(cfg.n_rx):
                row = p * cfg.n_rx + n_r
                expected = weights[row] * (
                    np.exp(2j * np.pi * (n_r * cfg.g_r - owner * cfg.g_t)
                           * np.sin(angle) / lam)
                    * np.exp(-2j * np.pi * nu * tau)
                    * np.exp(2j * np.pi * (nu * n_p * dt - m_p * df * tau)))
                assert abs(cols[c, row] - expected) < 1e-12


def group_of_cells(grid) -> np.ndarray:
    """The group of every window-local Doppler-delay cell of ``grid``."""
    n_cells = grid.window[1] * grid.window[2]
    group = np.full(n_cells, -1)
    for k, members in enumerate(grid.members):
        group[members[members < n_cells]] = k
    assert (group >= 0).all()
    return group


@pytest.mark.parametrize("n_bins, n_solvers, sel", [
    (4, 5, slice(None)),
    (4, 5, np.array([0, 2, 3])),
    (4, 1, slice(None)),
    # a single private bin has no bin pairs: the projection has no cross terms
    (1, 3, np.array([1])),
    (1, 1, slice(None)),
    # diagonal private bins: cells along nu dt - tau df = const share a column
    ("diagonal", 5, np.array([0, 2, 3])),
])
def test_window_kernels_match_direct_sums(n_bins, n_solvers, sel):
    """The window scores against |C^H v|^2 and sum_j |C^H q_j|^2 with C built
    column by column from the grid's column builder, at every cell of every
    window through the cell's group, and the first greedy step's scores of
    y against |C^H y|^2 over the squared penalty. Each result owns its
    memory: a second call leaves the first one's scores as they were."""
    cfg = small_cfg()
    dnu, dtau = cfg.doppler_spacing_hz, cfg.delay_spacing_s
    spec = NeighborhoodSpec(angle=AxisSpec(0.3, 0.02, 0.08),
                            doppler=AxisSpec(1234.0, 150.0, 450.0),
                            delay=AxisSpec(2.2e-7, 1e-8, 5e-8))
    if n_bins == "diagonal":
        bin_meta = tuple((p, (p + 1, p + 1)) for p in range(4))
        spec = NeighborhoodSpec(angle=spec.angle,
                                doppler=AxisSpec(3 * dnu, 0.1 * dnu, 0.4 * dnu),
                                delay=AxisSpec(2 * dtau, 0.1 * dtau, 0.5 * dtau))
    else:
        bin_meta = ((1, (2, 3)), (3, (0, 5)), (0, (4, 1)), (2, (7, 7)))[:n_bins]
    seed = 99 if n_bins == "diagonal" else n_bins * 10 + n_solvers
    rng = np.random.default_rng(seed)
    weights = np.repeat(rng.uniform(0.5, 1.5, len(bin_meta)), cfg.n_rx)
    grid = _FactoredGrid(spec, bin_meta, cfg.n_rx, cfg, weights)
    shape = [ax.n_points for ax in (spec.angle, spec.doppler, spec.delay)]
    group = group_of_cells(grid)
    n_groups = len(grid.members)
    if n_bins == "diagonal":
        assert n_groups < shape[1] * shape[2]
    starts = rng.integers(0, shape, size=(n_solvers, 3))
    n_rows, n_j = len(bin_meta) * cfg.n_rx, 2
    y = rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows)
    win = virtual_array._WindowStack(grid, starts)
    first = win.power(np.broadcast_to(y, (n_solvers, n_rows)), slice(None)) / win.penalty2
    penalties = penalty_table(grid)
    for s in range(n_solvers):
        ia, iv, it = np.ix_(*(st + np.arange(n) for st, n in zip(starts[s], shape)))
        cols = grid.columns(*np.broadcast_arrays(ia, iv, it)).reshape(-1, n_rows)
        penalty = penalties[ia, iv, it].reshape(shape[0], -1)
        expected = (np.abs(cols.conj() @ y) ** 2).reshape(shape[0], -1)
        least = win.penalty2[s].reshape(shape[0], n_groups)[:, group]
        got = first[s].reshape(shape[0], n_groups)[:, group] * least
        assert np.all(least <= penalty ** 2)
        assert np.max(np.abs(got - expected)) <= 1e-12 * expected.max()
    rows = np.arange(n_solvers)[sel]
    v = rng.standard_normal((len(rows), n_rows)) + 1j * rng.standard_normal((len(rows), n_rows))
    q = (rng.standard_normal((len(rows), n_rows, n_j))
         + 1j * rng.standard_normal((len(rows), n_rows, n_j)))
    power, projection = win.power(v, sel), win.projection(q, sel)
    kept = power.copy(), projection.copy()
    win.power(2.0 * v, sel), win.projection(2.0 * q, sel)
    np.testing.assert_array_equal(power, kept[0])
    np.testing.assert_array_equal(projection, kept[1])
    assert power.shape == projection.shape == (len(rows), shape[0] * n_groups)
    for i, s in enumerate(rows):
        ia, iv, it = np.ix_(*(st + np.arange(n) for st, n in zip(starts[s], shape)))
        cols = grid.columns(*np.broadcast_arrays(ia, iv, it)).reshape(-1, n_rows)
        at_cells = np.s_[:, group]
        expected = np.abs(cols.conj() @ v[i]) ** 2
        got = power[i].reshape(shape[0], n_groups)[at_cells].ravel()
        assert np.max(np.abs(got - expected)) <= 1e-12 * expected.max()
        expected = np.sum(np.abs(cols.conj() @ q[i]) ** 2, axis=1)
        got = projection[i].reshape(shape[0], n_groups)[at_cells].ravel()
        assert np.max(np.abs(got - expected)) <= 1e-12 * expected.max()


def test_angle_surface_matches_steering_columns():
    cfg = small_cfg()
    targets = [Target(angle_rad=0.2, delay_s=3 * cfg.delay_spacing_s,
                      doppler_hz=2 * cfg.doppler_spacing_hz, gain=0.8 + 0.3j)]
    snap, _, _ = make_snapshot(cfg, targets, snr_db=10.0, seed=2)
    est = CoarseEstimate(0.21, 2, 3, targets[0].doppler_hz, targets[0].delay_s,
                         0.0, 0.0, 1.0)
    spec = default_neighborhood(est, cfg)
    angles = spec.angle.superset_points()
    for iv, it in ((20, 20), (3, 37)):
        doppler = spec.doppler.superset_points()[iv]
        delay = spec.delay.superset_points()[it]
        cols = steering_columns(angles, np.full_like(angles, doppler),
                                np.full_like(angles, delay),
                                snap.bin_meta, snap.n_rx, cfg)
        cols = cols * snap.row_weights[:, None]
        y = snap.values * snap.row_weights
        expected = np.abs(cols.conj().T @ y) / np.linalg.norm(cols, axis=0)
        np.testing.assert_allclose(
            angle_surface(snap, spec, (angles[0], doppler, delay), cfg),
            expected, rtol=1e-9, atol=0.0)


def test_axis_spec_lattice():
    ax = AxisSpec(center=10.0, step=1.0, width=4.0)
    assert ax.n_points == 5
    assert ax.n_superset == 9
    np.testing.assert_allclose(ax.superset_points(), np.arange(6.0, 15.0))
    with pytest.raises(ValueError):
        AxisSpec(0.0, -1.0, 4.0)
    with pytest.raises(ValueError):
        AxisSpec(0.0, 2.0, 1.0)
    # a fractional width/step ratio would put the lattice off its centre: a
    # width of 3.5 steps would span [-3.5, 4.5]
    for width in (3.5, 2.5, 4.000001):
        with pytest.raises(ValueError, match="integer width/step ratio"):
            AxisSpec(0.0, 1.0, width)
    assert AxisSpec(0.0, 0.1, 2.0).n_points == 21    # 2.0 / 0.1 = 20.000000000000004


def test_omp_recovers_planted_support():
    rng = np.random.default_rng(40)
    a = rng.standard_normal((32, 50)) + 1j * rng.standard_normal((32, 50))
    norms = np.linalg.norm(a, axis=0)
    d = SsrDictionary(matrix=a / norms, column_norms=norms)
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
    d = SsrDictionary(matrix=a / norms, column_norms=norms)
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


def test_averaged_ssr_errors(monkeypatch):
    cfg = small_cfg(n_rx=8)
    t = Target(angle_rad=0.1, delay_s=2 * cfg.delay_spacing_s,
               doppler_hz=cfg.doppler_spacing_hz)
    snap, _, _ = make_snapshot(cfg, [t])
    est = CoarseEstimate(0.1, 1, 2, t.doppler_hz, t.delay_s, 0.0, 0.0, 1.0)
    spec = default_neighborhood(est, cfg, angle_step_deg=1.0, angle_width_deg=4.0)
    with pytest.raises(ValueError):
        averaged_ssr(snap, [spec], cfg, n_solvers=0)
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
    # enough solvers for two blocks
    ("three", {"n_solvers": "block + 3"}),
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
    if kwargs["n_solvers"] == "block + 3":
        kwargs["n_solvers"] = _solver_block(
            [_FactoredGrid(spec, snap.bin_meta, snap.n_rx, cfg, snap.row_weights)
             for spec in specs]) + 3
    res = averaged_ssr(snap, specs, cfg, **kwargs)
    ref = serial_averaged_ssr(snap, specs, cfg, **kwargs)
    assert len(res.solver_estimates) == kwargs["n_solvers"]
    for (points, residual), (ref_points, ref_residual) in zip(
            res.solver_estimates, ref["solver_estimates"]):
        np.testing.assert_array_equal(points, ref_points)
        assert residual == pytest.approx(ref_residual, rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(res.estimates, ref["estimates"])
    assert res.residual == pytest.approx(ref["residual"], rel=1e-12, abs=0.0)


# private bins off the n = m diagonal, so no two lattice columns coincide
SCATTERED_BINS = make_allocation(4, [(0, (0, 0)), (1, (1, 5)), (2, (3, 2)),
                                     (3, (6, 11))])


def _tiny_ssr_case(offsets, snr_db, seed, alloc=None):
    """Targets at (angle deg, Doppler bins, delay bins) offsets from lattice
    centers, with one tiny search box per target: 5 x 3 x 3 superset points."""
    cfg = small_cfg(n_rx=8)
    dnu, dtau = cfg.doppler_spacing_hz, cfg.delay_spacing_s
    targets, specs = [], []
    for k, (da, dv, dt) in enumerate(offsets):
        center = (np.deg2rad(-20.0 + 35.0 * k), (1 + 2 * k) * dnu, (2 + 5 * k) * dtau)
        targets.append(Target(angle_rad=center[0] + np.deg2rad(da),
                              doppler_hz=center[1] + dv * dnu,
                              delay_s=center[2] + dt * dtau,
                              gain=(1.0 - 0.2 * k) * np.exp(0.9j * k)))
        specs.append(NeighborhoodSpec(
            angle=AxisSpec(center[0], np.deg2rad(1.0), np.deg2rad(2.0)),
            doppler=AxisSpec(center[1], 0.25 * dnu, 0.25 * dnu),
            delay=AxisSpec(center[2], 0.25 * dtau, 0.25 * dtau)))
    snap, _, _ = make_snapshot(cfg, targets, snr_db=snr_db, seed=seed,
                               alloc=alloc or SCATTERED_BINS)
    return snap, specs, cfg


@pytest.mark.parametrize("offsets", [
    [(1.3, 0.2, 0.05)],
    [(1.3, 0.2, 0.05), (-0.8, -0.15, 0.0)],
])
def test_averaged_ssr_finds_the_exhaustive_minimum_without_noise(offsets):
    """Noise-free, well-separated targets off the lattice: the bagged search
    returns the global optimum over one superset pick per neighborhood."""
    snap, specs, cfg = _tiny_ssr_case(offsets, snr_db=None, seed=7)
    points, minimum = exhaustive_ssr_minimum(snap, specs, cfg)
    assert minimum > 1e-3 * np.linalg.norm(snap.values * snap.row_weights)
    res = averaged_ssr(snap, specs, cfg, n_solvers=32, seed=5)
    np.testing.assert_array_equal(res.estimates, points)
    assert res.residual == pytest.approx(minimum, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("alloc", [SCATTERED_BINS, diagonal_allocation(4)])
def test_averaged_ssr_never_beats_the_exhaustive_minimum(seed, alloc):
    """Noisy targets one step from the box edges: every solver's residual is
    that of some one-pick-per-neighborhood choice, so none can undercut the
    exhaustive minimum."""
    snap, specs, cfg = _tiny_ssr_case([(1.6, 0.3, -0.3), (-1.9, -0.2, 0.2)],
                                      snr_db=5.0, seed=seed, alloc=alloc)
    _, minimum = exhaustive_ssr_minimum(snap, specs, cfg)
    res = averaged_ssr(snap, specs, cfg, n_solvers=8, seed=seed)
    assert min(r for _, r in res.solver_estimates) >= minimum * (1.0 - 1e-12)
    assert res.residual >= minimum * (1.0 - 1e-12)


@pytest.mark.parametrize("ratio, n_points", [(2.0, 3), (4.0, 5)])
def test_windows_and_picks_stay_inside_the_superset_lattice(monkeypatch, ratio,
                                                            n_points):
    """Every drawn window, the widest offset included, is a slice of the
    superset lattice, and every pick lies inside its solver's window."""
    cfg = small_cfg(n_rx=8)
    t = Target(angle_rad=np.deg2rad(10.0), delay_s=3 * cfg.delay_spacing_s,
               doppler_hz=2 * cfg.doppler_spacing_hz)
    snap, _, _ = make_snapshot(cfg, [t], snr_db=10.0, seed=1)
    est = CoarseEstimate(t.angle_rad, 2, 3, t.doppler_hz, t.delay_s, 0.0, 0.0, 1.0)
    spec = default_neighborhood(est, cfg, angle_width_deg=ratio,
                                doppler_width_bins=0.1 * ratio,
                                delay_width_bins=0.1 * ratio)
    axes = (spec.angle, spec.doppler, spec.delay)
    assert [ax.n_points for ax in axes] == [n_points] * 3
    seen = []

    class SpyStack(virtual_array._WindowStack):
        def __init__(self, grid, starts):
            seen.append(starts.copy())
            super().__init__(grid, starts)

    monkeypatch.setattr(virtual_array, "_WindowStack", SpyStack)
    res = averaged_ssr(snap, [spec], cfg, n_solvers=16, seed=2)
    (starts,) = seen
    assert starts.min() >= 0 and starts.max() + n_points <= 2 * n_points - 1
    # the widest offset, k = n_points - 1, is drawn
    assert (starts == 0).any()
    for (points, _), start in zip(res.solver_estimates, starts):
        for ax, value, s in zip(axes, points[0], start):
            window = ax.superset_points()[s:s + ax.n_points]
            assert window[0] - 1e-9 * ax.step <= value <= window[-1] + 1e-9 * ax.step


def ssr_close_grid(bin_meta):
    """A neighborhood grid of the shipped ssr_close_angles geometry: 64x128
    grid, 16 Rx, the default 11 x 21 x 21 window."""
    cfg = SystemConfig(n_doppler=64, m_delay=128, n_tx=4, n_rx=16)
    est = CoarseEstimate(np.deg2rad(13.0), 0, 0, 8 * cfg.doppler_spacing_hz,
                         12 * cfg.delay_spacing_s, 0.0, 0.0, 1.0)
    weights = np.repeat(np.linspace(0.6, 1.4, len(bin_meta)), cfg.n_rx)
    return _FactoredGrid(default_neighborhood(est, cfg), bin_meta, cfg.n_rx, cfg, weights)


def all_window_starts(grid) -> np.ndarray:
    """One solver per Doppler-delay window start, angle windows cycling."""
    n_angle, n_doppler, n_delay = grid.window
    iv, it = np.divmod(np.arange(n_doppler * n_delay), n_delay)
    return np.column_stack([np.arange(iv.size) % n_angle, iv, it])


def unit_phase_free(cols: np.ndarray) -> np.ndarray:
    """Columns with their first entry's phase divided out: the unit phase
    exp(-j2pi nu tau) that all rows of a column share drops out."""
    return cols * (abs(cols[..., :1]) / cols[..., :1])


@pytest.mark.parametrize("cfg_grid", ["small", "ssr-close"])
def test_scattered_bins_keep_every_cell_a_column(cfg_grid):
    """Private bins off the n = m diagonal: every Doppler-delay cell of a
    window is its own group, so the solvers score every cell."""
    bin_meta = tuple((owner, b) for owner, b in SCATTERED_BINS.private_bin_list())
    if cfg_grid == "small":
        snap, specs, cfg = _ssr_case([12.0], [11.0], alloc=SCATTERED_BINS)
        grid = _FactoredGrid(specs[0], bin_meta, snap.n_rx, cfg, snap.row_weights)
    else:
        grid = ssr_close_grid(bin_meta)
    n_cells = grid.window[1] * grid.window[2]
    np.testing.assert_array_equal(grid.members, np.arange(n_cells)[:, None])


def test_ssr_close_windows_hold_61_distinct_columns():
    """Diagonal private bins on the ssr_close_angles lattice: each 21 x 21
    window holds 61 distinct Doppler-delay columns (nu dt - tau df takes 61
    values). Every cell's column equals its group's scored cell's column
    within 1e-12, up to the unit phase common to its rows, and cells of
    different groups hold different columns."""
    grid = ssr_close_grid(tuple((p, (p, p)) for p in range(4)))
    n_angle, n_doppler, n_delay = grid.window
    assert (n_doppler, n_delay) == (21, 21)
    assert len(grid.members) == 61
    group = group_of_cells(grid)
    # every fifth Doppler-delay window start
    starts = all_window_starts(grid)[::5]
    win = virtual_array._WindowStack(grid, starts)
    iv, it = np.divmod(np.arange(n_doppler * n_delay), n_delay)
    for s, (ia, v0, t0) in enumerate(starts):
        cells = unit_phase_free(grid.columns(np.full(iv.size, ia), v0 + iv, t0 + it))
        rv, rt = np.divmod(win.rep[s], n_delay)
        reps = unit_phase_free(grid.columns(np.full(rv.size, ia), v0 + rv, t0 + rt))
        scale = np.abs(cells).max()
        assert np.abs(cells - reps[group]).max() <= 1e-12 * scale
        if s % 45 == 0:
            # the groups are exactly the classes of equal columns
            dist = np.abs(cells[:, None] - cells[None, :]).max(axis=2)
            np.testing.assert_array_equal(dist <= 1e-9 * scale,
                                          group[:, None] == group[None, :])


@pytest.mark.parametrize("alloc, tied", [
    (diagonal_allocation(4), False),
    # m = 2n: groups run along the lattice diagonal, symmetric about the
    # centre, so a group's two middle cells can tie
    (make_allocation(4, [(0, (1, 2)), (1, (2, 4)), (2, (3, 6))]), True),
], ids=["diagonal", "m-2n"])
def test_each_group_scores_its_least_penalty_cell(alloc, tied):
    """Of each group of a window, the solver scores the cell of least
    Doppler-delay penalty, the lowest flat index on an exact tie; its
    penalty is then the group's least at every angle of the window."""
    grid = ssr_close_grid(tuple(alloc.private_bin_list()))
    n_angle, n_doppler, n_delay = grid.window
    n_groups = len(grid.members)
    assert n_groups < n_doppler * n_delay
    starts = all_window_starts(grid)
    win = virtual_array._WindowStack(grid, starts)
    penalty2 = win.penalty2.reshape(len(starts), n_angle, n_groups)
    penalties = penalty_table(grid)
    ties = 0
    for s, (ia, v0, t0) in enumerate(starts):
        box = np.s_[ia:ia + n_angle, v0:v0 + n_doppler, t0:t0 + n_delay]
        dd = grid.dd_penalty[box[1:]].ravel()
        window_penalty = penalties[box].reshape(n_angle, -1)
        for k, members in enumerate(grid.members):
            members = members[members < dd.size]
            least = members[dd[members] == dd[members].min()]
            ties += least.size > 1
            assert win.rep[s, k] == least[0]
            np.testing.assert_array_equal(
                penalty2[s, :, k], window_penalty[:, members].min(axis=1) ** 2)
    assert (ties > 0) == tied


def test_averaged_ssr_peak_memory_in_the_ssr_close_geometry():
    """One call with the shipped ssr_close_angles geometry (64x128 grid,
    3 neighborhoods, 64 solvers, 4 private bins, 16 Rx) allocates at most
    11 MiB at its peak; keeping per-block copies of every solver's
    Doppler-delay windows would exceed it."""
    cfg = SystemConfig(n_doppler=64, m_delay=128, n_tx=4, n_rx=16)
    dnu, dtau = cfg.doppler_spacing_hz, cfg.delay_spacing_s
    targets = [Target(angle_rad=np.deg2rad(a), doppler_hz=(3.3 + 5 * k) * dnu,
                      delay_s=(4.6 + 7 * k) * dtau)
               for k, a in enumerate((12.0, 14.0, 16.0))]
    snap, _, _ = make_snapshot(cfg, targets, snr_db=20.0, seed=0)
    specs = [default_neighborhood(
        CoarseEstimate(np.deg2rad(13.0), 0, 0, round(t.doppler_hz / dnu) * dnu,
                       round(t.delay_s / dtau) * dtau, 0.0, 0.0, 1.0), cfg)
        for t in targets]
    tracemalloc.start()
    try:
        averaged_ssr(snap, specs, cfg, n_solvers=64, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2 ** 20


def test_small_windows_keep_the_block_and_its_memory_bounded():
    """Two-point windows on every axis score at most 2 x 4 cells, so the
    cell budget alone would put thousands of solvers in one block, each
    holding vectors of N_p * N_r entries per neighborhood. Blocks hold at
    most MAX_BLOCK solvers and each finishes its own solvers, so the traced
    peak of a whole averaged_ssr call does not grow with n_solvers: four
    blocks' worth of solvers peak as one block does."""
    cfg = small_cfg(n_rx=256)
    dnu, dtau = cfg.doppler_spacing_hz, cfg.delay_spacing_s
    targets = [Target(angle_rad=np.deg2rad(-20.0 + 20.0 * k), doppler_hz=(1.3 + 2 * k) * dnu,
                      delay_s=(2.4 + 4 * k) * dtau) for k in range(3)]
    snap, _, _ = make_snapshot(cfg, targets, snr_db=20.0, seed=3)
    specs = [NeighborhoodSpec(angle=AxisSpec(t.angle_rad, np.deg2rad(1.0), np.deg2rad(1.0)),
                              doppler=AxisSpec(round(t.doppler_hz / dnu) * dnu, 0.1 * dnu, 0.1 * dnu),
                              delay=AxisSpec(round(t.delay_s / dtau) * dtau, 0.1 * dtau, 0.1 * dtau))
             for t in targets]
    grids = [_FactoredGrid(spec, snap.bin_meta, snap.n_rx, cfg, snap.row_weights)
             for spec in specs]
    assert all(g.window == (2, 2, 2) for g in grids)
    assert virtual_array.CELL_BUDGET // 8 > 100 * virtual_array.MAX_BLOCK
    assert _solver_block(grids) == virtual_array.MAX_BLOCK
    peaks = []
    for n_solvers in (virtual_array.MAX_BLOCK, 4 * virtual_array.MAX_BLOCK):
        tracemalloc.start()
        try:
            averaged_ssr(snap, specs, cfg, n_solvers=n_solvers, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_window_starts_follow_the_scalar_draws(monkeypatch):
    """The window starts of every block equal n_points - 1 - k for the draws
    k that one scalar ``integers`` call per neighborhood and axis makes."""
    cfg = small_cfg(n_rx=8)
    t = Target(angle_rad=0.1, delay_s=2 * cfg.delay_spacing_s,
               doppler_hz=cfg.doppler_spacing_hz)
    snap, _, _ = make_snapshot(cfg, [t], snr_db=10.0, seed=1)
    est = CoarseEstimate(0.1, 1, 2, t.doppler_hz, t.delay_s, 0.0, 0.0, 1.0)
    specs = [default_neighborhood(est, cfg, angle_width_deg=w, doppler_width_bins=0.1 * d,
                                  delay_width_bins=0.1 * d)
             for w, d in ((4.0, 1), (7.0, 3))]
    seen = []

    class SpyStack(virtual_array._WindowStack):
        def __init__(self, grid, starts):
            seen.append(starts.copy())
            super().__init__(grid, starts)

    monkeypatch.setattr(virtual_array, "_WindowStack", SpyStack)
    n_solvers = _solver_block([_FactoredGrid(spec, snap.bin_meta, snap.n_rx, cfg,
                                             snap.row_weights) for spec in specs]) + 3
    averaged_ssr(snap, specs, cfg, n_solvers=n_solvers, seed=11)
    assert len(seen) == 2 * len(specs)
    starts = np.stack([np.concatenate(seen[tid::len(specs)]) for tid in range(len(specs))],
                      axis=1)
    for s in range(n_solvers):
        for tid, (spec, draws) in enumerate(zip(specs, window_draws(specs, 11, s))):
            axes = (spec.angle, spec.doppler, spec.delay)
            assert list(starts[s, tid]) == [ax.n_points - 1 - k for ax, k in zip(axes, draws)]


def test_averaged_ssr_needs_a_neighborhood():
    cfg = small_cfg(n_rx=8)
    snap, _, _ = make_snapshot(cfg, [Target(0.1, 1e-7, 1000.0)])
    with pytest.raises(ValueError):
        averaged_ssr(snap, [], cfg)
