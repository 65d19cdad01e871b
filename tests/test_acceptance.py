"""Acceptance gate: one test per top-level behavioral criterion.

Each test is self-contained and uses independent oracles (direct sums,
explicit matrix algebra, exhaustive search) or published reference numbers
as its expected values. The Monte Carlo criteria 04, 06, 07, 08 and 10 run
their scenario through the shipped runner and score its trials.csv rows
with their own limits and formulas.
"""

import csv
import itertools
import math
import time

import numpy as np

from otfs_isac import experiments
from otfs_isac.allocation import diagonal_allocation, rate_accounting
from otfs_isac.channel import radar_receive, tf_channel_grid
from otfs_isac.coarse import coarse_pipeline, estimate_angles, resolution_report
from otfs_isac.comm import symbol_capacity, transmit_chain
from otfs_isac.config import SPEED_OF_LIGHT, SystemConfig, Target, substream
from otfs_isac.crlb import crlb_closed_form, crlb_report
from otfs_isac.experiments import run_scenario
from otfs_isac.scenario import EstimatorSettings, scenario_from_dict
from otfs_isac.transforms import isfft, sfft
from otfs_isac.virtual_array import (averaged_ssr, build_virtual_snapshot,
                                     default_neighborhood)
from oracles import (SsrDictionary, asymptotic_fim, omp, single_path_response,
                     single_path_response_derivatives)

THREE_TARGET_ANGLES_DEG = [7.0, -14.0, 22.0]
THREE_TARGET_RANGES_M = [73.48, 64.29, 45.92]
THREE_TARGET_VELOCITIES_MPS = [54.54, -98.17, 76.36]
CLOSE_ANGLES_DEG = [12.0, 14.0, 16.0]


def three_targets(angles_deg):
    """Scenario targets at ``angles_deg`` with the three-target ranges and velocities."""
    return [{"angle_deg": a, "range_m": r, "velocity_mps": v}
            for a, r, v in zip(angles_deg, THREE_TARGET_RANGES_M,
                               THREE_TARGET_VELOCITIES_MPS)]


def run_trials(out_dir, raw):
    """The scenario of ``raw`` and its trials.csv, run by ``run_scenario`` on
    2 workers, as {snr_db: {trial: {metric: value}}}."""
    scenario = scenario_from_dict(raw)
    paths = run_scenario(scenario, out_dir / scenario.name, parallel=2)
    table = {}
    with open(paths["trials"], newline="") as fh:
        for row in csv.DictReader(fh):
            cells = table.setdefault(float(row["snr_db"]), {})
            cells.setdefault(int(row["trial"]), {})[row["metric"]] = float(row["value"])
    return scenario, table


def sorted_estimates(rows, n):
    """The ``angle_est_rad_t{j}`` rows of one trial, sorted; None if one is missing."""
    try:
        return np.sort([rows[f"angle_est_rad_t{j}"] for j in range(n)])
    except KeyError:
        return None


def random_frame(cfg, alloc, rng):
    bits = rng.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    return transmit_chain(bits, alloc, cfg)


def test_criterion_01_transform_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    for n, m in [(2, 2), (2, 4), (4, 4), (8, 8)]:
        dd = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        # round trip
        assert np.max(np.abs(sfft(isfft(dd)) - dd)) <= 1e-10
        # direct double-sum oracle
        oracle = np.zeros((n, m), dtype=complex)
        for nn in range(n):
            for mm in range(m):
                for k in range(n):
                    for l in range(m):
                        oracle[nn, mm] += dd[k, l] * np.exp(
                            2j * np.pi * (k * nn / n - mm * l / m))
        oracle /= n * m
        assert np.max(np.abs(isfft(dd) - oracle)) <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_02_tf_route_matches_circular_convolution_oracle():
    cfg = SystemConfig(n_doppler=8, m_delay=8, n_tx=1, n_rx=1)
    rng = np.random.default_rng(101)
    dd = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    paths = [(0, 0, 0.9 + 0.2j), (2, 3, -0.5 + 0.7j), (5, 7, 0.3 - 0.4j)]
    targets = [Target(0.0, l * cfg.delay_spacing_s, k * cfg.doppler_spacing_hz, g)
               for k, l, g in paths]
    route = sfft(sum(tf_channel_grid(t, cfg) for t in targets) * isfft(dd))
    oracle = np.zeros_like(dd)
    for k, l, g in paths:
        oracle += g * np.exp(-2j * np.pi * k * l / 64) * np.roll(dd, (k, l),
                                                                 axis=(0, 1))
    assert np.max(np.abs(route - oracle)) <= 1e-9


def test_criterion_03_resolution_reference_numbers():
    rep = resolution_report(SystemConfig(m_delay=2048,
                                         subcarrier_spacing_hz=120e3))
    assert abs(rep["range_resolution_m"] - 0.61) <= 0.01
    rep = resolution_report(SystemConfig(n_doppler=32, carrier_freq_hz=24.25e9,
                                         subcarrier_spacing_hz=120e3))
    assert abs(rep["velocity_resolution_mps"] - 23.09) <= 0.01 * 23.09


def test_criterion_04_coarse_three_target_recovery(tmp_path):
    start = time.perf_counter()
    cfg = SystemConfig()  # N=64, M=128, N_t=4, N_r=16
    pad = 16
    _, table = run_trials(tmp_path, {
        "name": "criterion-04", "experiment_kind": "dd-correlation",
        "targets": three_targets(THREE_TARGET_ANGLES_DEG),
        "allocation": {"diagonal_private_bins": 4},
        "estimator": {"dft_pad_factor": pad},
        "trials": 100, "snr_db_values": [20.0], "seed": 4})
    res = resolution_report(cfg)
    limits = {   # the sine error within one padded-DFT bin
        "angle_abs_err_sin": 2.0 / (pad * cfg.n_rx) + 1e-12,
        "range_abs_err_m": res["range_resolution_m"],
        "velocity_abs_err_mps": res["velocity_resolution_mps"],
    }
    trials = table[20.0]
    assert sorted(trials) == list(range(100))
    # a hit: all three targets estimated, each within every limit
    hits = sum(all(f"{name}_t{j}" in rows and rows[f"{name}_t{j}"] <= limit
                   for name, limit in limits.items() for j in range(3))
               for rows in trials.values())
    assert hits >= 95
    assert time.perf_counter() - start < 120.0


def test_criterion_05_crlb_closed_forms_and_derivatives():
    # closed forms vs numeric inverse over a parameter sweep
    for n, m, nr in [(8, 8, 4), (16, 32, 8), (64, 128, 16), (32, 64, 12),
                     (64, 128, 8)]:
        cfg = SystemConfig(n_doppler=n, m_delay=m, n_rx=nr)
        inv = np.linalg.inv(asymptotic_fim(cfg, 11.0))
        closed = crlb_closed_form(cfg, 11.0)
        for key, idx in (("tau_crlb", 0), ("nu_crlb", 1), ("omega_crlb", 2)):
            assert abs(closed[key] - inv[idx, idx].real) \
                <= 1e-8 * abs(inv[idx, idx].real)
    # analytic derivatives vs central finite differences on a 4x4 grid
    cfg = SystemConfig(n_doppler=4, m_delay=4, n_rx=4)
    theta = np.array([0.7 * cfg.delay_spacing_s, 1.3 * cfg.doppler_spacing_hz,
                      0.9, 0.4])
    steps = np.array([1e-6 * cfg.delay_spacing_s,
                      1e-6 * cfg.doppler_spacing_hz, 1e-6, 1e-6])
    for n_r, k, l in itertools.product(range(4), range(4), range(4)):
        analytic = single_path_response_derivatives(*theta, n_r, k, l, cfg)
        for i in range(4):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += steps[i]
            tm[i] -= steps[i]
            fd = (single_path_response(*tp, n_r, k, l, cfg)
                  - single_path_response(*tm, n_r, k, l, cfg)) / (2 * steps[i])
            assert abs(fd - analytic[i]) <= 1e-5 * max(abs(analytic[i]), 1e-12)


def test_criterion_06_coarse_angle_mse_statistics(tmp_path):
    cfg = SystemConfig()
    pad = 16
    n_trials = 300
    sc, table = run_trials(tmp_path, {
        "name": "criterion-06", "experiment_kind": "coarse-angle-mse",
        "targets": [], "estimator": {"dft_pad_factor": pad},
        "trials": n_trials, "snr_db_values": [-20.0, -10.0, 0.0, 10.0, 20.0],
        "seed": 6})
    k = pad * cfg.n_rx
    sin_grid = np.fft.fftfreq(k) * cfg.wavelength_m / cfg.g_r
    angle_grid = np.arcsin(sin_grid[np.abs(sin_grid) <= 1.0])
    results = {}
    for si, snr_db in enumerate(sc.snr_db_values):
        se_avg, se_one, crlbs, floors = [], [], [], []
        for trial in range(n_trials):
            rows = table[snr_db][trial]
            # the true angle: the kind's own draw on the runner's stream
            true = experiments._single_target(sc, substream(sc.seed, si, trial, 0))[1]
            floor = (angle_grid[np.argmin(np.abs(angle_grid - true))] - true) ** 2
            assert rows["angle_floor_rad2"] == floor, f"SNR {snr_db} trial {trial}"
            se_avg.append(rows["angle_sq_err_all_bins_rad2"])
            se_one.append(rows["angle_sq_err_single_bin_rad2"])
            crlbs.append(crlb_report(cfg, snr_db,
                                     ref_angle_rad=true)["angle_crlb_rad2"])
            floors.append(floor)
        results[snr_db] = tuple(map(np.mean, (se_avg, se_one, crlbs, floors)))
    for snr_db, (mse_avg, mse_one, crlb, floor) in results.items():
        # averaging over bins always helps
        assert mse_avg < mse_one, f"SNR {snr_db}"
        # the single-bin estimator respects the bound (0.9: 95% confidence
        # margin on 300 trials)
        assert mse_one >= 0.9 * crlb, f"SNR {snr_db}"
        # the averaged estimator respects the bound except where it sits on
        # the search-grid discretization floor (grid-prior regime)
        assert mse_avg >= 0.9 * crlb or mse_avg <= 4.0 * floor, f"SNR {snr_db}"
    # at high SNR the averaged estimator reaches the discretization floor
    mse_avg, _, _, floor = results[20.0]
    assert abs(10 * np.log10(mse_avg / floor)) <= 3.0


def test_criterion_07_virtual_array_resolves_close_targets(tmp_path):
    start = time.perf_counter()
    cfg = SystemConfig()  # N_r=16, N_p=4 via diagonal allocation
    true = np.deg2rad(np.sort(CLOSE_ANGLES_DEG))
    sc, table = run_trials(tmp_path, {
        "name": "criterion-07", "experiment_kind": "ssr-angle",
        "targets": three_targets(CLOSE_ANGLES_DEG),
        "estimator": {"n_angles": 1, "peaks_per_angle": 3, "n_solvers": 64},
        "trials": 100, "snr_db_values": [20.0], "seed": 7})
    # SSR separates all three angles to within 1 degree; a trial without
    # estimates is a miss
    ssr_hits = 0
    for rows in table[20.0].values():
        estimated = sorted_estimates(rows, 3)
        ssr_hits += int(estimated is not None and np.max(np.abs(estimated - true))
                        <= np.deg2rad(1.0) + 1e-12)
    # the averaged DFT spectrum of the runner's frames shows a single dominant peak
    one_peak = 0
    for trial in range(100):
        cell = experiments._frame(experiments.Cell(sc, 20.0, 0, trial),
                                  experiments._random_gains)
        _, omegas, power = estimate_angles(cell.scene[1], 1, cfg, pad_factor=16)
        valid = np.abs(omegas * cfg.wavelength_m
                       / (2 * np.pi * cfg.g_r)) <= 1.0
        maxima = ((power > np.roll(power, 1)) & (power >= np.roll(power, -1))
                  & valid & (power >= 0.5 * power[valid].max()))
        one_peak += int(np.count_nonzero(maxima) == 1)
    assert one_peak >= 90
    assert ssr_hits >= 90
    assert time.perf_counter() - start < 300.0


def test_criterion_08_private_bin_monotonicity(tmp_path):
    true = np.deg2rad(np.sort(CLOSE_ANGLES_DEG))
    allocations = {
        1: {"private_bins": [[0, [0, 0]]]},
        4: {"diagonal_private_bins": 4},
    }
    nmse = {}
    for n_p, allocation in allocations.items():
        _, table = run_trials(tmp_path, {
            "name": f"criterion-08-{n_p}-bins", "experiment_kind": "ssr-angle",
            "system": {"n_rx": 8}, "targets": three_targets(CLOSE_ANGLES_DEG),
            "allocation": allocation,
            "estimator": {"n_angles": 1, "peaks_per_angle": 3, "n_solvers": 8},
            "trials": 300, "snr_db_values": [20.0], "seed": 8})
        estimates = [sorted_estimates(table[20.0][trial], 3) for trial in range(300)]
        # every trial's coarse stage succeeded
        assert all(e is not None for e in estimates), f"{n_p} bins"
        nmse[n_p] = np.mean([np.sum((e - true) ** 2) / np.sum(true ** 2)
                             for e in estimates])
    # 1.1: 95% confidence allowance; the observed margin is over an order of
    # magnitude
    assert nmse[4] <= 1.1 * nmse[1]


def test_criterion_09_omp_matches_exhaustive_search():
    rng = np.random.default_rng(109)
    n_rows, n_cols = 48, 30
    for instance in range(100):
        while True:
            a = rng.standard_normal((n_rows, n_cols)) \
                + 1j * rng.standard_normal((n_rows, n_cols))
            a /= np.linalg.norm(a, axis=0)
            gram_abs = np.abs(a.conj().T @ a)
            np.fill_diagonal(gram_abs, 0.0)
            if gram_abs.max() < 0.5:
                break
        s = int(rng.integers(1, 4))
        support = sorted(rng.choice(n_cols, size=s, replace=False).tolist())
        coef = ((0.5 + rng.random(s))
                * np.exp(2j * np.pi * rng.random(s)))
        y = a[:, support] @ coef
        d = SsrDictionary(matrix=a, column_norms=np.ones(n_cols))
        omp_support = sorted(omp(y, d, k_sparse=s).support)
        # exhaustive least-squares over all size-s supports (batched)
        combos = np.array(list(itertools.combinations(range(n_cols), s)))
        sub = a[:, combos]                       # (rows, n_comb, s)
        sub = np.moveaxis(sub, 1, 0)             # (n_comb, rows, s)
        gram = np.einsum("bra,brd->bad", sub.conj(), sub)
        rhs = np.einsum("bra,r->ba", sub.conj(), y)
        x = np.linalg.solve(gram, rhs[..., None])[..., 0]
        resid = np.linalg.norm(y[None, :] - np.einsum("bra,ba->br", sub, x),
                               axis=1)
        exhaustive = sorted(combos[int(np.argmin(resid))].tolist())
        assert omp_support == exhaustive == support, f"instance {instance}"


def test_criterion_10_communication_exactness_and_trend(tmp_path):
    cfg = SystemConfig(n_doppler=16, m_delay=32, n_tx=4)
    paths = [Target(0.0, l * cfg.delay_spacing_s, k * cfg.doppler_spacing_hz)
             for k, l in [(0, 0), (2, 3), (5, 7)]]
    targets = [{"angle_deg": 0.0, "range_m": p.range_m,
                "velocity_mps": p.velocity_mps(cfg.carrier_freq_hz)} for p in paths]
    ber = {}
    for n_c in (4, 8, 16):
        _, table = run_trials(tmp_path, {
            "name": f"criterion-10-{n_c}-rx", "experiment_kind": "comm-ber",
            "system": {"n_doppler": 16, "m_delay": 32, "n_tx": 4, "n_comm_rx": n_c},
            "targets": targets, "allocation": {"diagonal_private_bins": 4},
            "min_bits": 100_000,
            "snr_db_values": [20.0, math.inf] if n_c == 4 else [20.0], "seed": 10})
        if n_c == 4:
            # without noise every frame decodes exactly
            assert all(rows["bit_errors"] == 0 and rows["bit_count"] > 0
                       for rows in table[math.inf].values())
        frames = table[20.0].values()
        ber[n_c] = (sum(rows["bit_errors"] for rows in frames)
                    / sum(rows["bit_count"] for rows in frames))
    assert ber[4] > ber[8] > ber[16]


def test_criterion_11_rate_accounting_exact():
    alloc = diagonal_allocation(4)
    acc = rate_accounting(alloc, 64, 128, bits_per_symbol=2,
                          subcarrier_spacing_hz=120e3)
    assert acc["symbols_lost"] == 12
    assert acc["loss_fraction"] == 12 / 32768


def test_criterion_12_fractional_doppler_mse_tracks_crlb():
    cfg = SystemConfig(n_doppler=32, m_delay=128, n_tx=4, n_rx=16)
    alloc = diagonal_allocation(cfg.n_tx)
    range_m = 8 * resolution_report(cfg)["range_resolution_m"]
    snr_values = [-8.0, -4.0, 0.0, 4.0, 8.0]
    mses = []
    for snr_db in snr_values:
        errors = []
        for trial in range(30):
            rng = substream(99, trial, 0)
            v = rng.uniform(-100, 100)
            target = Target.from_range_velocity(
                10.0, range_m, v, cfg.carrier_freq_hz,
                gain=np.exp(2j * np.pi * rng.random()))
            _, x, tf = random_frame(cfg, alloc, rng)
            rx_tf = radar_receive(tf, [target], cfg, snr_db=snr_db,
                                  rng=substream(99, trial, 1))
            estimate = coarse_pipeline(rx_tf, x, cfg, n_angles=1)[0]
            snapshot = build_virtual_snapshot(rx_tf, tf, alloc)
            spec = default_neighborhood(estimate, cfg, EstimatorSettings(
                doppler_step_bins=0.02, doppler_width_bins=3.0))
            result = averaged_ssr(snapshot, [spec], cfg, n_solvers=8,
                                  seed=trial)
            v_hat = result.estimates[0][1] * SPEED_OF_LIGHT \
                / (2 * cfg.carrier_freq_hz)
            errors.append(v_hat - v)
        mses.append(np.mean(np.square(errors)))
    # monotone decreasing above the threshold SNR
    assert all(a > b for a, b in zip(mses, mses[1:]))
    # log-MSE slope matches the 1/SNR law of the bound within 20%
    slope = np.polyfit(np.asarray(snr_values) / 10.0, np.log10(mses), 1)[0]
    assert -1.2 <= slope <= -0.8
