"""Reference implementations that the package's fast paths are tested against.

``serial_averaged_ssr`` runs the bagged solvers of
:func:`otfs_isac.virtual_array.averaged_ssr` one after another, each scoring
its own offset window with explicit einsum contractions: the algorithm as
written, without batching across solvers.

The explicit (NM x NM) matrices, the stacked LMMSE solve and the
single-path DD response are direct forms of what the package computes with
FFTs, per-TF-bin factorizations and closed forms; small grids only.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from otfs_isac.channel import tf_channel_grid
from otfs_isac.config import Target, substream
from otfs_isac.exceptions import DimensionMismatch
from otfs_isac.virtual_array import (DEFAULT_SWEEPS, PERP_FLOOR, TIE_RTOL,
                                     _dequantize, _FactoredGrid, _quantize)


def window_box(grid: _FactoredGrid, offsets: tuple) -> tuple:
    """Superset-lattice slices of one solver's offset window."""
    spec = grid.spec
    a0 = spec.angle.window_start(offsets[0])
    v0 = spec.doppler.window_start(offsets[1])
    t0 = spec.delay.window_start(offsets[2])
    return (slice(a0, a0 + spec.angle.n_points),
            slice(v0, v0 + spec.doppler.n_points),
            slice(t0, t0 + spec.delay.n_points))


def correlations(grid: _FactoredGrid, residual: np.ndarray, box) -> np.ndarray:
    """|column^H residual| over one window of the lattice."""
    sw, g = grid.sw[:, :, box[0]], grid.g[:, box[1], :][:, :, box[2]]
    r = residual.reshape(sw.shape[0], grid.n_rx)
    t = np.einsum("pni,pn->pi", sw.conj(), r)
    return np.abs(np.einsum("pvt,pi->ivt", g.conj(), t))


def projections(grid: _FactoredGrid, q: np.ndarray, box) -> np.ndarray:
    """|Q^H column|^2 summed over the orthonormal columns of Q, on one window."""
    sw, g = grid.sw[:, :, box[0]], grid.g[:, box[1], :][:, :, box[2]]
    qr_ = q.reshape(sw.shape[0], grid.n_rx, q.shape[1])
    qs = np.einsum("pnj,pni->jpi", qr_.conj(), sw)
    m = np.einsum("jpi,pvt->jivt", qs, g)
    return np.sum(np.abs(m) ** 2, axis=0)


def box_argmax(scores: np.ndarray, box: tuple) -> tuple:
    local = np.unravel_index(int(np.argmax(scores)), scores.shape)
    return tuple(i + s.start for i, s in zip(local, box))


def solve_windows(y: np.ndarray, grids: list, boxes: list,
                  sweeps: int = DEFAULT_SWEEPS):
    """One solver: greedy one-pick-per-neighborhood start, then sweeps."""
    n_tid = len(grids)
    picks: list = [None] * n_tid
    residual = y.copy()
    for _ in range(n_tid):
        best = (-np.inf, None, None)
        for tid, (grid, box) in enumerate(zip(grids, boxes)):
            if picks[tid] is not None:
                continue
            corr = correlations(grid, residual, box) / grid.center_penalty[box]
            idx = box_argmax(corr, box)
            if corr.max() > best[0] * (1.0 + TIE_RTOL):
                best = (corr.max(), tid, idx)
        picks[best[1]] = best[2]
        cols = np.column_stack([grids[t].column(p)
                                for t, p in enumerate(picks) if p is not None])
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        residual = y - cols @ coef
    for _ in range(sweeps):
        changed = False
        for tid in range(n_tid):
            others = [grids[t].column(p) for t, p in enumerate(picks) if t != tid]
            grid, box = grids[tid], boxes[tid]
            if others:
                q, _ = np.linalg.qr(np.column_stack(others))
                resid_perp = y - q @ (q.conj().T @ y)
                num = correlations(grid, resid_perp, box)
                den = np.sqrt(np.maximum(
                    grid.norm ** 2 - projections(grid, q, box),
                    PERP_FLOOR * grid.norm ** 2))
                scores = num / (den * grid.center_penalty[box])
            else:
                scores = correlations(grid, y, box) / grid.center_penalty[box]
            idx = box_argmax(scores, box)
            if idx != picks[tid]:
                picks[tid] = idx
                changed = True
        if not changed:
            break
    cols = np.column_stack([grids[t].column(p) for t, p in enumerate(picks)])
    coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
    residual_norm = float(np.linalg.norm(y - cols @ coef))
    points = np.array([grids[t].point(p) for t, p in enumerate(picks)])
    return points, residual_norm


def serial_averaged_ssr(snapshot, specs, cfg, n_solvers: int, seed: int = 0,
                        sweeps: int = DEFAULT_SWEEPS,
                        aggregate: str = "min_residual") -> dict:
    """The bagged solvers run one at a time, with the same window draws."""
    weights = snapshot.row_weights
    y = snapshot.values * weights
    grids = [_FactoredGrid(spec, snapshot.bin_meta, snapshot.n_rx, cfg, weights)
             for spec in specs]
    solver_estimates = []
    for s in range(n_solvers):
        rng = substream(seed, s)
        boxes = []
        for spec, grid in zip(specs, grids):
            offs = tuple(rng.choice(ax.offset_choices())
                         for ax in (spec.angle, spec.doppler, spec.delay))
            boxes.append(window_box(grid, offs))
        solver_estimates.append(solve_windows(y, grids, boxes, sweeps=sweeps))
    votes = [Counter(_quantize(points[tid], spec) for points, _ in solver_estimates)
             for tid, spec in enumerate(specs)]
    if aggregate == "min_residual":
        residual, estimates = min(solver_estimates, key=lambda e: e[1])[::-1]
    else:
        estimates = []
        for tid, spec in enumerate(specs):
            top = max(votes[tid].values())
            tied = [k for k, v in votes[tid].items() if v == top]
            best = {k: min(r for p, r in solver_estimates
                           if _quantize(p[tid], spec) == k) for k in tied}
            estimates.append(_dequantize(min(tied, key=best.get), spec))
        estimates = np.array(estimates)
        residual = min(r for _, r in solver_estimates)
    return {"solver_estimates": solver_estimates, "estimates": estimates,
            "residual": residual, "vote_counts": tuple(votes)}


def isfft_matrix(n: int, m: int) -> np.ndarray:
    """Explicit (NM x NM) matrix of ``isfft`` in vectorized coordinates."""
    fn = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    fm = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m)
    return np.kron(fn.conj(), fm) / (n * m)


def dd_circular_shift_operator(k_shift: int, l_shift: int, gain: complex,
                               n: int, m: int) -> np.ndarray:
    """Explicit DD operator of a single on-grid path.

    The DD response of an on-grid path is a phase-weighted circular shift by
    its (Doppler, delay) indices; the phase is gain * exp(-j2pi k l / NM).
    """
    k = np.arange(n)[:, None]
    l = np.arange(m)[None, :]
    rows = (l + k * m).ravel()
    cols = (((l - l_shift) % m) + ((k - k_shift) % n) * m).ravel()
    op = np.zeros((n * m, n * m), dtype=complex)
    op[rows, cols] = gain * np.exp(-2j * np.pi * k_shift * l_shift / (n * m))
    return op


def dd_channel_operator(paths, cfg, pair_gains=None,
                        method: str = "compose") -> np.ndarray:
    """Explicit DD-domain channel matrix for one (rx, tx) antenna pair.

    ``pair_gains`` replaces each path's complex gain; otherwise the path's
    own gain applies. method="compose" goes ISFFT -> TF multiplication ->
    SFFT and is exact for fractional parameters; method="shift" uses the
    on-grid circular-shift closed form and requires integer grid indices.
    """
    n, m = cfg.n_doppler, cfg.m_delay
    if pair_gains is None:
        pair_gains = [p.gain for p in paths]
    if len(pair_gains) != len(paths):
        raise ValueError("one gain per path required")
    op = np.zeros((n * m, n * m), dtype=complex)
    if method == "shift":
        for path, gain in zip(paths, pair_gains):
            k_idx = path.doppler_hz / cfg.doppler_spacing_hz
            l_idx = path.delay_s / cfg.delay_spacing_s
            k_int, l_int = round(k_idx), round(l_idx)
            if not (np.isclose(k_idx, k_int) and np.isclose(l_idx, l_int)):
                raise ValueError("shift method requires on-grid paths")
            op += dd_circular_shift_operator(k_int % n, l_int % m, gain, n, m)
        return op
    if method != "compose":
        raise ValueError(f"unknown method {method!r}")
    g = isfft_matrix(n, m)
    s = (n * m) * g.conj().T            # unit-scale SFFT matrix
    for path, gain in zip(paths, pair_gains):
        scaled = Target(path.angle_rad, path.delay_s, path.doppler_hz, gain)
        h_tf = tf_channel_grid(scaled, cfg).ravel()
        op += s @ (h_tf[:, None] * g)
    return op


def lmmse_equalize(y: np.ndarray, h: np.ndarray, noise_var: float) -> np.ndarray:
    """x_hat = (H^H H + noise_var I)^{-1} H^H y via a stable linear solve."""
    y = np.asarray(y, dtype=complex).ravel()
    if h.shape[0] != y.size:
        raise DimensionMismatch(f"channel rows {h.shape[0]} vs observation {y.size}")
    gram = h.conj().T @ h
    gram[np.diag_indices_from(gram)] += noise_var
    return np.linalg.solve(gram, h.conj().T @ y)


def single_path_response(tau: float, nu: float, u: float, phi: float,
                         n_r: int, k: int, l: int, cfg,
                         beta_mag: float = 1.0) -> complex:
    """Single-path DD sensing response h_{n_r,k,l}(theta).

    Valid for arbitrary (off-grid) delay and Doppler; the lumped phase phi
    absorbs the transmit-array response.
    """
    n, m = cfg.n_doppler, cfg.m_delay
    dt, df = cfg.symbol_duration_s, cfg.subcarrier_spacing_hz
    dop_sum = np.sum(np.exp(-2j * np.pi * (k - nu * n * dt) * np.arange(n) / n))
    del_sum = np.sum(np.exp(2j * np.pi * np.arange(m) * (l - tau * m * df) / m))
    return (beta_mag * np.exp(1j * (u * n_r + phi)) / (n * m)) * dop_sum * del_sum


def single_path_response_derivatives(tau: float, nu: float, u: float, phi: float,
                                     n_r: int, k: int, l: int, cfg,
                                     beta_mag: float = 1.0) -> np.ndarray:
    """Analytic gradient of :func:`single_path_response` w.r.t. theta.

    Returns [dh/dtau, dh/dnu, dh/du, dh/dphi].
    """
    n, m = cfg.n_doppler, cfg.m_delay
    dt, df = cfg.symbol_duration_s, cfg.subcarrier_spacing_hz
    nn = np.arange(n)
    mm = np.arange(m)
    dop_terms = np.exp(-2j * np.pi * (k - nu * n * dt) * nn / n)
    del_terms = np.exp(2j * np.pi * mm * (l - tau * m * df) / m)
    front = beta_mag * np.exp(1j * (u * n_r + phi)) / (n * m)
    dop_sum = dop_terms.sum()
    del_sum = del_terms.sum()
    d_tau = front * dop_sum * np.sum(del_terms * (-2j * np.pi * mm * df))
    d_nu = front * np.sum(dop_terms * (2j * np.pi * nn * dt)) * del_sum
    d_u = front * (1j * n_r) * dop_sum * del_sum
    d_phi = front * 1j * dop_sum * del_sum
    return np.array([d_tau, d_nu, d_u, d_phi])
