"""Reference implementations that the package's fast paths are tested against.

``serial_averaged_ssr`` runs the bagged solvers of
:func:`otfs_isac.virtual_array.averaged_ssr` one after another, each scoring
its own offset window with explicit einsum contractions: the algorithm as
written, without batching across solvers.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from otfs_isac.config import substream
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
    weights = snapshot.weights()
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
