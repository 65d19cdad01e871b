"""Reference implementations that the package's fast paths are tested against.

``serial_averaged_ssr`` runs the bagged solvers of
:func:`otfs_isac.virtual_array.averaged_ssr` one after another, each scoring
its own offset window with explicit einsum contractions: the algorithm as
written, without batching across solvers. ``exhaustive_ssr_minimum`` is the
global optimum the solvers search for: the least-squares residual of every
choice of one superset-lattice column per neighborhood, on tiny lattices.
``steering_columns`` is the
dictionary column as one explicit phase expression, which
:func:`otfs_isac.virtual_array.angle_surface` must reproduce. ``omp`` is
the reference orthogonal matching pursuit over an explicit ``SsrDictionary``
(Tropp and Gilbert, IEEE Trans. Inf. Theory 2007), which acceptance
criterion 09 checks against exhaustive search; the package's own search is
the bagged ``averaged_ssr``.

The explicit (NM x NM) matrices, the stacked LMMSE solve, the per-bin TF
channel, the single-path DD response and the numeric FIM are direct forms of
what the package computes with FFTs, per-TF-bin factorizations and closed
forms; small grids only. ``complex_noise_reference`` is the noise draw as one
complex expression, which the in-place draw must match byte for byte, and
``radar_receive_reference`` the radar receive stack as first written: one
``(N_r, N, M)`` term per target, then that noise drawn and added, which
``radar_receive`` and the frames of the runner, whose noise is drawn on its
worker thread, must match byte for byte.

``grid_isfft``, ``grid_sfft`` and ``serial_transmit_chain`` are the transform
and transmit layers as first written, one (N, M) grid at a time: the stacked
transforms and the mask-based transmit chain must match them bit for bit.

``dd_route_ber_frame`` is the communication link as first written, in the
DD domain: SFFT after the channel, noise added to the DD grids, LMMSE
equalization wrapped in ISFFT/SFFT and recovery from equalized DD grids.
Its equalizer is ``stacked_lmmse_equalize_tf``, one ``np.linalg.solve`` per
TF bin, and its recovery inverts each antenna's reduced ISFFT matrix
explicitly, so it calls neither stage that it checks. The TF-domain
``comm.ber_frame`` must count the same bit errors.

``padded_fft_estimate_angles`` and ``lstsq_angle_profiles`` are the coarse
stage as first written: a zero-padded FFT of every DD snapshot and a generic
least-squares solve, against which the covariance-domain spectrum and the
one-SVD profile solve of :mod:`otfs_isac.coarse` are checked.
``dd_route_coarse_pipeline`` is the coarse chain on DD grids: the SFFT of
the whole receive stack, the DD sample covariance and one ``fft2``
correlation per angle. The TF-domain ``coarse.coarse_pipeline`` must find the
same estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from otfs_isac.channel import (complex_noise, noise_variance, rx_array_phase,
                                tf_channel_grid, tx_array_phase)
from otfs_isac.comm import (qpsk_demodulate, qpsk_modulate, random_pair_gains,
                            symbol_capacity, tf_block_channel, transmit_chain)
from otfs_isac.coarse import extract_angle_profiles
from otfs_isac.config import Target, substream
from otfs_isac.crlb import snr_linear
from otfs_isac.exceptions import (DimensionMismatch, PeakSeparationFailure,
                                  TooManyTargets)
from otfs_isac.transforms import isfft, sfft
from otfs_isac.virtual_array import (DEFAULT_SWEEPS, PERP_FLOOR, TIE_RTOL,
                                     _FactoredGrid, _centered)


def steering_columns(angles, dopplers, delays, bin_meta, n_rx: int,
                     cfg) -> np.ndarray:
    """Raw (un-normalized) dictionary columns for parameter triplets.

    Row (p, n_r), column c:
    exp(j2pi(n_r g_r - owner_p g_t) sin(angle_c)/lambda)
    * exp(-j2pi doppler_c delay_c)
    * exp(j2pi(doppler_c n_p dt - m_p df delay_c)).
    """
    angles = np.asarray(angles, dtype=float)
    dopplers = np.asarray(dopplers, dtype=float)
    delays = np.asarray(delays, dtype=float)
    owners = np.repeat([owner for owner, _ in bin_meta], n_rx).astype(float)
    n_p = np.repeat([b[0] for _, b in bin_meta], n_rx).astype(float)
    m_p = np.repeat([b[1] for _, b in bin_meta], n_rx).astype(float)
    nr = np.tile(np.arange(n_rx, dtype=float), len(bin_meta))
    spatial = (nr * cfg.g_r - owners * cfg.g_t) / cfg.wavelength_m
    dt, df = cfg.symbol_duration_s, cfg.subcarrier_spacing_hz
    phase = (np.outer(spatial, np.sin(angles))
             + dt * np.outer(n_p, dopplers)
             - df * np.outer(m_p, delays))
    return np.exp(2j * np.pi * phase) * np.exp(-2j * np.pi * dopplers * delays)[None, :]


def window_draws(specs, seed: int, solver: int) -> list:
    """One solver's window draws k per neighborhood and axis, one scalar
    ``integers`` call at a time from its substream."""
    rng = substream(seed, solver)
    return [tuple(rng.integers(ax.n_points) for ax in (spec.angle, spec.doppler, spec.delay))
            for spec in specs]


def window_box(spec, draws: tuple) -> tuple:
    """Superset-lattice slices of the window of one solver's draws k per axis
    in neighborhood ``spec``: each window starts at index n_points - 1 - k."""
    box = []
    for ax, k in zip((spec.angle, spec.doppler, spec.delay), draws):
        start = ax.n_points - 1 - k
        box.append(slice(start, start + ax.n_points))
    return tuple(box)


def dd_table(grid: _FactoredGrid) -> np.ndarray:
    """The Doppler-delay factor of ``grid``'s columns over its whole superset
    lattice, (n_dopplers, n_delays, N_p)."""
    phase = (grid.dt * np.einsum("p,v->vp", grid.n_p, grid.dopplers)[:, None, :]
             - grid.df * np.einsum("p,t->tp", grid.m_p, grid.delays)[None, :, :]
             - np.outer(grid.dopplers, grid.delays)[:, :, None])
    return np.exp(2j * np.pi * phase)


def penalty_table(grid: _FactoredGrid) -> np.ndarray:
    """The centre penalty over ``grid``'s whole superset lattice, (A, V, T):
    1 + 1e-3 times the squared angle, Doppler and delay distances from the
    centre, the Doppler-delay terms summed first."""
    dd = _centered(grid.dopplers.size)[:, None] + _centered(grid.delays.size)[None, :]
    return 1.0 + 1e-3 * (_centered(grid.angles.size)[:, None, None] + dd)


def correlations(grid: _FactoredGrid, residual: np.ndarray, box) -> np.ndarray:
    """|column^H residual| over one window of the lattice."""
    sw, g = grid.sw[box[0]], dd_table(grid)[box[1], box[2]]
    r = residual.reshape(sw.shape[1:])
    t = np.einsum("ipn,pn->pi", sw.conj(), r)
    return np.abs(np.einsum("vtp,pi->ivt", g.conj(), t))


def projections(grid: _FactoredGrid, q: np.ndarray, box) -> np.ndarray:
    """|Q^H column|^2 summed over the orthonormal columns of Q, on one window."""
    sw, g = grid.sw[box[0]], dd_table(grid)[box[1], box[2]]
    qr_ = q.reshape(*sw.shape[1:], q.shape[1])
    qs = np.einsum("pnj,ipn->jpi", qr_.conj(), sw)
    m = np.einsum("jpi,vtp->jivt", qs, g)
    return np.sum(np.abs(m) ** 2, axis=0)


def grid_point(grid: _FactoredGrid, idx: tuple) -> np.ndarray:
    """(angle, doppler, delay) at superset indices ``idx`` of ``grid``."""
    ia, iv, it = idx
    return np.array([grid.angles[ia], grid.dopplers[iv], grid.delays[it]])


def box_argmax(scores: np.ndarray, box: tuple) -> tuple:
    local = np.unravel_index(int(np.argmax(scores)), scores.shape)
    return tuple(i + s.start for i, s in zip(local, box))


def solve_windows(y: np.ndarray, grids: list, boxes: list,
                  sweeps: int = DEFAULT_SWEEPS):
    """One solver: greedy one-pick-per-neighborhood start, then sweeps."""
    n_tid = len(grids)
    penalties = [penalty_table(grid) for grid in grids]
    picks: list = [None] * n_tid
    residual = y.copy()
    for _ in range(n_tid):
        best = (-np.inf, None, None)
        for tid, (grid, box) in enumerate(zip(grids, boxes)):
            if picks[tid] is not None:
                continue
            corr = correlations(grid, residual, box) / penalties[tid][box]
            idx = box_argmax(corr, box)
            if corr.max() > best[0] * (1.0 + TIE_RTOL):
                best = (corr.max(), tid, idx)
        picks[best[1]] = best[2]
        cols = np.column_stack([grids[t].columns(*p)
                                for t, p in enumerate(picks) if p is not None])
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        residual = y - cols @ coef
    for _ in range(sweeps):
        changed = False
        for tid in range(n_tid):
            others = [grids[t].columns(*p) for t, p in enumerate(picks) if t != tid]
            grid, box = grids[tid], boxes[tid]
            if others:
                q, _ = np.linalg.qr(np.column_stack(others))
                resid_perp = y - q @ (q.conj().T @ y)
                num = correlations(grid, resid_perp, box)
                den = np.sqrt(np.maximum(
                    grid.norm ** 2 - projections(grid, q, box),
                    PERP_FLOOR * grid.norm ** 2))
                scores = num / (den * penalties[tid][box])
            else:
                scores = correlations(grid, y, box) / penalties[tid][box]
            idx = box_argmax(scores, box)
            if idx != picks[tid]:
                picks[tid] = idx
                changed = True
        if not changed:
            break
    cols = np.column_stack([grids[t].columns(*p) for t, p in enumerate(picks)])
    coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
    residual_norm = float(np.linalg.norm(y - cols @ coef))
    points = np.array([grid_point(g, p) for g, p in zip(grids, picks)])
    return points, residual_norm


def serial_averaged_ssr(snapshot, specs, cfg, n_solvers: int, seed: int = 0,
                        sweeps: int = DEFAULT_SWEEPS) -> dict:
    """The bagged solvers run one at a time, with the same window draws."""
    weights = snapshot.row_weights
    y = snapshot.values * weights
    grids = [_FactoredGrid(spec, snapshot.bin_meta, snapshot.n_rx, cfg, weights)
             for spec in specs]
    solver_estimates = []
    for s in range(n_solvers):
        boxes = [window_box(spec, d) for spec, d in zip(specs, window_draws(specs, seed, s))]
        solver_estimates.append(solve_windows(y, grids, boxes, sweeps=sweeps))
    estimates, residual = min(solver_estimates, key=lambda e: e[1])
    return {"solver_estimates": solver_estimates, "estimates": estimates,
            "residual": residual}


def exhaustive_ssr_minimum(snapshot, specs, cfg) -> tuple:
    """Smallest residual over one superset-lattice pick per neighborhood.

    Returns (points, residual norm) of the best choice, each candidate's
    residual computed as ``averaged_ssr`` computes its solvers' residuals:
    least squares on the whitened snapshot, columns in neighborhood order.
    Every combination is tried, so the lattices must be tiny.
    """
    weights = snapshot.row_weights
    y = snapshot.values * weights
    grids = [_FactoredGrid(spec, snapshot.bin_meta, snapshot.n_rx, cfg, weights)
             for spec in specs]
    lattices = [list(itertools.product(*(range(n) for n in (
        g.angles.size, g.dopplers.size, g.delays.size)))) for g in grids]
    best = (np.inf, None)
    for picks in itertools.product(*lattices):
        cols = np.column_stack([g.columns(*p) for g, p in zip(grids, picks)])
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        residual = float(np.linalg.norm(y - cols @ coef))
        if residual < best[0]:
            best = (residual, picks)
    residual, picks = best
    return np.array([grid_point(g, p) for g, p in zip(grids, picks)]), residual


@dataclass(frozen=True)
class SsrDictionary:
    """Unit-norm dictionary for ``omp``."""

    matrix: np.ndarray           # (n_rows, n_columns), columns unit l2
    column_norms: np.ndarray     # pre-normalization norms


@dataclass
class OmpResult:
    support: list
    coefficients: np.ndarray     # physical-scale (de-normalized) amplitudes
    residual_history: list
    rank_deficient: bool

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


def omp(values: np.ndarray, dictionary: SsrDictionary, k_sparse: int | None = None,
        residual_tol: float | None = None) -> OmpResult:
    """Orthogonal matching pursuit over the normalized dictionary.

    Stops after ``k_sparse`` selections, or when the residual norm drops
    below ``residual_tol``. Each iteration re-solves least squares on the
    selected support, so the residual norm is non-increasing.
    """
    a = dictionary.matrix
    y = np.asarray(values, dtype=complex).ravel()
    if y.size != a.shape[0]:
        raise DimensionMismatch(f"snapshot length {y.size} vs {a.shape[0]} dictionary rows")
    if k_sparse is None and residual_tol is None:
        raise ValueError("need a stopping rule: k_sparse or residual_tol")
    if k_sparse is not None and k_sparse > a.shape[0]:
        raise ValueError("k_sparse exceeds number of measurements")
    limit = k_sparse if k_sparse is not None else a.shape[0]
    support: list[int] = []
    coef = np.zeros(0, dtype=complex)
    residual = y.copy()
    history = [float(np.linalg.norm(residual))]
    rank_deficient = False
    for _ in range(limit):
        if residual_tol is not None and history[-1] < residual_tol:
            break
        corr = np.abs(a.conj().T @ residual)
        corr[support] = -1.0
        pick = int(np.argmax(corr))
        support.append(pick)
        sub = a[:, support]
        if np.linalg.matrix_rank(sub) < len(support):
            rank_deficient = True
            coef = np.linalg.pinv(sub) @ y
        else:
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        residual = y - sub @ coef
        history.append(float(np.linalg.norm(residual)))
    return OmpResult(
        support=support,
        coefficients=coef / dictionary.column_norms[support],
        residual_history=history,
        rank_deficient=rank_deficient,
    )


def isfft_matrix(n: int, m: int) -> np.ndarray:
    """Explicit (NM x NM) matrix of ``isfft`` in vectorized coordinates."""
    fn = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    fm = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m)
    return np.kron(fn.conj(), fm) / (n * m)


def grid_isfft(dd: np.ndarray) -> np.ndarray:
    """ISFFT of one (N, M) grid."""
    return np.fft.fft(np.fft.ifft(dd, axis=0), axis=1) / dd.shape[1]


def grid_sfft(tf: np.ndarray) -> np.ndarray:
    """SFFT of one (N, M) grid."""
    return np.fft.fft(np.fft.ifft(tf, axis=1), axis=0) * tf.shape[1]


def per_grid(transform, grids: np.ndarray) -> np.ndarray:
    """``transform`` applied to every (N, M) grid of a (..., N, M) stack."""
    grids = np.asarray(grids)
    flat = grids.reshape(-1, *grids.shape[-2:])
    return np.stack([transform(g) for g in flat]).reshape(grids.shape)


def place_symbols(symbols: np.ndarray, n: int, m: int, empty_dd=()) -> np.ndarray:
    """Fill a DD grid row-major with ``symbols``, zeros at the empty bins."""
    symbols = np.asarray(symbols, dtype=complex).ravel()
    index = np.asarray(sorted(b + a * m for a, b in empty_dd), dtype=int)
    if symbols.size != n * m - index.size:
        raise DimensionMismatch(
            f"expected {n * m - index.size} symbols, got {symbols.size}")
    flat = np.zeros(n * m, dtype=complex)
    flat[np.setdiff1d(np.arange(n * m), index, assume_unique=True)] = symbols
    return flat.reshape(n, m)


def serial_transmit_chain(bits: np.ndarray, alloc, cfg):
    """``comm.transmit_chain`` antenna by antenna: each antenna's share of the
    bits is placed row-major around its empty DD bins, transformed on its own
    and zero-forced on its own zero set."""
    bits = np.asarray(bits, dtype=int).ravel()
    caps = symbol_capacity(alloc, cfg)
    n, m = cfg.n_doppler, cfg.m_delay
    dd = np.empty((alloc.n_tx, n, m), dtype=complex)
    tf = np.empty_like(dd)
    start = 0
    for i in range(alloc.n_tx):
        symbols = qpsk_modulate(bits[start:start + 2 * caps[i]])
        start += 2 * caps[i]
        dd[i] = place_symbols(symbols, n, m, alloc.zero_bins[i])
        tf[i] = grid_isfft(dd[i])
        for (a, b) in alloc.zero_bins[i]:
            tf[i, a, b] = 0.0
    return dd, tf


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


def complex_noise_reference(shape, noise_var: float, rng) -> np.ndarray:
    """``channel.complex_noise`` as first written: two draws, then one complex
    expression."""
    return np.sqrt(noise_var / 2.0) * (rng.standard_normal(shape)
                                       + 1j * rng.standard_normal(shape))


def radar_receive_reference(tx, targets, cfg, snr_db, rng) -> np.ndarray:
    """``channel.radar_receive`` as first written, synchronous: the echo summed
    one (N_r, N, M) term per target, then ``y + complex_noise_reference``."""
    y = np.zeros((cfg.n_rx,) + tx.shape[1:], dtype=complex)
    for t in targets:
        a_t = tx_array_phase(t.angle_rad, tx.shape[0], cfg)
        a_r = rx_array_phase(t.angle_rad, cfg.n_rx, cfg)
        y += a_r[:, None, None] * (np.tensordot(a_t, tx, axes=1) * tf_channel_grid(t, cfg))
    if snr_db is None or snr_db == np.inf:
        return y
    tf_noise_var = noise_variance(snr_db) / (cfg.n_doppler * cfg.m_delay)
    return y + complex_noise_reference(y.shape, tf_noise_var, rng)


def tf_channel_coeff(target: Target, n: int, m: int, cfg) -> complex:
    """Single-path TF channel coefficient at bin (n, m), array factor excluded."""
    nu, tau = target.doppler_hz, target.delay_s
    dt, df = cfg.symbol_duration_s, cfg.subcarrier_spacing_hz
    return (target.gain * np.exp(-2j * np.pi * nu * tau)
            * np.exp(2j * np.pi * (nu * n * dt - m * df * tau)))


def lmmse_equalize(y: np.ndarray, h: np.ndarray, noise_var: float) -> np.ndarray:
    """x_hat = (H^H H + noise_var I)^{-1} H^H y via a stable linear solve."""
    y = np.asarray(y, dtype=complex).ravel()
    if h.shape[0] != y.size:
        raise DimensionMismatch(f"channel rows {h.shape[0]} vs observation {y.size}")
    gram = h.conj().T @ h
    gram[np.diag_indices_from(gram)] += noise_var
    return np.linalg.solve(gram, h.conj().T @ y)


def stacked_lmmse_equalize_tf(y_tf: np.ndarray, blocks: np.ndarray,
                              noise_var: float) -> np.ndarray:
    """``comm.lmmse_equalize_tf`` as a stack of per-bin problems: the
    (NM, N_t, N_t) Gram matrices and right-hand sides as batched products,
    then one ``np.linalg.solve`` per TF bin. ``y_tf`` is (N_c, N, M) and
    ``blocks`` (N_c, N_t, N, M); returns (N_t, N, M)."""
    n_c, n_t, n, m = blocks.shape
    b = blocks.reshape(n_c, n_t, n * m).transpose(2, 0, 1)   # (NM, N_c, N_t)
    b_h = b.conj().transpose(0, 2, 1)                        # (NM, N_t, N_c)
    gram = b_h @ b
    gram[:, np.arange(n_t), np.arange(n_t)] += noise_var
    rhs = b_h @ y_tf.reshape(n_c, -1).T[..., None]           # (NM, N_t, 1)
    return np.linalg.solve(gram, rhs)[..., 0].T.reshape(n_t, n, m)


def explicit_recover(tf: np.ndarray, alloc, cfg) -> np.ndarray:
    """Information symbols of the (N_t, N, M) TF stack: per antenna, the
    inverse of the ISFFT matrix restricted to the kept DD and TF positions,
    applied to the kept TF samples."""
    g = isfft_matrix(cfg.n_doppler, cfg.m_delay)
    keep = ~alloc.zero_mask(cfg.n_doppler, cfg.m_delay).reshape(len(tf), -1)
    return np.concatenate([np.linalg.inv(g[np.ix_(k, k)]) @ grid.ravel()[k]
                           for k, grid in zip(keep, tf)])


def dd_route_ber_frame(cfg, alloc, paths, snr_db: float, seed: int,
                       frame_index: int = 0) -> tuple[int, int]:
    """``comm.ber_frame`` with the receive chain on DD grids: same streams,
    same noise draw, each TF step wrapped in a DD<->TF round trip."""
    rng_bits = substream(seed, frame_index, 0)
    rng_chan = substream(seed, frame_index, 1)
    rng_noise = substream(seed, frame_index, 2)
    bits = rng_bits.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, _, _ = transmit_chain(bits, alloc, cfg)
    blocks = tf_block_channel(paths, cfg, random_pair_gains(len(paths), cfg, rng_chan))
    y_dd = sfft(np.einsum("canm,anm->cnm", blocks, isfft(dd)))
    if np.isinf(snr_db):
        noise_var = 1e-12
    else:
        noise_var = noise_variance(snr_db)
        y_dd = y_dd + complex_noise(y_dd.shape, noise_var, rng_noise)
    x_dd = sfft(stacked_lmmse_equalize_tf(isfft(y_dd), blocks, noise_var))
    decoded = qpsk_demodulate(explicit_recover(isfft(x_dd), alloc, cfg))
    return int(np.count_nonzero(decoded != bits)), bits.size


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


def asymptotic_c_matrix(cfg) -> np.ndarray:
    """The 4x4 structure matrix of the asymptotic per-target FIM."""
    n, m, nr = cfg.n_doppler, cfg.m_delay, cfg.n_rx
    df = cfg.subcarrier_spacing_hz
    dt = cfg.symbol_duration_s
    a = np.pi * df * (m - 1)
    b = np.pi * dt * (n - 1)
    s = (nr - 1) / 2.0
    return np.array([
        [4 * np.pi ** 2 * df ** 2 * (m - 1) * (2 * m - 1) / 6.0,
         -np.pi ** 2 * (n - 1) * (m - 1), -a * s, -a],
        [-np.pi ** 2 * (n - 1) * (m - 1),
         4 * np.pi ** 2 * dt ** 2 * (n - 1) * (2 * n - 1) / 6.0, b * s, b],
        [-a * s, b * s, (nr - 1) * (2 * nr - 1) / 6.0, s],
        [-a, b, s, 1.0],
    ])


def asymptotic_fim(cfg, snr_db: float) -> np.ndarray:
    """Per-target 4x4 Fisher information matrix, asymptotic on-grid case."""
    return 2.0 * snr_linear(snr_db) * cfg.n_rx * asymptotic_c_matrix(cfg)


def separated_angle_peaks(power, n_targets: int, cfg, pad_factor: int):
    """(angles, omegas, power) of ``coarse.estimate_angles`` from a length-K
    spectrum: circular local maxima inside the visible region, strongest
    first, at least one unpadded DFT bin apart."""
    k = power.size
    omegas = 2.0 * np.pi * np.fft.fftfreq(k)
    sin_phi = omegas * cfg.wavelength_m / (2.0 * np.pi * cfg.g_r)
    maxima = ((power > np.roll(power, 1)) & (power >= np.roll(power, -1))
              & (np.abs(sin_phi) <= 1.0))
    candidates = np.flatnonzero(maxima)
    picked = []
    for idx in candidates[np.argsort(power[candidates])[::-1]]:
        dist = np.abs(idx - np.asarray(picked))
        if not picked or np.minimum(dist, k - dist).min() >= pad_factor:
            picked.append(int(idx))
        if len(picked) == n_targets:
            break
    if len(picked) < n_targets:
        raise PeakSeparationFailure(
            f"found {len(picked)} separated peaks, needed {n_targets}")
    return np.arcsin(sin_phi[picked]), omegas, power


def padded_fft_estimate_angles(rx_dd, n_targets: int, cfg, pad_factor: int,
                               average: bool = True):
    """Angles from the mean |zero-padded DFT|^2 of the DD array snapshots."""
    snapshots = np.asarray(rx_dd, dtype=complex).reshape(rx_dd.shape[0], -1)
    if not average:
        snapshots = snapshots[:, :1]
    k = pad_factor * snapshots.shape[0]
    power = np.mean(np.abs(np.fft.fft(snapshots, n=k, axis=0)) ** 2, axis=1)
    return separated_angle_peaks(power, n_targets, cfg, pad_factor)


def dd_route_coarse_pipeline(rx_tf, tx_dd, cfg, n_angles: int,
                             peaks_per_angle: int = 1, pad_factor: int = 16):
    """``coarse.coarse_pipeline`` as first written, on DD grids: the SFFT of
    the whole receive stack, the angle spectrum from the DD sample
    covariance (mean over the NM bins), profiles of the DD stack, and one
    ``fft2`` circular correlation per angle against its DD reference.
    Returns (angle, k, l, strength) tuples."""
    rx_dd = sfft(rx_tf)
    n_rx = rx_dd.shape[0]
    if n_angles >= n_rx:
        raise TooManyTargets(f"{n_angles} targets with only {n_rx} receive antennas")
    snapshots = rx_dd.reshape(n_rx, -1)
    cov = snapshots @ snapshots.conj().T / snapshots.shape[1]
    k = pad_factor * n_rx
    lag = np.subtract.outer(np.arange(n_rx), np.arange(n_rx)) % k
    r = np.zeros(k, dtype=complex)
    np.add.at(r, lag, cov)
    angles, _, _ = separated_angle_peaks(np.fft.fft(r).real, n_angles, cfg, pad_factor)
    profiles = extract_angle_profiles(rx_dd, angles, cfg)
    tx = np.asarray(tx_dd, dtype=complex)
    estimates = []
    for angle, profile in zip(angles, profiles):
        phase = np.exp(-2j * np.pi * np.arange(tx.shape[0]) * cfg.g_t
                       * np.sin(angle) / cfg.wavelength_m)
        ref = np.tensordot(phase, tx, axes=1)
        mag = np.abs(np.fft.ifft2(np.fft.fft2(profile) * np.conj(np.fft.fft2(ref))))
        is_max = np.ones_like(mag, dtype=bool)
        for shift in itertools.product((-1, 0, 1), repeat=2):
            is_max &= mag >= np.roll(mag, shift, axis=(0, 1))
        kk, ll = np.nonzero(is_max)
        strengths = mag[kk, ll]
        for i in np.argsort(strengths)[::-1][:peaks_per_angle]:
            estimates.append((float(angle), int(kk[i]), int(ll[i]), float(strengths[i])))
    return estimates


def nine_shift_maxima(mag) -> np.ndarray:
    """Whether each entry of the (..., N, M) grids is at least each of its
    9 circular shifts by -1, 0 and 1 along both axes, as first written."""
    return np.all([mag >= np.roll(mag, shift, axis=(-2, -1))
                   for shift in itertools.product((-1, 0, 1), repeat=2)], axis=0)


def angle_to_spatial_freq(angle_rad, cfg):
    """omega = 2pi g_r sin(phi) / lambda."""
    return 2.0 * np.pi * cfg.g_r * np.sin(angle_rad) / cfg.wavelength_m


def lstsq_angle_profiles(rx_dd, angles, cfg) -> np.ndarray:
    """Per-angle profiles from ``np.linalg.lstsq`` over the steering matrix."""
    rx = np.asarray(rx_dd, dtype=complex)
    n_rx, n, m = rx.shape
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    steering = np.exp(1j * np.outer(np.arange(n_rx),
                                    angle_to_spatial_freq(angles, cfg)))
    profiles, *_ = np.linalg.lstsq(steering, rx.reshape(n_rx, -1), rcond=None)
    return profiles.reshape(angles.size, n, m)
