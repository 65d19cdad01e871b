"""Virtual-array snapshot, overcomplete dictionary, and sparse recovery.

The receive signals on private TF bins are free of inter-antenna mixing, so
dividing out the known transmit symbol turns each private bin into an extra
set of N_r virtual array elements. Targets are then located by matching
pursuit over a dictionary discretizing the angle-Doppler-delay space around
the coarse estimates.

Because the private-bin symbols have random magnitudes, the division
amplifies receiver noise unevenly across snapshot entries. All solvers here
therefore work on the re-weighted (whitened) problem
``|X_p| * ratio = |X_p| * column + homoscedastic noise``, which is the
statistically correct least-squares formulation; the snapshot keeps the raw
ratios alongside the |X_p| row weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .allocation import BinAllocation
from .config import SystemConfig, substream
from .exceptions import DictionaryTooLarge, DimensionMismatch, ZeroPrivateSymbol

ZERO_SYMBOL_EPS = 1e-9
# Bound on the superset-lattice columns of one averaged_ssr call.
COLUMN_CAP = 500_000
DEFAULT_N_SOLVERS = 64
DEFAULT_SWEEPS = 3
# Solvers advanced together by one batched computation. Fixed, so that the
# batch's temporaries do not grow with n_solvers; 16 ran fastest of 8-64 on
# the shipped ssr_close_angles scenario and keeps them to a few MB.
SOLVER_BLOCK = 16
# Floor on |column_perp|^2 / |column|^2 in a replacement sweep's score. A
# column in the span of the other picks (another neighborhood's pick, or a
# duplicate of it along the delay-Doppler ridge) has a perpendicular part of
# rounding size; unfloored, its score is rounding noise over rounding noise
# and can beat every genuine candidate.
PERP_FLOOR = 1e-9
# Relative tolerance within which the greedy step's best scores of two
# neighborhoods tie; the lower-indexed neighborhood then takes the pick.
# Neighborhoods can hold identical columns (equal boxes, or with a single
# private bin any boxes sharing an angle lattice), whose scores then differ
# only by rounding.
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class VirtualSnapshot:
    """Stacked private-bin ratios, ordered by (private bin, receive antenna)."""

    values: np.ndarray           # (N_p * N_r,) ratios Y / X_p
    bin_meta: tuple              # per private bin: (owner antenna, (n_p, m_p))
    n_rx: int
    row_weights: np.ndarray      # (N_p * N_r,) |X_p| per row


@dataclass(frozen=True)
class AxisSpec:
    """One discretized search dimension: [center - lam*W, center + (1-lam)*W]."""

    center: float
    step: float
    width: float

    def __post_init__(self):
        if self.step <= 0 or self.width < self.step:
            raise ValueError("need step > 0 and width >= step")

    @property
    def n_points(self) -> int:
        return int(round(self.width / self.step)) + 1

    def offset_choices(self) -> np.ndarray:
        """Quantized offsets {0, step/width, 2 step/width, ..., 1}."""
        return np.arange(self.n_points) * (self.step / self.width)

    @property
    def n_superset(self) -> int:
        """Lattice size of the union of all offset windows."""
        return 2 * (self.n_points - 1) + 1

    def superset_points(self) -> np.ndarray:
        """The shared lattice [center - W, center + W] in steps of delta."""
        return self.center - self.width + self.step * np.arange(self.n_superset)

    def window_start(self, offset_frac: float) -> int:
        """Superset index of the first point of the window at this offset."""
        return int(round((1.0 - offset_frac) * (self.n_points - 1)))


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Angle/Doppler/delay search box around one coarse estimate."""

    angle: AxisSpec
    doppler: AxisSpec
    delay: AxisSpec


@dataclass(frozen=True)
class SsrDictionary:
    """Unit-norm steering dictionary over the discretized target space."""

    matrix: np.ndarray           # (N_p * N_r, n_columns), columns unit l2
    grid_points: np.ndarray      # (n_columns, 3): angle, doppler, delay
    target_ids: np.ndarray       # (n_columns,) neighborhood index
    column_norms: np.ndarray     # pre-normalization norms


def build_virtual_snapshot(rx_tf: np.ndarray, tx_tf: np.ndarray,
                           alloc: BinAllocation) -> VirtualSnapshot:
    """Form the virtual-array snapshot from the private TF bins.

    Entry for (private bin p, receive antenna n_r) is
    Y_{n_r}[n_p, m_p] / X_{owner(p)}[n_p, m_p]. The transmitted symbol on a
    private bin must be bounded away from zero. The symbol magnitudes are
    kept as per-row weights for noise whitening in the solvers.
    """
    rx = np.asarray(rx_tf, dtype=complex)
    tx = np.asarray(tx_tf, dtype=complex)
    bins = alloc.private_bin_list()
    if not bins:
        raise DimensionMismatch("allocation has no private bins")
    n_rx = rx.shape[0]
    values = np.empty(len(bins) * n_rx, dtype=complex)
    weights = np.empty(len(bins) * n_rx)
    for i, (owner, (n_p, m_p)) in enumerate(bins):
        x = tx[owner, n_p, m_p]
        if abs(x) < ZERO_SYMBOL_EPS:
            raise ZeroPrivateSymbol(
                f"antenna {owner} transmits |X|={abs(x):.2e} on private bin {(n_p, m_p)}")
        values[i * n_rx:(i + 1) * n_rx] = rx[:, n_p, m_p] / x
        weights[i * n_rx:(i + 1) * n_rx] = abs(x)
    meta = tuple((owner, bin_) for owner, bin_ in bins)
    return VirtualSnapshot(values=values, bin_meta=meta, n_rx=n_rx,
                           row_weights=weights)


def steering_columns(angles, dopplers, delays, bin_meta, n_rx: int,
                     cfg: SystemConfig) -> np.ndarray:
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


class _FactoredGrid:
    """Superset dictionary of one neighborhood in factored form.

    Every column separates into a spatial factor (depends on the angle and
    the virtual element (p, n_r)) and a delay-Doppler phase factor (depends
    on (nu, tau) and the private bin p only). Correlations against a
    residual therefore cost O(N_p (N_r + n_dd) n_angle) instead of touching
    every column, which is what makes many bagged solvers affordable.
    """

    def __init__(self, spec: NeighborhoodSpec, bin_meta, n_rx: int,
                 cfg: SystemConfig, weights: np.ndarray):
        self.spec = spec
        self.n_rx = n_rx
        self.angles = spec.angle.superset_points()
        self.dopplers = spec.doppler.superset_points()
        self.delays = spec.delay.superset_points()
        owners = np.array([owner for owner, _ in bin_meta], dtype=float)
        n_p = np.array([b[0] for _, b in bin_meta], dtype=float)
        m_p = np.array([b[1] for _, b in bin_meta], dtype=float)
        n_bins = len(bin_meta)
        w = weights.reshape(n_bins, n_rx)
        lam = cfg.wavelength_m
        # spatial factor, weights folded in: (n_bins, n_rx, n_angles)
        spatial = (np.arange(n_rx)[None, :] * cfg.g_r - owners[:, None] * cfg.g_t) / lam
        self.sw = (w[:, :, None]
                   * np.exp(2j * np.pi * spatial[:, :, None] * np.sin(self.angles)))
        # delay-Doppler factor: (n_bins, n_dopplers, n_delays)
        dt, df = cfg.symbol_duration_s, cfg.subcarrier_spacing_hz
        phase = (dt * np.einsum("p,v->pv", n_p, self.dopplers)[:, :, None]
                 - df * np.einsum("p,t->pt", m_p, self.delays)[:, None, :]
                 - np.outer(self.dopplers, self.delays)[None, :, :])
        self.g = np.exp(2j * np.pi * phase)
        # all factors have unit magnitude, so every weighted column has the
        # same norm
        self.norm = float(np.sqrt(n_rx * np.sum(w[:, 0] ** 2)))
        # Weak preference toward the window center. Collinear private bins
        # (n_p = m_p) make delay and Doppler observable only through the
        # combination nu*dt - tau*df, producing exactly duplicated columns
        # along that ridge; without a tie-break the estimate drifts randomly
        # along it. The penalty is far below genuine likelihood differences
        # but above noise-level differences between duplicates.
        def centered(nn):
            x = np.arange(nn, dtype=float) - (nn - 1) / 2.0
            return (x / max(nn - 1, 1)) ** 2
        d2 = (centered(self.angles.size)[:, None, None]
              + centered(self.dopplers.size)[None, :, None]
              + centered(self.delays.size)[None, None, :])
        self.center_penalty = 1.0 + 1e-3 * d2
        # Scoring factors. g_p(nu, tau) = D_p(nu) E_p(tau) exp(-j2pi nu tau):
        # the last factor is common to all private bins, a unit phase per
        # column, so it drops out of every |column^H v|. Batched scoring
        # works on conj(D) and conj(E) alone, and for projections on their
        # products over private-bin pairs p < q.
        self.swc = self.sw.conj()
        self.dc = np.exp(-2j * np.pi * dt * np.outer(n_p, self.dopplers))
        ec = np.exp(2j * np.pi * df * np.outer(m_p, self.delays))
        self.pairs = np.triu_indices(n_bins, 1)
        self.dh = self.dc[self.pairs[0]] * self.dc[self.pairs[1]].conj()
        self.ec_ri = _stack_ri(ec)
        self.eh_ri = _stack_ri(ec[self.pairs[0]] * ec[self.pairs[1]].conj())

    def power(self, values: np.ndarray) -> np.ndarray:
        """|column^H values|^2 over the whole superset lattice, shape (A, V, T)."""
        power = _lattice_power(self.swc[None], self.dc[None], self.ec_ri[None],
                               values[None])
        return power.reshape(self.center_penalty.shape)

    def column(self, idx: tuple) -> np.ndarray:
        ia, iv, it = idx
        return (self.sw[:, :, ia] * self.g[:, iv, it][:, None]).ravel()

    def point(self, idx: tuple) -> np.ndarray:
        ia, iv, it = idx
        return np.array([self.angles[ia], self.dopplers[iv], self.delays[it]])


def _angle_terms(swc: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """a[s, p, c, i] = sum_n conj(sw[s, p, n, i]) v[s, c, (p, n)]."""
    s, c = vectors.shape[:2]
    n_bins, n_rx = swc.shape[1:3]
    return vectors.reshape(s, c, n_bins, n_rx).transpose(0, 2, 1, 3) @ swc


def _stack_ri(x: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of (..., K, n) stacked along axis -2."""
    return np.concatenate([x.real, x.imag], axis=-2)


def _lattice_power(swc: np.ndarray, dc: np.ndarray, ec_ri: np.ndarray,
                   vectors: np.ndarray) -> np.ndarray:
    """|column^H v|^2 over S solvers' lattices, one vector v per solver.

    ``swc`` (S, N_p, N_r, n_angle) and ``dc`` (S, N_p, n_doppler) are
    conjugated factors of each lattice, ``ec_ri`` (S, 2 N_p, n_delay) the
    stacked real and imaginary parts of the third, and ``vectors`` is
    (S, N_p * N_r). The sum over private bins is one real batched matmul.
    Returns (S, n_lattice) in (angle, doppler, delay) order. The
    correlation is summed before squaring, unlike the projection's Hermitian
    form, so a column nearly orthogonal to v keeps a near-zero power:
    divided by a small denominator, it must not become a large score.
    """
    a = _angle_terms(swc, vectors[:, None])[:, :, 0]            # (S, N_p, n_angle)
    s, n_bins, n_angle = a.shape
    c = a.transpose(0, 2, 1)[:, :, None, :] * dc.transpose(0, 2, 1)[:, None]
    rows = n_angle * dc.shape[2]
    c = c.reshape(s, rows, n_bins)
    # [Re; Im] of c @ ec from rows [[Re c, -Im c], [Im c, Re c]]
    lhs = np.empty((s, 2, rows, 2, n_bins))
    lhs[:, 0, :, 0], lhs[:, 0, :, 1] = c.real, -c.imag
    lhs[:, 1, :, 0], lhs[:, 1, :, 1] = c.imag, c.real
    out = lhs.reshape(s, 2 * rows, 2 * n_bins) @ ec_ri
    np.square(out, out=out)
    return (out[:, :rows] + out[:, rows:]).reshape(s, -1)


def _lattice_projection(swc: np.ndarray, dh: np.ndarray, eh_ri: np.ndarray,
                        pairs: tuple, q: np.ndarray) -> np.ndarray:
    """sum_j |column^H q_j|^2 over S solvers' lattices.

    ``q`` is (S, N_p * N_r, J); ``dh`` and ``eh_ri`` hold each lattice's
    pair products conj(D_p) D_q and conj(E_p) E_q, the latter as stacked
    real and imaginary parts. With a_pj = sum_n conj(sw_pn) q_pnj the sum
    is sum_pj |a_pj|^2 + 2 Re sum_{p<q} sum_j a_pj conj(a_qj) conj(g_p) g_q,
    one real batched matmul for all J. It loses absolute accuracy where the
    sum nearly cancels, which only perturbs the denominator
    norm^2 - projection at the level its rounding already has.
    """
    a = _angle_terms(swc, q.swapaxes(1, 2))                     # (S, N_p, J, n_angle)
    s, n_angle = len(q), a.shape[3]
    n_pairs = len(pairs[0])
    cross = (a[:, pairs[0]] * a[:, pairs[1]].conj()).sum(axis=2)  # (S, n_pairs, n_angle)
    c = cross.transpose(0, 2, 1)[:, :, None, :] * dh.transpose(0, 2, 1)[:, None]
    rows = n_angle * dh.shape[2]
    c = c.reshape(s, rows, n_pairs)
    # Re(c @ eh) from rows [Re c, -Im c]
    lhs = np.empty((s, rows, 2, n_pairs))
    lhs[:, :, 0], lhs[:, :, 1] = 2.0 * c.real, -2.0 * c.imag
    out = (lhs.reshape(s, rows, 2 * n_pairs) @ eh_ri).reshape(s, n_angle, -1)
    out += (a.real ** 2 + a.imag ** 2).sum(axis=(1, 2))[:, :, None]
    return out.reshape(s, -1)


class _WindowStack:
    """One neighborhood's offset windows for a block of solvers.

    Holds each solver's windowed factors, copied out of the shared superset
    factors, so that every solver of the block is scored by one batched
    computation. Picks are flat indices into the window lattice (angle,
    doppler, delay) in C order.
    """

    def __init__(self, grid: _FactoredGrid, starts: np.ndarray):
        spec = grid.spec
        self.grid = grid
        self.starts = starts
        self.shape = (spec.angle.n_points, spec.doppler.n_points, spec.delay.n_points)
        ia, iv, it = (starts[:, k, None] + np.arange(n)
                      for k, n in enumerate(self.shape))
        self.lattice = (ia[:, :, None, None], iv[:, None, :, None],
                        it[:, None, None, :])
        # solver-major copies, contiguous for the batched matmuls
        self.swc = np.ascontiguousarray(grid.swc[:, :, ia].transpose(2, 0, 1, 3))
        self.dc, self.dh = (np.ascontiguousarray(x[:, iv].transpose(1, 0, 2))
                            for x in (grid.dc, grid.dh))
        self.ec_ri, self.eh_ri = (np.ascontiguousarray(x[:, it].transpose(1, 0, 2))
                                  for x in (grid.ec_ri, grid.eh_ri))
        self.penalty2 = self.gather(grid.center_penalty) ** 2

    def gather(self, superset_values: np.ndarray) -> np.ndarray:
        """Each solver's window of a superset-lattice array: (S, n_window)."""
        return superset_values[self.lattice].reshape(len(self.starts), -1)

    def power(self, vectors: np.ndarray, sel) -> np.ndarray:
        """|column^H v|^2 over the windows of solvers ``sel``: (S, n_window)."""
        return _lattice_power(self.swc[sel], self.dc[sel], self.ec_ri[sel], vectors)

    def projection(self, q: np.ndarray, sel) -> np.ndarray:
        """sum_j |column^H q_j|^2 over the windows of solvers ``sel``."""
        return _lattice_projection(self.swc[sel], self.dh[sel], self.eh_ri[sel],
                                   self.grid.pairs, q)

    def columns(self, loc: np.ndarray, sel) -> np.ndarray:
        """The picked (weighted) columns of solvers ``sel``: (S, N_p * N_r)."""
        ia, iv, it = (np.unravel_index(loc, self.shape) + self.starts[sel].T)
        cols = self.grid.sw[:, :, ia] * self.grid.g[:, iv, it][:, None, :]
        return cols.transpose(2, 0, 1).reshape(len(loc), -1)


def _rows(mask: np.ndarray):
    """Indices where ``mask`` holds: a full slice for all, None for none."""
    idx = np.flatnonzero(mask)
    if idx.size == mask.size:
        return slice(None)
    return idx if idx.size else None


def _residual_perp(y: np.ndarray, cols: np.ndarray):
    """Orthonormal bases of stacked column sets and y's residual off them."""
    q, _ = np.linalg.qr(cols)
    coef = np.conj(q).swapaxes(1, 2) @ y
    return q, y - (q @ coef[:, :, None])[:, :, 0]


def _solve_block(y: np.ndarray, wins: list, y_scores: list,
                 sweeps: int) -> np.ndarray:
    """One-pick-per-neighborhood matching pursuit for a block of solvers.

    Greedy initialization picks the best column over all neighborhoods, one
    per neighborhood; replacement sweeps then re-optimize each
    neighborhood's pick against the residual of the others (scored on the
    projected-column correlation, i.e. exact least-squares improvement)
    until no pick changes. All solvers of the block move through these
    steps together. Scores are compared squared. ``y_scores[tid]`` is the
    squared score of ``y`` itself on neighborhood tid's superset lattice,
    which every greedy start shares.
    Returns the window-local flat pick of every solver per neighborhood.
    """
    n_tid = len(wins)
    n_solvers = len(wins[0].starts)
    rows = np.arange(n_solvers)
    loc = np.zeros((n_solvers, n_tid), dtype=int)
    picked = np.zeros((n_solvers, n_tid), dtype=bool)
    for step in range(n_tid):
        best = np.full(n_solvers, -np.inf)
        best_tid = np.zeros(n_solvers, dtype=int)
        best_loc = np.zeros(n_solvers, dtype=int)
        for tid, win in enumerate(wins):
            sel = _rows(~picked[:, tid])
            if sel is None:
                continue
            if step == 0:
                scores = win.gather(y_scores[tid])
            else:
                scores = win.power(residual[sel], sel)
                scores /= win.penalty2[sel]
            arg = np.argmax(scores, axis=1)
            val = np.take_along_axis(scores, arg[:, None], axis=1)[:, 0]
            better = val > best[sel] * (1.0 + TIE_RTOL) ** 2
            upd = rows[sel][better]
            best[upd], best_tid[upd], best_loc[upd] = val[better], tid, arg[better]
        picked[rows, best_tid] = True
        loc[rows, best_tid] = best_loc
        if step + 1 < n_tid:
            cols = np.stack([w.columns(loc[:, t], rows) for t, w in enumerate(wins)],
                            axis=1)
            cols = cols[picked].reshape(n_solvers, step + 1, -1).swapaxes(1, 2)
            _, residual = _residual_perp(y, cols)
    # A sweep re-scores a neighborhood only where another neighborhood's pick
    # moved since its last scoring: otherwise the scores, and so the pick,
    # would repeat. A solver whose sweep changed nothing is thereby left
    # alone from then on. With one neighborhood the sweep score is the first
    # greedy score, so no sweep can move the pick.
    scored = np.full((n_solvers, n_tid), -1)
    moved = np.zeros((n_solvers, n_tid), dtype=int)
    clock = 0
    for _ in range(sweeps if n_tid > 1 else 0):
        for tid, win in enumerate(wins):
            clock += 1
            sel = _rows(np.delete(moved, tid, axis=1).max(axis=1) > scored[:, tid])
            if sel is None:
                continue
            others = np.stack([w.columns(loc[sel, t], sel)
                               for t, w in enumerate(wins) if t != tid], axis=2)
            q, resid_perp = _residual_perp(y, others)
            # scores^2 = |col^H r_perp|^2 / ((norm^2 - |Q^H col|^2) penalty^2)
            den2 = win.projection(q, sel)
            np.subtract(win.grid.norm ** 2, den2, out=den2)
            np.maximum(den2, PERP_FLOOR * win.grid.norm ** 2, out=den2)
            den2 *= win.penalty2[sel]
            scores = win.power(resid_perp, sel)
            scores /= den2
            new = np.argmax(scores, axis=1)
            moved[rows[sel][new != loc[sel, tid]], tid] = clock
            loc[sel, tid] = new
            scored[sel, tid] = clock
    return loc


def _solve_batched(y: np.ndarray, grids: list, starts: np.ndarray,
                   sweeps: int) -> np.ndarray:
    """Superset-lattice picks (solver, neighborhood, axis) of all solvers.

    ``starts[tid, s]`` is the superset index where solver s's window of
    neighborhood tid begins. Solvers run in blocks of ``SOLVER_BLOCK``; the
    blocks' arrays are released on return, before the per-solver residuals.
    """
    y_scores = [grid.power(y) / grid.center_penalty ** 2 for grid in grids]
    n_solvers = starts.shape[1]
    picks = np.empty((n_solvers, len(grids), 3), dtype=int)
    for b0 in range(0, n_solvers, SOLVER_BLOCK):
        wins = [_WindowStack(grid, st[b0:b0 + SOLVER_BLOCK])
                for grid, st in zip(grids, starts)]
        loc = _solve_block(y, wins, y_scores, sweeps=sweeps)
        for tid, win in enumerate(wins):
            picks[b0:b0 + len(loc), tid] = (np.column_stack(
                np.unravel_index(loc[:, tid], win.shape)) + win.starts)
    return picks


@dataclass(frozen=True)
class AveragedSsrResult:
    estimates: np.ndarray        # (n_targets, 3): angle, doppler, delay
    residual: float              # residual norm of the selected solution
    vote_counts: tuple           # per target: Counter of quantized triplets
    solver_estimates: list       # per solver: (grid_points, residual)


def _quantize(point, spec: NeighborhoodSpec):
    return (
        int(round((point[0] - spec.angle.center) / spec.angle.step)),
        int(round((point[1] - spec.doppler.center) / spec.doppler.step)),
        int(round((point[2] - spec.delay.center) / spec.delay.step)),
    )


def _dequantize(key, spec: NeighborhoodSpec):
    return np.array([
        spec.angle.center + key[0] * spec.angle.step,
        spec.doppler.center + key[1] * spec.doppler.step,
        spec.delay.center + key[2] * spec.delay.step,
    ])


def averaged_ssr(snapshot: VirtualSnapshot, specs, cfg: SystemConfig,
                 n_solvers: int = DEFAULT_N_SOLVERS, seed: int = 0,
                 sweeps: int = DEFAULT_SWEEPS,
                 aggregate: str = "min_residual") -> AveragedSsrResult:
    """Bagged sparse recovery: many solvers on randomly offset windows.

    Each solver draws an independent quantized window offset per dimension
    and per neighborhood, then runs the constrained matching pursuit of
    :func:`_solve_block` on the whitened snapshot. Window offsets are
    integer multiples of the step, so all solvers share one lattice, and the
    solvers run in blocks of ``SOLVER_BLOCK`` as one batched computation.
    Each solver's result equals that of running it alone.

    ``aggregate`` selects the final answer: "min_residual" returns the
    solution with the smallest residual norm (the bagged solvers act as
    random restarts of the grid maximum-likelihood search); "vote" returns
    the modal lattice point per target, ties broken by smallest residual.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one neighborhood")
    if n_solvers < 1:
        raise ValueError("n_solvers must be >= 1")
    if aggregate not in ("min_residual", "vote"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    total = sum(s.angle.n_superset * s.doppler.n_superset * s.delay.n_superset
                for s in specs)
    if total > COLUMN_CAP:
        raise DictionaryTooLarge(f"{total} superset columns exceeds cap {COLUMN_CAP}")
    weights = snapshot.row_weights
    y = snapshot.values * weights
    grids = [_FactoredGrid(spec, snapshot.bin_meta, snapshot.n_rx, cfg, weights)
             for spec in specs]
    axes = [(spec.angle, spec.doppler, spec.delay) for spec in specs]
    choices = [[ax.offset_choices() for ax in spec_axes] for spec_axes in axes]
    starts = np.empty((len(specs), n_solvers, 3), dtype=int)
    for s in range(n_solvers):
        rng = substream(seed, s)
        for tid, spec_axes in enumerate(axes):
            starts[tid, s] = [ax.window_start(rng.choice(c))
                              for ax, c in zip(spec_axes, choices[tid])]
    picks = _solve_batched(y, grids, starts, sweeps)
    # Final residuals stay per solver, least squares on the columns in
    # neighborhood order: solutions that differ along the delay-Doppler
    # ridge tie up to rounding, so this arithmetic decides min_residual.
    votes = [Counter() for _ in specs]
    best_residual_by_key: list[dict] = [{} for _ in specs]
    solver_estimates = []
    best = (np.inf, None)
    for solver_picks in picks:
        idx = [tuple(p) for p in solver_picks]
        cols = np.column_stack([g.column(p) for g, p in zip(grids, idx)])
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        residual = float(np.linalg.norm(y - cols @ coef))
        points = np.array([g.point(p) for g, p in zip(grids, idx)])
        solver_estimates.append((points, residual))
        if residual < best[0]:
            best = (residual, points)
        for tid, point in enumerate(points):
            key = _quantize(point, specs[tid])
            votes[tid][key] += 1
            prev = best_residual_by_key[tid].get(key)
            if prev is None or residual < prev:
                best_residual_by_key[tid][key] = residual
    if aggregate == "min_residual":
        estimates = best[1]
        residual = best[0]
    else:
        estimates = []
        for tid, spec in enumerate(specs):
            top = max(votes[tid].values())
            tied = [k for k, v in votes[tid].items() if v == top]
            key = min(tied, key=lambda k: best_residual_by_key[tid][k])
            estimates.append(_dequantize(key, spec))
        estimates = np.array(estimates)
        residual = min(r for _, r in solver_estimates)
    return AveragedSsrResult(
        estimates=np.asarray(estimates),
        residual=float(residual),
        vote_counts=tuple(votes),
        solver_estimates=solver_estimates,
    )


def default_neighborhood(estimate, cfg: SystemConfig,
                         angle_step_deg: float = 1.0, angle_width_deg: float = 10.0,
                         doppler_step_bins: float = 0.1, doppler_width_bins: float = 2.0,
                         delay_step_bins: float = 0.1, delay_width_bins: float = 2.0) -> NeighborhoodSpec:
    """Search box around a coarse estimate using bin-relative sizes."""
    dnu = cfg.doppler_spacing_hz
    dtau = cfg.delay_spacing_s
    return NeighborhoodSpec(
        angle=AxisSpec(estimate.angle_rad, np.deg2rad(angle_step_deg), np.deg2rad(angle_width_deg)),
        doppler=AxisSpec(estimate.doppler_hz, doppler_step_bins * dnu, doppler_width_bins * dnu),
        delay=AxisSpec(estimate.delay_s, delay_step_bins * dtau, delay_width_bins * dtau),
    )
