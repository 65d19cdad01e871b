"""Virtual-array snapshot and the bagged sparse recovery over it.

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .allocation import BinAllocation
from .config import SystemConfig, substream
from .exceptions import DictionaryTooLarge, DimensionMismatch, ZeroPrivateSymbol

ZERO_SYMBOL_EPS = 1e-9
# Relative slack of the whole-number width/step ratio of an AxisSpec; the
# shipped 2.0 / 0.1 bins is 20.000000000000004.
RATIO_RTOL = 1e-9
# Bound on the superset-lattice columns of one averaged_ssr call.
COLUMN_CAP = 500_000
DEFAULT_N_SOLVERS = 64
DEFAULT_SWEEPS = 3
# Scored (angle, distinct column) cells of one neighborhood's windows that
# one block of solvers holds at once: the solvers advanced together by one
# batched computation are at most CELL_BUDGET // (A * J) for a window of A
# angles and J distinct Doppler-delay columns. It is 16 solvers of the shipped
# 11 x 21 x 21 window when every cell is its own column, the fixed block that
# ran fastest of 8, 12, 16, 24 and 32 when every cell was scored, and all 64
# solvers of ssr_close_angles, whose windows hold 61 distinct columns.
CELL_BUDGET = 16 * 11 * 21 * 21
# Most solvers in one block. Each solver also holds vectors of N_p * N_r
# entries per neighborhood (its picks, their bases, its residuals), which
# CELL_BUDGET does not count: small windows would otherwise put thousands of
# solvers in one block. With this cap a block's vectors, and so the memory of
# a whole averaged_ssr call, do not grow with n_solvers.
MAX_BLOCK = DEFAULT_N_SOLVERS
# Cycles to which Doppler-delay cells' phases n_p nu dt - m_p tau df are
# rounded before they are compared: cells whose rounded phases agree on every
# private bin hold one column. True duplicates agree to rounding (about
# 1e-16), so at worst one straddling a rounding boundary is scored twice;
# columns this close score alike to 1e-12 relative.
PHASE_QUANTUM = 1e-12
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
    """One discretized search dimension of width W around ``center``.

    W is a whole number of steps, so the superset lattice is centred on
    ``center``. A solver's window is ``n_points`` consecutive points of the
    superset lattice, starting at any of its first ``n_points`` indices; the
    union of all windows is the whole superset lattice.
    """

    center: float
    step: float
    width: float

    def __post_init__(self):
        ratio = self.width / self.step if self.step > 0 else math.nan
        if not (self.width >= self.step and math.isfinite(ratio)
                and math.isclose(ratio, round(ratio), rel_tol=RATIO_RTOL)):
            raise ValueError(f"need width >= step > 0 with an integer width/step ratio, "
                             f"got step {float(self.step)!r} and width "
                             f"{float(self.width)!r}")

    @property
    def n_points(self) -> int:
        return int(round(self.width / self.step)) + 1

    @property
    def n_superset(self) -> int:
        """Lattice size of the union of all windows."""
        return 2 * (self.n_points - 1) + 1

    def superset_points(self) -> np.ndarray:
        """The shared lattice from center - W in steps of delta."""
        return self.center - self.width + self.step * np.arange(self.n_superset)


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Angle/Doppler/delay search box around one coarse estimate."""

    angle: AxisSpec
    doppler: AxisSpec
    delay: AxisSpec


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


def _centered(n: int) -> np.ndarray:
    """Squared distance of each of n lattice points from the lattice centre,
    in units of the lattice span."""
    x = np.arange(n, dtype=float) - (n - 1) / 2.0
    return (x / max(n - 1, 1)) ** 2


@functools.lru_cache(maxsize=8)
def _window_columns(doppler_steps: tuple, delay_steps: tuple, n_doppler: int,
                    n_delay: int) -> np.ndarray:
    """The distinct Doppler-delay columns of an (n_doppler, n_delay) window.

    Cell (v, t) has, on private bin p, the phase v a_p - t b_p mod 1 in
    cycles relative to cell (0, 0), with a_p = ``doppler_steps[p]`` and
    b_p = ``delay_steps[p]``; two cells hold one column, up to the unit
    phase exp(-j2pi nu tau) common to all private bins, when these agree on
    every bin. That depends on the cells' offset only, so every window of a
    lattice has the same groups. Phases are compared rounded to
    ``PHASE_QUANTUM``. Returns each group's window-local flat cells, (J, K),
    rows ascending and padded with n_doppler * n_delay, groups in the order
    of their first cells; read-only, as it is cached per lattice.
    """
    v, t = np.divmod(np.arange(n_doppler * n_delay), n_delay)
    phase = v[:, None] * np.array(doppler_steps) - t[:, None] * np.array(delay_steps)
    phase -= np.floor(phase)
    turns = round(1 / PHASE_QUANTUM)
    key = np.rint(phase * turns).astype(np.int64) % turns
    _, first, label = np.unique(key, axis=0, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    label = rank[label.ravel()]
    counts = np.bincount(label)
    order = np.argsort(label, kind="stable")
    members = np.full((counts.size, counts.max()), label.size)
    members[label[order], np.arange(label.size)
            - np.repeat(np.cumsum(counts) - counts, counts)] = order
    members.flags.writeable = False
    return members


class _FactoredGrid:
    """Superset dictionary of one neighborhood in factored form.

    Every column separates into a spatial factor (depends on the angle and
    the virtual element (p, n_r)) and a delay-Doppler phase factor (depends
    on (nu, tau) and the private bin p only). Correlations against a
    residual therefore cost O(N_p (N_r + n_dd) n_angle) instead of touching
    every column, which is what makes many bagged solvers affordable.
    ``members`` lists the distinct Doppler-delay columns of a window
    (:func:`_window_columns`); the solvers score each of them once.
    """

    def __init__(self, spec: NeighborhoodSpec, bin_meta, n_rx: int,
                 cfg: SystemConfig, weights: np.ndarray):
        self.window = (spec.angle.n_points, spec.doppler.n_points, spec.delay.n_points)
        self.angles = spec.angle.superset_points()
        self.dopplers = spec.doppler.superset_points()
        self.delays = spec.delay.superset_points()
        owners = np.array([owner for owner, _ in bin_meta], dtype=float)
        n_p = np.array([b[0] for _, b in bin_meta], dtype=float)
        m_p = np.array([b[1] for _, b in bin_meta], dtype=float)
        n_bins = len(bin_meta)
        w = weights.reshape(n_bins, n_rx)
        lam = cfg.wavelength_m
        # spatial factor, weights folded in: (n_angles, n_bins, n_rx)
        spatial = (np.arange(n_rx)[None, :] * cfg.g_r - owners[:, None] * cfg.g_t) / lam
        self.sw = (w[None] * np.exp(2j * np.pi * spatial[None]
                                    * np.sin(self.angles)[:, None, None]))
        dt, df = cfg.symbol_duration_s, cfg.subcarrier_spacing_hz
        # columns() forms the Doppler-delay factor at the cells asked for
        self.n_p, self.m_p, self.dt, self.df = n_p, m_p, dt, df
        # all factors have unit magnitude, so every weighted column has the
        # same norm
        self.norm = float(np.sqrt(n_rx * np.sum(w[:, 0] ** 2)))
        # Weak preference toward the window center, the penalty
        # 1 + 1e-3 (angle_penalty + dd_penalty) that _WindowStack forms at
        # its scored cells. Collinear private bins (n_p = m_p) make delay
        # and Doppler observable only through the combination
        # nu*dt - tau*df, producing exactly duplicated columns along that
        # ridge; without a tie-break the estimate drifts randomly along it.
        # The penalty is far below genuine likelihood differences but above
        # noise-level differences between duplicates. Its Doppler-delay term
        # dd_penalty is summed first, so that at every angle the penalty
        # orders a Doppler-delay lattice's cells as dd_penalty does.
        self.angle_penalty = _centered(self.angles.size)
        self.dd_penalty = (_centered(self.dopplers.size)[:, None]
                           + _centered(self.delays.size)[None, :])
        # the window's distinct Doppler-delay columns: per private bin, the
        # phase in cycles of one Doppler and of one delay lattice step
        self.members = _window_columns(tuple(n_p * spec.doppler.step * dt),
                                       tuple(m_p * spec.delay.step * df),
                                       *self.window[1:])
        # each member's flat superset offset from its window's first cell,
        # the padding repeating the group's first member
        n_cells = self.window[1] * self.window[2]
        mv, mt = np.divmod(np.where(self.members == n_cells, self.members[:, :1],
                                    self.members), self.window[2])
        self.offsets = mv * self.delays.size + mt
        # Scoring factors. g_p(nu, tau) = D_p(nu) E_p(tau) exp(-j2pi nu tau):
        # the last factor is common to all private bins, a unit phase per
        # column, so it drops out of every |column^H v|. Scoring works on
        # conj(sw) (n_bins, n_rx, n_angles) per angle, and over the
        # Doppler-delay lattice on h_p = conj(D_p E_p) and, for projections,
        # on h_p conj(h_q) over private-bin pairs p < q, both as stacked real
        # and imaginary parts: (2 n_bins, ...) and (2 n_pairs, ...).
        self.swc = self.sw.conj().transpose(1, 2, 0)
        dc = np.exp(-2j * np.pi * dt * np.outer(n_p, self.dopplers))
        ec = np.exp(2j * np.pi * df * np.outer(m_p, self.delays))
        h = dc[:, :, None] * ec[:, None, :]
        self.pairs = np.triu_indices(n_bins, 1)
        self.h_ri = _stack_ri(h)
        self.hh_ri = _stack_ri(h[self.pairs[0]] * h[self.pairs[1]].conj())

    def columns(self, ia, iv, it) -> np.ndarray:
        """Weighted columns at superset indices of one shape S: (*S, N_p * N_r)."""
        nu, tau = self.dopplers[iv][..., None], self.delays[it][..., None]
        dd = np.exp(2j * np.pi * (self.dt * (self.n_p * nu) - self.df * (self.m_p * tau)
                                  - nu * tau))
        cols = self.sw[ia] * dd[..., None]
        return cols.reshape(*np.shape(ia), -1)


def _angle_terms(swc: np.ndarray, vectors: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """a[s, p, c, i] = sum_n conj(sw[p, n, angles[s, i]]) v[s, c, (p, n)].

    ``swc`` is the grid's whole (N_p, N_r, n_angles) conjugated spatial
    factor: one matmul per private bin forms the terms at every angle, and
    each solver s keeps those of its own ``angles[s]``."""
    s, c = vectors.shape[:2]
    n_bins, n_rx, n_angles = swc.shape
    a = vectors.reshape(s * c, n_bins, n_rx).transpose(1, 0, 2) @ swc
    index = (np.arange(s * c) * n_angles).reshape(s, c, 1) + angles[:, None, :]
    return np.take(a.reshape(n_bins, -1), index, axis=1).transpose(1, 0, 2, 3)


def _stack_ri(x: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of (K, ...) stacked along axis 0: (2 K, ...)."""
    return np.concatenate([x.real, x.imag])


def _lattice_power(a: np.ndarray, h_ri: np.ndarray) -> np.ndarray:
    """|column^H v|^2 over S solvers' lattices, one vector v per solver.

    ``a`` (S, N_p, n_angle) holds the angle terms sum_n conj(sw_pn) v_pn of
    each solver's vector and ``h_ri`` (S, 2 N_p, n_dd) the stacked real and
    imaginary parts of the Doppler-delay factor h_p at its n_dd scored
    Doppler-delay cells. The correlation sum_p a_p h_p is one real batched
    matmul. Returns (S, n_angle * n_dd) in (angle, cell) order. The correlation is
    summed before squaring, unlike the projection's Hermitian form, so a
    column nearly orthogonal to v keeps a near-zero power: divided by a
    small denominator, it must not become a large score.
    """
    s, n_bins, n_angle = a.shape
    a = a.transpose(0, 2, 1)
    # [Re; Im] of a @ h from rows [[Re a, -Im a], [Im a, Re a]]
    lhs = np.empty((s, 2, n_angle, 2, n_bins))
    lhs[:, 0, :, 0], lhs[:, 0, :, 1] = a.real, -a.imag
    lhs[:, 1, :, 0], lhs[:, 1, :, 1] = a.imag, a.real
    corr = np.matmul(lhs.reshape(s, 2 * n_angle, 2 * n_bins), h_ri)
    np.square(corr, out=corr)
    power = corr[:, :n_angle]
    power += corr[:, n_angle:]
    return power.reshape(s, -1)


def _lattice_projection(a: np.ndarray, hh_ri: np.ndarray, pairs: tuple) -> np.ndarray:
    """sum_j |column^H q_j|^2 over S solvers' scored cells.

    ``a`` (S, N_p, J, n_angle) holds the angle terms
    a_pj = sum_n conj(sw_pn) q_pnj of each solver's J vectors, and
    ``hh_ri`` (S, 2 n_pairs, n_dd) the pair products h_p conj(h_q) at its
    scored cells as stacked real and imaginary parts. The sum is
    sum_pj |a_pj|^2 + 2 Re sum_{p<q} sum_j a_pj conj(a_qj) conj(g_p) g_q,
    one real batched matmul for all J. It loses absolute accuracy where the
    sum nearly cancels, which only perturbs the denominator
    norm^2 - projection at the level its rounding already has.
    """
    s, _, _, n_angle = a.shape
    n_pairs = len(pairs[0])
    cross = (a[:, pairs[0]] * a[:, pairs[1]].conj()).sum(axis=2)  # (S, n_pairs, n_angle)
    cross = cross.transpose(0, 2, 1)
    # Re(cross @ hh) from rows [Re cross, -Im cross]
    lhs = np.empty((s, n_angle, 2, n_pairs))
    lhs[:, :, 0], lhs[:, :, 1] = 2.0 * cross.real, -2.0 * cross.imag
    proj = np.matmul(lhs.reshape(s, n_angle, 2 * n_pairs), hh_ri)
    proj += (a.real ** 2 + a.imag ** 2).sum(axis=(1, 2))[:, :, None]
    return proj.reshape(s, -1)


class _WindowStack:
    """One neighborhood's offset windows for a block of solvers.

    Every solver of the block is scored by one batched computation on its
    window's distinct columns: the grid's ``members`` at each of the
    window's angles, J of them per angle. Of a group of cells that hold one
    column, the solver scores only the least-penalty cell. The angle term of
    the penalty is common to a group, so the Doppler-delay term decides, and
    on an exact tie the lowest flat index wins. Scores are (S, A * J) in
    (angle, group) order, with the Doppler-delay factors gathered by index
    from the superset lattice at each call. Picks are flat indices into the
    window lattice (angle, doppler, delay) in C order.
    """

    def __init__(self, grid: _FactoredGrid, starts: np.ndarray):
        self.grid = grid
        self.starts = starts
        self.shape = grid.window
        # each solver's window of the angle lattice
        self.angles = starts[:, :1] + np.arange(self.shape[0])
        # each group's least-penalty cell in each solver's window, as a flat
        # superset Doppler-delay index (cells) and a window-local one (rep).
        # argmin takes the first least, so a padding copy never wins.
        origin = starts[:, 1, None] * grid.delays.size + starts[:, 2, None]
        n_groups, n_members = grid.members.shape
        least = grid.dd_penalty.take(origin[:, :, None] + grid.offsets).argmin(axis=2)
        least += np.arange(n_groups) * n_members
        self.cells = origin + grid.offsets.take(least)
        self.rep = grid.members.take(least)
        # the squared penalty at the scored cells
        penalty = (grid.angle_penalty[self.angles][:, :, None]
                   + grid.dd_penalty.take(self.cells)[:, None, :])
        self.penalty2 = ((1.0 + 1e-3 * penalty) ** 2).reshape(len(starts), -1)

    def dd_factor(self, table: np.ndarray, sel) -> np.ndarray:
        """A (K, V_s, T_s) Doppler-delay table of the grid at the scored
        cells of solvers ``sel``: (S, K, J)."""
        k, n_doppler, n_delay = table.shape
        return np.take(table.reshape(k, n_doppler * n_delay), self.cells[sel],
                       axis=1).transpose(1, 0, 2)

    def power(self, vectors: np.ndarray, sel) -> np.ndarray:
        """|column^H v|^2 over the scored cells of solvers ``sel``: (S, A * J)."""
        a = _angle_terms(self.grid.swc, vectors[:, None], self.angles[sel])[:, :, 0]
        return _lattice_power(a, self.dd_factor(self.grid.h_ri, sel))

    def projection(self, q: np.ndarray, sel) -> np.ndarray:
        """sum_j |column^H q_j|^2 over the scored cells of solvers ``sel``."""
        a = _angle_terms(self.grid.swc, q.swapaxes(1, 2), self.angles[sel])
        return _lattice_projection(a, self.dd_factor(self.grid.hh_ri, sel),
                                   self.grid.pairs)

    def cell(self, arg: np.ndarray, sel) -> np.ndarray:
        """The window-local flat cells of scored-cell indices ``arg`` of
        solvers ``sel``."""
        angle, group = np.divmod(arg, self.rep.shape[1])
        dd = self.rep[np.arange(len(self.rep))[sel], group]
        return angle * (self.shape[1] * self.shape[2]) + dd

    def superset(self, loc: np.ndarray, sel) -> np.ndarray:
        """Superset indices (angle, doppler, delay) of window-local flat
        cells ``loc`` of solvers ``sel``: (3, S)."""
        return np.unravel_index(loc, self.shape) + self.starts[sel].T

    def columns(self, loc: np.ndarray, sel) -> np.ndarray:
        """The picked (weighted) columns of solvers ``sel``: (S, N_p * N_r)."""
        return self.grid.columns(*self.superset(loc, sel))

    def points(self, loc: np.ndarray) -> np.ndarray:
        """The lattice points (angle, doppler, delay) of every solver's
        window-local flat pick ``loc``: (S, 3)."""
        ia, iv, it = self.superset(loc, slice(None))
        return np.column_stack([self.grid.angles[ia], self.grid.dopplers[iv],
                                self.grid.delays[it]])


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


def _solve_block(y: np.ndarray, wins: list, sweeps: int) -> tuple:
    """One-pick-per-neighborhood matching pursuit for a block of solvers.

    Greedy initialization picks the best column over all neighborhoods, one
    per neighborhood; replacement sweeps then re-optimize each
    neighborhood's pick against the residual of the others (scored on the
    projected-column correlation, i.e. exact least-squares improvement)
    until no pick changes. All solvers of the block move through these
    steps together, and every greedy step scores each solver's residual off
    its picks so far (y itself at the first). Scores are compared squared.
    Returns ``(loc, cols)``: the window-local flat pick of every solver per
    neighborhood, (S, n_tid), and the picked columns, (S, n_tid, N_p * N_r).
    """
    n_tid = len(wins)
    n_solvers = len(wins[0].starts)
    rows = np.arange(n_solvers)
    loc = np.zeros((n_solvers, n_tid), dtype=int)
    picked = np.zeros((n_solvers, n_tid), dtype=bool)
    # every solver's picked column per neighborhood
    cols = np.empty((n_solvers, n_tid, len(y)), dtype=complex)
    residual = np.broadcast_to(y, (n_solvers, len(y)))
    for step in range(n_tid):
        best = np.full(n_solvers, -np.inf)
        best_tid = np.zeros(n_solvers, dtype=int)
        best_loc = np.zeros(n_solvers, dtype=int)
        for tid, win in enumerate(wins):
            sel = _rows(~picked[:, tid])
            if sel is None:
                continue
            scores = win.power(residual[sel], sel)
            scores /= win.penalty2[sel]
            arg = np.argmax(scores, axis=1)
            val = np.take_along_axis(scores, arg[:, None], axis=1)[:, 0]
            better = val > best[sel] * (1.0 + TIE_RTOL) ** 2
            upd = rows[sel][better]
            best[upd], best_tid[upd] = val[better], tid
            best_loc[upd] = win.cell(arg, sel)[better]
        picked[rows, best_tid] = True
        loc[rows, best_tid] = best_loc
        for tid, win in enumerate(wins):
            new = _rows(best_tid == tid)
            if new is not None:
                cols[new, tid] = win.columns(loc[new, tid], new)
        if step + 1 < n_tid:
            _, residual = _residual_perp(
                y, cols[picked].reshape(n_solvers, step + 1, -1).swapaxes(1, 2))
    # A sweep re-scores a neighborhood only where another neighborhood's pick
    # moved since its last scoring: otherwise the scores, and so the pick,
    # would repeat. A solver whose sweep changed nothing is thereby left
    # alone from then on, and after a sweep that moved no pick the next one
    # would re-score nothing, so the sweeps stop there. With one
    # neighborhood the sweep score is the first greedy score, so no sweep
    # can move the pick.
    scored = np.full((n_solvers, n_tid), -1)
    moved = np.zeros((n_solvers, n_tid), dtype=int)
    clock = 0
    for _ in range(sweeps if n_tid > 1 else 0):
        start = clock
        for tid, win in enumerate(wins):
            clock += 1
            sel = _rows(np.delete(moved, tid, axis=1).max(axis=1) > scored[:, tid])
            if sel is None:
                continue
            others = np.delete(cols[sel], tid, axis=1).swapaxes(1, 2)
            q, resid_perp = _residual_perp(y, others)
            # scores^2 = |col^H r_perp|^2 / ((norm^2 - |Q^H col|^2) penalty^2)
            den2 = win.projection(q, sel)
            np.subtract(win.grid.norm ** 2, den2, out=den2)
            np.maximum(den2, PERP_FLOOR * win.grid.norm ** 2, out=den2)
            den2 *= win.penalty2[sel]
            scores = win.power(resid_perp, sel)
            scores /= den2
            new = win.cell(np.argmax(scores, axis=1), sel)
            moved[rows[sel][new != loc[sel, tid]], tid] = clock
            loc[sel, tid] = new
            cols[sel, tid] = win.columns(new, sel)
            scored[sel, tid] = clock
        if moved.max() <= start:
            break
    return loc, cols


def _solver_block(grids: list) -> int:
    """Solvers per block: as many as keep every neighborhood's scored cells
    within ``CELL_BUDGET``, at most ``MAX_BLOCK``, and at least one."""
    cells = max(g.window[0] * len(g.members) for g in grids)
    return max(1, min(MAX_BLOCK, CELL_BUDGET // cells))


def _solve_batched(y: np.ndarray, grids: list, starts: np.ndarray,
                   sweeps: int) -> list:
    """Every solver's ``(points, residual)``: its picked lattice points,
    (neighborhood, axis), and the residual norm of y off its picked columns.

    ``starts[tid, s]`` is the superset index where solver s's window of
    neighborhood tid begins. Solvers run in blocks of ``_solver_block``, and
    each block finishes its own solvers and is released before the next one
    starts, so only the records grow with the number of solvers.
    """
    n_solvers = starts.shape[1]
    block = _solver_block(grids)
    estimates = []
    for b0 in range(0, n_solvers, block):
        wins = [_WindowStack(grid, st[b0:b0 + block]) for grid, st in zip(grids, starts)]
        loc, cols = _solve_block(y, wins, sweeps=sweeps)
        points = np.stack([win.points(loc[:, tid]) for tid, win in enumerate(wins)],
                          axis=1)
        # Final residuals stay per solver, least squares on the columns in
        # neighborhood order as one C-contiguous (N_p * N_r, n_tid) array:
        # solutions that differ along the delay-Doppler ridge tie up to
        # rounding, so this arithmetic decides the minimum.
        for s, solver_points in enumerate(points):
            a = np.ascontiguousarray(cols[s].T)
            coef, *_ = np.linalg.lstsq(a, y, rcond=None)
            estimates.append((solver_points, float(np.linalg.norm(y - a @ coef))))
        # free this block's arrays before the next block gathers its own
        del wins, cols
    return estimates


@dataclass(frozen=True)
class AveragedSsrResult:
    estimates: np.ndarray        # (n_targets, 3): angle, doppler, delay
    residual: float              # residual norm of the selected solution
    solver_estimates: list       # per solver: (grid_points, residual)


def averaged_ssr(snapshot: VirtualSnapshot, specs, cfg: SystemConfig,
                 n_solvers: int = DEFAULT_N_SOLVERS, seed: int = 0,
                 sweeps: int = DEFAULT_SWEEPS) -> AveragedSsrResult:
    """Bagged sparse recovery: many solvers on randomly offset windows.

    Each solver draws an independent window start per dimension and per
    neighborhood, then runs the constrained matching pursuit of
    :func:`_solve_block` on the whitened snapshot. The windows are integer
    index ranges of one superset lattice per neighborhood, and the solvers
    run in blocks of ``_solver_block`` as one batched computation. Each
    block finishes its own solvers (:func:`_solve_batched`), so the call's
    memory does not grow with ``n_solvers`` beyond the per-solver records.
    Each solver's result equals that of running it alone.

    The answer is the solution with the smallest residual norm. Each solver
    is a local search on its windows, so the answer reaches the grid
    maximum-likelihood optimum only with enough solvers: on noise-free
    two-target instances with tiny boxes and 4 solvers it matched the
    exhaustive minimum in 5 of 18 instances and was up to 2.9 times above
    it otherwise.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one neighborhood")
    if n_solvers < 1:
        raise ValueError("n_solvers must be >= 1")
    total = sum(s.angle.n_superset * s.doppler.n_superset * s.delay.n_superset
                for s in specs)
    if total > COLUMN_CAP:
        raise DictionaryTooLarge(f"{total} superset columns exceeds cap {COLUMN_CAP}")
    weights = snapshot.row_weights
    y = snapshot.values * weights
    grids = [_FactoredGrid(spec, snapshot.bin_meta, snapshot.n_rx, cfg, weights)
             for spec in specs]
    sizes = np.array([grid.window for grid in grids])
    # solver s draws k in [0, n_points) per neighborhood and axis from its
    # own substream, in (neighborhood, axis) order; its window starts at
    # superset index n_points - 1 - k. One integers() call on the array of
    # sizes draws the same stream as one scalar call per size.
    starts = np.empty((n_solvers, len(specs), 3), dtype=int)
    for s in range(n_solvers):
        starts[s] = substream(seed, s).integers(sizes)
    starts = (sizes - 1 - starts).transpose(1, 0, 2)
    solver_estimates = _solve_batched(y, grids, starts, sweeps)
    estimates, residual = min(solver_estimates, key=lambda e: e[1])
    return AveragedSsrResult(estimates=estimates, residual=residual,
                             solver_estimates=solver_estimates)


def angle_surface(snapshot: VirtualSnapshot, spec: NeighborhoodSpec, estimate,
                  cfg: SystemConfig) -> np.ndarray:
    """|column^H y| / |column| over ``spec.angle.superset_points()``.

    ``y`` is the whitened snapshot, and the columns sit at the Doppler and
    delay lattice points of ``spec`` nearest ``estimate`` (angle, doppler,
    delay).
    """
    grid = _FactoredGrid(spec, snapshot.bin_meta, snapshot.n_rx, cfg,
                         snapshot.row_weights)
    iv = np.argmin(np.abs(grid.dopplers - estimate[1]))
    it = np.argmin(np.abs(grid.delays - estimate[2]))
    y = snapshot.values * snapshot.row_weights
    return np.abs(grid.columns(np.arange(grid.angles.size), iv, it).conj() @ y) / grid.norm


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
