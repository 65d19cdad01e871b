"""Delay-Doppler <-> time-frequency transforms.

Grids are plain complex ndarrays of shape (N, M): DD grids are indexed
[k, l] (Doppler, delay), TF grids [n, m] (time, frequency). Vectorized forms
are row-major with the second index fastest, i.e. position l + k*M (DD) and
m + n*M (TF).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, SingularReducedMatrix

# Relative threshold on the smallest singular value of the reduced system.
_RANK_RTOL = 1e-10


def isfft(dd: np.ndarray) -> np.ndarray:
    """Map a DD grid to the TF domain.

    X[n,m] = (1/NM) * sum_{k,l} x[k,l] exp(j2pi(kn/N - ml/M)).
    """
    dd = np.asarray(dd)
    if dd.ndim != 2:
        raise DimensionMismatch(f"expected 2-D grid, got shape {dd.shape}")
    m = dd.shape[1]
    return np.fft.fft(np.fft.ifft(dd, axis=0), axis=1) / m


def sfft(tf: np.ndarray) -> np.ndarray:
    """Map a TF grid to the DD domain; the exact inverse of :func:`isfft`.

    x[k,l] = sum_{n,m} X[n,m] exp(-j2pi(kn/N - ml/M)).
    """
    tf = np.asarray(tf)
    if tf.ndim != 2:
        raise DimensionMismatch(f"expected 2-D grid, got shape {tf.shape}")
    m = tf.shape[1]
    return np.fft.fft(np.fft.ifft(tf, axis=1), axis=0) * m


def _tf_linear(bins, n, m):
    idx = []
    for (a, b) in bins:
        if not (0 <= a < n and 0 <= b < m):
            raise DimensionMismatch(f"TF bin {(a, b)} outside {n}x{m} grid")
        idx.append(b + a * m)
    return np.asarray(sorted(idx), dtype=int)


def _dd_linear(bins, n, m):
    idx = []
    for (k, l) in bins:
        if not (0 <= k < n and 0 <= l < m):
            raise DimensionMismatch(f"DD bin {(k, l)} outside {n}x{m} grid")
        idx.append(l + k * m)
    return np.asarray(sorted(idx), dtype=int)


@dataclass(frozen=True)
class ModifiedSfft:
    """Reduced inverse transform for grids with zero-forced TF bins.

    Recovers the (NM - |E|) information symbols of a DD grid that was
    transmitted with the DD bins in ``empty_dd`` left empty and the TF bins in
    ``zeroed_tf`` forced to zero after the forward transform. The reduced
    forward matrix must be square (|zeroed_tf| == |empty_dd|) and full rank.
    """

    n_doppler: int
    m_delay: int
    zeroed_tf: tuple
    empty_dd: tuple
    _tf_rows: np.ndarray = field(repr=False)
    _dd_cols: np.ndarray = field(repr=False)
    _schur: np.ndarray = field(repr=False)

    @property
    def n_info_symbols(self) -> int:
        return self.n_doppler * self.m_delay - len(self.empty_dd)

    def recover(self, tf: np.ndarray) -> np.ndarray:
        """Recover information symbols from a TF grid.

        Returns the DD symbols in row-major order, skipping the empty DD
        positions. The samples at the zero-forced TF bins are ignored.
        """
        tf = np.asarray(tf, dtype=complex)
        n, m = self.n_doppler, self.m_delay
        if tf.shape != (n, m):
            raise DimensionMismatch(f"expected {(n, m)} TF grid, got {tf.shape}")
        flat = tf.ravel().copy()
        flat[self._tf_rows] = 0.0
        x = sfft(flat.reshape(n, m)).ravel()
        if self._tf_rows.size:
            # Solve for the unknown zero-forced TF values so that the empty DD
            # positions come out exactly zero, then correct the SFFT output.
            u = np.linalg.solve(self._schur, -x[self._dd_cols])
            x += _sfft_columns(n, m, self._tf_rows) @ u
        keep = np.setdiff1d(np.arange(n * m), self._dd_cols, assume_unique=True)
        return x[keep]


def _sfft_columns(n: int, m: int, tf_rows: np.ndarray) -> np.ndarray:
    """Columns of the unit SFFT matrix at the given TF positions, (NM x r)."""
    cols = np.empty((n * m, tf_rows.size), dtype=complex)
    k = np.arange(n)
    l = np.arange(m)
    for i, pos in enumerate(tf_rows):
        nn, mm = divmod(int(pos), m)
        cols[:, i] = np.outer(np.exp(-2j * np.pi * k * nn / n),
                              np.exp(2j * np.pi * l * mm / m)).ravel()
    return cols


def build_modified_sfft(n: int, m: int, zeroed_tf, empty_dd) -> ModifiedSfft:
    """Construct the reduced inverse transform for the given bin choices.

    Raises :class:`DimensionMismatch` if the two sets differ in size and
    :class:`SingularReducedMatrix` if the reduced forward matrix is rank
    deficient (a different bin placement must be chosen in that case).
    """
    zeroed_tf = sorted(set((int(a), int(b)) for a, b in zeroed_tf))
    empty_dd = sorted(set((int(a), int(b)) for a, b in empty_dd))
    if len(zeroed_tf) != len(empty_dd):
        raise DimensionMismatch(
            f"{len(zeroed_tf)} zero-forced TF bins vs {len(empty_dd)} empty DD bins")
    tf_rows = _tf_linear(zeroed_tf, n, m)
    dd_cols = _dd_linear(empty_dd, n, m)
    # Invertibility of the reduced forward matrix is equivalent to
    # invertibility of the r x r block of the inverse transform at the removed
    # positions (Schur complement of a full-rank matrix), which stays cheap
    # even on large grids.
    schur = _sfft_columns(n, m, tf_rows)[dd_cols, :] if tf_rows.size else np.empty((0, 0))
    if tf_rows.size:
        sv = np.linalg.svd(schur, compute_uv=False)
        if sv[-1] <= _RANK_RTOL * sv[0]:
            raise SingularReducedMatrix(
                f"reduced transform is rank deficient for zeroed_tf={zeroed_tf}, "
                f"empty_dd={empty_dd}")
    return ModifiedSfft(n, m, tuple(zeroed_tf), tuple(empty_dd), tf_rows, dd_cols, schur)


def place_symbols(symbols: np.ndarray, n: int, m: int, empty_dd=()) -> np.ndarray:
    """Fill a DD grid row-major with ``symbols``, zeros at the empty bins."""
    symbols = np.asarray(symbols, dtype=complex).ravel()
    dd_cols = _dd_linear(empty_dd, n, m)
    if symbols.size != n * m - dd_cols.size:
        raise DimensionMismatch(
            f"expected {n * m - dd_cols.size} symbols, got {symbols.size}")
    flat = np.zeros(n * m, dtype=complex)
    keep = np.setdiff1d(np.arange(n * m), dd_cols, assume_unique=True)
    flat[keep] = symbols
    return flat.reshape(n, m)
