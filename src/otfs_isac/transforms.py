"""Delay-Doppler <-> time-frequency transforms.

Grids are plain complex ndarrays of shape (N, M): DD grids are indexed
[k, l] (Doppler, delay), TF grids [n, m] (time, frequency). Vectorized forms
are row-major with the second index fastest, i.e. position l + k*M (DD) and
m + n*M (TF). The transforms act on the last two axes, so a stack of
per-antenna grids of shape (..., N, M) is transformed in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, SingularReducedMatrix

# Relative threshold on the smallest singular value of the reduced system.
_RANK_RTOL = 1e-10


def isfft(dd: np.ndarray) -> np.ndarray:
    """Map DD grids (..., N, M) to the TF domain.

    X[n,m] = (1/NM) * sum_{k,l} x[k,l] exp(j2pi(kn/N - ml/M)).
    """
    dd = np.asarray(dd)
    if dd.ndim < 2:
        raise DimensionMismatch(f"expected (..., N, M) grids, got shape {dd.shape}")
    out = np.fft.fft(np.fft.ifft(dd, axis=-2), axis=-1)
    out /= dd.shape[-1]
    return out


def sfft(tf: np.ndarray) -> np.ndarray:
    """Map TF grids (..., N, M) to the DD domain; the exact inverse of :func:`isfft`.

    x[k,l] = sum_{n,m} X[n,m] exp(-j2pi(kn/N - ml/M)).
    """
    tf = np.asarray(tf)
    if tf.ndim < 2:
        raise DimensionMismatch(f"expected (..., N, M) grids, got shape {tf.shape}")
    out = np.fft.fft(np.fft.ifft(tf, axis=-1), axis=-2)
    out *= tf.shape[-1]
    return out


def _tf_linear(bins, n, m):
    idx = []
    for (a, b) in bins:
        if not (0 <= a < n and 0 <= b < m):
            raise DimensionMismatch(f"bin {(a, b)} outside {n}x{m} grid")
        idx.append(b + a * m)
    return np.asarray(sorted(idx), dtype=int)


@dataclass(frozen=True)
class ModifiedSfft:
    """Reduced inverse transform for grids with zero-forced TF bins.

    Recovers the (NM - |zeroed|) information symbols of a DD grid that was
    transmitted with the DD bins at the ``zeroed`` (row, col) positions left
    empty and the TF bins at those positions forced to zero after the forward
    transform. Both grids are row-major, so one linear index array serves
    both domains. The reduced forward matrix must be full rank. The arrays
    are read-only.
    """

    n_doppler: int
    m_delay: int
    zeroed: tuple
    _index: np.ndarray = field(repr=False)
    _columns: np.ndarray = field(repr=False)
    _schur: np.ndarray = field(repr=False)

    @property
    def n_info_symbols(self) -> int:
        return self.n_doppler * self.m_delay - len(self.zeroed)

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
        flat[self._index] = 0.0
        x = sfft(flat.reshape(n, m)).ravel()
        if self._index.size:
            # Solve for the unknown zero-forced TF values so that the empty DD
            # positions come out exactly zero, then correct the SFFT output.
            u = np.linalg.solve(self._schur, -x[self._index])
            x += self._columns @ u
        return np.delete(x, self._index)


def _sfft_columns(n: int, m: int, index: np.ndarray) -> np.ndarray:
    """Columns of the unit SFFT matrix at the given TF positions, (NM x r)."""
    k = np.arange(n)[:, None, None]
    l = np.arange(m)[None, :, None]
    nn, mm = np.divmod(index, m)
    return (np.exp(-2j * np.pi * k * nn / n)
            * np.exp(2j * np.pi * l * mm / m)).reshape(n * m, -1)


def build_modified_sfft(n: int, m: int, zeroed) -> ModifiedSfft:
    """Construct the reduced inverse transform for one zero-forced TF set.

    The DD bins left empty sit at the same (row, col) positions. Raises
    :class:`DimensionMismatch` for a bin outside the grid and
    :class:`SingularReducedMatrix` if the reduced forward matrix is rank
    deficient (a different bin placement must be chosen in that case).
    """
    zeroed = sorted(set((int(a), int(b)) for a, b in zeroed))
    index = _tf_linear(zeroed, n, m)
    columns = _sfft_columns(n, m, index)
    # Invertibility of the reduced forward matrix is equivalent to
    # invertibility of the r x r block of the inverse transform at the removed
    # positions (Schur complement of a full-rank matrix), which stays cheap
    # even on large grids.
    schur = columns[index, :]
    if index.size:
        sv = np.linalg.svd(schur, compute_uv=False)
        if sv[-1] <= _RANK_RTOL * sv[0]:
            raise SingularReducedMatrix(
                f"reduced transform is rank deficient for zeroed={zeroed}")
    for array in (index, columns, schur):
        array.flags.writeable = False
    return ModifiedSfft(n, m, tuple(zeroed), index, columns, schur)

