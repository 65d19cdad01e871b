"""Delay-Doppler <-> time-frequency transforms.

Grids are plain complex ndarrays of shape (N, M): DD grids are indexed
[k, l] (Doppler, delay), TF grids [n, m] (time, frequency). Vectorized forms
are row-major with the second index fastest, i.e. position l + k*M (DD) and
m + n*M (TF). The transforms act on the last two axes, so a stack of
per-antenna grids of shape (..., N, M) is transformed in one call. Each
transform's second 1-D pass writes over its first pass's output, so a call
allocates one array of the input's shape.
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
    out = np.fft.ifft(dd, axis=-2)
    np.fft.fft(out, axis=-1, out=out)
    out /= dd.shape[-1]
    return out


def sfft(tf: np.ndarray) -> np.ndarray:
    """Map TF grids (..., N, M) to the DD domain; the exact inverse of :func:`isfft`.

    x[k,l] = sum_{n,m} X[n,m] exp(-j2pi(kn/N - ml/M)).
    """
    tf = np.asarray(tf)
    if tf.ndim < 2:
        raise DimensionMismatch(f"expected (..., N, M) grids, got shape {tf.shape}")
    out = np.fft.ifft(tf, axis=-1)
    np.fft.fft(out, axis=-2, out=out)
    out *= tf.shape[-1]
    return out


@dataclass(frozen=True)
class ModifiedSfft:
    """Reduced inverse transform for a stack of grids with zero-forced TF bins.

    Grid g of the stack was transmitted with the DD bins left empty where
    ``_empty[g]`` is True and the TF bins at the same (row, col) positions
    forced to zero after the forward transform. :meth:`recover` returns the
    information symbols of every grid. Both domains are row-major, so one
    linear index array per grid serves both. Each reduced forward matrix
    must be full rank. The arrays are read-only.
    """

    _empty: np.ndarray = field(repr=False)        # (G, N, M), True at the zeroed bins
    _index: tuple = field(repr=False)             # per grid, sorted linear indices
    _correction: tuple = field(repr=False)        # per grid, columns @ inv(schur), NM x r

    def recover(self, tf: np.ndarray) -> np.ndarray:
        """Recover the information symbols from a TF stack (G, N, M).

        Returns the DD symbols grid by grid, each in row-major order,
        skipping the empty DD positions. The samples at the zero-forced TF
        bins are ignored.
        """
        tf = np.asarray(tf, dtype=complex)
        if tf.shape != self._empty.shape:
            raise DimensionMismatch(f"expected {self._empty.shape} TF stack, got {tf.shape}")
        x = sfft(np.where(self._empty, 0.0, tf)).reshape(len(self._index), -1)
        # The unknown zero-forced TF values u solve schur @ u = -x[index], so
        # that the empty DD positions come out exactly zero; the SFFT output
        # is corrected by columns @ u = -correction @ x[index].
        for grid, index, correction in zip(x, self._index, self._correction):
            if index.size:
                grid -= correction @ grid[index]
        return x[~self._empty.reshape(x.shape)]


def _sfft_columns(n: int, m: int, index: np.ndarray) -> np.ndarray:
    """Columns of the unit SFFT matrix at the given TF positions, (NM x r)."""
    k = np.arange(n)[:, None, None]
    l = np.arange(m)[None, :, None]
    nn, mm = np.divmod(index, m)
    return (np.exp(-2j * np.pi * k * nn / n)
            * np.exp(2j * np.pi * l * mm / m)).reshape(n * m, -1)


def build_modified_sfft(empty) -> ModifiedSfft:
    """Construct the reduced inverse transform of a (G, N, M) stack of grids.

    ``empty`` is a (G, N, M) boolean stack, True where grid g's TF sample is
    zero-forced and its DD bin is left empty. Raises
    :class:`DimensionMismatch` for a mask that is not 3-D and
    :class:`SingularReducedMatrix` if a reduced forward matrix is rank
    deficient (a different bin placement must be chosen in that case).
    """
    empty = np.array(empty, dtype=bool)
    if empty.ndim != 3:
        raise DimensionMismatch(f"expected a (G, N, M) mask, got shape {empty.shape}")
    _, n, m = empty.shape
    indices, corrections = [], []
    for grid_empty in empty:
        index = np.flatnonzero(grid_empty)
        columns = _sfft_columns(n, m, index)
        # Invertibility of the reduced forward matrix is equivalent to
        # invertibility of the r x r block of the inverse transform at the
        # removed positions (Schur complement of a full-rank matrix), which
        # stays cheap even on large grids.
        schur = columns[index, :]
        if index.size:
            u, sv, vh = np.linalg.svd(schur)
            if sv[-1] <= _RANK_RTOL * sv[0]:
                zeroed = [divmod(int(i), m) for i in index]
                raise SingularReducedMatrix(
                    f"reduced transform is rank deficient for zeroed={zeroed}")
            # the correction columns @ inv(schur), with inv(schur) = V S^-1 U^H
            # from the same decomposition, formed in place one row of the
            # grid at a time so that no second NM x r array is allocated
            inverse = (vh.conj().T / sv) @ u.conj().T
            for rows in columns.reshape(n, m, -1):
                rows[...] = rows @ inverse
        indices.append(index)
        corrections.append(columns)
    for array in (empty, *indices, *corrections):
        array.flags.writeable = False
    return ModifiedSfft(empty, tuple(indices), tuple(corrections))
