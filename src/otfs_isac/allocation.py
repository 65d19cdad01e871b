"""Private / shared bin bookkeeping and rate-loss accounting.

Each transmit antenna i owns a set P_i of private TF bins. Every other
antenna must zero-force those bins, so antenna i's zero set is
Z_i = union of P_i' over i' != i. To keep its DD information recoverable
despite the |Z_i| zero-forced TF samples, antenna i leaves |Z_i| DD bins
empty (set E_i). E_i reuses the (row, col) indices of Z_i, so the allocation
stores Z_i only, and one (N_t, N, M) boolean mask marks both sets on a grid
stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AntennaOutOfRange, DimensionMismatch, DuplicatePrivateBin


@dataclass(frozen=True)
class BinAllocation:
    """Per-antenna private TF bins and the derived zero sets."""

    n_tx: int
    private_bins: tuple      # per antenna: frozenset of TF (n, m)
    zero_bins: tuple         # per antenna: frozenset of TF (n, m)

    @property
    def n_private_total(self) -> int:
        return sum(len(p) for p in self.private_bins)

    def private_bin_list(self):
        """All private bins as (owner_antenna, (n, m)), in a fixed order."""
        out = []
        for ant, bins in enumerate(self.private_bins):
            out.extend((ant, bin_) for bin_ in sorted(bins))
        return out

    def zero_mask(self, n: int, m: int) -> np.ndarray:
        """(n_tx, n, m) boolean stack, True on each antenna's zero set Z_i.

        Raises :class:`DimensionMismatch` for a bin outside the n x m grid.
        """
        mask = np.zeros((self.n_tx, n, m), dtype=bool)
        for ant, bins in enumerate(self.zero_bins):
            for (a, b) in bins:
                if not (0 <= a < n and 0 <= b < m):
                    raise DimensionMismatch(f"bin {(a, b)} outside {n}x{m} grid")
                mask[ant, a, b] = True
        return mask


def make_allocation(n_tx: int, private_assignments=()) -> BinAllocation:
    """Build an allocation from (antenna, tf_bin) assignments.

    The transform-side rank check decides whether the placement is usable.
    """
    if n_tx <= 0:
        raise ValueError("n_tx must be positive")
    private = [set() for _ in range(n_tx)]
    seen = set()
    for ant, bin_ in private_assignments:
        ant = int(ant)
        bin_ = (int(bin_[0]), int(bin_[1]))
        if not 0 <= ant < n_tx:
            raise AntennaOutOfRange(f"antenna {ant} not in [0, {n_tx})")
        if bin_ in seen:
            raise DuplicatePrivateBin(f"TF bin {bin_} assigned twice")
        seen.add(bin_)
        private[ant].add(bin_)
    return BinAllocation(
        n_tx=n_tx,
        private_bins=tuple(frozenset(p) for p in private),
        zero_bins=tuple(frozenset(seen - p) for p in private),
    )


def diagonal_allocation(n_tx: int) -> BinAllocation:
    """One private bin per antenna on the TF diagonal: P_i = {(i, i)}."""
    return make_allocation(n_tx, [(i, (i, i)) for i in range(n_tx)])


def zero_force(tf: np.ndarray, alloc: BinAllocation) -> np.ndarray:
    """Return a copy of the (n_tx, N, M) TF stack with each antenna's zero set
    forced to 0."""
    out = np.array(tf, dtype=complex, copy=True)
    if out.ndim != 3 or out.shape[0] != alloc.n_tx:
        raise DimensionMismatch(
            f"expected a ({alloc.n_tx}, N, M) TF stack, got shape {out.shape}")
    out[alloc.zero_mask(*out.shape[1:])] = 0.0
    return out


def rate_accounting(alloc: BinAllocation, n: int, m: int,
                    bits_per_symbol: int, subcarrier_spacing_hz: float) -> dict:
    """Symbol and rate loss caused by the private-bin design.

    Each private bin costs (n_tx - 1) DD symbols system-wide; the bit-rate
    figures assume one frame per subcarrier-spacing period.
    """
    n_p = alloc.n_private_total
    symbols_lost = n_p * (alloc.n_tx - 1)
    symbols_total = alloc.n_tx * n * m - symbols_lost
    return {
        "symbols_total": symbols_total,
        "symbols_lost": symbols_lost,
        "loss_fraction": symbols_lost / (alloc.n_tx * n * m),
        "rate_loss_bits_per_s": symbols_lost * bits_per_symbol * subcarrier_spacing_hz,
        "rate_loss_bits_per_s_per_private_bin": (
            (alloc.n_tx - 1) * bits_per_symbol * subcarrier_spacing_hz),
    }
