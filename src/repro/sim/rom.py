"""On-chip coefficient ROM for the intra-epoch twiddles.

Holds ``W_P^k`` for ``k = 0 .. P/2 - 1`` (Section II-C).  When the ASIP
serves two epochs with different group sizes (P and Q), the ROM is built
for the larger size P and the Q-point epoch indexes it with a stride of
``P/Q`` — exploiting ``W_Q^k = W_P^{k P/Q}`` so no second ROM is needed.
"""

from __future__ import annotations

import numpy as np

from ..addressing.bitops import bit_width_of
from ..addressing.coefficients import rom_table
from ..core.fixed_point import quantize_array

__all__ = ["CoefficientROM"]


class CoefficientROM:
    """Read-only twiddle store with access counting."""

    def __init__(self, points: int):
        bit_width_of(points)
        self.points = points
        self._table = rom_table(points)
        self._fixed = None  # lazily quantised (re, im) component tables
        self.reads = 0

    def __len__(self) -> int:
        return len(self._table)

    def read(self, address: int) -> complex:
        """Read ``W_P^address``."""
        if not (0 <= address < len(self._table)):
            raise IndexError(
                f"ROM address {address} out of range [0, {len(self._table)})"
            )
        self.reads += 1
        return complex(self._table[address])

    def read_for_size(self, address: int, group_points: int) -> complex:
        """Read a twiddle of a smaller FFT size via stride addressing.

        ``W_group^address == W_P^{address * (P / group)}``.
        """
        if group_points > self.points:
            raise ValueError(
                f"group size {group_points} exceeds ROM size {self.points}"
            )
        stride = self.points // group_points
        return self.read(address * stride)

    def table_indices(self, addresses: np.ndarray,
                      group_points: int) -> np.ndarray:
        """Full-table indices of stride-addressed twiddles (no read is
        counted)."""
        if group_points > self.points:
            raise ValueError(
                f"group size {group_points} exceeds ROM size {self.points}"
            )
        return addresses * (self.points // group_points)

    def table(self) -> np.ndarray:
        """The full ``W_P^k`` table (read-only view; no read is counted)."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    def fixed_table(self) -> tuple:
        """The full table as Q1.15 ``(re, im)`` components, quantised once
        (no read is counted)."""
        if self._fixed is None:
            self._fixed = quantize_array(self._table)
        return self._fixed

    def as_array(self) -> np.ndarray:
        """Copy of the full table (for verification)."""
        return self._table.copy()
