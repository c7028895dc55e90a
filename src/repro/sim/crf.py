"""Custom Register File (CRF) — the on-chip store for epoch intermediates.

The CRF holds one group of intermediate results (``P`` complex entries for
the larger epoch).  The verified dataflow is ping-pong: each stage reads
its input column from one bank (at the AC-generated addresses) and writes
its output column to the other bank at natural positions, then the banks
swap — matching Fig. 2's two data columns sandwiching the butterflies.

Two storage modes, one per datapath precision:

* **complex mode** (default) — each bank is a complex vector; the float
  ASIP uses it.
* **int mode** (``int_mode=True``) — each bank is a struct-of-arrays pair
  of ``re``/``im`` component vectors in the Q1.15 lane format (int32,
  :data:`~repro.core.fixed_point.LANE_DTYPE`) holding the integers
  directly; every Q1.15 ASIP uses it.  The scalar accessors quantise on
  write and convert back on read (losslessly, since every value is on
  the grid), so the per-op oracle path stays bit-true.

The CRF models one symbol.  Levelized passes
(:meth:`repro.asip.FFTASIP.run` and ``run_batch``) never widen it: they
track which value each entry names, tally the accesses per symbol on
this object, and load the last symbol's end state back through
:meth:`bank_arrays`.
"""

from __future__ import annotations

import numpy as np

from ..core.fixed_point import (
    LANE_DTYPE,
    fixed_to_complex_array,
    quantize,
    quantize_array,
)

__all__ = ["CustomRegisterFile"]


class CustomRegisterFile:
    """Double-banked register file of ``entries`` complex values."""

    def __init__(self, entries: int, int_mode: bool = False):
        if entries <= 0:
            raise ValueError(f"CRF needs a positive size, got {entries}")
        self.entries = entries
        self.int_mode = bool(int_mode)
        shape = (2, entries)
        if self.int_mode:
            self._re = np.zeros(shape, dtype=LANE_DTYPE)
            self._im = np.zeros(shape, dtype=LANE_DTYPE)
        else:
            self._data = np.zeros(shape, dtype=complex)
        self._active = 0
        self.reads = 0
        self.writes = 0

    @property
    def active_bank(self) -> int:
        """Index of the bank currently holding live data."""
        return self._active

    def _check(self, address: int) -> None:
        if not (0 <= address < self.entries):
            raise IndexError(
                f"CRF address {address} out of range [0, {self.entries})"
            )

    # Scalar accessors -----------------------------------------------------

    def read(self, address: int) -> complex:
        """Read one entry from the active bank."""
        self._check(address)
        self.reads += 1
        if self.int_mode:
            return complex(fixed_to_complex_array(
                self._re[self._active, address],
                self._im[self._active, address],
            ))
        return complex(self._data[self._active, address])

    def write(self, address: int, value) -> None:
        """Write one entry to the active bank (used by LDIN)."""
        self._write_bank(self._active, address, value)

    def write_shadow(self, address: int, value) -> None:
        """Write to the inactive bank (stage outputs before the swap)."""
        self._write_bank(1 - self._active, address, value)

    def _write_bank(self, bank: int, address: int, value) -> None:
        self._check(address)
        self.writes += 1
        if self.int_mode:
            q = quantize(complex(value))
            self._re[bank, address] = q.re
            self._im[bank, address] = q.im
        else:
            self._data[bank, address] = value

    # Bulk state -----------------------------------------------------------

    def bank_arrays(self) -> tuple:
        """The live ``(2, entries)`` storage of both banks.

        ``(re, im)`` lane arrays in int mode, ``(data,)`` in
        complex mode.  Bulk state transfer only: writes through these
        views bypass the access counters.
        """
        if self.int_mode:
            return self._re, self._im
        return (self._data,)

    # Bank management ------------------------------------------------------

    def swap_banks(self) -> None:
        """Make the shadow bank active (end of a stage)."""
        self._active = 1 - self._active

    def snapshot(self) -> np.ndarray:
        """Copy of the active bank's contents as complex values."""
        if self.int_mode:
            return fixed_to_complex_array(
                self._re[self._active], self._im[self._active]
            )
        return self._data[self._active].copy()

    def load_vector(self, values) -> None:
        """Bulk-load the active bank (test/debug convenience).

        In int mode values are quantised on load — the same convention as
        the ASIP's LDIN.
        """
        values = np.asarray(values, dtype=complex)
        if values.shape != (self.entries,):
            raise ValueError(
                f"expected values of shape {(self.entries,)}, "
                f"got {values.shape}"
            )
        if self.int_mode:
            re, im = quantize_array(values)
            self._re[self._active] = re
            self._im[self._active] = im
        else:
            self._data[self._active] = values
