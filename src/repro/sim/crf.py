"""Custom Register File (CRF) — the on-chip store for epoch intermediates.

The CRF holds one group of intermediate results (``P`` complex entries for
the larger epoch).  The verified dataflow is ping-pong: each stage reads
its input column from one bank (at the AC-generated addresses) and writes
its output column to the other bank at natural positions, then the banks
swap — matching Fig. 2's two data columns sandwiching the butterflies.

Two storage modes model the same architectural state:

* **complex mode** (default) — each bank is a complex vector; in
  fixed-point operation the ASIP quantises on load, so every stored value
  lies on the Q1.15 grid and the CRF merely stores what it is given.
* **int mode** (``int_mode=True``) — each bank is a struct-of-arrays pair
  of ``re``/``im`` component vectors in the Q1.15 lane format (int32,
  :data:`~repro.core.fixed_point.LANE_DTYPE`) holding the integers
  directly.  This is the storage the vectorised Q1.15 BUT4 path operates
  on; the scalar accessors convert on the fly (losslessly, since every
  value is on the grid), so the per-op oracle path stays bit-true.

The CRF models one symbol.  Multi-symbol batches
(:meth:`repro.asip.FFTASIP.run_batch`) never widen it: they track which
value each entry names, tally the accesses per symbol on this object, and
load the last symbol's end state back through :meth:`bank_arrays`.
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

    # Vectorised accessors -------------------------------------------------

    def read_many(self, addresses: np.ndarray) -> np.ndarray:
        """Gather entries from the active bank at an index array.

        Counts one read per address, like ``len(addresses)`` calls of
        :meth:`read`.  Callers must supply non-negative in-range indices
        (the AC logic validates its tables once at build time); the fancy
        index rejects overruns but would wrap negatives.
        """
        self.reads += len(addresses)
        if self.int_mode:
            return fixed_to_complex_array(
                self._re[self._active][addresses],
                self._im[self._active][addresses],
            )
        return self._data[self._active][addresses]

    def read_many_fixed(self, addresses: np.ndarray) -> tuple:
        """Gather Q1.15 ``(re, im)`` components (int mode only)."""
        if not self.int_mode:
            raise ValueError("read_many_fixed needs an int-mode CRF")
        self.reads += len(addresses)
        return (
            self._re[self._active][addresses],
            self._im[self._active][addresses],
        )

    def write_many(self, addresses: np.ndarray, values) -> None:
        """Scatter a value block into the active bank (LDIN columns)."""
        self._scatter(self._active, addresses, values)

    def write_shadow_many(self, addresses: np.ndarray, values) -> None:
        """Scatter a value array into the inactive bank (stage outputs)."""
        self._scatter(1 - self._active, addresses, values)

    def _scatter(self, bank: int, addresses: np.ndarray, values) -> None:
        self.writes += len(addresses)
        if self.int_mode:
            re, im = quantize_array(values)
            self._re[bank][addresses] = re
            self._im[bank][addresses] = im
        else:
            self._data[bank][addresses] = values

    def write_many_fixed(self, addresses: np.ndarray, re, im) -> None:
        """Scatter Q1.15 components into the active bank (int mode)."""
        self._scatter_fixed(self._active, addresses, re, im)

    def write_shadow_many_fixed(self, addresses: np.ndarray, re, im) -> None:
        """Scatter Q1.15 components into the inactive bank (int mode)."""
        self._scatter_fixed(1 - self._active, addresses, re, im)

    def _scatter_fixed(self, bank: int, addresses: np.ndarray,
                       re, im) -> None:
        if not self.int_mode:
            raise ValueError("fixed-component scatter needs an int-mode CRF")
        self.writes += len(addresses)
        self._re[bank][addresses] = re
        self._im[bank][addresses] = im

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
