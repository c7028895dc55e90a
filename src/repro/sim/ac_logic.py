"""Address-Changing (AC) logic — the decoder-side address generator.

Section III's key architectural point: BUT4 carries only (module, stage)
operands and *all* register-file and ROM addresses are produced by
combinational logic in the decoder.  This module is that logic.  It is a
thin, stateless wrapper over the addressing rules, organised exactly as
the hardware consumes them: per BUT4 op, 8 CRF read addresses, 4 ROM
addresses, and 8 CRF write addresses (natural positions of the ping-pong
output column).

The generator is sized by the epoch's group size at `configure` time —
modelling the stage/epoch configuration registers the real decoder would
latch from the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..addressing.bitops import bit_width_of
from ..addressing.coefficients import rom_coefficient_index
from ..addressing.local import stage_input_addresses

__all__ = ["BUAddresses", "AddressChangingLogic"]


@dataclass(frozen=True)
class BUAddresses:
    """All addresses for one BUT4(module, stage) operation."""

    crf_reads_first: tuple    # 4 addresses of the sum-side inputs
    crf_reads_second: tuple   # 4 addresses of the twiddled inputs
    rom_addresses: tuple      # 4 coefficient addresses
    crf_writes_first: tuple   # 4 output positions (sums)
    crf_writes_second: tuple  # 4 output positions (differences)


class AddressChangingLogic:
    """Per-epoch configured AC address generator."""

    LANES = 4

    def __init__(self):
        self._group_size = None
        self._p = None
        self._read_tables = {}
        self._index_cache = {}
        # Per group size: (read tables, index cache).  Programs whose two
        # epochs use different group sizes reconfigure twice per run; the
        # tables of both sizes stay lowered.
        self._by_size = {}

    def configure(self, group_size: int) -> None:
        """Latch the group size of the current epoch (P or Q)."""
        self._p = bit_width_of(group_size)
        self._group_size = group_size
        tables = self._by_size.get(group_size)
        if tables is None:
            tables = self._by_size[group_size] = (
                {stage: stage_input_addresses(self._p, stage)
                 for stage in range(1, self._p + 1)},
                {},
            )
        self._read_tables, self._index_cache = tables

    @property
    def group_size(self) -> int:
        """Currently configured group size."""
        if self._group_size is None:
            raise RuntimeError("AC logic not configured for an epoch yet")
        return self._group_size

    def modules_per_stage(self) -> int:
        """Number of BUT4 ops per stage (``max(P/8, 1)``)."""
        return max(self.group_size // 8, 1)

    def lanes_for_module(self, module: int) -> int:
        """Butterfly lanes used by ``module`` (4, or fewer for tiny groups)."""
        half = self.group_size // 2
        base = self.LANES * (module - 1)
        return max(0, min(self.LANES, half - base))

    def addresses(self, module: int, stage: int) -> BUAddresses:
        """Generate every address consumed by ``BUT4(module, stage)``.

        ``module`` and ``stage`` are 1-origin, as in the paper.
        """
        size = self.group_size
        half = size // 2
        if not (1 <= stage <= self._p):
            raise ValueError(
                f"stage must be in [1, {self._p}], got {stage}"
            )
        if not (1 <= module <= self.modules_per_stage()):
            raise ValueError(
                f"module must be in [1, {self.modules_per_stage()}], "
                f"got {module}"
            )
        reads = self._read_tables[stage]
        base = self.LANES * (module - 1)
        lanes = self.lanes_for_module(module)
        first_pos = tuple(base + k for k in range(lanes))
        second_pos = tuple(base + half + k for k in range(lanes))
        return BUAddresses(
            crf_reads_first=tuple(reads[m] for m in first_pos),
            crf_reads_second=tuple(reads[m] for m in second_pos),
            rom_addresses=tuple(
                rom_coefficient_index(size, stage, m) for m in first_pos
            ),
            crf_writes_first=first_pos,
            crf_writes_second=second_pos,
        )

    def index_arrays(self, module: int, stage: int) -> tuple:
        """The addresses of ``BUT4(module, stage)`` as cached index arrays.

        Returns ``(reads, rom, writes, lanes)`` where ``reads``/``writes``
        concatenate the first/second halves of :meth:`addresses` into one
        gather/scatter array each.  The tables only depend on (module,
        stage) for a configured group size, so the whole BUT4 grid is
        lowered once per size and every later op is a dictionary hit — the
        vectorised counterpart of the decoder's combinational address
        generation.
        """
        key = (module, stage)
        cached = self._index_cache.get(key)
        if cached is None:
            a = self.addresses(module, stage)
            cached = (
                np.array(a.crf_reads_first + a.crf_reads_second,
                         dtype=np.intp),
                np.array(a.rom_addresses, dtype=np.intp),
                np.array(a.crf_writes_first + a.crf_writes_second,
                         dtype=np.intp),
                len(a.crf_reads_first),
            )
            self._check_indices(cached)
            self._index_cache[key] = cached
        return cached

    @staticmethod
    def _check_indices(arrays: tuple) -> None:
        """One-time guard: gather tables must never contain negatives
        (a negative would silently wrap in the levelized CRF/ROM
        gathers where the scalar oracle raises)."""
        reads, rom, writes, _ = arrays
        for table in (reads, rom, writes):
            if len(table) and table.min() < 0:
                raise IndexError(
                    f"AC index table contains a negative address: {table}"
                )

    def span_arrays(self, module_first: int, module_last: int,
                    stage: int) -> tuple:
        """Combined index arrays for modules ``first..last`` of one stage.

        Returns ``(reads, rom, writes, lanes)`` with all first-half
        indices (and then all second-half indices) of the modules
        concatenated, so a whole run of consecutive BUT4s records as one
        column op.  Per-module counting is unaffected: the array lengths
        equal the sums over :meth:`index_arrays`.
        """
        key = (module_first, module_last, stage)
        cached = self._index_cache.get(key)
        if cached is None:
            parts = [
                self.addresses(module, stage)
                for module in range(module_first, module_last + 1)
            ]
            firsts = [a.crf_reads_first for a in parts]
            seconds = [a.crf_reads_second for a in parts]
            cached = (
                np.array(sum(firsts, ()) + sum(seconds, ()), dtype=np.intp),
                np.array(sum((a.rom_addresses for a in parts), ()),
                         dtype=np.intp),
                np.array(
                    sum((a.crf_writes_first for a in parts), ())
                    + sum((a.crf_writes_second for a in parts), ()),
                    dtype=np.intp,
                ),
                sum(len(f) for f in firsts),
            )
            self._check_indices(cached)
            self._index_cache[key] = cached
        return cached
