"""The BU functional unit as wired into the ASIP's EX stage.

Wraps :class:`repro.core.butterfly.ButterflyUnit` with the CRF/ROM access
pattern of one BUT4 operation: gather 8 operands at the AC-generated read
addresses from the active CRF bank, compute 4 butterflies, scatter the
outputs to the shadow bank at natural positions.  A levelized pass
(:meth:`repro.asip.FFTASIP.run_batch`) moves no data here: it records
BUT4s as dataflow and only tallies them with :meth:`count_span`.
"""

from __future__ import annotations

import numpy as np

from ..core.butterfly import BUOperands, ButterflyUnit
from .ac_logic import BUAddresses
from .crf import CustomRegisterFile
from .rom import CoefficientROM

__all__ = ["BUFunctionalUnit"]


class BUFunctionalUnit:
    """Execution-stage wrapper: CRF/ROM in, CRF out."""

    def __init__(self, arithmetic=None):
        self.unit = ButterflyUnit(arithmetic=arithmetic)

    @property
    def op_count(self) -> int:
        """Number of BUT4 operations executed."""
        return self.unit.op_count

    def count_span(self, reads: np.ndarray, rom_addresses: np.ndarray,
                   writes: np.ndarray, ops: int, crf: CustomRegisterFile,
                   rom: CoefficientROM) -> None:
        """Tally ``ops`` BUT4s without moving data (a levelized pass
        records their dataflow instead).

        The counters advance exactly as ``ops`` :meth:`execute` calls
        over the same addresses would: one op each, one CRF read or write
        per index and one ROM read per coefficient.
        """
        self.unit.op_count += ops
        crf.reads += len(reads)
        crf.writes += len(writes)
        rom.reads += len(rom_addresses)

    def execute(self, addresses: BUAddresses, crf: CustomRegisterFile,
                rom: CoefficientROM, group_size: int) -> None:
        """Run one BUT4 against the CRF and ROM."""
        first = tuple(crf.read(a) for a in addresses.crf_reads_first)
        second = tuple(crf.read(a) for a in addresses.crf_reads_second)
        coefficients = tuple(
            rom.read_for_size(a, group_size)
            for a in addresses.rom_addresses
        )
        sums, diffs = self.unit.execute(
            BUOperands(first=first, second=second, coefficients=coefficients)
        )
        for position, value in zip(addresses.crf_writes_first, sums):
            crf.write_shadow(position, value)
        for position, value in zip(addresses.crf_writes_second, diffs):
            crf.write_shadow(position, value)
