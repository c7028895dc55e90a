"""The BU functional unit as wired into the ASIP's EX stage.

Wraps :class:`repro.core.butterfly.ButterflyUnit` with the CRF/ROM access
pattern of one BUT4 operation: gather 8 operands at the AC-generated read
addresses from the active CRF bank, compute 4 butterflies, scatter the
outputs to the shadow bank at natural positions.
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

    def execute_span(self, reads: np.ndarray, rom_addresses: np.ndarray,
                     writes: np.ndarray, lanes: int, ops: int,
                     crf: CustomRegisterFile, rom: CoefficientROM,
                     group_size: int) -> None:
        """Run ``ops`` consecutive BUT4s of one stage as one column op.

        ``reads``/``writes``/``rom_addresses`` come from
        :meth:`AddressChangingLogic.span_arrays` (or, for one op,
        ``index_arrays``); counting equals ``ops`` scalar executions
        (``op_count += ops``, one CRF read/write per index, one ROM read
        per coefficient).  The arithmetic is the scalar computation
        element-wise over the lanes: bit-identical on the int-array Q1.15
        CRF, and equal to rounding noise (~1 ulp, numpy's compiled complex
        multiply vs Python scalars) on the float datapath.  A scalar-lane
        fixed-point configuration must go through :meth:`execute` so
        quantisation happens per lane.

        This is the one-symbol datapath.  A multi-symbol
        :meth:`repro.asip.FFTASIP.run_batch` never moves data here: it
        records spans as dataflow, tallies them with :meth:`count_span`
        and evaluates whole FFT stages at once.
        """
        if self.unit.arithmetic is not None and not crf.int_mode:
            raise ValueError(
                "execute_span supports only the float datapath or the "
                "int-array Q1.15 CRF; scalar-lane fixed-point BUT4s must "
                "execute per op"
            )
        self.unit.op_count += ops
        arithmetic = self.unit.arithmetic
        if arithmetic is not None:
            # Whole-column Q1.15: the int32 lane arrays run through
            # the vectorised FixedPointContext ops — bit-identical to the
            # scalar lanes, overflow counts included.
            fx = arithmetic.context
            re, im = crf.read_many_fixed(reads)
            wr, wi = rom.read_many_fixed_for_size(rom_addresses, group_size)
            sr, si, dr, di = fx.butterfly_arrays(
                re[:lanes], im[:lanes], re[lanes:], im[lanes:], wr, wi,
            )
            crf.write_shadow_many_fixed(
                writes, np.concatenate((sr, dr)), np.concatenate((si, di)),
            )
            return
        values = crf.read_many(reads)
        a = values[:lanes]
        t = rom.read_many_for_size(rom_addresses, group_size) * values[lanes:]
        out = np.empty_like(values)
        out[:lanes] = a + t
        out[lanes:] = a - t
        crf.write_shadow_many(writes, out)

    def count_span(self, reads: np.ndarray, rom_addresses: np.ndarray,
                   writes: np.ndarray, ops: int, crf: CustomRegisterFile,
                   rom: CoefficientROM) -> None:
        """Tally ``ops`` BUT4s without moving data.

        The counters advance exactly as :meth:`execute_span` over the
        same index arrays would.
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
