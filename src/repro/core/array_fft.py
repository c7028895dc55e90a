"""The array-structured FFT — the paper's primary contribution.

An :class:`ArrayFFT` executes the restructured dataflow of Figs. 1-2:

* the N-point FFT is split into two epochs of P- and Q-point group FFTs
  (``N = P * Q``) with one memory exchange between them;
* every group FFT runs stage-by-stage through the *same* modular compute
  step: a half-split column of butterflies executed by the 4-lane
  Butterfly Unit, with read addresses from the accumulated local
  address-changing rule and twiddles from the ROM stride rule;
* epoch-0 outputs are pre-rotated by ``W_N^{s l}`` using the
  symmetry-compressed coefficient store.

The class operates at the algorithm level (no instruction simulation) and
is the ground-truth engine the ASIP's execution must, and is tested to,
agree with.  Both float and Q1.15 fixed-point datapaths are supported.
Its per-butterfly walks report each group's row after every stage
through the ``observe`` seam :func:`repro.verify.coexec_fft` drives.
"""

from __future__ import annotations

import numpy as np

from ..addressing.coefficients import PreRotationStore, rom_table
from ..addressing.epoch import EpochSplit
from .butterfly import ButterflyUnit
from .compiled import CompiledArrayFFT
from .fixed_point import FixedPointContext, quantize
from .plan import ArrayFFTPlan, EpochPlan, build_plan

__all__ = ["ArrayFFT"]


class _ExactPreRotation:
    """Uncompressed pre-rotation weights for N < 8 (no octant symmetry)."""

    def __init__(self, n_points: int):
        self.n_points = n_points

    def weight(self, s: int, l: int) -> complex:
        exp = (s * l) % self.n_points
        return complex(np.exp(-2j * np.pi * exp / self.n_points))


class ArrayFFT:
    """Reusable N-point array FFT engine.

    Parameters
    ----------
    n_points:
        FFT size; any power of two >= 4 ("any-point" scalability is the
        design goal — the same engine covers WiMAX's 128..2048 range).
    split:
        Optional explicit epoch split (defaults to the paper's rule).
    fixed_point:
        When True, runs the Q1.15 datapath with per-stage scaling; the
        returned spectrum is then ``FFT(x)/N`` plus quantisation noise.
    compiled:
        When True (default), :meth:`transform` runs on the compiled-plan
        vectorised engine (:class:`repro.core.compiled.CompiledArrayFFT`),
        which is bit-identical in fixed point and agrees to rounding
        noise (~1 ulp) in float.  Set False to force the readable
        per-butterfly oracle datapath.
    """

    def __init__(self, n_points: int, split: EpochSplit = None,
                 fixed_point: bool = False, compiled: bool = True):
        self.plan: ArrayFFTPlan = build_plan(n_points, split)
        self.fixed_point = fixed_point
        self.use_compiled = compiled
        self._compiled: CompiledArrayFFT = None
        self.fx = FixedPointContext() if fixed_point else None
        self.bu = ButterflyUnit(arithmetic=self.fx)
        # The paper's N/8+1 symmetry store needs N >= 8; the N=4 corner
        # case falls back to exact weights (there are only 4 of them).
        if n_points >= 8:
            self.prerotation = PreRotationStore(n_points)
        else:
            self.prerotation = _ExactPreRotation(n_points)
        self._rom = {
            epoch.group_size: rom_table(epoch.group_size)
            for epoch in self.plan.epochs
        }
        if fixed_point:
            self._rom_fx = {
                size: [quantize(complex(w)) for w in table]
                for size, table in self._rom.items()
            }

    @property
    def n_points(self) -> int:
        """FFT size N."""
        return self.plan.n_points

    # ------------------------------------------------------------------

    def compiled_engine(self) -> CompiledArrayFFT:
        """The lazily built compiled-plan engine for this plan."""
        if self._compiled is None:
            self._compiled = CompiledArrayFFT(
                self.plan, self.prerotation,
                fixed_point=self.fixed_point, fx=self.fx,
            )
        return self._compiled

    def transform(self, x) -> np.ndarray:
        """Compute the natural-order forward FFT of ``x``.

        In fixed-point mode the input must satisfy ``|re|, |im| <= 1`` and
        the output equals ``FFT(x)/N`` up to quantisation noise.
        """
        x = np.asarray(x, dtype=complex)
        if len(x) != self.n_points:
            raise ValueError(
                f"engine is planned for N={self.n_points}, "
                f"got {len(x)} points"
            )
        if self.use_compiled:
            out = self.compiled_engine().transform_many(x[None, :])[0]
            self.bu.op_count += self.plan.total_but4
            return out
        return self.transform_reference(x)

    def transform_reference(self, x) -> np.ndarray:
        """The readable per-butterfly oracle datapath (the seed code).

        Retained alongside the compiled engine as the bit-true reference:
        in fixed point the compiled path must (and is tested to) agree
        with this one to the last bit, overflow counts included.
        """
        x = np.asarray(x, dtype=complex)
        if len(x) != self.n_points:
            raise ValueError(
                f"engine is planned for N={self.n_points}, "
                f"got {len(x)} points"
            )
        if self.fixed_point:
            return self._transform_fixed(x)
        return self._transform_float(x)

    def transform_many(self, blocks, _out=None) -> np.ndarray:
        """Batch transform of an ``(n_symbols, N)`` block matrix.

        Runs the batch through the compiled engine in cache-sized symbol
        blocks that fill one output, amortising plan compilation and
        per-call overhead across the batch — the multi-symbol OFDM
        workload path.  ``_out``, when given, is a C-contiguous
        ``(n_symbols, N)`` complex array that receives the spectra (how a
        sharded worker fills its slice of one shared output).
        """
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 2 or blocks.shape[1] != self.n_points:
            raise ValueError(
                f"expected an (n_symbols, {self.n_points}) matrix, "
                f"got shape {blocks.shape}"
            )
        if not self.use_compiled:
            return np.stack(
                [self.transform_reference(block) for block in blocks],
                out=_out,
            )
        out = self.compiled_engine().transform_many(blocks, _out=_out)
        self.bu.op_count += blocks.shape[0] * self.plan.total_but4
        return out

    def __call__(self, x) -> np.ndarray:
        """Alias for :meth:`transform`."""
        return self.transform(x)

    # Float datapath -----------------------------------------------------

    def _transform_float(self, x: np.ndarray, observe=None) -> np.ndarray:
        """The float walk, one group in flight.  ``observe``, when given,
        is called as ``observe(phase, stage, row)`` with each group's CRF
        row after every stage (``"epoch0"``/``"epoch1"``, stage 0-based)
        and with each epoch-1 group's pre-rotated row as it loads
        (``"prerotate"``, 0): groups in order, so a phase's rows stack
        into the compiled walk's ``(groups, size)`` block.  The Q1.15 walk
        has the same seam over ``FixedComplex`` rows."""
        split = self.plan.split
        P, Q, N = split.P, split.Q, split.N
        scratch = np.empty(N, dtype=complex)
        epoch0, epoch1 = self.plan.epochs
        for l in range(Q):
            crf = x[l::Q].copy()          # LDIN: strided gather, group l
            crf = self._run_group(crf, epoch0, observe)
            for s in range(P):            # pre-rotation + STOUT
                scratch[s * Q + l] = crf[s] * self.prerotation.weight(s, l)
        out = np.empty(N, dtype=complex)
        for s in range(P):
            crf = scratch[s * Q:(s + 1) * Q].copy()
            if observe is not None:
                observe("prerotate", 0, crf)
            crf = self._run_group(crf, epoch1, observe)
            out[s + P * np.arange(Q)] = crf
        return out

    def _run_group(self, crf: np.ndarray, epoch: EpochPlan,
                   observe=None) -> np.ndarray:
        rom = self._rom[epoch.group_size]
        for si, stage_plan in enumerate(epoch.stages):
            column = crf[list(stage_plan.read_addresses)]
            coeffs = rom[list(stage_plan.coefficient_indices)]
            crf = self.bu.execute_column(column, coeffs)
            if observe is not None:
                observe(f"epoch{epoch.epoch}", si, crf)
        return crf

    # Fixed-point datapath ------------------------------------------------

    def _transform_fixed(self, x: np.ndarray, observe=None) -> np.ndarray:
        split = self.plan.split
        P, Q, N = split.P, split.Q, split.N
        epoch0, epoch1 = self.plan.epochs
        scratch = [None] * N
        for l in range(Q):
            crf = [quantize(complex(v)) for v in x[l::Q]]
            crf = self._run_group_fixed(crf, epoch0, observe)
            for s in range(P):
                w = quantize(self.prerotation.weight(s, l))
                scratch[s * Q + l] = self.fx.multiply(crf[s], w)
        out = np.empty(N, dtype=complex)
        for s in range(P):
            crf = scratch[s * Q:(s + 1) * Q]
            if observe is not None:
                observe("prerotate", 0, crf)
            crf = self._run_group_fixed(crf, epoch1, observe)
            for k2 in range(Q):
                out[s + P * k2] = crf[k2].to_complex()
        return out

    def _run_group_fixed(self, crf: list, epoch: EpochPlan,
                         observe=None) -> list:
        rom = self._rom_fx[epoch.group_size]
        half = epoch.group_size // 2
        for si, stage_plan in enumerate(epoch.stages):
            column = [crf[a] for a in stage_plan.read_addresses]
            out = [None] * epoch.group_size
            for m in range(half):
                w = rom[stage_plan.coefficient_indices[m]]
                s, d = self.fx.butterfly(column[m], column[m + half], w)
                out[m] = s
                out[m + half] = d
            crf = out
            self.bu.op_count += stage_plan.modules
            if observe is not None:
                observe(f"epoch{epoch.epoch}", si, crf)
        return crf

    # Inverse transform ----------------------------------------------------

    def inverse(self, spectrum) -> np.ndarray:
        """Inverse FFT via the conjugation identity.

        OFDM transmitters run the IFFT on the same hardware; the standard
        trick ``ifft(X) = conj(fft(conj(X))) / N`` reuses the array
        datapath unchanged.  In fixed-point mode the forward transform
        already carries the ``1/N`` scaling, so the inverse needs no
        further division and returns the time signal directly.
        """
        spectrum = np.asarray(spectrum, dtype=complex)
        forward = self.transform(np.conj(spectrum))
        if self.fixed_point:
            return np.conj(forward)
        return np.conj(forward) / self.n_points

    def inverse_many(self, spectra) -> np.ndarray:
        """Batch inverse FFT of an ``(n_symbols, N)`` spectrum matrix."""
        spectra = np.asarray(spectra, dtype=complex)
        forward = self.transform_many(np.conj(spectra))
        if self.fixed_point:
            return np.conj(forward)
        return np.conj(forward) / self.n_points

    # Introspection -------------------------------------------------------

    def memory_operation_counts(self) -> dict:
        """Load/store/BUT4 counts implied by the plan (Algorithm 1)."""
        return {
            "ldin": self.plan.total_ldin,
            "stout": self.plan.total_stout,
            "but4": self.plan.total_but4,
            "prerotation": self.plan.prerotation_ops,
        }
