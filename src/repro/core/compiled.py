"""Compiled-plan vectorized execution engine for the array FFT.

The readable :class:`~repro.core.array_fft.ArrayFFT` datapaths walk the
plan group by group, butterfly by butterfly — ideal as a bit-true oracle,
hopeless as a throughput engine.  This module lowers an
:class:`~repro.core.plan.ArrayFFTPlan` *once* into flat numpy tables:

* per-stage CRF read-address gathers (``StagePlan.read_addresses`` as an
  index array) and pre-gathered ROM coefficient rows;
* the full P x Q pre-rotation weight matrix from
  :meth:`PreRotationStore.weight_matrix` (one vectorised symmetry
  reconstruction instead of N scalar lookups);
* the epoch-0 gather map (corner turn ``x -> (Q, P)``) and the epoch-1
  scatter map (``(P, Q) -> natural-order spectrum``).

Execution is then pure fancy indexing plus whole-column butterflies: an
epoch processes **all of its groups at once** as a ``(..., groups, size)``
block, and a leading batch axis turns the same code into the multi-symbol
``transform_many`` path.  The fixed-point datapath runs on int32 lane
arrays (the format :func:`~repro.core.fixed_point.quantize_array`
returns) through the vectorised
:class:`~repro.core.fixed_point.FixedPointContext` ops and is
bit-identical — including overflow counts — to the scalar
:class:`FixedComplex` walk.

Both walks take an optional ``observe`` callback, called after every
stage and after the pre-rotation: the seam :func:`repro.verify.coexec_fft`
drives, at one ``is not None`` test per stage when nothing observes.
"""

from __future__ import annotations

import numpy as np

from ..addressing.coefficients import prerotation_matrix, rom_table
from .fixed_point import (
    FixedPointContext,
    fixed_to_complex_array,
    quantize_array,
)
from .plan import ArrayFFTPlan, EpochPlan

__all__ = ["CompiledStage", "CompiledArrayFFT"]


class CompiledStage:
    """One stage of a group FFT, lowered to gather tables.

    Attributes
    ----------
    reads:
        int index array of length ``size``: the CRF gather order
        (``StagePlan.read_addresses``).
    weights:
        complex array of length ``size / 2``: the ROM values at this
        stage's coefficient indices, pre-gathered.
    wr, wi:
        Q1.15 quantisation of ``weights`` (int32 lanes), present in
        fixed-point mode.
    """

    __slots__ = ("reads", "weights", "wr", "wi", "modules")

    def __init__(self, reads, weights, fixed_point: bool, modules: int):
        self.reads = np.asarray(reads, dtype=np.intp)
        self.weights = np.asarray(weights, dtype=complex)
        self.modules = modules
        if fixed_point:
            self.wr, self.wi = quantize_array(self.weights)
        else:
            self.wr = self.wi = None


def _lower_epoch(epoch: EpochPlan, fixed_point: bool) -> list:
    rom = rom_table(epoch.group_size)
    return [
        CompiledStage(
            reads=stage.read_addresses,
            weights=rom[list(stage.coefficient_indices)],
            fixed_point=fixed_point,
            modules=stage.modules,
        )
        for stage in epoch.stages
    ]


class CompiledArrayFFT:
    """The lowered, vectorised form of one :class:`ArrayFFTPlan`.

    Parameters
    ----------
    plan:
        The static plan to lower.
    prerotation:
        The owning engine's pre-rotation store.  When it provides
        ``weight_matrix`` (the symmetry-compressed store) that vectorised
        path is used; otherwise (the N < 8 fallback) the exact weights are
        computed directly.
    fixed_point:
        Selects the Q1.15 int32-lane datapath.
    fx:
        The owning engine's :class:`FixedPointContext`; vectorised ops
        accumulate overflow counts on it so scalar and compiled runs
        report through the same counter.
    """

    def __init__(self, plan: ArrayFFTPlan, prerotation,
                 fixed_point: bool = False, fx: FixedPointContext = None):
        self.plan = plan
        self.fixed_point = fixed_point
        self.fx = fx if fx is not None else (
            FixedPointContext() if fixed_point else None
        )
        split = plan.split
        P, Q, N = split.P, split.Q, split.N
        self.epoch0 = _lower_epoch(plan.epochs[0], fixed_point)
        self.epoch1 = _lower_epoch(plan.epochs[1], fixed_point)
        # Epoch-0 gather map: element (l, m) of the (Q, P) group block is
        # input point m*Q + l (the strided LDIN walk of every group at
        # once).  Epoch-1 scatter map: group-block element (s, k2) lands
        # at spectrum position k2*P + s.
        self.gather0 = (
            np.arange(P, dtype=np.intp)[None, :] * Q
            + np.arange(Q, dtype=np.intp)[:, None]
        )
        self.scatter1 = (
            np.arange(Q, dtype=np.intp)[None, :] * P
            + np.arange(P, dtype=np.intp)[:, None]
        )
        # Full P x Q pre-rotation weight matrix, one vectorised lookup.
        self.prerotation = prerotation_matrix(prerotation, P, Q)
        if fixed_point:
            self.pr, self.pi = quantize_array(self.prerotation)

    # Float datapath ------------------------------------------------------

    def transform_many(self, blocks: np.ndarray) -> np.ndarray:
        """Transform a ``(..., N)`` batch; returns the same shape.

        All leading axes are batch axes; a single transform is the
        ``(1, N)`` case.  Dispatches on the engine's datapath.
        """
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.shape[-1] != self.plan.n_points:
            raise ValueError(
                f"engine is compiled for N={self.plan.n_points}, "
                f"got blocks of {blocks.shape[-1]} points"
            )
        if self.fixed_point:
            return self._transform_many_fixed(blocks)
        return self._transform_many_float(blocks)

    def _transform_many_float(self, blocks: np.ndarray,
                              observe=None) -> np.ndarray:
        """The float walk."""
        batch = blocks.shape[:-1]
        # Corner-turn every symbol into its (Q, P) epoch-0 group block.
        state = blocks[..., self.gather0]
        for si, stage in enumerate(self.epoch0):
            state = self._stage_float(state, stage)
            if observe is not None:
                observe("epoch0", si, state)
        # Pre-rotate and transpose into the (P, Q) epoch-1 group block.
        state = state.swapaxes(-1, -2) * self.prerotation
        if observe is not None:
            observe("prerotate", 0, state)
        for si, stage in enumerate(self.epoch1):
            state = self._stage_float(state, stage)
            if observe is not None:
                observe("epoch1", si, state)
        out = np.empty(batch + (self.plan.n_points,), dtype=complex)
        out[..., self.scatter1.reshape(-1)] = state.reshape(batch + (-1,))
        return out

    @staticmethod
    def _stage_float(state: np.ndarray, stage: CompiledStage) -> np.ndarray:
        column = state[..., stage.reads]
        half = column.shape[-1] // 2
        a = column[..., :half]
        t = column[..., half:] * stage.weights
        out = np.empty_like(state)
        out[..., :half] = a + t
        out[..., half:] = a - t
        return out

    # Fixed-point datapath -------------------------------------------------

    def _transform_many_fixed(self, blocks: np.ndarray,
                              observe=None) -> np.ndarray:
        batch = blocks.shape[:-1]
        re, im = quantize_array(blocks)
        re = re[..., self.gather0]
        im = im[..., self.gather0]
        for si, stage in enumerate(self.epoch0):
            re, im = self._stage_fixed(re, im, stage)
            if observe is not None:
                observe("epoch0", si, (re, im))
        re, im = self.fx.multiply_arrays(
            re.swapaxes(-1, -2), im.swapaxes(-1, -2), self.pr, self.pi
        )
        if observe is not None:
            observe("prerotate", 0, (re, im))
        for si, stage in enumerate(self.epoch1):
            re, im = self._stage_fixed(re, im, stage)
            if observe is not None:
                observe("epoch1", si, (re, im))
        flat = fixed_to_complex_array(
            re.reshape(batch + (-1,)), im.reshape(batch + (-1,))
        )
        out = np.empty(batch + (self.plan.n_points,), dtype=complex)
        out[..., self.scatter1.reshape(-1)] = flat
        return out

    def _stage_fixed(self, re, im, stage: CompiledStage) -> tuple:
        # Gather each butterfly operand into its own contiguous block: on
        # short groups the kernel's column ops then run in long inner
        # loops rather than one per group.
        half = len(stage.reads) // 2
        first, second = stage.reads[:half], stage.reads[half:]
        sr, si, dr, di = self.fx.butterfly_arrays(
            re[..., first], im[..., first], re[..., second], im[..., second],
            stage.wr, stage.wi,
        )
        out_re = np.empty_like(re)
        out_im = np.empty_like(im)
        out_re[..., :half] = sr
        out_re[..., half:] = dr
        out_im[..., :half] = si
        out_im[..., half:] = di
        return out_re, out_im
