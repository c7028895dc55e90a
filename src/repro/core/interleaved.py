"""Interleaved-group execution — the temporal-parallel variant.

The paper's related work ([14], Ishebabi et al.) improves cached-FFT
ASIPs by interleaving group executions to hide latency; the paper notes
its own design keeps one group in flight (simpler CRF).  This module
makes the trade executable: an engine that processes ``ways`` groups of
an epoch concurrently, stage by stage, out of a ``ways * P``-entry
register file — the datapath the ablation benchmarks price against the
baseline schedule.

Numerically the result is identical to :class:`repro.core.ArrayFFT`
(asserted in tests); what changes is the op *schedule* (exposed for
pipeline-occupancy analysis) and the CRF capacity requirement.
"""

from __future__ import annotations

import numpy as np

from ..addressing.coefficients import PreRotationStore, rom_table
from .array_fft import _ExactPreRotation
from .butterfly import ButterflyUnit
from .plan import ArrayFFTPlan, EpochPlan, build_plan
from .schedule import interleaved_schedule

__all__ = ["InterleavedArrayFFT"]


class InterleavedArrayFFT:
    """Array FFT executing ``ways`` groups of each epoch in parallel."""

    def __init__(self, n_points: int, ways: int = 2):
        if ways < 1:
            raise ValueError(f"ways must be >= 1, got {ways}")
        self.plan: ArrayFFTPlan = build_plan(n_points)
        self.ways = ways
        self.bu = ButterflyUnit()
        self.prerotation = (
            PreRotationStore(n_points) if n_points >= 8
            else _ExactPreRotation(n_points)
        )
        self._rom = {
            epoch.group_size: rom_table(epoch.group_size)
            for epoch in self.plan.epochs
        }
        self.executed_ops = []

    @property
    def n_points(self) -> int:
        """FFT size N."""
        return self.plan.n_points

    @property
    def crf_entries_required(self) -> int:
        """Register-file capacity of this variant (``ways * P``)."""
        return self.ways * self.plan.crf_entries

    def transform(self, x) -> np.ndarray:
        """Forward FFT via the interleaved schedule; natural order out."""
        x = np.asarray(x, dtype=complex)
        if len(x) != self.n_points:
            raise ValueError(
                f"engine planned for N={self.n_points}, got {len(x)}"
            )
        split = self.plan.split
        P, Q, N = split.P, split.Q, split.N
        epoch0, epoch1 = self.plan.epochs
        self.executed_ops = []

        live = {}  # (epoch, group) -> current CRF column
        ops = list(interleaved_schedule(self.plan, self.ways))
        scratch = np.empty(N, dtype=complex)
        out = np.empty(N, dtype=complex)

        boundary = sum(1 for op in ops if op.epoch == 0)
        self._run_epoch(ops[:boundary], epoch0, live,
                        loader=lambda g: x[g::Q].copy(),
                        sink=lambda g, col: self._dump_epoch0(
                            scratch, g, col, split))
        self._run_epoch(ops[boundary:], epoch1, live,
                        loader=lambda g: scratch[g * Q:(g + 1) * Q].copy(),
                        sink=lambda g, col: self._dump_epoch1(
                            out, g, col, split))
        return out

    def _run_epoch(self, ops, epoch: EpochPlan, live: dict, loader,
                   sink) -> None:
        rom = self._rom[epoch.group_size]
        half = epoch.group_size // 2
        lanes = self.bu.LANES
        progress = {}  # group -> stages completed
        for op in ops:
            key = (op.epoch, op.group)
            if key not in live:
                if len(live) >= self.ways:
                    raise AssertionError(
                        "schedule exceeded the provisioned CRF capacity"
                    )
                live[key] = loader(op.group)
                progress[op.group] = {"stage": 0, "column": None}
            state = progress[op.group]
            stage_plan = epoch.stages[op.stage - 1]
            if state["stage"] != op.stage:
                # first module of a new stage: gather the read column
                state["column"] = live[key][list(stage_plan.read_addresses)]
                state["out"] = np.empty_like(live[key])
                state["stage"] = op.stage
            base = lanes * (op.module - 1)
            width = min(lanes, half - base)
            column = state["column"]
            coeffs = rom[list(
                stage_plan.coefficient_indices[base:base + width]
            )]
            for k in range(width):
                m = base + k
                s, d = self.bu.execute(_single_op(
                    column[m], column[m + half], coeffs[k]
                ))
                state["out"][m] = s[0]
                state["out"][m + half] = d[0]
            self.executed_ops.append(op)
            if op.module == stage_plan.modules:
                live[key] = state["out"]  # ping-pong bank swap
                if op.stage == epoch.stage_count:
                    sink(op.group, live.pop(key))
                    del progress[op.group]

    def _dump_epoch0(self, scratch, group, column, split) -> None:
        for s in range(split.P):
            scratch[s * split.Q + group] = (
                column[s] * self.prerotation.weight(s, group)
            )

    def _dump_epoch1(self, out, group, column, split) -> None:
        for k2 in range(split.Q):
            out[group + split.P * k2] = column[k2]


def _single_op(a, b, w):
    from .butterfly import BUOperands

    return BUOperands(first=(a,), second=(b,), coefficients=(w,))
