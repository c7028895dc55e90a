"""Implementation 1 of Table II: standard software FFT on the base core.

A textbook iterative radix-2 DIF FFT compiled (by hand, via the program
builder) for the plain PISA-like core with **no** FFT hardware: planar
re/im arrays in memory, software address arithmetic, and — the signature
of naive FFT code — the twiddle factor recomputed per butterfly with
``cos``/``sin`` library calls, here 20-term Horner polynomial subroutines
whose coefficients live in a memory constant pool.

This is a *real program* executed instruction-by-instruction on the same
simulator as the ASIP, so cycles/loads/stores/misses respond to the same
mechanisms the paper measures.  The paper's own baseline is even slower
(866.5x vs the ASIP); ours lands in the same hundreds-X decade — see
EXPERIMENTS.md for the measured ratio and discussion.

Memory map (word addresses):
    [0, N)        re[i]          [N, 2N)    im[i]
    [2N, 2N+32)   cos/sin Taylor coefficient pool
    [2N+32 ...]   scratch
"""

from __future__ import annotations

import math

import numpy as np

from ..addressing.bitops import bit_width_of
from ..isa.instructions import Opcode
from ..isa.program import Program, ProgramBuilder
from ..sim.cache import CacheConfig
from ..sim.machine import Machine
from ..sim.memory import MainMemory
from ..sim.pipeline import PipelineConfig

__all__ = ["SoftwareFFTBaseline", "generate_software_fft", "TAYLOR_TERMS"]

TAYLOR_TERMS = 20

# Registers (callee-managed, no stack needed: leaf subroutines only).
_R_N = 1          # N
_R_M = 2          # current block size m
_R_HALF = 3       # m / 2
_R_BASE = 4       # block base index
_R_T = 5          # butterfly offset within block
_R_I0 = 6
_R_I1 = 7
_R_ARE, _R_AIM, _R_BRE, _R_BIM = 8, 9, 10, 11
_R_TRE, _R_TIM = 12, 13
_R_WRE, _R_WIM = 14, 15
_R_ANG = 16       # angle argument / sincos result
_R_ACC = 17       # Horner accumulator
_R_X2 = 18        # angle squared
_R_CPTR = 19      # coefficient pointer
_R_CNT = 20       # Horner counter
_R_STEP = 21      # twiddle angle step (-2*pi/N * stride)
_R_TWO_PI = 22    # unused slots kept for clarity
_R_TMP = 23
_R_IMBASE = 24    # N (offset of im array)
_R_COEF = 25      # coefficient pool base (2N)
_R_STRIDE = 28    # twiddle stride for current stage


def _coefficient_pool(n_points: int) -> list:
    """(address, value) pairs of the cos then sin Taylor coefficients.

    cos x = sum (-1)^k x^{2k} / (2k)!, sin x = x * sum (-1)^k x^{2k}/(2k+1)!
    evaluated by Horner in x^2, highest term first.
    """
    pool = []
    base = 2 * n_points
    for k in range(TAYLOR_TERMS):          # cos coefficients, high to low
        term = TAYLOR_TERMS - 1 - k
        pool.append((base + k, (-1.0) ** term / math.factorial(2 * term)))
    for k in range(TAYLOR_TERMS):          # sin coefficients, high to low
        term = TAYLOR_TERMS - 1 - k
        pool.append(
            (base + TAYLOR_TERMS + k,
             (-1.0) ** term / math.factorial(2 * term + 1))
        )
    return pool


def _emit_horner(b: ProgramBuilder, pool_offset: int) -> None:
    """Evaluate a 20-term Horner polynomial in x^2 into _R_ACC.

    Expects _R_X2 = x*x; clobbers _R_CPTR, _R_CNT, _R_TMP.
    """
    b.emit(Opcode.ADDI, rt=_R_CPTR, rs=_R_COEF, imm=pool_offset)
    b.li(_R_CNT, TAYLOR_TERMS - 1)
    b.emit(Opcode.LW, rt=_R_ACC, rs=_R_CPTR, imm=0)
    label = f"horner_{pool_offset}_{id(b)}_{len(b._instructions)}"
    b.label(label)
    b.emit(Opcode.ADDI, rt=_R_CPTR, rs=_R_CPTR, imm=1)
    b.emit(Opcode.MUL, rd=_R_ACC, rs=_R_ACC, rt=_R_X2)
    b.emit(Opcode.LW, rt=_R_TMP, rs=_R_CPTR, imm=0)
    b.emit(Opcode.ADD, rd=_R_ACC, rs=_R_ACC, rt=_R_TMP)
    b.emit(Opcode.ADDI, rt=_R_CNT, rs=_R_CNT, imm=-1)
    b.branch(Opcode.BNE, rs=_R_CNT, rt=0, target=label)


def generate_software_fft(n_points: int) -> Program:
    """Build the naive software FFT program for ``n_points``."""
    stages = bit_width_of(n_points)
    b = ProgramBuilder(f"sw_fft_{n_points}")
    b.li(_R_N, n_points)
    b.li(_R_IMBASE, n_points)
    b.li(_R_COEF, 2 * n_points)
    b.li(_R_M, n_points)

    b.label("stage_loop")
    b.emit(Opcode.SRL, rt=_R_HALF, rs=_R_M, imm=1)
    # twiddle stride = N / m (recomputed per stage by shifting).
    b.li(_R_STRIDE, 1)
    b.move(_R_TMP, _R_M)
    b.label("stride_loop")
    b.branch(Opcode.BGE, rs=_R_TMP, rt=_R_N, target="stride_done")
    b.emit(Opcode.SLL, rt=_R_STRIDE, rs=_R_STRIDE, imm=1)
    b.emit(Opcode.SLL, rt=_R_TMP, rs=_R_TMP, imm=1)
    b.branch(Opcode.J, target="stride_loop")
    b.label("stride_done")

    b.li(_R_BASE, 0)
    b.label("block_loop")
    b.li(_R_T, 0)
    b.label("bfly_loop")
    # Indices.
    b.emit(Opcode.ADD, rd=_R_I0, rs=_R_BASE, rt=_R_T)
    b.emit(Opcode.ADD, rd=_R_I1, rs=_R_I0, rt=_R_HALF)
    # Load operands (planar).
    b.emit(Opcode.LW, rt=_R_ARE, rs=_R_I0, imm=0)
    b.emit(Opcode.ADD, rd=_R_TMP, rs=_R_I0, rt=_R_IMBASE)
    b.emit(Opcode.LW, rt=_R_AIM, rs=_R_TMP, imm=0)
    b.emit(Opcode.LW, rt=_R_BRE, rs=_R_I1, imm=0)
    b.emit(Opcode.ADD, rd=_R_TMP, rs=_R_I1, rt=_R_IMBASE)
    b.emit(Opcode.LW, rt=_R_BIM, rs=_R_TMP, imm=0)
    # Sum to i0.
    b.emit(Opcode.ADD, rd=_R_TRE, rs=_R_ARE, rt=_R_BRE)
    b.emit(Opcode.SW, rt=_R_TRE, rs=_R_I0, imm=0)
    b.emit(Opcode.ADD, rd=_R_TRE, rs=_R_AIM, rt=_R_BIM)
    b.emit(Opcode.ADD, rd=_R_TMP, rs=_R_I0, rt=_R_IMBASE)
    b.emit(Opcode.SW, rt=_R_TRE, rs=_R_TMP, imm=0)
    # Difference.
    b.emit(Opcode.SUB, rd=_R_TRE, rs=_R_ARE, rt=_R_BRE)
    b.emit(Opcode.SUB, rd=_R_TIM, rs=_R_AIM, rt=_R_BIM)
    # The naive signature: angle = t * stride * (-2*pi/N), then cos/sin
    # by 20-term polynomials with memory-resident coefficients.
    b.emit(Opcode.MUL, rd=_R_ANG, rs=_R_T, rt=_R_STRIDE)
    b.emit(Opcode.MUL, rd=_R_ANG, rs=_R_ANG, rt=_R_STEP)
    b.emit(Opcode.MUL, rd=_R_X2, rs=_R_ANG, rt=_R_ANG)
    _emit_horner(b, 0)                      # cos into _R_ACC
    b.move(_R_WRE, _R_ACC)
    _emit_horner(b, TAYLOR_TERMS)           # sin/x into _R_ACC
    b.emit(Opcode.MUL, rd=_R_WIM, rs=_R_ACC, rt=_R_ANG)
    # Complex multiply (tre + j*tim) * (wre + j*wim), store to i1.
    b.emit(Opcode.MUL, rd=_R_ARE, rs=_R_TRE, rt=_R_WRE)
    b.emit(Opcode.MUL, rd=_R_AIM, rs=_R_TIM, rt=_R_WIM)
    b.emit(Opcode.SUB, rd=_R_ARE, rs=_R_ARE, rt=_R_AIM)
    b.emit(Opcode.SW, rt=_R_ARE, rs=_R_I1, imm=0)
    b.emit(Opcode.MUL, rd=_R_ARE, rs=_R_TRE, rt=_R_WIM)
    b.emit(Opcode.MUL, rd=_R_AIM, rs=_R_TIM, rt=_R_WRE)
    b.emit(Opcode.ADD, rd=_R_ARE, rs=_R_ARE, rt=_R_AIM)
    b.emit(Opcode.ADD, rd=_R_TMP, rs=_R_I1, rt=_R_IMBASE)
    b.emit(Opcode.SW, rt=_R_ARE, rs=_R_TMP, imm=0)
    # Loop control: butterflies, blocks, stages.
    b.emit(Opcode.ADDI, rt=_R_T, rs=_R_T, imm=1)
    b.branch(Opcode.BLT, rs=_R_T, rt=_R_HALF, target="bfly_loop")
    b.emit(Opcode.ADD, rd=_R_BASE, rs=_R_BASE, rt=_R_M)
    b.branch(Opcode.BLT, rs=_R_BASE, rt=_R_N, target="block_loop")
    b.emit(Opcode.SRL, rt=_R_M, rs=_R_M, imm=1)
    b.li(_R_TMP, 1)
    b.branch(Opcode.BLT, rs=_R_TMP, rt=_R_M, target="stage_loop")
    b.halt()
    return b.build()


class SoftwareFFTBaseline:
    """Run the naive software FFT on the plain base core."""

    def __init__(self, n_points: int, cache_config: CacheConfig = None,
                 pipeline: PipelineConfig = None):
        self.n_points = n_points
        self.stages = bit_width_of(n_points)
        self.program = generate_software_fft(n_points)
        self.cache_config = cache_config
        self.pipeline = pipeline

    def run(self, x) -> tuple:
        """Execute on input ``x``; returns (spectrum, stats).

        The spectrum comes back bit-reversed (DIF leaves it so, and naive
        programs reorder on the host); we reorder in numpy, which costs no
        simulated cycles — favouring the baseline, i.e. conservative for
        the paper's speedup claims.
        """
        x = np.asarray(x, dtype=complex)
        if len(x) != self.n_points:
            raise ValueError(f"program is for N={self.n_points}")
        memory = MainMemory(4 * self.n_points + 256, float_mode=True)
        for i, v in enumerate(x):
            memory.write_word(i, float(v.real))
            memory.write_word(self.n_points + i, float(v.imag))
        for address, value in _coefficient_pool(self.n_points):
            memory.write_word(address, value)
        machine = Machine(
            memory, cache_config=self.cache_config, pipeline=self.pipeline,
            max_instructions=200_000_000,
        )
        machine.write_reg(_R_STEP, -2.0 * math.pi / self.n_points)
        stats = machine.run(self.program)
        re = np.array([memory.read_word(i) for i in range(self.n_points)])
        im = np.array([
            memory.read_word(self.n_points + i) for i in range(self.n_points)
        ])
        data = re + 1j * im
        # Undo the DIF bit-reversal on the host.
        from ..fft.twiddle import bit_reversed_indices

        return data[bit_reversed_indices(self.n_points)], stats
