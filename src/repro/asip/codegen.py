"""Code generator: Algorithm 1 lowered to FFT-ASIP assembly for any N.

The paper reprograms and recompiles the FFT per size; this module is that
compiler.  Structure per epoch (Algorithm 1):

    for each group d:
        LDIN  x (group_size / 2 ops, hardware post-increment)
        for each stage j:  BUT4(i, j) for i = 1 .. group_size/8
        STOUT x (group_size / 2 ops; epoch 0 uses the pre-rotating form)

Register conventions (see :mod:`repro.asip.fft_asip` for k0/k1 and the
STOUT stride register):

========  =====================================================
r3, r11   stage / module numbers beyond the constant pools
r4        LDIN memory cursor          r5   LDIN CRF cursor
r6        STOUT CRF cursor            r7   STOUT memory cursor
r8        group counter               r9   group count bound
r10       STOUT cursor rewind const
r12..r19  module-number constants 1..8
r20..r24  stage-number constants 1..5
r25       STOUT memory stride         r26 (k0) LDIN memory stride
r27 (k1)  group size
========  =====================================================

LDIN/BUT4/STOUT bursts are always fully unrolled (their addressing is
hardware-generated, so unrolling costs no registers).  For small N the
*group* loop is unrolled too, leaving only per-group cursor bookkeeping —
this is what keeps small-size overhead near zero, the property behind
Table I's mildly *decreasing* throughput: as N grows, the software group
loop returns and its control cost grows with the group count.
"""

from __future__ import annotations

from ..core.plan import ArrayFFTPlan, EpochPlan, build_plan
from ..isa.instructions import Opcode
from ..isa.program import Program, ProgramBuilder
from .fft_asip import GROUP_SIZE_REG, STOUT_STRIDE_REG

__all__ = ["generate_fft_program", "CodegenLayout", "UNROLL_THRESHOLD"]

UNROLL_THRESHOLD = 512  # full group unroll for N up to this size

_MODULE_REG_BASE = 12
_MODULE_REG_COUNT = 8
_STAGE_REG_BASE = 20
_STAGE_REG_COUNT = 5

_R_SCRATCH2 = 3   # stage numbers beyond the constant pool
_R_LDIN_MEM = 4
_R_LDIN_CRF = 5
_R_STOUT_CRF = 6
_R_STOUT_MEM = 7
_R_GROUP = 8
_R_GROUP_BOUND = 9
_R_REWIND = 10
_R_SCRATCH = 11   # module numbers beyond the constant pool


class CodegenLayout:
    """Memory-map constants shared with :class:`repro.asip.FFTASIP`."""

    def __init__(self, n_points: int):
        self.input_base = 0
        self.scratch_base = n_points
        self.output_base = 2 * n_points


def generate_fft_program(n_points: int, plan: ArrayFFTPlan = None,
                         unroll_threshold: int = UNROLL_THRESHOLD) -> Program:
    """Build the N-point FFT program of Algorithm 1."""
    plan = plan or build_plan(n_points)
    if plan.n_points != n_points:
        raise ValueError(f"plan is for N={plan.n_points}, not {n_points}")
    layout = CodegenLayout(n_points)
    b = ProgramBuilder(f"array_fft_{n_points}")

    # Constant pools for BUT4 operands.
    module_regs = min(
        _MODULE_REG_COUNT, max(e.stages[0].modules for e in plan.epochs)
    )
    for k in range(module_regs):
        b.li(_MODULE_REG_BASE + k, k + 1)
    stage_regs = min(_STAGE_REG_COUNT, max(e.stage_count for e in plan.epochs))
    for k in range(stage_regs):
        b.li(_STAGE_REG_BASE + k, k + 1)

    unroll_groups = n_points <= unroll_threshold
    epoch0, epoch1 = plan.epochs
    state = {"group_size": None, "stout_stride": None}
    _emit_epoch(
        b, epoch0,
        ldin_base=layout.input_base,
        stout_base=layout.scratch_base, stout_stride=epoch1.group_size,
        prerotate=True, tag=0, unroll_groups=unroll_groups, state=state,
        reload_ldin_base=True,
    )
    _emit_epoch(
        b, epoch1,
        ldin_base=layout.scratch_base,
        stout_base=layout.output_base, stout_stride=epoch0.group_size,
        prerotate=False, tag=1, unroll_groups=unroll_groups, state=state,
        # Epoch 0's contiguous LDIN cursor ends exactly at the scratch
        # base, so epoch 1 inherits it without a reload.
        reload_ldin_base=False,
    )
    b.halt()
    return b.build()


def _emit_epoch(b: ProgramBuilder, epoch: EpochPlan, ldin_base: int,
                stout_base: int, stout_stride: int, prerotate: bool,
                tag: int, unroll_groups: bool, state: dict,
                reload_ldin_base: bool) -> None:
    size = epoch.group_size
    # Epoch configuration, skipping latches that already hold the value
    # (square N keeps the same group size and strides across epochs).
    if state["group_size"] != size:
        b.li(GROUP_SIZE_REG, size)
        state["group_size"] = size
    if state["stout_stride"] != stout_stride:
        b.li(STOUT_STRIDE_REG, stout_stride)
        state["stout_stride"] = stout_stride
    if reload_ldin_base:
        b.li(_R_LDIN_MEM, ldin_base)
        b.li(_R_LDIN_CRF, 0)
    b.li(_R_STOUT_MEM, stout_base)
    b.li(_R_STOUT_CRF, 0)

    if unroll_groups:
        for _ in range(epoch.group_count):
            _emit_group_body(b, epoch, prerotate)
        return

    b.li(_R_GROUP, 0)
    b.li(_R_GROUP_BOUND, epoch.group_count)
    b.label(f"epoch{tag}_group")
    _emit_group_body(b, epoch, prerotate)
    b.emit(Opcode.ADDI, rt=_R_GROUP, rs=_R_GROUP, imm=1)
    b.branch(Opcode.BNE, rs=_R_GROUP, rt=_R_GROUP_BOUND,
             target=f"epoch{tag}_group")


def _emit_group_body(b: ProgramBuilder, epoch: EpochPlan,
                     prerotate: bool) -> None:
    size = epoch.group_size
    # LDIN burst: group_size/2 ops; all addressing (post-increment, CRF
    # wrap, group-boundary sequencing) is generated by the decoder.
    for _ in range(max(size // 2, 1)):
        b.emit(Opcode.LDIN, rs=_R_LDIN_MEM, rt=_R_LDIN_CRF)
    # BUT4 grid: stages x modules, fully unrolled.
    for stage_plan in epoch.stages:
        stage_reg = _stage_reg(b, stage_plan.stage)
        for module in range(1, stage_plan.modules + 1):
            module_reg = _module_reg(b, module)
            b.emit(Opcode.BUT4, rs=module_reg, rt=stage_reg)
    # STOUT burst: strided dump, pre-rotating for epoch 0.
    for _ in range(max(size // 2, 1)):
        b.emit(Opcode.STOUT, rs=_R_STOUT_CRF, rt=_R_STOUT_MEM,
               imm=1 if prerotate else 0)


def _module_reg(b: ProgramBuilder, module: int) -> int:
    """Register holding the module number, materialising if off-pool."""
    if module <= _MODULE_REG_COUNT:
        return _MODULE_REG_BASE + module - 1
    b.li(_R_SCRATCH, module)
    return _R_SCRATCH


def _stage_reg(b: ProgramBuilder, stage: int) -> int:
    """Register holding the stage number, materialising if off-pool."""
    if stage <= _STAGE_REG_COUNT:
        return _STAGE_REG_BASE + stage - 1
    b.li(_R_SCRATCH2, stage)
    return _R_SCRATCH2