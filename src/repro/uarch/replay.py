"""Retirement-trace recording: turn an oracle run into re-timeable ops.

The overlay never re-executes anything.  :func:`record_trace` patches a
recording wrapper over ``machine.step`` — the same instance-attribute
seam :class:`repro.sim.trace.ExecutionTrace` uses — which forces
``Machine.run`` onto the interpreted path, observes every retired
instruction with the machine's *pre-step* state in hand, and delegates
to the original bound ``step`` for the actual architectural work.  The
machine therefore finishes in exactly the state ``run_interpreted``
produces (the ``uarch`` verify family asserts this bit-for-bit), and the
recorded :class:`RetiredOp` list is the program's ground-truth dynamic
schedule: resolved branch directions, effective memory addresses, CRF
banks and entries — everything the timing model needs and nothing it
must guess.

Resource tags follow :mod:`repro.uarch.hazards`: plain ints for
registers, ``("crf", bank, entry)`` for CRF entries (bank sampled
pre-step, so BUT4 writes tag the shadow bank), ``("m", word)`` for data
memory.  ``mem`` additionally keeps the ordered ``(word, is_write)``
beat list so the cache replay sees the identical access stream the
oracle's :class:`~repro.sim.cache.DataCache` saw.
"""

from __future__ import annotations

from ..isa.instructions import Instruction, Opcode

__all__ = ["RetiredOp", "record_trace"]


class RetiredOp:
    """One retired instruction with exact operand resources.

    ``kind`` classifies the op for latency/unit assignment ("alu",
    "mul", "load", "store", "branch", "jump", "ldin", "stout", "but4",
    "nop"); ``taken`` records whether the oracle actually redirected the
    PC (always True for jumps, resolved per-instance for branches).
    """

    __slots__ = ("pc", "opcode", "kind", "reads", "writes", "mem", "taken")

    def __init__(self, pc, opcode, kind, reads=(), writes=(), mem=(),
                 taken=False):
        self.pc = pc
        self.opcode = opcode
        self.kind = kind
        self.reads = reads
        self.writes = writes
        self.mem = mem
        self.taken = taken

    def __repr__(self):  # pragma: no cover - debugging aid
        flag = " taken" if self.taken else ""
        return (f"RetiredOp(pc={self.pc}, {self.opcode}, {self.kind},"
                f" reads={self.reads}, writes={self.writes},"
                f" mem={self.mem}{flag})")


_ALU_R_OPS = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.MULH, Opcode.AND,
    Opcode.OR, Opcode.XOR, Opcode.SLT, Opcode.SLLV,
})
_ALU_I_OPS = frozenset({
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLTI,
    Opcode.SLL, Opcode.SRL, Opcode.SRA,
})
_BRANCH_OPS = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE})


def _regs(*numbers):
    """Register tags with r0 (hardwired zero) and duplicates dropped."""
    seen = []
    for number in numbers:
        if number and number not in seen:
            seen.append(number)
    return tuple(seen)


def _pre_op(machine, instr: Instruction) -> RetiredOp:
    """Build the RetiredOp for ``instr`` from the machine's pre-step state."""
    op = instr.opcode
    pc = machine.pc
    if op in _ALU_R_OPS:
        kind = "mul" if op in (Opcode.MUL, Opcode.MULH) else "alu"
        return RetiredOp(pc, op, kind, _regs(instr.rs, instr.rt),
                         _regs(instr.rd))
    if op in _ALU_I_OPS:
        return RetiredOp(pc, op, "alu", _regs(instr.rs), _regs(instr.rt))
    if op is Opcode.LUI:
        return RetiredOp(pc, op, "alu", (), _regs(instr.rt))
    if op is Opcode.LW:
        address = machine.read_reg(instr.rs) + instr.imm
        return RetiredOp(pc, op, "load",
                         _regs(instr.rs) + (("m", address),),
                         _regs(instr.rt), ((address, False),))
    if op is Opcode.SW:
        address = machine.read_reg(instr.rs) + instr.imm
        return RetiredOp(pc, op, "store", _regs(instr.rs, instr.rt),
                         (("m", address),), ((address, True),))
    if op in _BRANCH_OPS:
        return RetiredOp(pc, op, "branch", _regs(instr.rs, instr.rt))
    if op is Opcode.J:
        return RetiredOp(pc, op, "jump")
    if op is Opcode.JAL:
        return RetiredOp(pc, op, "jump", (), _regs(31))
    if op is Opcode.JR:
        return RetiredOp(pc, op, "jump", _regs(instr.rs))
    if op is Opcode.LDIN:
        return _pre_ldin(machine, instr, pc)
    if op is Opcode.STOUT:
        return _pre_stout(machine, instr, pc)
    if op is Opcode.BUT4:
        return _pre_but4(machine, instr, pc)
    # NOP / HALT (and anything the oracle will reject itself).
    return RetiredOp(pc, op, "nop")


def _pre_ldin(machine, instr, pc) -> RetiredOp:
    from ..asip.fft_asip import GROUP_SIZE_REG, STRIDE_REG
    size = machine._group_size()
    stride = machine._stride()
    mem = machine.read_reg(instr.rs)
    crf = machine.read_reg(instr.rt)
    bank = machine.crf.active_bank
    second = mem + stride
    return RetiredOp(
        pc, instr.opcode, "ldin",
        _regs(instr.rs, instr.rt, STRIDE_REG, GROUP_SIZE_REG)
        + (("m", mem), ("m", second)),
        _regs(instr.rs, instr.rt)
        + (("crf", bank, crf % size), ("crf", bank, (crf + 1) % size)),
        ((mem, False), (second, False)),
    )


def _pre_stout(machine, instr, pc) -> RetiredOp:
    from ..asip.fft_asip import GROUP_SIZE_REG, STOUT_STRIDE_REG
    size = machine._group_size()
    stride = machine._stride(STOUT_STRIDE_REG)
    crf = machine.read_reg(instr.rs)
    mem = machine.read_reg(instr.rt)
    bank = machine.crf.active_bank
    second = mem + stride
    return RetiredOp(
        pc, instr.opcode, "stout",
        _regs(instr.rs, instr.rt, STOUT_STRIDE_REG, GROUP_SIZE_REG)
        + (("crf", bank, crf % size), ("crf", bank, (crf + 1) % size)),
        _regs(instr.rs, instr.rt) + (("m", mem), ("m", second)),
        ((mem, True), (second, True)),
    )


def _pre_but4(machine, instr, pc) -> RetiredOp:
    from ..asip.fft_asip import GROUP_SIZE_REG
    machine._group_size()   # idempotent: (re)configures the AC logic
    module = machine.read_reg(instr.rs)
    stage = machine.read_reg(instr.rt)
    addresses = machine.ac.addresses(module, stage)
    bank = machine.crf.active_bank
    shadow = 1 - bank
    reads = tuple(
        ("crf", bank, entry)
        for entry in addresses.crf_reads_first + addresses.crf_reads_second
    )
    writes = tuple(
        ("crf", shadow, entry)
        for entry in addresses.crf_writes_first + addresses.crf_writes_second
    )
    return RetiredOp(
        pc, instr.opcode, "but4",
        _regs(instr.rs, instr.rt, GROUP_SIZE_REG) + reads,
        writes,
    )


def record_trace(machine, program) -> list:
    """Run ``program`` on ``machine``, returning its RetiredOp trace.

    The machine executes through the interpreted path (the patched
    ``step`` declines the levelized pass and the predecoded fast path)
    and ends in exactly the architectural state of an unrecorded
    ``run_interpreted``; the wrapper is removed again even if execution
    raises.
    """
    if "step" in machine.__dict__:
        raise ValueError("machine.step is already instrumented")
    ops = []
    append = ops.append
    original_step = machine.step
    stats = machine.stats

    def recording_step(instr):
        op = _pre_op(machine, instr)
        taken_before = stats.taken_branches
        original_step(instr)
        op.taken = stats.taken_branches != taken_before
        append(op)

    machine.step = recording_step
    try:
        machine.run(program)
    finally:
        machine.__dict__.pop("step", None)
    return ops
