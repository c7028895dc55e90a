"""The base instruction-set simulator (PISA-like scalar core).

Executes :class:`repro.isa.Program` objects with functional exactness and
the approximate-but-responsive timing model of
:mod:`repro.sim.pipeline`.  The three custom opcodes trap to
:meth:`Machine.execute_custom`, which the plain base core rejects —
the FFT ASIP of :mod:`repro.asip.fft_asip` subclasses this machine and
implements them against its CRF/BU/ROM/AC hardware.
"""

from __future__ import annotations

from ..isa.instructions import Instruction, Opcode
from ..isa.program import Program
from .cache import CacheConfig, DataCache
from .errors import RunawayProgram, SimulationError, UnsupportedInstruction
from .memory import MainMemory
from .pipeline import PipelineConfig
from .stats import SimStats

__all__ = ["Machine"]

_WORD_MASK = 0xFFFFFFFF


def _wrap32(value):
    """Wrap integer results to signed 32-bit; floats pass through."""
    if isinstance(value, float):
        return value
    value &= _WORD_MASK
    return value - 0x100000000 if value & 0x80000000 else value


class Machine:
    """Single-issue in-order scalar core with a data cache.

    Parameters
    ----------
    memory:
        Main data memory (word addressed).
    cache_config:
        Data-cache geometry/timing; pass None for the default 32 KB cache
        or ``cache=False``-style behaviour via ``use_cache=False``.
    pipeline:
        Timing parameters.
    max_instructions:
        Runaway guard: a run aborts with :class:`RunawayProgram` if HALT
        is not reached within this budget (counted per run, so a
        long-lived machine never exhausts it across runs).
    """

    def __init__(self, memory: MainMemory, cache_config: CacheConfig = None,
                 pipeline: PipelineConfig = None, use_cache: bool = True,
                 charge_cache_latency: bool = False,
                 max_instructions: int = 50_000_000):
        self.memory = memory
        self.dcache = DataCache(cache_config) if use_cache else None
        self.charge_cache_latency = charge_cache_latency
        self.pipeline = pipeline or PipelineConfig()
        self.max_instructions = max_instructions
        self.registers = [0] * 32
        self.pc = 0
        self.stats = SimStats()
        self.halted = False
        self._last_load_reg = None
        # Predecode cache: handler list for the last-run program (compare
        # by identity; streaming reuses one Program object across runs).
        # The token invalidates the cache when decode-relevant machine
        # state changes (see _predecode_token).
        self._decoded_program = None
        self._decoded_handlers = None
        self._decoded_token = None

    # Register helpers ----------------------------------------------------

    def read_reg(self, number: int):
        """Read a GPR (r0 reads as zero)."""
        return 0 if number == 0 else self.registers[number]

    def write_reg(self, number: int, value) -> None:
        """Write a GPR (writes to r0 are discarded)."""
        if number != 0:
            self.registers[number] = _wrap32(value)

    # Memory helpers with cache accounting --------------------------------

    def data_access(self, word_address: int, is_write: bool) -> int:
        """Account one data access; returns its latency in cycles.

        Miss counting always happens; the miss *penalty* only enters the
        returned latency when ``charge_cache_latency`` is set.  The default
        matches the paper's SimpleScalar methodology, where Table I/II
        cycle counts and data-cache miss counts are separate columns.
        """
        if is_write:
            self.stats.stores += 1
        else:
            self.stats.loads += 1
        if self.dcache is None:
            return 1
        latency = self.dcache.access(word_address, is_write)
        if latency > self.dcache.config.hit_latency:
            self.stats.dcache_misses += 1
        else:
            self.stats.dcache_hits += 1
        if not self.charge_cache_latency:
            return self.dcache.config.hit_latency
        return latency

    # Execution -----------------------------------------------------------

    def run(self, program: Program) -> SimStats:
        """Run ``program`` from instruction 0 until HALT; returns stats.

        The fast path: the program is predecoded once into per-opcode
        handler closures (operands, branch targets and extra-cost terms
        resolved at decode time), so the per-step work is a list index
        and one call instead of the :meth:`step` opcode chain.  Semantics
        and statistics are identical to :meth:`run_interpreted`.
        """
        if "step" in self.__dict__ or "execute_custom" in self.__dict__:
            # step() or execute_custom() has been instrumented on the
            # instance (e.g. an ExecutionTrace wrap, or a fault-injection
            # harness); honour the patch via the interpreter.
            return self.run_interpreted(program)
        self.pc = 0
        self.halted = False
        self._last_load_reg = None
        token = self._predecode_token()
        if program is not self._decoded_program or token != self._decoded_token:
            self._decoded_handlers = self._predecode(program)
            self._decoded_program = program
            self._decoded_token = token
        handlers = self._decoded_handlers
        length = len(program)
        stats = self.stats
        stall = self.pipeline.load_use_stall
        # Dispatch and cycle counters run in locals and are flushed on
        # exit (also on error).  Fused burst handlers retire extra
        # instructions directly into stats.instructions mid-run, so the
        # runaway check sums both counters.  The check runs between
        # dispatches: a fused burst completes before the guard fires, so
        # the abort may land up to one straight-line burst past the limit
        # (stats stay exact; only the abort point is coarser than the
        # interpreter's).  The budget is per run: it starts from the
        # lifetime count at entry.
        limit = stats.instructions + self.max_instructions
        instructions = 0
        cycles = 0
        try:
            while not self.halted:
                pc = self.pc
                if not (0 <= pc < length):
                    raise SimulationError(
                        f"PC {pc} outside program of length {length}"
                    )
                handler, uses = handlers[pc]
                instructions += 1
                cost = 1
                last = self._last_load_reg
                if last is not None:
                    self._last_load_reg = None
                    if last != 0 and last in uses:
                        cost += stall
                        stats.stall_cycles += stall
                extra, next_pc = handler()
                cycles += cost + extra
                self.pc = next_pc
                if instructions + stats.instructions > limit:
                    raise RunawayProgram(
                        f"exceeded {limit} instructions"
                    )
        finally:
            stats.instructions += instructions
            stats.cycles += cycles
        return stats

    def run_interpreted(self, program: Program) -> SimStats:
        """Run via the readable one-:meth:`step`-at-a-time interpreter.

        The predecoded :meth:`run` is tested against this oracle; it is
        also the honest baseline for the engine-speed benchmark.
        """
        self.pc = 0
        self.halted = False
        self._last_load_reg = None
        length = len(program)
        limit = self.stats.instructions + self.max_instructions
        while not self.halted:
            if not (0 <= self.pc < length):
                raise SimulationError(
                    f"PC {self.pc} outside program of length {length}"
                )
            instr = program[self.pc]
            self.step(instr)
            if self.stats.instructions > limit:
                raise RunawayProgram(
                    f"exceeded {self.max_instructions} instructions"
                )
        return self.stats

    # Predecode -----------------------------------------------------------

    def _predecode(self, program: Program) -> list:
        """Lower ``program`` to a list of ``(handler, uses)`` pairs.

        ``handler()`` executes the instruction and returns ``(extra_cost,
        next_pc)``; ``uses`` is the register tuple consulted by the
        load-use interlock (precomputed :meth:`_uses`).
        """
        decoded = []
        for index, instr in enumerate(program):
            factory = _HANDLER_FACTORIES.get(instr.opcode)
            if factory is None:
                if instr.is_custom:
                    factory = _make_custom
                else:
                    factory = _make_unsupported
            decoded.append((factory(self, instr, index), _uses_tuple(instr)))
        self._fuse_custom_bursts(program, decoded)
        return decoded

    def _fuse_custom_bursts(self, program: Program, decoded: list) -> None:
        """Overlay burst handlers on straight-line runs of custom ops.

        Generated FFT programs are dominated by LDIN/BUT4/STOUT bursts;
        fusing a run of same-opcode custom instructions into one handler
        removes the per-instruction dispatch overhead while retiring the
        same instructions with the same cycle and stat accounting.  The
        per-instruction handlers stay in place at every index, so a
        branch into the middle of a run still executes correctly (custom
        ops never branch, so a fused run always falls through).  Burst
        handlers retire their extra instructions into the stats before
        returning, so the runaway guard sees every retired instruction.
        """
        length = len(program)
        index = 0
        while index < length:
            instr = program[index]
            if not instr.is_custom:
                index += 1
                continue
            end = index + 1
            while (end < length and program[end].is_custom
                   and program[end].opcode is instr.opcode):
                end += 1
            if end - index > 1:
                decoded[index] = (
                    self._make_custom_burst(program, index, end), ()
                )
            index = end

    def _make_custom_burst(self, program: Program, start: int, end: int):
        burst = self.custom_burst_executor(program, start, end)
        if burst is not None:
            def handler(m=self, burst=burst,
                        count_minus_one=end - start - 1, nxt=end):
                extra = count_minus_one + burst()
                m.stats.instructions += count_minus_one
                return (extra, nxt)
            return handler

        executors = [
            (self.custom_executor(program[i]), program[i])
            for i in range(start, end)
        ]

        def handler(m=self, executors=executors,
                    count_minus_one=end - start - 1, nxt=end):
            extra = count_minus_one
            for fn, instr in executors:
                extra += fn(instr)
            m.stats.instructions += count_minus_one
            return (extra, nxt)
        return handler

    def custom_burst_executor(self, program: Program, start: int, end: int):
        """Predecode hook: a fused executor for a custom-op run, or None.

        A subclass may return a zero-argument callable that executes the
        whole run ``program[start:end]`` with identical architectural
        effects and statistics, returning the summed per-op *extra*
        cycles (beyond the one issue cycle each).  Returning None selects
        the generic per-op loop.
        """
        return None

    def step(self, instr: Instruction) -> None:
        """Execute one instruction, updating state, stats and PC."""
        self.stats.instructions += 1
        cost = 1
        next_pc = self.pc + 1
        op = instr.opcode

        # Load-use interlock from the previous instruction's load.
        if self._last_load_reg is not None and self._uses(
            instr, self._last_load_reg
        ):
            cost += self.pipeline.load_use_stall
            self.stats.stall_cycles += self.pipeline.load_use_stall
        self._last_load_reg = None

        if op is Opcode.NOP:
            pass
        elif op is Opcode.HALT:
            self.halted = True
        elif op in _ALU_R:
            a, b = self.read_reg(instr.rs), self.read_reg(instr.rt)
            self.write_reg(instr.rd, _ALU_R[op](a, b))
            if op in (Opcode.MUL, Opcode.MULH):
                cost += self.pipeline.mul_extra
        elif op in _ALU_I:
            a = self.read_reg(instr.rs)
            self.write_reg(instr.rt, _ALU_I[op](a, instr.imm))
        elif op is Opcode.LUI:
            self.write_reg(instr.rt, (instr.imm & 0xFFFF) << 16)
        elif op is Opcode.LW:
            address = self.read_reg(instr.rs) + instr.imm
            cost += self.data_access(address, is_write=False) - 1
            self.write_reg(instr.rt, self.memory.read_word(address))
            self._last_load_reg = instr.rt
        elif op is Opcode.SW:
            address = self.read_reg(instr.rs) + instr.imm
            cost += self.data_access(address, is_write=True) - 1
            self.memory.write_word(address, self.read_reg(instr.rt))
        elif op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            self.stats.branches += 1
            taken = _BRANCH_TAKEN[op](
                self.read_reg(instr.rs), self.read_reg(instr.rt)
            )
            if taken:
                next_pc = instr.imm
                cost += self.pipeline.branch_penalty
                self.stats.taken_branches += 1
        elif op is Opcode.J:
            self.stats.branches += 1
            self.stats.taken_branches += 1
            next_pc = instr.imm
            cost += self.pipeline.branch_penalty
        elif op is Opcode.JAL:
            self.stats.branches += 1
            self.stats.taken_branches += 1
            self.write_reg(31, self.pc + 1)
            next_pc = instr.imm
            cost += self.pipeline.branch_penalty
        elif op is Opcode.JR:
            self.stats.branches += 1
            self.stats.taken_branches += 1
            next_pc = self.read_reg(instr.rs)
            cost += self.pipeline.branch_penalty
        elif instr.is_custom:
            cost += self.execute_custom(instr)
        else:  # pragma: no cover - enum is exhaustive
            raise UnsupportedInstruction(f"cannot execute {instr}")

        self.stats.cycles += cost
        self.pc = next_pc

    def execute_custom(self, instr: Instruction) -> int:
        """Execute a custom opcode; returns *extra* cycles beyond issue.

        The plain base core has no FFT extension hardware.
        """
        raise UnsupportedInstruction(
            f"{instr.opcode} requires the FFT extension hardware"
        )

    def custom_executor(self, instr: Instruction):
        """Predecode hook: the callable executing this custom instruction.

        Subclasses with several custom opcodes can resolve the dispatch
        once at decode time instead of on every dynamic execution.
        """
        return self.execute_custom

    def _predecode_token(self):
        """State the predecoded handlers depend on besides the program.

        Subclasses whose decode-time specialisation reads mutable machine
        state (e.g. the ASIP's ``vectorized`` flag) return it here so the
        handler cache is invalidated when it changes.
        """
        return None

    @staticmethod
    def _uses(instr: Instruction, reg: int) -> bool:
        if reg == 0:
            return False
        op = instr.opcode
        if op in _ALU_R or op is Opcode.JR:
            return reg in (instr.rs, instr.rt)
        if op in _ALU_I or op is Opcode.LW:
            return reg == instr.rs
        if op is Opcode.SW or op in (
            Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE
        ):
            return reg in (instr.rs, instr.rt)
        return False


def _shift_amount(value) -> int:
    return int(value) & 31


_ALU_R = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.MULH: lambda a, b: (int(a) * int(b)) >> 32,
    Opcode.AND: lambda a, b: int(a) & int(b),
    Opcode.OR: lambda a, b: int(a) | int(b),
    Opcode.XOR: lambda a, b: int(a) ^ int(b),
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SLLV: lambda a, b: int(a) << _shift_amount(b),
}

_ALU_I = {
    Opcode.ADDI: lambda a, imm: a + imm,
    Opcode.ANDI: lambda a, imm: int(a) & (imm & 0xFFFF),
    Opcode.ORI: lambda a, imm: int(a) | (imm & 0xFFFF),
    Opcode.XORI: lambda a, imm: int(a) ^ (imm & 0xFFFF),
    Opcode.SLTI: lambda a, imm: 1 if a < imm else 0,
    Opcode.SLL: lambda a, imm: int(a) << _shift_amount(imm),
    Opcode.SRL: lambda a, imm: (int(a) & _WORD_MASK) >> _shift_amount(imm),
    Opcode.SRA: lambda a, imm: int(a) >> _shift_amount(imm),
}

_BRANCH_TAKEN = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BGE: lambda a, b: a >= b,
}


# Predecode support ---------------------------------------------------------
#
# One factory per opcode family builds a closure with the instruction's
# operands (and its fall-through PC) bound as locals.  Each closure returns
# ``(extra_cost, next_pc)``; the run loop supplies the base issue cycle and
# the load-use interlock.  The factories mirror ``step`` exactly — the
# equivalence is asserted by tests against ``run_interpreted``.


def _uses_tuple(instr: Instruction) -> tuple:
    """Registers the load-use interlock must check for this instruction."""
    op = instr.opcode
    if op in _ALU_R or op is Opcode.JR:
        return (instr.rs, instr.rt)
    if op in _ALU_I or op is Opcode.LW:
        return (instr.rs,)
    if op is Opcode.SW or op in _BRANCH_TAKEN:
        return (instr.rs, instr.rt)
    return ()


def _make_nop(machine, instr, index):
    return lambda nxt=index + 1: (0, nxt)


def _make_halt(machine, instr, index):
    def handler(m=machine, nxt=index + 1):
        m.halted = True
        return (0, nxt)
    return handler


def _make_alu_r(machine, instr, index):
    extra = (
        machine.pipeline.mul_extra
        if instr.opcode in (Opcode.MUL, Opcode.MULH) else 0
    )

    def handler(m=machine, fn=_ALU_R[instr.opcode], rd=instr.rd,
                rs=instr.rs, rt=instr.rt, extra=extra, nxt=index + 1):
        m.write_reg(rd, fn(m.read_reg(rs), m.read_reg(rt)))
        return (extra, nxt)
    return handler


def _make_alu_i(machine, instr, index):
    def handler(m=machine, fn=_ALU_I[instr.opcode], rt=instr.rt,
                rs=instr.rs, imm=instr.imm, nxt=index + 1):
        m.write_reg(rt, fn(m.read_reg(rs), imm))
        return (0, nxt)
    return handler


def _make_lui(machine, instr, index):
    value = (instr.imm & 0xFFFF) << 16

    def handler(m=machine, rt=instr.rt, value=value, nxt=index + 1):
        m.write_reg(rt, value)
        return (0, nxt)
    return handler


def _make_lw(machine, instr, index):
    def handler(m=machine, rt=instr.rt, rs=instr.rs, imm=instr.imm,
                nxt=index + 1):
        address = m.read_reg(rs) + imm
        extra = m.data_access(address, is_write=False) - 1
        m.write_reg(rt, m.memory.read_word(address))
        m._last_load_reg = rt
        return (extra, nxt)
    return handler


def _make_sw(machine, instr, index):
    def handler(m=machine, rt=instr.rt, rs=instr.rs, imm=instr.imm,
                nxt=index + 1):
        address = m.read_reg(rs) + imm
        extra = m.data_access(address, is_write=True) - 1
        m.memory.write_word(address, m.read_reg(rt))
        return (extra, nxt)
    return handler


def _make_branch(machine, instr, index):
    def handler(m=machine, taken=_BRANCH_TAKEN[instr.opcode], rs=instr.rs,
                rt=instr.rt, target=instr.imm,
                penalty=machine.pipeline.branch_penalty, nxt=index + 1):
        stats = m.stats
        stats.branches += 1
        if taken(m.read_reg(rs), m.read_reg(rt)):
            stats.taken_branches += 1
            return (penalty, target)
        return (0, nxt)
    return handler


def _make_jump(machine, instr, index):
    def handler(m=machine, target=instr.imm,
                penalty=machine.pipeline.branch_penalty):
        stats = m.stats
        stats.branches += 1
        stats.taken_branches += 1
        return (penalty, target)
    return handler


def _make_jal(machine, instr, index):
    def handler(m=machine, target=instr.imm, link=index + 1,
                penalty=machine.pipeline.branch_penalty):
        stats = m.stats
        stats.branches += 1
        stats.taken_branches += 1
        m.write_reg(31, link)
        return (penalty, target)
    return handler


def _make_jr(machine, instr, index):
    def handler(m=machine, rs=instr.rs,
                penalty=machine.pipeline.branch_penalty):
        stats = m.stats
        stats.branches += 1
        stats.taken_branches += 1
        return (penalty, m.read_reg(rs))
    return handler


def _make_custom(machine, instr, index):
    def handler(fn=machine.custom_executor(instr), instr=instr, nxt=index + 1):
        return (fn(instr), nxt)
    return handler


def _make_unsupported(machine, instr, index):
    def handler(instr=instr):
        raise UnsupportedInstruction(f"cannot execute {instr}")
    return handler


_HANDLER_FACTORIES = {Opcode.NOP: _make_nop, Opcode.HALT: _make_halt}
_HANDLER_FACTORIES.update({op: _make_alu_r for op in _ALU_R})
_HANDLER_FACTORIES.update({op: _make_alu_i for op in _ALU_I})
_HANDLER_FACTORIES.update({op: _make_branch for op in _BRANCH_TAKEN})
_HANDLER_FACTORIES[Opcode.LUI] = _make_lui
_HANDLER_FACTORIES[Opcode.LW] = _make_lw
_HANDLER_FACTORIES[Opcode.SW] = _make_sw
_HANDLER_FACTORIES[Opcode.J] = _make_jump
_HANDLER_FACTORIES[Opcode.JAL] = _make_jal
_HANDLER_FACTORIES[Opcode.JR] = _make_jr
