"""The base scalar core: functional semantics and timing behaviours."""

import pytest

from repro.isa import Opcode, ProgramBuilder, assemble
from repro.sim import (
    CacheConfig,
    Machine,
    MainMemory,
    PipelineConfig,
    RunawayProgram,
    UnsupportedInstruction,
)


def make_machine(**kwargs):
    return Machine(MainMemory(1024), **kwargs)


def run_source(source, machine=None):
    machine = machine or make_machine()
    stats = machine.run(assemble(source))
    return machine, stats


class TestAluSemantics:
    def test_arithmetic(self):
        m, _ = run_source("""
            li r1, 6
            li r2, 7
            mul r3, r1, r2
            sub r4, r3, r1
            halt
        """)
        assert m.read_reg(3) == 42
        assert m.read_reg(4) == 36

    def test_logic_and_shifts(self):
        m, _ = run_source("""
            li r1, 0b1100
            andi r2, r1, 0b1010
            ori  r3, r1, 0b0011
            xori r4, r1, 0b1111
            sll  r5, r1, 2
            srl  r6, r1, 2
            halt
        """)
        assert m.read_reg(2) == 0b1000
        assert m.read_reg(3) == 0b1111
        assert m.read_reg(4) == 0b0011
        assert m.read_reg(5) == 0b110000
        assert m.read_reg(6) == 0b11

    def test_sra_sign_extends(self):
        m, _ = run_source("li r1, -8\nsra r2, r1, 1\nhalt")
        assert m.read_reg(2) == -4

    def test_slt(self):
        m, _ = run_source("li r1, -1\nslt r2, r1, r0\nslti r3, r1, -5\nhalt")
        assert m.read_reg(2) == 1
        assert m.read_reg(3) == 0

    def test_r0_is_hardwired_zero(self):
        m, _ = run_source("addi r0, r0, 99\nhalt")
        assert m.read_reg(0) == 0

    def test_32bit_wraparound(self):
        m, _ = run_source("""
            lui r1, 0x7fff
            ori r1, r1, 0xffff
            addi r1, r1, 1
            halt
        """)
        assert m.read_reg(1) == -(2 ** 31)

    def test_mulh(self):
        m, _ = run_source("""
            lui r1, 0x4000
            lui r2, 0x0004
            mulh r3, r1, r2
            halt
        """)
        assert m.read_reg(3) == (0x40000000 * 0x40000) >> 32


class TestControlFlow:
    def test_countdown_loop(self):
        m, stats = run_source("""
            li r1, 5
            li r2, 0
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """)
        assert m.read_reg(2) == 15
        assert stats.taken_branches == 4

    def test_jal_jr(self):
        m, _ = run_source("""
            jal sub
            halt
        sub:
            li r2, 42
            jr ra
        """)
        assert m.read_reg(2) == 42

    def test_bge_blt(self):
        m, _ = run_source("""
            li r1, 3
            bge r1, r0, a
            li r2, 111
        a:  blt r0, r1, b
            li r3, 222
        b:  halt
        """)
        assert m.read_reg(2) == 0
        assert m.read_reg(3) == 0


class TestMemoryAndCache:
    def test_load_store(self):
        m, stats = run_source("""
            li r1, 77
            sw r1, 100(r0)
            lw r2, 100(r0)
            halt
        """)
        assert m.read_reg(2) == 77
        assert stats.loads == 1
        assert stats.stores == 1

    def test_miss_counting(self):
        _, stats = run_source("""
            lw r1, 0(r0)
            lw r2, 0(r0)
            lw r3, 256(r0)
            halt
        """)
        assert stats.dcache_misses == 2  # cold, hit, new line
        assert stats.dcache_hits == 1

    def test_miss_penalty_charged_when_enabled(self):
        source = "lw r1, 0(r0)\nhalt"
        _, free = run_source(source, make_machine())
        _, charged = run_source(
            source, make_machine(charge_cache_latency=True)
        )
        penalty = CacheConfig().miss_penalty
        assert charged.cycles == free.cycles + penalty

    def test_no_cache_mode(self):
        _, stats = run_source(
            "lw r1, 0(r0)\nhalt", make_machine(use_cache=False)
        )
        assert stats.dcache_misses == 0


class TestTimingModel:
    def test_load_use_stall(self):
        no_stall = run_source("lw r1, 0(r0)\nnop\nadd r2, r1, r1\nhalt")[1]
        stall = run_source("lw r1, 0(r0)\nadd r2, r1, r1\nnop\nhalt")[1]
        assert stall.cycles == no_stall.cycles + 1
        assert stall.stall_cycles == 1

    def test_taken_branch_penalty(self):
        taken = run_source("li r1, 1\nbne r1, r0, 3\nnop\nhalt")[1]
        fallthrough = run_source("li r1, 0\nbne r1, r0, 3\nnop\nhalt")[1]
        penalty = PipelineConfig().branch_penalty
        assert taken.cycles == fallthrough.cycles + penalty - 1
        # (-1: the taken path skips the nop)

    def test_mul_extra_cycle(self):
        add = run_source("add r1, r0, r0\nhalt")[1]
        mul = run_source("mul r1, r0, r0\nhalt")[1]
        assert mul.cycles == add.cycles + PipelineConfig().mul_extra


class TestHazardConfigTiming:
    """Direct exact-cycle checks of the in-order hazard model.

    Each hazard class — taken-branch redirect, load-use interlock,
    multi-cycle multiply — is pinned to an absolute cycle count under an
    explicit :class:`PipelineConfig`, including zero-penalty configs, on
    both the predecoded fast path and the interpreted oracle.
    """

    @staticmethod
    def _cycles(source, **pipeline):
        program = assemble(source)
        fast = Machine(MainMemory(1024), pipeline=PipelineConfig(**pipeline))
        fast.run(program)
        interp = Machine(MainMemory(1024),
                         pipeline=PipelineConfig(**pipeline))
        interp.run_interpreted(program)
        assert fast.stats.cycles == interp.stats.cycles
        assert fast.stats.stall_cycles == interp.stats.stall_cycles
        return fast.stats

    BRANCH = "li r1, 1\nbne r1, r0, 3\nhalt\nhalt"

    @pytest.mark.parametrize("penalty", [0, 1, 2, 5])
    def test_branch_redirect_penalty(self, penalty):
        # li + bne + the halt the branch lands on = 3 issue cycles.
        stats = self._cycles(self.BRANCH, branch_penalty=penalty)
        assert stats.cycles == 3 + penalty
        assert stats.taken_branches == 1

    def test_untaken_branch_never_pays(self):
        source = "li r1, 1\nbeq r1, r0, 3\nhalt\nhalt"
        for penalty in (0, 4):
            stats = self._cycles(source, branch_penalty=penalty)
            assert stats.cycles == 3
            assert stats.taken_branches == 0

    LOAD_USE = "lw r1, 100(r0)\nadd r2, r1, r1\nhalt"

    @pytest.mark.parametrize("stall", [0, 1, 3])
    def test_load_use_interlock(self, stall):
        stats = self._cycles(self.LOAD_USE, load_use_stall=stall)
        assert stats.cycles == 3 + stall
        assert stats.stall_cycles == stall

    def test_interlock_needs_true_dependence(self):
        # The consumer reads r3, not the loaded r1: no stall even with a
        # huge configured penalty.
        source = "lw r1, 100(r0)\nadd r2, r3, r3\nhalt"
        stats = self._cycles(source, load_use_stall=7)
        assert stats.cycles == 3
        assert stats.stall_cycles == 0

    @pytest.mark.parametrize("extra", [0, 1, 4])
    def test_multiply_extra_cycles(self, extra):
        stats = self._cycles("mul r1, r0, r0\nmulh r2, r0, r0\nhalt",
                             mul_extra=extra)
        assert stats.cycles == 3 + 2 * extra

    def test_all_penalties_zero_is_one_cycle_per_instruction(self):
        source = ("li r1, 1\nlw r2, 100(r0)\nadd r3, r2, r2\n"
                  "mul r4, r3, r3\nbne r1, r0, 6\nhalt\nhalt")
        stats = self._cycles(source, branch_penalty=0, load_use_stall=0,
                             mul_extra=0)
        assert stats.cycles == stats.instructions == 6


class TestGuards:
    def test_runaway_protection(self):
        machine = Machine(MainMemory(64), max_instructions=100)
        with pytest.raises(RunawayProgram):
            machine.run(assemble("loop: j loop"))

    @pytest.mark.parametrize("path", ("run", "run_interpreted"))
    def test_runaway_budget_is_per_run(self, path):
        machine = Machine(MainMemory(64), max_instructions=10)
        run = getattr(machine, path)
        # Five 3-instruction runs: 15 over the machine's life, each run
        # well inside its own budget.
        for _ in range(5):
            run(assemble("li r1, 1\nnop\nhalt"))
        assert machine.stats.instructions == 15
        with pytest.raises(RunawayProgram):
            run(assemble("loop: j loop"))

    def test_custom_ops_unsupported_on_base_core(self):
        with pytest.raises(UnsupportedInstruction):
            run_source("but4 r1, r2\nhalt")

    def test_pc_out_of_range(self):
        from repro.sim.errors import SimulationError

        b = ProgramBuilder()
        b.emit(Opcode.J, imm=50)
        with pytest.raises(SimulationError):
            make_machine().run(b.build())

    def test_float_values_flow_through_alu(self):
        machine = make_machine()
        machine.memory.write_word(10, 2.5)
        _, stats = run_source(
            "lw r1, 10(r0)\nnop\nmul r2, r1, r1\nhalt", machine
        )
        assert machine.read_reg(2) == 6.25


class TestProgramImmutable:
    """Machines key reusable work (predecoded handlers, recorded batch
    passes) by program identity, so a program must not change in place:
    otherwise ``run`` would replay stale handlers while
    ``run_interpreted`` executed the new code."""

    def test_in_place_mutation_rejected(self):
        from dataclasses import FrozenInstanceError

        from repro.isa import Instruction, Program

        program = assemble("li r1, 5\nhalt")
        machine = make_machine()
        machine.run(program)
        assert machine.read_reg(1) == 5
        with pytest.raises(TypeError):
            program.instructions[0] = Instruction(
                opcode=Opcode.ADDI, rt=1, rs=0, imm=7)
        with pytest.raises(FrozenInstanceError):
            program.instructions = []
        machine.run(program)
        assert machine.read_reg(1) == 5
        # A program built from a list keeps its own immutable copy.
        source = list(program)
        copy = Program(instructions=source, name="copy")
        source[0] = Instruction(opcode=Opcode.ADDI, rt=1, rs=0, imm=7)
        assert isinstance(copy.instructions, tuple)
        machine.run(copy)
        assert machine.read_reg(1) == 5
