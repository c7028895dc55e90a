"""The Algorithm-1 code generator in detail."""

import pytest

from repro.asip.codegen import UNROLL_THRESHOLD, generate_fft_program
from repro.asip.fft_asip import GROUP_SIZE_REG, STOUT_STRIDE_REG
from repro.core.plan import build_plan
from repro.isa import Opcode


def opcode_counts(program):
    counts = {}
    for instr in program:
        counts[instr.opcode] = counts.get(instr.opcode, 0) + 1
    return counts


class TestOpCounts:
    @pytest.mark.parametrize("n", [8, 64, 256, 1024, 2048])
    def test_custom_op_counts_match_plan(self, n):
        plan = build_plan(n)
        counts = opcode_counts(generate_fft_program(n, plan))
        unrolled = n <= UNROLL_THRESHOLD
        if unrolled:
            assert counts[Opcode.LDIN] == plan.total_ldin
            assert counts[Opcode.STOUT] == plan.total_stout
            assert counts[Opcode.BUT4] == plan.total_but4
        else:
            # looped: one group body per epoch in the text
            e0, e1 = plan.epochs
            assert counts[Opcode.LDIN] == (
                max(e0.group_size // 2, 1) + max(e1.group_size // 2, 1)
            )

    def test_ldin_repeated_n_times_total(self):
        """The paper: 'this instruction needs to be repeated for N times
        in total' — executed count equals N (one per two points, both
        epochs)."""
        import numpy as np

        import repro

        with repro.engine(128, backend="asip") as eng:
            result = eng.transform(np.ones(128, dtype=complex))
        assert result.stats.custom_ops["ldin"] == 128


class TestStructure:
    def test_epoch_configuration_registers(self):
        program = generate_fft_program(128)  # non-square: P=16, Q=8
        writes = [
            (i.rt, i.imm) for i in program
            if i.opcode is Opcode.ADDI and i.rs == 0
        ]
        assert (GROUP_SIZE_REG, 16) in writes
        assert (GROUP_SIZE_REG, 8) in writes
        assert (STOUT_STRIDE_REG, 8) in writes
        assert (STOUT_STRIDE_REG, 16) in writes

    def test_square_sizes_skip_redundant_latches(self):
        program = generate_fft_program(64)  # P = Q = 8
        group_size_writes = [
            i for i in program
            if i.opcode is Opcode.ADDI and i.rs == 0
            and i.rt == GROUP_SIZE_REG
        ]
        assert len(group_size_writes) == 1

    def test_prerotation_only_in_epoch0(self):
        program = generate_fft_program(64)
        stouts = [i for i in program if i.opcode is Opcode.STOUT]
        flagged = [i for i in stouts if i.imm == 1]
        assert len(flagged) == len(stouts) // 2

    def test_stage_operands_use_constant_pool(self):
        program = generate_fft_program(1024)
        stage_regs = {i.rt for i in program if i.opcode is Opcode.BUT4}
        assert stage_regs <= set(range(20, 25))

    def test_large_p_materialises_module_numbers(self):
        # N=32768 -> P=256 -> 32 modules > the 8-register pool
        program = generate_fft_program(32768)
        modules = {i.rs for i in program if i.opcode is Opcode.BUT4}
        assert 11 in modules  # the scratch register

    def test_listing_is_renderable(self):
        listing = generate_fft_program(64).listing()
        assert "but4" in listing and "ldin" in listing


class TestUnrollThreshold:
    def test_threshold_boundary(self):
        assert Opcode.BNE not in opcode_counts(generate_fft_program(512))
        assert Opcode.BNE in opcode_counts(generate_fft_program(1024))

    def test_explicit_threshold_override(self):
        looped = generate_fft_program(64, unroll_threshold=0)
        assert Opcode.BNE in opcode_counts(looped)
        assert len(looped) < len(generate_fft_program(64))

    def test_override_still_correct(self):
        import numpy as np

        from repro.asip import FFTASIP

        n = 64
        x = np.random.default_rng(0).standard_normal(n).astype(complex)
        asip = FFTASIP(n)
        asip.load_input(x)
        asip.run(generate_fft_program(n, asip.plan, unroll_threshold=0))
        assert np.allclose(asip.read_output(), np.fft.fft(x), atol=1e-9)
