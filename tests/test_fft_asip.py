"""End-to-end FFT ASIP simulation: correctness, stats, custom-op semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.asip import FFTASIP, GROUP_SIZE_REG, generate_fft_program, paper_mbps
from repro.isa import Opcode, ProgramBuilder
from repro.sim.errors import SimulationError


def random_vector(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def run_asip(x, precision="float"):
    """One transform on a fresh instruction-level engine.

    Returns ``(result, machine)``; on a fresh machine the result's stats
    delta is the whole run.
    """
    with repro.engine(len(x), backend="asip", precision=precision) as eng:
        return eng.transform(x), eng.machine


class TestEndToEnd:
    @given(st.sampled_from([8, 16, 32, 64, 128, 256]),
           st.integers(0, 1000))
    @settings(deadline=None, max_examples=12)
    def test_spectrum_matches_numpy(self, n, seed):
        x = random_vector(n, seed)
        result, _ = run_asip(x)
        assert np.allclose(result.spectrum, np.fft.fft(x), atol=1e-8 * n)

    def test_1024_point(self):
        x = random_vector(1024, 42)
        result, _ = run_asip(x)
        assert np.allclose(result.spectrum, np.fft.fft(x), atol=1e-6)

    def test_fixed_point_mode(self):
        n = 64
        x = random_vector(n, 7) * 0.2
        result, _ = run_asip(x, precision="q15")
        reference = np.fft.fft(x) / n
        from repro.core import snr_db

        assert snr_db(reference, result.spectrum) > 35.0


class TestStatistics:
    def test_custom_op_counts_match_plan(self):
        x = random_vector(256, 1)
        result, machine = run_asip(x)
        plan = machine.plan
        ops = result.stats.custom_ops
        assert ops["ldin"] == plan.total_ldin == 256
        assert ops["stout"] == plan.total_stout == 256
        assert ops["but4"] == plan.total_but4

    def test_ldin_stout_count_as_loads_stores(self):
        result, _ = run_asip(random_vector(64, 2))
        assert result.stats.loads == 64
        assert result.stats.stores == 64

    def test_cycles_close_to_paper_table1(self):
        """Within 15% of every published Table I row."""
        paper = {64: 197, 128: 402, 256: 851, 512: 1828, 1024: 4168}
        for n, expected in paper.items():
            result, _ = run_asip(random_vector(n, n))
            assert abs(result.stats.cycles - expected) / expected < 0.15, (
                n, result.stats.cycles
            )

    def test_throughput_decreases_with_size(self):
        """Table I's qualitative claim."""
        rates = []
        for n in (64, 128, 256, 512, 1024):
            result, _ = run_asip(random_vector(n, n))
            rates.append(paper_mbps(n, result.stats.cycles))
        assert rates == sorted(rates, reverse=True)

    def test_bu_op_count(self):
        _, machine = run_asip(random_vector(64, 3))
        assert machine.bu.op_count == machine.plan.total_but4


class TestCustomOpSemantics:
    def test_group_size_must_be_configured(self):
        asip = FFTASIP(64)
        b = ProgramBuilder()
        b.emit(Opcode.BUT4, rs=1, rt=2)
        b.halt()
        with pytest.raises(SimulationError):
            asip.run(b.build())

    def test_ldin_post_increment_and_wrap(self):
        asip = FFTASIP(64)
        asip.memory.write_complex(0, 1 + 2j)
        asip.memory.write_complex(1, 3 + 4j)
        b = ProgramBuilder()
        b.li(GROUP_SIZE_REG, 8)
        b.li(4, 0)   # mem cursor
        b.li(5, 0)   # crf cursor
        b.emit(Opcode.LDIN, rs=4, rt=5)
        b.halt()
        asip.run(b.build())
        assert asip.crf.read(0) == 1 + 2j
        assert asip.crf.read(1) == 3 + 4j
        assert asip.read_reg(4) == 2
        assert asip.read_reg(5) == 2

    def test_stout_prerotation_outside_scratch_rejected(self):
        asip = FFTASIP(64)
        b = ProgramBuilder()
        b.li(GROUP_SIZE_REG, 8)
        b.li(6, 0)
        b.li(7, 0)  # input region, not scratch
        b.emit(Opcode.STOUT, rs=6, rt=7, imm=1)
        b.halt()
        with pytest.raises(SimulationError):
            asip.run(b.build())

    def test_input_length_validated(self):
        with pytest.raises(ValueError):
            FFTASIP(64).load_input(np.zeros(32))

    def test_ai0_layout_is_corner_turned(self):
        asip = FFTASIP(16)  # P = Q = 4
        x = np.arange(16, dtype=complex)
        asip.load_input(x)
        # point l*P + m holds x[Q*m + l]; group 1, element 2 -> x[4*2+1]
        assert asip.memory.read_complex(1 * 4 + 2) == 9 + 0j


class TestProgramShape:
    def test_small_sizes_fully_unrolled(self):
        program = generate_fft_program(64)
        opcodes = [i.opcode for i in program]
        assert Opcode.BNE not in opcodes
        assert opcodes.count(Opcode.LDIN) == 64 // 2 * 2  # both epochs

    def test_large_sizes_use_group_loops(self):
        program = generate_fft_program(1024)
        opcodes = [i.opcode for i in program]
        assert Opcode.BNE in opcodes
        # loops keep the program compact
        assert len(program) < 300

    def test_program_size_mismatch_rejected(self):
        from repro.core.plan import build_plan

        with pytest.raises(ValueError):
            generate_fft_program(64, build_plan(128))

    def test_non_square_sizes_work(self):
        for n in (8, 32, 128, 512, 2048):
            x = random_vector(n, n)
            result, _ = run_asip(x)
            assert np.allclose(
                result.spectrum, np.fft.fft(x), atol=1e-7 * n
            )
