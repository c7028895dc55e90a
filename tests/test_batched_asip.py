"""Multi-symbol ASIP batching + int-array Q1.15 datapath: exactness.

The batched fast paths are only allowed to exist because they are the
same machine: every test here pins batched/vectorised execution to the
serial loop and the step interpreter — registers, memory, spectra,
per-symbol cycles, every SimStats counter, CRF/ROM/BU access counts and
Q1.15 overflow counts.
"""

import numpy as np
import pytest

from repro.asip import FFTASIP, generate_fft_program
from repro.asip.streaming import StreamingFFT
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder


def random_blocks(symbols, n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (
        rng.standard_normal((symbols, n))
        + 1j * rng.standard_normal((symbols, n))
    )


def run_serial(machine, program, blocks):
    outputs = []
    cycles = []
    for row in blocks:
        before = machine.stats.cycles
        machine.load_input(row)
        machine.run(program)
        cycles.append(machine.stats.cycles - before)
        outputs.append(machine.read_output())
    return np.stack(outputs), cycles


def assert_machines_equal(a: FFTASIP, b: FFTASIP, exact=True):
    assert a.registers == b.registers
    assert a.stats.as_dict() == b.stats.as_dict()
    assert a.crf.reads == b.crf.reads
    assert a.crf.writes == b.crf.writes
    assert a.rom.reads == b.rom.reads
    assert a.bu.op_count == b.bu.op_count
    mem_a = a.memory.read_complex_vector(0, 3 * a.n_points)
    mem_b = b.memory.read_complex_vector(0, 3 * b.n_points)
    if exact:
        assert np.array_equal(mem_a, mem_b)
    else:
        assert np.allclose(mem_a, mem_b, atol=1e-12)


class TestIntDatapath:
    """Tentpole layer 1: the vectorised Q1.15 simulator datapath."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_bit_identical_to_scalar_interpreter(self, n):
        x = random_blocks(1, n, seed=n, scale=0.3)[0]
        program = generate_fft_program(n)
        fast = FFTASIP(n, fixed_point=True)
        oracle = FFTASIP(n, fixed_point=True, vectorized=False,
                         int_datapath=False)
        fast.load_input(x)
        fast.run(program)
        oracle.load_input(x)
        oracle.run_interpreted(program)
        assert np.array_equal(fast.read_output(), oracle.read_output())
        assert fast.fx.overflow_count == oracle.fx.overflow_count
        assert_machines_equal(fast, oracle)

    def test_pr1_scalar_lane_config_still_equal(self):
        """int_datapath=False reproduces the PR-1 path exactly."""
        n = 64
        x = random_blocks(1, n, seed=5, scale=0.3)[0]
        program = generate_fft_program(n)
        fast = FFTASIP(n, fixed_point=True)
        pr1 = FFTASIP(n, fixed_point=True, int_datapath=False)
        for machine in (fast, pr1):
            machine.load_input(x)
            machine.run(program)
        assert np.array_equal(fast.read_output(), pr1.read_output())
        assert fast.fx.overflow_count == pr1.fx.overflow_count
        assert_machines_equal(fast, pr1)

    def test_overflow_counts_match_when_saturating(self):
        """With per-stage scaling off, large inputs saturate in the
        butterflies; the vectorised counts must agree exactly."""
        n = 64
        x = random_blocks(1, n, seed=7, scale=0.9)[0]
        program = generate_fft_program(n)
        fast = FFTASIP(n, fixed_point=True)
        oracle = FFTASIP(n, fixed_point=True, vectorized=False,
                         int_datapath=False)
        fast.fx.scale_stages = oracle.fx.scale_stages = False
        fast.load_input(x)
        fast.run(program)
        oracle.load_input(x)
        oracle.run_interpreted(program)
        assert oracle.fx.overflow_count > 0
        assert fast.fx.overflow_count == oracle.fx.overflow_count
        assert np.array_equal(fast.read_output(), oracle.read_output())

    def test_int_crf_scalar_accessors_roundtrip(self):
        """The int-mode CRF's scalar interface is lossless on the grid."""
        from repro.sim.crf import CustomRegisterFile

        crf = CustomRegisterFile(8, int_mode=True)
        value = complex(12345 / 32768, -32768 / 32768)
        crf.write(3, value)
        assert crf.read(3) == value
        assert crf.reads == 1 and crf.writes == 1


class TestRunBatch:
    """Tentpole layer 2: the multi-symbol batch axis."""

    @pytest.mark.parametrize("n,symbols", [(16, 3), (64, 7), (256, 5)])
    def test_float_batch_equals_serial(self, n, symbols):
        blocks = random_blocks(symbols, n, seed=n + symbols)
        program = generate_fft_program(n)
        batched = FFTASIP(n)
        serial = FFTASIP(n)
        outs_b, cycles_b = batched.run_batch(program, blocks)
        outs_s, cycles_s = run_serial(serial, program, blocks)
        assert np.array_equal(outs_b, outs_s)
        assert cycles_b == cycles_s
        assert_machines_equal(batched, serial)

    @pytest.mark.parametrize("n,symbols", [(32, 4), (64, 6)])
    def test_fixed_batch_bit_identical(self, n, symbols):
        blocks = random_blocks(symbols, n, seed=n, scale=0.3)
        program = generate_fft_program(n)
        batched = FFTASIP(n, fixed_point=True)
        serial = FFTASIP(n, fixed_point=True)
        outs_b, cycles_b = batched.run_batch(program, blocks)
        outs_s, cycles_s = run_serial(serial, program, blocks)
        assert np.array_equal(outs_b, outs_s)
        assert cycles_b == cycles_s
        assert batched.fx.overflow_count == serial.fx.overflow_count
        assert_machines_equal(batched, serial)

    def test_tiny_size_uses_per_op_batched_custom_ops(self):
        """N=4 programs issue unfused single LDIN/STOUT ops — the per-op
        batched executors must agree with the serial loop too."""
        n, symbols = 4, 3
        blocks = random_blocks(symbols, n, seed=1)
        program = generate_fft_program(n)
        batched = FFTASIP(n)
        serial = FFTASIP(n)
        outs_b, cycles_b = batched.run_batch(program, blocks)
        outs_s, cycles_s = run_serial(serial, program, blocks)
        assert np.array_equal(outs_b, outs_s)
        assert cycles_b == cycles_s
        assert_machines_equal(batched, serial)

    def test_cache_counters_replayed_exactly(self):
        """dcache hits/misses must equal the serial loop's (cold first
        symbol, warm rest) — the trace-replay path."""
        n, symbols = 64, 9
        blocks = random_blocks(symbols, n, seed=3)
        program = generate_fft_program(n)
        batched = FFTASIP(n)
        serial = FFTASIP(n)
        batched.run_batch(program, blocks)
        run_serial(serial, program, blocks)
        assert batched.stats.dcache_hits == serial.stats.dcache_hits
        assert batched.stats.dcache_misses == serial.stats.dcache_misses
        assert batched.dcache.hits == serial.dcache.hits
        assert batched.dcache.misses == serial.dcache.misses
        assert batched.dcache.writebacks == serial.dcache.writebacks
        assert batched.dcache.state_key() == serial.dcache.state_key()

    def test_uncached_machine_batches(self):
        n, symbols = 32, 4
        blocks = random_blocks(symbols, n, seed=8)
        program = generate_fft_program(n)
        batched = FFTASIP(n, cache_config=None)
        batched.dcache = None
        serial = FFTASIP(n)
        serial.dcache = None
        outs_b, _ = batched.run_batch(program, blocks)
        outs_s, _ = run_serial(serial, program, blocks)
        assert np.array_equal(outs_b, outs_s)
        assert batched.stats.as_dict() == serial.stats.as_dict()

    def test_empty_and_single_symbol(self):
        n = 16
        program = generate_fft_program(n)
        machine = FFTASIP(n)
        outs, cycles = machine.run_batch(
            program, np.empty((0, n), dtype=complex)
        )
        assert outs.shape == (0, n) and cycles == []
        block = random_blocks(1, n, seed=2)
        outs, cycles = machine.run_batch(program, block)
        assert len(cycles) == 1
        assert np.allclose(outs[0], np.fft.fft(block[0]), atol=1e-8)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_butterflies_reading_initial_crf_entries(self, fixed):
        """Every stage runs only its second module, so half of each bank
        keeps the state the batch started from.  BUT4 operand halves then
        read only initial entries (stage 2) or a mix of initial, loaded
        and computed ones (stages 3 and 4), STOUT copies initial entries
        to the output, and the CRF end state still names them."""
        from repro.asip.fft_asip import GROUP_SIZE_REG

        n, symbols = 256, 3
        b = ProgramBuilder()
        b.li(GROUP_SIZE_REG, 16)
        b.li(26, 1)          # LDIN stride
        b.li(25, 1)          # STOUT stride
        b.li(4, 0)
        b.li(5, 0)
        for _ in range(8):   # bank 0 <- input words 0..15
            b.emit(Opcode.LDIN, rs=4, rt=5)
        b.li(13, 2)          # module 2 of each stage; it swaps the banks
        for stage in range(1, 5):
            b.li(20 + stage, stage)
        b.emit(Opcode.BUT4, rs=13, rt=21)
        b.li(6, 0)
        b.li(7, 2 * n)
        for _ in range(8):
            b.emit(Opcode.STOUT, rs=6, rt=7)
        for stage in range(2, 5):
            b.emit(Opcode.BUT4, rs=13, rt=20 + stage)
        b.halt()
        program = b.build()
        batched = FFTASIP(n, fixed_point=fixed)
        serial = FFTASIP(n, fixed_point=fixed)
        initial = random_blocks(2, batched.crf.entries, seed=50, scale=0.4)
        for machine in (batched, serial):
            machine.crf.load_vector(initial[0])
            machine.crf.swap_banks()
            machine.crf.load_vector(initial[1])
            machine.crf.swap_banks()
        for seed in range(2):
            run_both(batched, serial, program,
                     random_blocks(symbols, n, seed=51 + seed, scale=0.4))

    def test_shape_validated(self):
        machine = FFTASIP(16)
        program = generate_fft_program(16)
        with pytest.raises(ValueError):
            machine.run_batch(program, np.zeros((2, 8), dtype=complex))
        with pytest.raises(ValueError):
            machine.run_batch(program, np.zeros(16, dtype=complex))


def assert_batch_end_state_equal(a: FFTASIP, b: FFTASIP):
    """Everything assert_machines_equal compares, plus both CRF banks,
    the sequencer flow state and the full data-cache state."""
    assert_machines_equal(a, b)
    assert a.crf.active_bank == b.crf.active_bank
    for bank_a, bank_b in zip(a.crf.bank_arrays(), b.crf.bank_arrays()):
        assert np.array_equal(bank_a, bank_b)
    assert a._flow == b._flow
    assert a.dcache.state_key() == b.dcache.state_key()
    assert (a.dcache.hits, a.dcache.misses, a.dcache.writebacks) == (
        b.dcache.hits, b.dcache.misses, b.dcache.writebacks)
    if a.fx is not None:
        assert a.fx.overflow_count == b.fx.overflow_count


def run_both(batched, serial, program, blocks):
    outs_b, cycles_b = batched.run_batch(program, blocks)
    outs_s, cycles_s = run_serial(serial, program, blocks)
    assert np.array_equal(outs_b, outs_s)
    assert cycles_b == cycles_s
    assert_batch_end_state_equal(batched, serial)


class TestLevelizedBatchAtScale:
    """The levelized data plane at the sizes the benchmark runs: group
    loops (N > 512), two group sizes (N=2048) and a spilling D-cache
    (N=8192).  Consecutive batches on one machine run both the cold and
    the memoised cache-replay paths."""

    SIZES = [(1024, 3), (2048, 3), (8192, 2)]

    @pytest.mark.parametrize("n,symbols", SIZES)
    def test_fixed_batches_equal_serial(self, n, symbols):
        program = generate_fft_program(n)
        batched = FFTASIP(n, fixed_point=True)
        serial = FFTASIP(n, fixed_point=True)
        run_both(batched, serial, program,
                 random_blocks(symbols, n, seed=n, scale=0.25))
        # Without per-stage scaling these inputs saturate the BU.
        batched.fx.scale_stages = serial.fx.scale_stages = False
        before = serial.fx.overflow_count
        run_both(batched, serial, program,
                 random_blocks(symbols, n, seed=n + 1, scale=0.9))
        assert serial.fx.overflow_count > before

    @pytest.mark.parametrize("n,symbols", SIZES)
    def test_float_batches_equal_serial(self, n, symbols):
        program = generate_fft_program(n)
        batched = FFTASIP(n)
        serial = FFTASIP(n)
        for seed in range(2):
            run_both(batched, serial, program,
                     random_blocks(symbols, n, seed=n + seed))

    def test_batch_after_cache_reset(self):
        n, symbols = 8192, 2
        program = generate_fft_program(n)
        batched = FFTASIP(n)
        serial = FFTASIP(n)
        run_both(batched, serial, program, random_blocks(symbols, n, seed=21))
        batched.dcache.reset()
        serial.dcache.reset()
        run_both(batched, serial, program, random_blocks(symbols, n, seed=22))

    def test_two_programs_share_one_machine(self):
        """Alternating two programs changes the cache start state and
        the predecoded handlers between batches."""
        n, symbols = 1024, 3
        looped = generate_fft_program(n)
        unrolled = generate_fft_program(n, unroll_threshold=n)
        assert len(unrolled) != len(looped)
        batched = FFTASIP(n, fixed_point=True)
        serial = FFTASIP(n, fixed_point=True)
        for seed, program in enumerate((looped, unrolled, looped,
                                        unrolled)):
            run_both(batched, serial, program,
                     random_blocks(symbols, n, seed=30 + seed, scale=0.25))

    def test_tiny_cache_replays_cold_passes(self):
        """A cache far smaller than the walk: the first batch sweeps its
        cold passes, the next ones are memo hits."""
        from repro.sim.cache import CacheConfig

        n, symbols = 256, 4
        config = CacheConfig(sets=4, ways=2)
        program = generate_fft_program(n)
        batched = FFTASIP(n, cache_config=config)
        serial = FFTASIP(n, cache_config=config)
        for seed in range(3):
            run_both(batched, serial, program,
                     random_blocks(symbols, n, seed=40 + seed))
        assert batched.dcache._replay_memo


class TestBatchFallbacks:
    """run_batch must decline batching whenever exactness is at risk."""

    def serial_reference(self, n, blocks, **kwargs):
        program = generate_fft_program(n)
        machine = FFTASIP(n, **kwargs)
        return run_serial(machine, program, blocks), machine

    def test_scalar_oracle_config_falls_back(self):
        n, symbols = 16, 3
        blocks = random_blocks(symbols, n, seed=4)
        program = generate_fft_program(n)
        machine = FFTASIP(n, vectorized=False)
        assert not machine._can_batch(program)
        outs, cycles = machine.run_batch(program, blocks)
        (outs_ref, cycles_ref), ref = self.serial_reference(
            n, blocks, vectorized=False
        )
        assert np.array_equal(outs, outs_ref)
        assert cycles == cycles_ref

    def test_pr1_fixed_config_falls_back(self):
        n = 16
        machine = FFTASIP(n, fixed_point=True, int_datapath=False)
        assert not machine._can_batch(generate_fft_program(n))

    def test_charged_cache_latency_falls_back(self):
        n = 16
        machine = FFTASIP(n)
        machine.charge_cache_latency = True
        assert not machine._can_batch(generate_fft_program(n))

    def test_instrumented_machine_falls_back(self):
        n = 16
        machine = FFTASIP(n)
        machine.read_output = lambda: np.zeros(n, dtype=complex)
        assert not machine._can_batch(generate_fft_program(n))

    def test_lw_sw_program_falls_back(self):
        machine = FFTASIP(16)
        b = ProgramBuilder()
        b.emit(Opcode.SW, rs=0, rt=0, imm=64)
        b.halt()
        assert not machine._can_batch(b.build())

    def test_cross_symbol_dataflow_rejected(self):
        """A program that reads a data-region column before writing it
        (and writes it later) would consume the previous symbol's state
        serially; the batch guard must refuse it rather than silently
        diverge."""
        from repro.asip.fft_asip import GROUP_SIZE_REG
        from repro.sim.errors import SimulationError

        n = 16
        machine = FFTASIP(n)
        b = ProgramBuilder()
        b.li(GROUP_SIZE_REG, 4)
        b.li(26, 1)          # LDIN stride
        b.li(25, 1)          # STOUT stride
        b.li(4, 2 * n)       # LDIN cursor -> output region (unwritten)
        b.li(5, 0)
        b.emit(Opcode.LDIN, rs=4, rt=5)
        b.li(6, 0)
        b.li(7, 2 * n)       # STOUT cursor -> same output columns
        b.emit(Opcode.STOUT, rs=6, rt=7)
        b.halt()
        program = b.build()
        assert machine._can_batch(program)
        blocks = random_blocks(3, n, seed=9)
        with pytest.raises(SimulationError):
            machine.run_batch(program, blocks)

    def test_streaming_corruption_detected_through_batch(self):
        """A corrupted batched output must still fail verification."""
        stream = StreamingFFT(16)
        original = stream.asip.run_batch

        def corrupt(program, blocks):
            outputs, cycles = original(program, blocks)
            outputs[-1] = 0
            return outputs, cycles

        stream.asip.run_batch = corrupt
        blocks = random_blocks(4, 16, seed=6)
        with pytest.raises(AssertionError):
            stream.process(blocks)


class TestBatchedStreaming:
    def test_batched_process_equals_serial_process(self):
        n, symbols = 64, 10
        blocks = random_blocks(symbols, n, seed=11)
        serial = StreamingFFT(n)
        batched = StreamingFFT(n)
        stats_s = serial.process(blocks, batch=1)
        stats_b = batched.process(blocks, batch=4)
        assert stats_s.per_symbol_cycles == stats_b.per_symbol_cycles
        assert stats_s.total_cycles == stats_b.total_cycles
        assert stats_b.is_deterministic
        assert (serial.asip.stats.as_dict()
                == batched.asip.stats.as_dict())

    def test_generator_input_with_reused_buffer(self):
        n = 16

        def reused(count):
            rng = np.random.default_rng(13)
            buf = np.empty(n, dtype=complex)
            for _ in range(count):
                buf[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                yield buf

        stats = StreamingFFT(n).process(reused(7), batch=3)
        assert stats.symbols == 7
        assert stats.is_deterministic

    def test_fixed_point_batched_stream(self):
        blocks = random_blocks(6, 64, seed=14, scale=0.2)
        stats = StreamingFFT(64, fixed_point=True).process(blocks)
        assert stats.symbols == 6
        assert stats.is_deterministic

    def test_mbps_paper_convention_property(self):
        stats = StreamingFFT(64).process(random_blocks(2, 64, seed=15))
        assert stats.mbps_paper_convention == pytest.approx(
            6.0 * stats.msamples_per_second
        )
