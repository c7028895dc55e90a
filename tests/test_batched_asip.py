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
from repro.asip.fft_asip import GROUP_SIZE_REG
from repro.asip.streaming import StreamingFFT
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder
from repro.sim.errors import SimulationError


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

    @pytest.mark.parametrize("symbols", [1, 4])
    def test_q15_non_finite_batch_leaves_machine_untouched(self, symbols):
        """Rejected while staging, before the pass runs or retires: the
        recorded, the replayed and the serial path alike."""
        n = 64
        program = generate_fft_program(n)
        machine = FFTASIP(n, fixed_point=True)
        serial = FFTASIP(n, fixed_point=True)
        good = random_blocks(symbols, n, seed=4, scale=0.2)
        bad = good.copy()
        bad[-1, 9] = np.nan
        for _ in range(3):  # power-on record, steady record, replay
            with pytest.raises(ValueError, match="non-finite"):
                machine.run_batch(program, bad)
            assert_machines_equal(machine, serial)
            assert machine.fx.overflow_count == serial.fx.overflow_count
            outs, _ = machine.run_batch(program, good)
            want, _ = run_serial(serial, program, good)
            assert np.array_equal(outs, want)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_butterflies_reading_initial_crf_entries(self, fixed):
        """Every stage runs only its second module, so half of each bank
        keeps the state the batch started from.  BUT4 operand halves then
        read only initial entries (stage 2) or a mix of initial, loaded
        and computed ones (stages 3 and 4), STOUT copies initial entries
        to the output, and the CRF end state still names them."""
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
    """Run one batch and the equivalent serial loop, assert them equal,
    and return how many times the batch called ``Machine.run`` (0 when
    it replayed a recorded pass)."""
    calls = []
    run = batched.run
    batched.run = lambda p: calls.append(p) or run(p)
    try:
        outs_b, cycles_b = batched.run_batch(program, blocks)
    finally:
        del batched.run
    outs_s, cycles_s = run_serial(serial, program, blocks)
    assert np.array_equal(outs_b, outs_s)
    assert cycles_b == cycles_s
    assert_batch_end_state_equal(batched, serial)
    return len(calls)


def run_stream(batched, serial, program, seeds, symbols, n, scale=1.0):
    """``run_both`` over one batch per seed; returns the run-call counts."""
    return [run_both(batched, serial, program,
                     random_blocks(symbols, n, seed=seed, scale=scale))
            for seed in seeds]


class TestLevelizedBatchAtScale:
    """The levelized data plane at the sizes the benchmark runs: group
    loops (N > 512), two group sizes (N=2048) and a spilling D-cache
    (N=8192).  A machine records its first batch from the power-on
    state and its second from the steady one; every later batch replays
    the steady record without interpreting the program, while the cache
    replay runs both cold and memoised."""

    SIZES = [(1024, 3), (2048, 3), (8192, 2)]

    @pytest.mark.parametrize("n,symbols", SIZES)
    def test_fixed_batches_equal_serial(self, n, symbols):
        program = generate_fft_program(n)
        batched = FFTASIP(n, fixed_point=True)
        serial = FFTASIP(n, fixed_point=True)
        assert run_stream(batched, serial, program, range(n, n + 3),
                          symbols, n, scale=0.25) == [1, 1, 0]
        # Without per-stage scaling these inputs saturate the BU; the
        # replayed schedule reads the flag and the data live.
        batched.fx.scale_stages = serial.fx.scale_stages = False
        before = serial.fx.overflow_count
        assert run_stream(batched, serial, program, range(n + 3, n + 5),
                          symbols, n, scale=0.9) == [0, 0]
        assert serial.fx.overflow_count > before
        assert len(batched._records) == 2

    @pytest.mark.parametrize("n,symbols", SIZES)
    def test_float_batches_equal_serial(self, n, symbols):
        program = generate_fft_program(n)
        batched = FFTASIP(n)
        serial = FFTASIP(n)
        assert run_stream(batched, serial, program, range(n, n + 4),
                          symbols, n) == [1, 1, 0, 0]

    def test_batch_after_cache_reset(self):
        """Cache state is not control state: after a reset, or on a fresh
        cache whose replay memo is empty (so the walk is swept again),
        the record still replays and the statistics stay exact."""
        from repro.sim.cache import DataCache

        n, symbols = 8192, 2
        program = generate_fft_program(n)
        batched = FFTASIP(n)
        serial = FFTASIP(n)
        assert run_stream(batched, serial, program, [21, 22, 23], symbols,
                          n) == [1, 1, 0]
        batched.dcache.reset()
        serial.dcache.reset()
        assert run_stream(batched, serial, program, [24], symbols, n) == [0]
        batched.dcache = DataCache(batched.dcache.config)
        serial.dcache = DataCache(serial.dcache.config)
        sweeps = []
        sweep = batched.dcache._sweep
        batched.dcache._sweep = lambda walk: sweeps.append(1) or sweep(walk)
        assert run_stream(batched, serial, program, [25], symbols, n) == [0]
        assert sweeps

    def test_two_programs_share_one_machine(self):
        """Alternating two programs changes the cache start state and
        the predecoded handlers between batches; each program keeps
        replaying its own record."""
        n, symbols = 1024, 3
        looped = generate_fft_program(n)
        unrolled = generate_fft_program(n, unroll_threshold=n)
        assert len(unrolled) != len(looped)
        batched = FFTASIP(n, fixed_point=True)
        serial = FFTASIP(n, fixed_point=True)
        calls = [
            run_both(batched, serial, program,
                     random_blocks(symbols, n, seed=30 + seed, scale=0.25))
            for seed, program in enumerate((looped, unrolled) * 3)
        ]
        assert calls == [1, 1, 1, 0, 0, 0]

    def test_tiny_cache_replays_cold_passes(self):
        """A cache far smaller than the walk: the first batch sweeps its
        cold passes, the next ones are memo hits."""
        from repro.sim.cache import CacheConfig

        n, symbols = 256, 4
        config = CacheConfig(sets=4, ways=2)
        program = generate_fft_program(n)
        batched = FFTASIP(n, cache_config=config)
        serial = FFTASIP(n, cache_config=config)
        run_stream(batched, serial, program, range(40, 43), symbols, n)
        assert batched.dcache._replay_memo

    def test_stream_with_short_last_chunk_replays(self):
        """A warm stream whose last chunk is shorter hits the same record
        (the schedule holds no symbol count) and matches the serial
        stream's statistics."""
        n, batch = 1024, 8
        batched = StreamingFFT(n, fixed_point=True)
        serial = StreamingFFT(n, fixed_point=True)
        calls = []
        run = batched.asip.run
        batched.asip.run = lambda p: calls.append(p) or run(p)
        results = []
        for count, seed in ((2 * batch, 60), (batch + 7, 61)):
            blocks = random_blocks(count, n, seed=seed, scale=0.25)
            stats_b = batched.process(blocks, batch=batch)
            stats_s = serial.process(blocks, batch=1)
            results.append((stats_b, stats_s, len(calls)))
        del batched.asip.run
        # Warm-up: the power-on and steady records; then two replays.
        assert [made for *_, made in results] == [2, 2]
        for stats_b, stats_s, _ in results:
            assert stats_b.per_symbol_cycles == stats_s.per_symbol_cycles
            assert stats_b.total_cycles == stats_s.total_cycles
        assert_batch_end_state_equal(batched.asip, serial.asip)


class TestReplayInvalidation:
    """A recorded pass is replayed only from the entry control state it
    was recorded in.  Each change below must miss the record or fall
    back, and stay exact."""

    N, SYMBOLS = 256, 3

    def warm_pair(self, fixed_point=True, **kwargs):
        """A batched and a serial machine after three equal batches (the
        third replayed)."""
        program = generate_fft_program(self.N)
        batched = FFTASIP(self.N, fixed_point=fixed_point, **kwargs)
        serial = FFTASIP(self.N, fixed_point=fixed_point, **kwargs)
        assert self.stream(batched, serial, program, range(3)) == [1, 1, 0]
        return batched, serial, program

    def stream(self, batched, serial, program, seeds):
        return run_stream(batched, serial, program, seeds, self.SYMBOLS,
                          self.N, scale=0.25)

    def test_register_write_misses(self):
        batched, serial, program = self.warm_pair()
        for machine in (batched, serial):
            machine.write_reg(9, 12345)
        assert self.stream(batched, serial, program, [3, 4]) == [1, 0]
        assert len(batched._records) == 2

    def test_pipeline_swap_misses(self):
        from repro.sim.pipeline import PipelineConfig

        batched, serial, program = self.warm_pair()
        cycles = batched.stats.cycles
        slow = PipelineConfig(but4_latency=3, custom_mem_latency=2)
        batched.pipeline = serial.pipeline = slow
        assert self.stream(batched, serial, program, [3, 4]) == [1, 0]
        per_symbol = (batched.stats.cycles - cycles) // (2 * self.SYMBOLS)
        assert per_symbol > cycles // (3 * self.SYMBOLS)

    def test_lowered_instruction_budget_raises(self):
        """A record retiring more than ``max_instructions`` is not
        replayed: the batch runs live and raises where a run does."""
        from repro.sim.errors import RunawayProgram

        batched, serial, program = self.warm_pair()
        records = list(batched._records)
        budget = records[-1].instructions
        batched.max_instructions = serial.max_instructions = budget
        assert self.stream(batched, serial, program, [3]) == [0]
        batched.max_instructions = serial.max_instructions = budget - 1
        with pytest.raises(RunawayProgram):
            batched.run_batch(program, random_blocks(self.SYMBOLS, self.N))
        with pytest.raises(RunawayProgram):
            serial.run(program)
        assert batched.stats.instructions == serial.stats.instructions
        assert batched._records == records

    def test_step_corruption_detected_and_localised(self):
        """A step fault injected after warm-up bypasses the records: the
        batch falls back to the serial loop, whose corrupted output shows,
        and co-execution still localises the fault."""
        from repro.verify import asip_step_corruption, coexec_machines

        batched, serial, program = self.warm_pair(fixed_point=False)
        blocks = random_blocks(self.SYMBOLS, self.N, seed=3)
        clean, _ = run_serial(serial, program, blocks)
        # Step 10 zeroes the LDIN CRF pointer r5; the fault moves it.
        fault = dict(at_step=10, register=5, xor=4)
        with asip_step_corruption(batched, **fault):
            assert not batched._can_batch(program)
            faulty, _ = batched.run_batch(program, blocks)
        assert not np.allclose(faulty, clean)
        a, b = FFTASIP(self.N), FFTASIP(self.N)
        for machine in (a, b):
            machine.load_input(blocks[0])
        with asip_step_corruption(a, **fault):
            result = coexec_machines(a, b, program)
        assert result.report.step_index == fault["at_step"] - 1
        assert result.report.operands["register"] == fault["register"]

    def test_guard_trip_stores_no_record(self):
        batched, _, _ = self.warm_pair()
        records = list(batched._records)
        with pytest.raises(SimulationError):
            batched.run_batch(cross_symbol_program(self.N),
                              random_blocks(self.SYMBOLS, self.N))
        assert batched._records == records


def cross_symbol_program(n):
    """Reads output-region columns before writing them: serially, each
    symbol would consume the previous one's output."""
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
    return b.build()


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
        diverge, and keep no record of the pass."""
        n = 16
        machine = FFTASIP(n)
        program = cross_symbol_program(n)
        assert machine._can_batch(program)
        blocks = random_blocks(3, n, seed=9)
        for _ in range(2):
            with pytest.raises(SimulationError):
                machine.run_batch(program, blocks)
            assert machine._records == []

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
