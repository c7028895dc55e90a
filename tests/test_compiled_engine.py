"""Compiled-plan vectorized engine: equivalence with the oracle datapaths.

The compiled engine is only allowed to be fast because it is provably the
same computation: the Q1.15 path must match the scalar ``FixedComplex``
walk bit for bit (overflow counts included), the float path must agree to
rounding noise, and the predecoded simulator must retire the same
instructions with the same statistics as the step interpreter.
"""

import itertools

import numpy as np
import pytest

import repro
from repro.addressing.coefficients import PreRotationStore
from repro.core import ArrayFFT
from repro.core.fixed_point import (
    FixedComplex,
    FixedPointContext,
    quantize,
    quantize_array,
    round_shift_array,
)
from repro.core.fixed_point import _round_shift


def random_vector(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


ALL_SIZES = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]


#: Q1.15 values at and next to the lane range's edges.
EXTREMES = [-2 ** 15, -2 ** 15 + 1, -1, 0, 1, 2 ** 15 - 1]


@pytest.fixture(scope="module", params=[True, False],
                ids=["scaled", "unscaled"])
def extreme_oracle(request):
    """The scalar oracle over every combination of :data:`EXTREMES`:
    ``{"butterfly" | "multiply": (scale_stages, operand rows, expected
    component rows, overflow count)}``; 6^6 butterflies, 6^4 products."""
    scale = request.param
    cases = {}
    for name, arity in (("butterfly", 6), ("multiply", 4)):
        operands = np.array(list(itertools.product(EXTREMES, repeat=arity)))
        ctx = FixedPointContext(scale_stages=scale)
        points = [FixedComplex(re, im)
                  for re, im in operands.reshape(-1, 2).tolist()]
        want = []
        if name == "butterfly":
            for a, b, w in zip(points[0::3], points[1::3], points[2::3]):
                s, d = ctx.butterfly(a, b, w)
                want.append((s.re, s.im, d.re, d.im))
        else:
            for x, w in zip(points[0::2], points[1::2]):
                p = ctx.multiply(x, w)
                want.append((p.re, p.im))
        cases[name] = (scale, operands.T, np.array(want).T,
                       ctx.overflow_count)
    return cases


class TestFixedPointBitIdentity:
    @pytest.mark.parametrize("n", ALL_SIZES)
    def test_bit_identical_across_sizes(self, n):
        """Exact integer equality with the FixedComplex oracle, 4..2048."""
        x = random_vector(n, seed=n, scale=0.3)
        fast = ArrayFFT(n, fixed_point=True)
        oracle = ArrayFFT(n, fixed_point=True, compiled=False)
        got = fast.transform(x)
        want = oracle.transform(x)
        assert np.array_equal(got, want)
        assert fast.fx.overflow_count == oracle.fx.overflow_count

    def test_overflow_counts_match_when_saturating(self):
        """Large inputs overflow; the counts must still agree exactly."""
        n = 64
        x = random_vector(n, seed=1, scale=0.999)
        fast = ArrayFFT(n, fixed_point=True)
        oracle = ArrayFFT(n, fixed_point=True, compiled=False)
        # Disable per-stage scaling on both contexts to force saturation.
        fast.fx.scale_stages = oracle.fx.scale_stages = False
        assert np.array_equal(fast.transform(x), oracle.transform(x))
        assert oracle.fx.overflow_count > 0
        assert fast.fx.overflow_count == oracle.fx.overflow_count

    def test_vector_quantize_matches_scalar(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-1.3, 1.3, 64) + 1j * rng.uniform(-1.3, 1.3, 64)
        re, im = quantize_array(values)
        for k, v in enumerate(values):
            q = quantize(complex(v))
            assert (int(re[k]), int(im[k])) == (q.re, q.im)

    def test_vector_round_shift_matches_scalar(self):
        # Out to the int32 extremes a Q1.15 product reaches, +-(2^31 - 2^15).
        edge = 2 ** 31 - 2 ** 15
        rng = np.random.default_rng(3)
        v = np.concatenate([
            np.arange(-70, 70), np.arange(edge - 70, edge + 1),
            np.arange(-edge, -edge + 70), [-(2 ** 31)],
            rng.integers(-edge, edge, 2000),
        ])
        for bits in (1, 3, 15):
            want = [_round_shift(int(x), bits) for x in v]
            for dtype in (np.int32, np.int64):
                got = round_shift_array(v.astype(dtype), bits)
                assert got.dtype == dtype
                assert got.tolist() == want

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_butterfly_kernel_matches_scalar_at_extremes(self,
                                                         extreme_oracle,
                                                         dtype):
        """Every combination of extreme operands, the all -2^15 corner
        (where ``Im(b*w)`` reaches 2^31) included."""
        scale, operands, want, overflows = extreme_oracle["butterfly"]
        fx = FixedPointContext(scale_stages=scale)
        got = fx.butterfly_arrays(*operands.astype(dtype))
        for component, expected in zip(got, want):
            assert component.dtype == dtype
            assert np.array_equal(component, expected)
        assert fx.overflow_count == overflows

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_multiply_kernel_matches_scalar_at_extremes(self, extreme_oracle,
                                                        dtype):
        scale, operands, want, overflows = extreme_oracle["multiply"]
        fx = FixedPointContext(scale_stages=scale)
        got = fx.multiply_arrays(*operands.astype(dtype))
        for component, expected in zip(got, want):
            assert component.dtype == dtype
            assert np.array_equal(component, expected)
        assert fx.overflow_count == overflows

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_kernels_accept_empty_operands(self, dtype):
        fx = FixedPointContext()
        empty = np.zeros(0, dtype)
        for out in (fx.butterfly_arrays(*[empty] * 6),
                    fx.multiply_arrays(*[empty] * 4)):
            assert all(v.shape == (0,) and v.dtype == dtype for v in out)
        assert fx.overflow_count == 0

    def test_vector_butterfly_counts_overflow_like_scalar(self):
        ctx_v = FixedPointContext(scale_stages=False)
        ctx_s = FixedPointContext(scale_stages=False)
        a = quantize(0.9 + 0.9j)
        b = quantize(0.9 - 0.8j)
        w = quantize(0.999)
        s, d = ctx_s.butterfly(a, b, w)
        sr, si, dr, di = ctx_v.butterfly_arrays(
            *[np.array([v]) for v in (a.re, a.im, b.re, b.im, w.re, w.im)]
        )
        assert (int(sr[0]), int(si[0])) == (s.re, s.im)
        assert (int(dr[0]), int(di[0])) == (d.re, d.im)
        assert ctx_v.overflow_count == ctx_s.overflow_count


class TestFloatEquivalence:
    @pytest.mark.parametrize("n", ALL_SIZES)
    def test_matches_oracle_datapath(self, n):
        x = random_vector(n, seed=n)
        fast = ArrayFFT(n)
        oracle = ArrayFFT(n, compiled=False)
        assert np.allclose(fast.transform(x), oracle.transform(x),
                           atol=1e-12, rtol=1e-12)

    def test_matches_numpy(self):
        for n in (64, 512, 2048):
            x = random_vector(n, seed=n)
            assert np.allclose(ArrayFFT(n).transform(x), np.fft.fft(x),
                               atol=1e-8 * n)

    def test_bu_op_count_matches_plan(self):
        engine = ArrayFFT(128)
        engine.transform(random_vector(128))
        assert engine.bu.op_count == engine.plan.total_but4


class TestBatchTransform:
    def test_transform_many_matches_per_symbol(self):
        n, symbols = 256, 7
        blocks = np.stack([random_vector(n, seed=k) for k in range(symbols)])
        engine = ArrayFFT(n)
        batch = engine.transform_many(blocks)
        single = np.stack([ArrayFFT(n).transform(b) for b in blocks])
        assert np.allclose(batch, single, atol=1e-12)
        assert np.allclose(batch, np.fft.fft(blocks, axis=1), atol=1e-8 * n)

    def test_transform_many_fixed_bit_identical(self):
        n, symbols = 64, 5
        blocks = np.stack(
            [random_vector(n, seed=k, scale=0.3) for k in range(symbols)]
        )
        engine = ArrayFFT(n, fixed_point=True)
        batch = engine.transform_many(blocks)
        for k in range(symbols):
            oracle = ArrayFFT(n, fixed_point=True, compiled=False)
            assert np.array_equal(batch[k], oracle.transform(blocks[k]))

    def test_transform_many_counts_ops_per_symbol(self):
        engine = ArrayFFT(64)
        engine.transform_many(np.zeros((3, 64), dtype=complex))
        assert engine.bu.op_count == 3 * engine.plan.total_but4

    def test_shape_validated(self):
        engine = ArrayFFT(64)
        with pytest.raises(ValueError):
            engine.transform_many(np.zeros((2, 32), dtype=complex))
        with pytest.raises(ValueError):
            engine.transform_many(np.zeros(64, dtype=complex))

    def test_inverse_many_roundtrip(self):
        n = 128
        blocks = np.stack([random_vector(n, seed=k) for k in range(4)])
        engine = ArrayFFT(n)
        assert np.allclose(
            engine.transform_many(engine.inverse_many(blocks)), blocks,
            atol=1e-9,
        )


class TestLookupMany:
    @pytest.mark.parametrize("n", [8, 32, 256, 2048])
    def test_matches_scalar_lookup(self, n):
        store = PreRotationStore(n)
        exponents = np.arange(4 * n) - n  # negative, in-range, wrapped
        got = store.lookup_many(exponents)
        for e, value in zip(exponents, got):
            assert value == store.lookup(int(e))

    def test_weight_matrix_matches_weights(self):
        store = PreRotationStore(64)
        matrix = store.weight_matrix(8, 8)
        for s in range(8):
            for l in range(8):
                assert matrix[s, l] == store.weight(s, l)


class TestEngineCache:
    def test_cached_results_still_correct(self):
        # One engine reused across inputs keeps its compiled plan.
        with repro.engine(32) as eng:
            for seed in range(3):
                x = random_vector(32, seed=seed)
                assert np.allclose(
                    eng.transform(x).spectrum, np.fft.fft(x), atol=1e-9
                )


class TestPredecodedMachine:
    def assemble_and_compare(self, source):
        from repro.isa import assemble
        from repro.sim import Machine, MainMemory

        program = assemble(source)
        fast = Machine(MainMemory(1024))
        slow = Machine(MainMemory(1024))
        fast.run(program)
        slow.run_interpreted(program)
        assert fast.registers == slow.registers
        assert fast.stats.as_dict() == slow.stats.as_dict()

    def test_alu_and_branch_program(self):
        self.assemble_and_compare("""
            li r1, 10
            li r2, 0
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            sw r2, 64(r0)
            lw r3, 64(r0)
            add r4, r3, r3
            halt
        """)

    def test_jal_jr_and_stalls(self):
        self.assemble_and_compare("""
            jal sub
            halt
        sub:
            li r2, 5
            sw r2, 8(r0)
            lw r3, 8(r0)
            add r4, r3, r3
            jr ra
        """)

    def test_asip_predecoded_run_matches_interpreter(self):
        from repro.asip import FFTASIP, generate_fft_program

        n = 64
        x = random_vector(n, seed=7)
        fast = FFTASIP(n)
        slow = FFTASIP(n, vectorized=False)
        fast.load_input(x)
        slow.load_input(x)
        program = generate_fft_program(n)
        fast.run(program)
        slow.run_interpreted(program)
        assert np.allclose(fast.read_output(), slow.read_output(),
                           atol=1e-12)
        assert fast.stats.as_dict() == slow.stats.as_dict()
        assert fast.bu.op_count == slow.bu.op_count
        assert fast.crf.reads == slow.crf.reads
        assert fast.crf.writes == slow.crf.writes
        assert fast.rom.reads == slow.rom.reads

    def test_asip_fixed_point_bit_identical(self):
        from repro.asip import FFTASIP, generate_fft_program

        n = 32
        x = random_vector(n, seed=9, scale=0.2)
        fast = FFTASIP(n, fixed_point=True)
        slow = FFTASIP(n, fixed_point=True, vectorized=False)
        fast.load_input(x)
        slow.load_input(x)
        program = generate_fft_program(n)
        fast.run(program)
        slow.run_interpreted(program)
        assert np.array_equal(fast.read_output(), slow.read_output())
        assert fast.fx.overflow_count == slow.fx.overflow_count
        assert fast.stats.as_dict() == slow.stats.as_dict()

    def test_transform_many_honours_compiled_false(self):
        n = 32
        blocks = np.stack([random_vector(n, seed=k) for k in range(3)])
        oracle = ArrayFFT(n, compiled=False)
        got = oracle.transform_many(blocks)
        assert oracle._compiled is None  # the oracle path really ran
        assert np.allclose(got, np.fft.fft(blocks, axis=1), atol=1e-9)

    def test_flipping_vectorized_reinvalidates_predecode(self):
        from repro.asip import FFTASIP, generate_fft_program

        n = 16
        x = random_vector(n, seed=13)
        program = generate_fft_program(n)
        machine = FFTASIP(n)
        machine.load_input(x)
        machine.run(program)
        machine.vectorized = False
        machine.load_input(x)
        machine.run(program)
        reference = FFTASIP(n, vectorized=False)
        reference.load_input(x)
        reference.run_interpreted(program)
        assert np.allclose(machine.read_output(), reference.read_output(),
                           atol=1e-12)

    def test_runaway_guard_counts_fused_burst_instructions(self):
        from repro.asip import FFTASIP, generate_fft_program
        from repro.sim.errors import RunawayProgram

        n = 64
        program = generate_fft_program(n)
        machine = FFTASIP(n)
        machine.max_instructions = 50
        machine.load_input(random_vector(n, seed=1))
        with pytest.raises(RunawayProgram):
            machine.run(program)
        # The guard fired within one burst of the limit, not at a
        # multiple of it.
        assert machine.stats.instructions <= 50 + n

    def test_patched_execute_custom_is_honoured(self):
        """Instrumenting execute_custom on the instance (the custom-op
        analogue of the ExecutionTrace step wrap) must be seen by run()."""
        from repro.asip import FFTASIP, generate_fft_program

        n = 16
        asip = FFTASIP(n)
        asip.load_input(random_vector(n, seed=17))
        seen = []
        original = asip.execute_custom
        asip.execute_custom = lambda instr: (
            seen.append(instr.opcode), original(instr)
        )[1]
        asip.run(generate_fft_program(n))
        assert len(seen) == sum(asip.stats.custom_ops.values())

    def test_executor_patched_between_runs_is_honoured(self):
        """Patching a per-op executor between runs of one cached program
        must rebuild the handlers and decline burst fusion."""
        from repro.asip import FFTASIP, generate_fft_program

        n = 16
        x = random_vector(n, seed=19)
        program = generate_fft_program(n)
        asip = FFTASIP(n)
        asip.load_input(x)
        asip.run(program)
        calls = []
        original = asip._exec_but4
        asip._exec_but4 = lambda instr: (calls.append(1), original(instr))[1]
        asip.load_input(x)
        asip.run(program)
        assert len(calls) == asip.plan.total_but4
        assert np.allclose(asip.read_output(), np.fft.fft(x), atol=1e-8)

    def test_asip_prerotation_fault_injection_seam(self):
        """Replacing the store before the first run must be honoured
        (the weight table is built lazily, like ArrayFFT's engine)."""
        from repro.asip import FFTASIP, generate_fft_program

        class NoRotation:
            def weight(self, s, l):
                return 1.0 + 0j

        n = 64
        x = random_vector(n, seed=21)
        asip = FFTASIP(n)
        asip.prerotation = NoRotation()
        asip.load_input(x)
        asip.run(generate_fft_program(n))
        assert not np.allclose(asip.read_output(), np.fft.fft(x),
                               atol=1e-6)

    def test_stream_verify_copies_caller_buffers(self):
        """A caller reusing one buffer per block must still verify clean
        (chunked verification snapshots each input)."""
        from repro.asip.streaming import StreamingFFT

        def reused_buffer_blocks(n, count):
            rng = np.random.default_rng(23)
            buf = np.empty(n, dtype=complex)
            for _ in range(count):
                buf[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                yield buf

        stats = StreamingFFT(8).process(reused_buffer_blocks(8, 4))
        assert stats.symbols == 4

    def test_streamed_reuse_keeps_stats_identical(self):
        """Burst fusion + predecode cache across repeated runs."""
        from repro.asip.streaming import StreamingFFT

        stream = StreamingFFT(64)
        rng = np.random.default_rng(11)
        blocks = [rng.standard_normal(64) + 1j * rng.standard_normal(64)
                  for _ in range(3)]
        stats = stream.process(blocks)
        assert stats.is_deterministic
        assert stats.symbols == 3
