"""The channel-coding subsystem: codec, interleavers, demappers, Viterbi."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import repro
from repro.coding import (
    PUNCTURE_PATTERNS,
    BlockInterleaver,
    ConvolutionalCode,
    IdentityInterleaver,
    SoftDemapper,
    ViterbiDecoder,
    build_interleaver,
    code_names,
    demapper_names,
    get_code,
    get_demapper,
    get_interleaver,
    interleaver_names,
    register_code,
    register_demapper,
    register_interleaver,
    resolve_code,
    resolve_interleaver,
    unregister_code,
    unregister_demapper,
    unregister_interleaver,
)
from repro.ofdm.modulation import CONSTELLATIONS
from repro.pipelines import CODED_OFDM_CHAIN
from repro.scenarios import build_scenario

RATES = tuple(sorted(PUNCTURE_PATTERNS))


class TestConvolutionalCode:
    def test_k7_trellis_shape(self):
        code = get_code("conv-k7")
        assert code.constraint_length == 7
        assert code.n_states == 64
        assert code.outputs.shape == (64, 2, 2)
        assert code.prev_states.shape == (64, 2)

    def test_predecessor_tables_invert_next_states(self):
        code = get_code("conv-k7")
        for state in range(code.n_states):
            for bit in (0, 1):
                ns = code.next_states[state, bit]
                assert state in code.prev_states[ns]
                assert code.input_bits[ns] == bit

    def test_vectorized_encoder_matches_reference(self):
        rng = np.random.default_rng(7)
        for name in ("conv-k7", "conv-k3"):
            code = get_code(name)
            bits = rng.integers(0, 2, size=(4, 50))
            assert np.array_equal(code.encode(bits),
                                  code.encode_reference(bits))

    def test_termination_returns_to_zero_state(self):
        code = get_code("conv-k7")
        out = code.encode_reference(np.ones(20, dtype=int))
        assert out.shape == (20 + code.memory, 2)

    def test_needs_two_generators(self):
        with pytest.raises(ValueError, match="generators"):
            ConvolutionalCode("bad", (0o7,))


class TestPuncturing:
    @pytest.mark.parametrize("rate", RATES)
    def test_geometry_fills_capacity(self, rate):
        punct = get_code("conv-k7").punctured(rate)
        for capacity in (128, 256, 384, 1000):
            geom = punct.block_geometry(capacity)
            assert geom.coded_bits <= capacity
            assert geom.coded_bits + geom.pad_bits == capacity
            assert geom.info_bits == geom.steps - 6
            assert punct.coded_length(geom.steps) == geom.coded_bits
            # maximal: one more step would overflow the capacity
            assert punct.coded_length(geom.steps + 1) > capacity

    @pytest.mark.parametrize("rate", RATES)
    def test_encode_pads_to_capacity(self, rate):
        punct = get_code("conv-k7").punctured(rate)
        geom = punct.block_geometry(128)
        rng = np.random.default_rng(1)
        info = rng.integers(0, 2, size=(3, geom.info_bits))
        coded = punct.encode(info, capacity=128)
        assert coded.shape == (3, 128)
        assert not coded[:, geom.coded_bits:].any()  # zero pad

    def test_depuncture_round_trip(self):
        punct = get_code("conv-k7").punctured("3/4")
        geom = punct.block_geometry(128)
        rng = np.random.default_rng(2)
        llrs = rng.standard_normal((2, geom.coded_bits))
        grid = punct.depuncture(llrs)
        assert grid.shape == (2, geom.steps, 2)
        # kept positions carry the stream, punctured positions zero
        assert np.array_equal(grid[..., punct.step_mask(geom.steps)], llrs)
        assert np.count_nonzero(grid) == llrs.size

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("code_name", ("conv-k3", "conv-k7"))
    def test_depuncture_matches_the_linear_walk(self, code_name, rate):
        """The landed step count equals a walk up from ``memory + 1``:
        the same grid for aligned lengths, the same error otherwise."""
        punct = get_code(code_name).punctured(rate)
        memory, period = punct.base.memory, punct.period_steps

        def linear_walk(coded):
            steps = memory + 1
            while punct.coded_length(steps) < coded:
                steps += 1
            if punct.coded_length(steps) != coded:
                return (f"{coded} LLRs do not align with rate {rate} "
                        f"puncturing (nearest block: "
                        f"{punct.coded_length(steps)})")
            return steps

        smallest = memory + 2  # one info bit plus the tail
        dvbt_2k = punct.block_geometry(4096).coded_bits
        lengths = [*range(1, punct.coded_length(smallest + 3 * period) + 1),
                   *range(dvbt_2k - 4 * period, dvbt_2k + 4 * period)]
        assert dvbt_2k in lengths
        for coded in lengths:
            expected = linear_walk(coded)
            llrs = np.zeros((2, coded))
            if isinstance(expected, str):
                with pytest.raises(ValueError) as raised:
                    punct.depuncture(llrs)
                assert str(raised.value) == expected
                assert "nearest block" in expected
            else:
                grid = punct.depuncture(llrs)
                assert grid.shape == (2, expected, 2)

    def test_unknown_rate_lists_menu(self):
        with pytest.raises(repro.UnknownNameError, match="3/4"):
            get_code("conv-k7").punctured("7/8")


class TestViterbi:
    @pytest.mark.parametrize("rate", RATES)
    def test_noiseless_round_trip(self, rate):
        punct = get_code("conv-k7").punctured(rate)
        geom = punct.block_geometry(192)
        rng = np.random.default_rng(3)
        info = rng.integers(0, 2, size=(4, geom.info_bits))
        llrs = 1.0 - 2.0 * punct.encode(info).astype(float)
        assert np.array_equal(punct.decode(llrs), info)

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("code_name", ("conv-k7", "conv-k3"))
    def test_vectorized_bit_identical_to_oracle(self, code_name, rate):
        """The acceptance-criterion identity: randomized seeded trials."""
        punct = get_code(code_name).punctured(rate)
        geom = punct.block_geometry(128)
        rng = np.random.default_rng(hash((code_name, rate)) % 2**32)
        for trial in range(3):
            info = rng.integers(0, 2, size=(3, geom.info_bits))
            clean = 1.0 - 2.0 * punct.encode(info).astype(float)
            # Heavy noise on purpose: ties and wrong paths stress the
            # compare-select ordering, not just the happy path.
            noisy = clean + 1.2 * rng.standard_normal(clean.shape)
            fast = punct.decode(noisy)
            oracle = punct.decode(noisy, reference=True)
            assert np.array_equal(fast, oracle)

    def test_batch_matches_per_block_decode(self):
        punct = get_code("conv-k7").punctured("1/2")
        geom = punct.block_geometry(96)
        rng = np.random.default_rng(5)
        info = rng.integers(0, 2, size=(6, geom.info_bits))
        llrs = (1.0 - 2.0 * punct.encode(info)
                + 0.9 * rng.standard_normal((6, geom.coded_bits)))
        batched = punct.decode(llrs)
        rows = np.stack([punct.decode(row) for row in llrs])
        assert np.array_equal(batched, rows)

    def test_corrects_hard_decision_errors(self):
        """Soft decoding repairs a channel hard decisions get wrong."""
        punct = get_code("conv-k7").punctured("1/2")
        geom = punct.block_geometry(512)
        rng = np.random.default_rng(6)
        info = rng.integers(0, 2, size=geom.info_bits)
        clean = 1.0 - 2.0 * punct.encode(info).astype(float)
        noisy = clean + 0.7 * rng.standard_normal(clean.shape)
        raw_errors = int(np.sum((noisy < 0) != (clean < 0)))
        decoded_errors = int(np.sum(punct.decode(noisy) != info))
        assert raw_errors > 0
        assert decoded_errors < raw_errors

    def test_rejects_bad_shapes(self):
        decoder = ViterbiDecoder(get_code("conv-k7"))
        with pytest.raises(ValueError, match="steps"):
            decoder.decode(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="trellis steps"):
            decoder.decode(np.zeros((4, 2)))


def _fast_matches_oracle(decoder, llr):
    fast = decoder.decode(llr)
    assert np.array_equal(fast, decoder.decode_reference(llr))
    return fast


class TestViterbiExactness:
    """``decode`` against ``decode_reference`` where a plausible wrong
    kernel would diverge: an ``np.maximum`` select on non-finite branch
    sums, routing keyed on the LLRs, a ``>=`` tie rule, a cached sign
    table, a fixed ``uint8`` state, batch or chunk arithmetic."""

    @pytest.mark.parametrize("code_name", ("conv-k3", "conv-k7"))
    def test_inf_and_nan_llr_grids(self, code_name):
        decoder = ViterbiDecoder(get_code(code_name))
        rng = np.random.default_rng(17)
        values = np.array([np.inf, -np.inf, np.nan, 1.0, -1.0, 0.5])
        with np.errstate(invalid="ignore"):
            for _ in range(30):
                llr = rng.standard_normal((2, 16, 2))
                hit = rng.random(llr.shape) < 0.3
                llr[hit] = rng.choice(values, size=int(hit.sum()))
                _fast_matches_oracle(decoder, llr)

    @pytest.mark.parametrize("code_name", ("conv-k3", "conv-k7"))
    def test_overflowing_branch_sums_take_the_select(self, viterbi_calls,
                                                     code_name):
        """Finite LLRs near the float maximum overflow their branch sums
        to ``±inf``: the burst is routed by its sums, not its LLRs, to
        the per-step select."""
        decoder = ViterbiDecoder(get_code(code_name))
        rng = np.random.default_rng(23)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(40):
                llr = rng.choice([1.7e308, -1.7e308, 1.0, -1.0],
                                 size=(2, 24, 2))
                sums, _ = decoder._branch_sums(llr)
                assert not np.isfinite(sums).all()
                _fast_matches_oracle(decoder, llr)
        assert viterbi_calls["copyto"] and not viterbi_calls["maximum"]

    @pytest.mark.parametrize("code_name", ("conv-k3", "conv-k7"))
    def test_overflowing_path_metrics_keep_two_calls(self, viterbi_calls,
                                                     code_name):
        """Finite branch sums whose path metrics overflow to ``±inf``
        stay on the two-call path: no candidate can be NaN there."""
        decoder = ViterbiDecoder(get_code(code_name))
        rng = np.random.default_rng(24)
        with np.errstate(over="ignore"):
            for _ in range(40):
                llr = rng.choice([4e307, -4e307, 1e307, -1e307],
                                 size=(2, 24, 2))
                sums, table = decoder._branch_sums(llr)
                decisions = np.empty((24, 2, decoder.code.n_states),
                                     dtype=bool)
                for _, metrics in decoder._acs(sums, table, decisions):
                    pass
                assert np.isfinite(sums).all()
                assert np.isposinf(metrics).any()
                _fast_matches_oracle(decoder, llr)
        assert viterbi_calls["maximum"] and not viterbi_calls["copyto"]

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("code_name", ("conv-k7", "conv-k3"))
    def test_integer_tie_heavy_llrs(self, code_name, rate):
        punct = get_code(code_name).punctured(rate)
        geom = punct.block_geometry(96)
        rng = np.random.default_rng(18)
        llrs = rng.integers(-2, 3, size=(3, geom.coded_bits)).astype(float)
        grid = punct.depuncture(llrs)
        _fast_matches_oracle(ViterbiDecoder(punct.base), grid)

    def test_multi_axis_batch(self):
        decoder = ViterbiDecoder(get_code("conv-k7"))
        rng = np.random.default_rng(19)
        llr = rng.standard_normal((2, 3, 30, 2))
        fast = _fast_matches_oracle(decoder, llr)
        assert fast.shape == (2, 3, 24)
        assert np.array_equal(fast[1, 2], decoder.decode(llr[1, 2]))

    def test_reads_the_live_sign_table(self):
        from repro.verify.faults import branch_metric_flip

        decoder = ViterbiDecoder(get_code("conv-k3"))
        rng = np.random.default_rng(20)
        llr = rng.standard_normal((4, 40, 2))
        clean = decoder.decode(llr)
        with branch_metric_flip(decoder, state=1, branch=1):
            faulted = _fast_matches_oracle(decoder, llr)
        assert not np.array_equal(faulted, clean)
        assert np.array_equal(decoder.decode(llr), clean)

    def test_state_dtype_follows_state_count(self):
        code = ConvolutionalCode("k10-test", (0o1167, 0o1545))
        assert code.n_states == 512
        rng = np.random.default_rng(21)
        bits = rng.integers(0, 2, size=(2, 12))
        llr = (1.0 - 2.0 * code.encode(bits)
               + 0.8 * rng.standard_normal((2, 21, 2)))
        _fast_matches_oracle(ViterbiDecoder(code), llr)

    def test_empty_batch(self):
        decoder = ViterbiDecoder(get_code("conv-k7"))
        fast = _fast_matches_oracle(decoder, np.zeros((0, 40, 2)))
        assert fast.shape == (0, 34) and fast.dtype == np.uint8


class TestWindowedTraceback:
    """Every window length of ``_traceback_windowed`` against the serial
    walk, on random survivor decisions (every bool grid is a valid
    trellis), with ``_traceback`` on both sides of the crossover."""

    @pytest.mark.parametrize("steps", ("memory+1", 7, 1006, 2730))
    @pytest.mark.parametrize("blocks", (1, 4, 32))
    @pytest.mark.parametrize("code_name", ("conv-k7", "conv-k3"))
    def test_windows_match_the_serial_walk(self, code_name, blocks, steps):
        decoder = ViterbiDecoder(get_code(code_name))
        if steps == "memory+1":
            steps = decoder.code.memory + 1
        rng = np.random.default_rng(steps * blocks)
        shape = (steps, blocks, decoder.code.n_states)
        decisions = rng.integers(0, 2, size=shape, dtype=np.uint8).view(bool)
        serial = decoder._traceback_serial(decisions)
        assert serial.shape == (blocks, steps - decoder.code.memory)
        assert np.array_equal(decoder._traceback(decisions), serial)
        for length in (1, 2, 7, 64, steps, steps + 5):
            assert np.array_equal(
                decoder._traceback_windowed(decisions, length), serial)

    def test_wide_state_table(self):
        """One block of a 512-state code is windowed, over a ``uint16``
        predecessor table."""
        decoder = ViterbiDecoder(
            ConvolutionalCode("k10-test", (0o1167, 0o1545)))
        rng = np.random.default_rng(22)
        decisions = rng.integers(0, 2, size=(300, 1, 512),
                                 dtype=np.uint8).view(bool)
        assert decoder._predecessors(decisions).dtype == np.uint16
        serial = decoder._traceback_serial(decisions)
        assert np.array_equal(decoder._traceback(decisions), serial)
        for length in (1, 17, 300, 305):
            assert np.array_equal(
                decoder._traceback_windowed(decisions, length), serial)


class TestInterleavers:
    def test_block_interleaver_round_trip(self):
        rng = np.random.default_rng(8)
        il = BlockInterleaver(64, depth=8)
        x = rng.standard_normal((3, 64))
        assert np.array_equal(il.deinterleave(il.interleave(x)), x)

    def test_block_interleaver_spreads_adjacent_bits(self):
        il = BlockInterleaver(64, depth=8)
        a, b = il.permutation[0], il.permutation[1]
        assert abs(int(a) - int(b)) == 8  # column stride on the air

    def test_identity_is_noop(self):
        il = IdentityInterleaver(16)
        x = np.arange(16)
        assert np.array_equal(il.interleave(x), x)

    def test_depth_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            BlockInterleaver(10, depth=4)

    def test_resolve_accepts_all_designators(self):
        assert isinstance(resolve_interleaver(None, 32),
                          IdentityInterleaver)
        assert isinstance(resolve_interleaver("block", 32),
                          BlockInterleaver)
        custom = resolve_interleaver(("block", {"depth": 4}), 32)
        assert custom.depth == 4
        assert resolve_interleaver(custom, 32) is custom
        with pytest.raises(ValueError, match="sized for"):
            resolve_interleaver(custom, 64)
        with pytest.raises(TypeError, match="designator"):
            resolve_interleaver(1234, 32)


class TestSoftDemappers:
    @pytest.mark.parametrize("scheme", ("bpsk", "qpsk", "16qam"))
    def test_noiseless_signs_recover_bits(self, scheme):
        constellation = CONSTELLATIONS[scheme]
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=32 * constellation.bits_per_symbol)
        llrs = get_demapper(scheme).llrs(constellation.map_bits(bits))
        assert np.array_equal((llrs < 0).astype(int), bits)

    @pytest.mark.parametrize("scheme", ("bpsk", "qpsk", "16qam"))
    def test_llr_signs_match_hard_demap_under_noise(self, scheme):
        constellation = CONSTELLATIONS[scheme]
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, size=64 * constellation.bits_per_symbol)
        symbols = constellation.map_bits(bits)
        noisy = symbols + 0.15 * (rng.standard_normal(symbols.shape)
                                  + 1j * rng.standard_normal(symbols.shape))
        hard = constellation.unmap_symbols(noisy)
        soft = get_demapper(scheme).hard_bits(
            get_demapper(scheme).llrs(noisy)
        )
        assert np.array_equal(hard, soft)

    def test_batch_llrs_match_rows(self):
        demapper = get_demapper("16qam")
        rng = np.random.default_rng(11)
        symbols = (rng.standard_normal((4, 16))
                   + 1j * rng.standard_normal((4, 16)))
        batched = demapper.llrs(symbols)
        assert batched.shape == (4, 64)
        for k, row in enumerate(symbols):
            assert np.array_equal(batched[k], demapper.llrs(row))

    def test_noise_var_is_affine_scale(self):
        demapper = get_demapper("qpsk")
        rng = np.random.default_rng(12)
        symbols = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(demapper.llrs(symbols, noise_var=0.5),
                           demapper.llrs(symbols) / 0.5)


def _llrs_warned(fn, symbols):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = fn(symbols)
    return out, {(w.category, str(w.message)) for w in seen}


def _llrs_match_oracle(demapper, symbols):
    """``llrs`` equals ``llrs_reference`` bit for bit, NaN and sign
    bits included, and warns only where the oracle warns."""
    fast, fast_warned = _llrs_warned(demapper.llrs, symbols)
    oracle, oracle_warned = _llrs_warned(demapper.llrs_reference, symbols)
    assert fast.shape == oracle.shape and fast.dtype == oracle.dtype
    assert np.array_equal(fast, oracle, equal_nan=True)
    assert np.array_equal(np.signbit(fast), np.signbit(oracle))
    assert fast_warned <= oracle_warned


class TestSoftDemapperExactness:
    """``llrs`` against its oracle twin on noisy, signed-zero, infinite,
    NaN and overflowing components."""

    @pytest.mark.parametrize("shape", ((4, 2048), (1, 7), (3, 5, 16)))
    @pytest.mark.parametrize("scheme", ("bpsk", "qpsk", "16qam"))
    def test_llrs_match_the_oracle(self, scheme, shape):
        demapper = get_demapper(scheme)
        rng = np.random.default_rng(31)
        parts = rng.standard_normal((2,) + shape)
        _llrs_match_oracle(demapper, parts[0] + 1j * parts[1])
        odd = rng.random(parts.shape) < 0.2
        parts[odd] = rng.choice(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308],
            size=int(odd.sum()))
        symbols = parts[0] + 0j
        symbols.imag = parts[1]
        _llrs_match_oracle(demapper, symbols)

    @given(st.sampled_from(("bpsk", "qpsk", "16qam")),
           arrays(np.complex128, array_shapes(max_dims=3, max_side=6)))
    @settings(deadline=None, max_examples=150)
    def test_llrs_match_the_oracle_on_any_input(self, scheme, symbols):
        _llrs_match_oracle(get_demapper(scheme), symbols)


class TestCodingRegistries:
    """Error paths match the backend/stage/scenario registries."""

    def test_unknown_code_lists_menu(self):
        with pytest.raises(KeyError, match="conv-k7"):
            get_code("turbo")
        with pytest.raises(ValueError, match="registered codes"):
            get_code("turbo")
        assert isinstance(
            pytest.raises(repro.UnknownNameError, get_code, "x").value,
            LookupError,
        )

    def test_unknown_interleaver_lists_menu(self):
        with pytest.raises(KeyError, match="block"):
            get_interleaver("random")
        with pytest.raises(ValueError, match="registered interleavers"):
            build_interleaver("random", 64)

    def test_unknown_demapper_lists_menu(self):
        with pytest.raises(KeyError, match="16qam"):
            get_demapper("64qam")
        with pytest.raises(ValueError, match="registered demappers"):
            get_demapper("64qam")

    def test_register_unregister_code(self):
        code = ConvolutionalCode("k2-test", (0o3, 0o1))
        register_code(code)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_code(code)
            assert get_code("k2-test") is code
            assert "k2-test" in code_names()
        finally:
            unregister_code("k2-test")
        with pytest.raises(KeyError):
            get_code("k2-test")

    def test_register_unregister_interleaver(self):
        register_interleaver("throwaway", IdentityInterleaver)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_interleaver("throwaway", IdentityInterleaver)
            assert "throwaway" in interleaver_names()
            assert isinstance(build_interleaver("throwaway", 8),
                              IdentityInterleaver)
        finally:
            unregister_interleaver("throwaway")

    def test_register_unregister_demapper(self):
        demapper = SoftDemapper(CONSTELLATIONS["64qam"])
        register_demapper("64qam-test", demapper)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_demapper("64qam-test", demapper)
            assert get_demapper("64qam-test") is demapper
            assert "64qam-test" in demapper_names()
        finally:
            unregister_demapper("64qam-test")

    def test_registration_type_checked(self):
        with pytest.raises(TypeError, match="ConvolutionalCode"):
            register_code("not-a-code")
        with pytest.raises(TypeError, match="callable"):
            register_interleaver("bad", None)
        with pytest.raises(TypeError, match="llrs"):
            register_demapper("bad", object())

    def test_resolve_code_designators(self):
        assert resolve_code(None) is None
        punct = resolve_code("conv-k7", "3/4")
        assert punct.rate == "3/4"
        assert resolve_code(punct) is punct
        base = get_code("conv-k3")
        assert resolve_code(base, "2/3").base is base


class TestCodedOfdmLink:
    """The coded OFDM link, run as the coded pipeline."""

    def test_run_coded_clean_at_high_snr(self):
        with repro.pipeline(64, CODED_OFDM_CHAIN, scheme="qpsk",
                            code="conv-k7", code_rate="1/2", snr_db=30.0,
                            seed=0) as pipe:
            result = pipe.run(symbols=4)
        metrics = result.metrics
        assert metrics["symbols"] == 4
        assert metrics["coded_ber"] == 0.0
        assert metrics["fer"] == 0.0
        assert result.stage_outputs["source"].shape == (
            4, metrics["info_bits_per_symbol"])

    def test_coded_beats_uncoded_in_noise(self):
        with repro.pipeline(128, CODED_OFDM_CHAIN, scheme="qpsk",
                            code="conv-k7", code_rate="1/2", snr_db=6.0,
                            seed=1) as pipe:
            metrics = pipe.run(symbols=16).metrics
        assert metrics["uncoded_ber"] > 0.0
        assert metrics["coded_ber"] <= metrics["uncoded_ber"]

    def test_from_scenario_coded_preset(self):
        with build_scenario("wimax-ofdm-coded", n_points=64) as pipe:
            metrics = pipe.run(symbols=2).metrics
        assert metrics["code_rate"] == "3/4"
        assert {"coded_ber", "uncoded_ber", "fer"} <= set(metrics)

    def test_from_scenario_rejects_uncoded(self):
        with build_scenario("uwb-ofdm", n_points=64,
                            stages=CODED_OFDM_CHAIN) as pipe:
            with pytest.raises(ValueError, match="coded pipeline"):
                pipe.run(symbols=1)

    def test_needs_a_code(self):
        with repro.pipeline(64, CODED_OFDM_CHAIN, scheme="qpsk") as pipe:
            with pytest.raises(ValueError, match="pass code="):
                pipe.run(symbols=1)


class TestCodedBerSweep:
    def test_sweep_by_scenario(self):
        from repro.analysis import coded_ber_sweep

        curve = coded_ber_sweep((6.0, 12.0), scenario="uwb-ofdm-coded",
                                n_points=64, symbols=4)
        assert set(curve) == {6.0, 12.0}
        for point in curve.values():
            assert set(point) == {"coded_ber", "uncoded_ber", "fer"}
            assert point["coded_ber"] <= point["uncoded_ber"]

    def test_sweep_explicit_geometry(self):
        from repro.analysis import coded_ber_sweep

        curve = coded_ber_sweep((20.0,), n_points=64, scheme="16qam",
                                code_rate="3/4", symbols=2)
        assert curve[20.0]["coded_ber"] == 0.0

    def test_sweep_rejects_uncoded_scenario(self):
        from repro.analysis import coded_ber_sweep

        with pytest.raises(ValueError, match="uncoded"):
            coded_ber_sweep((10.0,), scenario="uwb-ofdm")

    def test_sweep_rejects_scenario_codec_conflicts(self):
        from repro.analysis import coded_ber_sweep

        with pytest.raises(ValueError, match="code_rate"):
            coded_ber_sweep((10.0,), scenario="uwb-ofdm-coded",
                            code_rate="3/4")

    def test_sweep_needs_geometry(self):
        from repro.analysis import coded_ber_sweep

        with pytest.raises(ValueError, match="n_points or scenario"):
            coded_ber_sweep((10.0,))
