"""The composable pipeline API: stage registry, graphs, parity."""

import numpy as np
import pytest

import repro
from repro.core import ArrayFFT
from repro.ofdm import MultipathChannel, OfdmLink
from repro.pipelines import (
    DEFAULT_OFDM_CHAIN,
    SPECTRUM_CHAIN,
    Pipeline,
    PipelineGraphError,
    Stage,
    StageSpec,
    build_stage,
    get_stage,
    pipeline,
    register_stage,
    stage_names,
    stage_specs,
    unregister_stage,
)

PARITY_BACKENDS = ("compiled", "asip-batch", "sharded")


def _channel():
    return MultipathChannel.exponential_profile(
        n_taps=3, decay=0.4, rng=np.random.default_rng(2)
    )


class TestStageRegistry:
    def test_builtins_registered(self):
        names = stage_names()
        for name in DEFAULT_OFDM_CHAIN:
            assert name in names
        assert "block-source" in names

    def test_unknown_stage_lists_menu(self):
        with pytest.raises(KeyError, match="transform"):
            get_stage("nope")
        with pytest.raises(ValueError, match="registered stages"):
            get_stage("nope")

    def test_duplicate_registration_is_loud(self):
        spec = stage_specs()["transform"]
        with pytest.raises(ValueError, match="already registered"):
            register_stage(spec)
        register_stage(spec, replace=True)  # explicit replace is fine

    def test_register_and_unregister_custom(self):
        class Doubler(Stage):
            def run(self, ctx, data):
                return data * 2

        register_stage(StageSpec(name="doubler", factory=Doubler,
                                 consumes="any", produces="same"))
        try:
            stage = build_stage("doubler")
            assert stage.name == "doubler"
            assert stage.consumes == "any"
        finally:
            unregister_stage("doubler")
        with pytest.raises(KeyError):
            get_stage("doubler")

    def test_bad_kind_declaration(self):
        with pytest.raises(ValueError, match="unknown consumes"):
            register_stage(StageSpec(name="bad", factory=object,
                                     consumes="frequencies"))


class TestGraphValidation:
    def test_incompatible_chain_fails_at_build(self):
        with pytest.raises(PipelineGraphError, match="consumes"):
            pipeline(16, ["source", "transform"])  # bits into an FFT

    def test_unknown_stage_name_in_chain(self):
        with pytest.raises(KeyError, match="registered stages"):
            pipeline(16, ["source", "wat"])

    def test_empty_chain(self):
        with pytest.raises(PipelineGraphError, match="at least one"):
            pipeline(16, [])

    def test_entry_kind_enforced_at_run(self):
        pipe = pipeline(16, ["modulate", "ifft", "transform", "metrics"])
        with pytest.raises(ValueError, match="pass data="):
            pipe.run(symbols=2)

    def test_bad_entry_type(self):
        with pytest.raises(PipelineGraphError, match="not a registered"):
            pipeline(16, [42])


class TestPipelineRun:
    def test_default_chain_result_shape(self):
        with pipeline(32, snr_db=30.0, seed=1) as pipe:
            result = pipe.run(symbols=3)
        assert result.symbols == 3
        assert result.spectrum.shape == (3, 32)
        assert result.tx_bits.shape == result.rx_bits.shape
        assert list(result.stage_outputs) == list(DEFAULT_OFDM_CHAIN)
        assert result.transform.backend == "compiled"
        assert 0.0 <= result.ber <= 1.0
        assert result.metrics["total_bits"] == 3 * 32 * 2  # qpsk
        assert result.evm_percent >= 0.0

    def test_runs_reproduce_bit_for_bit(self):
        with pipeline(16, snr_db=20.0, seed=7) as pipe:
            a = pipe.run(symbols=2)
            b = pipe.run(symbols=2)
            c = pipe.run(symbols=2, seed=8)
        assert np.array_equal(a.spectrum, b.spectrum)
        assert np.array_equal(a.tx_bits, b.tx_bits)
        assert not np.array_equal(a.tx_bits, c.tx_bits)

    def test_explicit_data_injection(self):
        with pipeline(16, ["block-source", "transform", "metrics"]) as pipe:
            rng = np.random.default_rng(0)
            blocks = rng.standard_normal((4, 16)) \
                + 1j * rng.standard_normal((4, 16))
            result = pipe.run(data=blocks)
        assert np.allclose(result.spectrum, np.fft.fft(blocks, axis=1),
                           atol=1e-8)

    @pytest.mark.parametrize("name,payload", [
        ("uwb-ofdm", 128),        # QPSK, 64 carriers
        ("uwb-ofdm-coded", 58),   # r1/2 K=7 block: 64 steps, 6 tail bits
    ], ids=["uwb-ofdm", "uwb-ofdm-coded"])
    def test_non_binary_payload_is_loud(self, name, payload):
        with repro.build_scenario(name, n_points=64) as pipe:
            bits = np.zeros((2, payload), dtype=int)
            bits[1, 7] = 2
            bits[0, 3] = -1
            with pytest.raises(ValueError, match="0 or 1"):
                pipe.run(data=bits)

    def test_result_array_protocol(self):
        with pipeline(16, SPECTRUM_CHAIN, seed=0) as pipe:
            result = pipe.run(symbols=2)
        assert np.asarray(result).shape == (2, 16)

    def test_closed_pipeline_refuses_work(self):
        pipe = pipeline(16)
        pipe.run(symbols=1)
        pipe.close()
        pipe.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pipe.run(symbols=1)

    def test_describe_names_chain_and_backend(self):
        pipe = pipeline(64, backend="asip-batch", name="demo")
        text = pipe.describe()
        assert "demo" in text
        assert "source -> modulate" in text
        assert "backend=asip-batch" in text

    def test_workers_defaults_to_sharded(self):
        pipe = pipeline(16, workers=2)
        assert pipe.backend == "sharded"

    def test_unknown_scheme_is_loud(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            pipeline(16, scheme="513qam")


class TestStageSwapping:
    def test_with_stage_by_name(self):
        class NullEqualizer(Stage):
            consumes = "spectrum"
            produces = "spectrum"

            def run(self, ctx, data):
                ctx.equalised = data / ctx.n_points
                return ctx.equalised

        base = pipeline(16, snr_db=40.0, seed=3)
        swapped = base.with_stage("equalize", NullEqualizer())
        assert "nullequalizer" in swapped.stage_names
        assert "equalize" in base.stage_names  # original untouched
        with base, swapped:
            a = base.run(symbols=2)
            b = swapped.run(symbols=2)
        # No channel on this pipeline, so the null equaliser only skips
        # the frequency-response division: same scale, same result.
        assert np.array_equal(a.equalised, b.equalised)

    def test_with_stage_unknown_target(self):
        with pytest.raises(PipelineGraphError, match="no stage named"):
            pipeline(16).with_stage("resample", "transform")

    def test_with_stage_index_out_of_range(self):
        with pytest.raises(PipelineGraphError, match="out of range"):
            pipeline(16).with_stage(99, "transform")

    def test_with_options_swaps_backend(self):
        base = pipeline(16, snr_db=25.0, seed=11)
        other = base.with_options(backend="reference")
        with base, other:
            a = base.run(symbols=2)
            b = other.run(symbols=2)
        assert a.transform.backend == "compiled"
        assert b.transform.backend == "reference"
        assert np.allclose(a.spectrum, b.spectrum, atol=1e-9)


class TestOfdmLinkParity:
    """Pipeline runs are bit-identical to the hand-wired OfdmLink."""

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    def test_multipath_link_parity(self, backend):
        channel = _channel()
        with pipeline(64, scheme="16qam", channel=channel, snr_db=25.0,
                      backend=backend, seed=5) as pipe:
            result = pipe.run(symbols=4)
        with OfdmLink(64, scheme="16qam", channel=_channel(),
                      snr_db=25.0, seed=5, backend=backend) as link:
            link_results = link.run_symbols(4)
        assert np.array_equal(
            result.equalised,
            np.stack([r.equalised for r in link_results]),
        )
        assert np.array_equal(
            result.rx_bits, np.stack([r.rx_bits for r in link_results])
        )
        link_errors = sum(r.bit_errors for r in link_results)
        assert result.metrics["bit_errors"] == link_errors
        assert result.ber == link_errors / result.metrics["total_bits"]
        if backend == "asip-batch":
            assert result.transform.cycles == [
                r.fft_cycles for r in link_results
            ]

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    def test_awgn_link_parity(self, backend):
        with pipeline(32, scheme="qpsk", snr_db=15.0, backend=backend,
                      seed=9) as pipe:
            result = pipe.run(symbols=6)
        with OfdmLink(32, scheme="qpsk", snr_db=15.0, seed=9,
                      backend=backend) as link:
            link_results = link.run_symbols(6)
        assert np.array_equal(
            result.rx_bits, np.stack([r.rx_bits for r in link_results])
        )
        assert result.metrics["bit_errors"] == sum(
            r.bit_errors for r in link_results
        )


class TestQ15SpectralParity:
    """Q1.15 spectral chains are bit-identical to the hand-wired path."""

    def test_bit_identical_across_backends(self):
        rng = np.random.default_rng(0)
        blocks = 0.6 * (rng.standard_normal((6, 32))
                        + 1j * rng.standard_normal((6, 32)))
        oracle = ArrayFFT(32, fixed_point=True)
        before = oracle.fx.overflow_count
        reference = oracle.transform_many(blocks)
        ref_overflow = oracle.fx.overflow_count - before
        for backend in PARITY_BACKENDS:
            with pipeline(32, SPECTRUM_CHAIN, backend=backend,
                          precision="q15") as pipe:
                result = pipe.run(data=blocks)
            assert np.array_equal(result.spectrum, reference), backend
            assert result.overflow_count == ref_overflow, backend
            assert result.metrics["overflow_count"] == ref_overflow

    def test_source_scale_headroom(self):
        with pipeline(32, SPECTRUM_CHAIN, precision="q15",
                      source_scale=0.25, seed=4) as pipe:
            result = pipe.run(symbols=3)
        scale = np.abs(result.stage_outputs["block-source"]).max()
        assert scale < 1.0
        reference = np.fft.fft(
            result.stage_outputs["block-source"], axis=1
        ) / 32
        assert np.allclose(result.spectrum, reference, atol=0.05)


class TestEngineRegistryErrors:
    def test_unknown_backend_lists_menu(self):
        with pytest.raises(KeyError, match="asip-batch"):
            repro.engine(16, backend="bogus")
        with pytest.raises(ValueError, match="registered backends"):
            repro.engine(16, backend="bogus")

    def test_unknown_backend_via_pipeline(self):
        with pytest.raises(repro.UnknownNameError, match="bogus"):
            pipeline(16, backend="bogus").run(symbols=1)
