"""The unified facade: registry, backend parity, lifecycle.

The load-bearing guarantee: every registered backend, fed identical
vectors through the *same* uniform API, produces bit-identical Q1.15
spectra (overflow counts included) and float spectra within rounding
noise — so callers can swap backends freely.
"""

import warnings

import numpy as np
import pytest

import repro
from repro import BackendSpec, register_backend
from repro.core.registry import backend_specs, get_backend, unregister_backend
from repro.engines import TransformResult, normalize_precision

ALL_BACKENDS = sorted(repro.backend_names())


def random_blocks(symbols, n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (
        rng.standard_normal((symbols, n))
        + 1j * rng.standard_normal((symbols, n))
    )


def assert_machines_equal(a, b):
    """Same machine end state: registers, every SimStats counter, CRF,
    ROM and BU counts."""
    assert a.registers == b.registers
    assert a.stats == b.stats
    assert (a.crf.reads, a.crf.writes) == (b.crf.reads, b.crf.writes)
    assert a.rom.reads == b.rom.reads
    assert a.bu.op_count == b.bu.op_count


def build(n, name, precision="float"):
    workers = 2 if backend_specs()[name].supports_workers else None
    return repro.engine(n, backend=name, precision=precision,
                        workers=workers)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert ALL_BACKENDS == [
            "asip", "asip-batch", "compiled", "reference", "sharded"
        ]

    def test_unknown_backend_lists_menu(self):
        with pytest.raises(ValueError, match="compiled"):
            repro.engine(64, backend="quantum")

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            repro.engine(64, precision="q7")

    def test_precision_aliases(self):
        assert normalize_precision("fixed") == "q15"
        assert normalize_precision(True) == "q15"
        assert normalize_precision(None) == "float"
        assert normalize_precision("FLOAT") == "float"

    def test_workers_rejected_on_serial_backends(self):
        for name in ("compiled", "reference", "asip", "asip-batch"):
            with pytest.raises(ValueError, match="workers"):
                repro.engine(64, backend=name, workers=2)

    def test_duplicate_registration_is_loud(self):
        spec = get_backend("compiled")
        with pytest.raises(ValueError, match="already registered"):
            register_backend(spec)

    def test_custom_backend_plugs_in(self):
        class NumpyBackend:
            machine = None
            sim_stats = None
            fx = None

            def __init__(self, n):
                self.n = n

            def transform_many(self, blocks):
                return np.fft.fft(blocks, axis=1), [0] * len(blocks)

            def close(self):
                pass

        register_backend(BackendSpec(
            name="numpy-test",
            factory=lambda n, fixed_point, workers, batch: NumpyBackend(n),
            description="plain numpy (test double)",
            precisions=("float",),
        ))
        try:
            assert "numpy-test" in repro.backend_names()
            x = random_blocks(1, 32, seed=1)[0]
            with repro.engine(32, backend="numpy-test") as eng:
                result = eng.transform(x)
            assert np.allclose(result.spectrum, np.fft.fft(x))
            assert result.backend == "numpy-test"
            # declared float-only: q15 must be refused up front
            with pytest.raises(ValueError, match="q15"):
                repro.engine(32, backend="numpy-test", precision="q15")
        finally:
            unregister_backend("numpy-test")


class TestBackendParity:
    @pytest.mark.parametrize("n", [16, 64])
    def test_q15_bit_identical_across_backends(self, n):
        blocks = random_blocks(6, n, seed=n, scale=0.3)
        reference = None
        for name in ALL_BACKENDS:
            with build(n, name, precision="q15") as eng:
                result = eng.transform_many(blocks)
            assert result.precision == "q15"
            if reference is None:
                reference = result
            else:
                assert np.array_equal(
                    result.spectrum, reference.spectrum
                ), name
                assert (result.overflow_count
                        == reference.overflow_count), name

    def test_q15_overflow_counts_identical_when_saturating(self):
        n = 64
        blocks = random_blocks(8, n, seed=7, scale=0.9)
        reference = None
        for name in ALL_BACKENDS:
            with build(n, name, precision="q15") as eng:
                # Per-stage scaling off: the butterflies saturate.  The
                # 8-symbol batch stays below the sharded engine's
                # parallel threshold, so its serial (patched) fx runs.
                eng.fx.scale_stages = False
                result = eng.transform_many(blocks)
            assert result.overflow_count > 0, name
            if reference is None:
                reference = result
            else:
                assert np.array_equal(
                    result.spectrum, reference.spectrum
                ), name
                assert (result.overflow_count
                        == reference.overflow_count), name

    @pytest.mark.parametrize("n", [16, 64])
    def test_float_agreement_across_backends(self, n):
        blocks = random_blocks(6, n, seed=n)
        reference = None
        for name in ALL_BACKENDS:
            with build(n, name) as eng:
                result = eng.transform_many(blocks)
            if reference is None:
                reference = result.spectrum
                assert np.allclose(
                    reference, np.fft.fft(blocks, axis=1), atol=1e-8
                )
            else:
                assert np.allclose(
                    result.spectrum, reference, atol=1e-9
                ), name

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_inverse_roundtrip(self, name):
        n = 32
        x = random_blocks(1, n, seed=5)[0]
        with build(n, name) as eng:
            spectrum = eng.transform(x).spectrum
            back = eng.inverse(spectrum).spectrum
        assert np.allclose(back, x, atol=1e-8)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_stream_equals_batch(self, name):
        n, symbols = 32, 10
        blocks = random_blocks(symbols, n, seed=3)
        with build(n, name) as eng:
            streamed = eng.stream(iter(blocks), batch=4, verify=True)
        with build(n, name) as eng:
            batched = eng.transform_many(blocks)
        assert np.allclose(streamed.spectrum, batched.spectrum, atol=1e-12)
        assert streamed.cycles == batched.cycles

    def test_asip_and_batch_cycles_agree(self):
        n, symbols = 64, 5
        blocks = random_blocks(symbols, n, seed=9)
        with repro.engine(n, backend="asip", batch=1) as serial:
            serial_result = serial.transform_many(blocks)
        with repro.engine(n, backend="asip-batch") as batched:
            batched_result = batched.transform_many(blocks)
        assert serial_result.cycles == batched_result.cycles
        assert all(c > 0 for c in serial_result.cycles)
        assert (serial_result.stats.as_dict()
                == batched_result.stats.as_dict())
        assert_machines_equal(serial.machine, batched.machine)

    @pytest.mark.parametrize("precision", ["float", "q15"])
    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_asip_default_batch_equals_batch_one(self, n, precision):
        """``asip`` at its default batch is ``asip`` at ``batch=1``, call
        for call: two calls record a pass (power-on, then steady entry
        state), the later ones replay it at 2, 5 and 64 symbols."""
        blocks = random_blocks(64, n, seed=n, scale=0.3)
        with repro.engine(n, backend="asip", precision=precision) as fast, \
                repro.engine(n, backend="asip", precision=precision,
                             batch=1) as serial:
            for symbols in (2, 2, 2, 5, 64):
                a = fast.transform_many(blocks[:symbols])
                b = serial.transform_many(blocks[:symbols])
                assert np.array_equal(a.spectrum, b.spectrum)
                assert a.cycles == b.cycles
                assert a.stats == b.stats
                assert a.overflow_count == b.overflow_count
            assert_machines_equal(fast.machine, serial.machine)


class TestUniformResults:
    def test_result_shape_single_vs_batch(self):
        x = random_blocks(1, 32, seed=2)[0]
        with repro.engine(32) as eng:
            single = eng.transform(x)
            batch = eng.transform_many(x[None, :])
        assert single.spectrum.shape == (32,)
        assert single.n_symbols == 1
        assert batch.spectrum.shape == (1, 32)
        assert single.cycles == [0]
        assert single.stats is None
        assert np.array_equal(np.asarray(single), single.spectrum)

    def test_emitted_fields_match_registry_declaration(self):
        x = random_blocks(1, 32, seed=4)[0]
        for name, spec in backend_specs().items():
            with build(32, name) as eng:
                result = eng.transform(x)
            if spec.emits_sim_stats:
                assert result.stats is not None
                assert result.stats.cycles == result.total_cycles > 0
            else:
                assert result.stats is None
                assert result.total_cycles == 0

    def test_stats_are_per_call_deltas(self):
        x = random_blocks(1, 32, seed=6)[0]
        with repro.engine(32, backend="asip") as eng:
            first = eng.transform(x)
            second = eng.transform(x)
        # One persistent machine: cumulative stats advance, but each
        # result carries only its own run.  (The data cache stays warm
        # across calls, so only the hit/miss split may shift.)
        for counter in ("cycles", "instructions", "loads", "stores"):
            assert (getattr(first.stats, counter)
                    == getattr(second.stats, counter))
        assert (first.stats.dcache_accesses
                == second.stats.dcache_accesses)
        assert eng.stats.cycles == first.stats.cycles * 2

    def test_q15_result_flags(self):
        x = random_blocks(1, 16, seed=8, scale=0.2)[0]
        with repro.engine(16, precision="fixed") as eng:
            result = eng.transform(x)
        assert result.precision == "q15"
        assert result.fixed_point
        assert eng.fixed_point

    @pytest.mark.parametrize("precision", ["float", "q15"])
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_empty_batch_has_one_answer(self, name, precision):
        with build(64, name, precision) as eng:
            for call in (eng.transform_many, eng.inverse_many):
                result = call(np.zeros((0, 64)))
                assert result.spectrum.shape == (0, 64)
                assert result.spectrum.dtype == complex
                assert result.n_symbols == 0
                assert result.cycles == []
                assert result.overflow_count == 0
                if result.stats is not None:
                    assert result.stats.cycles == 0
                    assert result.stats.instructions == 0


class TestNonFiniteInput:
    """NaN and infinity have no Q1.15 value: every Q1.15 backend refuses
    them the same way, before any of its state moves."""

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(0, -np.inf)],
        ids=["nan", "inf", "-inf-j"],
    )
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_q15_rejects_non_finite_input(self, name, bad):
        n = 64
        good = random_blocks(64, n, seed=9, scale=0.2)
        blocks = good.copy()
        blocks[40, 7] = bad
        with build(n, name, "q15") as eng, warnings.catch_warnings():
            warnings.simplefilter("error")
            eng.transform_many(good)  # warm: records and pools exist
            stats = eng.stats.as_dict() if eng.stats is not None else None
            overflows = eng.fx.overflow_count
            with pytest.raises(ValueError, match="non-finite"):
                eng.transform_many(blocks)
            with pytest.raises(ValueError, match="non-finite"):
                eng.transform(blocks[40])
            assert eng.fx.overflow_count == overflows
            if stats is not None:
                assert eng.stats.as_dict() == stats
            assert not eng.degraded
            again = eng.transform_many(good)
        with build(n, "reference", "q15") as oracle:
            want = oracle.transform_many(good)
        assert np.array_equal(again.spectrum, want.spectrum)
        assert again.overflow_count == want.overflow_count

    def test_float_passes_non_finite_through(self):
        blocks = random_blocks(2, 16, seed=10)
        blocks[1, 3] = np.nan
        with repro.engine(16) as eng:
            out = eng.transform_many(blocks).spectrum
        assert np.isfinite(out[0]).all()
        assert np.isnan(out[1]).all()


class TestLifecycle:
    def test_context_manager_closes_pool(self):
        with repro.engine(64, backend="sharded", workers=2) as eng:
            eng.transform_many(random_blocks(4, 64))
            impl = eng.impl
        assert impl.sharded._pool is None

    def test_closed_engine_refuses_work(self):
        eng = repro.engine(32)
        eng.close()
        eng.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            eng.transform(np.zeros(32))
        with pytest.raises(RuntimeError, match="closed"):
            eng.stream(np.zeros((2, 32)))

    def test_closed_sharded_engine_never_respawns_pool(self):
        eng = repro.engine(64, backend="sharded", workers=2)
        eng.close()
        with pytest.raises(RuntimeError, match="closed"):
            eng.stream(random_blocks(4, 64))
        assert eng.impl.sharded._pool is None

    def test_validation(self):
        with repro.engine(32) as eng:
            with pytest.raises(ValueError):
                eng.transform(np.zeros(16))
            with pytest.raises(ValueError):
                eng.transform_many(np.zeros((2, 16)))


class TestOfdmLinkOnFacade:
    """The OFDM link (a pipeline) over the facade's backends."""

    def test_backend_selection_rules(self):
        with repro.pipeline(64) as pipe:
            assert pipe.engine.backend == "compiled"
        with repro.pipeline(64, workers=2) as pipe:
            assert pipe.engine.backend == "sharded"
        for backend in ("asip", "asip-batch"):
            with repro.pipeline(64, backend=backend) as pipe:
                assert pipe.engine.backend == backend
            with pytest.raises(ValueError, match="does not take workers"):
                repro.pipeline(64, backend=backend, workers=2)

    def test_asip_burst_runs_one_persistent_machine(self):
        with repro.pipeline(64, snr_db=35.0, backend="asip-batch",
                            seed=2) as pipe:
            machine = pipe.engine.machine
            first = pipe.run(symbols=6)
            again = pipe.run(symbols=6, seed=3)
            assert pipe.engine.machine is machine  # no per-run rebuild
        cycles = first.transform.cycles + again.transform.cycles
        assert len(set(cycles)) == 1 and cycles[0] > 0
        assert first.metrics["bit_errors"] == 0
        assert again.metrics["bit_errors"] == 0

    def test_asip_batch_matches_serial_asip_link(self):
        with repro.pipeline(64, snr_db=30.0, backend="asip", batch=1,
                            seed=3) as serial, \
                repro.pipeline(64, snr_db=30.0, backend="asip-batch",
                               seed=3) as batched:
            a = serial.run(symbols=4)
            b = batched.run(symbols=4)
            assert_machines_equal(serial.engine.machine,
                                  batched.engine.machine)
        assert np.array_equal(a.tx_bits, b.tx_bits)
        assert np.allclose(a.equalised, b.equalised, atol=1e-12)
        assert a.transform.cycles == b.transform.cycles

    def test_measure_ber_sweep_shards_and_matches_serial(self):
        from repro.analysis import ber_sweep

        # 64 symbols per point: a burst big enough for the pool to shard.
        snrs = [30.0, 4.0, 12.0]
        want = ber_sweep(32, snrs, symbols=64, scheme="16qam", seed=5)
        got = ber_sweep(32, snrs, symbols=64, scheme="16qam", seed=5,
                        workers=2)
        assert got == want
        assert list(got) == snrs
        assert got[4.0] >= got[30.0]

    def test_ber_sweep_helper(self):
        from repro.analysis import ber_sweep

        sweep = ber_sweep(32, [6.0, 30.0], symbols=4, scheme="16qam",
                          seed=1)
        assert set(sweep) == {6.0, 30.0}
        assert sweep[6.0] >= sweep[30.0]


class TestTransformResultType:
    def test_is_dataclass_with_uniform_fields(self):
        x = random_blocks(1, 16, seed=0)[0]
        with repro.engine(16) as eng:
            result = eng.transform(x)
        assert isinstance(result, TransformResult)
        assert result.backend == "compiled"
        assert result.n_points == 16
        assert result.total_cycles == 0
        assert result.overflow_count == 0
