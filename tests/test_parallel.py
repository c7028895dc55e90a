"""Sharded parallel batch engine: bit-identity, fallback and self-healing."""

import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import ArrayFFT, CircuitBreaker, ShardedEngine
from repro.core.parallel import available_workers
from repro.ofdm import MultipathChannel
from repro.pipelines import pipeline


def refuse_thread_start(monkeypatch):
    """Make every ``Thread.start`` fail the way an exhausted host does."""

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)


def random_blocks(symbols, n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (
        rng.standard_normal((symbols, n))
        + 1j * rng.standard_normal((symbols, n))
    )


class TestShardedEngine:
    def test_float_bit_identical_to_serial(self):
        n, symbols = 128, 48
        blocks = random_blocks(symbols, n, seed=1)
        want = ArrayFFT(n).transform_many(blocks)
        with ShardedEngine(n, workers=2, min_parallel_symbols=8) as engine:
            got = engine.transform_many(blocks)
        assert np.array_equal(got, want)

    def test_fixed_bit_identical_with_overflow_accounting(self):
        n, symbols = 64, 32
        blocks = random_blocks(symbols, n, seed=2, scale=0.9)
        serial = ArrayFFT(n, fixed_point=True)
        serial.fx.scale_stages = True
        want = serial.transform_many(blocks)
        with ShardedEngine(n, fixed_point=True, workers=2,
                           min_parallel_symbols=8) as engine:
            got = engine.transform_many(blocks)
            assert engine.engine.fx.overflow_count == serial.fx.overflow_count
        assert np.array_equal(got, want)

    def test_more_threads_than_cpus_keep_their_own_accounting(self):
        # Overlapping shards on per-thread engines: a shared engine would
        # mix the threads' overflow deltas and miscount the total.
        n, symbols = 256, 96
        blocks = random_blocks(symbols, n, seed=10, scale=0.9)
        serial = ArrayFFT(n, fixed_point=True)
        with ShardedEngine(n, fixed_point=True,
                           workers=available_workers() + 2,
                           min_parallel_symbols=8) as engine:
            for _ in range(3):
                got = engine.transform_many(blocks)
                assert np.array_equal(got, serial.transform_many(blocks))
            assert not engine.degraded
            assert serial.fx.overflow_count > 0
            assert engine.engine.fx.overflow_count == serial.fx.overflow_count
            assert engine.engine.bu.op_count == serial.bu.op_count

    def test_inverse_many_roundtrip(self):
        n = 64
        blocks = random_blocks(20, n, seed=3)
        with ShardedEngine(n, workers=2, min_parallel_symbols=8) as engine:
            spectra = engine.transform_many(blocks)
            back = engine.inverse_many(spectra)
        assert np.allclose(back, blocks, atol=1e-9)

    def test_small_batch_stays_serial(self):
        n = 64
        engine = ShardedEngine(n, workers=2)  # default threshold 64
        blocks = random_blocks(8, n, seed=4)
        got = engine.transform_many(blocks)
        assert engine._pool is None  # pool never built
        assert np.array_equal(got, ArrayFFT(n).transform_many(blocks))
        engine.close()

    def test_single_worker_never_pools(self):
        n = 64
        engine = ShardedEngine(n, workers=1, min_parallel_symbols=1)
        got = engine.transform_many(random_blocks(16, n, seed=5))
        assert engine._pool is None
        engine.close()

    def test_broken_pool_falls_back_serial(self, monkeypatch):
        n, symbols = 64, 32
        blocks = random_blocks(symbols, n, seed=6)
        engine = ShardedEngine(n, workers=2, min_parallel_symbols=8)
        refuse_thread_start(monkeypatch)
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = engine.transform_many(blocks)
        assert engine.degraded
        assert "can't start new thread" in engine.degraded_reason
        assert np.array_equal(got, ArrayFFT(n).transform_many(blocks))
        # And it stays serial (no retry storm) while still being correct.
        again = engine.transform_many(blocks)
        assert np.array_equal(again, got)
        engine.close()

    def test_mid_flight_pool_failure_falls_back(self):
        n, symbols = 64, 32
        blocks = random_blocks(symbols, n, seed=7)
        engine = ShardedEngine(n, workers=2, min_parallel_symbols=8)

        class ExplodingPool:
            def map(self, *args, **kwargs):
                raise RuntimeError("worker died")

            def shutdown(self, **kwargs):
                pass

        engine._pool = ExplodingPool()
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = engine.transform_many(blocks)
        assert engine.degraded
        assert np.array_equal(got, ArrayFFT(n).transform_many(blocks))
        engine.close()

    def test_shut_down_executor_falls_back(self):
        n, symbols = 64, 32
        blocks = random_blocks(symbols, n, seed=9)
        engine = ShardedEngine(n, workers=2, min_parallel_symbols=8)
        engine._pool = ThreadPoolExecutor(max_workers=2)
        engine._pool.shutdown()
        with pytest.warns(RuntimeWarning, match="after shutdown"):
            got = engine.transform_many(blocks)
        assert engine.degraded and engine._pool is None
        assert np.array_equal(got, ArrayFFT(n).transform_many(blocks))
        engine.close()

    def test_degradation_warns_exactly_once(self):
        n, symbols = 64, 16
        blocks = random_blocks(symbols, n, seed=16)
        engine = ShardedEngine(n, workers=2, min_parallel_symbols=8)
        engine.breaker.reset()
        with pytest.warns(RuntimeWarning, match="first failure"):
            engine._mark_broken("first failure")  # the single warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            engine._mark_broken("second failure")
            got = engine.transform_many(blocks)
        assert engine.degraded_reason == "first failure"
        assert np.array_equal(got, ArrayFFT(n).transform_many(blocks))
        engine.close()

    def test_shape_validated(self):
        engine = ShardedEngine(64, workers=1)
        with pytest.raises(ValueError):
            engine.transform_many(np.zeros((2, 32), dtype=complex))
        with pytest.raises(ValueError):
            engine.transform_many(np.zeros(64, dtype=complex))
        engine.close()

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestCircuitBreaker:
    """The three-state protocol on an injected clock (no real sleeps)."""

    def make(self, **kwargs):
        self.now = 0.0
        kwargs.setdefault("clock", lambda: self.now)
        return CircuitBreaker(**kwargs)

    def test_starts_closed_and_allows(self):
        breaker = self.make()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow_attempt()
        assert breaker.failures == 0

    def test_failure_opens_and_refuses_inside_backoff(self):
        breaker = self.make(backoff_initial=1.0)
        assert breaker.record_failure("boom")  # fresh episode
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow_attempt()
        self.now = 0.5
        assert not breaker.allow_attempt()

    def test_half_open_admits_exactly_one_probe(self):
        breaker = self.make(backoff_initial=1.0)
        breaker.record_failure("boom")
        self.now = 1.0
        assert breaker.allow_attempt()  # the single probe slot
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow_attempt()  # second caller refused

    def test_successful_probe_closes_and_counts_recovery(self):
        breaker = self.make(backoff_initial=1.0)
        breaker.record_failure("boom")
        self.now = 1.0
        assert breaker.allow_attempt()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failures == 0
        assert breaker.opened_count == 1
        assert breaker.recovered_count == 1
        assert breaker.allow_attempt()

    def test_failed_probe_reopens_silently_with_doubled_backoff(self):
        breaker = self.make(backoff_initial=1.0, backoff_max=16.0)
        assert breaker.record_failure("first")    # fresh -> warn moment
        self.now = 1.0
        assert breaker.allow_attempt()
        assert not breaker.record_failure("again")  # not fresh: no warning
        # Second failure doubles the backoff: retry at now + 2.0.
        self.now = 2.5
        assert not breaker.allow_attempt()
        self.now = 3.0
        assert breaker.allow_attempt()

    def test_backoff_is_capped(self):
        breaker = self.make(backoff_initial=1.0, backoff_max=4.0)
        for _ in range(10):
            breaker.record_failure("boom")
        assert breaker.snapshot()["retry_in_s"] <= 4.0

    def test_snapshot_fields(self):
        breaker = self.make(backoff_initial=1.0)
        breaker.record_failure("boom")
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["failures"] == 1
        assert snap["opened"] == 1
        assert snap["recovered"] == 0
        assert snap["last_failure"] == "boom"
        assert snap["retry_in_s"] == pytest.approx(1.0)

    def test_force_open_and_reset(self):
        breaker = self.make()
        breaker.force_open("admin")
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_count == 1
        breaker.reset()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow_attempt()


class TestPoolSelfHealing:
    """The sharded engine's breaker restores parallel execution."""

    def test_probe_restores_parallel_after_backoff(self):
        n, symbols = 64, 32
        blocks = random_blocks(symbols, n, seed=30)
        want = ArrayFFT(n).transform_many(blocks)
        engine = ShardedEngine(n, workers=2, min_parallel_symbols=8,
                               breaker_backoff_initial=0.05)

        class ExplodingPool:
            def map(self, *args, **kwargs):
                raise RuntimeError("worker died")

            def shutdown(self, **kwargs):
                pass

        engine._pool = ExplodingPool()
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                got = engine.transform_many(blocks)
            assert np.array_equal(got, want)
            assert engine.degraded and engine._pool is None
            # Inside the backoff window: serial, no pool build, no warning.
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                again = engine.transform_many(blocks)
            assert np.array_equal(again, want)
            assert engine._pool is None
            # Past the backoff: one batch probes a *fresh* pool and the
            # breaker closes — parallel execution is back, bit-identical.
            time.sleep(0.06)
            healed = engine.transform_many(blocks)
            assert np.array_equal(healed, want)
            assert not engine.degraded
            assert engine._pool is not None
            assert engine.breaker.state == CircuitBreaker.CLOSED
            assert engine.breaker.opened_count == 1
            assert engine.breaker.recovered_count == 1
            # The first episode's reason survives for diagnostics.
            assert "worker died" in engine.degraded_reason
        finally:
            engine.close()

    def test_failed_probe_reopens_without_second_warning(self, monkeypatch):
        n, symbols = 64, 24
        blocks = random_blocks(symbols, n, seed=31)
        want = ArrayFFT(n).transform_many(blocks)
        engine = ShardedEngine(n, workers=2, min_parallel_symbols=8,
                               breaker_backoff_initial=0.05)
        refuse_thread_start(monkeypatch)
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = engine.transform_many(blocks)
        assert np.array_equal(got, want)
        time.sleep(0.06)
        # The probe's thread start fails again: silent re-open, serial
        # result.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = engine.transform_many(blocks)
        assert np.array_equal(again, want)
        assert engine.degraded
        assert engine.breaker.failures == 2
        engine.close()

    def test_shard_raising_in_worker_thread_then_probe_recovers(
            self, monkeypatch):
        n, symbols = 64, 32
        blocks = random_blocks(symbols, n, seed=32)
        want = ArrayFFT(n).transform_many(blocks)
        real_transform_many = ArrayFFT.transform_many

        def explode_off_main_thread(fft, shard):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("shard exploded")
            return real_transform_many(fft, shard)

        engine = ShardedEngine(n, workers=2, min_parallel_symbols=8,
                               breaker_backoff_initial=0.05)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(ArrayFFT, "transform_many",
                              explode_off_main_thread)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = engine.transform_many(blocks)
            assert [w.category for w in caught] == [RuntimeWarning]
            assert "shard exploded" in str(caught[0].message)
            assert engine.degraded
            assert np.array_equal(got, want)
            time.sleep(0.06)
            healed = engine.transform_many(blocks)
            assert np.array_equal(healed, want)
            assert not engine.degraded
            assert engine.breaker.recovered_count == 1
        finally:
            engine.close()


class TestDegradedMarker:
    """A broken pool marks every later facade result ``degraded=True``."""

    def test_marker_flows_through_facade_results(self):
        import repro
        from repro.verify import pool_failure

        blocks = random_blocks(80, 64, seed=18)  # above the facade floor
        with repro.engine(64, backend="sharded", workers=2) as eng:
            with pool_failure(eng.impl.sharded):
                with pytest.warns(RuntimeWarning, match="falling back"):
                    broken = eng.transform_many(blocks)
            assert broken.degraded
            assert eng.impl.degraded
            # Still numerically correct — the fallback ran serially.
            assert np.array_equal(
                broken.spectrum, ArrayFFT(64).transform_many(blocks)
            )
            # Inside the breaker's backoff window the engine stays
            # degraded; later results keep carrying the marker.
            later = eng.transform_many(blocks[:4])
            assert later.degraded

    def test_healthy_results_are_not_degraded(self):
        import repro

        with repro.engine(64, backend="compiled") as eng:
            result = eng.transform_many(random_blocks(4, 64, seed=19))
        assert result.degraded is False

    def test_concat_results_ors_the_marker(self):
        import dataclasses

        import repro

        with repro.engine(16) as eng:
            a = eng.transform_many(random_blocks(2, 16, seed=20))
            b = eng.transform_many(random_blocks(2, 16, seed=21))
        merged = repro.concat_results(
            [a, dataclasses.replace(b, degraded=True)], engine=eng
        )
        assert merged.degraded
        clean = repro.concat_results([a, b], engine=eng)
        assert clean.degraded is False


class TestLinkWorkers:
    """The OFDM link (a pipeline) with ``workers=2``: sharded backend."""

    def test_run_symbols_identical_with_and_without_pool(self):
        channel = MultipathChannel.exponential_profile(
            3, rng=np.random.default_rng(20)
        )
        plain = pipeline(64, scheme="qpsk", snr_db=35.0, seed=21,
                         channel=channel)
        with pipeline(64, scheme="qpsk", snr_db=35.0, seed=21,
                      channel=channel, workers=2,
                      min_parallel_symbols=2) as pooled:
            a, b = plain.run(symbols=6), pooled.run(symbols=6)
            assert pooled.engine.backend == "sharded"
        assert np.array_equal(a.tx_bits, b.tx_bits)
        assert np.array_equal(a.rx_bits, b.rx_bits)
        assert np.array_equal(a.equalised, b.equalised)
        plain.close()  # no pool: must be a no-op

    def test_measure_ber_clean_channel(self):
        with pipeline(64, scheme="qpsk", snr_db=40.0, seed=22,
                      workers=2) as pipe:
            assert pipe.run(symbols=4).ber == 0.0
