"""Streaming sessions: lifecycle, chunking, backpressure, parity."""

import threading
import time

import numpy as np
import pytest

import repro
from repro.sessions import (
    SessionBackpressure,
    SessionClosed,
    SessionExecutionTimeout,
    StreamSession,
    run_with_watchdog,
)


def _blocks(symbols, n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((symbols, n))
                    + 1j * rng.standard_normal((symbols, n)))


class TestLifecycle:
    def test_feed_drain_flush_close(self):
        with repro.session(16, batch=4) as sess:
            assert not sess.closed
            assert sess.feed(_blocks(10, 16)) == 10
            # Two full chunks executed, two symbols still pending.
            assert sess.pending_symbols == 2
            results = sess.drain()
            assert [r.n_symbols for r in results] == [4, 4]
            sess.flush()
            tail = sess.drain()
            assert [r.n_symbols for r in tail] == [2]
            assert sess.symbols_fed == sess.symbols_done == 10
        assert sess.closed

    def test_close_flushes_and_is_idempotent(self):
        sess = repro.session(16, batch=8)
        sess.feed(_blocks(3, 16))
        sess.close()
        sess.close()
        results = sess.drain()  # the tail outlives close
        assert [r.n_symbols for r in results] == [3]

    def test_closed_session_refuses_feed(self):
        sess = repro.session(16)
        sess.close()
        with pytest.raises(SessionClosed):
            sess.feed(_blocks(1, 16))
        with pytest.raises(SessionClosed):
            sess.flush()

    def test_bad_block_shape(self):
        with repro.session(16) as sess:
            with pytest.raises(ValueError, match="16"):
                sess.feed(np.zeros((2, 8), dtype=complex))

    def test_repr_shows_state(self):
        with repro.session(16, batch=2) as sess:
            sess.feed(_blocks(1, 16))
            text = repr(sess)
        assert "open" in text and "pending=1" in text

    def test_results_iterator(self):
        with repro.session(16, batch=2) as sess:
            sess.feed(_blocks(5, 16))
            sess.flush()
            chunks = list(sess.results())
        assert [c.n_symbols for c in chunks] == [2, 2, 1]


class TestChunkSchema:
    def test_chunks_carry_uniform_results(self):
        with repro.session(16, backend="asip-batch", batch=3) as sess:
            sess.feed(_blocks(6, 16))
            results = sess.drain()
        for result in results:
            assert isinstance(result, repro.TransformResult)
            assert result.backend == "asip-batch"
            assert result.n_points == 16
            assert len(result.cycles) == 3
            assert result.stats.cycles == result.total_cycles

    def test_merged_equals_batch_call(self):
        blocks = _blocks(7, 16, seed=3)
        with repro.session(16, batch=2) as sess:
            sess.feed(blocks)
            sess.flush()
            merged = sess.merged()
        with repro.engine(16) as eng:
            reference = eng.transform_many(blocks)
        assert np.array_equal(merged.spectrum, reference.spectrum)
        assert merged.n_symbols == 7

    def test_verify_catches_wrong_chunks(self):
        class Liar:
            fx = None
            sim_stats = None
            machine = None

            def transform_many(self, blocks):
                return np.zeros_like(blocks), [0] * len(blocks)

            def close(self):
                pass

        from repro.core.registry import get_backend
        from repro.engines import Engine

        eng = Engine(get_backend("compiled"), Liar(), 16, "float")
        sess = StreamSession(eng, batch=2, verify=True)
        with pytest.raises(AssertionError, match="symbol 1 is wrong"):
            sess.feed(_blocks(2, 16))

    def test_q15_overflow_accounting_matches_batch(self):
        blocks = _blocks(6, 32, seed=1, scale=0.6)
        with repro.session(32, precision="q15", batch=2) as sess:
            sess.feed(blocks)
            sess.flush()
            merged = sess.merged()
        with repro.engine(32, precision="q15") as eng:
            reference = eng.transform_many(blocks)
        assert np.array_equal(merged.spectrum, reference.spectrum)
        assert merged.overflow_count == reference.overflow_count


class TestBackpressure:
    def test_overrun_raises(self):
        sess = repro.session(16, batch=2, capacity=4)
        sess.feed(_blocks(4, 16))  # 2 executed + drainable, 2... full
        with pytest.raises(SessionBackpressure, match="drain"):
            sess.feed(_blocks(4, 16))
        sess.drain()
        sess.feed(_blocks(2, 16))  # room again after draining
        sess.close()

    def test_wait_times_out(self):
        sess = repro.session(16, batch=2, capacity=2)
        sess.feed(_blocks(2, 16))
        with pytest.raises(SessionBackpressure, match="after waiting"):
            sess.feed(_blocks(1, 16), wait=0.05)
        sess.close()

    def test_threaded_producer_unblocked_by_consumer(self):
        sess = repro.session(16, batch=2, capacity=2)
        fed = []

        def produce():
            for k in range(6):
                sess.feed(_blocks(1, 16, seed=k), wait=5.0)
                fed.append(k)

        producer = threading.Thread(target=produce)
        producer.start()
        drained = 0
        try:
            while drained < 3:
                drained += len(sess.drain())
            producer.join(timeout=5.0)
            assert not producer.is_alive()
            assert fed == list(range(6))
        finally:
            producer.join(timeout=1.0)
            sess.close()

    def test_capacity_floor_is_batch(self):
        sess = repro.session(16, batch=8, capacity=1)
        assert sess.capacity == 8
        sess.close()

    def test_close_wakes_blocked_producer_promptly(self):
        import time

        sess = repro.session(16, batch=2, capacity=2)
        sess.feed(_blocks(2, 16))  # buffer now full
        raised = []

        def produce():
            try:
                sess.feed(_blocks(1, 16), wait=30.0)
            except SessionClosed:
                raised.append(time.perf_counter())

        producer = threading.Thread(target=produce)
        started = time.perf_counter()
        producer.start()
        time.sleep(0.05)
        sess.close()
        producer.join(timeout=5.0)
        assert not producer.is_alive()
        # Woken by close's notify, not by the 30 s timeout expiring.
        assert raised and raised[0] - started < 5.0

    def test_results_wait_streams_across_threads(self):
        sess = repro.session(16, batch=2, capacity=4)

        def produce():
            for k in range(6):
                sess.feed(_blocks(1, 16, seed=k), wait=5.0)
            sess.close()

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            chunks = list(sess.results(wait=5.0))
        finally:
            producer.join(timeout=5.0)
        assert sum(c.n_symbols for c in chunks) == 6


class TestResultsWaitThreaded:
    """results(wait=) under a live producer thread (satellite coverage)."""

    def test_timeout_expiry_mid_stream_stops_cleanly(self):
        sess = repro.session(16, batch=2, capacity=8)
        release = threading.Event()

        def produce():
            sess.feed(_blocks(2, 16, seed=1), wait=5.0)
            release.wait(5.0)  # park: the consumer's wait= must expire
            sess.feed(_blocks(2, 16, seed=2), wait=5.0)
            sess.close()

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            got = []
            started = time.perf_counter()
            for chunk in sess.results(wait=0.15):
                got.append(chunk)
            elapsed = time.perf_counter() - started
            # The first chunk arrived, then the wait expired mid-stream
            # — the iterator returned instead of blocking forever.
            assert sum(c.n_symbols for c in got) == 2
            assert elapsed < 5.0
            release.set()
            producer.join(timeout=5.0)
            # A fresh iterator picks the tail up after close.
            tail = list(sess.results(wait=1.0))
            assert sum(c.n_symbols for c in tail) == 2
        finally:
            release.set()
            producer.join(timeout=1.0)
            sess.close()

    def test_drain_after_close_yields_full_tail(self):
        sess = repro.session(16, batch=2, capacity=16)
        done = threading.Event()

        def produce():
            sess.feed(_blocks(7, 16, seed=3), wait=5.0)
            sess.close()  # flushes the odd symbol
            done.set()

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            assert done.wait(5.0)
            # Everything was executed before the consumer ever drained:
            # the whole stream is the post-close tail.
            chunks = list(sess.results(wait=1.0))
            assert [c.n_symbols for c in chunks] == [2, 2, 2, 1]
            assert list(sess.results(wait=0.05)) == []
        finally:
            producer.join(timeout=5.0)

    def test_consumer_drain_wakes_blocked_producer(self):
        sess = repro.session(16, batch=2, capacity=2)
        sess.feed(_blocks(2, 16, seed=4))  # buffer now full
        woken_at = []

        def produce():
            sess.feed(_blocks(1, 16, seed=5), wait=10.0)
            woken_at.append(time.perf_counter())

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            time.sleep(0.05)  # let the producer park in its wait
            started = time.perf_counter()
            chunks = list(sess.results(wait=1.0))
            assert sum(c.n_symbols for c in chunks) == 2
            producer.join(timeout=5.0)
            assert not producer.is_alive()
            # Woken by the drain's notify, far inside the 10 s budget.
            assert woken_at and woken_at[0] - started < 5.0
        finally:
            producer.join(timeout=1.0)
            sess.close()


class TestBackoffKnobs:
    """Producer waits take no tuning knobs: a blocked producer waits
    once on the session's condition and wakes on the drain's notify."""

    def test_short_backoff_reacts_quickly_to_a_drain(self):
        sess = repro.session(16, batch=2, capacity=2)
        sess.feed(_blocks(2, 16, seed=6))
        fed = threading.Event()

        def produce():
            try:
                sess.feed(_blocks(1, 16, seed=7), wait=True)  # no deadline
                fed.set()
            except SessionClosed:  # only if the drain left it parked
                pass

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            time.sleep(0.05)
            assert not fed.is_set()  # parked: the buffer is full
            sess.drain()
            assert fed.wait(5.0)
        finally:
            sess.close()  # wakes a producer the drain failed to wake
            producer.join(timeout=5.0)
        assert not producer.is_alive()
        assert sess.symbols_fed == 3


class TestWatchdog:
    """run_with_watchdog + the session exec_timeout plumbing."""

    def test_no_timeout_is_a_plain_call(self):
        assert run_with_watchdog(lambda x: x + 1, (41,)) == 42

    def test_fast_call_returns_result(self):
        assert run_with_watchdog(lambda: "ok", timeout=5.0) == "ok"

    def test_exceptions_propagate(self):
        def boom():
            raise ValueError("inner detail")

        with pytest.raises(ValueError, match="inner detail"):
            run_with_watchdog(boom, timeout=5.0)

    def test_stuck_call_raises_structured_timeout(self):
        release = threading.Event()
        started = time.perf_counter()
        with pytest.raises(SessionExecutionTimeout, match="deadline"):
            run_with_watchdog(release.wait, (30.0,), timeout=0.05,
                              description="stuck wait")
        assert time.perf_counter() - started < 5.0
        release.set()  # unpark the abandoned thread

    def test_session_exec_timeout_fires_and_abort_recovers(self):
        class StallingEngine:
            n_points = 16
            backend = "stall"
            precision = "float"
            batch = None

            def __init__(self):
                self.release = threading.Event()

            def transform_many(self, blocks):
                self.release.wait(30.0)
                raise AssertionError("unreachable in this test")

            def close(self):
                pass

        engine = StallingEngine()
        sess = StreamSession(engine, batch=2, exec_timeout=0.05)
        with pytest.raises(SessionExecutionTimeout, match="2 symbols"):
            sess.feed(_blocks(2, 16, seed=8))
        # The engine is poisoned: abort drops pending input without
        # flushing anything more through it.
        dropped = sess.abort()
        assert dropped == 0
        assert sess.closed
        engine.release.set()

    def test_abort_keeps_finished_tail_and_drops_pending(self):
        sess = repro.session(16, batch=2)
        sess.feed(_blocks(3, 16, seed=9))  # one chunk done, one pending
        dropped = sess.abort()
        assert dropped == 1
        assert sess.closed
        tail = sess.drain()
        assert [r.n_symbols for r in tail] == [2]
        with pytest.raises(SessionClosed):
            sess.feed(_blocks(1, 16))
        assert sess.abort() == 0  # idempotent

    def test_abort_wakes_blocked_producer(self):
        sess = repro.session(16, batch=2, capacity=2)
        sess.feed(_blocks(2, 16, seed=10))
        outcome = []

        def produce():
            try:
                sess.feed(_blocks(1, 16, seed=11), wait=30.0)
            except SessionClosed:
                outcome.append("closed")

        producer = threading.Thread(target=produce)
        producer.start()
        time.sleep(0.05)
        started = time.perf_counter()
        sess.abort()
        producer.join(timeout=5.0)
        assert not producer.is_alive()
        assert time.perf_counter() - started < 5.0
        assert outcome == ["closed"]


class TestMultiProducer:
    """feed() is serialised: concurrent producers need no locking."""

    def test_two_producers_lose_nothing_and_keep_chunks_whole(self):
        n, batch, per_producer = 16, 4, 16
        sess = repro.session(n, batch=batch, capacity=2 * batch)
        errors = []

        def produce(tag):
            try:
                for k in range(per_producer):
                    # A constant block is identifiable after the FFT:
                    # bin 0 holds n * value, every other bin 0.
                    value = tag * 100.0 + k + 1.0
                    sess.feed(np.full(n, value, dtype=complex), wait=10.0)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        producers = [threading.Thread(target=produce, args=(tag,))
                     for tag in (1, 2)]
        for thread in producers:
            thread.start()
        chunks = []
        try:
            while sum(c.n_symbols for c in chunks) < 2 * per_producer:
                chunks.extend(sess.drain())
        finally:
            for thread in producers:
                thread.join(timeout=10.0)
            sess.close()
        chunks.extend(sess.drain())
        assert not errors
        assert not any(thread.is_alive() for thread in producers)
        assert sess.symbols_fed == sess.symbols_done == 2 * per_producer
        # Serialised feeds always cut whole batches — interleaving two
        # producers must never produce an off-size chunk.
        assert [c.n_symbols for c in chunks] == \
            [batch] * (2 * per_producer // batch)
        # Every fed block comes back exactly once (order may interleave).
        seen = sorted(
            round(float(c.spectrum[k, 0].real) / n)
            for c in chunks for k in range(c.n_symbols)
        )
        expected = sorted(tag * 100 + k + 1 for tag in (1, 2)
                          for k in range(per_producer))
        assert seen == expected

    def test_close_wakes_two_blocked_producers(self):
        import time

        sess = repro.session(16, batch=2, capacity=2)
        sess.feed(_blocks(2, 16))  # buffer now full
        outcomes = []
        blocked = threading.Barrier(3, timeout=5.0)

        def produce(tag):
            blocked.wait()  # both producers walk into the full buffer
            try:
                sess.feed(_blocks(1, 16, seed=tag), wait=30.0)
                outcomes.append((tag, "fed"))
            except SessionClosed:
                outcomes.append((tag, "closed"))

        producers = [threading.Thread(target=produce, args=(tag,))
                     for tag in (1, 2)]
        for thread in producers:
            thread.start()
        blocked.wait()
        time.sleep(0.05)  # let both enter their wait
        started = time.perf_counter()
        sess.close()
        for thread in producers:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in producers)
        # Both woken by close's notify, well inside their 30 s budget.
        assert time.perf_counter() - started < 5.0
        assert sorted(outcomes) == [(1, "closed"), (2, "closed")]

    def test_flush_is_serialised_with_feeds(self):
        sess = repro.session(16, batch=4, capacity=16)
        stop = threading.Event()

        def produce():
            k = 0
            while not stop.is_set():
                sess.feed(_blocks(1, 16, seed=k), wait=5.0)
                sess.drain()
                k += 1

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            for _ in range(20):
                sess.flush()
        finally:
            stop.set()
            producer.join(timeout=10.0)
            sess.close()
        assert not producer.is_alive()
        assert sess.symbols_done == sess.symbols_fed


class TestStreamingParity:
    def test_session_matches_streaming_fft_cycles(self):
        blocks = _blocks(6, 32, seed=2)
        with repro.engine(32, backend="asip-batch") as eng:
            streamed = eng.stream(blocks, batch=2, verify=True)
        with repro.session(32, backend="asip-batch", batch=2) as sess:
            sess.feed(blocks)
            sess.flush()
            merged = sess.merged()
        assert merged.cycles == streamed.cycles
        assert merged.total_cycles == streamed.total_cycles
        assert len(set(streamed.cycles)) <= 1

    def test_engine_stream_rides_on_sessions(self):
        blocks = _blocks(5, 16, seed=4)
        with repro.engine(16, backend="asip-batch") as eng:
            streamed = eng.stream(blocks, batch=2, verify=True)
        with repro.engine(16, backend="asip-batch") as eng:
            batched = eng.transform_many(blocks)
        assert np.array_equal(streamed.spectrum, batched.spectrum)
        assert streamed.cycles == batched.cycles

    def test_empty_stream_yields_empty_result(self):
        with repro.engine(16) as eng:
            result = eng.stream([])
        assert result.spectrum.shape == (0, 16)
        assert result.n_symbols == 0


class TestShardedStreamMerge:
    def test_concat_results_validates_sizes(self):
        with repro.engine(16) as eng:
            a = eng.transform_many(_blocks(2, 16))
        with repro.engine(32) as eng:
            b = eng.transform_many(_blocks(2, 32))
        with pytest.raises(ValueError, match="different sizes"):
            repro.concat_results([a, b])

    def test_concat_empty_needs_identity(self):
        with pytest.raises(ValueError, match="n_points"):
            repro.concat_results([])
        empty = repro.concat_results([], n_points=16, backend="compiled",
                                     precision="float")
        assert empty.spectrum.shape == (0, 16)
