"""Serving tier: pool leasing, admission control, deadlines, healing.

The acceptance spine of the serve subsystem:

* the engine pool caches by ``(n_points, backend, precision)`` and its
  dispose path quarantines poisoned engines;
* admission sheds with ``ServerOverloaded`` *before* queuing anything
  and per-tenant backpressure stays per-tenant;
* deadlines propagate down to the execution watchdog, and a tenant
  whose chunk times out is retired without touching its neighbours;
* every ``repro.verify.faults`` class injected into a live server stays
  localised to the injected tenant;
* the sharded engine's circuit breaker heals a failed pool *under a
  live server* — serial-fallback results stay bit-identical, then a
  half-open probe restores parallel execution.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.core import ArrayFFT, CircuitBreaker
from repro.serve import (
    EnginePool,
    ServerClosed,
    ServerOverloaded,
    SessionServer,
    TenantFailed,
    UnknownTenant,
    run_load,
)
from repro.serve.metrics import TenantMetrics
from repro.sessions import SessionBackpressure, SessionExecutionTimeout
from repro.telemetry import percentile
from repro.verify import engine_stall, pool_failure, worker_shard_corruption


def _blocks(symbols, n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((symbols, n))
                    + 1j * rng.standard_normal((symbols, n)))


class TestEnginePool:
    def test_leases_share_one_engine_per_key(self):
        with EnginePool() as pool:
            a = pool.lease(16)
            b = pool.lease(16)
            c = pool.lease(32)
            assert a.engine is b.engine
            assert a.engine is not c.engine
            stats = pool.stats()
            assert stats["built"] == 2 and stats["reused"] == 1
            assert stats["live"] == 2
            a.close(), b.close(), c.close()

    def test_release_keeps_entry_cached(self):
        with EnginePool() as pool:
            pool.lease(16).close()
            again = pool.lease(16)
            assert pool.stats()["reused"] == 1
            again.close()

    def test_dispose_evicts_and_rebuilds_fresh(self):
        with EnginePool() as pool:
            a = pool.lease(16)
            poisoned = a.engine
            a.close(dispose=True)
            assert pool.stats()["disposed"] == 1
            b = pool.lease(16)
            assert b.engine is not poisoned
            assert pool.stats()["built"] == 2
            b.close()

    def test_dispose_waits_for_last_lease(self):
        with EnginePool() as pool:
            a = pool.lease(16)
            b = pool.lease(16)
            a.close(dispose=True)  # evicted, but b still holds it
            # The survivor keeps executing on the evicted entry.
            result = b.transform_many(_blocks(2, 16, seed=1))
            assert result.n_symbols == 2
            b.close()

    def test_released_lease_refuses_execution(self):
        with EnginePool() as pool:
            lease = pool.lease(16)
            lease.close()
            with pytest.raises(RuntimeError, match="released"):
                lease.transform_many(_blocks(1, 16))

    def test_on_chunk_callback_times_every_chunk(self):
        seen = []
        with EnginePool() as pool:
            lease = pool.lease(16, on_chunk=lambda r, s: seen.append((r, s)))
            lease.transform_many(_blocks(3, 16, seed=2))
            lease.close()
        assert len(seen) == 1
        result, seconds = seen[0]
        assert result.n_symbols == 3 and seconds >= 0.0

    def test_closed_pool_refuses_leases(self):
        pool = EnginePool()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.lease(16)

    def test_breaker_snapshots_cover_sharded_entries(self):
        with EnginePool() as pool:
            compiled = pool.lease(16)
            sharded = pool.lease(16, backend="sharded", workers=2)
            snaps = pool.breaker_snapshots()
            assert list(snaps) == ["16xshardedxfloat"]
            assert snaps["16xshardedxfloat"]["state"] == "closed"
            compiled.close(), sharded.close()


class TestSessionServerBasics:
    def test_round_trip_matches_oracle(self):
        blocks = _blocks(10, 16, seed=3)
        with SessionServer(batch=4) as server:
            server.open_session("alice", 16)
            assert server.submit("alice", blocks) == 10
            tail = server.drain("alice") + server.close_session("alice")
            got = np.concatenate([r.spectrum for r in tail])
        assert np.allclose(got, np.fft.fft(blocks, axis=1), atol=1e-6)

    def test_tenants_share_the_pooled_engine(self):
        with SessionServer(batch=2) as server:
            a = server.open_session("a", 16)
            b = server.open_session("b", 16)
            assert a.lease.engine is b.lease.engine
            assert server.pool.stats()["built"] == 1

    def test_live_tenant_name_is_unique(self):
        with SessionServer() as server:
            server.open_session("alice", 16)
            with pytest.raises(ValueError, match="live"):
                server.open_session("alice", 16)

    def test_name_reusable_after_close(self):
        blocks = _blocks(2, 16, seed=4)
        with SessionServer(batch=2) as server:
            server.open_session("alice", 16)
            server.submit("alice", blocks)
            server.close_session("alice")
            server.open_session("alice", 32)  # fresh life, new key
            server.submit("alice", _blocks(2, 32, seed=5))
            assert server.tenants == ["alice"]

    def test_unknown_tenant_raises(self):
        with SessionServer() as server:
            with pytest.raises(UnknownTenant):
                server.submit("ghost", _blocks(1, 16))
            with pytest.raises(UnknownTenant):
                server.drain("ghost")

    def test_closed_server_refuses_everything(self):
        server = SessionServer()
        server.open_session("alice", 16)
        server.close()
        with pytest.raises(ServerClosed):
            server.open_session("bob", 16)
        with pytest.raises(ServerClosed):
            server.submit("alice", _blocks(1, 16))

    def test_results_iterator_and_flush(self):
        blocks = _blocks(3, 16, seed=6)
        with SessionServer(batch=2) as server:
            server.open_session("alice", 16)
            server.submit("alice", blocks)
            server.flush("alice")
            chunks = list(server.results("alice"))
        assert [c.n_symbols for c in chunks] == [2, 1]

    def test_health_snapshot_shape(self):
        with SessionServer(batch=2) as server:
            server.open_session("alice", 16)
            server.submit("alice", _blocks(2, 16, seed=7))
            health = server.health()
        assert health["closed"] is False
        assert health["buffered"] == 2  # undrained chunk
        assert health["tenants"]["alice"]["symbols_in"] == 2
        assert health["tenants"]["alice"]["chunks"] == 1
        assert health["pool"]["built"] == 1
        assert health["breakers"] == {}


class TestAdmissionControl:
    def test_global_budget_sheds_loudly(self):
        blocks = _blocks(4, 16, seed=8)
        with SessionServer(batch=4, global_budget=6) as server:
            server.open_session("alice", 16)
            server.open_session("bob", 16)
            server.submit("alice", blocks)  # 4 buffered (undrained)
            with pytest.raises(ServerOverloaded, match="shed"):
                server.submit("bob", blocks)  # 4 + 4 > 6
            health = server.health()
            # The whole request was shed before anything queued.
            assert health["tenants"]["bob"]["symbols_in"] == 0
            assert health["tenants"]["bob"]["shed"] == 4
            assert health["buffered"] == 4
            # Draining the neighbour frees budget; bob is admitted.
            server.drain("alice")
            assert server.submit("bob", blocks) == 4

    def test_adaptive_budget_tracks_capacities(self):
        with SessionServer(batch=2, capacity=4) as server:
            server.open_session("alice", 16)
            assert server.health()["budget"] == 8  # 2 * 4
            server.open_session("bob", 16)
            assert server.health()["budget"] == 16
            server.close_session("bob")
            assert server.health()["budget"] == 8

    def test_per_tenant_backpressure_stays_per_tenant(self):
        with SessionServer(batch=2, capacity=2) as server:
            server.open_session("alice", 16)
            server.open_session("bob", 16)
            server.submit("alice", _blocks(2, 16, seed=9))
            # Alice's buffer is full: her deadline expires in
            # SessionBackpressure, counted against her alone.
            with pytest.raises(SessionBackpressure, match="after waiting"):
                server.submit("alice", _blocks(1, 16, seed=10),
                              deadline=0.05)
            health = server.health()
            assert health["tenants"]["alice"]["backpressure"] == 1
            assert health["tenants"]["alice"]["symbols_in"] == 2
            assert health["tenants"]["bob"]["backpressure"] == 0
            # Bob is untouched and still serving.
            assert server.submit("bob", _blocks(2, 16, seed=11)) == 2

    def test_partly_queued_request_counts_what_was_queued(self):
        with SessionServer(batch=2, capacity=4) as server:
            server.open_session("alice", 16)
            # Four of six blocks fit (and run) before the buffer fills.
            with pytest.raises(SessionBackpressure) as raised:
                server.submit("alice", _blocks(6, 16, seed=16),
                              deadline=0.05)
            assert raised.value.accepted == 4
            alice = server.health()["tenants"]["alice"]
            assert alice["symbols_in"] == alice["symbols_out"] == 4

    def test_deadline_met_when_consumer_drains(self):
        with SessionServer(batch=2, capacity=2) as server:
            server.open_session("alice", 16)
            server.submit("alice", _blocks(2, 16, seed=12))

            def drain_soon():
                time.sleep(0.05)
                server.drain("alice")

            helper = threading.Thread(target=drain_soon)
            helper.start()
            try:
                fed = server.submit("alice", _blocks(1, 16, seed=13),
                                    deadline=5.0)
            finally:
                helper.join(timeout=5.0)
            assert fed == 1

    def test_no_deadline_blocks_until_the_drain(self):
        with SessionServer(batch=2, capacity=2) as server:
            server.open_session("alice", 16)
            server.submit("alice", _blocks(2, 16, seed=12))
            fed = []
            # deadline=None waits without bound, so it runs on a daemon
            # thread: a lost wake-up fails the test instead of hanging.
            producer = threading.Thread(
                target=lambda: fed.append(
                    server.submit("alice", _blocks(1, 16, seed=13))),
                daemon=True,
            )
            producer.start()
            time.sleep(0.05)
            assert not fed  # parked on the full buffer, not refused
            server.drain("alice")
            producer.join(timeout=5.0)
            assert not producer.is_alive()
            assert fed == [1]


class TestDeadlineWatchdog:
    def test_stalled_tenant_fails_and_neighbour_survives(self):
        blocks = _blocks(4, 16, seed=14)
        with SessionServer(batch=4, exec_timeout=0.2) as server:
            stalled = server.open_session("stalled", 16)
            server.open_session("clean", 16)
            with engine_stall(stalled.lease, seconds=30.0):
                started = time.perf_counter()
                with pytest.raises(SessionExecutionTimeout, match="deadline"):
                    server.submit("stalled", blocks, deadline=5.0)
                assert time.perf_counter() - started < 10.0
                # The clean tenant keeps serving during the stall.
                server.submit("clean", blocks)
            tail = server.close_session("clean")
            got = np.concatenate([r.spectrum for r in tail])
            assert np.allclose(got, np.fft.fft(blocks, axis=1), atol=1e-6)
            # The stalled tenant is retired: poisoned engine disposed,
            # later submits refused with the recorded reason.
            health = server.health()
            assert health["tenants"]["stalled"]["state"] == "failed"
            assert health["tenants"]["stalled"]["timeouts"] == 1
            assert server.pool.stats()["disposed"] == 1
            with pytest.raises(TenantFailed, match="deadline"):
                server.submit("stalled", blocks)

    def test_failed_tenant_tail_stays_drainable(self):
        with SessionServer(batch=2) as server:
            server.open_session("alice", 16)
            server.submit("alice", _blocks(2, 16, seed=15))  # chunk done
            server.fail_tenant("alice", "operator says so")
            tail = server.drain("alice")
            assert [r.n_symbols for r in tail] == [2]
            with pytest.raises(TenantFailed, match="operator"):
                server.submit("alice", _blocks(1, 16))

    def test_fresh_session_after_failure_gets_fresh_engine(self):
        with SessionServer(batch=2, exec_timeout=0.2) as server:
            first = server.open_session("alice", 16)
            poisoned = first.lease.engine
            with engine_stall(first.lease, seconds=30.0):
                with pytest.raises(SessionExecutionTimeout):
                    server.submit("alice", _blocks(2, 16, seed=16))
            # The name is reusable and the pool built a clean engine.
            reborn = server.open_session("alice", 16)
            assert reborn.lease.engine is not poisoned
            blocks = _blocks(2, 16, seed=17)
            server.submit("alice", blocks)
            got = np.concatenate(
                [r.spectrum for r in server.close_session("alice")]
            )
            assert np.allclose(got, np.fft.fft(blocks, axis=1), atol=1e-6)


class TestFaultSurvival:
    """Every verify.faults class against a live server: localised."""

    def test_pool_failure_localised_to_sharded_tenant(self):
        blocks = _blocks(8, 16, seed=18)
        with SessionServer(batch=8) as server:
            shard = server.open_session(
                "shard", 16, backend="sharded", workers=2,
                min_parallel_symbols=1,
            )
            server.open_session("clean", 16)
            with pool_failure(shard.lease.engine.impl.sharded):
                with pytest.warns(RuntimeWarning, match="falling back"):
                    server.submit("shard", blocks)
                server.submit("clean", blocks)
            shard_tail = server.close_session("shard")
            clean_tail = server.close_session("clean")
            health = server.health()
        want = np.fft.fft(blocks, axis=1)
        # Serial fallback: numerically correct, marked degraded.
        got = np.concatenate([r.spectrum for r in shard_tail])
        assert np.allclose(got, want, atol=1e-6)
        assert shard_tail[0].degraded
        assert health["tenants"]["shard"]["degraded_transitions"] == 1
        # The injected tenant's degradation never leaks next door.
        got = np.concatenate([r.spectrum for r in clean_tail])
        assert np.allclose(got, want, atol=1e-6)
        assert not clean_tail[0].degraded
        assert health["tenants"]["clean"]["degraded_transitions"] == 0

    def test_worker_shard_corruption_localised(self):
        blocks = _blocks(4, 16, seed=19)
        with SessionServer(batch=4) as server:
            shard = server.open_session(
                "shard", 16, backend="sharded", workers=2,
            )
            server.open_session("clean", 16)
            with worker_shard_corruption(shard.lease.engine.impl.sharded,
                                         symbol=1):
                server.submit("shard", blocks)
                server.submit("clean", blocks)
            shard_tail = server.close_session("shard")
            clean_tail = server.close_session("clean")
        want = np.fft.fft(blocks, axis=1)
        got_shard = np.concatenate([r.spectrum for r in shard_tail])
        got_clean = np.concatenate([r.spectrum for r in clean_tail])
        # Exactly the injected tenant's injected symbol diverges.
        assert not np.allclose(got_shard[1], want[1], atol=1e-6)
        assert np.allclose(np.delete(got_shard, 1, axis=0),
                           np.delete(want, 1, axis=0), atol=1e-6)
        assert np.allclose(got_clean, want, atol=1e-6)

    def test_engine_stall_localised(self):
        from repro.verify import demonstrate_fault

        fault, result = demonstrate_fault("engine-stall")
        assert fault.kind == "engine-stall"
        assert not result.ok  # the watchdog caught it
        assert result.report.location["tenant"] == "stalled"


class TestBreakerUnderLiveServer:
    """Pool self-healing end-to-end through the serving tier."""

    def test_serial_fallback_then_probe_restores_parallel(self):
        n, symbols = 16, 6
        blocks = _blocks(symbols, n, seed=20)
        want = ArrayFFT(n).transform_many(blocks)
        with SessionServer(batch=symbols) as server:
            tenant = server.open_session(
                "alice", n, backend="sharded", workers=2,
                min_parallel_symbols=1,
            )
            sharded = tenant.lease.engine.impl.sharded
            sharded.breaker.backoff_initial = 0.05

            class ExplodingPool:
                def map(self, *args, **kwargs):
                    raise RuntimeError("worker died")

                def shutdown(self, **kwargs):
                    pass

            sharded._pool = ExplodingPool()
            with pytest.warns(RuntimeWarning, match="falling back"):
                server.submit("alice", blocks)
            (broken,) = server.drain("alice")
            # Degraded but bit-identical to the serial oracle.
            assert broken.degraded
            assert np.array_equal(broken.spectrum, want)
            assert sharded.breaker.state != CircuitBreaker.CLOSED
            # Past the backoff the next chunk is the half-open probe:
            # it spawns a fresh pool and restores parallel execution.
            time.sleep(0.06)
            server.submit("alice", blocks)
            (healed,) = server.drain("alice")
            assert not healed.degraded
            assert np.array_equal(healed.spectrum, want)
            assert sharded.breaker.state == CircuitBreaker.CLOSED
            assert sharded._pool is not None
            health = server.health()
            snap = health["breakers"]["16xshardedxfloat"]
            assert snap["opened"] == 1 and snap["recovered"] == 1
            assert health["tenants"]["alice"]["degraded_transitions"] == 1


class TestMetrics:
    def test_percentile_nearest_rank(self):
        assert percentile([], 99.0) == 0.0
        assert percentile([5.0], 50.0) == 5.0
        data = list(range(1, 101))
        assert percentile(data, 50.0) == 50
        assert percentile(data, 99.0) == 100
        assert percentile(data, 100.0) == 100

    def test_tenant_metrics_flow(self):
        class FakeResult:
            n_symbols = 4
            degraded = False

        metrics = TenantMetrics("alice")
        metrics.record_admitted(4)
        metrics.record_chunk(FakeResult(), 0.010)
        snap = metrics.snapshot()
        assert snap["symbols_in"] == snap["symbols_out"] == 4
        assert snap["chunks"] == 1
        assert snap["latency_p50_ms"] == pytest.approx(10.0)
        assert snap["state"] == "active"

    def test_degraded_transitions_count_edges(self):
        class Result:
            n_symbols = 1

            def __init__(self, degraded):
                self.degraded = degraded

        metrics = TenantMetrics("alice")
        for flag in (False, True, True, False, True):
            metrics.record_chunk(Result(flag), 0.001)
        snap = metrics.snapshot()
        assert snap["degraded_chunks"] == 3
        assert snap["degraded_transitions"] == 2

    def test_latency_window_rolls(self):
        """Quantiles read only the newest ``LATENCY_WINDOW`` chunks."""
        class Result:
            n_symbols = 1
            degraded = False

        metrics = TenantMetrics("alice")
        window = TenantMetrics.LATENCY_WINDOW
        for k in range(window + 10):  # chunk k took k ms
            metrics.record_chunk(Result(), k * 1e-3)
        snap = metrics.snapshot()
        assert snap["chunks"] == window + 10
        newest = range(10, window + 10)
        assert snap["latency_p50_ms"] == pytest.approx(
            percentile(newest, 50.0))
        # The whole history's median differs: the oldest ten are gone.
        assert percentile(range(window + 10), 50.0) != percentile(
            newest, 50.0)


class TestHealthConcurrency:
    #: exact per-tenant snapshot schema — frozen; dashboards parse it.
    TENANT_KEYS = {
        "tenant", "state", "symbols_in", "symbols_out", "chunks",
        "symbols_per_s", "latency_p50_ms", "latency_p99_ms", "shed",
        "backpressure", "timeouts", "degraded_chunks",
        "degraded_transitions", "failure_reason",
    }

    def test_health_hammer_during_live_load(self):
        """``health()`` from another thread never returns a torn snapshot.

        A hammer thread polls ``server.health()`` in a tight loop while
        ``run_load`` drives concurrent tenants through the same server;
        every snapshot it collects must be internally consistent — full
        per-tenant schema, counters that never exceed their upper
        bounds, ordered quantiles — not a dict caught mid-mutation.
        Once it sees ``stop`` it takes one more snapshot, so its last one
        reads the server after the load, however little CPU it got.
        """
        snapshots, failures = [], []
        stop = threading.Event()

        def hammer(server):
            while True:
                stopping = stop.is_set()
                try:
                    snapshots.append(server.health())
                except Exception as exc:  # pragma: no cover - the failure
                    failures.append(repr(exc))
                    return
                if stopping:
                    return

        with SessionServer(batch=4) as server:
            poller = threading.Thread(
                target=hammer, args=(server,), name="health-hammer",
            )
            poller.start()
            try:
                measure = run_load(tenants=4, symbols=24, n_points=32,
                                   batch=4, feed_size=4, seed=11,
                                   server=server)
            finally:
                stop.set()
                poller.join(timeout=10.0)
        assert not poller.is_alive()
        assert not failures, failures
        assert measure["ok"], (measure["errors"], measure["mismatches"])
        assert snapshots, "hammer never completed a snapshot"
        for health in snapshots:
            assert set(health) >= {"closed", "buffered", "tenants", "pool"}
            for name, tenant in health["tenants"].items():
                assert set(tenant) == self.TENANT_KEYS, name
                assert tenant["symbols_out"] <= tenant["symbols_in"]
                assert tenant["chunks"] * 4 >= tenant["symbols_out"]
                assert (tenant["latency_p50_ms"]
                        <= tenant["latency_p99_ms"] + 1e-9)
                assert tenant["degraded_chunks"] >= \
                    tenant["degraded_transitions"]
        # The last snapshot, taken after the load, saw real traffic.
        final = snapshots[-1]["tenants"]
        assert sum(t["symbols_in"] for t in final.values()) > 0

    def test_request_admitted_before_its_chunks_report(self):
        """A ``health()`` taken the moment a chunk is recorded already
        counts the request that chunk came from."""
        seen = []
        with SessionServer(batch=2) as server:
            metrics = server.metrics.tenant("alice")
            record_chunk = metrics.record_chunk

            def record_then_snapshot(result, seconds):
                record_chunk(result, seconds)
                seen.append(server.health()["tenants"]["alice"])

            metrics.record_chunk = record_then_snapshot
            server.open_session("alice", 16)
            server.submit("alice", _blocks(4, 16, seed=15))
        assert len(seen) == 2
        for tenant in seen:
            assert tenant["symbols_out"] <= tenant["symbols_in"] == 4


class TestLoadGenerator:
    def test_run_load_smoke_verifies_against_oracle(self):
        measure = run_load(tenants=3, symbols=8, n_points=16, batch=4,
                           feed_size=2, seed=5)
        assert measure["ok"], (measure["errors"], measure["mismatches"])
        assert measure["shed"] == 0
        assert measure["timeouts"] == 0
        assert measure["sessions_per_s"] > 0
        assert measure["pool_built"] == 1
        assert measure["pool_reused"] == 2

    def test_serve_fuzz_fixed_seed_smoke(self):
        from repro.verify import fuzz_backends

        report = fuzz_backends(4, kinds=("serve",), seed=2024)
        assert report.ok, report.summary()
        assert report.cases == 4


class TestExports:
    def test_serve_errors_exported_from_top_level(self):
        assert repro.ServerOverloaded is ServerOverloaded
        assert repro.ServerClosed is ServerClosed
        assert repro.TenantFailed is TenantFailed
        assert repro.SessionServer is SessionServer
        assert repro.SessionBackpressure is SessionBackpressure
        assert repro.SessionClosed is not None
        assert issubclass(repro.ServerOverloaded, repro.ServeError)
