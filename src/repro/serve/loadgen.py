"""Threaded load generator for the serving tier.

:func:`run_load` drives ``tenants`` concurrent producer threads through
one :class:`~repro.serve.server.SessionServer` — each tenant feeds its
own random symbol stream under a deadline, drains its own results, and
verifies the merged spectrum against a serial ``np.fft.fft`` oracle.
The return value is the flat measurement dict ``python -m repro serve``
prints: sessions/s, aggregate symbols/s, p50/p99 chunk latency and the
shed/backpressure counts.

At *nominal* load (every tenant within its own session capacity and a
consumer that drains) the admission controller must shed nothing —
asserted by the quick-bench floor in
``tests/test_engine_speed_quick.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from .errors import ServeError
from .server import SessionServer

__all__ = ["run_load"]


def _tenant_worker(server, name, blocks, feed_size, deadline, errors,
                   mismatches):
    """Feed / drain / verify one tenant's whole stream."""
    try:
        drained = []
        for lo in range(0, len(blocks), feed_size):
            server.submit(name, blocks[lo:lo + feed_size],
                          deadline=deadline)
            drained.extend(server.drain(name))
        drained.extend(server.close_session(name))
        got = np.concatenate([r.spectrum for r in drained]) \
            if drained else np.empty((0, blocks.shape[1]))
        want = np.fft.fft(blocks, axis=1)
        if got.shape != want.shape or not np.allclose(got, want, atol=1e-6):
            mismatches.append(name)
    except (ServeError, Exception) as exc:  # noqa: BLE001 - report, don't die
        errors.append((name, f"{type(exc).__name__}: {exc}"))


def run_load(tenants: int = 8, symbols: int = 64, n_points: int = 64,
             *, backend: str = "compiled", precision: str = "float",
             batch: int = 8, capacity: int = None, feed_size: int = 4,
             deadline: float = 10.0, exec_timeout: float = None,
             global_budget: int = None, seed: int = 0,
             server: SessionServer = None) -> dict:
    """Drive ``tenants`` concurrent sessions; return the measurements.

    Every tenant runs the same-size workload (``symbols`` blocks of
    ``n_points``) on the same pool key, so the pool builds one engine
    and the cache-reuse counter should read ``tenants - 1``.  Pass a
    prepared ``server`` to load an existing instance (faults injected,
    custom pool) — it is *not* closed for you then.
    """
    rng = np.random.default_rng(seed)
    own_server = server is None
    if own_server:
        server = SessionServer(
            batch=batch, capacity=capacity, exec_timeout=exec_timeout,
            global_budget=global_budget,
        )
    errors, mismatches, threads = [], [], []
    streams = {}
    try:
        for index in range(tenants):
            name = f"tenant-{index}"
            streams[name] = (
                rng.standard_normal((symbols, n_points))
                + 1j * rng.standard_normal((symbols, n_points))
            )
            server.open_session(name, n_points, backend=backend,
                                precision=precision, batch=batch,
                                capacity=capacity)
        start = time.perf_counter()
        for name, blocks in streams.items():
            worker = threading.Thread(
                target=_tenant_worker,
                args=(server, name, blocks, feed_size, deadline, errors,
                      mismatches),
                name=f"loadgen-{name}", daemon=True,
            )
            worker.start()
            threads.append(worker)
        for worker in threads:
            worker.join()
        elapsed = max(time.perf_counter() - start, 1e-9)
        totals = server.metrics.totals()
        pool = server.pool.stats()
        return {
            "tenants": tenants,
            "symbols_per_tenant": symbols,
            "n_points": n_points,
            "backend": backend,
            "precision": precision,
            "batch": batch,
            "seconds": elapsed,
            "sessions_per_s": tenants / elapsed,
            "symbols_per_s": totals["symbols_out"] / elapsed,
            "latency_p50_ms": totals["latency_p50_ms"],
            "latency_p99_ms": totals["latency_p99_ms"],
            "shed": totals["shed"],
            "backpressure": totals["backpressure"],
            "timeouts": totals["timeouts"],
            "degraded_transitions": totals["degraded_transitions"],
            "pool_built": pool["built"],
            "pool_reused": pool["reused"],
            "errors": errors,
            "mismatches": mismatches,
            "ok": not errors and not mismatches,
        }
    finally:
        if own_server:
            server.close()
