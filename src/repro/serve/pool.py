"""Shared engine pool: cached facade engines leased to tenant sessions.

Compiled plans, ROM tables and worker pools are expensive to build and
cheap to share: the pool caches one facade :class:`~repro.engines.Engine`
per ``(n_points, backend, precision)`` key and hands out
:class:`EngineLease` proxies.  A lease looks like an engine to
:class:`~repro.sessions.StreamSession` (``transform_many`` /
``n_points`` / ``batch`` / ``close``), but:

* execution is serialised per pooled engine (engines are not
  thread-safe) — two tenants on the same key interleave chunk-at-a-time
  under the entry's lock;
* every chunk is timed and reported through the lease's ``on_chunk``
  callback (the serve tier's metrics feed);
* ``close()`` releases the lease; ``close(dispose=True)`` — the
  supervisor's poisoned-engine path — also evicts the entry from the
  cache and closes the engine once the last lease drops, so the next
  lease on that key builds a fresh engine.
"""

from __future__ import annotations

import threading
import time

from ..engines import engine as build_engine

from .. import telemetry

__all__ = ["EngineLease", "EnginePool"]


class _PoolEntry:
    """One cached engine plus its sharing state."""

    def __init__(self, key: tuple, engine):
        self.key = key
        self.engine = engine
        # Serialises chunk execution across every lease on this entry:
        # facade engines are not thread-safe.
        self.exec_lock = threading.Lock()
        self.leases = 0
        self.evicted = False


class EngineLease:
    """A tenant's serialised, metered handle on one pooled engine."""

    def __init__(self, pool: "EnginePool", entry: _PoolEntry,
                 on_chunk=None):
        self._pool = pool
        self._entry = entry
        self._on_chunk = on_chunk
        self._released = False

    # The engine surface StreamSession consumes -------------------------

    @property
    def n_points(self) -> int:
        return self._entry.engine.n_points

    @property
    def backend(self) -> str:
        return self._entry.engine.backend

    @property
    def precision(self) -> str:
        return self._entry.engine.precision

    @property
    def batch(self):
        return self._entry.engine.batch

    @property
    def degraded(self) -> bool:
        """Live degradation reading of the pooled engine."""
        return bool(getattr(self._entry.engine, "degraded", False))

    @property
    def key(self) -> tuple:
        """The pool cache key this lease is pinned to."""
        return self._entry.key

    @property
    def engine(self):
        """The shared pooled engine (introspection / fault injection)."""
        return self._entry.engine

    def transform_many(self, blocks):
        if self._released:
            raise RuntimeError("lease was released; open a new session")
        start = time.perf_counter()
        with telemetry.span("pool.execute") as pool_span:
            with self._entry.exec_lock:
                if pool_span.is_recording:
                    pool_span.set("key", str(self._entry.key))
                    pool_span.set(
                        "lock_wait_ms",
                        round((time.perf_counter() - start) * 1e3, 3),
                    )
                result = self._entry.engine.transform_many(blocks)
        seconds = time.perf_counter() - start
        if self._on_chunk is not None:
            self._on_chunk(result, seconds)
        return result

    def _verify_chunk(self, chunk, spectrum, symbols_before) -> None:
        self._entry.engine._verify_chunk(chunk, spectrum, symbols_before)

    def close(self, dispose: bool = False) -> None:
        """Release the lease (idempotent).

        ``dispose=True`` marks the engine poisoned: the entry leaves
        the cache immediately (new leases build fresh) and the engine
        is closed once its last lease is gone.
        """
        if self._released:
            if dispose:
                self._pool._dispose(self._entry)
            return
        self._released = True
        self._pool._release(self._entry, dispose=dispose)

    def __repr__(self) -> str:
        state = "released" if self._released else "live"
        return f"EngineLease({self._entry.key}, {state})"


class EnginePool:
    """Cache of facade engines keyed by ``(n_points, backend, precision)``.

    ``engine_options`` are forwarded to every :func:`repro.engine`
    build (e.g. ``workers=``, ``min_parallel_symbols=``);
    ``python -m repro serve`` passes its ``--workers`` this way.
    """

    def __init__(self, **engine_options):
        self.engine_options = engine_options
        self._lock = threading.Lock()
        self._entries: dict = {}
        self._closed = False
        self.built = 0
        self.reused = 0
        self.disposed = 0

    def lease(self, n_points: int, backend: str = "compiled",
              precision: str = "float", on_chunk=None,
              **overrides) -> EngineLease:
        """Lease the cached engine for a key, building it on first use."""
        key = (int(n_points), backend, precision)
        with self._lock:
            if self._closed:
                raise RuntimeError("engine pool is closed")
            entry = self._entries.get(key)
            if entry is None:
                options = dict(self.engine_options)
                options.update(overrides)
                eng = build_engine(
                    n_points, backend=backend, precision=precision,
                    **options,
                )
                entry = self._entries[key] = _PoolEntry(key, eng)
                self.built += 1
            else:
                self.reused += 1
            entry.leases += 1
        return EngineLease(self, entry, on_chunk=on_chunk)

    # Lease bookkeeping ---------------------------------------------------

    def _release(self, entry: _PoolEntry, dispose: bool = False) -> None:
        close_engine = False
        with self._lock:
            entry.leases = max(entry.leases - 1, 0)
            if dispose:
                self._evict_locked(entry)
            close_engine = entry.evicted and entry.leases == 0
        if close_engine:
            self._close_engine(entry)

    def _dispose(self, entry: _PoolEntry) -> None:
        with self._lock:
            self._evict_locked(entry)
            close_engine = entry.leases == 0
        if close_engine:
            self._close_engine(entry)

    def _evict_locked(self, entry: _PoolEntry) -> None:
        if not entry.evicted:
            entry.evicted = True
            self.disposed += 1
            if self._entries.get(entry.key) is entry:
                del self._entries[entry.key]

    @staticmethod
    def _close_engine(entry: _PoolEntry) -> None:
        try:
            entry.engine.close()
        except Exception:  # poisoned engines may fail their own teardown
            pass

    # Introspection / lifecycle ------------------------------------------

    def stats(self) -> dict:
        """Cache-efficiency counters plus live keys."""
        with self._lock:
            return {
                "built": self.built,
                "reused": self.reused,
                "disposed": self.disposed,
                "live": len(self._entries),
                "keys": sorted(self._entries),
            }

    def breaker_snapshots(self) -> dict:
        """Breaker state per live sharded entry (empty otherwise)."""
        with self._lock:
            entries = list(self._entries.values())
        out = {}
        for entry in entries:
            sharded = getattr(entry.engine.impl, "sharded", None)
            breaker = getattr(sharded, "breaker", None)
            if breaker is not None:
                out["x".join(map(str, entry.key))] = breaker.snapshot()
        return out

    def close(self) -> None:
        """Close every cached engine (idempotent)."""
        with self._lock:
            self._closed = True
            entries, self._entries = list(self._entries.values()), {}
        for entry in entries:
            entry.evicted = True
            self._close_engine(entry)

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
