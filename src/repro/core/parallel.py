"""Sharded parallel batch engine: ``transform_many`` across threads.

One :class:`ShardedEngine` owns a serial :class:`~repro.core.ArrayFFT`
and, lazily, a thread pool.  Large ``(n_symbols, N)`` batches are split
into one shard per worker and transformed concurrently.  Each worker
thread builds its own engine (plan, ROM, pre-rotation store, compiled
tables, ``FixedPointContext``, ``ButterflyUnit``) on its first shard,
so shards that run at the same time share no mutable state.  The batch's
output is allocated once, up front, and each worker's blocked walk
writes its shard's spectra straight into that output's row slice, so
nothing is concatenated afterwards.  numpy releases the GIL inside the
compiled column ops, so the shards overlap without copying any data
between processes.  The compiled datapaths are deterministic
element-wise per symbol, so sharded output is bit-identical to the
serial path — asserted in ``tests/test_parallel.py``.
The API is batch-only: the facade (:mod:`repro.engines`) sends a single
symbol as a one-row ``transform_many`` batch.

Robustness rules (all covered by tests):

* batches below ``min_parallel_symbols`` run serially — fan-out overhead
  would swamp the win;
* ``workers < 2`` never builds a pool;
* any pool failure (a worker thread that cannot start, an exception
  raised inside a shard, an executor that has already been shut down)
  opens a :class:`~repro.core.breaker.CircuitBreaker` and falls back to
  the serial engine, which computes a fresh output (the shared one may
  be partly written) — results are always produced.  The first failure
  of an episode emits a single :class:`RuntimeWarning` and the engine
  carries ``degraded=True`` while the breaker is open; the facade
  (:class:`repro.engines.Engine`) copies that marker onto every
  :class:`~repro.engines.TransformResult` produced meanwhile.  The
  breaker *self-heals*: after a capped exponential backoff one batch is
  admitted as a half-open probe on a fresh pool, and a successful probe
  restores parallel execution (clearing ``degraded``).  There is no
  retry storm — refused attempts inside the backoff window cost one
  clock read and run serially.

Fixed-point bookkeeping survives sharding: each shard reports its
overflow-count delta, which is folded into the parent engine's
:class:`FixedPointContext`, and the parent's ``ButterflyUnit`` op count
advances by the plan total per symbol exactly as the serial path does.

Instruction-level streams are not sharded: an ASIP stream runs on one
facade engine (:meth:`repro.engines.Engine.stream`), which beat both
worker threads and forked worker processes at every size measured
(DESIGN.md, "Sharding and fallback rules").
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .array_fft import ArrayFFT
from .breaker import CircuitBreaker

from .. import telemetry

__all__ = ["ShardedEngine", "available_workers"]


def available_workers() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class ShardedEngine:
    """Batch FFT engine that shards ``transform_many`` across threads.

    Parameters
    ----------
    n_points, fixed_point:
        As for :class:`ArrayFFT`.
    workers:
        Thread-pool size; defaults to :func:`available_workers`.  Values
        below 2 disable the pool entirely.
    min_parallel_symbols:
        Smallest batch worth fanning out (default
        :attr:`MIN_PARALLEL_SYMBOLS`); smaller batches run serially.

    The pool's :class:`CircuitBreaker` keeps its own backoff defaults
    (0.5 s, doubling to 30 s), so a failed batch workload stays serial
    for at least half a second and there is never a retry storm.
    """

    MIN_PARALLEL_SYMBOLS = 64

    def __init__(self, n_points: int, fixed_point: bool = False,
                 workers: int = None, min_parallel_symbols: int = None):
        self.engine = ArrayFFT(n_points, fixed_point=fixed_point)
        self.fixed_point = fixed_point
        self.workers = (
            available_workers() if workers is None else max(int(workers), 0)
        )
        self.min_parallel_symbols = (
            self.MIN_PARALLEL_SYMBOLS if min_parallel_symbols is None
            else max(int(min_parallel_symbols), 1)
        )
        self._pool = None
        # Each pool thread's own ArrayFFT, built on its first shard.
        self._local = threading.local()
        # Pool health lives in a circuit breaker: a failure opens it
        # (single warning, ``degraded=True``, serial fallback), a capped
        # exponential backoff later one batch probes a fresh pool, and a
        # successful probe restores parallel execution.
        self.breaker = CircuitBreaker()
        self.degraded_reason = None

    @property
    def degraded(self) -> bool:
        """True while the breaker is open (serial fallback in effect).

        Clears again once a half-open probe restores the pool;
        ``breaker.opened_count`` keeps the episode history.
        """
        return self.breaker.state != CircuitBreaker.CLOSED

    @property
    def n_points(self) -> int:
        """FFT size N."""
        return self.engine.n_points

    @property
    def plan(self):
        """The underlying :class:`ArrayFFTPlan`."""
        return self.engine.plan

    # Sharded batch API ----------------------------------------------------

    def transform_many(self, blocks) -> np.ndarray:
        """Batch forward transform, sharded across the pool."""
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 2 or blocks.shape[1] != self.n_points:
            raise ValueError(
                f"expected an (n_symbols, {self.n_points}) matrix, "
                f"got shape {blocks.shape}"
            )
        if (self.workers < 2
                or len(blocks) < self.min_parallel_symbols):
            return self.engine.transform_many(blocks)
        if not self.breaker.allow_attempt():
            # Open breaker inside its backoff window, or another thread
            # already holds the half-open probe slot: stay serial.
            return self.engine.transform_many(blocks)
        if self._pool is None:
            # First use, or a half-open probe after `_mark_broken` tore
            # the failed pool down.
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="sharded",
            )
        pool = self._pool
        # One output up front; each shard fills its own row slice of it.
        out = np.empty(blocks.shape, dtype=complex)
        parts = min(self.workers, len(blocks))
        shards = np.array_split(blocks, parts)
        dests = np.array_split(out, parts)
        try:
            with telemetry.span(
                "sharded.dispatch", workers=self.workers,
                shards=len(shards), symbols=len(blocks),
            ):
                run = partial(self._run_shard, telemetry.current_span())
                overflows = list(pool.map(run, shards, dests))
        except Exception as exc:
            # Thread start refused / a shard raised / executor already
            # shut down: never fail — degrade to the serial path until
            # the breaker's backoff admits a fresh-pool probe.
            self._mark_broken(f"{type(exc).__name__}: {exc}")
            return self.engine.transform_many(blocks)
        self.breaker.record_success()
        if self.fixed_point:
            self.engine.fx.overflow_count += sum(overflows)
        # Mirror the serial path's op accounting on the parent engine.
        self.engine.bu.op_count += len(blocks) * self.plan.total_but4
        return out

    def _run_shard(self, parent, shard: np.ndarray, dest: np.ndarray) -> int:
        """One shard on the calling pool thread's own engine, written into
        ``dest``, its row slice of the batch's output.

        Returns the shard's overflow delta; ``parent`` is the caller's
        ``sharded.dispatch`` span, adopted so the shard span nests under it.
        """
        with telemetry.attach(parent), telemetry.span(
            "sharded.shard", symbols=len(shard),
        ):
            engine = getattr(self._local, "engine", None)
            if engine is None:
                engine = self._local.engine = ArrayFFT(
                    self.n_points, fixed_point=self.fixed_point,
                )
            before = engine.fx.overflow_count if self.fixed_point else 0
            engine.transform_many(shard, _out=dest)
            return (
                engine.fx.overflow_count - before if self.fixed_point else 0
            )

    # Pool lifecycle -------------------------------------------------------

    def _mark_broken(self, reason: str = "pool failure") -> None:
        # `record_failure` is True only on the fresh closed->open
        # transition — exactly one warning per degradation episode
        # (failed half-open probes re-open silently, backoff doubled).
        if self.breaker.record_failure(reason):
            self.degraded_reason = reason
            warnings.warn(
                f"sharded pool failed ({reason}); falling back to the "
                f"serial engine until a breaker probe succeeds",
                RuntimeWarning, stacklevel=2,
            )
        self.close_pool()

    def close_pool(self) -> None:
        """Tear the worker pool down without touching breaker state."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self.close_pool()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown ordering
        try:
            self.close()
        except Exception:
            pass

