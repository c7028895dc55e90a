"""Unified engine facade: one entry point, pluggable backends.

The paper's pitch is *one* scalable FFT machine covering every WiMAX
point size; this module gives the reproduction one matching API surface.
:func:`engine` (exported as ``repro.engine``) returns an :class:`Engine`
bound to a registered backend:

========== ==========================================================
backend     implementation
========== ==========================================================
compiled    compiled-plan vectorised :class:`~repro.core.ArrayFFT`
            (the default)
reference   the readable per-butterfly oracle datapath
sharded     :class:`~repro.core.parallel.ShardedEngine` thread shards
asip        instruction-level :class:`~repro.asip.FFTASIP`, one
            persistent machine, serial per-symbol execution
asip-batch  the same machine driven through
            :meth:`~repro.asip.FFTASIP.run_batch` in multi-symbol
            chunks
========== ==========================================================

Every call returns a uniform :class:`TransformResult` (spectrum,
per-symbol cycles, :class:`SimStats` delta, overflow-count delta,
backend name) instead of the historical mix of bare ndarrays, tuples
and side-channel counters.  Backends register through
:mod:`repro.core.registry`; anything implementing the backend contract
(DESIGN.md, "Unified engine facade") can be plugged in under a new name
without touching call sites.

Lifecycle: an :class:`Engine` is a context manager; ``with
repro.engine(...) as eng`` owns the backend's resources (worker pools,
simulated machines) and reaps them on exit.  ``close()`` is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .asip.codegen import generate_fft_program
from .asip.fft_asip import FFTASIP
from .core.array_fft import ArrayFFT
from .core.fixed_point import require_finite
from .core.parallel import ShardedEngine
from .core.registry import (
    BackendSpec,
    backend_names,
    backend_specs,
    get_backend,
    register_backend,
)
from .sim.stats import SimStats

from . import telemetry

__all__ = [
    "Engine",
    "TransformResult",
    "engine",
    "concat_results",
    "benchmark_backends",
    "normalize_precision",
    "backend_names",
    "backend_specs",
]


_PRECISION_ALIASES = {
    "float": "float",
    "float64": "float",
    "double": "float",
    "q15": "q15",
    "q1.15": "q15",
    "fixed": "q15",
    "fixed-point": "q15",
    "fixed_point": "q15",
}


def normalize_precision(precision) -> str:
    """Canonical precision name (``"float"`` or ``"q15"``).

    Accepts the canonical names, common aliases, and the booleans the
    old ``fixed_point=`` keyword arguments used.
    """
    if precision is True:
        return "q15"
    if precision is None or precision is False:
        return "float"
    name = _PRECISION_ALIASES.get(str(precision).lower())
    if name is None:
        raise ValueError(
            f"unknown precision {precision!r}; use 'float' or 'q15'"
        )
    return name


@dataclass
class TransformResult:
    """Uniform result of one facade call.

    ``spectrum`` is ``(N,)`` for single-symbol calls and
    ``(n_symbols, N)`` for batch/stream calls.  ``cycles`` always holds
    one entry per symbol — zeros for algorithm-level backends, simulated
    cycle counts for the ASIP ones (the registry's ``emits_cycles``
    flag says which).  ``stats`` is the :class:`SimStats` *delta* this
    call retired on the backend's machine (None for backends without
    one); ``overflow_count`` is the Q1.15 saturation-count delta (0 in
    float); ``degraded`` is True when the backend produced the result on
    a fallback path (e.g. the sharded pool died and the batch ran
    serially).
    """

    spectrum: np.ndarray
    backend: str
    precision: str
    n_points: int
    cycles: list = field(default_factory=list)
    stats: SimStats = None
    overflow_count: int = 0
    degraded: bool = False

    @property
    def n_symbols(self) -> int:
        """Symbols this result covers."""
        return 1 if self.spectrum.ndim == 1 else self.spectrum.shape[0]

    @property
    def total_cycles(self) -> int:
        """Summed simulated cycles (0 for algorithm-level backends)."""
        return int(sum(self.cycles))

    @property
    def fixed_point(self) -> bool:
        """True on the Q1.15 datapath."""
        return self.precision == "q15"

    def __array__(self, dtype=None, copy=None):
        out = np.asarray(self.spectrum)
        return out.astype(dtype) if dtype is not None else out


def _stats_snapshot(stats: SimStats) -> dict:
    if stats is None:
        return None
    snap = stats.as_dict()
    snap["taken_branches"] = stats.taken_branches
    return snap


def _stats_delta(before: dict, stats: SimStats) -> SimStats:
    if stats is None:
        return None
    custom = {
        key: value - before.get(f"op_{key}", 0)
        for key, value in stats.custom_ops.items()
        if value - before.get(f"op_{key}", 0)
    }
    return SimStats(
        cycles=stats.cycles - before["cycles"],
        instructions=stats.instructions - before["instructions"],
        loads=stats.loads - before["loads"],
        stores=stats.stores - before["stores"],
        dcache_hits=stats.dcache_hits - before["dcache_hits"],
        dcache_misses=stats.dcache_misses - before["dcache_misses"],
        branches=stats.branches - before["branches"],
        taken_branches=stats.taken_branches - before["taken_branches"],
        stall_cycles=stats.stall_cycles - before["stall_cycles"],
        custom_ops=custom,
    )


def _sum_sim_stats(deltas: list) -> SimStats:
    """Sum :class:`SimStats` deltas (None when no machine was involved)."""
    deltas = [delta for delta in deltas if delta is not None]
    if not deltas:
        return None
    total = SimStats()
    for delta in deltas:
        total.cycles += delta.cycles
        total.instructions += delta.instructions
        total.loads += delta.loads
        total.stores += delta.stores
        total.dcache_hits += delta.dcache_hits
        total.dcache_misses += delta.dcache_misses
        total.branches += delta.branches
        total.taken_branches += delta.taken_branches
        total.stall_cycles += delta.stall_cycles
        for key, value in delta.custom_ops.items():
            total.custom_ops[key] = total.custom_ops.get(key, 0) + value
    return total


def concat_results(results, *, engine: "Engine" = None, n_points: int = None,
                   backend: str = None, precision: str = None
                   ) -> TransformResult:
    """Merge per-chunk :class:`TransformResult`\\ s into one batch result.

    The canonical merge path for anything that executes a stream in
    chunks — :class:`~repro.sessions.StreamSession` and `Engine.stream`
    route through it.  Spectra concatenate along the symbol axis,
    per-symbol cycles concatenate, :class:`SimStats` deltas and Q1.15
    overflow deltas sum.  ``engine`` (or the explicit keywords) supplies
    the identity for an empty merge; mixed ``n_points`` is an error.
    """
    results = list(results)
    if engine is not None:
        n_points = engine.n_points
        backend = engine.backend
        precision = engine.precision
    if not results:
        if n_points is None:
            raise ValueError(
                "cannot merge zero results without engine= or n_points="
            )
        return TransformResult(
            spectrum=np.empty((0, n_points), dtype=complex),
            backend=backend, precision=precision, n_points=n_points,
        )
    first = results[0]
    n_points = first.n_points if n_points is None else n_points
    for result in results:
        if result.n_points != n_points:
            raise ValueError(
                f"cannot merge results of different sizes "
                f"({result.n_points} != {n_points})"
            )
    return TransformResult(
        spectrum=np.concatenate(
            [np.atleast_2d(result.spectrum) for result in results]
        ),
        backend=first.backend if backend is None else backend,
        precision=first.precision if precision is None else precision,
        n_points=n_points,
        cycles=[cycle for result in results for cycle in result.cycles],
        stats=_sum_sim_stats([result.stats for result in results]),
        overflow_count=sum(result.overflow_count for result in results),
        degraded=any(result.degraded for result in results),
    )


class Engine:
    """Uniform handle over one backend implementation.

    Built by :func:`engine`; all five built-in backends (and any
    registered extension) answer the same five calls —
    :meth:`transform`, :meth:`transform_many`, :meth:`inverse`,
    :meth:`inverse_many`, :meth:`stream` — and return
    :class:`TransformResult` objects.
    """

    def __init__(self, spec: BackendSpec, impl, n_points: int,
                 precision: str, batch: int = None):
        self.spec = spec
        self.impl = impl
        self.n_points = n_points
        self.precision = precision
        self.batch = batch
        self._closed = False

    # Introspection -------------------------------------------------------

    @property
    def backend(self) -> str:
        """Registered backend name."""
        return self.spec.name

    @property
    def fixed_point(self) -> bool:
        """True on the Q1.15 datapath."""
        return self.precision == "q15"

    @property
    def fx(self):
        """The backend's :class:`FixedPointContext` (None in float)."""
        return self.impl.fx

    @property
    def stats(self) -> SimStats:
        """Live cumulative :class:`SimStats` (None without a machine)."""
        return self.impl.sim_stats

    @property
    def machine(self):
        """The underlying :class:`FFTASIP` (None for array backends)."""
        return self.impl.machine

    @property
    def degraded(self) -> bool:
        """True while the backend is on a fallback path right now.

        Only the sharded backend ever degrades (circuit breaker open,
        batches running serially); it heals itself, so this is a live
        reading — per-result markers are on :class:`TransformResult`.
        """
        return bool(getattr(self.impl, "degraded", False))

    def __repr__(self) -> str:
        return (f"Engine(n_points={self.n_points}, "
                f"backend={self.backend!r}, precision={self.precision!r})")

    # Lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker pools etc.); idempotent."""
        if not self._closed:
            self._closed = True
            self.impl.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # Uniform transform API -----------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self!r} is closed")

    def _run_many(self, blocks: np.ndarray) -> TransformResult:
        self._ensure_open()
        if self.fixed_point:
            # Rejected before any backend runs, so no counter, machine or
            # worker pool sees a batch it cannot quantise.
            require_finite(blocks)
        if not telemetry.enabled():
            return self._run_many_inner(blocks)
        with telemetry.span(
            "engine.transform", backend=self.backend,
            precision=self.precision, n_points=self.n_points,
            symbols=len(blocks),
        ):
            return self._run_many_inner(blocks)

    def _run_many_inner(self, blocks: np.ndarray) -> TransformResult:
        fx = self.impl.fx
        stats = self.impl.sim_stats
        overflow_before = fx.overflow_count if fx is not None else 0
        stats_before = _stats_snapshot(stats)
        if len(blocks):
            spectra, cycles = self.impl.transform_many(blocks)
        else:
            # One answer for an empty batch, whatever the backend.
            spectra, cycles = blocks.copy(), []
        return TransformResult(
            spectrum=spectra,
            backend=self.backend,
            precision=self.precision,
            n_points=self.n_points,
            cycles=[int(c) for c in cycles],
            stats=_stats_delta(stats_before, stats),
            overflow_count=(
                fx.overflow_count - overflow_before if fx is not None else 0
            ),
            degraded=bool(getattr(self.impl, "degraded", False)),
        )

    def _as_batch(self, blocks) -> np.ndarray:
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 2 or blocks.shape[1] != self.n_points:
            raise ValueError(
                f"expected an (n_symbols, {self.n_points}) matrix, "
                f"got shape {blocks.shape}"
            )
        return blocks

    def transform(self, x) -> TransformResult:
        """Forward FFT of one N-point symbol."""
        x = np.asarray(x, dtype=complex)
        if x.ndim != 1 or len(x) != self.n_points:
            raise ValueError(
                f"engine is planned for N={self.n_points}, "
                f"got shape {x.shape}"
            )
        result = self._run_many(x[None, :])
        result.spectrum = result.spectrum[0]
        return result

    def transform_many(self, blocks) -> TransformResult:
        """Forward FFT of an ``(n_symbols, N)`` batch.

        Every backend answers an empty batch with a ``(0, N)`` spectrum
        and raises ``ValueError`` on a Q1.15 batch holding NaN or
        infinity, before any of its state moves.
        """
        return self._run_many(self._as_batch(blocks))

    def inverse(self, spectrum) -> TransformResult:
        """Inverse FFT via the conjugation identity (one symbol).

        Every backend runs the inverse on its forward datapath through
        ``ifft(X) = conj(fft(conj(X))) / N``; in Q1.15 the forward
        transform already carries the ``1/N`` scaling, so no further
        division is applied — exactly :meth:`ArrayFFT.inverse`'s
        convention.
        """
        spectrum = np.asarray(spectrum, dtype=complex)
        result = self.transform(np.conj(spectrum))
        return self._finish_inverse(result)

    def inverse_many(self, spectra) -> TransformResult:
        """Batch inverse FFT of an ``(n_symbols, N)`` spectrum matrix."""
        spectra = self._as_batch(spectra)
        result = self._run_many(np.conj(spectra))
        return self._finish_inverse(result)

    def _finish_inverse(self, result: TransformResult) -> TransformResult:
        out = np.conj(result.spectrum)
        if not self.fixed_point:
            out = out / self.n_points
        result.spectrum = out
        return result

    def stream(self, blocks, batch: int = None,
               verify: bool = False) -> TransformResult:
        """Consume an iterable of blocks in chunks; one merged result.

        The one driver for a whole stream: the iterable is fed through
        one :class:`repro.sessions.StreamSession` in chunks of ``batch``
        symbols (default: the engine's ``batch``, else 64) — for the
        ``asip-batch`` backend each chunk is one
        :meth:`FFTASIP.run_batch` pass — and the per-chunk results merge
        into one :class:`TransformResult` via :func:`concat_results`.
        With ``verify`` every chunk is checked against a batched
        ``np.fft.fft`` reference before the next executes.  Callers that
        need incremental consumption or backpressure should hold a
        session directly (:func:`repro.session`).
        """
        self._ensure_open()
        from .sessions import StreamSession

        sess = StreamSession(self, batch=batch, verify=verify)
        results = []
        for block in blocks:
            sess.feed(block)
            results.extend(sess.drain())
        sess.flush()
        results.extend(sess.drain())
        return concat_results(results, engine=self)

    def _verify_chunk(self, blocks: np.ndarray, outputs: np.ndarray,
                      symbols_before: int) -> None:
        scale = 1.0 / self.n_points if self.fixed_point else 1.0
        tolerance = 0.05 if self.fixed_point else 1e-6
        references = np.fft.fft(blocks, axis=1) * scale
        close = np.isclose(np.asarray(outputs), references, atol=tolerance)
        bad = ~np.all(close, axis=1)
        if bad.any():
            first_bad = symbols_before + int(np.argmax(bad)) + 1
            raise AssertionError(f"streamed symbol {first_bad} is wrong")


# Backend implementations ---------------------------------------------------
#
# The contract (also documented in DESIGN.md): a backend implementation
# exposes ``transform_many(blocks) -> (spectra, per_symbol_cycles)``,
# ``close()``, and the attributes ``fx`` (FixedPointContext or None),
# ``sim_stats`` (live SimStats or None) and ``machine`` (FFTASIP or
# None).  The Engine wrapper turns those into uniform TransformResults.


class _ArrayBackend:
    """Algorithm-level backends riding on :class:`ArrayFFT`."""

    machine = None
    sim_stats = None

    def __init__(self, n_points: int, fixed_point: bool, compiled: bool):
        self.fft = ArrayFFT(n_points, fixed_point=fixed_point,
                            compiled=compiled)

    @property
    def fx(self):
        return self.fft.fx

    def transform_many(self, blocks: np.ndarray) -> tuple:
        return self.fft.transform_many(blocks), [0] * len(blocks)

    def close(self) -> None:
        pass


class _ShardedBackend:
    """Thread-sharded batches via :class:`ShardedEngine`."""

    machine = None
    sim_stats = None

    def __init__(self, n_points: int, fixed_point: bool, workers: int,
                 min_parallel_symbols: int = None):
        self.sharded = ShardedEngine(
            n_points, fixed_point=fixed_point, workers=workers,
            min_parallel_symbols=min_parallel_symbols,
        )

    @property
    def fx(self):
        return self.sharded.engine.fx

    @property
    def degraded(self) -> bool:
        """True while the breaker is open and batches run serially."""
        return self.sharded.degraded

    def transform_many(self, blocks: np.ndarray) -> tuple:
        return self.sharded.transform_many(blocks), [0] * len(blocks)

    def close(self) -> None:
        self.sharded.close()


class _AsipBackend:
    """One persistent instruction-level machine, serial per symbol."""

    def __init__(self, n_points: int, fixed_point: bool,
                 cache_config=None, pipeline=None, **machine_options):
        self.machine = FFTASIP(
            n_points, cache_config=cache_config, pipeline=pipeline,
            fixed_point=fixed_point, **machine_options,
        )
        self.program = generate_fft_program(n_points, self.machine.plan)

    @property
    def fx(self):
        return self.machine.fx

    @property
    def sim_stats(self):
        return self.machine.stats

    def transform_many(self, blocks: np.ndarray) -> tuple:
        outputs = np.empty_like(blocks)
        cycles = []
        for k in range(len(blocks)):
            out, chunk_cycles = self.machine.run_batch(
                self.program, blocks[k:k + 1]
            )
            outputs[k] = out[0]
            cycles.extend(int(c) for c in chunk_cycles)
        return outputs, cycles

    def close(self) -> None:
        pass


class _AsipBatchBackend(_AsipBackend):
    """The persistent machine driven in multi-symbol run_batch chunks."""

    DEFAULT_BATCH = 64

    def __init__(self, n_points: int, fixed_point: bool, batch: int = None,
                 **options):
        super().__init__(n_points, fixed_point, **options)
        self.batch = max(int(batch), 1) if batch else self.DEFAULT_BATCH

    def transform_many(self, blocks: np.ndarray) -> tuple:
        outputs = np.empty_like(blocks)
        cycles = []
        for lo in range(0, len(blocks), self.batch):
            chunk = blocks[lo:lo + self.batch]
            out, chunk_cycles = self.machine.run_batch(self.program, chunk)
            outputs[lo:lo + len(out)] = out
            cycles.extend(int(c) for c in chunk_cycles)
        return outputs, cycles


# Facade entry points -------------------------------------------------------


def check_workers(spec, workers: int) -> None:
    """Refuse ``workers >= 2`` on a backend without a thread pool.

    The facade's one ``workers`` rule; :class:`~repro.pipelines.Pipeline`
    applies it at construction, before any engine is built.
    """
    if workers is not None and workers >= 2 and not spec.supports_workers:
        raise ValueError(
            f"backend {spec.name!r} does not take workers; use "
            f"backend='sharded' for thread-pool sharding"
        )


def engine(n_points: int, *, backend: str = "compiled",
           precision: str = "float", workers: int = None,
           batch: int = None, **options) -> Engine:
    """Build an :class:`Engine` for ``n_points`` on a named backend.

    Parameters
    ----------
    n_points:
        FFT size (any power of two >= 4).
    backend:
        Registered backend name (see :func:`repro.backend_names`).
    precision:
        ``"float"`` (default) or ``"q15"`` (``"fixed"`` is accepted as
        an alias), checked against the backend's declared support.
    workers:
        Thread-pool size for backends declaring worker support
        (``"sharded"``); passing ``workers >= 2`` to any other backend
        is an error rather than a silent serial run.
    batch:
        Chunk size for batched/streamed execution (``asip-batch`` and
        :meth:`Engine.stream`).
    options:
        Backend-specific extras forwarded to the factory (e.g.
        ``cache_config=``/``pipeline=`` for the ASIP backends).
    """
    spec = get_backend(backend)
    resolved = normalize_precision(precision)
    if not spec.supports_precision(resolved):
        raise ValueError(
            f"backend {backend!r} does not support precision "
            f"{resolved!r} (supports: {', '.join(spec.precisions)})"
        )
    check_workers(spec, workers)
    impl = spec.factory(
        n_points, fixed_point=(resolved == "q15"), workers=workers,
        batch=batch, **options,
    )
    return Engine(spec, impl, n_points, resolved, batch)


def benchmark_backends(n_points: int, symbols: int,
                       precisions=("float", "q15"), backends=None,
                       workers: int = None, reps: int = 1,
                       seed: int = 0) -> list:
    """Time each (backend, precision) pair on one shared symbol batch.

    The single source for per-backend facade benchmarking — both
    ``python -m repro bench`` and the engine-speed perf gate call it.
    Each pair gets one warm-up pass (tables, pools, predecode) and the
    best of ``reps`` timed ``transform_many`` passes.  Cross-backend
    parity is enforced on the way: bit-identical Q1.15 spectra and
    overflow deltas, float agreement to rounding noise — divergence
    raises ``AssertionError`` (an explicit raise, so the check survives
    ``python -O``).  Returns one row dict per pair.
    """
    import time

    names = list(backends) if backends else backend_names()
    rows = []
    for precision in precisions:
        resolved = normalize_precision(precision)
        fixed = resolved == "q15"
        rng = np.random.default_rng(seed + n_points + fixed)
        blocks = rng.standard_normal((symbols, n_points)) \
            + 1j * rng.standard_normal((symbols, n_points))
        if fixed:
            blocks *= 0.3
        reference = None
        reference_overflow = None
        for name in names:
            spec = get_backend(name)
            if not spec.supports_precision(resolved):
                continue
            eng_workers = workers if spec.supports_workers else None
            with engine(n_points, backend=name, precision=resolved,
                        workers=eng_workers) as eng:
                result = eng.transform_many(blocks)  # warm
                best = None
                for _ in range(max(int(reps), 1)):
                    started = time.perf_counter()
                    result = eng.transform_many(blocks)
                    elapsed = time.perf_counter() - started
                    best = elapsed if best is None else min(best, elapsed)
            if reference is None:
                reference = result.spectrum
                reference_overflow = result.overflow_count
            elif fixed:
                if not np.array_equal(result.spectrum, reference):
                    raise AssertionError(
                        f"backend {name!r} Q1.15 spectrum diverges from "
                        f"{names[0]!r}"
                    )
                if result.overflow_count != reference_overflow:
                    raise AssertionError(
                        f"backend {name!r} overflow delta "
                        f"{result.overflow_count} != {reference_overflow}"
                    )
            elif not np.allclose(result.spectrum, reference, atol=1e-9):
                raise AssertionError(
                    f"backend {name!r} float spectrum diverges from "
                    f"{names[0]!r}"
                )
            rows.append({
                "backend": name,
                "precision": resolved,
                "n": n_points,
                "symbols": symbols,
                "workers": eng_workers,
                "wall_ms": best * 1e3,
                "symbols_per_s": symbols / best if best else 0.0,
                "cycles_per_symbol": (
                    result.total_cycles / symbols if result.cycles else 0
                ),
                "overflow": result.overflow_count,
            })
    return rows


# Built-in backend registration --------------------------------------------


def _no_workers(name: str, workers) -> None:
    if workers is not None and workers >= 2:
        raise ValueError(f"backend {name!r} does not take workers")


def _make_compiled(n_points, fixed_point, workers=None, batch=None):
    _no_workers("compiled", workers)
    return _ArrayBackend(n_points, fixed_point, compiled=True)


def _make_reference(n_points, fixed_point, workers=None, batch=None):
    _no_workers("reference", workers)
    return _ArrayBackend(n_points, fixed_point, compiled=False)


def _make_sharded(n_points, fixed_point, workers=None, batch=None,
                  min_parallel_symbols=None):
    return _ShardedBackend(
        n_points, fixed_point, workers,
        min_parallel_symbols=min_parallel_symbols,
    )


def _make_asip(n_points, fixed_point, workers=None, batch=None,
               cache_config=None, pipeline=None, **machine_options):
    _no_workers("asip", workers)
    return _AsipBackend(n_points, fixed_point, cache_config=cache_config,
                        pipeline=pipeline, **machine_options)


def _make_asip_batch(n_points, fixed_point, workers=None, batch=None,
                     cache_config=None, pipeline=None, **machine_options):
    _no_workers("asip-batch", workers)
    return _AsipBatchBackend(n_points, fixed_point, batch=batch,
                             cache_config=cache_config, pipeline=pipeline,
                             **machine_options)


def _register_builtin_backends() -> None:
    specs = [
        BackendSpec(
            name="compiled", factory=_make_compiled,
            description="compiled-plan vectorised ArrayFFT (default)",
        ),
        BackendSpec(
            name="reference", factory=_make_reference,
            description="readable per-butterfly oracle datapath",
        ),
        BackendSpec(
            name="sharded", factory=_make_sharded,
            description="thread-sharded batch ArrayFFT",
            supports_workers=True,
        ),
        BackendSpec(
            name="asip", factory=_make_asip,
            description="instruction-level ASIP, serial per symbol",
            emits_cycles=True, emits_sim_stats=True,
        ),
        BackendSpec(
            name="asip-batch", factory=_make_asip_batch,
            description="instruction-level ASIP, multi-symbol run_batch",
            emits_cycles=True, emits_sim_stats=True,
        ),
    ]
    for spec in specs:
        register_backend(spec, replace=True)


_register_builtin_backends()
