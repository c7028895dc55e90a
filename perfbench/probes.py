"""Per-layer timing from outside the program.

The traced benchmark run builds its workloads with a :class:`Probes`
object.  It wraps each pipeline stage in a :class:`TimedStage` and
replaces public methods on the instances a workload owns (engines,
backend implementations, the sharded engine, the ASIP machine, serve
sessions and leases) with timing wrappers.  Every wrapper adds busy
seconds or counts to one shared accumulator.  Nothing here touches
``repro.telemetry``, and the untraced run builds no probes at all.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

__all__ = ["Probes", "TimedStage"]


class _TimedProxy:
    """Forward every attribute of ``target``; time the methods named in
    ``methods`` (method name -> ``(accumulator key, on_call or None)``)."""

    def __init__(self, probes, target, methods: dict):
        self._probes = probes
        self._target = target
        self._methods = methods

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        spec = self._methods.get(name)
        if spec is None:
            return attr
        key, on_call = spec
        return self._probes.timed(key, attr, on_call)


class TimedStage:
    """A pipeline stage whose ``run`` adds its busy time to the probes.

    Chains accept stage objects, so the traced run passes these in place
    of the registered names.  The chain's first stage also attaches the
    probes to each run's fresh context (see :meth:`Probes.attach`).
    """

    def __init__(self, inner, probes: "Probes", attach: bool = False):
        self.inner = inner
        self.probes = probes
        self.attach = attach
        self.name = inner.name
        self.consumes = inner.consumes
        self.produces = inner.produces

    def run(self, ctx, data):
        if self.attach:
            self.probes.attach(ctx)
        start = time.perf_counter()
        try:
            return self.inner.run(ctx, data)
        finally:
            self.probes.add(f"stage.{self.name}.s",
                            time.perf_counter() - start)


class Probes:
    """Thread-safe accumulator of busy seconds and counts."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._lock = threading.Lock()
        self._instrumented = set()
        self.sharded = []   # ShardedEngine instances seen (breaker state)

    # Accumulation --------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.totals[key] += value

    def get(self, key: str) -> float:
        with self._lock:
            return self.totals.get(key, 0.0)

    def reset(self) -> None:
        """Forget what set-up accumulated; the wrappers stay installed."""
        with self._lock:
            self.totals.clear()

    def timed(self, key: str, fn, on_call=None):
        """``fn`` wrapped so each call adds its duration under ``key``;
        ``on_call(*args)`` runs first, untimed, to bump counters."""
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(key, time.perf_counter() - start)
        return wrapper

    def patch(self, obj, method: str, key: str, on_call=None) -> None:
        """Replace ``obj.method`` on the instance with a timed wrapper."""
        setattr(obj, method, self.timed(key, getattr(obj, method), on_call))

    def counter(self, key: str):
        """An ``on_call`` hook counting calls under ``key``."""
        return lambda *args: self.add(key, 1)

    # Layer instrumentation -----------------------------------------------

    def stages(self, names) -> list:
        """Timed stage objects for a chain of registered stage names."""
        from repro.pipelines import build_stage

        return [TimedStage(build_stage(name), self, attach=index == 0)
                for index, name in enumerate(names)]

    def attach(self, ctx) -> None:
        """Time the coding and ofdm objects of one run's context and
        instrument its engines (each engine once)."""
        for engine in (ctx.engine, ctx.tx_engine):
            if engine is not None:
                self.engine(engine)
        if ctx.constellation is not None:
            ctx.constellation = _TimedProxy(self, ctx.constellation, {
                "map_bits": ("ofdm.map.s", None),
                "unmap_symbols": ("ofdm.unmap.s", None),
            })
        if ctx.code is not None:
            steps = ctx.code_geometry.steps

            def count_steps(llrs, *rest):
                self.add("coding.trellis_steps", np.shape(llrs)[0] * steps)

            ctx.code = _TimedProxy(self, ctx.code, {
                "encode": ("coding.encode.s", None),
                "decode": ("coding.decode.s", count_steps),
            })
        if ctx.interleaver is not None:
            ctx.interleaver = _TimedProxy(self, ctx.interleaver, {
                "interleave": ("coding.interleave.s", None),
                "deinterleave": ("coding.interleave.s", None),
            })
        if ctx.demapper is not None:
            ctx.demapper = _TimedProxy(self, ctx.demapper, {
                "llrs": ("coding.soft_demod.s", None),
            })

    def engine(self, engine) -> None:
        """Instrument one facade engine and the layers beneath it."""
        with self._lock:
            if id(engine) in self._instrumented:
                return
            self._instrumented.add(id(engine))

        def count(blocks, *rest):
            self.add("engines.calls", 1)
            self.add("engines.symbols", len(blocks))

        for method in ("transform_many", "inverse_many"):
            self.patch(engine, method, "engines.s", on_call=count)
        impl = engine.impl
        self.patch(impl, "transform_many", "engines.backend.s")
        sharded = getattr(impl, "sharded", None)
        if sharded is not None:
            self.sharded.append(sharded)

            def fan_out(blocks, *rest):
                self.add("core.parallel.calls", 1)
                if (sharded.workers >= 2 and not sharded.degraded
                        and len(blocks) >= sharded.min_parallel_symbols):
                    self.add("core.parallel.pooled", 1)
                    # The shards go out and their spectra come back.
                    self.add("core.parallel.bytes_moved",
                             2 * np.asarray(blocks).nbytes)

            self.patch(sharded, "transform_many", "core.parallel.s",
                       on_call=fan_out)
            self.array_fft(sharded.engine)
        fft = getattr(impl, "fft", None)
        if fft is not None:
            self.array_fft(fft)

    def array_fft(self, fft) -> None:
        # ArrayFFT.inverse_many runs through transform_many, so this one
        # wrapper covers both directions.
        self.patch(fft, "transform_many", "core.array_fft.s")
