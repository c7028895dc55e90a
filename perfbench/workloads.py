"""The benchmark's four workloads.

Each workload draws everything from the benchmark seed: one seed per
operation (a pipeline burst) or one input stream per serve client.  It
runs operations in a closed loop for a fixed wall time, times each one,
and checks every output outside the timed region.  The program only
ever sees the generated inputs.

================ =========================================================
``coded-rx``     ``dvbt-2k`` preset (2048-pt QPSK, K=7 rate-2/3 soft
                 Viterbi) on the default ``compiled`` backend, 4-symbol
                 bursts; Viterbi ``decode`` dominates the wall time
``bulk-fft``     ``uwb-ofdm`` preset (1024-pt float) with ``workers=2``,
                 256-symbol bursts: both FFTs cross the process pool
``asip-fft``     ``spectral`` preset (Q1.15, scale 0.25) on ``asip-batch``:
                 64 symbols at N=1024 (fits the modelled D-cache) then 8
                 at N=8192 (spills it) per burst
``serve-mix``    two closed-loop client threads on one ``SessionServer``
                 (``batch=8``, compiled float): 4-symbol N=64 interactive
                 and 16-symbol N=1024 bulk requests, a fresh session per
                 tenant every 16 requests
================ =========================================================
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import defaultdict

import numpy as np

import repro
from repro.scenarios import get_scenario
from repro.serve import ServeError
from repro.sessions import (
    SessionBackpressure,
    SessionClosed,
    SessionExecutionTimeout,
)

__all__ = ["Run", "WORKLOADS", "DIGEST_OPERATIONS", "TAIL_PERCENTILE"]

#: operations per digest key hashed into the output digest; fixed so
#: two runs with one seed hash the same work whatever their length.
DIGEST_OPERATIONS = 8

_SEED_BOUND = 2 ** 63

#: Latency is reported at this percentile, and ``symbols_per_s`` as the
#: throughput that this share of windows reaches.  On a shared host the
#: same code runs up to 1.7x faster or slower for stretches of seconds
#: to minutes, and the mix of the two speeds changes from run to run;
#: a median flips between them, while the tail tracks the slower speed,
#: which some stretch of nearly every run shows.
TAIL_PERCENTILE = 95


class Run:
    """What one measurement loop saw.  Thread-safe for serve clients.

    ``request_kind`` names the operation class whose latency is the
    workload's request latency.
    """

    def __init__(self, request_kind: str):
        self.request_kind = request_kind
        self.latencies = defaultdict(list)   # operation class -> seconds
        self.completions = []                # (end offset s, symbols)
        self.attempted = 0
        self.failed = 0
        self.counts = defaultdict(float)     # exact per-run counters
        self.wall = 0.0
        self.symbols_per_s = 0.0
        self.started = time.perf_counter()
        self._digests = {}
        self._lock = threading.Lock()

    def record(self, kind: str, began: float, ended: float, symbols: int,
               ok: bool) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 0 if ok else 1
            self.latencies[kind].append(ended - began)
            self.completions.append((ended - self.started, symbols))

    def fail(self) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def digest(self, key: str, *parts) -> None:
        """Hash ``parts`` (arrays or JSON-able values) into ``key``'s
        digest, for the first :data:`DIGEST_OPERATIONS` operations."""
        with self._lock:
            hasher, done = self._digests.get(key, (hashlib.sha256(), 0))
            if done >= DIGEST_OPERATIONS:
                return
            for part in parts:
                if isinstance(part, np.ndarray):
                    hasher.update(np.ascontiguousarray(part).tobytes())
                else:
                    hasher.update(json.dumps(part, sort_keys=True).encode())
            self._digests[key] = (hasher, done + 1)

    @property
    def digests(self) -> dict:
        return {key: {"sha256": hasher.hexdigest(), "operations": done}
                for key, (hasher, done) in sorted(self._digests.items())}


class Workload:
    """Common lifecycle: ``setup`` (build + one warm operation, not
    recorded), ``measure(seconds)``, ``close``."""

    name = None

    def __init__(self, seed: int, probes=None, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.probes = probes

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Run:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _PipelineWorkload(Workload):
    """One operation = one burst through one or more scenario pipelines."""

    def _build(self, scenario: str, **overrides):
        spec = get_scenario(scenario)
        if self.probes is not None:
            overrides["stages"] = self.probes.stages(spec.stages)
        return spec.build(**overrides)

    def _run(self, pipe, symbols: int, seed: int):
        if self.probes is None:
            return pipe.run(symbols=symbols, seed=seed)
        start = time.perf_counter()
        try:
            return pipe.run(symbols=symbols, seed=seed)
        finally:
            self.probes.add("pipelines.run.s", time.perf_counter() - start)

    def setup(self) -> None:
        self.build()
        self.burst(int(self.rng.integers(_SEED_BOUND)))

    def measure(self, seconds: float) -> Run:
        run = Run("burst")
        while True:
            seed = int(self.rng.integers(_SEED_BOUND))
            began = time.perf_counter()
            results = self.burst(seed)
            ended = time.perf_counter()
            ok = self.check(results, run)
            run.record("burst", began, ended, self.burst_symbols, ok)
            if ended - run.started >= seconds:
                break
        run.wall = time.perf_counter() - run.started
        # Each burst is one throughput window.
        run.symbols_per_s = float(np.percentile(
            self.burst_symbols / np.asarray(run.latencies["burst"]),
            100 - TAIL_PERCENTILE))
        return run

    def close(self) -> None:
        for pipe in getattr(self, "pipes", ()):
            pipe.close()


class CodedRx(_PipelineWorkload):
    name = "coded-rx"
    burst_symbols = 4

    def build(self) -> None:
        self.pipes = [self._build("dvbt-2k")]

    def burst(self, seed: int) -> list:
        return [self._run(self.pipes[0], self.burst_symbols, seed)]

    def check(self, results, run: Run) -> bool:
        result = results[0]
        errors = result.metrics["bit_errors"]
        run.count("coding.bit_errors", errors)
        run.digest("decoded_bits", result.stage_outputs["decode"])
        return errors == 0


class BulkFft(_PipelineWorkload):
    name = "bulk-fft"

    def __init__(self, seed: int, probes=None, tiny: bool = False):
        super().__init__(seed, probes, tiny)
        # Bursts stay at or above MIN_PARALLEL_SYMBOLS so they shard.
        self.burst_symbols = 64 if tiny else 256

    def build(self) -> None:
        self.pipes = [self._build("uwb-ofdm", workers=2)]

    def burst(self, seed: int) -> list:
        return [self._run(self.pipes[0], self.burst_symbols, seed)]

    def check(self, results, run: Run) -> bool:
        result = results[0]
        run.digest("decoded_bits", result.stage_outputs["demodulate"])
        return result.metrics["bit_errors"] == 0


class AsipFft(_PipelineWorkload):
    name = "asip-fft"

    def __init__(self, seed: int, probes=None, tiny: bool = False):
        super().__init__(seed, probes, tiny)
        self.sizes = ((1024, 8), (8192, 2)) if tiny else \
            ((1024, 64), (8192, 8))
        self.burst_symbols = sum(count for _, count in self.sizes)

    def build(self) -> None:
        self.pipes = []
        self.references = []
        for n_points, _ in self.sizes:
            pipe = self._build("spectral", backend="asip-batch",
                               n_points=n_points)
            # The machine's runaway guard counts instructions over its
            # whole life, so the default 5e7 would abort a long-lived
            # machine after ~200 bursts; lift it out of reach.
            pipe.engine.machine.max_instructions = 2 ** 62
            if self.probes is not None:
                self.probes.patch(pipe.engine.machine, "run_batch",
                                  f"asip.run_batch.n{n_points}.s",
                                  self.probes.counter("asip.run_batch.calls"))
            self.pipes.append(pipe)
            self.references.append(
                repro.engine(n_points, backend="compiled", precision="q15")
            )

    def burst(self, seed: int) -> list:
        seeds = np.random.default_rng(seed).integers(
            _SEED_BOUND, size=len(self.sizes))
        return [self._run(pipe, count, int(size_seed))
                for pipe, (_, count), size_seed
                in zip(self.pipes, self.sizes, seeds)]

    def check(self, results, run: Run) -> bool:
        ok = True
        for (n_points, count), result, reference in zip(
                self.sizes, results, self.references):
            got = result.transform
            want = reference.transform_many(
                result.stage_outputs["block-source"])
            ok &= (np.array_equal(got.spectrum, want.spectrum)
                   and got.overflow_count == want.overflow_count)
            stats = got.stats.as_dict()
            for key, value in stats.items():
                run.count(f"n{n_points}.{key}", value)
            run.count(f"n{n_points}.symbols", count)
            run.count(f"n{n_points}.overflow", got.overflow_count)
            run.digest(f"n{n_points}", got.spectrum, got.overflow_count,
                       stats)
        return bool(ok)

    def close(self) -> None:
        super().close()
        for reference in getattr(self, "references", ()):
            reference.close()


class ServeMix(Workload):
    name = "serve-mix"
    #: tenant class -> (FFT size, symbols per request)
    CLASSES = {"interactive": (64, 4), "bulk": (1024, 16)}
    BATCH = 8
    REQUESTS_PER_SESSION = 16
    DEADLINE_S = 10.0
    #: throughput windows are this many seconds of wall time
    WINDOW_S = 1.0

    def setup(self) -> None:
        self.server = repro.SessionServer(batch=self.BATCH)
        self.rngs = {kind: np.random.default_rng(
            self.rng.integers(_SEED_BOUND)) for kind in self.CLASSES}
        self._instrumented = set()
        warm = Run("interactive")
        for kind in self.CLASSES:
            self._open(kind, warm)
            self._request(kind, warm)

    def _open(self, kind: str, run: Run) -> None:
        start = time.perf_counter()
        state = self.server.open_session(kind, self.CLASSES[kind][0])
        run.count("serve.open_session.s", time.perf_counter() - start)
        run.count("serve.open_session.calls")
        if self.probes is not None:
            self._instrument(kind, state)

    def _reopen(self, kind: str, run: Run) -> None:
        start = time.perf_counter()
        self.server.close_session(kind)
        run.count("serve.close_session.s", time.perf_counter() - start)
        run.count("serve.close_session.calls")
        self._open(kind, run)

    def _instrument(self, kind: str, state) -> None:
        probes = self.probes
        probes.patch(state.session, "feed", f"sessions.{kind}.feed.s")
        probes.patch(state.session, "flush", f"sessions.{kind}.flush.s")
        probes.patch(state.lease, "transform_many", f"serve.{kind}.lease.s")
        engine = state.lease.engine
        if id(engine) not in self._instrumented:
            self._instrumented.add(id(engine))
            probes.engine(engine)
            probes.patch(engine, "transform_many", f"serve.{kind}.exec.s")

    def _request(self, kind: str, run: Run) -> None:
        n_points, symbols = self.CLASSES[kind]
        rng = self.rngs[kind]
        blocks = (rng.standard_normal((symbols, n_points))
                  + 1j * rng.standard_normal((symbols, n_points)))
        began = time.perf_counter()
        try:
            self.server.submit(kind, blocks, deadline=self.DEADLINE_S)
            submitted = time.perf_counter()
            self.server.flush(kind)
            chunks = self.server.drain(kind)
        except (ServeError, SessionBackpressure, SessionClosed,
                SessionExecutionTimeout):
            run.fail()
            self._reopen(kind, run)
            return
        ended = time.perf_counter()
        if self.probes is not None:
            self.probes.add(f"serve.{kind}.submit.s", submitted - began)
        spectra = np.concatenate([chunk.spectrum for chunk in chunks])
        ok = (spectra.shape == blocks.shape
              and np.allclose(spectra, np.fft.fft(blocks, axis=1),
                              atol=1e-6))
        if not ok:
            run.count("serve.mismatches")
        run.digest(kind, spectra)
        run.record(kind, began, ended, symbols, ok)

    def _client(self, kind: str, run: Run, stop_at: float,
                errors: list) -> None:
        try:
            served = 0
            while time.perf_counter() < stop_at:
                self._request(kind, run)
                served += 1
                if served % self.REQUESTS_PER_SESSION == 0:
                    self._reopen(kind, run)
        except BaseException as exc:  # re-raised by measure()
            errors.append(exc)

    def measure(self, seconds: float) -> Run:
        run = Run("interactive")
        stop_at = run.started + seconds
        errors = []
        clients = [
            threading.Thread(target=self._client,
                             args=(kind, run, stop_at, errors),
                             name=f"perfbench-{kind}")
            for kind in self.CLASSES
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        if errors:
            raise errors[0]
        run.wall = time.perf_counter() - run.started
        windows = max(int(seconds / self.WINDOW_S), 1)
        width = seconds / windows
        per_window = np.zeros(windows)
        for ended, symbols in run.completions:
            if ended < seconds:
                per_window[int(ended // width)] += symbols
        run.symbols_per_s = float(np.percentile(
            per_window / width, 100 - TAIL_PERCENTILE))
        totals = self.server.metrics.totals()
        pool = self.server.pool.stats()
        for key in ("shed", "backpressure", "timeouts"):
            run.count(f"serve.{key}", totals[key])
        run.count("serve.pool.built", pool["built"])
        run.count("serve.pool.reused", pool["reused"])
        return run

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close()


WORKLOADS = {cls.name: cls for cls in (CodedRx, BulkFft, AsipFft, ServeMix)}
