"""Streaming sessions: a queue-fed front-end over the engine facade.

A deployed multi-standard receiver does not hand the FFT stage a
finished ``(n_symbols, N)`` matrix — symbols arrive one at a time from a
front-end and results are consumed downstream at their own pace.
:class:`StreamSession` (built by :func:`repro.session`) is that
front-end for any facade backend:

* **Explicit lifecycle** — a session is *open* from construction,
  accepts symbols through :meth:`~StreamSession.feed`, hands finished
  chunks out through :meth:`~StreamSession.drain`, and is retired by
  :meth:`~StreamSession.close` (idempotent; also a context manager).
  :meth:`~StreamSession.flush` forces the pending partial chunk through
  early.
* **Chunked execution** — fed symbols are buffered into chunks of
  ``batch`` symbols; each full chunk runs as one
  :meth:`~repro.engines.Engine.transform_many` pass (for the
  ``asip-batch`` backend that is one :meth:`FFTASIP.run_batch` program
  pass) and is queued as one uniform
  :class:`~repro.engines.TransformResult` — the same schema every other
  facade call returns, per-chunk.
* **Bounded buffering with backpressure** — at most ``capacity``
  symbols may sit in the session (pending input plus undrained output).
  A single-threaded producer that overruns gets an immediate
  :class:`SessionBackpressure`; a threaded producer may pass
  ``feed(..., wait=True)`` (or ``wait=`` a number of seconds) to block
  until a consumer's ``drain`` frees space.  Nothing is ever silently
  dropped.

:meth:`Engine.stream <repro.engines.Engine.stream>` is the driver for a
whole iterable: it feeds it through one session and merges the chunk
results.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from .engines import Engine, TransformResult, concat_results
from .engines import engine as build_engine

from . import telemetry

__all__ = [
    "SessionBackpressure",
    "SessionClosed",
    "SessionExecutionTimeout",
    "StreamSession",
    "run_with_watchdog",
    "session",
]


class SessionClosed(RuntimeError):
    """Raised when feeding or flushing a closed session."""


class SessionBackpressure(RuntimeError):
    """Raised when a feed would exceed the session's bounded buffer.

    The producer is ahead of the consumer: drain finished chunks (or
    feed with ``wait=`` from a separate producer thread) and retry.
    """


class SessionExecutionTimeout(RuntimeError):
    """Raised when one engine chunk exceeds the session's ``exec_timeout``.

    The watchdog cannot preempt the stuck engine call — the worker
    thread is abandoned and keeps running — so after this error the
    engine must be treated as poisoned: dispose of it (the serve tier's
    supervisor does) rather than feeding it more work.
    """


def run_with_watchdog(fn, args=(), timeout: float = None,
                      description: str = "engine call"):
    """Run ``fn(*args)`` bounded by ``timeout`` seconds.

    With ``timeout=None`` this is a plain call.  Otherwise ``fn`` runs
    on a daemon thread; if it finishes in time its result (or raised
    exception) propagates, and if it does not a structured
    :class:`SessionExecutionTimeout` is raised while the stuck thread
    is abandoned.  This turns a hung engine — a wedged worker pool, a
    pathological input — into a bounded, reportable failure instead of
    a silent hang, which is what lets the serve tier honour deadlines.
    """
    if timeout is None:
        return fn(*args)
    box = {}
    done = threading.Event()
    # Trace context crosses the thread boundary: spans the worker opens
    # (e.g. engine.transform) parent under the submitting thread's span.
    parent_span = telemetry.current_span()

    def _target():
        try:
            with telemetry.attach(parent_span):
                box["result"] = fn(*args)
        except BaseException as exc:  # propagate to the caller
            box["error"] = exc
        finally:
            done.set()

    worker = threading.Thread(
        target=_target, name="session-watchdog", daemon=True,
    )
    worker.start()
    if not done.wait(max(float(timeout), 0.0)):
        raise SessionExecutionTimeout(
            f"{description} exceeded its {timeout} s deadline; the "
            f"stuck call was abandoned and its engine should be "
            f"disposed"
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


class StreamSession:
    """Queue-fed streaming execution on one facade :class:`Engine`.

    Parameters
    ----------
    engine:
        The facade engine executing the chunks.  The session does not
        close it unless ``own_engine=True``.
    batch:
        Symbols per executed chunk (default: the engine's ``batch``,
        else 64).
    capacity:
        Bound on buffered symbols — pending input plus undrained
        output.  Defaults to ``8 * batch``; must be at least ``batch``.
    verify:
        Check every executed chunk against a batched ``np.fft.fft``
        reference (same tolerance rules as :meth:`Engine.stream`).
    own_engine:
        Close the engine when the session closes.
    exec_timeout:
        Bound (seconds) on each engine chunk execution, enforced by
        :func:`run_with_watchdog`; a stuck chunk raises
        :class:`SessionExecutionTimeout` instead of hanging the
        session.  ``None`` (the default) trusts the engine.
    """

    DEFAULT_BATCH = 64

    def __init__(self, engine: Engine, batch: int = None,
                 capacity: int = None, verify: bool = False,
                 own_engine: bool = False, exec_timeout: float = None):
        self.engine = engine
        self.batch = max(int(batch or engine.batch or self.DEFAULT_BATCH), 1)
        self.capacity = (
            8 * self.batch if capacity is None
            else max(int(capacity), self.batch)
        )
        self.verify = verify
        self._own_engine = own_engine
        self.exec_timeout = (
            None if exec_timeout is None else max(float(exec_timeout), 0.0)
        )
        self._pending: list = []          # input blocks awaiting execution
        self._ready: deque = deque()      # finished TransformResults
        self._ready_symbols = 0
        self._in_flight = 0               # symbols of the executing chunk
        self._symbols_fed = 0
        self._symbols_done = 0
        self._closed = False
        self._closing = False
        # One condition guards all buffer state and signals both "room
        # freed" (drain) and "results available / closed" (execute,
        # close) to threaded producers and consumers.
        self._cond = threading.Condition()
        # Chunk execution is serialised under this lock: the engine is
        # not thread-safe, so exactly one chunk runs at a time, and
        # chunks are cut batch-at-a-time under the condition variable,
        # so concurrent producers never split an off-size chunk.  The
        # lock is only ever held while a chunk actually executes —
        # never across a capacity wait — so consumers (drain, flush)
        # and waiting producers cannot deadlock on it.
        self._exec_lock = threading.Lock()

    # Introspection -------------------------------------------------------

    @property
    def n_points(self) -> int:
        """FFT size of the underlying engine."""
        return self.engine.n_points

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def pending_symbols(self) -> int:
        """Fed symbols not yet executed (always < ``batch`` after feed)."""
        return len(self._pending)

    @property
    def ready_symbols(self) -> int:
        """Executed symbols not yet drained."""
        return self._ready_symbols

    @property
    def buffered_symbols(self) -> int:
        """Total symbols held by the session (pending, executing, ready)."""
        return len(self._pending) + self._in_flight + self._ready_symbols

    @property
    def symbols_fed(self) -> int:
        """Total symbols accepted over the session's lifetime."""
        return self._symbols_fed

    @property
    def symbols_done(self) -> int:
        """Total symbols executed over the session's lifetime."""
        return self._symbols_done

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"StreamSession(n_points={self.n_points}, "
                f"backend={self.engine.backend!r}, batch={self.batch}, "
                f"capacity={self.capacity}, {state}, "
                f"pending={self.pending_symbols}, "
                f"ready={self.ready_symbols})")

    # Lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush the pending partial chunk and retire the session.

        Finished results stay drainable after close; feeding is refused.
        Producers blocked in ``feed(..., wait=)`` and consumers blocked
        in ``results(wait=...)`` are woken promptly.  Idempotent.
        """
        if self._closed:
            return
        # Raise the closing flag first: feeds racing this close either
        # refuse (the flag is checked under the condition variable
        # before every append) or their append lands before the flag
        # and is picked up by the final drain below — nothing is
        # silently dropped, and no symbol reaches a closed engine.
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._execute_pending(include_partial=True)
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._own_engine:
            self.engine.close()

    def abort(self) -> int:
        """Retire the session *without* flushing; returns dropped symbols.

        The emergency exit :meth:`close` must not be: close flushes the
        pending partial chunk through the engine, which is exactly
        wrong when the engine just timed out or is otherwise poisoned.
        ``abort`` discards pending input, keeps already-finished chunks
        drainable, wakes all waiters, and closes an owned engine.
        Idempotent, and safe after :meth:`close`.
        """
        with self._cond:
            dropped = len(self._pending)
            self._pending.clear()
            self._closing = True
            self._closed = True
            self._cond.notify_all()
        if self._own_engine:
            try:
                self.engine.close()
            except Exception:  # engine may be mid-failure; best effort
                pass
        return dropped

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # Producer side -------------------------------------------------------

    def feed(self, blocks, wait=None) -> int:
        """Queue one ``(N,)`` block or an iterable of them; returns count.

        Each accepted block is copied (producers may reuse one buffer).
        Whenever ``batch`` symbols are pending they execute immediately
        as one chunk.  If accepting a block would push
        :attr:`buffered_symbols` past ``capacity``, the session applies
        backpressure according to ``wait``: ``None`` raises
        :class:`SessionBackpressure` at once; ``True`` blocks until a
        consumer drains space; a number of seconds bounds that block,
        so a producer whose consumer died raises
        :class:`SessionBackpressure` after the deadline instead of
        hanging forever.  A blocked producer waits on the session's
        condition variable, which every room-freeing event (a drain, an
        abort, a failed chunk) and :meth:`close` notify, so it wakes as
        soon as it can proceed — or with :class:`SessionClosed`.

        Feeds are multi-producer safe: appends and chunk cuts are
        serialised under the session's condition variable (chunks are
        cut at exactly ``batch`` symbols however producers interleave)
        and the engine executes one chunk at a time — concurrent
        producer threads need no locking of their own.  Capacity waits
        hold no lock besides the condition variable, so consumers keep
        draining and blocked producers always resolve.

        A :class:`SessionBackpressure`, :class:`SessionClosed` or
        :class:`SessionExecutionTimeout` raised part-way carries
        ``accepted``: how many of this call's blocks were queued first.
        """
        accepted = 0
        try:
            if self._closed or self._closing:
                raise SessionClosed(f"{self!r} is closed")
            blocks = np.asarray(blocks, dtype=complex)
            if blocks.ndim == 1:
                blocks = blocks[None, :]
            if blocks.ndim != 2 or blocks.shape[1] != self.n_points:
                raise ValueError(
                    f"expected an (N,) block or (k, {self.n_points}) "
                    f"batch, got shape {blocks.shape}"
                )
            for block in blocks:
                run_chunk = False
                with self._cond:
                    # Re-checked under the lock: a close() racing this
                    # feed either wins here (we refuse) or sees our
                    # append in its final flush — symbols are never
                    # silently dropped.
                    self._wait_for_room(wait)
                    self._pending.append(np.array(block))
                    self._symbols_fed += 1
                    run_chunk = len(self._pending) >= self.batch
                accepted += 1
                if run_chunk:
                    self._execute_pending()
        except (SessionBackpressure, SessionClosed,
                SessionExecutionTimeout) as exc:
            exc.accepted = accepted
            raise
        return accepted

    def _wait_for_room(self, wait) -> None:
        # Caller holds self._cond.
        if self._closed or self._closing:
            raise SessionClosed(f"{self!r} is closed")
        if self.buffered_symbols < self.capacity:
            return
        if wait is None or wait is False:
            raise SessionBackpressure(
                f"session buffer full ({self.buffered_symbols}/"
                f"{self.capacity} symbols); drain() finished chunks or "
                f"feed with wait="
            )
        budget = None if wait is True else max(float(wait), 0.0)
        # One predicate wait (Mesa monitor semantics): every event that
        # frees room or closes the session notifies the condition.
        self._cond.wait_for(
            lambda: (self.buffered_symbols < self.capacity
                     or self._closed or self._closing),
            timeout=budget,
        )
        if self._closed or self._closing:
            raise SessionClosed(f"{self!r} closed while waiting to feed")
        if self.buffered_symbols >= self.capacity:
            raise SessionBackpressure(
                f"session buffer still full after waiting {budget} s "
                f"({self.buffered_symbols}/{self.capacity} symbols)"
            )

    def flush(self) -> None:
        """Execute the pending partial chunk now (no-op when empty).

        Serialised with producer-triggered execution on the engine, so
        a flush never races a chunk mid-flight.  It waits on chunk
        *executions* only (the in-flight one, plus whatever producers
        keep feeding while it drains) — never on a producer's capacity
        timeout.
        """
        if self._closed:
            raise SessionClosed(f"{self!r} is closed")
        self._execute_pending(include_partial=True)

    def _execute_pending(self, include_partial: bool = False) -> None:
        """Run pending symbols through the engine, one chunk at a time.

        Chunks are cut at exactly ``batch`` symbols under the condition
        variable (so concurrent producers never split an off-size
        chunk); ``include_partial`` also drains a final short chunk
        (flush/close).  The engine lock is held only while chunks
        actually execute; whoever holds it keeps cutting until the
        pending queue is below one batch, so no executable chunk is
        ever stranded.
        """
        with self._exec_lock:
            while True:
                with self._cond:
                    count = len(self._pending)
                    if count >= self.batch:
                        take = self.batch
                    elif count and include_partial:
                        take = count
                    else:
                        return
                    chunk = np.stack(self._pending[:take])
                    del self._pending[:take]
                    self._in_flight = take
                    symbols_before = self._symbols_done
                # The engine call runs outside the condition variable
                # so consumers can drain earlier chunks while this one
                # computes.
                try:
                    with telemetry.span(
                        "session.chunk", symbols=take,
                        backend=self.engine.backend,
                    ):
                        result = run_with_watchdog(
                            self.engine.transform_many, (chunk,),
                            timeout=self.exec_timeout,
                            description=(
                                f"chunk of {take} symbols on "
                                f"{self.engine.backend!r}"
                            ),
                        )
                        if self.verify:
                            self.engine._verify_chunk(
                                chunk, result.spectrum, symbols_before
                            )
                except BaseException:
                    with self._cond:
                        self._in_flight = 0
                        self._cond.notify_all()
                    raise
                with self._cond:
                    self._in_flight = 0
                    self._ready.append(result)
                    self._ready_symbols += take
                    self._symbols_done += take
                    self._cond.notify_all()

    # Consumer side -------------------------------------------------------

    def drain(self, max_results: int = None) -> list:
        """Pop finished chunks; returns a list of :class:`TransformResult`.

        Results come out in execution order, one per chunk.  Draining
        frees buffer space and wakes producers blocked in
        ``feed(..., wait=...)``.  Allowed on a closed session (the tail
        of the stream outlives ``close``).
        """
        out = []
        with self._cond:
            while self._ready and (max_results is None
                                   or len(out) < max_results):
                result = self._ready.popleft()
                self._ready_symbols -= result.n_symbols
                out.append(result)
            if out:
                self._cond.notify_all()
        return out

    def results(self, wait: float = None):
        """Iterate over finished chunks, draining as they are popped.

        With ``wait=None`` (the default) the generator yields whatever
        is currently finished and returns — a non-blocking sweep for
        single-threaded loops.  A threaded consumer passes ``wait``
        (seconds): the generator then blocks up to ``wait`` for each
        next chunk and stops only when the session is closed and empty,
        or a wait times out::

            for chunk in session.results(wait=5.0): ...
        """
        while True:
            drained = self.drain()
            for result in drained:
                yield result
            if drained:
                continue
            if self._closed:
                return
            if wait is None:
                return
            with self._cond:
                ok = self._cond.wait_for(
                    lambda: self._ready or self._closed, timeout=wait,
                )
            if not ok:
                return

    def merged(self) -> TransformResult:
        """Drain everything and merge into one :class:`TransformResult`."""
        results = self.drain()
        return concat_results(results, engine=self.engine)


def session(n_points: int, *, backend: str = "compiled",
            precision: str = "float", workers: int = None,
            batch: int = None, capacity: int = None,
            verify: bool = False, exec_timeout: float = None,
            **options) -> StreamSession:
    """Open a :class:`StreamSession` on a fresh facade engine.

    The facade twin of :func:`repro.engine` for streaming workloads:
    same ``backend`` / ``precision`` / ``workers`` / ``batch``
    parameters, plus the session's ``capacity`` bound, optional
    per-chunk ``verify`` and the ``exec_timeout`` watchdog bound.  The session owns the engine and closes it on
    :meth:`StreamSession.close` / context-manager exit.
    """
    eng = build_engine(n_points, backend=backend, precision=precision,
                       workers=workers, batch=batch, **options)
    return StreamSession(eng, batch=batch, capacity=capacity,
                         verify=verify, own_engine=True,
                         exec_timeout=exec_timeout)
