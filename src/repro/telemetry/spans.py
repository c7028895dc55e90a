"""Span-based tracing with thread-local context propagation.

One :class:`Tracer` collects :class:`Span` records — named, nested,
attributed intervals measured on ``time.perf_counter`` relative to the
tracer's epoch.  Each thread keeps its own current-span stack (a
``threading.local``), so concurrently executing tenants/stages nest
correctly without any locking on the hot path; finishing a span takes
the tracer lock once to append it to the finished list.

The module-level API is what instrumented code calls:

* :func:`span` — open a nested span as a context manager;
* :func:`event` — attach an instant event to the current span (or to
  the tracer itself when no span is open — breaker state flips from
  pool teardown threads land here);
* :func:`current_span` / :func:`attach` — capture the caller's span
  and re-parent work executed on another thread under it (the session
  watchdog and the serve tier use this);
* :func:`trace` — install a fresh tracer for a ``with`` block;
* :func:`enabled` — is any tracer installed right now?

**Disabled-overhead rule** (pinned by a call-count gate in
``tests/test_telemetry.py`` and by the full engine-speed bench's
telemetry floor): with no tracer installed, :func:`span` returns one
cached no-op context manager — a module attribute load, a ``None``
check and a constant return.  No ``Span`` object, no clock read, no lock.  Hot
loops that want to skip even argument building can guard with
``if telemetry.enabled():``.
"""

from __future__ import annotations

import itertools
import threading
import time

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "span",
    "event",
    "current_span",
    "attach",
    "trace",
    "enabled",
    "active_tracer",
    "install",
    "uninstall",
]


class Span:
    """One named interval: attributes, instant events, parent linkage.

    Times (``start`` / ``end``) are seconds relative to the owning
    tracer's epoch; ``duration`` is available once the span finished.
    """

    __slots__ = ("name", "span_id", "parent_id", "attributes", "events",
                 "start", "end", "thread_id", "thread_name")

    is_recording = True

    def __init__(self, name: str, span_id: int, parent_id, start: float,
                 attributes: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = None
        self.attributes = attributes
        self.events = []
        current = threading.current_thread()
        self.thread_id = current.ident
        self.thread_name = current.name

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return max(self.end - self.start, 0.0)

    def set(self, key: str, value) -> None:
        """Set one attribute (late sets after finish are fine)."""
        self.attributes[key] = value

    def add_event(self, name: str, timestamp: float, attributes=None) -> None:
        """Attach an instant event (timestamp in tracer-epoch seconds)."""
        self.events.append((name, timestamp, attributes or {}))

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration * 1e3:.3f}ms"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _NullSpan:
    """The span handed out while tracing is disabled; every op a no-op."""

    __slots__ = ()

    is_recording = False
    name = ""
    span_id = 0
    parent_id = None
    attributes = {}
    events = ()
    start = 0.0
    end = 0.0
    duration = 0.0

    def set(self, key, value):
        pass

    def add_event(self, name, timestamp=0.0, attributes=None):
        pass

    def __repr__(self) -> str:
        return "NullSpan()"


NULL_SPAN = _NullSpan()


class _NullContext:
    """Cached do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    """Context manager opening one span on the owning tracer."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer, name, attributes):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span = None

    def __enter__(self) -> Span:
        self._span = self._tracer._start(self._name, self._attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.set("error", exc_type.__name__)
        self._tracer._finish(self._span)
        return False


class _AttachContext:
    """Context manager pushing a foreign span as this thread's current.

    Used to carry trace context across a thread boundary: capture the
    parent with :func:`current_span` on the submitting thread, then
    ``with telemetry.attach(parent):`` inside the worker so spans it
    opens nest under the submitter's request.  The span is *not*
    finished on exit — the opening thread owns its lifecycle.
    """

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, *exc) -> bool:
        stack = self._tracer._stack()
        if stack and stack[-1] is self._span:
            stack.pop()
        return False


class Tracer:
    """Collects spans for one traced run; thread-safe, epoch-anchored."""

    def __init__(self, name: str = "trace"):
        self.name = name
        self._epoch = time.perf_counter()
        self._wall_start = time.time()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._finished_spans = []
        self._orphan_events = []

    # Clock ---------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return time.perf_counter() - self._epoch

    # Thread-local current-span stack -------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """This thread's innermost open span (None outside any span)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # Span lifecycle ------------------------------------------------------

    def span(self, name: str, **attributes) -> _SpanContext:
        """Open a nested span for a ``with`` block; yields the Span."""
        return _SpanContext(self, name, attributes)

    def attach(self, parent: Span) -> _AttachContext:
        """Adopt ``parent`` as this thread's current span for a block."""
        return _AttachContext(self, parent)

    def _start(self, name: str, attributes: dict) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            start=self.now(),
            attributes=attributes,
        )
        stack.append(record)
        return record

    def _finish(self, record: Span) -> None:
        record.end = self.now()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        with self._lock:
            self._finished_spans.append(record)

    def event(self, name: str, **attributes) -> None:
        """Instant event on the current span (or tracer-level orphan)."""
        timestamp = self.now()
        target = self.current()
        if target is not None:
            target.add_event(name, timestamp, attributes)
            return
        current = threading.current_thread()
        with self._lock:
            self._orphan_events.append(
                (name, timestamp, attributes, current.ident, current.name)
            )

    # Reading -------------------------------------------------------------

    def finished(self) -> list:
        """Snapshot of finished spans in completion order."""
        with self._lock:
            return list(self._finished_spans)

    def orphan_events(self) -> list:
        """Snapshot of events recorded outside any span."""
        with self._lock:
            return list(self._orphan_events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished_spans)

    def __repr__(self) -> str:
        return f"Tracer({self.name!r}, spans={len(self)})"


# Module-level active tracer ----------------------------------------------
#
# One process-wide active tracer (plus a stack for nested installs).
# Reads on the hot path are a single module-attribute load; mutation is
# rare (CLI/bench/test setup) and serialised under a lock.

_ACTIVE = None
_INSTALLED = []
_INSTALL_LOCK = threading.Lock()


def enabled() -> bool:
    """Is a tracer installed right now? (The hot-path guard.)"""
    return _ACTIVE is not None


def active_tracer():
    """The installed :class:`Tracer` (None while disabled)."""
    return _ACTIVE


def install(tracer: Tracer) -> None:
    """Make ``tracer`` the active tracer (stacks over any previous one)."""
    global _ACTIVE
    with _INSTALL_LOCK:
        _INSTALLED.append(tracer)
        _ACTIVE = tracer


def uninstall(tracer: Tracer = None) -> None:
    """Remove ``tracer`` (default: the newest) and restore the previous."""
    global _ACTIVE
    with _INSTALL_LOCK:
        if tracer is None:
            if _INSTALLED:
                _INSTALLED.pop()
        elif tracer in _INSTALLED:
            _INSTALLED.remove(tracer)
        _ACTIVE = _INSTALLED[-1] if _INSTALLED else None


class trace:
    """``with telemetry.trace() as tracer:`` — trace the enclosed block.

    Installs a fresh :class:`Tracer` on entry and uninstalls it on
    exit, restoring whichever tracer was active before; the tracer
    object stays readable afterwards (export it, render it).
    """

    def __init__(self, name: str = "trace"):
        self.tracer = Tracer(name)

    def __enter__(self) -> Tracer:
        install(self.tracer)
        return self.tracer

    def __exit__(self, *exc) -> bool:
        uninstall(self.tracer)
        return False


def span(name: str, **attributes):
    """Open a span on the active tracer (cached no-op when disabled)."""
    active = _ACTIVE
    if active is None:
        return _NULL_CONTEXT
    return active.span(name, **attributes)


def event(name: str, **attributes) -> None:
    """Record an instant event on the active tracer (no-op when disabled)."""
    active = _ACTIVE
    if active is not None:
        active.event(name, **attributes)


def current_span():
    """The calling thread's current span (None when disabled/outside)."""
    active = _ACTIVE
    return active.current() if active is not None else None


def attach(parent):
    """Adopt ``parent`` (from :func:`current_span`) on this thread.

    Returns a context manager; a no-op when tracing is disabled or
    ``parent`` is None, so call sites never need their own guard.
    """
    active = _ACTIVE
    if active is None or parent is None:
        return _NULL_CONTEXT
    return active.attach(parent)
