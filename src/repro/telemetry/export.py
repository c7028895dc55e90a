"""Trace exporters behind the repo's seventh open registry.

Three built-ins render a :class:`~repro.telemetry.spans.Tracer` (or a
plain span list):

* ``chrome-trace`` — Chrome trace-event JSON (``{"traceEvents": [...]}``
  with complete ``"X"`` events, microsecond ``ts``/``dur``, per-thread
  lanes and thread-name metadata), loadable in Perfetto or
  ``chrome://tracing``.  Extra pre-built events — e.g. the simulator's
  :meth:`~repro.sim.trace.ExecutionTrace.trace_events` instruction
  timeline — merge into the same file;
* ``jsonl`` — one JSON object per span per line, for ad-hoc tooling;
* ``console`` — an aggregated text tree (count / total / mean per span
  name, nested by parentage) for terminal use.

The registry is a :class:`~repro.core.registry.Registry` like the
other seven: ``register_exporter`` / ``get_exporter`` raising
:class:`~repro.core.registry.UnknownNameError` with the sorted menu /
``exporter_names`` / name-sorted ``exporter_specs``.

:func:`validate_trace_events` is the checker the tests and the CLI run
over exported files: required keys per phase, non-negative durations,
non-decreasing ``ts``, balanced ``B``/``E`` pairs per thread lane.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..core.registry import Registry

__all__ = [
    "ExporterSpec",
    "Exporter",
    "ChromeTraceExporter",
    "JsonlExporter",
    "ConsoleExporter",
    "register_exporter",
    "unregister_exporter",
    "get_exporter",
    "exporter_names",
    "exporter_specs",
    "validate_trace_events",
]

#: pid used for all emitted events (one traced process).
TRACE_PID = 1


def _spans_of(source) -> list:
    """Accept a Tracer or any iterable of spans; spans by start time."""
    spans = source.finished() if hasattr(source, "finished") else list(source)
    return sorted(spans, key=lambda s: (s.start, s.span_id))


def _orphans_of(source) -> list:
    if hasattr(source, "orphan_events"):
        return source.orphan_events()
    return []


def _json_safe(value):
    """Coerce attribute values to something json.dumps accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    try:
        return value.item()  # numpy scalars
    except AttributeError:
        return repr(value)


class Exporter:
    """Render/export interface shared by every registered exporter."""

    def render(self, source, extra_events=None) -> str:
        raise NotImplementedError

    def export(self, source, path, extra_events=None):
        """Render to ``path``; returns the path."""
        from pathlib import Path

        path = Path(path)
        path.write_text(self.render(source, extra_events=extra_events))
        return path


class ChromeTraceExporter(Exporter):
    """Chrome trace-event JSON: complete events, one lane per thread."""

    def events(self, source, extra_events=None) -> list:
        """The trace-event dicts, ``ts``-sorted, metadata first."""
        spans = _spans_of(source)
        events = []
        threads = {}
        for record in spans:
            threads.setdefault(record.thread_id, record.thread_name)
        for name, ts, attrs, thread_id, thread_name in _orphans_of(source):
            threads.setdefault(thread_id, thread_name)
        for thread_id, thread_name in sorted(
                threads.items(), key=lambda kv: str(kv[0])):
            events.append({
                "name": "thread_name", "ph": "M", "pid": TRACE_PID,
                "tid": thread_id, "args": {"name": thread_name},
            })
        body = []
        for record in spans:
            args = {str(k): _json_safe(v)
                    for k, v in record.attributes.items()}
            args["span_id"] = record.span_id
            if record.parent_id is not None:
                args["parent_id"] = record.parent_id
            body.append({
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(record.start * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": TRACE_PID,
                "tid": record.thread_id,
                "args": args,
            })
            for ev_name, ev_ts, ev_attrs in record.events:
                body.append({
                    "name": ev_name, "cat": "event", "ph": "i",
                    "ts": round(ev_ts * 1e6, 3), "pid": TRACE_PID,
                    "tid": record.thread_id, "s": "t",
                    "args": {str(k): _json_safe(v)
                             for k, v in ev_attrs.items()},
                })
        for name, ts, attrs, thread_id, thread_name in _orphans_of(source):
            body.append({
                "name": name, "cat": "event", "ph": "i",
                "ts": round(ts * 1e6, 3), "pid": TRACE_PID,
                "tid": thread_id, "s": "p",
                "args": {str(k): _json_safe(v) for k, v in attrs.items()},
            })
        if extra_events:
            body.extend(extra_events)
        body.sort(key=lambda ev: ev.get("ts", 0.0))
        return events + body

    def render(self, source, extra_events=None) -> str:
        payload = {
            "traceEvents": self.events(source, extra_events=extra_events),
            "displayTimeUnit": "ms",
        }
        return json.dumps(payload, indent=1) + "\n"


class JsonlExporter(Exporter):
    """One JSON object per span per line (start-time order)."""

    def render(self, source, extra_events=None) -> str:
        lines = []
        for record in _spans_of(source):
            lines.append(json.dumps({
                "name": record.name,
                "span_id": record.span_id,
                "parent_id": record.parent_id,
                "start_us": round(record.start * 1e6, 3),
                "dur_us": round(record.duration * 1e6, 3),
                "thread": record.thread_name,
                "attributes": {str(k): _json_safe(v)
                               for k, v in record.attributes.items()},
                "events": [
                    {"name": name, "ts_us": round(ts * 1e6, 3),
                     "attributes": {str(k): _json_safe(v)
                                    for k, v in attrs.items()}}
                    for name, ts, attrs in record.events
                ],
            }))
        return "\n".join(lines) + ("\n" if lines else "")


class ConsoleExporter(Exporter):
    """Aggregated text tree: count / total / mean per span name."""

    def render(self, source, extra_events=None) -> str:
        spans = _spans_of(source)
        by_id = {record.span_id: record for record in spans}
        # Aggregate by the *name path* from the root, so e.g. every
        # "engine.transform" under "stage.transform" folds into one row.
        paths = {}
        roots = {}

        def path_of(record):
            names = [record.name]
            parent = by_id.get(record.parent_id)
            while parent is not None:
                names.append(parent.name)
                parent = by_id.get(parent.parent_id)
            return tuple(reversed(names))

        for record in spans:
            path = path_of(record)
            row = paths.setdefault(path, {"count": 0, "total": 0.0})
            row["count"] += 1
            row["total"] += record.duration
            if len(path) == 1:
                roots[path] = True
        lines = ["span tree (count, total ms, mean ms)"]
        for path in sorted(paths):
            row = paths[path]
            indent = "  " * (len(path) - 1)
            mean = row["total"] / row["count"] if row["count"] else 0.0
            lines.append(
                f"{indent}{path[-1]:<28} {row['count']:>5}  "
                f"{row['total'] * 1e3:>10.3f}  {mean * 1e3:>9.3f}"
            )
        orphans = _orphans_of(source)
        if orphans:
            lines.append(f"tracer events: "
                         + ", ".join(sorted({o[0] for o in orphans})))
        return "\n".join(lines) + "\n"


def validate_trace_events(payload) -> int:
    """Validate Chrome trace events; returns the event count.

    ``payload`` may be the JSON string, the ``{"traceEvents": [...]}``
    dict, or the event list itself.  Raises ``ValueError`` on the
    first malformed event: a missing required key, a negative ``dur``,
    ``ts`` going backwards, or an unbalanced ``B``/``E`` pair within
    one ``(pid, tid)`` lane.
    """
    if isinstance(payload, str):
        payload = json.loads(payload)
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("payload has no traceEvents list")
    else:
        events = list(payload)
    last_ts = None
    open_begins = {}
    for index, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {index} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "M"):
            raise ValueError(f"event {index} has unsupported ph {ph!r}")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {index} is missing {key!r}")
        if ph == "M":
            continue
        if "ts" not in ev:
            raise ValueError(f"event {index} ({ph}) is missing 'ts'")
        ts = float(ev["ts"])
        if last_ts is not None and ts < last_ts:
            raise ValueError(
                f"event {index} ts {ts} goes backwards (previous {last_ts})"
            )
        last_ts = ts
        lane = (ev["pid"], ev["tid"])
        if ph == "X":
            if "dur" not in ev:
                raise ValueError(f"event {index} (X) is missing 'dur'")
            if float(ev["dur"]) < 0:
                raise ValueError(f"event {index} has negative dur")
        elif ph == "B":
            open_begins.setdefault(lane, []).append(ev["name"])
        elif ph == "E":
            stack = open_begins.get(lane)
            if not stack:
                raise ValueError(
                    f"event {index}: E with no open B on lane {lane}"
                )
            stack.pop()
    leftovers = {lane: stack for lane, stack in open_begins.items() if stack}
    if leftovers:
        raise ValueError(f"unmatched B events: {leftovers}")
    return len(events)


# Registry ----------------------------------------------------------------


@dataclass(frozen=True)
class ExporterSpec:
    """One exporter's registry entry.

    ``factory()`` (no arguments) returns an :class:`Exporter`
    instance; ``description`` is the one-liner shown in menus.
    """

    name: str
    factory: object
    description: str = ""


def _check_exporter(name: str, spec) -> None:
    if not isinstance(spec, ExporterSpec):
        raise TypeError(
            f"expected an ExporterSpec, got {type(spec).__name__}"
        )


_EXPORTERS = Registry("exporter", _check_exporter)


def register_exporter(spec: ExporterSpec, replace: bool = False) -> None:
    """Register ``spec`` under ``spec.name`` (loud on shadowing)."""
    _EXPORTERS.register(spec, replace=replace)


unregister_exporter = _EXPORTERS.unregister
get_exporter = _EXPORTERS.get
exporter_names = _EXPORTERS.names
exporter_specs = _EXPORTERS.specs


register_exporter(ExporterSpec(
    "chrome-trace", ChromeTraceExporter,
    "Chrome trace-event JSON (Perfetto / chrome://tracing)",
))
register_exporter(ExporterSpec(
    "jsonl", JsonlExporter, "one JSON object per span per line",
))
register_exporter(ExporterSpec(
    "console", ConsoleExporter, "aggregated text summary tree",
))
