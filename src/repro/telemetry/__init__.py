"""repro.telemetry — unified tracing, metrics and profiling.

One observability layer across every tier of the system::

    >>> from repro import telemetry
    >>> with telemetry.trace() as tracer:
    ...     repro.run_scenario("dvbt-2k")
    >>> telemetry.get_exporter("chrome-trace").factory().export(
    ...     tracer, "trace.json")

With a tracer installed, spans nest from the outermost layer down to
the trellis: ``serve.request`` (tenant/deadline attributes, carried
across worker threads) > ``session.chunk`` > ``pool.execute`` >
``engine.transform`` > ``sharded.dispatch``; pipeline runs emit
``pipeline.run`` > ``stage.<name>`` (from which the legacy
``stage_seconds`` metric is derived) > ``viterbi.branch-metrics`` /
``viterbi.acs`` / ``viterbi.traceback``; circuit-breaker state changes
land as instant events.  With no tracer installed every site costs one
attribute load and a ``None`` check: no clock read, no allocation
(pinned by a call-count gate in the tier-1 tests and by the full
engine-speed bench's <= 1.02x floor).

Submodules:

* :mod:`repro.telemetry.spans`   — the tracer (thread-local context,
  cross-thread :func:`attach`, the no-op disabled path);
* :mod:`repro.telemetry.metrics` — the nearest-rank
  :func:`percentile` the serve tier uses;
* :mod:`repro.telemetry.export`  — the exporter registry
  (``chrome-trace`` / ``jsonl`` / ``console``) + trace validation.

Surfaced on the CLI as ``python -m repro trace <scenario>`` and the
``--trace PATH`` flag on ``run`` / ``serve`` / ``bench``.  Regression
checks across runs and hosts belong to perfbench and its
``compare.py``, not to this package.
"""

from .export import (
    ChromeTraceExporter,
    ConsoleExporter,
    Exporter,
    ExporterSpec,
    JsonlExporter,
    exporter_names,
    exporter_specs,
    get_exporter,
    register_exporter,
    unregister_exporter,
    validate_trace_events,
)
from .metrics import percentile
from .spans import (
    NULL_SPAN,
    Span,
    Tracer,
    active_tracer,
    attach,
    current_span,
    enabled,
    event,
    install,
    span,
    trace,
    uninstall,
)

__all__ = [
    # spans
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
    # metrics
    "percentile",
    # export
    "Exporter",
    "ExporterSpec",
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
