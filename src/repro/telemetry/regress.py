"""Span-aggregate regression checks against ``BENCH_engine.json``.

``python -m repro run --record`` (and the full benchmark) have been
appending per-scenario ``stage_seconds`` into the bench file's dated
history since PR 5; this module closes the loop: aggregate a traced
run's ``stage.*`` spans and compare each stage against the median of
the recorded history, flagging stages that got materially slower.

Also home to :func:`atomic_write_json` — the tmp-file + ``os.replace``
writer every ``BENCH_engine.json`` mutation goes through, so a bench
run racing a serve run can no longer clobber the history with a
half-written file.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "atomic_write_json",
    "span_aggregates",
    "stage_history",
    "Regression",
    "RegressionReport",
    "compare_aggregates",
    "compare_with_history",
]


def atomic_write_json(path, data) -> None:
    """Serialise ``data`` to ``path`` atomically (tmp + ``os.replace``).

    The temp file lands in the destination directory so the final
    rename never crosses filesystems; readers see either the old
    complete file or the new complete file, never a torn write.
    """
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    handle, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=path.name + ".", suffix=".tmp",
    )
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(json.dumps(data, indent=2) + "\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def span_aggregates(source) -> dict:
    """``{span name: {count, total_s, max_s}}`` for a tracer/span list."""
    if hasattr(source, "aggregates"):
        return source.aggregates()
    totals = {}
    for record in source:
        row = totals.setdefault(
            record.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += record.duration
        row["max_s"] = max(row["max_s"], record.duration)
    return totals


def _median(values) -> float:
    data = sorted(values)
    mid = len(data) // 2
    if len(data) % 2:
        return float(data[mid])
    return float(data[mid - 1] + data[mid]) / 2.0


def stage_history(path, scenario: str) -> dict:
    """Per-stage baselines from the bench file's recorded history.

    Collects every ``stage_seconds`` dict recorded for ``scenario``
    across the ``cli_run`` section and the full-bench trajectory's
    ``scenarios`` rows, and reduces each stage to the **median** of
    its history (robust to one slow outlier run).  Returns
    ``{stage: {"seconds": median, "runs": n}}`` (empty when the file
    or scenario has no history).
    """
    path = Path(path)
    if not path.exists():
        return {}
    try:
        stored = json.loads(path.read_text())
    except (ValueError, OSError):
        return {}
    if not isinstance(stored, dict):
        return {}
    samples: dict = {}

    def _collect(rows):
        for row in rows or []:
            if not isinstance(row, dict):
                continue
            if row.get("scenario") != scenario:
                continue
            stage_seconds = row.get("stage_seconds")
            if not isinstance(stage_seconds, dict):
                continue
            for stage, seconds in stage_seconds.items():
                samples.setdefault(stage, []).append(float(seconds))

    section = stored.get("cli_run")
    if isinstance(section, dict):
        for entry in section.get("history", []):
            if isinstance(entry, dict):
                _collect(entry.get("rows"))
    for entry in stored.get("history", []) or []:
        if isinstance(entry, dict):
            _collect(entry.get("scenarios"))
    latest = stored.get("latest")
    if isinstance(latest, dict) and not stored.get("history"):
        _collect(latest.get("scenarios"))
    return {
        stage: {"seconds": _median(values), "runs": len(values)}
        for stage, values in samples.items()
    }


@dataclass(frozen=True)
class Regression:
    """One stage measurably slower than its recorded baseline."""

    name: str
    baseline_s: float
    current_s: float

    @property
    def ratio(self) -> float:
        return self.current_s / self.baseline_s if self.baseline_s else 0.0

    def __str__(self) -> str:
        return (f"{self.name}: {self.current_s * 1e3:.1f} ms vs "
                f"{self.baseline_s * 1e3:.1f} ms baseline "
                f"({self.ratio:.1f}x)")


@dataclass
class RegressionReport:
    """Outcome of one history comparison."""

    scenario: str
    checked: int = 0
    flagged: list = field(default_factory=list)
    missing_baseline: bool = False

    @property
    def ok(self) -> bool:
        return not self.flagged

    def describe(self) -> str:
        if self.missing_baseline:
            return (f"regress: no recorded stage history for "
                    f"{self.scenario!r} (run with --record to seed it)")
        if not self.flagged:
            return (f"regress: {self.checked} stages within threshold of "
                    f"the recorded history")
        lines = [f"regress: {len(self.flagged)} of {self.checked} stages "
                 f"slower than the recorded history:"]
        lines.extend(f"  {flag}" for flag in self.flagged)
        return "\n".join(lines)


def compare_aggregates(current: dict, baseline: dict,
                       threshold: float = 2.0,
                       min_seconds: float = 2e-3) -> list:
    """Flag entries of ``current`` slower than ``threshold`` x baseline.

    ``current`` maps names to aggregate rows (``total_s``) or floats;
    ``baseline`` maps names to floats.  Entries under ``min_seconds``
    are ignored — at sub-millisecond scale the ratio is noise.
    """
    flagged = []
    for name in sorted(current):
        if name not in baseline:
            continue
        row = current[name]
        seconds = row["total_s"] if isinstance(row, dict) else float(row)
        base = float(baseline[name])
        if seconds < min_seconds:
            continue
        if base > 0 and seconds > threshold * base:
            flagged.append(Regression(name, base, seconds))
    return flagged


def _measured_run(source):
    """The spans under the last top-level ``pipeline.run`` span.

    ``repro trace`` runs a warm-up before the measured run, each under
    its own ``pipeline.run``; only the last one is comparable with the
    per-run ``stage_seconds`` history.  With fewer than two runs the
    source is returned unchanged.
    """
    spans = source.finished() if hasattr(source, "finished") else list(source)
    run_of = {}
    # Span ids are issued at start, so a parent precedes its children.
    for record in sorted(spans, key=lambda s: s.span_id):
        run = run_of.get(record.parent_id)
        if run is None and record.name == "pipeline.run":
            run = record.span_id
        run_of[record.span_id] = run
    runs = sorted({run for run in run_of.values() if run is not None})
    if len(runs) < 2:
        return source
    return [record for record in spans if run_of[record.span_id] == runs[-1]]


def compare_with_history(source, scenario: str, path,
                         threshold: float = 2.0,
                         min_seconds: float = 2e-3) -> RegressionReport:
    """Compare a traced run's ``stage.*`` spans against bench history.

    ``source`` is a tracer or span list; span names ``stage.<name>``
    map onto the ``stage_seconds`` keys recorded in
    ``BENCH_engine.json`` for ``scenario``.  When the source holds
    several top-level ``pipeline.run`` spans (a warm-up, then the
    measured run), only the last run's stages are compared.
    Informational by design — the caller decides whether a flagged
    stage is fatal.
    """
    baseline_rows = stage_history(path, scenario)
    report = RegressionReport(scenario=scenario)
    if not baseline_rows:
        report.missing_baseline = True
        return report
    current = {}
    for name, row in span_aggregates(_measured_run(source)).items():
        if name.startswith("stage."):
            current[name[len("stage."):]] = row
    baseline = {stage: row["seconds"]
                for stage, row in baseline_rows.items()}
    report.checked = len([s for s in current if s in baseline])
    report.flagged = compare_aggregates(
        current, baseline, threshold=threshold, min_seconds=min_seconds,
    )
    return report
