"""Per-tenant health metrics for the serving tier.

One :class:`TenantMetrics` per tenant accumulates throughput, chunk
latency quantiles, shed/timeout counts and degradation transitions; a
:class:`MetricsRegistry` holds them all and renders one consistent
snapshot for ``python -m repro serve`` and the load generator.  All
mutation goes through per-tenant locks, so the hot path (one append and
a few integer bumps per executed chunk) never contends across tenants.
"""

from __future__ import annotations

import threading
import time
from collections import deque

# The quantile rule lives in the shared metrics core (repro.telemetry).
from ..telemetry.metrics import percentile

__all__ = ["TenantMetrics", "MetricsRegistry"]


class TenantMetrics:
    """Rolling health counters for one named tenant."""

    #: chunk-latency samples kept for the quantiles (rolling window).
    LATENCY_WINDOW = 4096

    def __init__(self, tenant: str, clock=time.monotonic):
        self.tenant = tenant
        self._clock = clock
        self._lock = threading.Lock()
        self._started = clock()
        self._latencies = deque(maxlen=self.LATENCY_WINDOW)
        self.symbols_in = 0
        self.symbols_out = 0
        self.chunks = 0
        self.shed_count = 0
        self.backpressure_count = 0
        self.timeout_count = 0
        self.degraded_chunks = 0
        #: healthy->degraded edges observed in this tenant's results.
        self.degraded_transitions = 0
        self._last_degraded = False
        self.state = "active"
        self.failure_reason = None

    # Recording (hot path) ------------------------------------------------

    def record_admitted(self, symbols: int) -> None:
        with self._lock:
            self.symbols_in += symbols

    def record_shed(self, symbols: int) -> None:
        with self._lock:
            self.shed_count += symbols

    def record_backpressure(self, symbols: int) -> None:
        with self._lock:
            self.backpressure_count += symbols

    def record_chunk(self, result, seconds: float) -> None:
        """Fold one executed chunk (a ``TransformResult``) in."""
        with self._lock:
            self.chunks += 1
            self.symbols_out += result.n_symbols
            self._latencies.append(float(seconds))
            if result.degraded:
                self.degraded_chunks += 1
                if not self._last_degraded:
                    self.degraded_transitions += 1
            self._last_degraded = bool(result.degraded)

    def record_timeout(self, reason: str) -> None:
        with self._lock:
            self.timeout_count += 1
            self.state = "failed"
            self.failure_reason = reason

    def record_closed(self) -> None:
        with self._lock:
            if self.state == "active":
                self.state = "closed"

    # Reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """One self-consistent dict of everything above."""
        with self._lock:
            elapsed = max(self._clock() - self._started, 1e-9)
            return {
                "tenant": self.tenant,
                "state": self.state,
                "symbols_in": self.symbols_in,
                "symbols_out": self.symbols_out,
                "chunks": self.chunks,
                "symbols_per_s": self.symbols_out / elapsed,
                "latency_p50_ms": percentile(self._latencies, 50.0) * 1e3,
                "latency_p99_ms": percentile(self._latencies, 99.0) * 1e3,
                "shed": self.shed_count,
                "backpressure": self.backpressure_count,
                "timeouts": self.timeout_count,
                "degraded_chunks": self.degraded_chunks,
                "degraded_transitions": self.degraded_transitions,
                "failure_reason": self.failure_reason,
            }


class MetricsRegistry:
    """All tenants' metrics behind one snapshot call."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: dict = {}

    def tenant(self, name: str) -> TenantMetrics:
        """Get (or create) the metrics record for ``name``."""
        with self._lock:
            metrics = self._tenants.get(name)
            if metrics is None:
                metrics = self._tenants[name] = TenantMetrics(
                    name, clock=self._clock,
                )
            return metrics

    def snapshot(self) -> dict:
        """``{tenant: snapshot_dict}`` for every tenant ever seen."""
        with self._lock:
            tenants = list(self._tenants.values())
        return {m.tenant: m.snapshot() for m in tenants}

    def totals(self) -> dict:
        """Aggregate counters across tenants (for the load generator)."""
        snaps = self.snapshot().values()
        lat50 = [s["latency_p50_ms"] for s in snaps if s["chunks"]]
        lat99 = [s["latency_p99_ms"] for s in snaps if s["chunks"]]
        return {
            "tenants": len(snaps),
            "symbols_in": sum(s["symbols_in"] for s in snaps),
            "symbols_out": sum(s["symbols_out"] for s in snaps),
            "shed": sum(s["shed"] for s in snaps),
            "backpressure": sum(s["backpressure"] for s in snaps),
            "timeouts": sum(s["timeouts"] for s in snaps),
            "degraded_transitions": sum(
                s["degraded_transitions"] for s in snaps
            ),
            "latency_p50_ms": max(lat50, default=0.0),
            "latency_p99_ms": max(lat99, default=0.0),
        }
