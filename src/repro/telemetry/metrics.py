"""Shared metrics core: counters, histograms and the percentile rule.

This is the single home of the nearest-rank :func:`percentile` the
serving tier's quantiles are built on, plus two small thread-safe
primitives:

* :class:`Counter` — a monotonic counter behind one lock;
* :class:`Histogram` — a rolling window of float samples with
  nearest-rank quantile snapshots (the generalisation of
  ``TenantMetrics``' latency window).

Everything here is dependency-free and lock-per-instance: the hot path
is one append or one integer bump, never cross-instance contention.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["percentile", "Counter", "Histogram"]


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 for an empty set).

    Tiny and dependency-free on purpose — latency sets here are a few
    thousand floats at most, sorting per snapshot is cheap.  Edge
    rules (pinned by tests): an empty set yields 0.0; a single sample
    is every percentile of itself; ``q=0`` is the minimum; ``q=100``
    is the maximum; ties resolve to the nearest rank in the *sorted*
    order (duplicates collapse naturally).
    """
    data = sorted(samples)
    if not data:
        return 0.0
    rank = max(int(round(q / 100.0 * len(data) + 0.5)), 1)
    return float(data[min(rank, len(data)) - 1])


class Counter:
    """A named, thread-safe, monotonically increasing counter."""

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> int:
        """Add ``amount``; returns the new value."""
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """A rolling window of float samples with nearest-rank quantiles.

    ``window`` bounds memory: only the most recent ``window`` samples
    participate in quantiles (the total observation count keeps
    climbing).  One lock per instance; snapshots are self-consistent.
    """

    def __init__(self, name: str = "", window: int = 4096):
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.window = window
        self._lock = threading.Lock()
        self._samples = deque(maxlen=window)
        self._count = 0
        self._total = 0.0

    def observe(self, value: float) -> None:
        """Fold one sample in (hot path: one append + two adds)."""
        value = float(value)
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._total += value

    def values(self) -> list:
        """The current window's samples, oldest first."""
        with self._lock:
            return list(self._samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the current window."""
        return percentile(self.values(), q)

    @property
    def count(self) -> int:
        """Total samples ever observed (not just the window)."""
        with self._lock:
            return self._count

    def snapshot(self) -> dict:
        """Self-consistent summary of the current window."""
        with self._lock:
            data = list(self._samples)
            count = self._count
            total = self._total
        return {
            "count": count,
            "window": len(data),
            "mean": (sum(data) / len(data)) if data else 0.0,
            "total": total,
            "min": min(data) if data else 0.0,
            "max": max(data) if data else 0.0,
            "p50": percentile(data, 50.0),
            "p99": percentile(data, 99.0),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, window={self.window}, "
                f"observed={self.count})")
