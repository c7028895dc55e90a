"""Shared metrics core: the nearest-rank percentile rule.

This is the single home of the nearest-rank :func:`percentile` the
serving tier's quantiles are built on.  It is dependency-free; callers
keep their own samples under their own locks.
"""

from __future__ import annotations

__all__ = ["percentile"]


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
