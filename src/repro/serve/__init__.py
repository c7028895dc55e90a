"""repro.serve — supervised concurrent session serving.

The million-user tier over the streaming substrate::

    >>> from repro.serve import SessionServer
    >>> with SessionServer(batch=8) as server:
    ...     server.open_session("radio-a", 256)
    ...     server.submit("radio-a", blocks, deadline=0.5)
    ...     chunks = server.drain("radio-a")
    ...     server.health()["tenants"]["radio-a"]["latency_p99_ms"]

Layers (bottom-up):

* :mod:`repro.serve.pool` — cached engines keyed by ``(n_points,
  backend, precision)``, leased per tenant with serialised, metered
  execution;
* :mod:`repro.serve.server` — :class:`SessionServer`: admission
  control with load shedding, deadline propagation into the session
  watchdog, and supervision that fails one tenant without touching the
  rest (pool self-healing itself lives in
  :class:`repro.core.CircuitBreaker` under the sharded engine);
* :mod:`repro.serve.metrics` — the per-tenant health registry;
* :mod:`repro.serve.loadgen` — the concurrent load generator behind
  ``python -m repro serve``.
"""

from .errors import (
    ServeError,
    ServerClosed,
    ServerOverloaded,
    TenantFailed,
    UnknownTenant,
)
from .loadgen import run_load
from .metrics import MetricsRegistry, TenantMetrics
from .pool import EngineLease, EnginePool
from .server import SessionServer, TenantState

__all__ = [
    "SessionServer",
    "TenantState",
    "EnginePool",
    "EngineLease",
    "MetricsRegistry",
    "TenantMetrics",
    "run_load",
    "ServeError",
    "ServerClosed",
    "ServerOverloaded",
    "TenantFailed",
    "UnknownTenant",
]
