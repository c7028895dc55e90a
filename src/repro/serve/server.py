"""`SessionServer`: supervised multi-tenant session serving.

The serving tier stacks the repo's existing layers: named tenants each
own a :class:`~repro.sessions.StreamSession`, every session executes
through an :class:`~repro.serve.pool.EngineLease` on the shared
:class:`~repro.serve.pool.EnginePool`, and the server wraps the stack
with the three behaviours a multi-tenant deployment needs:

* **admission control** — :meth:`submit` sheds load with
  :class:`ServerOverloaded` once the server-wide buffered-symbol
  budget is reached, and counts per-tenant backpressure rejections.
  Nothing is ever silently queued past a bound.
* **deadline propagation** — a per-request ``deadline`` bounds the
  blocking feed (:class:`~repro.sessions.SessionBackpressure` when it
  expires), while the per-tenant ``exec_timeout`` arms the session's
  execution watchdog so a wedged engine raises
  :class:`~repro.sessions.SessionExecutionTimeout` instead of hanging.
* **supervision** — a tenant whose chunk times out is *failed*: its
  lease is disposed (the pooled engine is evicted as poisoned), its
  pending input is dropped via :meth:`StreamSession.abort`, its
  finished tail stays drainable, and every other tenant keeps running.
  Pool self-healing below this layer (the sharded engine's circuit
  breaker) restores parallel execution without the server doing
  anything.

Health lives in a :class:`~repro.serve.metrics.MetricsRegistry`;
:meth:`health` folds in pool cache stats and live breaker snapshots.
"""

from __future__ import annotations

import threading

import numpy as np

from ..sessions import (
    SessionBackpressure,
    SessionClosed,
    SessionExecutionTimeout,
    StreamSession,
)
from .errors import (
    ServerClosed,
    ServerOverloaded,
    TenantFailed,
    UnknownTenant,
)
from .metrics import MetricsRegistry
from .pool import EnginePool

from .. import telemetry

__all__ = ["SessionServer", "TenantState"]


class TenantState:
    """One tenant's session, lease, metrics and liveness flag."""

    def __init__(self, name: str, session: StreamSession, lease, metrics):
        self.name = name
        self.session = session
        self.lease = lease
        self.metrics = metrics
        self.failed = False
        self.failure_reason = None


class SessionServer:
    """Multiplex named tenant sessions over a shared engine pool.

    Parameters
    ----------
    global_budget:
        Server-wide bound on buffered symbols (pending + executing +
        undrained, summed over tenants).  ``None`` (default) derives
        the bound as ``2 *`` the summed session capacities — per-tenant
        backpressure then engages strictly before global shedding, so a
        nominal load on a draining consumer never sheds.
    batch, capacity:
        Session defaults for :meth:`open_session`.
    exec_timeout:
        Default per-chunk watchdog bound (seconds) for new sessions;
        ``None`` trusts the engines.
    pool:
        An :class:`EnginePool` to share (the server builds and owns one
        otherwise); ``engine_options`` go to the pool's engine builds.
    """

    def __init__(self, *, global_budget: int = None, batch: int = None,
                 capacity: int = None, exec_timeout: float = None,
                 pool: EnginePool = None, **engine_options):
        self.global_budget = (
            None if global_budget is None else max(int(global_budget), 1)
        )
        self.default_batch = batch
        self.default_capacity = capacity
        self.default_exec_timeout = exec_timeout
        self._own_pool = pool is None
        self.pool = EnginePool(**engine_options) if pool is None else pool
        self.metrics = MetricsRegistry()
        self._tenants: dict = {}
        self._lock = threading.Lock()
        self._closed = False

    # Tenant lifecycle ----------------------------------------------------

    def open_session(self, tenant: str, n_points: int, *,
                     backend: str = "compiled", precision: str = "float",
                     batch: int = None, capacity: int = None,
                     verify: bool = False, exec_timeout: float = None,
                     **engine_overrides) -> TenantState:
        """Open (and register) a named tenant session.

        Tenant names are unique among *live* sessions; a failed or
        closed tenant's name may be reused — the old record's drainable
        tail is dropped at that point.
        """
        self._check_open()
        metrics = self.metrics.tenant(tenant)
        lease = self.pool.lease(
            n_points, backend=backend, precision=precision,
            on_chunk=metrics.record_chunk, **engine_overrides,
        )
        sess = StreamSession(
            lease,
            batch=batch if batch is not None else self.default_batch,
            capacity=(capacity if capacity is not None
                      else self.default_capacity),
            verify=verify,
            own_engine=False,
            exec_timeout=(exec_timeout if exec_timeout is not None
                          else self.default_exec_timeout),
        )
        state = TenantState(tenant, sess, lease, metrics)
        with self._lock:
            if self._closed:
                raise ServerClosed("server closed during open_session")
            existing = self._tenants.get(tenant)
            if existing is not None and not existing.failed \
                    and not existing.session.closed:
                raise ValueError(f"tenant {tenant!r} already has a live "
                                 f"session")
            self._tenants[tenant] = state
        return state

    def _check_open(self) -> None:
        if self._closed:
            raise ServerClosed("SessionServer is closed")

    def _tenant(self, name: str) -> TenantState:
        with self._lock:
            state = self._tenants.get(name)
        if state is None:
            raise UnknownTenant(f"no tenant named {name!r}")
        return state

    # Admission + submission ----------------------------------------------

    def _buffered_total(self) -> int:
        with self._lock:
            states = list(self._tenants.values())
        return sum(s.session.buffered_symbols for s in states)

    def _budget(self) -> int:
        if self.global_budget is not None:
            return self.global_budget
        with self._lock:
            states = [s for s in self._tenants.values()
                      if not s.session.closed]
        return max(2 * sum(s.session.capacity for s in states), 1)

    def submit(self, tenant: str, blocks, deadline: float = None) -> int:
        """Feed symbols to a tenant under admission control.

        Admission runs *before* anything is queued: over the global
        budget the whole request is shed with :class:`ServerOverloaded`
        (never partially accepted, never silently queued).  Admitted
        symbols feed with ``wait=deadline`` seconds (``None`` waits
        without bound) — a full per-tenant buffer blocks until the
        consumer drains or the deadline expires in
        :class:`SessionBackpressure`.  A chunk
        execution that trips the watchdog fails the whole tenant (see
        :meth:`fail_tenant`) and re-raises the structured timeout.
        """
        self._check_open()
        state = self._tenant(tenant)
        if state.failed:
            raise TenantFailed(
                f"tenant {tenant!r} was retired: {state.failure_reason}"
            )
        blocks = np.asarray(blocks, dtype=complex)
        count = 1 if blocks.ndim == 1 else len(blocks)
        # The per-tenant request span: chunk execution happens on this
        # thread inside feed() (and, under exec_timeout, on the watchdog
        # thread, which re-attaches this context), so session.chunk /
        # engine.transform spans nest under it across thread boundaries.
        with telemetry.span(
            "serve.request", tenant=tenant, symbols=count,
            deadline=deadline,
        ) as request_span:
            budget = self._budget()
            if self._buffered_total() + count > budget:
                state.metrics.record_shed(count)
                request_span.set("shed", True)
                raise ServerOverloaded(
                    f"global budget exhausted ({self._buffered_total()} "
                    f"buffered + {count} requested > {budget}); request "
                    f"shed"
                )
            # Admit before feed() can run a chunk (and count it out), then
            # give back whatever feed() did not queue.
            state.metrics.record_admitted(count)
            fed = 0
            try:
                fed = state.session.feed(
                    blocks, wait=True if deadline is None else deadline,
                )
            except SessionBackpressure as exc:
                fed = exc.accepted
                state.metrics.record_backpressure(count)
                request_span.set("backpressure", True)
                raise
            except SessionExecutionTimeout as exc:
                fed = exc.accepted
                self.fail_tenant(tenant, str(exc))
                request_span.set("timeout", True)
                raise
            except SessionClosed as exc:
                fed = exc.accepted
                raise
            finally:
                if fed != count:
                    state.metrics.record_admitted(fed - count)
            return fed

    # Consumption ---------------------------------------------------------

    def drain(self, tenant: str, max_results: int = None) -> list:
        """Pop the tenant's finished chunks (allowed after close/fail)."""
        return self._tenant(tenant).session.drain(max_results=max_results)

    def results(self, tenant: str, wait: float = None):
        """The tenant session's :meth:`StreamSession.results` iterator."""
        return self._tenant(tenant).session.results(wait=wait)

    def flush(self, tenant: str) -> None:
        """Force the tenant's pending partial chunk through now."""
        state = self._tenant(tenant)
        try:
            state.session.flush()
        except SessionExecutionTimeout as exc:
            self.fail_tenant(tenant, str(exc))
            raise

    # Supervision ---------------------------------------------------------

    def fail_tenant(self, tenant: str, reason: str) -> None:
        """Retire a tenant whose engine is poisoned (idempotent).

        Disposes the lease (evicting the shared engine so *new* leases
        build fresh), drops the tenant's pending input, and keeps its
        finished chunks drainable.  Other tenants are untouched.
        """
        state = self._tenant(tenant)
        if state.failed:
            return
        state.failed = True
        state.failure_reason = reason
        state.metrics.record_timeout(reason)
        state.lease.close(dispose=True)
        state.session.abort()

    def close_session(self, tenant: str) -> list:
        """Flush + close one tenant; returns its undrained tail."""
        state = self._tenant(tenant)
        if not state.failed:
            try:
                state.session.close()
            except SessionExecutionTimeout as exc:
                self.fail_tenant(tenant, str(exc))
                raise
            state.lease.close()
            state.metrics.record_closed()
        return state.session.drain()

    # Introspection -------------------------------------------------------

    @property
    def tenants(self) -> list:
        """Names of every registered tenant (live, failed and closed)."""
        with self._lock:
            return sorted(self._tenants)

    def health(self) -> dict:
        """One dict: per-tenant metrics, pool cache stats, breakers."""
        return {
            "closed": self._closed,
            "budget": self._budget(),
            "buffered": self._buffered_total(),
            "tenants": self.metrics.snapshot(),
            "pool": self.pool.stats(),
            "breakers": self.pool.breaker_snapshots(),
        }

    # Lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close every live tenant, then the pool (if owned). Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            states = list(self._tenants.values())
        for state in states:
            if state.failed or state.session.closed:
                continue
            try:
                state.session.close()
            except SessionExecutionTimeout:
                state.failed = True
                state.failure_reason = "timeout during server close"
                state.lease.close(dispose=True)
                state.session.abort()
                continue
            state.lease.close()
            state.metrics.record_closed()
        if self._own_pool:
            self.pool.close()

    def __enter__(self) -> "SessionServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
