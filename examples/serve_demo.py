"""The serving tier: multi-tenant sessions, deadlines, self-healing.

A deployed FFT processor does not serve one stream — it serves many
tenants at once (think: several receiver chains sharing one accelerator).
``repro.serve`` is that tier, stacked on the layers below it:

1. **Shared engine pool** — tenants on the same ``(N, backend,
   precision)`` key share one cached engine; compiled plans and ROMs
   build once.
2. **Admission control** — a server-wide buffered-symbol budget sheds
   excess load loudly (``ServerOverloaded``), and per-tenant deadlines
   bound every blocking feed.
3. **Supervision** — a wedged engine trips the execution watchdog
   (``SessionExecutionTimeout``); the tenant is retired, its poisoned
   engine quarantined, and every other tenant keeps serving.
4. **Self-healing** — below the server, a sharded tenant's worker-pool
   failure opens a circuit breaker: chunks fall back to the serial
   engine (bit-identical, marked ``degraded``) until a probe restores
   parallel execution.

Run:  python examples/serve_demo.py
"""

import time

import numpy as np

import repro
from repro.serve import SessionServer, run_load
from repro.sessions import SessionExecutionTimeout
from repro.verify import engine_stall


def blocks(symbols, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((symbols, n)) + 1j * rng.standard_normal(
        (symbols, n)
    )


def tenants_share_one_engine():
    print("== two tenants, one pooled engine ==")
    with SessionServer(batch=4) as server:
        server.open_session("uwb", 64)
        server.open_session("wimax", 64)
        for name, seed in (("uwb", 1), ("wimax", 2)):
            data = blocks(8, 64, seed)
            server.submit(name, data, deadline=5.0)
            tail = server.close_session(name)
            got = np.concatenate([r.spectrum for r in tail])
            ok = np.allclose(got, np.fft.fft(data, axis=1), atol=1e-6)
            print(f"  {name:<6} {got.shape[0]} symbols  "
                  f"oracle-exact={ok}")
        stats = server.pool.stats()
        print(f"  pool: built={stats['built']} reused={stats['reused']} "
              f"(one engine served both tenants)")


def overload_sheds_loudly():
    print("== admission control: overload sheds, never queues ==")
    with SessionServer(batch=4, global_budget=8) as server:
        server.open_session("greedy", 64)
        server.submit("greedy", blocks(8, 64, 3))  # fills the budget
        try:
            server.submit("greedy", blocks(4, 64, 4))
        except repro.ServerOverloaded as exc:
            print(f"  shed: {exc}")
        server.drain("greedy")  # the consumer catches up...
        fed = server.submit("greedy", blocks(4, 64, 4))
        print(f"  after draining: {fed} symbols admitted")


def stalled_tenant_is_contained():
    print("== supervision: a wedged tenant never takes the server down ==")
    data = blocks(4, 16, 5)
    with SessionServer(batch=4, exec_timeout=0.2) as server:
        stalled = server.open_session("stalled", 16)
        server.open_session("healthy", 16)
        with engine_stall(stalled.lease, seconds=2.0):
            try:
                server.submit("stalled", data, deadline=5.0)
            except SessionExecutionTimeout as exc:
                print(f"  watchdog: {exc}")
            server.submit("healthy", data)  # unaffected, same pool key
        tail = server.close_session("healthy")
        got = np.concatenate([r.spectrum for r in tail])
        ok = np.allclose(got, np.fft.fft(data, axis=1), atol=1e-6)
        snap = server.health()["tenants"]
        print(f"  healthy tenant stayed oracle-exact={ok}; "
              f"stalled state={snap['stalled']['state']!r}")


def breaker_heals_a_dead_pool():
    print("== self-healing: pool failure -> serial fallback -> probe ==")
    import warnings

    data = blocks(6, 16, 6)
    want = np.fft.fft(data, axis=1)
    with SessionServer(batch=6) as server:
        tenant = server.open_session(
            "shard", 16, backend="sharded", workers=2,
            min_parallel_symbols=1,
        )
        sharded = tenant.lease.engine.impl.sharded
        sharded.breaker.backoff_initial = 0.05  # probe again after 50 ms

        class ExplodingPool:
            def map(self, *args, **kwargs):
                raise RuntimeError("worker died")

            def shutdown(self, **kwargs):
                pass

        sharded._pool = ExplodingPool()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            server.submit("shard", data)
        (fallen,) = server.drain("shard")
        print(f"  after failure: degraded={fallen.degraded}  "
              f"oracle-exact="
              f"{np.allclose(fallen.spectrum, want, atol=1e-6)}")
        time.sleep(0.06)  # the breaker's backoff elapses
        server.submit("shard", data)
        (healed,) = server.drain("shard")
        snap = server.health()["breakers"]["16xshardedxfloat"]
        print(f"  after probe:   degraded={healed.degraded}  "
              f"breaker={snap['state']!r} opened={snap['opened']} "
              f"recovered={snap['recovered']}")


def concurrent_load():
    print("== the load generator (python -m repro serve) ==")
    measure = run_load(tenants=4, symbols=16, n_points=64, batch=8)
    print(f"  {measure['tenants']} tenants x "
          f"{measure['symbols_per_tenant']} symbols: "
          f"{measure['sessions_per_s']:.0f} sessions/s, "
          f"p99 {measure['latency_p99_ms']:.2f} ms, "
          f"shed={measure['shed']}, ok={measure['ok']}")


if __name__ == "__main__":
    tenants_share_one_engine()
    overload_sheds_loudly()
    stalled_tenant_is_contained()
    breaker_heals_a_dead_pool()
    concurrent_load()
