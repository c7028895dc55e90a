"""Fixtures shared across test modules."""

import os
import signal
import time

import pytest


@pytest.fixture
def kill_pool_worker():
    """SIGKILL one worker of a live :class:`ShardedEngine` pool, then wait
    (bounded) until the executor has marked itself broken.

    Without the wait the kill races the next batch: the surviving worker
    can finish every shard before the executor notices the death, and no
    fallback happens.
    """

    def kill(sharded, timeout: float = 5.0) -> None:
        pool = sharded._pool
        pid, victim = next(iter(pool._processes.items()))
        os.kill(pid, signal.SIGKILL)
        # The executor's own thread reaps the same child concurrently, so
        # victim.is_alive() can still read True after this join; the
        # broken flag below is the condition the next batch depends on.
        victim.join(timeout)
        deadline = time.monotonic() + timeout
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.005)
        assert pool._broken, "the executor never noticed the dead worker"

    return kill
