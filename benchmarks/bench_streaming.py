"""Sustained (streaming) throughput — the deployment view of Table I.

Table I is per-transform; a receiver runs symbols back to back.  This
bench streams several symbols through one compiled program per size
(``Engine.stream`` on the ``asip-batch`` backend, every chunk verified)
and reports the sustained Msample/s.  The design has no warm-up or
data-dependent variation, so every symbol costs identical cycles, which
is asserted.

Run:  pytest benchmarks/bench_streaming.py --benchmark-only -s
"""

import numpy as np

import repro
from repro.analysis import render_table
from repro.asip import msamples_per_second


def blocks(n, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_streaming_report():
    rows = []
    for n in (64, 256, 1024):
        with repro.engine(n, backend="asip-batch") as eng:
            result = eng.stream(blocks(n, 4, seed=n), verify=True)
        assert len(set(result.cycles)) <= 1
        rows.append((
            n,
            result.n_symbols,
            result.total_cycles // result.n_symbols,
            round(msamples_per_second(n * result.n_symbols,
                                      result.total_cycles), 1),
        ))
    print()
    print(render_table(
        ["N", "symbols", "cycles/symbol", "sustained Msample/s"],
        rows,
        title="Streaming (back-to-back) throughput",
    ))


def test_bench_streaming_256(benchmark):
    with repro.engine(256, backend="asip-batch") as eng:
        def run():
            return eng.stream(blocks(256, 2, seed=1),
                              verify=True).total_cycles

        total = benchmark(run)
    assert total > 0
