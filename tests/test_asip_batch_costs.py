"""Deterministic cost gates for the batched ASIP.

Work counts and traced allocations do not depend on the host, so these
gates catch a fast path that falls back to per-op work on any machine,
where a wall-clock floor would flake.  Each gate runs one *warm* Q1.15
batch (the control record, the D-cache replay memo and the AC tables
already settled) at the two shapes the ``asip-fft`` benchmark runs.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.asip import FFTASIP, generate_fft_program
from repro.asip.fft_asip import _FlushSchedule, _SymbolBatch

#: (symbols, N) of the asip-fft benchmark batches.
SHAPES = [(8, 8192), (64, 1024)]

#: Elements (symbols x butterfly lanes) per Q1.15 column op of a level.
CHUNK_ELEMENTS = _FlushSchedule.FIXED_CHUNK

#: Traced-allocation peak of one warm batch: the levelized data plane may
#: use at most 3 MB more than the per-op batch path it replaced, which
#: peaked at 8.0 MB (8 x 8192) and 5.2 MB (64 x 1024) on numpy 2.4.
PEAK_BUDGET_BYTES = {(8, 8192): 11_020_000, (64, 1024): 8_150_000}


@pytest.fixture(scope="module")
def warm():
    """``(symbols, N) -> (machine, program, blocks)`` after two batches;
    every gate runs one more, which keeps the machine warm."""
    machines = {}
    for symbols, n in SHAPES:
        machine = FFTASIP(n, fixed_point=True)
        program = generate_fft_program(n)
        rng = np.random.default_rng(n)
        blocks = 0.25 * (rng.standard_normal((symbols, n))
                         + 1j * rng.standard_normal((symbols, n)))
        for _ in range(2):
            machine.run_batch(program, blocks)
        machines[(symbols, n)] = (machine, program, blocks)
    return machines


def count_calls(monkeypatch, target, name):
    calls = []
    original = getattr(target, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, counted)
    return calls


def butterfly_budget(machine, symbols):
    """One level per FFT stage, each run in ``CHUNK_ELEMENTS`` chunks."""
    plan = machine.plan
    stages = sum(epoch.stage_count for epoch in plan.epochs)
    per_stage = machine.n_points // 2
    lanes_per_chunk = max(1, CHUNK_ELEMENTS // symbols)
    return stages * math.ceil(per_stage / lanes_per_chunk)


@pytest.mark.parametrize("symbols,n,expected", [(8, 8192, 26),
                                                 (64, 1024, 20)])
def test_butterfly_column_ops_within_plan_budget(monkeypatch, warm, symbols,
                                                 n, expected):
    machine, program, blocks = warm[(symbols, n)]
    budget = butterfly_budget(machine, symbols)
    assert budget == expected  # 13 x 2 and 10 x 2 at 16,384 elements
    calls = count_calls(monkeypatch, machine.fx, "butterfly_arrays")
    machine.run_batch(program, blocks)
    assert 0 < len(calls) <= budget


@pytest.mark.parametrize("symbols,n", SHAPES)
def test_warm_batch_makes_no_cache_access(monkeypatch, warm, symbols, n):
    machine, program, blocks = warm[(symbols, n)]
    calls = count_calls(monkeypatch, machine.dcache, "access")
    before = machine.stats.dcache_misses
    machine.run_batch(program, blocks)
    assert calls == []
    if n == 8192:  # the walk spills the cache: 4505 misses per symbol
        assert machine.stats.dcache_misses - before == 4505 * symbols


def test_warm_batch_regenerates_no_ac_tables(monkeypatch, warm):
    """N=8192 alternates group sizes 128 and 64 within every run."""
    machine, program, blocks = warm[(8, 8192)]
    calls = count_calls(monkeypatch, machine.ac, "addresses")
    machine.run_batch(program, blocks)
    assert calls == []


@pytest.mark.parametrize("symbols,n", SHAPES)
def test_warm_batch_traced_peak_within_budget(warm, symbols, n):
    machine, program, blocks = warm[(symbols, n)]
    tracemalloc.start()
    try:
        machine.run_batch(program, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BUDGET_BYTES[(symbols, n)]


@pytest.mark.parametrize("symbols,n", SHAPES)
def test_warm_batch_replays_its_record(monkeypatch, warm, symbols, n):
    """A warm batch neither interprets the program nor records dataflow:
    it replays the steady record, and the machine keeps at most two."""
    machine, program, blocks = warm[(symbols, n)]
    runs = count_calls(monkeypatch, machine, "run")
    spans = count_calls(monkeypatch, _SymbolBatch, "butterflies")
    machine.run_batch(program, blocks)
    assert runs == []
    assert spans == []
    assert len(machine._records) <= 2
