"""Deterministic cost gates for the batched ASIP.

Work counts and traced allocations do not depend on the host, so these
gates catch a fast path that falls back to per-op work on any machine,
where a wall-clock floor would flake.  Each gate runs one *warm* Q1.15
batch (the control record, the D-cache replay memo and the AC tables
already settled) at the two shapes the ``asip-fft`` benchmark runs.
The last two gates count ``Machine.run`` calls through the facade's
``asip`` backend: a multi-symbol call is one ``run_batch`` chunk that
replays once warm, and ``batch=1`` keeps one serial run per symbol.
"""

import math
import tracemalloc

import numpy as np
import pytest

import repro
from repro.asip import FFTASIP, generate_fft_program
from repro.asip.fft_asip import _FlushSchedule, _SymbolBatch

#: (symbols, N) of the asip-fft benchmark batches.
SHAPES = [(8, 8192), (64, 1024)]

#: Elements (symbols x butterfly lanes) per Q1.15 column op of a level.
CHUNK_ELEMENTS = _FlushSchedule.FIXED_CHUNK

#: Traced-allocation peak of one warm batch: the peak a warm batch traces
#: (3.21 MB at 8 x 8192 and 3.02 MB at 64 x 1024 on numpy 2.4, int32 lanes,
#: FIXED_CHUNK elements per column op) plus under 1 MB.  A flush schedule
#: that frees no level traces 10.6 and 8.8 MB, far over either budget.
PEAK_BUDGET_BYTES = {(8, 8192): 4_200_000, (64, 1024): 4_000_000}


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


def engine_run_calls(monkeypatch, precision, batch=None):
    """``Machine.run`` calls made by each of three 8-symbol
    ``transform_many`` calls on one fresh N=64 ``asip`` engine."""
    rng = np.random.default_rng(64)
    blocks = 0.25 * (rng.standard_normal((8, 64))
                     + 1j * rng.standard_normal((8, 64)))
    counts = []
    with repro.engine(64, backend="asip", precision=precision,
                      batch=batch) as eng:
        runs = count_calls(monkeypatch, eng.machine, "run")
        for _ in range(3):
            before = len(runs)
            eng.transform_many(blocks)
            counts.append(len(runs) - before)
    return counts


@pytest.mark.parametrize("precision", ["float", "q15"])
def test_warm_asip_engine_call_makes_no_run(monkeypatch, precision):
    """The first call records from power-on, the second from the steady
    entry state, and the third replays without interpreting."""
    assert engine_run_calls(monkeypatch, precision) == [1, 1, 0]


@pytest.mark.parametrize("precision", ["float", "q15"])
def test_asip_engine_at_batch_one_runs_every_symbol(monkeypatch, precision):
    assert engine_run_calls(monkeypatch, precision, batch=1) == [8, 8, 8]
