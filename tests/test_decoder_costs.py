"""Deterministic cost gates for the soft demapper and the Viterbi
decoder.

Call counts and traced allocations do not depend on the host, so these
gates catch a demapper or a traceback that falls back to per-point or
per-step calls, an add-compare-select that makes more calls per trellis
step, or a ``depuncture`` that walks the block length step by step, on
any machine, where a wall-clock floor would flake.  Ufunc calls are
counted through the ``viterbi_calls`` fixture and Python and builtin
calls through ``python_calls`` (``tests/conftest.py``).
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from repro.coding import (
    PUNCTURE_PATTERNS,
    ViterbiDecoder,
    get_code,
    get_demapper,
)
from repro.coding import viterbi

RATES = tuple(sorted(PUNCTURE_PATTERNS))

#: (code, rate, coded capacity, blocks): a 1-chunk block, the dvbt-2k
#: burst (4 QPSK symbols of 2048 carriers, rate 2/3) and a 64-state
#: burst split into many small chunks.
BURSTS = (
    ("conv-k3", "1/2", 200, 1),
    ("conv-k7", "2/3", 4096, 4),
    ("conv-k7", "3/4", 1536, 16),
)


@pytest.mark.parametrize("code_name, rate, capacity, blocks", BURSTS)
def test_finite_burst_acs_is_two_ufunc_calls_per_step(
        viterbi_calls, code_name, rate, capacity, blocks):
    """``add`` and ``maximum`` per step; ``greater`` once per chunk."""
    punct = get_code(code_name).punctured(rate)
    geometry = punct.block_geometry(capacity)
    rng = np.random.default_rng(0)
    info = rng.integers(0, 2, size=(blocks, geometry.info_bits))
    grid = punct.depuncture(
        1.0 - 2.0 * punct.encode(info)
        + 0.3 * rng.standard_normal((blocks, geometry.coded_bits)))
    decoder = ViterbiDecoder(punct.base)
    steps = grid.shape[-2]
    decisions = np.empty((steps, blocks, punct.base.n_states), dtype=bool)
    sums, table = decoder._branch_sums(grid)
    chunk = max(1, viterbi._CHUNK_ELEMENTS // table.size)
    chunks = -(-steps // chunk)
    viterbi_calls.clear()
    for _ in decoder._acs(sums, table, decisions):
        pass
    assert viterbi_calls["add"] == viterbi_calls["maximum"] == steps
    assert sum(viterbi_calls.values()) <= 2 * steps + chunks
    assert np.array_equal(decoder._traceback(decisions), info)


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("code_name", ("conv-k3", "conv-k7"))
def test_depuncture_walks_at_most_two_periods(monkeypatch, code_name, rate):
    """The step count lands one period short, whatever the block length
    (a walk from ``memory + 1`` made 2,725 calls on one dvbt-2k block)."""
    punct = get_code(code_name).punctured(rate)
    calls = []
    coded_length = punct.coded_length

    def counted(steps):
        calls.append(steps)
        return coded_length(steps)

    for capacity in (16, 4096, 32768):
        coded = punct.block_geometry(capacity).coded_bits
        monkeypatch.setattr(punct, "coded_length", counted)
        grid = punct.depuncture(np.zeros(coded))
        monkeypatch.undo()
        assert punct.coded_length(grid.shape[0]) == coded
        assert 0 < len(calls) <= 2 * punct.period_steps + 4
        calls.clear()


@pytest.mark.parametrize("scheme", ("bpsk", "qpsk", "16qam"))
def test_soft_demap_calls_do_not_grow_with_symbols(python_calls, scheme):
    """Two subset gathers and two reductions per bit, whatever the
    burst size (the masked ``np.where``/``np.min`` oracle makes seven
    calls per bit)."""
    demapper = get_demapper(scheme)
    rng = np.random.default_rng(0)
    counts = []
    for symbols in (1, 4, 64):
        parts = rng.standard_normal((2, symbols, 128))
        counts.append(python_calls(partial(demapper.llrs,
                                           parts[0] + 1j * parts[1])))
    assert counts == [counts[0]] * 3
    assert counts[0] <= 4 * demapper.bits_per_symbol + 8


def _decisions(code, blocks, steps=2730):
    """Random survivor decisions: every bool grid is a valid trellis."""
    rng = np.random.default_rng(blocks)
    shape = (steps, blocks, code.n_states)
    return rng.integers(0, 2, size=shape, dtype=np.uint8).view(bool)


def test_windowed_traceback_calls_scale_with_windows(viterbi_calls,
                                                     python_calls):
    """The dvbt-2k burst (4 blocks × 2730 steps) is traced back in
    ``O(L + W)`` calls for windows of ``L ≈ sqrt(steps)`` steps, not
    ``O(steps)``; the serial walk makes 5,458.  Under ``viterbi_calls``
    each ``np.add`` is a Python call too, so one count covers both."""
    decoder = ViterbiDecoder(get_code("conv-k7"))
    decisions = _decisions(decoder.code, 4)
    steps = len(decisions)
    length = math.isqrt(steps)
    width = -(-steps // length)
    calls = python_calls(partial(decoder._traceback, decisions))
    assert viterbi_calls["add"] <= 2 * (length + width)
    assert calls <= 4 * (length + width)


@pytest.mark.parametrize("code_name", ("conv-k3", "conv-k7"))
def test_traceback_routes_on_blocks_times_states(viterbi_calls, code_name):
    """Windowed up to ``_WINDOWED_TRACEBACK_MAX`` blocks × states,
    serial (one ``add`` per step) one block above it."""
    decoder = ViterbiDecoder(get_code(code_name))
    blocks = viterbi._WINDOWED_TRACEBACK_MAX // decoder.code.n_states
    steps = 1006
    for lanes, serial in ((blocks, False), (blocks + 1, True)):
        decisions = _decisions(decoder.code, lanes, steps)
        viterbi_calls.clear()
        bits = decoder._traceback(decisions)
        assert (viterbi_calls["add"] == steps - 1) is serial
        assert np.array_equal(bits, decoder._traceback_serial(decisions))


def test_windowed_traceback_traced_peak():
    """The dvbt-2k traceback allocates its padded predecessor table
    (0.70 MB) plus windows × blocks × states index lanes: 1.01 MB
    measured.  Keeping every window step's states as well reads 1.89
    MB."""
    decoder = ViterbiDecoder(get_code("conv-k7"))
    decisions = _decisions(decoder.code, 4)
    decoder._traceback(decisions)
    tracemalloc.start()
    try:
        decoder._traceback(decisions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_500_000
