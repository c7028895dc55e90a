"""Deterministic cost gates for the Viterbi decoder.

Call counts do not depend on the host, so these gates catch an
add-compare-select that falls back to more calls per trellis step, or a
``depuncture`` that walks the block length step by step, on any
machine, where a wall-clock floor would flake.  The ACS gate counts
ufunc calls through the ``viterbi_calls`` fixture (``tests/conftest.py``).
"""

import numpy as np
import pytest

from repro.coding import PUNCTURE_PATTERNS, ViterbiDecoder, get_code
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
