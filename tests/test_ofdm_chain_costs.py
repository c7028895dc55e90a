"""Deterministic cost gates for the uncoded OFDM chain.

Call counts do not depend on the host, so these gates catch a bit stage
that falls back to per-symbol work, or a slicer that defers to its
argmin oracle, on any machine, where a wall-clock floor would flake.
Each gate runs warm ``uwb-ofdm`` bursts (1024-carrier QPSK at 20 dB) on
the ``compiled`` backend at three burst sizes.
"""

from functools import partial

import numpy as np
import pytest

import repro
from repro.ofdm.modulation import Constellation

SYMBOLS = (16, 64, 256)


@pytest.fixture(scope="module")
def pipe():
    with repro.build_scenario("uwb-ofdm", backend="compiled") as pipe:
        pipe.run(symbols=SYMBOLS[0], seed=1)  # compile the FFT plans
        yield pipe


def test_burst_python_calls_do_not_grow_with_symbols(pipe, python_calls):
    """Every stage makes one burst-wide call, whatever the burst size."""
    counts = [python_calls(partial(pipe.run, symbols=symbols, seed=7))
              for symbols in SYMBOLS]
    assert counts[0] > 0
    assert counts == [counts[0]] * len(SYMBOLS)


def test_noisy_bursts_need_no_oracle(monkeypatch, pipe):
    """At 20 dB no symbol lies in the slicer's exactness band."""
    seen = []
    original = Constellation.unmap_symbols_reference

    def counted(self, symbols):
        seen.append(np.size(symbols))
        return original(self, symbols)

    monkeypatch.setattr(Constellation, "unmap_symbols_reference", counted)
    for symbols in SYMBOLS:
        assert pipe.run(symbols=symbols, seed=7).metrics["bit_errors"] == 0
    assert seen == []
