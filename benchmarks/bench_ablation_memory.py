"""Ablation: the CRF's contribution (on-chip reuse vs all-memory FFT).

The design's central bet (Section I-B/III-A): keeping every intra-epoch
intermediate in the custom register file turns ``2 * N * log2 N`` memory
operations into ``2 * 2 * N`` (one load + one store per point per epoch).
This bench quantifies that: measured ASIP loads/stores vs the standard
CT-FFT's load/store count and the Xtensa-style every-stage-through-memory
model, plus the cache-latency-charged cycle impact of each pattern.

Run:  pytest benchmarks/bench_ablation_memory.py --benchmark-only -s
"""

import numpy as np
import pytest

import repro
from repro.analysis import render_table
from repro.baselines import XtensaFFTModel
from repro.fft import load_store_count


@pytest.mark.parametrize("n", [256, 1024])
def test_memory_traffic_ablation(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with repro.engine(n, backend="asip") as eng:
        ours = eng.transform(x).stats
    xtensa = XtensaFFTModel(n).simulate()
    standard = load_store_count(n)  # 2 N log2 N single-point ops

    rows = [
        ("standard CT-FFT (every stage)", standard // 2, standard // 2),
        ("Xtensa TIE (2-point ops)", xtensa.loads, xtensa.stores),
        ("array ASIP (CRF reuse)", ours.loads, ours.stores),
    ]
    print()
    print(render_table(
        ["memory pattern", "loads", "stores"],
        rows,
        title=f"Ablation — memory traffic at N={n}",
    ))
    stages = n.bit_length() - 1
    # CRF removes the log2(N) factor: ops per point drop from ~stages to 2.
    assert ours.loads == n
    assert xtensa.loads > (stages // 2) * ours.loads


def test_cache_latency_sensitivity():
    """With miss latency charged, the CRF design degrades least."""
    n = 256
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with repro.engine(n, backend="asip") as eng:
        free = eng.transform(x).stats.cycles

    from repro.asip import FFTASIP, generate_fft_program

    asip = FFTASIP(n)
    asip.charge_cache_latency = True
    asip.load_input(x)
    charged = asip.run(generate_fft_program(n, asip.plan)).cycles
    slowdown = charged / free
    print(f"\nASIP cycles {free} -> {charged} with miss latency charged "
          f"({slowdown:.2f}x)")
    # At N=256 the traffic is all compulsory misses, so the charged run
    # pays ~miss_penalty per cache line once; sensitivity stays bounded.
    assert slowdown < 3.5


def test_bench_ablation(benchmark):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)

    def run():
        with repro.engine(256, backend="asip") as eng:
            return eng.transform(x).stats.loads

    loads = benchmark(run)
    assert loads == 256
