"""Scalability claims: WiMAX size agility and the UWB throughput spec.

The introduction motivates two requirements the evaluation returns to:

* WiMAX (802.16) adjusts the FFT size from 128 to 2048 — the ASIP must be
  reprogrammable across that whole range (Section IV: "the FFT algorithm
  is reprogrammed and recompiled for different FFT sizes");
* MB-UWB (802.15.3) needs > 409.6 Msample/s; the paper's 1024-point run
  "attains UWB-OFDM specifications".

This bench sweeps N = 128 .. 2048, checks correctness at every size, and
evaluates both claims against our measured cycle counts.

Run:  pytest benchmarks/bench_scaling.py --benchmark-only -s
"""

import numpy as np
import pytest

from repro.analysis import render_table, size_sweep
from repro.asip import paper_mbps
from repro.asip.throughput import CLOCK_HZ, msamples_per_second

WIMAX_SIZES = [128, 256, 512, 1024, 2048]
UWB_SPEC_MSAMPLES = 409.6


@pytest.fixture(scope="module")
def wimax_results():
    return size_sweep(WIMAX_SIZES)


def test_wimax_size_agility(wimax_results):
    """Every WiMAX size runs correctly on the same datapath family."""
    rows = []
    for n in WIMAX_SIZES:
        result = wimax_results[n]
        rows.append((
            n,
            result.stats.cycles,
            round(msamples_per_second(n, result.stats.cycles), 1),
            round(paper_mbps(n, result.stats.cycles), 1),
        ))
    print()
    print(render_table(
        ["N (WiMAX range)", "cycles", "Msample/s", "Mbps (6-bit conv.)"],
        rows,
        title="WiMAX 128..2048 scaling sweep",
    ))


def test_uwb_spec_discussion(wimax_results):
    """The paper's UWB claim under both throughput conventions.

    At 300 MHz the 1024-point run yields ~74 Msample/s back-to-back;
    the paper's 440.6 'Mbps' (6-bit convention) clears its 409.6 figure.
    We reproduce the published comparison and report the physical
    Msample/s alongside (the honest gap a deployment would face).
    """
    result = wimax_results[1024]
    mbps = paper_mbps(1024, result.stats.cycles)
    msps = msamples_per_second(1024, result.stats.cycles)
    print(f"\n1024-point: {msps:.1f} Msample/s, "
          f"{mbps:.1f} Mbps (paper convention) vs 409.6 spec figure")
    assert mbps > UWB_SPEC_MSAMPLES  # the paper's comparison
    assert msps > 50  # physical sample rate sanity bound


def test_cycles_scale_as_n_log_n(wimax_results):
    c128 = wimax_results[128].stats.cycles
    c2048 = wimax_results[2048].stats.cycles
    # custom-op counts: 2048*(2 + 11/8) / (128*(2 + 7/8)) = 18.8, with
    # group-loop overhead on the 2048 side only
    assert 15 < c2048 / c128 < 28


def test_bench_2048(benchmark):
    import repro

    rng = np.random.default_rng(11)
    x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)

    def run():
        with repro.engine(2048, backend="asip") as eng:
            return eng.transform(x).stats.cycles

    cycles = benchmark(run)
    assert msamples_per_second(2048, cycles, CLOCK_HZ) > 50
