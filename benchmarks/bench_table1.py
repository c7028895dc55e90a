"""Table I: data throughput of the array FFT ASIP for N = 64 .. 1024.

Regenerates the paper's five rows (cycle counts and the 6-bit-convention
Mbps column) from full instruction-level simulation, asserts the
reproduction bands (cycles within 15%, throughput monotonically
decreasing), and benchmarks the simulation itself.

Run:  pytest benchmarks/bench_table1.py --benchmark-only -s
"""

import numpy as np
import pytest

import repro
from repro.analysis import PAPER_TABLE1, render_table, size_sweep, table1_rows

SIZES = [64, 128, 256, 512, 1024]


@pytest.fixture(scope="module")
def sweep_results():
    return size_sweep(SIZES)


def test_table1_report(sweep_results):
    """Print the regenerated Table I next to the published values."""
    rows = table1_rows(sweep_results)
    print()
    print(render_table(
        ["N", "cycles", "paper cycles", "Mbps (6-bit conv.)", "paper Mbps"],
        rows,
        title="Table I — simulation results of data throughput",
    ))
    for n, result in sweep_results.items():
        paper_cycles, _ = PAPER_TABLE1[n]
        deviation = abs(result.stats.cycles - paper_cycles) / paper_cycles
        assert deviation < 0.15, (n, result.stats.cycles, paper_cycles)


def test_throughput_shape(sweep_results):
    """The paper's trend: throughput decreases slightly as N grows."""
    rates = [
        sweep_results[n].throughput.mbps_paper_convention for n in SIZES
    ]
    assert rates == sorted(rates, reverse=True)


@pytest.mark.parametrize("n", SIZES)
def test_bench_asip_simulation(benchmark, n):
    """Wall-clock of one full instruction-level N-point simulation."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def run():
        with repro.engine(n, backend="asip") as eng:
            return eng.transform(x).stats.cycles

    cycles = benchmark(run)
    assert cycles > 0
