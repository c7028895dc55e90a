"""Section IV hardware cost: gates, power, critical path vs the paper.

Regenerates the custom-hardware cost paragraph (17,324 + 15,764 gates,
3.2 ns BU path / 300 MHz, 17.68 mW) from the calibrated component models
and sweeps the group size P to quantify how the cost scales — the
flexibility-vs-area story behind the "easily expand along both
dimensions" claim.

Run:  pytest benchmarks/bench_hw_cost.py --benchmark-only -s
"""

import pytest

from repro.analysis import render_table
from repro.hw import AreaModel, PowerModel, TimingModel, hardware_report


def test_hw_cost_report():
    report = hardware_report(32)
    print()
    print(render_table(
        ["metric", "modelled", "paper"],
        report.rows(),
        title="Section IV — custom hardware cost (P = 32)",
    ))
    for name, modelled, paper in report.rows():
        assert abs(modelled - paper) / paper < 0.10, name


def test_scaling_sweep():
    rows = []
    for group_size in (8, 16, 32, 64, 128):
        area = AreaModel(group_size).breakdown()
        power = PowerModel(AreaModel(group_size)).breakdown()
        timing = TimingModel(group_size)
        rows.append((
            group_size,
            (group_size ** 2) if group_size != 32 else 1024,
            area.bu_ac,
            area.crf_rom,
            round(power.total, 2),
            round(timing.critical_path_ns(), 2),
        ))
    print()
    print(render_table(
        ["P", "~max N (P*P)", "BU+AC gates", "CRF+ROM gates",
         "power (mW)", "crit. path (ns)"],
        rows,
        title="Custom hardware cost vs group size",
    ))
    # storage dominates growth; compute stays flat; clock unaffected
    gates = [AreaModel(p).breakdown() for p in (8, 128)]
    assert gates[1].crf_rom > 10 * gates[0].crf_rom
    assert gates[1].bu_ac < 1.1 * gates[0].bu_ac
    assert TimingModel(128).max_clock_mhz() >= 300


def test_energy_per_fft():
    """Energy per transform from measured cycles x modelled power."""
    import numpy as np

    import repro
    from repro.hw import energy_per_fft_nj

    rows = []
    for n in (64, 256, 1024):
        x = np.random.default_rng(n).standard_normal(n).astype(complex)
        with repro.engine(n, backend="asip") as eng:
            cycles = eng.transform(x).stats.cycles
        report = energy_per_fft_nj(n, cycles)
        rows.append((
            n, cycles, round(report.time_us, 2),
            round(report.energy_nj, 1), round(report.nj_per_point, 3),
        ))
    print()
    print(render_table(
        ["N", "cycles", "latency (us)", "energy (nJ)", "nJ/point"],
        rows,
        title="Energy per transform (custom hardware @300 MHz)",
    ))
    # per-point energy grows only with the log2(N)/8 compute term
    assert rows[-1][4] < 1.6 * rows[0][4]


def test_bench_hw_models(benchmark):
    def build():
        return hardware_report(32).area.total

    total = benchmark(build)
    assert 30_000 < total < 36_000
