"""Ablations over the design choices DESIGN.md calls out.

1. **BU width** — the paper picked 4 butterfly lanes (8 points/cycle);
   this ablation recomputes compute-op counts and area for 1/2/4/8-lane
   units, exposing the area-throughput knee.
2. **Epoch split** — the paper's ``0 <= p - q <= 1`` rule minimises the
   CRF; alternative N = P*Q factorisations trade CRF size against group
   counts.  Each alternative is *executed* (numerically verified), not
   just modelled.
3. **Loop unrolling** — the codegen's group-unroll threshold is the
   software-control overhead the paper blames for Table I's throughput
   droop; this ablation measures it directly.

Run:  pytest benchmarks/bench_ablation_design.py --benchmark-only -s
"""

import numpy as np
import pytest

from repro.addressing.epoch import EpochSplit
from repro.analysis import render_table
from repro.asip.codegen import generate_fft_program
from repro.asip.fft_asip import FFTASIP
from repro.core import ArrayFFT
from repro.core.plan import build_plan
from repro.hw import AreaModel


def test_bu_width_ablation():
    """Compute ops vs area for 1/2/4/8-lane butterfly units (N=1024)."""
    n, stages = 1024, 10
    butterflies = n * stages // 2
    rows = []
    for lanes in (1, 2, 4, 8):
        compute_ops = butterflies // lanes
        area = AreaModel(32, bu_lanes=lanes).breakdown()
        # memory + prerotation ops are width-independent
        lower_bound_cycles = compute_ops + 2 * n + n // 2
        rows.append((lanes, compute_ops, area.bu_ac,
                     lower_bound_cycles))
    print()
    print(render_table(
        ["BU lanes", "compute ops", "BU+AC gates", "cycle lower bound"],
        rows,
        title="Ablation — BU width (N=1024)",
    ))
    # the paper's 4-lane point: memory ops already dominate at 4 lanes,
    # so 8 lanes nearly doubles area for <10% cycle improvement
    four = butterflies // 4 + 2 * n + n // 2
    eight = butterflies // 8 + 2 * n + n // 2
    assert (four - eight) / four < 0.25
    assert AreaModel(32, bu_lanes=8).breakdown().bu_ac > (
        1.8 * AreaModel(32, bu_lanes=4).breakdown().bu_ac
    )


def test_epoch_split_ablation():
    """Alternative N = P*Q factorisations of a 1024-point FFT."""
    n = 1024
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rows = []
    for p in (4, 5, 6, 7):
        split = EpochSplit(n=10, p=p, q=10 - p)
        engine = ArrayFFT(n, split=split)
        assert np.allclose(engine.transform(x), np.fft.fft(x), atol=1e-8)
        plan = build_plan(n, split)
        crf_gates = AreaModel(split.P).breakdown().crf
        rows.append((
            f"{split.P} x {split.Q}",
            plan.crf_entries,
            crf_gates,
            plan.total_but4,
        ))
    print()
    print(render_table(
        ["split P x Q", "CRF entries", "CRF gates", "BUT4 ops"],
        rows,
        title="Ablation — epoch split of N=1024",
    ))
    # the paper's balanced split minimises the CRF for a square N
    balanced = build_plan(n, EpochSplit(n=10, p=5, q=5)).crf_entries
    skewed = build_plan(n, EpochSplit(n=10, p=7, q=3)).crf_entries
    assert balanced < skewed


@pytest.mark.parametrize("n", [256])
def test_unroll_threshold_ablation(n):
    """Software loop overhead: fully-looped vs group-unrolled codegen."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cycles = {}
    for threshold, label in ((0, "looped"), (4096, "unrolled")):
        asip = FFTASIP(n)
        asip.load_input(x)
        program = generate_fft_program(
            n, asip.plan, unroll_threshold=threshold
        )
        stats = asip.run(program)
        assert np.allclose(asip.read_output(), np.fft.fft(x), atol=1e-8)
        cycles[label] = (stats.cycles, len(program))
    print()
    print(render_table(
        ["codegen", "cycles", "program words"],
        [(k, c, size) for k, (c, size) in cycles.items()],
        title=f"Ablation — group-loop unrolling at N={n}",
    ))
    assert cycles["unrolled"][0] < cycles["looped"][0]
    assert cycles["unrolled"][1] > cycles["looped"][1]


def test_bench_split_execution(benchmark):
    x = np.random.default_rng(9).standard_normal(1024).astype(complex)
    engine = ArrayFFT(1024, split=EpochSplit(n=10, p=6, q=4))

    def run():
        return engine.transform(x)

    out = benchmark(run)
    assert np.allclose(out, np.fft.fft(x), atol=1e-8)
