"""Parameter sweeps over FFT sizes (Table I and the scalability claims).

:func:`size_sweep` drives an instruction-level facade backend
(:func:`repro.engine`) per size.  :func:`ber_sweep` and
:func:`coded_ber_sweep` build one :class:`~repro.pipelines.Pipeline`
and rerun it once per SNR point; :func:`scenario_sweep` runs presets.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..asip.runner import AsipRunResult
from ..asip.throughput import paper_mbps, throughput_report
from ..engines import engine as build_engine

__all__ = ["size_sweep", "PAPER_TABLE1", "table1_rows", "ber_sweep",
           "coded_ber_sweep", "scenario_sweep"]

#: the paper's Table I: size -> (cycles, Mbps)
PAPER_TABLE1 = {
    64: (197, 584.7),
    128: (402, 572.2),
    256: (851, 540.9),
    512: (1828, 502.2),
    1024: (4168, 440.6),
}


def size_sweep(sizes, seed: int = 2009, fixed_point: bool = False,
               backend: str = "asip") -> dict:
    """Simulate one FFT per size; returns {N: AsipRunResult}.

    ``backend`` may name any registered facade backend that emits
    simulated cycle counts (``"asip"``, ``"asip-batch"``, ...).
    """
    rng = np.random.default_rng(seed)
    results = {}
    for n in sizes:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if fixed_point:
            x *= 0.25  # headroom for the Q1.15 datapath
        with build_engine(
            n, backend=backend,
            precision="q15" if fixed_point else "float",
        ) as eng:
            if not eng.spec.emits_cycles:
                raise ValueError(
                    f"size_sweep needs a cycle-emitting backend, "
                    f"got {backend!r}"
                )
            result = eng.transform(x)
            machine = eng.machine
        reference = np.fft.fft(x)
        scale = 1.0 / n if fixed_point else 1.0
        tolerance = 0.05 if fixed_point else 1e-6
        if not np.allclose(result.spectrum, reference * scale,
                           atol=tolerance):
            raise AssertionError(f"wrong spectrum at N={n}")
        results[n] = AsipRunResult(
            n_points=n,
            spectrum=result.spectrum,
            stats=machine.stats,
            throughput=throughput_report(n, machine.stats.cycles),
            asip=machine,
        )
    return results


def table1_rows(results: dict) -> list:
    """Rows (N, cycles, paper cycles, Mbps, paper Mbps) for rendering."""
    rows = []
    for n, result in sorted(results.items()):
        paper_cycles, paper_rate = PAPER_TABLE1.get(n, (None, None))
        rows.append((
            n,
            result.stats.cycles,
            paper_cycles if paper_cycles else "-",
            round(paper_mbps(n, result.stats.cycles), 1),
            paper_rate if paper_rate else "-",
        ))
    return rows


def ber_sweep(n_points: int = None, snr_dbs=None, symbols: int = 10,
              scheme: str = None, channel=None, seed: int = 0,
              workers: int = None, backend: str = None,
              scenario: str = None) -> dict:
    """BER at each SNR point through one pipeline; ``{snr_db: ber}``.

    ``scenario=`` names a registered preset with bits to compare (a
    coded preset reports its decoded BER); passing ``scheme`` or
    ``channel`` alongside it is a loud conflict.  Without a scenario,
    pass ``n_points``: the default OFDM chain with ``scheme`` (default
    ``"qpsk"``) and ``channel``.  ``workers >= 2`` selects the sharded
    backend, as for any pipeline.
    """
    points = _sweep("ber_sweep", snr_dbs, symbols, seed, scenario,
                    n_points, backend, workers,
                    dict(scheme=scheme, channel=channel))
    return {snr: metrics["ber"] for snr, metrics in points.items()}


def coded_ber_sweep(snr_dbs, scenario: str = None, n_points: int = None,
                    symbols: int = 10, scheme: str = None,
                    code=None, code_rate: str = None,
                    interleaver=None, channel=None, seed: int = None,
                    backend: str = None, workers: int = None) -> dict:
    """Coded vs uncoded BER (and FER) at each SNR point.

    ``scenario=`` names a registered **coded** preset supplying the
    workload *and* codec configuration — passing ``scheme``/``code``/
    ``code_rate``/``interleaver``/``channel`` alongside it is a loud
    conflict, not a silent ignore.  Without a scenario, pass
    ``n_points``: ``CODED_OFDM_CHAIN`` with ``scheme`` defaulting to
    ``"qpsk"`` and ``code`` to ``"conv-k7"`` at rate 1/2.  Returns
    ``{snr_db: {"coded_ber", "uncoded_ber", "fer"}}`` in the order
    given.
    """
    points = _sweep("coded_ber_sweep", snr_dbs, symbols, seed, scenario,
                    n_points, backend, workers,
                    dict(scheme=scheme, code=code, code_rate=code_rate,
                         interleaver=interleaver, channel=channel))
    return {
        snr: {key: metrics[key] for key in ("coded_ber", "uncoded_ber",
                                            "fer")}
        for snr, metrics in points.items()
    }


def _sweep(caller: str, snr_dbs, symbols: int, seed: int, scenario: str,
           n_points: int, backend: str, workers: int, link: dict) -> dict:
    """``{snr_db: metrics}``: one pipeline rerun per SNR point.

    The pipeline is built once, from the ``scenario`` preset or from
    ``n_points`` and the ``link`` fields (None means unset), and each
    point reruns it with ``seed`` and only the SNR changed, so the
    engines and compiled plans are reused.  A ``link`` field set
    alongside ``scenario`` is a conflict; a coded sweep (``link`` has
    ``code``) needs a coded preset, any sweep one with bits.
    """
    from ..pipelines import CODED_OFDM_CHAIN, DEFAULT_OFDM_CHAIN, Pipeline
    from ..scenarios import get_scenario

    snr_dbs = [float(s) for s in (() if snr_dbs is None else snr_dbs)]
    if not snr_dbs:
        raise ValueError(f"{caller} needs snr_dbs")
    coded = "code" in link
    options = {name: value for name, value in (
        ("n_points", n_points), ("backend", backend), ("workers", workers),
    ) if value is not None}
    if scenario is not None:
        conflicts = [name for name, value in link.items()
                     if value is not None]
        if conflicts:
            raise ValueError(
                f"scenario={scenario!r} already fixes "
                f"{', '.join(conflicts)}; drop them or sweep without "
                f"scenario="
            )
        spec = get_scenario(scenario)
        if coded and spec.code is None:
            raise ValueError(
                f"scenario {scenario!r} is uncoded; {caller} needs a "
                f"coded preset or explicit code= parameters"
            )
        if spec.scheme is None:
            raise ValueError(
                f"scenario {scenario!r} carries no bits; {caller} needs "
                f"a modulated preset"
            )
        pipe = spec.build(**options)
    elif n_points is None:
        raise ValueError(f"{caller} needs n_points or scenario=")
    else:
        options.update((name, value) for name, value in link.items()
                       if value is not None)
        if coded:
            options.setdefault("code", "conv-k7")
        pipe = Pipeline(options.pop("n_points"),
                        CODED_OFDM_CHAIN if coded else DEFAULT_OFDM_CHAIN,
                        **options)
    with pipe:
        return {snr: pipe.run(symbols=symbols, seed=seed,
                              snr_db=snr).metrics
                for snr in snr_dbs}


def scenario_sweep(names=None, symbols: int = None, backend: str = None,
                   precision: str = None, workers: int = None,
                   seed: int = None, n_points: int = None) -> list:
    """Run scenario presets through the pipeline API; one row dict each.

    ``names`` defaults to every registered scenario.  Overrides
    (``backend=``, ``precision=``, ``workers=``, ``n_points=``,
    ``symbols=``) apply uniformly — the sweep behind the CLI's ``run``
    and ``trace`` and the engine-speed bench's scenario rows.  Each row
    carries the scenario name, geometry, backend, wall-clock, and
    whatever metrics the chain produced (BER/EVM for modulated chains,
    cycles/overflow when the backend emits them).

    Each preset runs twice: a one-symbol warm-up, then the measured
    run.  The warm-up runs under a throwaway tracer, so a tracer the
    caller installed records the measured run only and its ``stage.*``
    spans equal the row's ``stage_seconds``.
    """
    import time

    from ..scenarios import get_scenario, scenario_names

    rows = []
    for name in (names if names is not None else scenario_names()):
        spec = get_scenario(name)
        overrides = {}
        if backend is not None:
            overrides["backend"] = backend
        if precision is not None:
            overrides["precision"] = precision
        if workers is not None:
            overrides["workers"] = workers
        if n_points is not None:
            overrides["n_points"] = n_points
        count = spec.symbols if symbols is None else symbols
        with spec.build(**overrides) as pipe:
            # Warm the lazily-built engines (plan compilation, program
            # predecode) with a one-symbol pass so the recorded wall
            # clock measures scenario throughput, not construction.
            with telemetry.trace("warm-up"):
                pipe.run(symbols=1, seed=seed)
            started = time.perf_counter()
            result = pipe.run(symbols=count, seed=seed)
            elapsed = time.perf_counter() - started
            chain = pipe.describe()
        row = {
            "scenario": name,
            "n": result.n_points,
            "symbols": result.symbols,
            "backend": result.backend,
            "precision": result.precision,
            "chain": chain,
            "wall_ms": elapsed * 1e3,
            "symbols_per_s": count / elapsed if elapsed else 0.0,
        }
        for key in ("ber", "evm_percent", "cycles_per_symbol",
                    "overflow_count", "coded_ber", "uncoded_ber", "fer",
                    "code", "code_rate", "stage_seconds"):
            if key in result.metrics:
                row[key] = result.metrics[key]
        rows.append(row)
    return rows
