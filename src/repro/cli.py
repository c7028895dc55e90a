"""Command-line interface: regenerate any of the paper's artifacts.

Usage::

    python -m repro table1              # Table I throughput sweep
    python -m repro table2 [--size N]   # Table II four-way comparison
    python -m repro hw [--group-size P] # Section IV hardware cost
    python -m repro fft --size N [--backend B] [--precision P]
                                        # one verified transform
    python -m repro stream --size N --symbols K [--backend B] [--workers W]
                                        # steady-state streamed throughput
    python -m repro bench [--sizes N,M] # per-backend facade benchmark
    python -m repro run <scenario> [--symbols K] [--backend B]
    python -m repro run --list          # registered scenario presets
    python -m repro run --all           # every preset, one table
    python -m repro trace <scenario>    # span tree of the measured run
    python -m repro verify --fuzz N [--seed S]
                                        # seeded differential fuzzing
    python -m repro verify --coexec <scenario> [--backends a,b]
                                        # lockstep co-execution parity
    python -m repro verify --inject <fault|all>
                                        # fault-injection self-test
    python -m repro serve [--tenants T --symbols K --size N]
                                        # threaded tenants on one pool:
                                        # sessions/s, tail latency, health
    python -m repro listing --size N    # the generated program listing

The transform-running subcommands (``fft``, ``stream``, ``bench``,
``run``, ``serve``) share the facade flags ``--backend`` /
``--precision`` / ``--workers`` and run through :func:`repro.engine`,
so every registered backend is reachable from the command line; ``run``
resolves named presets from the scenario registry
(:mod:`repro.scenarios`) into pipelines.  ``--workers`` sizes the
``sharded`` backend's thread pool; every one of these commands (and
``trace``) exits with the facade's message when another backend is
given ``--workers`` of 2 or more.  ``bench`` without ``--backend``
times every backend and hands ``--workers`` to ``sharded`` only.

``run`` and ``trace`` time one warm run per scenario: the one-symbol
warm-up before it reaches neither the printed wall time nor the trace.
No command writes a file it was not asked for: ``trace`` writes its
export (``--out``, default ``trace.json``), and ``--trace PATH`` (on
``run`` / ``bench`` / ``serve``) and ``report --output`` write the
files they name.  Run-to-run regression checks belong to perfbench and
its ``compare.py``.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from .analysis import (
    PAPER_TABLE1,
    format_ratio,
    render_table,
    size_sweep,
    table1_rows,
)
from .asip import generate_fft_program
from .asip.throughput import msamples_per_second, paper_mbps
from .baselines import PAPER_TABLE2, run_table2
from .core.registry import UnknownNameError, backend_names, get_backend
from .engines import benchmark_backends, check_workers
from .engines import engine as build_engine
from .hw import hardware_report

from . import telemetry

__all__ = ["main", "build_parser"]


def _engine_flags() -> argparse.ArgumentParser:
    """The shared facade flags (--backend/--precision/--workers)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--backend", type=str, default=None,
                        help="facade backend (default depends on the "
                             f"subcommand; registered: "
                             f"{', '.join(backend_names())})")
    common.add_argument("--precision", type=str, default=None,
                        choices=["float", "q15", "fixed"],
                        help="datapath precision (fixed is an alias for "
                             "q15; default float, or the scenario's own "
                             "for `run`)")
    common.add_argument("--workers", type=int, default=None,
                        help="thread count for the sharded backend "
                             "(other backends reject 2 or more)")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATE'09 array-FFT ASIP reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _engine_flags()
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace", type=str, default="", metavar="PATH",
                        help="also write a Chrome trace-event file of "
                             "the command's spans to PATH")

    sub.add_parser("table1", help="Table I throughput sweep")

    t2 = sub.add_parser("table2", help="Table II four-way comparison")
    t2.add_argument("--size", type=int, default=1024)

    hw = sub.add_parser("hw", help="Section IV hardware cost report")
    hw.add_argument("--group-size", type=int, default=32)

    fft = sub.add_parser("fft", parents=[common],
                         help="run one verified transform on a backend")
    fft.add_argument("--size", type=int, default=1024)
    fft.add_argument("--fixed-point", action="store_true",
                     help="alias for --precision q15")
    fft.add_argument("--seed", type=int, default=0)

    stream = sub.add_parser(
        "stream", parents=[common],
        help="streamed multi-symbol throughput on a backend",
    )
    stream.add_argument("--size", type=int, default=1024)
    stream.add_argument("--symbols", type=int, default=64)
    stream.add_argument("--batch", type=int, default=None,
                        help="symbols per batched execution pass")
    stream.add_argument("--fixed-point", action="store_true",
                        help="alias for --precision q15")
    stream.add_argument("--no-verify", action="store_true",
                        help="skip per-symbol output verification")
    stream.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench", parents=[common, traced],
        help="per-backend facade benchmark (all backends by default)",
    )
    bench.add_argument("--sizes", type=str, default="256",
                       help="comma-separated FFT sizes")
    bench.add_argument("--symbols", type=int, default=32)
    bench.add_argument("--seed", type=int, default=0)

    run = sub.add_parser(
        "run", parents=[common, traced],
        help="run a named scenario preset through the pipeline API",
    )
    run.add_argument("scenario", nargs="?", default=None,
                     help="registered scenario name (see run --list)")
    run.add_argument("--symbols", type=int, default=None,
                     help="burst size (default: the preset's)")
    run.add_argument("--size", type=int, default=None,
                     help="override the preset's FFT size")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--list", action="store_true",
                     help="list registered scenarios and exit")
    run.add_argument("--all", action="store_true",
                     help="run every registered scenario (one table)")

    verify = sub.add_parser(
        "verify",
        help="differential co-execution, fuzzing and fault injection",
    )
    verify.add_argument("--fuzz", type=int, default=None, metavar="N",
                        help="run N seeded fuzz cases round-robin over "
                             "the ISA/engine/scenario/coded generators")
    verify.add_argument("--coexec", type=str, default=None,
                        metavar="SCENARIO",
                        help="co-execute one scenario preset's transform "
                             "across a backend pair in lockstep")
    verify.add_argument("--inject", type=str, default=None,
                        choices=["twiddle", "branch-metric", "llr-sign",
                                 "slicer-threshold", "worker-shard",
                                 "asip-step", "engine-stall", "all"],
                        help="inject one fault class (or every class) "
                             "and prove the harness localises it")
    verify.add_argument("--backends", type=str,
                        default="compiled,reference",
                        help="comma-separated backend pair for --coexec")
    verify.add_argument("--symbols", type=int, default=8,
                        help="burst size for --coexec")
    verify.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", parents=[common, traced],
        help="supervised multi-tenant session serving under the "
             "threaded load generator",
    )
    serve.add_argument("--tenants", type=int, default=8,
                       help="concurrent tenant sessions to drive")
    serve.add_argument("--symbols", type=int, default=64,
                       help="symbols per tenant")
    serve.add_argument("--size", type=int, default=64,
                       help="FFT size per tenant session")
    serve.add_argument("--batch", type=int, default=8,
                       help="symbols per executed chunk")
    serve.add_argument("--deadline", type=float, default=10.0,
                       help="per-submit deadline in seconds")
    serve.add_argument("--exec-timeout", type=float, default=None,
                       help="per-chunk watchdog bound in seconds")
    serve.add_argument("--seed", type=int, default=0)

    trace_cmd = sub.add_parser(
        "trace", parents=[common],
        help="run a scenario under the span tracer and export the "
             "trace (chrome-trace/jsonl/console exporters)",
    )
    trace_cmd.add_argument("scenario",
                           help="registered scenario name (see run "
                                "--list)")
    trace_cmd.add_argument("--symbols", type=int, default=None,
                           help="burst size (default: the preset's)")
    trace_cmd.add_argument("--size", type=int, default=None,
                           help="override the preset's FFT size")
    trace_cmd.add_argument("--seed", type=int, default=None)
    trace_cmd.add_argument("--out", type=str, default="trace.json",
                           help="output file for the exported trace")
    trace_cmd.add_argument("--exporter", type=str, default="chrome-trace",
                           help="registered exporter name "
                                f"({', '.join(telemetry.exporter_names())})")
    trace_cmd.add_argument("--instructions", type=int, default=0,
                           metavar="N",
                           help="also run an N-point interpreted ASIP "
                                "FFT and merge its instruction timeline "
                                "into the trace-event file")

    uarch = sub.add_parser(
        "uarch",
        help="re-time a recorded oracle run under the scoreboarded "
             "issue-width overlay (--study: width x cache sweep priced "
             "through the hw/ models)",
    )
    uarch.add_argument("scenario", nargs="?", default=None,
                       help="registered scenario whose FFT size to use "
                            "(default: 1024 points)")
    uarch.add_argument("--size", type=int, default=None,
                       help="override the FFT size directly")
    uarch.add_argument("--study", action="store_true",
                       help="run the issue-width x cache design study "
                            "(the extended Table II)")
    uarch.add_argument("--seed", type=int, default=2009)

    listing = sub.add_parser("listing", help="show the generated program")
    listing.add_argument("--size", type=int, default=64)

    report = sub.add_parser(
        "report", help="full Markdown reproduction report"
    )
    report.add_argument("--size", type=int, default=1024,
                        help="Table II comparison size")
    report.add_argument("--output", type=str, default="",
                        help="write to a file instead of stdout")
    return parser


def _resolve_precision(args) -> str:
    if getattr(args, "fixed_point", False):
        return "q15"
    return "q15" if args.precision in ("q15", "fixed") else "float"


def _cmd_table1() -> str:
    results = size_sweep(sorted(PAPER_TABLE1))
    return render_table(
        ["N", "cycles", "paper cycles", "Mbps (6-bit)", "paper Mbps"],
        table1_rows(results),
        title="Table I — data throughput for different FFT sizes",
    )


def _cmd_table2(size: int) -> str:
    rows = run_table2(size)
    ours = rows["proposed"]
    body = []
    for key in ("standard_sw", "ti_dsp", "xtensa", "proposed"):
        row = rows[key]
        paper = PAPER_TABLE2[key]["cycles"] if size == 1024 else "-"
        body.append((
            row.name, row.cycles, paper,
            row.loads or "-", row.stores or "-", row.misses,
            format_ratio(row.cycles / ours.cycles),
        ))
    return render_table(
        ["implementation", "cycles", "paper", "loads", "stores",
         "D$ misses", "X vs proposed"],
        body,
        title=f"Table II — {size}-point FFT comparison",
    )


def _cmd_hw(group_size: int) -> str:
    report = hardware_report(group_size)
    note = "" if group_size == 32 else " (paper column is the P=32 config)"
    return render_table(
        ["metric", "modelled", "paper"],
        report.rows(),
        title=f"Hardware cost, P = {group_size}{note}",
    )


def _open_engine(size: int, backend: str, precision: str, workers: int,
                 batch: int = None):
    """Build the facade engine ``fft``/``stream`` run on; a combination
    the facade rejects exits with its message, not a traceback."""
    try:
        return build_engine(size, backend=backend, precision=precision,
                            workers=workers, batch=batch)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _check_workers(backend: str, workers: int) -> None:
    """The facade's ``workers`` rule for ``bench``/``serve``, which
    build their engines later; a refusal exits with its message."""
    try:
        check_workers(get_backend(backend), workers)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _cmd_fft(size: int, backend: str, precision: str, workers: int,
             seed: int) -> str:
    backend = backend or "asip"
    fixed = precision == "q15"
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if fixed:
        x *= 0.25
    with _open_engine(size, backend, precision, workers) as eng:
        result = eng.transform(x)
        stats = eng.stats
        scale = 1.0 / size if fixed else 1.0
        reference = np.fft.fft(x) * scale
        error = float(np.max(np.abs(result.spectrum - reference)))
        lines = [
            f"N = {size}  ({'Q1.15' if fixed else 'float'} datapath, "
            f"backend = {result.backend})",
        ]
        if eng.spec.emits_sim_stats:
            cycles = result.total_cycles
            lines += [
                f"cycles = {cycles}   instructions = {stats.instructions}",
                f"loads = {stats.loads}  stores = {stats.stores}  "
                f"D$ misses = {stats.dcache_misses}",
                f"throughput = {msamples_per_second(size, cycles):.1f} "
                f"Msample/s ({paper_mbps(size, cycles):.1f} Mbps, "
                f"6-bit conv.)",
            ]
        if fixed:
            lines.append(f"overflow count = {result.overflow_count}")
        lines.append(f"max error vs numpy = {error:.2e}")
    return "\n".join(lines)


def _stream_blocks(size: int, symbols: int, fixed: bool,
                   seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((symbols, size)) + 1j * rng.standard_normal(
        (symbols, size)
    )
    return blocks * 0.25 if fixed else blocks


def _cmd_stream(size: int, symbols: int, backend: str, precision: str,
                workers: int, batch: int, verify: bool, seed: int) -> str:
    backend = backend or "asip-batch"
    fixed = precision == "q15"
    blocks = _stream_blocks(size, symbols, fixed, seed)
    started = time.perf_counter()
    with _open_engine(size, backend, precision, workers, batch) as eng:
        result = eng.stream(blocks, batch=batch, verify=verify)
    elapsed = time.perf_counter() - started
    cycles = result.cycles
    n_symbols = result.n_symbols
    total_cycles = int(sum(cycles))
    per_symbol = total_cycles / n_symbols if n_symbols else 0.0
    deterministic = len(set(cycles)) <= 1
    samples = size * n_symbols
    msps = (
        msamples_per_second(samples, total_cycles) if total_cycles else 0.0
    )
    mbps = paper_mbps(samples, total_cycles) if total_cycles else 0.0
    datapath = "Q1.15" if fixed else "float"
    lines = [
        f"N = {size}  ({datapath} datapath, backend = {backend})"
        f"  symbols = {n_symbols}"
        + (f"  workers = {workers}" if workers and workers >= 2 else ""),
        f"cycles/symbol = {per_symbol:.1f}"
        f"   deterministic = {deterministic}",
        f"steady-state throughput = {msps:.1f} "
        f"Msample/s ({mbps:.1f} Mbps, 6-bit conv.)",
        f"host wall-clock = {elapsed:.2f} s "
        f"({n_symbols / elapsed:.1f} symbols/s simulated)",
    ]
    return "\n".join(lines)


def _cmd_bench(sizes: str, symbols: int, backend: str, precision: str,
               workers: int, seed: int) -> str:
    try:
        size_list = [int(s) for s in sizes.split(",") if s.strip()]
    except ValueError:
        raise SystemExit(f"bad --sizes value {sizes!r}")
    if backend:
        _check_workers(backend, workers)
    rows = []
    for n in size_list:
        rows.extend(benchmark_backends(
            n, symbols, precisions=(precision,),
            backends=[backend] if backend else None,
            workers=workers, seed=seed,
        ))
    body = [
        (
            row["backend"], row["n"], row["symbols"],
            f"{row['wall_ms']:.2f}",
            f"{row['symbols_per_s']:.0f}",
            (f"{row['cycles_per_symbol']:.0f}"
             if row["cycles_per_symbol"] else "-"),
        )
        for row in rows
    ]
    return render_table(
        ["backend", "N", "symbols", "wall ms", "symbols/s",
         "cycles/symbol"],
        body,
        title=f"Facade backends ({precision} datapath, parity-checked)",
    )


def _scenario_listing() -> str:
    from .scenarios import scenario_specs

    body = [
        (spec.name, spec.n_points, spec.scheme or "-", spec.precision,
         spec.description)
        for spec in scenario_specs().values()
    ]
    return render_table(
        ["scenario", "N", "scheme", "precision", "description"],
        sorted(body),
        title="Registered scenarios (python -m repro run <name>)",
    )


def _scenario_row_table(rows: list, title: str) -> str:
    body = [
        (
            row["scenario"], row["n"], row["symbols"], row["backend"],
            row["precision"],
            f"{row['ber']:.4f}" if "ber" in row else "-",
            (f"{row['evm_percent']:.2f}" if "evm_percent" in row else "-"),
            (f"{row['cycles_per_symbol']:.0f}"
             if row.get("cycles_per_symbol") else "-"),
            row.get("overflow_count", "-"),
            f"{row['wall_ms']:.1f}",
        )
        for row in rows
    ]
    return render_table(
        ["scenario", "N", "symbols", "backend", "precision", "BER",
         "EVM %", "cycles/sym", "overflow", "wall ms"],
        body,
        title=title,
    )


def _scenario_overrides(args) -> dict:
    """The pipeline overrides ``run`` and ``trace`` take from flags."""
    overrides = dict(
        backend=args.backend,
        precision=args.precision,
        workers=args.workers,
        n_points=args.size,
        symbols=args.symbols,
        seed=args.seed,
    )
    return {k: v for k, v in overrides.items() if v is not None}


def _scenario_rows(**options) -> list:
    """``scenario_sweep`` rows for ``run``/``trace``; a configuration the
    pipeline refuses (say ``--workers 2`` on a serial backend) exits with
    its message, as :func:`_open_engine` does for ``fft``/``stream``."""
    from .analysis.sweep import scenario_sweep

    try:
        return scenario_sweep(**options)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _cmd_run(args) -> str:
    from .scenarios import get_scenario, scenario_names

    if args.list:
        return _scenario_listing()
    overrides = _scenario_overrides(args)
    if args.all:
        rows = _scenario_rows(**overrides)
        return _scenario_row_table(rows, "Scenario sweep (pipeline API)")
    if not args.scenario:
        raise SystemExit(
            "run needs a scenario name (or --list / --all); "
            f"registered: {', '.join(scenario_names())}"
        )
    spec = get_scenario(args.scenario)
    row = _scenario_rows(names=[spec.name], **overrides)[0]
    lines = [
        f"{spec.name}: {spec.description}",
        row["chain"],
        f"symbols = {row['symbols']}   wall = {row['wall_ms']:.1f} ms "
        f"({row['symbols_per_s']:.0f} symbols/s)",
    ]
    if "coded_ber" in row:
        lines.append(
            f"coded BER = {row['coded_ber']:.5f}   "
            f"uncoded BER = {row['uncoded_ber']:.5f}   "
            f"FER = {row['fer']:.3f}   ({row['code']})"
        )
        if "evm_percent" in row:
            lines.append(f"EVM = {row['evm_percent']:.2f} %")
    elif "ber" in row:
        lines.append(f"BER = {row['ber']:.5f}"
                     + (f"   EVM = {row['evm_percent']:.2f} %"
                        if "evm_percent" in row else ""))
    if "stage_seconds" in row:
        slowest = sorted(row["stage_seconds"].items(),
                         key=lambda kv: kv[1], reverse=True)[:3]
        lines.append("slowest stages: " + "  ".join(
            f"{name} {seconds * 1e3:.1f} ms"
            for name, seconds in slowest
        ))
    if row.get("cycles_per_symbol"):
        lines.append(f"FFT cycles/symbol = {row['cycles_per_symbol']:.0f}")
    if row["precision"] == "q15":
        lines.append(f"overflow count = {row.get('overflow_count', 0)}")
    return "\n".join(lines)


def _cmd_trace(args) -> tuple:
    """Returns ``(text, exit_code)``: one scenario run under the tracer.

    The scenario executes through the pipeline API with a fresh tracer
    installed; the spans of its measured run (the warm-up before it
    stays out of the tracer) export through the chosen registered
    exporter, and the console summary tree prints either way.
    """
    from .scenarios import get_scenario

    spec = get_scenario(args.scenario)
    exporter_spec = telemetry.get_exporter(args.exporter)
    with telemetry.trace(f"trace:{spec.name}") as tracer:
        rows = _scenario_rows(names=[spec.name],
                              **_scenario_overrides(args))
    extra_events = None
    if args.instructions:
        extra_events = _instruction_timeline(args.instructions)
    exporter = exporter_spec.factory()
    out_path = exporter.export(
        tracer, Path(args.out), extra_events=extra_events,
    )
    if args.exporter == "chrome-trace":
        telemetry.validate_trace_events(out_path.read_text())
    row = rows[0]
    lines = [
        f"{spec.name}: {row['symbols']} symbols in "
        f"{row['wall_ms']:.1f} ms on {row['backend']!r}",
        telemetry.ConsoleExporter().render(tracer).rstrip(),
    ]
    suffix = (f" (+{len(extra_events)} instruction events)"
              if extra_events else "")
    lines.append(
        f"trace -> {out_path} ({len(tracer.finished())} spans, "
        f"{args.exporter}){suffix}"
    )
    return "\n".join(lines), 0


def _instruction_timeline(n_points: int) -> list:
    """Instruction trace events from one interpreted N-point ASIP run."""
    from .asip.fft_asip import FFTASIP
    from .sim.trace import ExecutionTrace

    machine = FFTASIP(n_points)
    trace = ExecutionTrace(capacity=65536)
    machine.step = trace.wrap(machine)
    rng = np.random.default_rng(0)
    machine.load_input(
        rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
    )
    machine.run_interpreted(generate_fft_program(n_points))
    return trace.trace_events(tid=f"asip-{n_points}")


def _cmd_verify(args) -> tuple:
    """Returns ``(text, exit_code)`` — non-zero on real divergences or
    on a fault the harness failed to detect."""
    from .verify import (
        FAULT_CLASSES,
        coexec_backends,
        demonstrate_fault,
        fuzz_backends,
    )

    chosen = [flag for flag in ("fuzz", "coexec", "inject")
              if getattr(args, flag) is not None]
    if len(chosen) != 1:
        raise SystemExit(
            "verify needs exactly one of --fuzz N, --coexec <scenario>, "
            "--inject <fault>"
        )

    if args.fuzz is not None:
        report = fuzz_backends(args.fuzz, seed=args.seed)
        return report.summary(), 0 if report.ok else 1

    if args.coexec is not None:
        from .scenarios import get_scenario

        spec = get_scenario(args.coexec)
        backends = tuple(
            name.strip() for name in args.backends.split(",") if name.strip()
        )
        if len(backends) != 2:
            raise SystemExit(
                f"--backends needs a pair, got {args.backends!r}"
            )
        try:
            result = coexec_backends(
                spec.n_points, backends, symbols=args.symbols,
                precision=spec.precision or "float", seed=args.seed,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        head = (f"coexec {spec.name}: N={spec.n_points} "
                f"{spec.precision or 'float'} x{args.symbols} symbols "
                f"on {backends[0]} vs {backends[1]} "
                f"({result.seconds * 1e3:.1f} ms)")
        if result.ok:
            return f"{head}\nparity: OK ({result.steps} symbols compared)", 0
        return f"{head}\n{result.report.describe()}", 1

    kinds = FAULT_CLASSES if args.inject == "all" else (args.inject,)
    lines, code = [], 0
    for kind in kinds:
        fault, result = demonstrate_fault(kind, seed=args.seed)
        lines.append(fault.describe())
        if result.ok:
            lines.append("  MISSED: co-execution did not detect the fault")
            code = 1
        else:
            lines.append(f"  detected -> {result.report.describe()}")
    return "\n".join(lines), code


def _cmd_serve(args) -> tuple:
    """Returns ``(text, exit_code)``; non-zero when the load generator
    saw errors, mismatches against the serial oracle, or shed load."""
    from .serve import SessionServer, run_load

    backend = args.backend or "compiled"
    _check_workers(backend, args.workers)
    precision = _resolve_precision(args)
    # ``--workers`` reaches the pooled engines as a server engine option.
    with SessionServer(batch=args.batch, exec_timeout=args.exec_timeout,
                       workers=args.workers) as server:
        measure = run_load(
            tenants=args.tenants, symbols=args.symbols,
            n_points=args.size, backend=backend, precision=precision,
            batch=args.batch, deadline=args.deadline, seed=args.seed,
            server=server,
        )
    body = [
        ("tenants", measure["tenants"]),
        ("symbols/tenant", measure["symbols_per_tenant"]),
        ("backend", f"{backend} ({precision}, N={args.size})"),
        ("sessions/s", f"{measure['sessions_per_s']:.1f}"),
        ("symbols/s", f"{measure['symbols_per_s']:.0f}"),
        ("chunk p50", f"{measure['latency_p50_ms']:.2f} ms"),
        ("chunk p99", f"{measure['latency_p99_ms']:.2f} ms"),
        ("shed / backpressure",
         f"{measure['shed']} / {measure['backpressure']}"),
        ("timeouts", measure["timeouts"]),
        ("degraded transitions", measure["degraded_transitions"]),
        ("pool built / reused",
         f"{measure['pool_built']} / {measure['pool_reused']}"),
        ("oracle check",
         "ok" if measure["ok"] else f"FAILED {measure['errors']}"
                                    f"{measure['mismatches']}"),
    ]
    out = render_table(
        ["metric", "value"], body,
        title="Serve load generator (threaded tenants, shared engine pool)",
    )
    code = 0 if measure["ok"] and measure["shed"] == 0 \
        and measure["timeouts"] == 0 else 1
    return out, code


def _cmd_uarch(args) -> tuple:
    """Returns ``(text, exit_code)``; non-zero if the cycle sandwich
    (critical path <= dual-issue <= single-issue) is ever violated."""
    from .uarch import (
        critical_path_cycles,
        record_fft_trace,
        retime,
        run_uarch_study,
        uarch_specs,
    )

    n_points = args.size
    if n_points is None and args.scenario:
        from .scenarios import get_scenario

        n_points = get_scenario(args.scenario).n_points
    n_points = n_points or 1024

    if args.study:
        rows = run_uarch_study(n_points, seed=args.seed)
        body = [
            (row["config"], row["cycles"], row["floor_cycles"],
             f"{row['cpi']:.3f}", f"{row['speedup']:.3f}",
             row["dcache_misses"], row["gates"],
             f"{row['clock_mhz']:.0f}", f"{row['time_us']:.2f}",
             f"{row['power_mw']:.1f}", f"{row['energy_uj']:.3f}")
            for row in rows
        ]
        out = render_table(
            ["config", "cycles", "floor", "CPI", "speedup", "D$ miss",
             "gates", "MHz", "us", "mW", "uJ"],
            body,
            title=f"Issue-width design study — {n_points}-point FFT "
                  f"(extended Table II)",
        )
        return out, 0

    ops, machine = record_fft_trace(n_points, seed=args.seed)
    results = {
        name: retime(ops, spec) for name, spec in uarch_specs().items()
    }
    floor = critical_path_cycles(ops)
    body = [
        ("critical-path", "inf", floor, "-", "-", "-", "-", "-")
    ] + [
        (name, result.issue_width, result.cycles, f"{result.cpi:.3f}",
         result.stalls["raw"], result.stalls["structural"],
         result.stalls["branch"] + result.stalls["cache"],
         result.dcache_misses)
        for name, result in results.items()
    ]
    out = render_table(
        ["config", "width", "cycles", "CPI", "raw", "struct",
         "branch+cache", "D$ miss"],
        body,
        title=f"Timing overlay — {n_points}-point FFT "
              f"({machine.stats.instructions} retired ops, oracle "
              f"{machine.stats.cycles} cycles)",
    )
    dual = results["dual-issue"].cycles
    single = results["single-issue"].cycles
    ok = floor <= dual <= single
    out += (f"\nsandwich: critical-path {floor} <= dual-issue {dual} "
            f"<= single-issue {single}: {'ok' if ok else 'VIOLATED'}")
    return out, 0 if ok else 1


def _cmd_listing(size: int) -> str:
    return generate_fft_program(size).listing()


def main(argv=None) -> int:
    """Entry point; returns a process exit code.

    A ``--trace PATH`` flag on ``run`` / ``bench`` / ``serve`` wraps
    the whole command in a fresh tracer and exports the spans as a
    Chrome trace-event file afterwards.  An unknown registry name
    (scenario, backend, exporter, ...) exits with the registered menu.
    """
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", "")
    try:
        if not trace_path:
            return _dispatch(args)
        with telemetry.trace(args.command) as tracer:
            code = _dispatch(args)
    except UnknownNameError as exc:
        raise SystemExit(str(exc))
    out = telemetry.get_exporter("chrome-trace").factory().export(
        tracer, Path(trace_path),
    )
    telemetry.validate_trace_events(out.read_text())
    print(f"trace -> {out} ({len(tracer.finished())} spans)")
    return code


def _dispatch(args) -> int:
    if args.command == "table1":
        print(_cmd_table1())
    elif args.command == "table2":
        print(_cmd_table2(args.size))
    elif args.command == "hw":
        print(_cmd_hw(args.group_size))
    elif args.command == "fft":
        print(_cmd_fft(args.size, args.backend, _resolve_precision(args),
                       args.workers, args.seed))
    elif args.command == "stream":
        print(_cmd_stream(
            args.size, args.symbols, args.backend,
            _resolve_precision(args), args.workers, args.batch,
            not args.no_verify, args.seed,
        ))
    elif args.command == "bench":
        print(_cmd_bench(
            args.sizes, args.symbols, args.backend,
            _resolve_precision(args), args.workers, args.seed,
        ))
    elif args.command == "run":
        print(_cmd_run(args))
    elif args.command == "trace":
        text, code = _cmd_trace(args)
        print(text)
        return code
    elif args.command == "verify":
        text, code = _cmd_verify(args)
        print(text)
        return code
    elif args.command == "serve":
        text, code = _cmd_serve(args)
        print(text)
        return code
    elif args.command == "uarch":
        text, code = _cmd_uarch(args)
        print(text)
        return code
    elif args.command == "listing":
        print(_cmd_listing(args.size))
    elif args.command == "report":
        from .analysis.report import build_report

        text = build_report(table2_size=args.size)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"wrote {args.output}")
        else:
            print(text)
    return 0
