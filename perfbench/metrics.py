"""The metric catalogue, and the arithmetic from a run to its metrics.

Time metrics of the per-layer set are busy seconds per operation (a
burst for the pipeline workloads, a request for ``serve-mix``), so runs
of different lengths compare directly.  Metrics of a layer a workload
does not exercise read 0.
"""

from __future__ import annotations

import resource

import numpy as np

from repro.pipelines import CODED_OFDM_CHAIN, DEFAULT_OFDM_CHAIN, SPECTRUM_CHAIN
from workloads import TAIL_PERCENTILE

__all__ = ["END_TO_END", "PER_LAYER", "RUN_DERIVED", "end_to_end",
           "per_layer", "run_derived", "sim_counts"]

END_TO_END = {
    "setup_s": "s",
    "symbols_per_s": "1/s",
    "peak_rss_mb": "MB",
    "request_p95_ms": "ms",
}

STAGES = sorted(set(CODED_OFDM_CHAIN + DEFAULT_OFDM_CHAIN + SPECTRUM_CHAIN))
SIM_SIZES = (1024, 8192)
TENANTS = ("interactive", "bulk")
_SIM_PER_SYMBOL = {
    "cycles_per_symbol": ("cycles", "cycles"),
    "instructions_per_symbol": ("instructions", "count"),
    "dcache_misses_per_symbol": ("dcache_misses", "count"),
    "stall_cycles_per_symbol": ("stall_cycles", "cycles"),
    "custom_ops.ldin": ("op_ldin", "count"),
    "custom_ops.but4": ("op_but4", "count"),
    "custom_ops.stout": ("op_stout", "count"),
    "overflow": ("overflow", "count"),
}


#: workload-specific figures derived from the run alone (no probes); the
#: untraced run prints them beside the end-to-end metrics
RUN_DERIVED = {
    "failed_ratio": "ratio",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "sim_cycles_per_symbol": "cycles",
    "sim_mips": "MIPS",
    "bulk_request_p50_ms": "ms",
    "sessions_per_s": "1/s",
}


def _per_layer_catalog() -> dict:
    units = {f"stage.{stage}.s": "s" for stage in STAGES}
    units["pipelines.glue.s"] = "s"
    units.update({
        "coding.decode.s": "s",
        "coding.trellis_steps": "count",
        "coding.decode.ns_per_step": "ns",
        "coding.soft_demod.s": "s",
        "coding.encode.s": "s",
        "coding.interleave.s": "s",
        "coding.bit_errors": "count",
        "core.parallel.s": "s",
        "core.parallel.fanout_ratio": "ratio",
        "core.parallel.bytes_moved": "bytes",
        "core.parallel.degraded": "count",
        "core.array_fft.s": "s",
        "engines.calls": "count",
        "engines.symbols": "count",
        "engines.s": "s",
        "engines.dispatch.s": "s",
        "ofdm.map.s": "s",
        "ofdm.unmap.s": "s",
        "ofdm.channel.s": "s",
        "asip.run_batch.s": "s",
        "asip.run_batch.calls": "count",
    })
    for n_points in SIM_SIZES:
        prefix = f"sim.n{n_points}"
        for name, (_, unit) in _SIM_PER_SYMBOL.items():
            units[f"{prefix}.{name}"] = unit
        units[f"{prefix}.cpi"] = "ratio"
        units[f"{prefix}.host_ns_per_instruction"] = "ns"
    for tenant in TENANTS:
        units[f"serve.{tenant}.submit_ms"] = "ms"
        units[f"serve.{tenant}.admission_ms"] = "ms"
        units[f"sessions.{tenant}.feed_ms"] = "ms"
        units[f"serve.{tenant}.lock_wait_ms"] = "ms"
        units[f"serve.{tenant}.exec_ms"] = "ms"
    units.update({
        "serve.open_session_ms": "ms",
        "serve.close_session_ms": "ms",
        "serve.shed": "count",
        "serve.backpressure": "count",
        "serve.timeouts": "count",
        "serve.mismatches": "count",
        "serve.pool.built": "count",
        "serve.pool.reused": "count",
        "trace.overhead": "ratio",
    })
    units.update(RUN_DERIVED)
    return units


PER_LAYER = _per_layer_catalog()


def _exact(value):
    """Integral values print as integers (exact simulated counts)."""
    value = float(value)
    return int(value) if value.is_integer() else value


def _percentile_ms(latencies, q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3 if latencies else 0.0


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "symbols_per_s": run.symbols_per_s,
        "peak_rss_mb": peak_rss_mb(),
        "request_p95_ms": _percentile_ms(run.latencies[run.request_kind],
                                         TAIL_PERCENTILE),
    }


def run_derived(run) -> dict:
    counts = run.counts
    cycles = sum(counts[f"n{n}.cycles"] for n in SIM_SIZES)
    instructions = sum(counts[f"n{n}.instructions"] for n in SIM_SIZES)
    symbols = sum(counts[f"n{n}.symbols"] for n in SIM_SIZES)
    busy = sum(sum(values) for values in run.latencies.values())
    requests = run.latencies[run.request_kind]
    return {
        "failed_ratio": _ratio(run.failed, run.attempted),
        "request_p50_ms": _percentile_ms(requests, 50),
        "request_p99_ms": _percentile_ms(requests, 99),
        "sim_cycles_per_symbol": _exact(_ratio(cycles, symbols)),
        "sim_mips": _ratio(instructions, busy) / 1e6,
        "bulk_request_p50_ms": _percentile_ms(run.latencies["bulk"], 50),
        "sessions_per_s": _ratio(counts["serve.close_session.calls"],
                                 run.wall),
    }


def sim_counts(run) -> dict:
    """Simulated per-symbol counts for each ASIP size (exact integers
    while every measured symbol of a size retires the same counts)."""
    counts = run.counts
    out = {}
    for n_points in SIM_SIZES:
        prefix, key = f"sim.n{n_points}", f"n{n_points}"
        symbols = counts[f"{key}.symbols"]
        for name, (counter, _) in _SIM_PER_SYMBOL.items():
            out[f"{prefix}.{name}"] = _exact(
                _ratio(counts[f"{key}.{counter}"], symbols))
        out[f"{prefix}.cpi"] = _ratio(counts[f"{key}.cycles"],
                                      counts[f"{key}.instructions"])
    return out


def per_layer(run, probes, overhead: float) -> dict:
    ops = max(run.attempted, 1)
    busy = probes.get
    counts = run.counts
    out = {}
    stage_total = 0.0
    for stage in STAGES:
        seconds = busy(f"stage.{stage}.s")
        stage_total += seconds
        out[f"stage.{stage}.s"] = seconds / ops
    pipeline = busy("pipelines.run.s")
    out["pipelines.glue.s"] = (pipeline - stage_total) / ops if pipeline \
        else 0.0

    decode, steps = busy("coding.decode.s"), busy("coding.trellis_steps")
    out.update({
        "coding.decode.s": decode / ops,
        "coding.trellis_steps": _exact(steps / ops),
        "coding.decode.ns_per_step": _ratio(decode, steps) * 1e9,
        "coding.soft_demod.s": busy("coding.soft_demod.s") / ops,
        "coding.encode.s": busy("coding.encode.s") / ops,
        "coding.interleave.s": busy("coding.interleave.s") / ops,
        "coding.bit_errors": _exact(counts["coding.bit_errors"]),
        "core.parallel.s": busy("core.parallel.s") / ops,
        "core.parallel.fanout_ratio": _ratio(
            busy("core.parallel.pooled"), busy("core.parallel.calls")),
        "core.parallel.bytes_moved": _exact(
            busy("core.parallel.bytes_moved") / ops),
        "core.parallel.degraded": sum(
            sharded.breaker.opened_count for sharded in probes.sharded),
        "core.array_fft.s": busy("core.array_fft.s") / ops,
        "engines.calls": _exact(busy("engines.calls") / ops),
        "engines.symbols": _exact(busy("engines.symbols") / ops),
        "engines.s": busy("engines.s") / ops,
        "engines.dispatch.s": (busy("engines.s")
                               - busy("engines.backend.s")) / ops,
        "ofdm.map.s": busy("ofdm.map.s") / ops,
        "ofdm.unmap.s": busy("ofdm.unmap.s") / ops,
        # The channel stage is the ofdm channel model and nothing else.
        "ofdm.channel.s": busy("stage.channel.s") / ops,
        "asip.run_batch.s": sum(
            busy(f"asip.run_batch.n{n}.s") for n in SIM_SIZES) / ops,
        "asip.run_batch.calls": _exact(busy("asip.run_batch.calls") / ops),
    })

    out.update(sim_counts(run))
    for n_points in SIM_SIZES:
        key = f"n{n_points}"
        out[f"sim.{key}.host_ns_per_instruction"] = _ratio(
            busy(f"asip.run_batch.{key}.s"),
            counts[f"{key}.instructions"]) * 1e9

    for tenant in TENANTS:
        requests = len(run.latencies[tenant])
        submit = busy(f"serve.{tenant}.submit.s")
        feed = busy(f"sessions.{tenant}.feed.s")
        flush = busy(f"sessions.{tenant}.flush.s")
        lease = busy(f"serve.{tenant}.lease.s")
        execute = busy(f"serve.{tenant}.exec.s")
        per_request = 1e3 / requests if requests else 0.0
        out.update({
            f"serve.{tenant}.submit_ms": submit * per_request,
            f"serve.{tenant}.admission_ms": (submit - feed) * per_request,
            f"sessions.{tenant}.feed_ms":
                (feed + flush - lease) * per_request,
            f"serve.{tenant}.lock_wait_ms": (lease - execute) * per_request,
            f"serve.{tenant}.exec_ms": execute * per_request,
        })
    out.update({
        "serve.open_session_ms": 1e3 * _ratio(
            counts["serve.open_session.s"], counts["serve.open_session.calls"]),
        "serve.close_session_ms": 1e3 * _ratio(
            counts["serve.close_session.s"],
            counts["serve.close_session.calls"]),
        "trace.overhead": overhead,
    })
    for name in ("shed", "backpressure", "timeouts", "mismatches",
                 "pool.built", "pool.reused"):
        out[f"serve.{name}"] = _exact(counts[f"serve.{name}"])
    out.update(run_derived(run))
    return out
