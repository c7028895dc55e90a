"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload coded-rx --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` times set-up in fresh interpreters (median of
:data:`SETUP_REPEATS`), then measures the workload for ``--seconds``
with no instrumentation and prints every end-to-end metric.
``--trace 1`` measures the plain workload for half the time and an
instrumented copy (see ``probes.py``) for the other half, and prints
every per-layer metric; ``trace.overhead`` is the ratio of the two
``symbols_per_s`` figures.

Every output is checked outside the timed region.  The second-to-last
stdout line is ``report <json>`` (host fingerprint, output digests, the
workload-specific figures); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any output check failed and 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from checkout import ROOT, use_checkout_source

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 150
CHILD_JOIN_TIMEOUT_S = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small bursts and one set-up probe "
                             "(self-test only)")
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(args, repeats: int) -> dict:
    import numpy as np

    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "setup_repeats": repeats,
        "seconds": args.seconds,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }


def setup_seconds(args, repeats: int) -> list:
    """Set-up time of ``repeats`` fresh interpreters, one after another."""
    command = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
               args.workload, str(args.seed)] + (["--tiny"] if args.tiny
                                                  else [])
    samples = []
    for _ in range(repeats):
        probe = subprocess.run(command, capture_output=True, text=True,
                               timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        samples.append(float(probe.stdout.split()[-1]))
    return samples


def measure(args, seconds: float, probes=None, fault=None):
    """Build, warm and measure one workload; ``fault(workload)`` may
    return a context manager the measurement runs inside."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, probes=probes,
                                        tiny=args.tiny)
    try:
        workload.setup()
        if probes is not None:
            probes.reset()
        if fault is None:
            run = workload.measure(seconds)
        else:
            with fault(workload):
                run = workload.measure(seconds)
    finally:
        workload.close()
    return run


def benchmark(args, fault=None) -> tuple:
    """One benchmark run; returns ``(result, report)``."""
    import metrics
    from probes import Probes

    repeats = 1 if args.tiny else SETUP_REPEATS
    if args.trace == 0:
        samples = setup_seconds(args, repeats)
        run = measure(args, args.seconds, fault=fault)
        values = metrics.end_to_end(run, statistics.median(samples))
        units = metrics.END_TO_END
        attempted, failed = run.attempted, run.failed
    else:
        samples = []
        plain = measure(args, args.seconds / 2, fault=fault)
        probes = Probes()
        run = measure(args, args.seconds / 2, probes=probes, fault=fault)
        overhead = plain.symbols_per_s / run.symbols_per_s
        values = metrics.per_layer(run, probes, overhead)
        units = metrics.PER_LAYER
        attempted = plain.attempted + run.attempted
        failed = plain.failed + run.failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "fingerprint": fingerprint(args, repeats),
        "setup_samples_s": samples,
        "digests": run.digests,
        "workload_figures": {**metrics.run_derived(run),
                             **metrics.sim_counts(run)},
    }
    return result, report


def print_result(args, result: dict, report: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']!r:>24} {metric['unit']}")
    print(f"  checks: {result['failed']} of {result['attempted']} "
          f"operations failed")
    for name, value in report["workload_figures"].items():
        if value:
            print(f"  figure {name:<33} {value!r:>24}")
    for key, digest in report["digests"].items():
        print(f"  digest {key:<14} {digest['sha256']} "
              f"(first {digest['operations']} operations)")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))


def reap_children() -> None:
    """Wait for every worker process the run started (pool shutdowns
    do not wait), terminating any that outlive the timeout."""
    for child in multiprocessing.active_children():
        child.join(CHILD_JOIN_TIMEOUT_S)
        if child.is_alive():
            child.terminate()
            child.join(CHILD_JOIN_TIMEOUT_S)


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; known: "
                         f"{', '.join(WORKLOADS)}\n")
        return 2
    try:
        result, report = benchmark(args)
    finally:
        reap_children()
    print_result(args, result, report)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
