"""Self-test of the benchmark at a tiny size (about a minute).

Usage: ``python3 perfbench/selftest.py``

Checks that

* ``BENCHMARK.json`` names exactly the workloads and metrics this
  package emits, each with the unit the package reports;
* every workload, untraced and traced, passes its output checks and
  emits every metric of its mode as a number with a unit;
* the output checks can fail: a run wrapped in ``repro.verify.faults``
  hooks (``branch_metric_flip`` on ``coded-rx``'s Viterbi decoder,
  ``twiddle_flip`` on ``serve-mix``'s pooled FFT engine) reports a
  non-zero ``failed_ratio`` and ``correct: false``.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import numbers
import sys
from contextlib import contextmanager

from checkout import ROOT, use_checkout_source

TINY_SECONDS = 1.0


def args_for(workload: str, trace: int):
    import run

    return run.parse_args(["--workload", workload, "--seed", "7",
                           "--seconds", str(TINY_SECONDS),
                           "--trace", str(trace), "--tiny"])


@contextmanager
def flipped_branch_metric(workload):
    from repro.verify.faults import branch_metric_flip

    # The pipeline resolved the preset's code; its decoder exists after
    # the warm burst and is the instance the fault targets.
    decoder = workload.pipes[0]._code._decoder
    with branch_metric_flip(decoder):
        yield


@contextmanager
def flipped_twiddle(workload):
    from repro.verify.faults import twiddle_flip

    n_points = workload.CLASSES["interactive"][0]
    lease = workload.server.pool.lease(n_points)
    try:
        with twiddle_flip(lease.engine.impl.fft, stage=1, index=1):
            yield
    finally:
        lease.close()


FAULTS = {"coded-rx": flipped_branch_metric, "serve-mix": flipped_twiddle}


def check_catalogue(failures: list) -> None:
    import metrics
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = [entry["name"] for entry in spec["workloads"]]
    if sorted(named) != sorted(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {named} != "
                        f"{sorted(WORKLOADS)}")
    for key, catalogue in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
        listed = {entry["name"]: entry["unit"] for entry in spec[key]}
        if listed != catalogue:
            failures.append(
                f"BENCHMARK.json {key} differs from the package: "
                f"{sorted(set(listed.items()) ^ set(catalogue.items()))}")


def check_emitted(failures: list) -> None:
    import metrics
    import run
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        for trace, catalogue in ((0, metrics.END_TO_END),
                                 (1, metrics.PER_LAYER)):
            result, _ = run.benchmark(args_for(workload, trace))
            label = f"{workload} trace={trace}"
            emitted = result["metrics"]
            if set(emitted) != set(catalogue):
                failures.append(f"{label}: emitted {sorted(emitted)}")
            for name, metric in emitted.items():
                if not (isinstance(metric["value"], numbers.Real)
                        and metric["unit"] == catalogue.get(name)):
                    failures.append(f"{label}: bad metric {name} {metric}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: output checks failed")
            print(f"ok   {label}: {len(emitted)} metrics, "
                  f"{result['attempted']} operations")


def check_faults_detected(failures: list) -> None:
    import run

    for workload, fault in FAULTS.items():
        result, report = run.benchmark(args_for(workload, 0), fault=fault)
        ratio = report["workload_figures"]["failed_ratio"]
        label = f"{workload} under {fault.__name__}"
        if result["correct"] or not ratio > 0:
            failures.append(f"{label}: failed_ratio {ratio}, fault missed")
        else:
            print(f"ok   {label}: failed_ratio {ratio:.3f}")


def main() -> int:
    use_checkout_source()
    failures = []
    check_catalogue(failures)
    try:
        check_emitted(failures)
        check_faults_detected(failures)
    finally:
        run_module = sys.modules.get("run")
        if run_module is not None:
            run_module.reap_children()
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
