"""Co-execution, fault-injection and fuzzing: the differential safety net.

Every fast datapath in this repo ships with a readable oracle twin
(compiled vs per-butterfly FFT, vectorized vs scalar ASIP, column vs
per-state Viterbi, and the facade's registered backends against each
other).  This package turns those twins into an *active* verification
subsystem — ROADMAP item 3 — in three layers:

* :mod:`~repro.verify.coexec` — lockstep differential runners that
  localise the **first** divergence (instruction, butterfly, trellis
  step, LLR bit, hard-decision bit, or spectrum bin) into a structured
  :class:`~repro.verify.coexec.DivergenceReport`.
* :mod:`~repro.verify.faults` — context-manager fault hooks (twiddle
  flip, branch-metric flip, LLR sign flip, slicer threshold shift,
  corrupted worker shard, instruction-level register corruption, pool
  death, engine stall) used both to prove the harness catches and
  localises every fault class and to drive the graceful-degradation
  paths in the sharded engine, sessions and serving tier.
* :mod:`~repro.verify.fuzz` — seeded property fuzzing (random ISA
  programs, engine workloads, scenario configs, coded-link parameters,
  multi-tenant serve workloads with injected pool faults) across every
  registered backend, with shrinking to a minimal reproducer.

CLI: ``python -m repro verify [--fuzz N --seed S | --coexec <scenario>
--backends a,b | --inject <fault>]``.
"""

from .coexec import (
    CoexecResult,
    DivergenceReport,
    coexec_asip,
    coexec_backends,
    coexec_demap,
    coexec_fft,
    coexec_llrs,
    coexec_machines,
    coexec_viterbi,
)
from .faults import (
    FAULT_CLASSES,
    InjectedFault,
    asip_step_corruption,
    branch_metric_flip,
    demonstrate_fault,
    engine_stall,
    llr_sign_flip,
    pool_failure,
    slicer_threshold_shift,
    twiddle_flip,
    worker_shard_corruption,
)
from .fuzz import (
    FUZZ_KINDS,
    FuzzCase,
    FuzzReport,
    fuzz_backends,
    shrink_config,
)

__all__ = [
    "CoexecResult",
    "DivergenceReport",
    "coexec_asip",
    "coexec_backends",
    "coexec_demap",
    "coexec_fft",
    "coexec_llrs",
    "coexec_machines",
    "coexec_viterbi",
    "FAULT_CLASSES",
    "InjectedFault",
    "asip_step_corruption",
    "branch_metric_flip",
    "demonstrate_fault",
    "engine_stall",
    "llr_sign_flip",
    "pool_failure",
    "slicer_threshold_shift",
    "twiddle_flip",
    "worker_shard_corruption",
    "FUZZ_KINDS",
    "FuzzCase",
    "FuzzReport",
    "fuzz_backends",
    "shrink_config",
]
