"""repro — reproduction of the DATE'09 array-FFT ASIP (Guan, Lin, Fei).

Three front doors, one facade:

* :func:`repro.engine` — a uniform transform engine on any registered
  backend::

      >>> import repro
      >>> with repro.engine(1024, backend="asip-batch") as eng:
      ...     result = eng.transform_many(blocks)

* :func:`repro.pipeline` — a declarative stage graph (source ->
  modulate -> channel -> transform -> equalize -> demodulate ->
  metrics) executing batched through one engine; scenario presets
  resolve to these::

      >>> repro.run_scenario("uwb-ofdm", backend="asip-batch").ber

* :func:`repro.session` — a queue-fed streaming session with explicit
  lifecycle (feed/drain/flush/close) and bounded-buffer backpressure::

      >>> with repro.session(1024, backend="asip-batch") as sess:
      ...     sess.feed(block)
      ...     chunks = sess.drain()   # TransformResult per chunk

Everything resolves through open registries — engine backends
(:mod:`repro.core.registry`), pipeline stages
(:mod:`repro.pipelines.registry`), scenarios (:mod:`repro.scenarios`) —
so new implementations and workloads plug in by name without touching
call sites.

Public API layers underneath the facade:

* :mod:`repro.core`       — the array-structured FFT (the contribution);
* :mod:`repro.coding`     — the channel-coding layer (convolutional
  codec, interleavers, soft demappers, Viterbi) behind the coded
  scenario presets;
* :mod:`repro.addressing` — the address-changing and coefficient rules;
* :mod:`repro.fft`        — reference FFTs and the cached-FFT skeleton;
* :mod:`repro.isa`        — the PISA-like ISA with BUT4/LDIN/STOUT;
* :mod:`repro.sim`        — the instruction-set simulator substrate;
* :mod:`repro.asip`       — the FFT ASIP (code generator + machine);
* :mod:`repro.baselines`  — Table II comparison implementations;
* :mod:`repro.hw`         — gate-count / power / timing cost models;
* :mod:`repro.analysis`   — tables, sweeps and verification helpers;
* :mod:`repro.verify`     — differential co-execution, fault injection
  and seeded fuzzing across all of the above (``python -m repro
  verify``);
* :mod:`repro.serve`      — the supervised multi-tenant serving tier:
  named sessions over a shared engine pool with admission control,
  deadlines and self-healing (``python -m repro serve``);
* :mod:`repro.telemetry`  — unified tracing, metrics and profiling:
  nested spans across every layer above and Chrome trace-event /
  jsonl / console exporters (``python -m repro trace``, ``--trace``
  on run/serve/bench);
* :mod:`repro.uarch`      — the scoreboarded issue-width timing overlay
  over the exact machine: retirement-trace recording, dual-issue /
  blocking-cache re-timing with a guaranteed cycle sandwich, and the
  issue-width design study (``python -m repro uarch --study``).
"""

from .core import ArrayFFT
from .core.registry import BackendSpec, UnknownNameError, register_backend
from .engines import (
    Engine,
    TransformResult,
    backend_names,
    backend_specs,
    concat_results,
    engine,
)
from .pipelines import (
    Pipeline,
    PipelineResult,
    StageSpec,
    pipeline,
    register_stage,
    stage_names,
)
from .scenarios import (
    ScenarioSpec,
    build_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)
from .sessions import (
    SessionBackpressure,
    SessionClosed,
    SessionExecutionTimeout,
    StreamSession,
    session,
)
from .serve import (
    ServeError,
    ServerClosed,
    ServerOverloaded,
    SessionServer,
    TenantFailed,
    UnknownTenant,
)
from . import telemetry
from .uarch import (
    UarchResult,
    UarchSpec,
    get_uarch,
    register_uarch,
    uarch_names,
    uarch_specs,
)

__version__ = "3.5.0"

__all__ = [
    "engine",
    "Engine",
    "TransformResult",
    "concat_results",
    "BackendSpec",
    "UnknownNameError",
    "register_backend",
    "backend_names",
    "backend_specs",
    "pipeline",
    "Pipeline",
    "PipelineResult",
    "StageSpec",
    "register_stage",
    "stage_names",
    "ScenarioSpec",
    "register_scenario",
    "scenario_names",
    "build_scenario",
    "run_scenario",
    "session",
    "StreamSession",
    "SessionBackpressure",
    "SessionClosed",
    "SessionExecutionTimeout",
    "SessionServer",
    "ServeError",
    "ServerClosed",
    "ServerOverloaded",
    "TenantFailed",
    "UnknownTenant",
    "ArrayFFT",
    "telemetry",
    "UarchSpec",
    "UarchResult",
    "register_uarch",
    "get_uarch",
    "uarch_names",
    "uarch_specs",
    "__version__",
]
