"""The declarative pipeline: a validated stage chain over one engine.

``repro.pipeline(N, ...)`` builds a :class:`Pipeline` — the top-level
composable API the scenario registry resolves to.  A pipeline owns

* a **stage chain** (names resolved through the stage registry, or
  ready-made stage objects), validated at build time so incompatible
  graphs fail before any work runs;
* the **facade engines** executing it: one receiver engine on the
  configured backend (any registered :func:`repro.engine` backend) and
  the transmitter engine the ``ifft`` stage runs on — the receiver
  itself unless it is a simulated machine, else a ``compiled`` engine;
* the **link parameters** (constellation scheme, channel model, SNR,
  seed) stages read from the run context.

``Pipeline.run(symbols)`` pushes one burst through the chain — batched,
one facade pass per transform stage — and returns a
:class:`PipelineResult` carrying per-stage outputs, the uniform
:class:`~repro.engines.TransformResult`, and BER/EVM/cycle metrics.
Swapping any stage (:meth:`Pipeline.with_stage`) or any engine option
(:meth:`Pipeline.with_options`) yields a new pipeline without touching
call sites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..coding import get_demapper, resolve_code, resolve_interleaver
from ..core.registry import get_backend
from ..engines import TransformResult, check_workers
from ..engines import engine as build_engine
from ..ofdm.modulation import CONSTELLATIONS
from .registry import build_stage

from .. import telemetry
from .stages import PipelineContext

__all__ = [
    "DEFAULT_OFDM_CHAIN",
    "SPECTRUM_CHAIN",
    "CODED_OFDM_CHAIN",
    "PipelineGraphError",
    "PipelineResult",
    "Pipeline",
    "pipeline",
]

#: the canonical modulated receive chain
DEFAULT_OFDM_CHAIN = (
    "source", "modulate", "ifft", "channel",
    "transform", "equalize", "demodulate", "metrics",
)

#: plain spectral analysis: blocks in, verified spectra out
SPECTRUM_CHAIN = ("block-source", "transform", "metrics")

#: the coded receive chain: one terminated convolutional code block per
#: OFDM symbol, soft-decision demapping, batched Viterbi decode
CODED_OFDM_CHAIN = (
    "source", "encode", "interleave", "modulate", "ifft", "channel",
    "transform", "equalize", "soft-demodulate", "deinterleave",
    "decode", "coded-metrics",
)


class PipelineGraphError(ValueError):
    """An invalid stage chain (unknown stage or mismatched data kinds)."""


@dataclass
class PipelineResult:
    """Outcome of one :meth:`Pipeline.run` burst.

    ``stage_outputs`` maps each stage's name to the data it emitted, in
    chain order (repeated names get ``#2``-style suffixes);
    ``transform`` is the receiver FFT's uniform
    :class:`~repro.engines.TransformResult` (None for chains without a
    transform stage); ``metrics`` is the metrics stage's dictionary
    (BER, EVM, cycles, overflow — whatever the chain produced).
    """

    name: str
    n_points: int
    backend: str
    precision: str
    symbols: int
    output: object = None
    stage_outputs: dict = field(default_factory=dict)
    transform: TransformResult = None
    metrics: dict = field(default_factory=dict)
    tx_bits: np.ndarray = None
    rx_bits: np.ndarray = None
    equalised: np.ndarray = None

    @property
    def spectrum(self) -> np.ndarray:
        """The receiver FFT output (None without a transform stage)."""
        return self.transform.spectrum if self.transform else None

    @property
    def ber(self) -> float:
        """Bit error rate (None for chains without bits)."""
        return self.metrics.get("ber")

    @property
    def evm_percent(self) -> float:
        """Error-vector magnitude (None without reference symbols)."""
        return self.metrics.get("evm_percent")

    @property
    def total_cycles(self) -> int:
        """Summed simulated FFT cycles (0 on algorithm-level backends)."""
        return self.transform.total_cycles if self.transform else 0

    @property
    def overflow_count(self) -> int:
        """Q1.15 saturation delta of the receiver transform."""
        return self.transform.overflow_count if self.transform else 0

    def __array__(self, dtype=None, copy=None):
        out = np.asarray(self.output)
        return out.astype(dtype) if dtype is not None else out


def _resolve_stage(entry):
    """Turn a chain entry (name, (name, params), instance) into a stage."""
    if isinstance(entry, str):
        return build_stage(entry)
    if isinstance(entry, tuple) and len(entry) == 2 \
            and isinstance(entry[0], str):
        return build_stage(entry[0], **dict(entry[1]))
    if hasattr(entry, "run"):
        if getattr(entry, "name", None) is None:
            entry.name = type(entry).__name__.lower()
        for attr, default in (("consumes", "any"), ("produces", "same")):
            if getattr(entry, attr, None) is None:
                setattr(entry, attr, default)
        return entry
    raise PipelineGraphError(
        f"stage entry {entry!r} is not a registered name, a "
        f"(name, params) pair, or an object with run(ctx, data)"
    )


class Pipeline:
    """A validated, runnable stage chain bound to facade engines.

    Parameters
    ----------
    n_points:
        FFT size (subcarrier count for modulated chains).
    stages:
        Chain entries — registered stage names, ``(name, params)``
        pairs, or stage objects.  Defaults to
        :data:`DEFAULT_OFDM_CHAIN`.
    backend, precision, workers, batch:
        Receiver engine configuration, as for :func:`repro.engine`.
        ``backend`` defaults to ``"sharded"`` when ``workers >= 2``,
        else ``"compiled"``.  ``workers >= 2`` on a backend without a
        thread pool raises the facade's ``ValueError`` here, at
        construction, as does an unknown backend name.
    scheme, channel, snr_db:
        Link parameters the built-in stages read from the run context.
    source_scale:
        Amplitude of ``block-source`` draws (Q1.15 chains use < 1).
    seed:
        Default rng seed; each :meth:`run` starts a fresh
        ``default_rng(seed)`` so runs are reproducible in isolation.
    """

    def __init__(self, n_points: int, stages=None, *, backend: str = None,
                 precision: str = "float", workers: int = None,
                 batch: int = None, scheme: str = "qpsk", channel=None,
                 snr_db: float = None, source_scale: float = 1.0,
                 code=None, code_rate: str = "1/2", interleaver=None,
                 seed: int = 0, name: str = None, **engine_options):
        if scheme is not None and scheme not in CONSTELLATIONS:
            raise ValueError(
                f"unknown scheme {scheme!r}; known schemes: "
                f"{', '.join(sorted(CONSTELLATIONS))}"
            )
        if backend is None:
            sharded = workers is not None and workers >= 2
            backend = "sharded" if sharded else "compiled"
        check_workers(get_backend(backend), workers)
        self._config = dict(
            n_points=n_points, backend=backend, precision=precision,
            workers=workers, batch=batch, scheme=scheme, channel=channel,
            snr_db=snr_db, source_scale=source_scale, code=code,
            code_rate=code_rate, interleaver=interleaver, seed=seed,
            name=name, **engine_options,
        )
        # Resolve the coding configuration up front — unknown code /
        # rate / interleaver / demapper names fail at build time with
        # the registered menu, and the per-symbol block geometry is
        # fixed by (n_points, scheme) for the pipeline's lifetime.
        self._code = resolve_code(code, code_rate)
        self._interleaver = None
        self._code_geometry = None
        self._demapper = None
        if self._code is not None:
            if scheme is None:
                raise ValueError(
                    "a coded pipeline needs a constellation scheme"
                )
            capacity = n_points * CONSTELLATIONS[scheme].bits_per_symbol
            self._code_geometry = self._code.block_geometry(capacity)
            self._interleaver = resolve_interleaver(
                "block" if interleaver is None else interleaver, capacity
            )
            self._demapper = get_demapper(scheme)
        elif interleaver is not None:
            raise ValueError(
                "interleaver= needs a coded pipeline (pass code= too)"
            )
        self._stage_defs = list(
            stages if stages is not None else DEFAULT_OFDM_CHAIN
        )
        self._stages = [_resolve_stage(entry) for entry in self._stage_defs]
        self.input_kind = self._validate_chain()
        self._engine = None
        self._tx_engine = None
        self._closed = False

    # Introspection -------------------------------------------------------

    @property
    def n_points(self) -> int:
        """FFT size."""
        return self._config["n_points"]

    @property
    def backend(self) -> str:
        """Receiver engine backend name."""
        return self._config["backend"]

    @property
    def precision(self) -> str:
        """Receiver engine precision."""
        return self._config["precision"]

    @property
    def name(self) -> str:
        """The pipeline's name (the scenario that built it, if any)."""
        return self._config.get("name") or "pipeline"

    @property
    def stage_names(self) -> list:
        """Stage names in chain order."""
        return [stage.name for stage in self._stages]

    def describe(self) -> str:
        """Human-readable chain summary."""
        chain = " -> ".join(self.stage_names)
        coded = f", code={self._code.name}" if self._code else ""
        return (f"{self.name}: {chain} "
                f"(N={self.n_points}, backend={self.backend}, "
                f"precision={self.precision}{coded})")

    def __repr__(self) -> str:
        return f"Pipeline({self.describe()})"

    def _validate_chain(self) -> str:
        """Check stage-to-stage data-kind compatibility; entry kind out."""
        if not self._stages:
            raise PipelineGraphError("a pipeline needs at least one stage")
        first = self._stages[0]
        entry_kind = first.consumes
        current = entry_kind if entry_kind != "any" else "none"
        for stage in self._stages:
            wants = stage.consumes
            if wants not in ("any", current):
                raise PipelineGraphError(
                    f"stage {stage.name!r} consumes {wants!r} but the "
                    f"chain carries {current!r} at that point "
                    f"(chain: {' -> '.join(self.stage_names)})"
                )
            if stage.produces != "same":
                current = stage.produces
        return entry_kind

    # Engine lifecycle ----------------------------------------------------

    def _ensure_engines(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self!r} is closed")
        if self._engine is not None:
            return
        cfg = self._config
        known = {"n_points", "backend", "precision", "workers", "batch",
                 "scheme", "channel", "snr_db", "source_scale", "code",
                 "code_rate", "interleaver", "seed", "name"}
        extra = {k: v for k, v in cfg.items() if k not in known}
        self._engine = build_engine(
            cfg["n_points"], backend=cfg["backend"],
            precision=cfg["precision"], workers=cfg["workers"],
            batch=cfg["batch"], **extra,
        )
        # The transmitter runs host-side (the receiver is what the
        # paper's ASIP implements): a non-simulated receiver engine
        # doubles as the transmitter, a simulated one gets a compiled
        # engine beside it.
        self._tx_engine = (self._engine if self._engine.machine is None
                           else build_engine(cfg["n_points"]))

    @property
    def engine(self):
        """The receiver :class:`Engine` (built on first use)."""
        self._ensure_engines()
        return self._engine

    def close(self) -> None:
        """Release the engines (worker pools, machines); idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._engine is not None:
            self._engine.close()
        if self._tx_engine is not None and self._tx_engine is not self._engine:
            self._tx_engine.close()

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # Swapping ------------------------------------------------------------

    def with_stage(self, target, replacement, **params) -> "Pipeline":
        """A new pipeline with one stage swapped, same configuration.

        ``target`` is a stage name or chain index; ``replacement`` is a
        registered stage name (``params`` forwarded to its factory) or
        a stage object.  The original pipeline is untouched.
        """
        names = self.stage_names
        if isinstance(target, str):
            if target not in names:
                raise PipelineGraphError(
                    f"no stage named {target!r} in this chain "
                    f"({' -> '.join(names)})"
                )
            index = names.index(target)
        else:
            index = int(target)
            if not -len(names) <= index < len(names):
                raise PipelineGraphError(
                    f"stage index {index} out of range for "
                    f"{len(names)}-stage chain"
                )
        defs = list(self._stage_defs)
        defs[index] = (replacement, params) if (
            isinstance(replacement, str) and params
        ) else replacement
        cfg = dict(self._config)
        n_points = cfg.pop("n_points")
        return Pipeline(n_points, defs, **cfg)

    def with_options(self, **overrides) -> "Pipeline":
        """A new pipeline with engine/link options overridden.

        Accepts the constructor's keyword options (``backend``,
        ``precision``, ``workers``, ``snr_db``, ...) — the stage chain
        is kept as declared, so the same graph runs anywhere.
        """
        cfg = dict(self._config)
        cfg.update(overrides)
        n_points = cfg.pop("n_points")
        return Pipeline(n_points, list(self._stage_defs), **cfg)

    # Execution -----------------------------------------------------------

    def run(self, symbols: int = None, data=None, seed: int = None,
            snr_db: float = None) -> PipelineResult:
        """Execute one burst through the chain; returns the result.

        ``symbols`` sets the burst size for source-fed chains; ``data``
        injects explicit input instead (its first axis is the burst).
        Each run uses a fresh ``default_rng`` (the pipeline's ``seed``
        unless overridden), so identical calls reproduce bit-for-bit.
        ``snr_db`` overrides the configured SNR for this run only —
        sweeps reuse one pipeline (and its engines) across noise
        points instead of rebuilding per point.
        """
        self._ensure_engines()
        if data is not None:
            data = np.asarray(data)
            count = len(data) if symbols is None else int(symbols)
        elif self.input_kind not in ("none", "any"):
            raise ValueError(
                f"this chain starts at {self.input_kind!r} input; "
                f"pass data= to run it"
            )
        else:
            count = 1 if symbols is None else int(symbols)
        if count < 1:
            raise ValueError("need at least one symbol")
        cfg = self._config
        ctx = PipelineContext(
            n_points=cfg["n_points"],
            symbols=count,
            engine=self._engine,
            tx_engine=self._tx_engine,
            rng=np.random.default_rng(
                cfg["seed"] if seed is None else seed
            ),
            constellation=(
                CONSTELLATIONS[cfg["scheme"]] if cfg["scheme"] else None
            ),
            channel=cfg["channel"],
            snr_db=cfg["snr_db"] if snr_db is None else float(snr_db),
            source_scale=cfg["source_scale"],
            code=self._code,
            code_geometry=self._code_geometry,
            interleaver=self._interleaver,
            demapper=self._demapper,
        )
        outputs = {}
        stage_seconds = {}
        with telemetry.span(
            "pipeline.run", pipeline=self.name, backend=self.backend,
            n_points=cfg["n_points"], symbols=count,
        ):
            for stage in self._stages:
                started = time.perf_counter()
                with telemetry.span(f"stage.{stage.name}") as stage_span:
                    data = stage.run(ctx, data)
                key = stage.name
                serial = 2
                while key in outputs:
                    key = f"{stage.name}#{serial}"
                    serial += 1
                # stage_seconds is a compat view: when tracing, it is
                # *derived from the span* so both reports agree exactly;
                # when disabled, the perf_counter fallback fills it.
                if stage_span.is_recording:
                    stage_span.set("stage", key)
                    elapsed = stage_span.duration
                else:
                    elapsed = time.perf_counter() - started
                outputs[key] = data
                stage_seconds[key] = elapsed
        # Per-stage wall clock rides in the metrics dictionary so every
        # consumer of the result (CLI run rows, sweeps, benches) sees
        # where the run's time went.
        ctx.metrics["stage_seconds"] = stage_seconds
        return PipelineResult(
            name=self.name,
            n_points=cfg["n_points"],
            backend=self.backend,
            precision=self._engine.precision,
            symbols=count,
            output=data,
            stage_outputs=outputs,
            transform=ctx.transform_result,
            metrics=ctx.metrics,
            tx_bits=ctx.tx_bits,
            rx_bits=ctx.rx_bits,
            equalised=ctx.equalised,
        )


def pipeline(n_points: int, stages=None, **options) -> Pipeline:
    """Build a :class:`Pipeline` (the ``repro.pipeline`` entry point).

    See :class:`Pipeline` for parameters.  Examples::

        repro.pipeline(1024, scheme="qpsk", snr_db=20).run(symbols=8)
        repro.pipeline(256, repro.pipelines.SPECTRUM_CHAIN,
                       backend="asip-batch", precision="q15")
    """
    return Pipeline(n_points, stages, **options)
