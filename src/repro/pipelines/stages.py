"""Built-in pipeline stages: the OFDM receive chain as components.

Each stage is a small object with one method, ``run(ctx, data)``, where
``ctx`` is the run's :class:`PipelineContext` (engines, rng, link
parameters, accumulated artefacts) and ``data`` is the output of the
previous stage.  The built-ins reproduce the hand-wired
:class:`~repro.ofdm.OfdmLink` datapath *operation for operation* — the
same burst-wide calls (one bit draw, one map and one demap per burst),
same rng draw order — so a pipeline run is bit-identical to the link it
replaces (asserted in ``tests/test_pipeline.py``).

Stage contract (also documented in DESIGN.md):

* ``run(ctx, data) -> data`` — pure with respect to the context's
  configuration; artefacts worth keeping (transform results, tx bits,
  reference symbols, metrics) are recorded on ``ctx``;
* ``consumes`` / ``produces`` — data-kind declarations used for graph
  validation (inherited from the registered :class:`StageSpec` when the
  instance does not override them);
* stages hold no engines of their own — the pipeline owns execution
  resources and passes them through the context, so swapping a backend
  never touches stage code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engines import Engine, TransformResult
from ..ofdm.channel import MultipathChannel, awgn
from ..ofdm.modulation import Constellation, binary_bits
from .registry import StageSpec, register_stage

__all__ = [
    "PipelineContext",
    "Stage",
    "RandomBitsSource",
    "RandomBlocksSource",
    "ModulateStage",
    "IfftStage",
    "ChannelStage",
    "TransformStage",
    "EqualizeStage",
    "DemodulateStage",
    "MetricsStage",
]


@dataclass
class PipelineContext:
    """Everything a stage may need during one pipeline run.

    Engines and link parameters are installed by the owning
    :class:`~repro.pipelines.graph.Pipeline`; artefact fields
    (``tx_bits``, ``reference_symbols``, ``transform_result``,
    ``rx_bits``, ``metrics``) are filled in by stages as the data flows.
    """

    n_points: int
    symbols: int
    engine: Engine = None          # receiver transform engine
    tx_engine: Engine = None       # transmitter (algorithm-level) engine
    rng: np.random.Generator = None
    constellation: Constellation = None
    channel: MultipathChannel = None
    snr_db: float = None
    source_scale: float = 1.0
    code: object = None            # PuncturedCode for coded chains
    code_geometry: object = None   # BlockGeometry per OFDM symbol
    interleaver: object = None     # per-symbol bit permutation
    demapper: object = None        # SoftDemapper override (else by scheme)
    tx_bits: np.ndarray = None
    reference_symbols: np.ndarray = None
    transform_result: TransformResult = None
    equalised: np.ndarray = None
    rx_bits: np.ndarray = None
    tx_info_bits: np.ndarray = None
    rx_info_bits: np.ndarray = None
    coded_bits: np.ndarray = None  # pre-interleave coded symbol payloads
    llrs: np.ndarray = None        # deinterleaved per-bit LLRs
    metrics: dict = field(default_factory=dict)

    @property
    def bits_per_symbol(self) -> int:
        """Payload bits per OFDM symbol under the current constellation."""
        if self.constellation is None:
            raise ValueError("this pipeline has no constellation "
                             "(pass scheme= for a modulated chain)")
        return self.n_points * self.constellation.bits_per_symbol


class Stage:
    """Base class for pipeline stages (subclassing it is optional).

    Anything with ``run(ctx, data)`` (plus ``name`` / ``consumes`` /
    ``produces`` attributes, defaulted from the registry spec) is a
    valid stage.
    """

    name = None
    consumes = None
    produces = None

    def run(self, ctx: PipelineContext, data):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name or '?'})"


class RandomBitsSource(Stage):
    """Draw one payload of random bits per symbol (OfdmLink's source).

    The whole ``(symbols, payload)`` burst comes from one draw.  In a
    coded chain (``ctx.code`` set) the payload is the terminated code
    block's **information bits** — ``code_geometry.info_bits`` per OFDM
    symbol — and the downstream ``encode`` stage expands it to the coded
    capacity.

    Explicit input overrides the draw: ``Pipeline.run(data=bits)``
    passes a ``(symbols, payload)`` matrix of 0/1 bits straight through,
    so parity tests and replay runs can inject exact payloads.  Any other
    value raises ``ValueError`` here, before a coded chain's encoder
    could wrap it into a valid-looking bit.
    """

    def run(self, ctx: PipelineContext, data):
        payload = (ctx.code_geometry.info_bits if ctx.code is not None
                   else ctx.bits_per_symbol)
        if data is not None:
            bits = binary_bits(data)
            if bits.ndim != 2 or bits.shape[1] != payload:
                raise ValueError(
                    f"expected ({ctx.symbols}, {payload}) "
                    f"bits, got shape {bits.shape}"
                )
        else:
            # Equal to one draw of ``payload`` bits per symbol, generator
            # state included (pinned in tests/test_ofdm.py).
            bits = ctx.rng.integers(0, 2, size=(ctx.symbols, payload))
        if ctx.code is not None:
            ctx.tx_info_bits = bits
        else:
            ctx.tx_bits = bits
        return bits


class RandomBlocksSource(Stage):
    """Draw complex Gaussian time-domain blocks (spectral workloads).

    ``scale`` shrinks the draw for Q1.15 headroom (presets use 0.25,
    matching the CLI's streamed-input convention).  Explicit input
    passes through untouched.
    """

    def __init__(self, scale: float = None):
        self.scale = scale

    def run(self, ctx: PipelineContext, data):
        if data is not None:
            blocks = np.asarray(data, dtype=complex)
            if blocks.ndim != 2 or blocks.shape[1] != ctx.n_points:
                raise ValueError(
                    f"expected ({ctx.symbols}, {ctx.n_points}) blocks, "
                    f"got shape {blocks.shape}"
                )
            return blocks
        scale = ctx.source_scale if self.scale is None else self.scale
        shape = (ctx.symbols, ctx.n_points)
        return scale * (ctx.rng.standard_normal(shape)
                        + 1j * ctx.rng.standard_normal(shape))


class ModulateStage(Stage):
    """Map bit payloads onto subcarriers with the chain's constellation.

    One call maps the whole ``(symbols, payload)`` burst; a bit outside
    {0, 1} raises ``ValueError``.
    """

    def run(self, ctx: PipelineContext, data):
        subcarriers = ctx.constellation.map_bits(data)
        ctx.reference_symbols = subcarriers
        return subcarriers


class IfftStage(Stage):
    """Transmitter IFFT: subcarriers to unit-power time-domain signals.

    Runs on the pipeline's algorithm-level transmitter engine (the
    receiver is what the paper's ASIP implements), exactly like
    ``OfdmLink._transmit_burst``.
    """

    def run(self, ctx: PipelineContext, data):
        return ctx.tx_engine.inverse_many(data).spectrum * ctx.n_points


class ChannelStage(Stage):
    """Multipath convolution (when taps are set) plus AWGN (when SNR is).

    Both halves broadcast over the whole ``(symbols, N)`` burst in one
    vectorised pass — the same call order as ``OfdmLink._channel_burst``,
    so the rng stream stays aligned with the hand-wired link.
    """

    def run(self, ctx: PipelineContext, data):
        signal = np.asarray(data, dtype=complex)
        if ctx.channel is not None:
            signal = ctx.channel.apply(signal)
        if ctx.snr_db is not None:
            signal = awgn(signal, ctx.snr_db, rng=ctx.rng)
        return signal


class TransformStage(Stage):
    """The receiver FFT: one batched facade pass over the burst.

    The heart of the pipeline — whatever backend the pipeline was built
    with (``compiled``, ``sharded``, ``asip-batch``, any registered
    extension) executes here, and the uniform
    :class:`~repro.engines.TransformResult` (cycles, SimStats delta,
    overflow delta) is recorded on the context for the metrics stage.
    """

    def run(self, ctx: PipelineContext, data):
        result = ctx.engine.transform_many(
            np.asarray(data, dtype=complex)
        )
        ctx.transform_result = result
        return result.spectrum


class EqualizeStage(Stage):
    """1/N spectrum scaling plus one-tap zero-forcing equalisation."""

    def run(self, ctx: PipelineContext, data):
        spectra = np.asarray(data, dtype=complex) / ctx.n_points
        if ctx.channel is not None:
            spectra = spectra / ctx.channel.frequency_response(ctx.n_points)
        ctx.equalised = spectra
        return spectra


class DemodulateStage(Stage):
    """Hard-decision demap of equalised subcarriers back to bits.

    One slicer call over the whole ``(symbols, N)`` burst.
    """

    def run(self, ctx: PipelineContext, data):
        rx_bits = ctx.constellation.unmap_symbols(data)
        ctx.rx_bits = rx_bits
        return rx_bits


class MetricsStage(Stage):
    """Fold the run's artefacts into the metrics dictionary.

    Computes whatever the chain produced: BER/bit errors when tx and rx
    bits exist, EVM when equalised subcarriers and their references do,
    cycle accounting and the Q1.15 overflow delta when a transform ran.
    Pass-through for data (``consumes any / produces same``), so it can
    sit anywhere — canonically last.
    """

    def run(self, ctx: PipelineContext, data):
        metrics = ctx.metrics
        metrics["symbols"] = ctx.symbols
        if ctx.tx_bits is not None and ctx.rx_bits is not None:
            errors = int(np.sum(ctx.tx_bits != ctx.rx_bits))
            total = int(ctx.tx_bits.size)
            metrics["bit_errors"] = errors
            metrics["total_bits"] = total
            metrics["ber"] = errors / total if total else 0.0
        if (ctx.equalised is not None
                and ctx.reference_symbols is not None):
            error = np.sqrt(np.mean(
                np.abs(ctx.equalised - ctx.reference_symbols) ** 2
            ))
            metrics["evm_percent"] = float(100.0 * error)
        result = ctx.transform_result
        if result is not None:
            metrics["total_cycles"] = result.total_cycles
            metrics["cycles_per_symbol"] = (
                result.total_cycles / result.n_symbols
                if result.n_symbols else 0.0
            )
            metrics["overflow_count"] = result.overflow_count
            metrics["backend"] = result.backend
            metrics["precision"] = result.precision
        return data


def _register_builtin_stages() -> None:
    specs = [
        StageSpec(
            name="source", factory=RandomBitsSource,
            consumes="none", produces="bits",
            description="random bit payloads, one draw per burst",
        ),
        StageSpec(
            name="block-source", factory=RandomBlocksSource,
            consumes="none", produces="signal",
            description="random complex time-domain blocks",
        ),
        StageSpec(
            name="modulate", factory=ModulateStage,
            consumes="bits", produces="symbols",
            description="constellation mapping onto subcarriers",
        ),
        StageSpec(
            name="ifft", factory=IfftStage,
            consumes="symbols", produces="signal",
            description="transmitter IFFT (algorithm-level engine)",
        ),
        StageSpec(
            name="channel", factory=ChannelStage,
            consumes="signal", produces="signal",
            description="multipath convolution + AWGN",
        ),
        StageSpec(
            name="transform", factory=TransformStage,
            consumes="signal", produces="spectrum",
            description="receiver FFT on the pipeline's facade backend",
        ),
        StageSpec(
            name="equalize", factory=EqualizeStage,
            consumes="spectrum", produces="spectrum",
            description="1/N scaling + one-tap equalisation",
        ),
        StageSpec(
            name="demodulate", factory=DemodulateStage,
            consumes="spectrum", produces="bits",
            description="hard-decision demapping to bits",
        ),
        StageSpec(
            name="metrics", factory=MetricsStage,
            consumes="any", produces="same",
            description="BER/EVM/cycle accounting into the result",
        ),
    ]
    for spec in specs:
        register_stage(spec, replace=True)


_register_builtin_stages()
