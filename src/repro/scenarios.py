"""Scenario registry: named presets resolving to pipeline configs.

The paper positions the FFT ASIP as the engine of *multi-standard* OFDM
receivers; this module is where those standards live as data.  A
:class:`ScenarioSpec` names a complete workload — FFT size, stage
chain, constellation, channel model, SNR, precision — and
:meth:`ScenarioSpec.build` resolves it to a ready
:class:`~repro.pipelines.Pipeline` on any facade backend.  One call
runs a preset end to end::

    >>> import repro
    >>> result = repro.run_scenario("uwb-ofdm", backend="asip-batch")
    >>> result.ber, result.total_cycles

Built-in presets (``repro.scenario_names()``):

=================== =====================================================
``uwb-ofdm``        802.15.3a MB-UWB: 1024-carrier QPSK over AWGN — the
                    paper's motivating workload (Section I)
``wimax-ofdm``      802.16 WiMAX: 256-carrier 16-QAM over AWGN (the
                    2.5 MHz bandwidth point of the scaling family)
``multipath-eq``    frequency-selective reception: 128-carrier 16-QAM
                    through a 3-tap Rayleigh channel with one-tap
                    equalisation
``spectral``        plain Q1.15 spectral analysis of a block stream (no
                    modulation) — a streamed ``asip-batch`` engine's
                    workload, with overflow accounting
``dvbt-2k``         DVB-T 2k mode: 2048-carrier QPSK behind the K=7
                    rate-2/3 convolutional codec (coded chain)
``dvbt-8k``         DVB-T 8k mode: 8192-carrier 16-QAM, K=7 rate 3/4
``uwb-ofdm-coded``  the MB-UWB workload behind the standard K=7
                    rate-1/2 codec
``wimax-ofdm-coded`` 802.16 WiMAX 16-QAM, K=7 rate 3/4, block
                    interleaved
=================== =====================================================

The registry is open like the backend and stage registries: register a
spec under a new name and it is immediately reachable from
``repro.run_scenario``, ``analysis.scenario_sweep``,
``analysis.ber_sweep(scenario=...)`` and ``python -m repro run <name>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core.registry import Registry
from .ofdm.channel import MultipathChannel
from .pipelines import (
    CODED_OFDM_CHAIN,
    DEFAULT_OFDM_CHAIN,
    SPECTRUM_CHAIN,
    Pipeline,
)

__all__ = [
    "ScenarioSpec",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_specs",
    "build_scenario",
    "run_scenario",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named workload preset.

    The schema (also documented in DESIGN.md, "Scenario registry"):
    everything a pipeline constructor needs plus run defaults.
    ``channel_profile`` keeps the channel *recipe* ``(n_taps, decay,
    rng_seed)`` rather than a live object, so every build draws
    identical taps and stays reproducible across processes.
    """

    name: str
    description: str
    n_points: int
    stages: tuple = DEFAULT_OFDM_CHAIN
    scheme: str = "qpsk"
    snr_db: float = None
    precision: str = "float"
    backend: str = None          # None -> the pipeline default rule
    source_scale: float = 1.0
    channel_profile: tuple = None  # (n_taps, decay, rng_seed)
    code: str = None             # registered code name for coded chains
    code_rate: str = "1/2"       # puncture rate ("1/2", "2/3", "3/4")
    interleaver: object = None   # interleaver name (None -> "block")
    symbols: int = 16            # default burst for run_scenario / CLI
    seed: int = 0

    def make_channel(self) -> MultipathChannel:
        """Instantiate the preset's channel (None when profile unset)."""
        if self.channel_profile is None:
            return None
        n_taps, decay, rng_seed = self.channel_profile
        return MultipathChannel.exponential_profile(
            n_taps=n_taps, decay=decay,
            rng=np.random.default_rng(rng_seed),
        )

    def build(self, **overrides) -> Pipeline:
        """Resolve the preset to a :class:`Pipeline`.

        Any pipeline option (``backend``, ``precision``, ``workers``,
        ``batch``, ``n_points``, ``snr_db``, ``seed``, ...) may be
        overridden — the point of the registry is that the *scenario*
        stays fixed while the execution substrate swaps freely.
        """
        options = dict(
            backend=self.backend, precision=self.precision,
            scheme=self.scheme, channel=self.make_channel(),
            snr_db=self.snr_db, source_scale=self.source_scale,
            code=self.code, code_rate=self.code_rate,
            interleaver=self.interleaver,
            seed=self.seed, name=self.name,
        )
        n_points = overrides.pop("n_points", self.n_points)
        stages = overrides.pop("stages", list(self.stages))
        options.update(overrides)
        return Pipeline(n_points, stages, **options)


def _check_scenario(name: str, spec) -> None:
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(
            f"expected a ScenarioSpec, got {type(spec).__name__}"
        )


_SCENARIOS = Registry("scenario", _check_scenario)


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> None:
    """Register ``spec`` under ``spec.name`` (loud on duplicates)."""
    _SCENARIOS.register(spec, replace=replace)


unregister_scenario = _SCENARIOS.unregister
get_scenario = _SCENARIOS.get
scenario_names = _SCENARIOS.names
scenario_specs = _SCENARIOS.specs


def build_scenario(name: str, **overrides) -> Pipeline:
    """Build the named scenario's pipeline (see :meth:`ScenarioSpec.build`)."""
    return get_scenario(name).build(**overrides)


def run_scenario(name: str, symbols: int = None, seed: int = None,
                 **overrides):
    """Run one burst of the named scenario; returns a PipelineResult.

    ``symbols`` defaults to the preset's burst size; other keywords
    override pipeline options (``backend=``, ``precision=``,
    ``workers=``, ``n_points=``, ...).
    """
    spec = get_scenario(name)
    with spec.build(**overrides) as pipe:
        return pipe.run(
            symbols=spec.symbols if symbols is None else symbols,
            seed=seed,
        )


_BUILTIN_SCENARIOS = (
    ScenarioSpec(
        name="uwb-ofdm",
        description="802.15.3a MB-UWB: 1024-carrier QPSK over AWGN "
                    "(the paper's motivating workload)",
        n_points=1024,
        scheme="qpsk",
        snr_db=20.0,
        symbols=8,
    ),
    ScenarioSpec(
        name="wimax-ofdm",
        description="802.16 WiMAX: 256-carrier 16-QAM over AWGN "
                    "(the 2.5 MHz point of the scaling family)",
        n_points=256,
        scheme="16qam",
        snr_db=28.0,
        symbols=16,
    ),
    ScenarioSpec(
        name="multipath-eq",
        description="128-carrier 16-QAM through a 3-tap Rayleigh "
                    "channel with one-tap equalisation",
        n_points=128,
        scheme="16qam",
        snr_db=35.0,
        channel_profile=(3, 0.4, 2),
        symbols=8,
    ),
    ScenarioSpec(
        name="spectral",
        description="plain Q1.15 spectral analysis of a block stream "
                    "(the streamed ASIP workload, overflow accounted)",
        n_points=256,
        stages=SPECTRUM_CHAIN,
        scheme=None,
        precision="q15",
        source_scale=0.25,
        symbols=32,
    ),
    # Coded presets: the chains deployed receivers actually run — a
    # K=7 convolutional codec with soft-decision demapping in front of
    # the FFT, one terminated code block per OFDM symbol.
    ScenarioSpec(
        name="dvbt-2k",
        description="DVB-T 2k mode: 2048-carrier QPSK, K=7 rate-2/3 "
                    "coded with soft-decision Viterbi",
        n_points=2048,
        stages=CODED_OFDM_CHAIN,
        scheme="qpsk",
        snr_db=10.0,
        code="conv-k7",
        code_rate="2/3",
        symbols=4,
    ),
    ScenarioSpec(
        name="dvbt-8k",
        description="DVB-T 8k mode: 8192-carrier 16-QAM, K=7 rate-3/4 "
                    "coded with soft-decision Viterbi",
        n_points=8192,
        stages=CODED_OFDM_CHAIN,
        scheme="16qam",
        snr_db=20.0,
        code="conv-k7",
        code_rate="3/4",
        symbols=2,
    ),
    ScenarioSpec(
        name="uwb-ofdm-coded",
        description="802.15.3a MB-UWB behind the standard K=7 rate-1/2 "
                    "codec (the paper's workload, coded)",
        n_points=1024,
        stages=CODED_OFDM_CHAIN,
        scheme="qpsk",
        snr_db=8.0,
        code="conv-k7",
        code_rate="1/2",
        symbols=8,
    ),
    ScenarioSpec(
        name="wimax-ofdm-coded",
        description="802.16 WiMAX 256-carrier 16-QAM, K=7 rate-3/4 "
                    "coded with block interleaving",
        n_points=256,
        stages=CODED_OFDM_CHAIN,
        scheme="16qam",
        snr_db=18.0,
        code="conv-k7",
        code_rate="3/4",
        symbols=8,
    ),
)

for _spec in _BUILTIN_SCENARIOS:
    register_scenario(_spec, replace=True)
