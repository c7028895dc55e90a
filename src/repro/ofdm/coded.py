"""Coded OFDM link: the hand-wired chain with the codec wrapped in.

:class:`CodedOfdmLink` composes an :class:`~repro.ofdm.link.OfdmLink`
with the channel-coding layer (:mod:`repro.coding`): each OFDM symbol
carries one terminated K=7 convolutional code block, bit-interleaved
and soft-decision demapped, with the whole burst Viterbi-decoded in one
batched trellis pass.  It is the imperative twin of the declarative
``CODED_OFDM_CHAIN`` pipeline — same draw order, same datapath,
bit-identical results (asserted in ``tests/test_coded_pipeline.py``) —
for callers who want a live object rather than a stage graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .link import OfdmLink

__all__ = ["CodedLinkResult", "CodedOfdmLink"]


@dataclass
class CodedLinkResult:
    """Outcome of one coded OFDM burst through the link.

    ``tx_info_bits`` / ``rx_info_bits`` are ``(symbols, info_bits)``
    payload matrices; ``coded_bits`` is the pre-interleave coded
    payload; ``llrs`` the deinterleaved per-bit LLRs; ``equalised`` the
    equalised subcarriers; ``fft_cycles`` the per-symbol receiver FFT
    cycle counts (zeros on algorithm-level backends).
    """

    tx_info_bits: np.ndarray
    rx_info_bits: np.ndarray
    coded_bits: np.ndarray
    llrs: np.ndarray
    equalised: np.ndarray
    fft_cycles: tuple

    @property
    def symbols(self) -> int:
        """OFDM symbols (= code blocks) in the burst."""
        return len(self.tx_info_bits)

    @property
    def info_bit_errors(self) -> int:
        """Payload bit errors after decoding."""
        return int(np.sum(self.tx_info_bits != self.rx_info_bits))

    @property
    def coded_ber(self) -> float:
        """Post-decoder payload bit error rate."""
        total = self.tx_info_bits.size
        return self.info_bit_errors / total if total else 0.0

    @property
    def uncoded_ber(self) -> float:
        """Raw channel BER off the LLR signs, before decoding."""
        hard = (self.llrs < 0).astype(np.uint8)
        total = self.coded_bits.size
        return float(np.sum(hard != self.coded_bits)) / total if total \
            else 0.0

    @property
    def frame_errors(self) -> int:
        """Code blocks (one per OFDM symbol) decoded with any error."""
        return int(np.sum(np.any(self.tx_info_bits != self.rx_info_bits,
                                 axis=-1)))

    @property
    def frame_error_rate(self) -> float:
        """FER over the burst's code blocks."""
        return self.frame_errors / self.symbols if self.symbols else 0.0


class CodedOfdmLink:
    """An :class:`OfdmLink` behind the standard channel-coding layer.

    Parameters mirror the underlying link plus the codec
    configuration: ``code`` (registered name, a ``ConvolutionalCode``
    or a ready ``PuncturedCode``), ``rate`` (``"1/2"``/``"2/3"``/
    ``"3/4"``), and ``interleaver`` (registered name, ``(name,
    params)`` or an interleaver object; default ``"block"``).
    """

    def __init__(self, n_subcarriers: int, scheme: str = "qpsk",
                 code="conv-k7", rate: str = "1/2",
                 interleaver="block", **link_options):
        # Imported here, not at module top: repro.coding's demappers
        # pull in repro.ofdm.modulation, so a top-level import would be
        # circular through the package __init__.
        from ..coding import (
            get_demapper,
            resolve_code,
            resolve_interleaver,
        )

        self.link = OfdmLink(n_subcarriers, scheme=scheme, **link_options)
        self.code = resolve_code(code, rate)
        if self.code is None:
            raise ValueError("CodedOfdmLink needs a code (use OfdmLink "
                             "for uncoded chains)")
        capacity = self.link.bits_per_symbol
        self.geometry = self.code.block_geometry(capacity)
        # None means "the default", which — exactly like Pipeline's
        # coded default — is the block interleaver, so the two twins
        # stay bit-identical for the same configuration.
        self.interleaver = resolve_interleaver(
            "block" if interleaver is None else interleaver, capacity
        )
        self.demapper = get_demapper(scheme)

    @classmethod
    def from_scenario(cls, name: str, **overrides) -> "CodedOfdmLink":
        """Build a coded link from a registered coded scenario preset.

        The preset supplies geometry, scheme, channel, SNR and the
        codec configuration; keyword overrides win.  Presets without a
        ``code`` raise ``ValueError`` (use :class:`OfdmLink` instead).
        """
        from ..scenarios import get_scenario

        spec = get_scenario(name)
        if spec.code is None:
            raise ValueError(
                f"scenario {name!r} is uncoded; build it with "
                f"OfdmLink.from_scenario or repro.run_scenario instead"
            )
        options = dict(
            scheme=spec.scheme,
            code=spec.code,
            rate=spec.code_rate,
            interleaver=spec.interleaver,
            channel=spec.make_channel(),
            snr_db=spec.snr_db if spec.snr_db is not None else 30.0,
            seed=spec.seed,
            backend=spec.backend,
        )
        n_subcarriers = overrides.pop("n_subcarriers", spec.n_points)
        options.update(overrides)
        return cls(n_subcarriers, **options)

    # Delegation ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Subcarrier count."""
        return self.link.n

    @property
    def info_bits_per_symbol(self) -> int:
        """Payload bits carried by one coded OFDM symbol."""
        return self.geometry.info_bits

    def close(self) -> None:
        """Release the underlying link's engines (idempotent)."""
        self.link.close()

    def __enter__(self) -> "CodedOfdmLink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # Datapath ------------------------------------------------------------

    def run_coded(self, symbols: int) -> CodedLinkResult:
        """Push a coded burst end to end; one code block per symbol."""
        if symbols < 1:
            raise ValueError("need at least one symbol")
        info = self.link.rng.integers(
            0, 2, size=(symbols, self.geometry.info_bits))
        coded = self.code.encode(info, capacity=self.link.bits_per_symbol)
        air = self.interleaver.interleave(coded)
        time_signals = self.link._transmit_burst(air)
        noisy = self.link._channel_burst(time_signals, self.link.snr_db)
        equalised, cycles = self.link.receive_many(noisy)
        llrs = self.interleaver.deinterleave(self.demapper.llrs(equalised))
        rx_info = np.asarray(
            self.code.decode(llrs[..., :self.geometry.coded_bits]),
            dtype=np.uint8,
        )
        return CodedLinkResult(
            tx_info_bits=info.astype(np.uint8),
            rx_info_bits=rx_info,
            coded_bits=coded,
            llrs=llrs,
            equalised=equalised,
            fft_cycles=cycles,
        )

    def measure_coded_ber(self, symbols: int = 8) -> dict:
        """Coded/uncoded BER and FER over one burst; returns a dict."""
        result = self.run_coded(symbols)
        return {
            "coded_ber": result.coded_ber,
            "uncoded_ber": result.uncoded_ber,
            "fer": result.frame_error_rate,
        }
