"""End-to-end OFDM link: transmitter, channel, facade-backed receiver.

One :class:`OfdmLink` wires the substrate together: constellation mapping
onto N subcarriers, IFFT (host side — the transmitter), a channel model,
and a receiver whose FFT stage is any backend of the unified facade
(:func:`repro.engine`): the algorithm-level ``compiled``/``sharded``
engines (fast) or the full instruction-level ASIP simulation (exact
reproduction of the paper's datapath; ``asip-batch`` keeps **one
persistent machine** and pushes whole symbol bursts through
:meth:`~repro.asip.FFTASIP.run_batch`), followed by one-tap
equalisation and demapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engines import engine as build_engine
from .channel import MultipathChannel, awgn
from .modulation import CONSTELLATIONS

__all__ = ["LinkResult", "OfdmLink"]


@dataclass
class LinkResult:
    """Outcome of one OFDM symbol through the link."""

    tx_bits: np.ndarray
    rx_bits: np.ndarray
    equalised: np.ndarray
    fft_cycles: int  # 0 when an algorithm-level engine was used

    @property
    def bit_errors(self) -> int:
        """Number of bit errors in the symbol."""
        return int(np.sum(self.tx_bits != self.rx_bits))

    @property
    def bit_error_rate(self) -> float:
        """BER for the symbol."""
        return self.bit_errors / len(self.tx_bits)

    def evm_percent(self, reference) -> float:
        """Error-vector magnitude of the equalised constellation."""
        reference = np.asarray(reference, dtype=complex)
        error = np.sqrt(np.mean(np.abs(self.equalised - reference) ** 2))
        return float(100.0 * error)


class OfdmLink:
    """An OFDM link with a pluggable facade-backed FFT receiver stage.

    Parameters
    ----------
    backend:
        Receiver FFT backend name (any registered facade backend).
        Defaults to ``"asip-batch"`` when ``use_asip`` is set,
        ``"sharded"`` when ``workers >= 2``, else ``"compiled"``.
    use_asip:
        Back-compatible switch selecting the instruction-level receiver
        (now the persistent ``asip-batch`` machine — one
        :meth:`FFTASIP.run_batch` pass per burst instead of a fresh
        simulator per symbol).
    workers:
        ``workers >= 2`` shards the batched transmitter IFFT and
        (non-ASIP) receiver FFT of :meth:`run_symbols` /
        :meth:`measure_ber` / :meth:`measure_ber_sweep` across a
        thread pool; the engine falls back to serial execution for
        small bursts or when the pool fails, so results are identical
        either way.
    """

    def __init__(self, n_subcarriers: int, scheme: str = "qpsk",
                 channel: MultipathChannel = None, snr_db: float = 30.0,
                 use_asip: bool = False, seed: int = 0,
                 workers: int = None, backend: str = None):
        if scheme not in CONSTELLATIONS:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.n = n_subcarriers
        self.constellation = CONSTELLATIONS[scheme]
        self.channel = channel
        self.snr_db = snr_db
        self.rng = np.random.default_rng(seed)
        sharded = workers is not None and workers >= 2
        if backend is None:
            backend = ("asip-batch" if use_asip
                       else "sharded" if sharded else "compiled")
        self.backend = backend
        self.use_asip = use_asip or backend in ("asip", "asip-batch")
        self.engine = build_engine(
            n_subcarriers, backend=backend,
            workers=workers if backend == "sharded" else None,
        )
        # The transmitter IFFT always runs host-side on an algorithm
        # engine (the receiver is what the paper's ASIP implements); a
        # non-simulated receiver engine doubles as the transmitter.
        if self.engine.machine is None:
            self._tx_engine = self.engine
        else:
            self._tx_engine = build_engine(
                n_subcarriers,
                backend="sharded" if sharded else "compiled",
                workers=workers if sharded else None,
            )

    @classmethod
    def from_scenario(cls, name: str, **overrides) -> "OfdmLink":
        """Build a link from a registered scenario preset.

        The preset supplies ``n_subcarriers`` / ``scheme`` / ``channel``
        / ``snr_db``; keyword overrides win (``backend=``, ``workers=``,
        ``seed=``, ``n_subcarriers=``, ...).  Scenarios whose stage
        chain is not the modulated OFDM shape (e.g. ``spectral``) have
        no link equivalent and raise ``ValueError``.
        """
        from ..scenarios import get_scenario

        spec = get_scenario(name)
        if spec.scheme is None:
            raise ValueError(
                f"scenario {name!r} is not a modulated OFDM workload; "
                f"run it through repro.pipeline()/run_scenario() instead"
            )
        options = dict(
            scheme=spec.scheme,
            channel=spec.make_channel(),
            snr_db=spec.snr_db if spec.snr_db is not None else 30.0,
            seed=spec.seed,
            backend=spec.backend,
        )
        n_subcarriers = overrides.pop("n_subcarriers", spec.n_points)
        options.update(overrides)
        return cls(n_subcarriers, **options)

    @property
    def bits_per_symbol(self) -> int:
        """Payload bits carried by one OFDM symbol."""
        return self.n * self.constellation.bits_per_symbol

    def close(self) -> None:
        """Release the engines' worker pools, if any (idempotent)."""
        self.engine.close()
        if self._tx_engine is not self.engine:
            self._tx_engine.close()

    def __enter__(self) -> "OfdmLink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def random_bits(self) -> np.ndarray:
        """A payload's worth of random bits."""
        return self.rng.integers(0, 2, size=self.bits_per_symbol)

    def transmit(self, bits) -> tuple:
        """Map and IFFT one symbol; returns (time_signal, subcarriers)."""
        subcarriers = self.constellation.map_bits(np.asarray(bits))
        time_signal = self._tx_engine.inverse(subcarriers).spectrum * self.n
        return time_signal, subcarriers

    def receive(self, time_signal) -> tuple:
        """FFT (any facade backend) + one-tap equalisation."""
        result = self.engine.transform(
            np.asarray(time_signal, dtype=complex)
        )
        return self._equalise(result.spectrum), result.cycles[0]

    def receive_many(self, time_signals) -> tuple:
        """Batched receive of an ``(n_symbols, N)`` block of time signals.

        All symbols run through one facade batch call — for the
        ``asip-batch`` backend that is one persistent
        :meth:`FFTASIP.run_batch` machine executing the whole burst.
        Returns ``(equalised_spectra, per_symbol_cycles)``.
        """
        time_signals = np.asarray(time_signals, dtype=complex)
        result = self.engine.transform_many(time_signals)
        return self._equalise(result.spectrum), result.cycles

    def _equalise(self, spectra: np.ndarray) -> np.ndarray:
        """Scale by 1/N and one-tap equalise (broadcasts over batches)."""
        spectra = spectra / self.n
        if self.channel is not None:
            spectra = spectra / self.channel.frequency_response(self.n)
        return spectra

    def run_symbol(self, bits=None) -> LinkResult:
        """Push one OFDM symbol end to end."""
        tx_bits = np.asarray(bits) if bits is not None else self.random_bits()
        time_signal, _ = self.transmit(tx_bits)
        if self.channel is not None:
            time_signal = self.channel.apply(time_signal)
        time_signal = awgn(time_signal, self.snr_db, rng=self.rng)
        equalised, cycles = self.receive(time_signal)
        rx_bits = self.constellation.unmap_symbols(equalised)
        return LinkResult(
            tx_bits=tx_bits,
            rx_bits=rx_bits,
            equalised=equalised,
            fft_cycles=cycles,
        )

    def run_symbols(self, count: int) -> list:
        """Push ``count`` OFDM symbols end to end with batched FFT passes.

        The transmitter IFFT and receiver FFT each run as one facade
        batch call over all symbols, amortising the compiled plan (or
        the simulated program pass) across the burst — the multi-symbol
        traffic path.
        """
        if count < 1:
            raise ValueError("need at least one symbol")
        payloads = self._random_burst(count)
        time_signals = self._transmit_burst(payloads)
        time_signals = self._channel_burst(time_signals, self.snr_db)
        equalised, cycles = self.receive_many(time_signals)
        rx_bits = self.constellation.unmap_symbols(equalised)
        return [
            LinkResult(
                tx_bits=payloads[k],
                rx_bits=rx_bits[k],
                equalised=equalised[k],
                fft_cycles=cycles[k],
            )
            for k in range(count)
        ]

    def _random_burst(self, count: int) -> np.ndarray:
        # One (count, payload) draw: the same bits and generator state as
        # ``count`` calls of random_bits (pinned in tests/test_ofdm.py).
        return self.rng.integers(0, 2, size=(count, self.bits_per_symbol))

    def _transmit_burst(self, payloads: np.ndarray) -> np.ndarray:
        subcarriers = self.constellation.map_bits(payloads)
        return self._tx_engine.inverse_many(subcarriers).spectrum * self.n

    def _channel_burst(self, time_signals: np.ndarray,
                       snr_db: float) -> np.ndarray:
        # Channel and noise are applied to the whole burst at once: one
        # FFT-based circular convolution and one rng draw per batch, with
        # per-symbol noise power (awgn measures power along the last
        # axis).
        if self.channel is not None:
            time_signals = self.channel.apply(time_signals)
        return awgn(time_signals, snr_db, rng=self.rng)

    def measure_ber(self, symbols: int = 10) -> float:
        """Average BER over several independent symbols (batched)."""
        if symbols < 1:
            raise ValueError("need at least one symbol")
        errors = 0
        total = 0
        for result in self.run_symbols(symbols):
            errors += result.bit_errors
            total += len(result.tx_bits)
        return errors / total

    def measure_ber_sweep(self, snr_dbs, symbols: int = 10) -> dict:
        """BER at each SNR point, the whole sweep batched as one burst.

        All ``len(snr_dbs) * symbols`` symbols are transmitted and
        received in **one** facade batch per direction, so a
        ``workers >= 2`` link shards the entire BER curve row-wise
        across its thread pool (``ShardedEngine`` underneath) instead
        of running SNR points one by one — with the usual serial
        fallback when the pool is unavailable or the burst is small.
        Noise is drawn per SNR point (per-symbol noise power), then the
        receiver FFT runs over the concatenated burst.

        Returns ``{snr_db: ber}`` in the order given.
        """
        snr_dbs = [float(s) for s in snr_dbs]
        if not snr_dbs:
            raise ValueError("need at least one SNR point")
        if symbols < 1:
            raise ValueError("need at least one symbol")
        payloads = self._random_burst(len(snr_dbs) * symbols)
        time_signals = self._transmit_burst(payloads)
        noisy = np.concatenate([
            self._channel_burst(
                time_signals[k * symbols:(k + 1) * symbols], snr
            )
            for k, snr in enumerate(snr_dbs)
        ])
        equalised, _ = self.receive_many(noisy)
        wrong = self.constellation.unmap_symbols(equalised) != payloads
        sweep = {}
        for k, snr in enumerate(snr_dbs):
            errors = int(np.sum(wrong[k * symbols:(k + 1) * symbols]))
            sweep[snr] = errors / (symbols * self.bits_per_symbol)
        return sweep
