"""Streaming driver: back-to-back transforms on one ASIP instance.

The paper reports per-transform cycle counts; a deployed receiver runs
symbols *continuously*.  This driver reuses one machine and one compiled
program across a stream of input blocks, measuring the steady-state rate
(program reload and data staging amortised away) and verifying every
block through its streaming session.  It also exposes the per-symbol
cycle variance — constant by construction in this design, which is
itself a property worth asserting (no data-dependent control flow
anywhere in Algorithm 1).

Blocks are staged in multi-symbol chunks through
:meth:`repro.asip.FFTASIP.run_batch`, so the program runs at most once
per chunk (from the third chunk on, a recorded pass is replayed) and
each FFT stage executes as a few wide column ops over the chunk's
symbols and groups, while per-symbol cycles and counters retire exactly
as in the serial loop.  ``batch=1`` forces the serial loop (the benchmark
baseline); machines the batch path cannot reproduce exactly fall back to
it automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.cache import CacheConfig
from .fft_asip import FFTASIP
from .throughput import CLOCK_HZ, msamples_per_second, paper_mbps

__all__ = ["StreamStats", "StreamingFFT"]


@dataclass
class StreamStats:
    """Accumulated results of a streamed run."""

    n_points: int
    symbols: int = 0
    total_cycles: int = 0
    per_symbol_cycles: list = field(default_factory=list)

    @property
    def cycles_per_symbol(self) -> float:
        """Mean steady-state cycles per transform."""
        return self.total_cycles / self.symbols if self.symbols else 0.0

    @property
    def msamples_per_second(self) -> float:
        """Sustained sample throughput at the 300 MHz clock."""
        if not self.symbols:
            return 0.0
        return msamples_per_second(
            self.n_points * self.symbols, self.total_cycles, CLOCK_HZ
        )

    @property
    def mbps_paper_convention(self) -> float:
        """Table I's Mbps convention (6 bits per sample point)."""
        if not self.symbols:
            return 0.0
        return paper_mbps(
            self.n_points * self.symbols, self.total_cycles, CLOCK_HZ
        )

    @property
    def is_deterministic(self) -> bool:
        """True when every symbol took exactly the same cycle count."""
        return len(set(self.per_symbol_cycles)) <= 1


class StreamingFFT:
    """Run a stream of blocks through one compiled program.

    Since the sessions API landed this is a thin wrapper over
    :class:`repro.sessions.StreamSession`: the machine and program come
    from the unified facade's ``asip-batch`` backend (one persistent
    :class:`FFTASIP` plus its generated Algorithm-1 program), a session
    feeds, chunks and verifies the stream, and this driver folds the
    per-chunk :class:`~repro.engines.TransformResult`\\ s into the
    :class:`StreamStats` accounting the streaming benchmarks report.
    New code should hold a session directly (:func:`repro.session`).
    """

    #: Symbols per batched execution pass through ``run_batch``.
    DEFAULT_BATCH = 64

    def __init__(self, n_points: int, fixed_point: bool = False,
                 cache_config: CacheConfig = None):
        from ..engines import engine as build_engine

        self.engine = build_engine(
            n_points, backend="asip-batch",
            precision="q15" if fixed_point else "float",
            cache_config=cache_config,
        )
        self.asip: FFTASIP = self.engine.machine
        self.program = self.engine.impl.program
        self.n_points = n_points
        self.fixed_point = fixed_point

    def process(self, blocks, verify: bool = True,
                batch: int = None) -> StreamStats:
        """Transform each block in ``blocks``; returns stream statistics.

        Blocks are buffered into chunks of ``batch`` symbols (default
        :attr:`DEFAULT_BATCH`) and executed through
        :meth:`FFTASIP.run_batch`; ``batch=1`` keeps the serial
        one-symbol-at-a-time loop.  With ``verify`` (default) the session
        checks every chunk against a batched ``np.fft.fft`` reference
        before the next one runs — a streamed run is only as good as its
        worst symbol.  Only the statistics accumulate, so memory stays
        bounded on arbitrarily long streams.
        """
        from ..sessions import StreamSession

        batch = self.DEFAULT_BATCH if batch is None else max(int(batch), 1)
        stats = StreamStats(n_points=self.n_points)

        def consume(results) -> None:
            for result in results:
                stats.symbols += result.n_symbols
                stats.total_cycles += result.total_cycles
                stats.per_symbol_cycles.extend(result.cycles)

        session = StreamSession(self.engine, batch=batch, verify=verify)
        for block in blocks:
            session.feed(block)
            consume(session.drain())
        session.flush()
        consume(session.drain())
        return stats
