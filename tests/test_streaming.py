"""Streaming driver: sustained back-to-back transforms."""

import numpy as np
import pytest

from repro.asip.streaming import StreamingFFT


def blocks(n, count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestStreamingFFT:
    def test_stream_of_symbols_all_verified(self):
        stream = StreamingFFT(64)
        stats = stream.process(blocks(64, 5))
        assert stats.symbols == 5
        assert stats.total_cycles > 0

    def test_cycle_count_is_deterministic(self):
        """No data-dependent control flow: every symbol costs the same."""
        stats = StreamingFFT(128).process(blocks(128, 4, seed=3))
        assert stats.is_deterministic
        assert len(stats.per_symbol_cycles) == 4

    def test_sustained_rate_matches_single_shot(self):
        import repro

        n = 64
        x = np.random.default_rng(1).standard_normal(n).astype(complex)
        with repro.engine(n, backend="asip") as eng:
            single = eng.transform(x).stats.cycles
        stats = StreamingFFT(n).process(blocks(n, 3, seed=1))
        # the stream re-runs the identical program; rates agree closely
        assert abs(stats.cycles_per_symbol - single) / single < 0.02

    def test_throughput_property(self):
        stats = StreamingFFT(64).process(blocks(64, 2))
        assert stats.msamples_per_second > 50

    def test_fixed_point_stream(self):
        def scaled_blocks():
            rng = np.random.default_rng(5)
            for _ in range(2):
                yield 0.2 * (
                    rng.standard_normal(64) + 1j * rng.standard_normal(64)
                )

        stats = StreamingFFT(64, fixed_point=True).process(scaled_blocks())
        assert stats.symbols == 2

    def test_verification_catches_corruption(self):
        stream = StreamingFFT(16)
        # corrupt by patching read_output to return garbage
        original = stream.asip.read_output
        stream.asip.read_output = lambda: np.zeros(16, dtype=complex)
        with pytest.raises(AssertionError):
            stream.process(blocks(16, 1, seed=9))
        stream.asip.read_output = original

    def test_empty_stream(self):
        stats = StreamingFFT(16).process([])
        assert stats.symbols == 0
        assert stats.cycles_per_symbol == 0.0
        assert stats.msamples_per_second == 0.0
