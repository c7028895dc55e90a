"""Streamed ASIP runs: sustained back-to-back transforms via Engine.stream."""

import numpy as np
import pytest

import repro


def blocks(n, count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.standard_normal(n) + 1j * rng.standard_normal(n)


def asip_engine(n, precision="float"):
    return repro.engine(n, backend="asip-batch", precision=precision)


class TestStreamingFFT:
    def test_stream_of_symbols_all_verified(self):
        with asip_engine(64) as eng:
            result = eng.stream(blocks(64, 5), verify=True)
        assert result.n_symbols == 5
        assert result.total_cycles > 0

    def test_cycle_count_is_deterministic(self):
        """No data-dependent control flow: every symbol costs the same."""
        with asip_engine(128) as eng:
            result = eng.stream(blocks(128, 4, seed=3), verify=True)
        assert len(set(result.cycles)) <= 1
        assert len(result.cycles) == 4

    def test_sustained_rate_matches_single_shot(self):
        n = 64
        x = np.random.default_rng(1).standard_normal(n).astype(complex)
        with repro.engine(n, backend="asip") as eng:
            single = eng.transform(x).stats.cycles
        with asip_engine(n) as eng:
            result = eng.stream(blocks(n, 3, seed=1), verify=True)
        # the stream re-runs the identical program; rates agree closely
        per_symbol = result.total_cycles / result.n_symbols
        assert abs(per_symbol - single) / single < 0.02

    def test_fixed_point_stream(self):
        def scaled_blocks():
            rng = np.random.default_rng(5)
            for _ in range(2):
                yield 0.2 * (
                    rng.standard_normal(64) + 1j * rng.standard_normal(64)
                )

        with asip_engine(64, precision="q15") as eng:
            result = eng.stream(scaled_blocks(), verify=True)
        assert result.n_symbols == 2

    def test_verification_catches_corruption(self):
        with asip_engine(16) as eng:
            # corrupt by patching read_output to return garbage
            eng.machine.read_output = lambda: np.zeros(16, dtype=complex)
            with pytest.raises(AssertionError):
                eng.stream(blocks(16, 1, seed=9), verify=True)

    def test_empty_stream(self):
        with asip_engine(16) as eng:
            result = eng.stream([], verify=True)
        assert result.n_symbols == 0
        assert result.spectrum.shape == (0, 16)
        assert result.total_cycles == 0
