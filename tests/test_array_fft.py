"""The array-structured FFT engine — the paper's core contribution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ArrayFFT, snr_db

SIZES = st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512, 1024])


def random_vector(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestFloatDatapath:
    @given(SIZES, st.integers(0, 10 ** 6))
    @settings(deadline=None, max_examples=40)
    def test_matches_numpy(self, n, seed):
        x = random_vector(n, seed)
        assert np.allclose(
            ArrayFFT(n).transform(x), np.fft.fft(x), atol=1e-9 * n
        )

    def test_large_sizes(self):
        for n in (2048, 4096, 8192):
            x = random_vector(n, n)
            assert np.allclose(
                ArrayFFT(n).transform(x), np.fft.fft(x), atol=1e-8 * n
            )

    def test_engine_is_reusable(self):
        engine = ArrayFFT(64)
        for seed in range(3):
            x = random_vector(64, seed)
            assert np.allclose(engine.transform(x), np.fft.fft(x))

    def test_callable_alias(self):
        engine = ArrayFFT(16)
        x = random_vector(16, 5)
        assert np.allclose(engine(x), engine.transform(x))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ArrayFFT(64).transform(np.zeros(32))

    def test_impulse_and_dc(self):
        engine = ArrayFFT(64)
        impulse = np.zeros(64, dtype=complex)
        impulse[0] = 1.0
        assert np.allclose(engine.transform(impulse), np.ones(64))
        dc = np.ones(64, dtype=complex)
        spectrum = engine.transform(dc)
        assert abs(spectrum[0] - 64) < 1e-9
        assert np.max(np.abs(spectrum[1:])) < 1e-9

    def test_real_input_hermitian_spectrum(self):
        x = np.random.default_rng(4).standard_normal(128).astype(complex)
        spectrum = ArrayFFT(128).transform(x)
        assert np.allclose(
            spectrum[1:], np.conj(spectrum[1:][::-1]), atol=1e-9
        )


class TestFixedPointDatapath:
    @given(st.sampled_from([16, 64, 256]), st.integers(0, 100))
    @settings(deadline=None, max_examples=10)
    def test_snr_above_35db(self, n, seed):
        x = random_vector(n, seed) * 0.2
        engine = ArrayFFT(n, fixed_point=True)
        measured = engine.transform(x)
        assert snr_db(np.fft.fft(x) / n, measured) > 35.0

    def test_output_is_scaled_by_n(self):
        n = 64
        x = random_vector(n, 9) * 0.2
        measured = ArrayFFT(n, fixed_point=True).transform(x)
        reference = np.fft.fft(x) / n
        assert np.allclose(measured, reference, atol=2e-3)

    def test_no_overflow_with_scaling(self):
        engine = ArrayFFT(64, fixed_point=True)
        x = random_vector(64, 10) * 0.3
        engine.transform(x)
        assert engine.fx.overflow_count == 0


class TestOperationCounts:
    def test_memory_operation_counts(self):
        counts = ArrayFFT(1024).memory_operation_counts()
        assert counts["ldin"] == 1024
        assert counts["stout"] == 1024
        assert counts["but4"] == 1280
        assert counts["prerotation"] == 512

    def test_bu_utilisation_tracked(self):
        engine = ArrayFFT(64)
        engine.transform(random_vector(64, 11))
        assert engine.bu.op_count == engine.plan.total_but4

    @pytest.mark.parametrize("fixed_point", [False, True])
    def test_oracle_counts_bu_ops_like_compiled(self, fixed_point):
        """Both oracle walks advance ``bu.op_count`` by the plan's BUT4
        count per symbol, as the compiled path does, with unchanged
        spectra and overflow counts."""
        n = 64
        oracle = ArrayFFT(n, fixed_point=fixed_point, compiled=False)
        compiled = ArrayFFT(n, fixed_point=fixed_point)
        blocks = 0.3 * np.stack([random_vector(n, seed) for seed in range(3)])

        def run(engine):
            return [engine.transform(blocks[0]),
                    engine.transform_many(blocks[1:])]

        for got, want in zip(run(oracle), run(compiled)):
            if fixed_point:
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, atol=1e-12)
        assert oracle.bu.op_count == compiled.bu.op_count
        assert oracle.bu.op_count == 3 * oracle.plan.total_but4
        if fixed_point:
            assert oracle.fx.overflow_count == compiled.fx.overflow_count
