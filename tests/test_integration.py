"""Cross-module integration: the full correctness chain of the README.

algorithm engine == ASIP execution == numpy, across datapaths, programs
surviving binary encode/decode, and the OFDM system exercising the whole
stack at once.
"""

import numpy as np
import pytest

import repro
from repro.asip import FFTASIP, generate_fft_program
from repro.core import ArrayFFT
from repro.fft import cached_fft
from repro.isa import Program, decode, encode


def random_vector(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestThreeLevelAgreement:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_algorithm_equals_asip_equals_numpy(self, n):
        x = random_vector(n, n)
        algorithm = ArrayFFT(n).transform(x)
        with repro.engine(n, backend="asip") as eng:
            asip = eng.transform(x).spectrum
        reference = np.fft.fft(x)
        assert np.allclose(algorithm, reference, atol=1e-9 * n)
        assert np.allclose(asip, reference, atol=1e-9 * n)
        assert np.allclose(asip, algorithm, atol=1e-9 * n)

    def test_array_engine_plugs_into_cached_skeleton(self):
        """The ArrayFFT can serve as the inner engine of the generic
        cached-FFT skeleton (P-point groups of a larger transform)."""
        n = 256
        x = random_vector(n, 1)
        inner_engines = {}

        def inner(group):
            size = len(group)
            if size not in inner_engines:
                inner_engines[size] = ArrayFFT(size)
            return inner_engines[size].transform(group)

        assert np.allclose(cached_fft(x, inner_fft=inner), np.fft.fft(x))

    def test_fixed_point_asip_equals_fixed_point_algorithm(self):
        """Bit-true agreement between the two Q1.15 paths."""
        n = 64
        x = random_vector(n, 5) * 0.2
        algorithm = ArrayFFT(n, fixed_point=True).transform(x)
        with repro.engine(n, backend="asip", precision="q15") as eng:
            asip = eng.transform(x).spectrum
        assert np.allclose(asip, algorithm, atol=2e-4)


class TestBinaryProgramPath:
    def test_program_survives_encode_decode_and_runs(self):
        """Encode the generated program to 32-bit words, decode it back,
        execute the decoded program — identical spectrum and cycles."""
        n = 64
        x = random_vector(n, 3)

        direct = FFTASIP(n)
        direct.load_input(x)
        program = generate_fft_program(n, direct.plan)
        direct_stats = direct.run(program)

        words = [encode(instr, i) for i, instr in enumerate(program)]
        decoded = Program(
            instructions=[decode(w, i) for i, w in enumerate(words)],
            name="decoded",
        )
        roundtrip = FFTASIP(n)
        roundtrip.load_input(x)
        rt_stats = roundtrip.run(decoded)

        assert np.allclose(roundtrip.read_output(), direct.read_output())
        assert rt_stats.cycles == direct_stats.cycles
        assert rt_stats.instructions == direct_stats.instructions


class TestSystemLevel:
    def test_ofdm_symbol_through_full_stack(self):
        """Transmitter (compiled IFFT) -> channel -> instruction-level
        ASIP receiver -> demap, with multipath equalisation."""
        from repro.ofdm import MultipathChannel

        channel = MultipathChannel.exponential_profile(
            3, rng=np.random.default_rng(11)
        )
        with repro.pipeline(64, scheme="16qam", channel=channel,
                            snr_db=35.0, backend="asip-batch",
                            seed=8) as pipe:
            result = pipe.run(symbols=1)
        assert result.metrics["bit_errors"] == 0
        assert result.total_cycles > 0

    def test_back_to_back_symbols_are_independent(self):
        """Repeated ASIP runs on one machine stay correct (no state
        leaks between symbols)."""
        n = 32
        with repro.engine(n, backend="asip") as eng:
            for seed in range(4):
                x = random_vector(n, seed)
                assert np.allclose(
                    eng.transform(x).spectrum, np.fft.fft(x), atol=1e-9
                )
