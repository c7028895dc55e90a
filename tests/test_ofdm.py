"""OFDM substrate: constellations, channels, and the link they form."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ofdm import CONSTELLATIONS, MultipathChannel, awgn
from repro.pipelines import Pipeline

SCHEMES = ["bpsk", "qpsk", "16qam", "64qam"]


class TestConstellations:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_unit_average_power(self, scheme):
        points = CONSTELLATIONS[scheme].points
        assert np.isclose(np.mean(np.abs(points) ** 2), 1.0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_map_unmap_roundtrip(self, scheme):
        c = CONSTELLATIONS[scheme]
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=c.bits_per_symbol * 50)
        assert np.array_equal(c.unmap_symbols(c.map_bits(bits)), bits)

    def test_gray_neighbours_differ_in_one_bit(self):
        """Adjacent 16-QAM points along one axis differ in one bit."""
        c = CONSTELLATIONS["16qam"]
        reals = sorted(set(np.round(c.points.real, 6)))
        for a, b in zip(reals, reals[1:]):
            pa = [p for p in range(16) if np.isclose(c.points[p].real, a)
                  and np.isclose(c.points[p].imag, reals[0])]
            pb = [p for p in range(16) if np.isclose(c.points[p].real, b)
                  and np.isclose(c.points[p].imag, reals[0])]
            assert bin(pa[0] ^ pb[0]).count("1") == 1

    def test_bit_count_validated(self):
        with pytest.raises(ValueError):
            CONSTELLATIONS["qpsk"].map_bits([0, 1, 1])

    @pytest.mark.parametrize("bits", [[0, 2], [0, -1], [[0, 1], [1, 3]]])
    def test_non_binary_bits_rejected(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            CONSTELLATIONS["qpsk"].map_bits(bits)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int32, np.int64])
    def test_bits_of_any_integer_width_map(self, dtype):
        c = CONSTELLATIONS["16qam"]
        bits = np.array([0, 1, 1, 0, 1, 1, 0, 1])
        assert np.array_equal(c.map_bits(bits.astype(dtype)),
                              c.points[[0b0110, 0b1101]])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_leading_axes_round_trip(self, scheme):
        c = CONSTELLATIONS[scheme]
        bits = np.random.default_rng(4).integers(
            0, 2, size=(3, 2, 5 * c.bits_per_symbol))
        symbols = c.map_bits(bits)
        assert symbols.shape == (3, 2, 5)
        assert np.array_equal(symbols[1, 0], c.map_bits(bits[1, 0]))
        assert np.array_equal(c.unmap_symbols(symbols), bits)
        assert np.array_equal(c.unmap_symbols_reference(symbols), bits)

    def test_divisibility_checked_per_row(self):
        # Six bits in all, but each row's three cannot fill QPSK points.
        with pytest.raises(ValueError, match="not divisible"):
            CONSTELLATIONS["qpsk"].map_bits(np.zeros((2, 3), dtype=int))


def _grid_values(c) -> np.ndarray:
    """Every level and threshold of ``c`` with its 4 nearest floats on
    either side, plus signed zeros, subnormals, huge values, inf, NaN."""
    anchors = np.concatenate([c.points.real, c.points.imag,
                              *c._thresholds, [0.0]])
    values = []
    for anchor in np.unique(anchors):
        for direction in (-np.inf, np.inf):
            value = anchor
            for _ in range(5):
                values.append(value)
                value = np.nextafter(value, direction)
    values += [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e16, -1e16, 1e300,
               1.7e308, -1.7e308, np.inf, -np.inf, np.nan]
    return np.array(values)


def _assert_same_as_oracle(c, symbols):
    # The oracle's hypot overflows for components near the float max,
    # as it did when it was the only demapper; values are still compared.
    with np.errstate(over="ignore"):
        fast = c.unmap_symbols(symbols)
        oracle = c.unmap_symbols_reference(symbols)
    assert fast.dtype == oracle.dtype == np.intp
    assert np.array_equal(fast, oracle)


class TestHardSlicer:
    """The per-axis slicer equals the argmin oracle, values and dtype."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ulp_grid_around_thresholds_and_levels(self, scheme):
        c = CONSTELLATIONS[scheme]
        values = _grid_values(c)
        real = np.repeat(values, len(values))
        imag = np.tile(values, len(values))
        symbols = np.empty(real.size, dtype=complex)
        symbols.real, symbols.imag = real, imag
        _assert_same_as_oracle(c, symbols)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e8, 1e300])
    def test_random_and_scaled_symbols(self, scheme, scale):
        rng = np.random.default_rng(11)
        symbols = rng.standard_normal((4, 256)) \
            + 1j * rng.standard_normal((4, 256))
        _assert_same_as_oracle(CONSTELLATIONS[scheme], symbols * scale)

    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        values=st.lists(
            st.complex_numbers(allow_nan=True, allow_infinity=True),
            min_size=1, max_size=16),
    )
    def test_arbitrary_complex_input(self, scheme, values):
        _assert_same_as_oracle(CONSTELLATIONS[scheme],
                               np.array(values, dtype=complex))

    def test_non_finite_input_raises_no_warning(self, recwarn):
        symbols = np.array([complex(np.nan, 0.3), complex(np.inf, -np.inf),
                            complex(1e300, 0.0), 0.7 + 0.7j])
        CONSTELLATIONS["16qam"].unmap_symbols(symbols)
        assert not recwarn.list


class TestBurstDraws:
    @pytest.mark.parametrize("payload", [1, 3, 1365, 2047, 2048, 5461])
    def test_one_draw_equals_per_symbol_draws(self, payload):
        """Pins numpy's stream: the bit stages draw a burst at once."""
        burst = np.random.default_rng(21)
        rows = np.random.default_rng(21)
        got = burst.integers(0, 2, size=(5, payload))
        want = np.stack([rows.integers(0, 2, size=payload)
                         for _ in range(5)])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert burst.bit_generator.state == rows.bit_generator.state


class TestChannel:
    def test_awgn_snr_accuracy(self):
        rng = np.random.default_rng(0)
        signal = np.ones(200_00, dtype=complex)
        noisy = awgn(signal, snr_db=10.0, rng=rng)
        measured = np.mean(np.abs(noisy - signal) ** 2)
        assert abs(10 * np.log10(1.0 / measured) - 10.0) < 0.3

    def test_awgn_zero_signal(self):
        out = awgn(np.zeros(8), 10.0)
        assert np.allclose(out, 0)

    def test_multipath_is_circular_convolution(self):
        channel = MultipathChannel([1.0, 0.5])
        x = np.array([1.0, 0, 0, 0], dtype=complex)
        out = channel.apply(x)
        assert np.allclose(out, [1.0, 0.5, 0, 0])

    def test_frequency_response_matches_apply(self):
        rng = np.random.default_rng(5)
        channel = MultipathChannel.exponential_profile(4, rng=rng)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        via_time = np.fft.fft(channel.apply(x))
        via_freq = np.fft.fft(x) * channel.frequency_response(32)
        assert np.allclose(via_time, via_freq)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultipathChannel([])
        with pytest.raises(ValueError):
            MultipathChannel(np.ones(16)).apply(np.ones(8))

    def test_exponential_profile_normalised(self):
        channel = MultipathChannel.exponential_profile(
            5, rng=np.random.default_rng(1)
        )
        assert np.isclose(np.linalg.norm(channel.taps), 1.0)

    def test_batched_apply_matches_per_symbol(self):
        rng = np.random.default_rng(6)
        channel = MultipathChannel.exponential_profile(4, rng=rng)
        batch = rng.standard_normal((5, 32)) + 1j * rng.standard_normal(
            (5, 32)
        )
        got = channel.apply(batch)
        want = np.stack([channel.apply(row) for row in batch])
        assert np.array_equal(got, want)

    def test_batched_awgn_per_symbol_snr(self):
        rng = np.random.default_rng(7)
        # Rows with very different powers: per-symbol sigma must track.
        batch = np.ones((2, 20_000), dtype=complex)
        batch[1] *= 10.0
        noisy = awgn(batch, snr_db=10.0, rng=rng)
        for row, clean in zip(noisy, batch):
            measured = np.mean(np.abs(row - clean) ** 2)
            power = np.mean(np.abs(clean) ** 2)
            assert abs(10 * np.log10(power / measured) - 10.0) < 0.3

    def test_batched_awgn_zero_batch(self):
        out = awgn(np.zeros((3, 8)), 10.0)
        assert np.allclose(out, 0)


class TestLink:
    """The OFDM link end to end, run as the default pipeline chain."""

    def test_clean_channel_zero_errors(self):
        with Pipeline(64, scheme="qpsk", snr_db=40.0, seed=1) as pipe:
            result = pipe.run(symbols=1)
        assert result.metrics["bit_errors"] == 0
        assert result.total_cycles == 0  # algorithm engine

    def test_asip_backed_receiver(self):
        with Pipeline(64, scheme="qpsk", snr_db=35.0, backend="asip-batch",
                      seed=2) as pipe:
            result = pipe.run(symbols=1)
        assert result.metrics["bit_errors"] == 0
        assert result.total_cycles > 0

    def test_multipath_with_equalisation(self):
        channel = MultipathChannel.exponential_profile(
            3, rng=np.random.default_rng(9)
        )
        with Pipeline(128, scheme="qpsk", channel=channel, snr_db=35.0,
                      seed=3) as pipe:
            assert pipe.run(symbols=1).metrics["bit_errors"] == 0

    def test_ber_degrades_with_snr(self):
        with Pipeline(64, scheme="16qam", seed=4) as pipe:
            low = pipe.run(symbols=5, snr_db=5.0).ber
            high = pipe.run(symbols=5, snr_db=30.0).ber
        assert low > high

    def test_higher_order_needs_more_snr(self):
        with Pipeline(64, scheme="qpsk", snr_db=12.0, seed=5) as qpsk, \
                Pipeline(64, scheme="64qam", snr_db=12.0, seed=5) as qam64:
            assert qam64.run(symbols=5).ber > qpsk.run(symbols=5).ber

    def test_validation(self):
        with pytest.raises(ValueError):
            Pipeline(64, scheme="8psk")
        with Pipeline(64) as pipe, pytest.raises(ValueError):
            pipe.run(symbols=0)


class TestInverseTransform:
    def test_array_fft_inverse_roundtrip(self):
        from repro.core import ArrayFFT

        rng = np.random.default_rng(6)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        engine = ArrayFFT(64)
        assert np.allclose(engine.inverse(engine.transform(x)), x)

    def test_inverse_matches_numpy(self):
        from repro.core import ArrayFFT

        rng = np.random.default_rng(7)
        spectrum = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        assert np.allclose(
            ArrayFFT(128).inverse(spectrum), np.fft.ifft(spectrum)
        )
