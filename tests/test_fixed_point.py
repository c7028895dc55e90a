"""Q1.15 fixed-point datapath: quantisation, saturation, bit-level I/O."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fixed_point import (
    LANE_DTYPE,
    FixedComplex,
    FixedPointContext,
    quantize,
    quantize_array,
    snr_db,
    words_to_fixed_array,
)

unit_floats = st.floats(-0.999, 0.999)
unit_cplx = st.builds(complex, unit_floats, unit_floats)


class TestQuantize:
    @given(unit_cplx)
    def test_error_bounded_by_half_lsb(self, value):
        q = quantize(value).to_complex()
        assert abs(q.real - value.real) <= 2 ** -16 + 1e-12
        assert abs(q.imag - value.imag) <= 2 ** -16 + 1e-12

    def test_saturates_above_one(self):
        q = quantize(2.0 + 0j)
        assert q.re == 2 ** 15 - 1

    def test_saturates_below_minus_one(self):
        q = quantize(-2.0 - 2.0j)
        assert q.re == -(2 ** 15)
        assert q.im == -(2 ** 15)

    @given(unit_cplx)
    def test_idempotent_on_grid(self, value):
        once = quantize(value)
        again = quantize(once.to_complex())
        assert once == again

    @pytest.mark.parametrize(
        "bad", [complex(np.nan, 0), complex(np.inf, 0), complex(0, -np.inf)],
        ids=["nan", "inf", "-inf-j"],
    )
    def test_non_finite_is_refused_by_both_forms(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            quantize(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                quantize_array(np.array([0.5, bad, -0.5]))

    def test_lane_format_is_int32(self):
        re, im = quantize_array(np.array([1.5 - 2j, -0.25 + 0.5j]))
        assert re.dtype == im.dtype == LANE_DTYPE == np.int32
        assert (re.tolist(), im.tolist()) == ([2 ** 15 - 1, -8192],
                                              [-(2 ** 15), 16384])
        re, im = words_to_fixed_array(np.array([0x8000FFFF, 0x7FFF8000]))
        assert re.dtype == im.dtype == LANE_DTYPE
        assert (re.tolist(), im.tolist()) == ([-(2 ** 15), 2 ** 15 - 1],
                                              [-1, -(2 ** 15)])


class TestWords:
    @given(st.integers(-(2 ** 15), 2 ** 15 - 1),
           st.integers(-(2 ** 15), 2 ** 15 - 1))
    def test_word_roundtrip(self, re, im):
        fx = FixedComplex(re, im)
        assert FixedComplex.from_words(*fx.to_words()) == fx

    def test_negative_packing(self):
        fx = FixedComplex(-1, -32768)
        re_w, im_w = fx.to_words()
        assert re_w == 0xFFFF
        assert im_w == 0x8000


class TestContext:
    def test_butterfly_matches_float_when_exact(self):
        ctx = FixedPointContext(scale_stages=False)
        a, b = quantize(0.25 + 0j), quantize(0.25 + 0j)
        w = quantize(1.0 - 2 ** -15)  # ~unity
        s, d = ctx.butterfly(a, b, w)
        assert abs(s.to_complex().real - 0.5) < 1e-3
        assert abs(d.to_complex().real) < 1e-3

    def test_scaling_halves_outputs(self):
        ctx = FixedPointContext(scale_stages=True)
        s, d = ctx.butterfly(
            quantize(0.5), quantize(0.5), quantize(1.0 - 2 ** -15)
        )
        assert abs(s.to_complex().real - 0.5) < 1e-3  # (0.5+0.5)/2
        assert abs(d.to_complex().real) < 1e-3

    def test_overflow_detected_without_scaling(self):
        ctx = FixedPointContext(scale_stages=False)
        ctx.add(quantize(0.9), quantize(0.9))
        assert ctx.overflow_count == 1

    def test_no_overflow_with_scaling(self):
        ctx = FixedPointContext(scale_stages=True)
        ctx.add(quantize(0.9), quantize(0.9))
        assert ctx.overflow_count == 0

    @given(
        st.builds(complex, st.floats(-0.49, 0.49), st.floats(-0.49, 0.49)),
        st.builds(complex, st.floats(-0.49, 0.49), st.floats(-0.49, 0.49)),
    )
    @settings(max_examples=50)
    def test_multiply_close_to_float(self, x, w):
        """Inputs bounded so the product components stay inside Q1.15
        (saturation on overflow is tested separately)."""
        ctx = FixedPointContext()
        got = ctx.multiply(quantize(x), quantize(w)).to_complex()
        assert abs(got - x * w) < 1e-3

    def test_multiply_saturates_on_large_product(self):
        ctx = FixedPointContext()
        big = quantize(0.999 + 0.999j)
        got = ctx.multiply(big, quantize(0.999 - 0.999j)).to_complex()
        assert abs(got.real - (1.0 - 2 ** -15)) < 1e-3  # clamped
        assert ctx.overflow_count >= 1

    def test_vector_helpers_roundtrip(self):
        ctx = FixedPointContext()
        x = np.array([0.1 + 0.2j, -0.3 - 0.4j])
        back = ctx.to_complex_vector(ctx.quantize_vector(x))
        assert np.allclose(back, x, atol=1e-4)


class TestSnr:
    def test_perfect_is_infinite(self):
        x = np.array([1.0 + 1j])
        assert snr_db(x, x) == float("inf")

    def test_known_ratio(self):
        ref = np.array([1.0 + 0j])
        measured = np.array([1.1 + 0j])
        assert abs(snr_db(ref, measured) - 20.0) < 0.1

    def test_zero_signal(self):
        assert snr_db(np.zeros(2), np.ones(2)) == float("-inf")
