"""Q1.15 complex fixed-point arithmetic — the hardware datapath model.

The paper's BU is synthesised hardware; its datapath is fixed point (the
64-bit bus moves two complex points of 2 x 16 bits).  This module models a
Q1.15 datapath with round-to-nearest and saturation so the reproduction
can report the numerical behaviour (SNR vs float) of the hardware, not
just the algorithmic correctness.

The representation keeps values as integers in ``[-2**15, 2**15 - 1]``
scaled by ``2**-15``.  A per-stage scale-by-half option models the usual
FFT growth management (dividing butterfly outputs by 2 keeps the word
length fixed at the cost of a deterministic output scale of ``1/N``).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FixedPointContext",
    "FixedComplex",
    "LANE_DTYPE",
    "quantize",
    "quantize_array",
    "require_finite",
    "round_shift_array",
    "fixed_to_complex_array",
    "words_to_fixed_array",
    "fixed_to_words_array",
    "snr_db",
]

_FRAC_BITS = 15
_SCALE = 1 << _FRAC_BITS
_MAX = _SCALE - 1
_MIN = -_SCALE


def _saturate(v: int) -> int:
    return max(_MIN, min(_MAX, v))


def _round_shift(v: int, bits: int) -> int:
    """Arithmetic shift right with round-to-nearest (ties away from zero)."""
    if bits <= 0:
        return v << (-bits)
    half = 1 << (bits - 1)
    if v >= 0:
        return (v + half) >> bits
    return -((-v + half) >> bits)


@dataclass(frozen=True)
class FixedComplex:
    """A complex value with Q1.15 integer real/imaginary parts."""

    re: int
    im: int

    def to_complex(self) -> complex:
        """Back-convert to float complex in [-1, 1)."""
        return complex(self.re / _SCALE, self.im / _SCALE)

    def to_words(self) -> tuple:
        """The two 16-bit two's-complement memory words (re, im)."""
        return self.re & 0xFFFF, self.im & 0xFFFF

    @staticmethod
    def from_words(re_word: int, im_word: int) -> "FixedComplex":
        """Build from 16-bit two's-complement words."""
        def signed(w):
            w &= 0xFFFF
            return w - 0x10000 if w & 0x8000 else w
        return FixedComplex(signed(re_word), signed(im_word))


def quantize(value: complex) -> FixedComplex:
    """Quantise a float complex (|re|,|im| <= 1) to Q1.15 with saturation.

    Raises ``ValueError`` on a NaN or infinite component, which has no
    Q1.15 value.
    """
    if not cmath.isfinite(value):
        raise ValueError(f"cannot quantise non-finite {value!r} to Q1.15")
    re = _saturate(int(round(value.real * _SCALE)))
    im = _saturate(int(round(value.imag * _SCALE)))
    return FixedComplex(re, im)


# Vectorised Q1.15 datapath ------------------------------------------------
#
# The array forms below are the whole-column counterparts of the scalar
# FixedComplex operations.  They follow the same arithmetic to the bit:
# round-half-even quantisation (``round`` and ``np.rint`` agree on every
# double), round-to-nearest-ties-away shifts, and saturation with overflow
# counting.  The compiled engine relies on this exact equivalence.

#: The one Q1.15 lane format: every component array the vectorised
#: datapath produces is int32.  Lanes lie in [-2**15, 2**15 - 1], and the
#: butterfly kernel is exact in int32 for every such operand (DESIGN.md,
#: "Q1.15 lanes"); widen to int64 before packing or multiplying elsewhere.
LANE_DTYPE = np.int32


def require_finite(values) -> None:
    """Raise ``ValueError`` unless every component of ``values`` is finite:
    NaN and infinity have no Q1.15 value."""
    if not np.isfinite(values).all():
        raise ValueError("cannot quantise non-finite values to Q1.15")


def quantize_array(values) -> tuple:
    """Quantise a complex array to Q1.15; returns ``(re, im)`` lane arrays.

    Element ``k`` equals ``quantize(values[k])`` exactly (``np.rint`` and
    Python's ``round`` both round half to even), and a non-finite
    component raises ``ValueError`` as it does there.
    """
    values = np.asarray(values, dtype=complex)
    require_finite(values)
    re = np.clip(np.rint(values.real * _SCALE), _MIN, _MAX).astype(LANE_DTYPE)
    im = np.clip(np.rint(values.imag * _SCALE), _MIN, _MAX).astype(LANE_DTYPE)
    return re, im


def _round_shift_into(v: np.ndarray, bits: int, sign: np.ndarray) -> None:
    """Round ``v / 2**bits`` in place, ties away from zero.

    ``(v + half + (v >> width - 1)) >> bits`` with ``sign`` (same shape and
    dtype as ``v``) as scratch.  The sign is taken before ``half`` is
    added and ``half`` is added before the sign, so ``v = -2**31`` stays
    inside int32.
    """
    np.right_shift(v, v.dtype.itemsize * 8 - 1, out=sign)
    v += 1 << (bits - 1)
    v += sign
    v >>= bits


def round_shift_array(v: np.ndarray, bits: int) -> np.ndarray:
    """Array form of :func:`_round_shift` (ties away from zero).

    Element-wise equal to the scalar form wherever ``v + 2**(bits - 1)``
    fits ``v``'s dtype: in int32, every value a Q1.15 product or sum
    reaches.  Shares its rounding with the butterfly kernel.
    """
    if bits <= 0:
        return v << (-bits)
    out = np.array(v)
    _round_shift_into(out, bits, np.empty_like(out))
    return out


def fixed_to_complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Back-convert integer (re, im) arrays to float complex."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re / _SCALE
    out.imag = im / _SCALE
    return out


def words_to_fixed_array(words) -> tuple:
    """Unpack 32-bit memory words into Q1.15 ``(re, im)`` lane arrays.

    Element ``k`` equals ``FixedComplex.from_words(words[k] >> 16,
    words[k])`` exactly: 16-bit fields, sign-extended.
    """
    words = np.asarray(words, dtype=np.int64)
    re = ((words >> 16) & 0xFFFF).astype(LANE_DTYPE)
    im = (words & 0xFFFF).astype(LANE_DTYPE)
    re -= (re & 0x8000) << 1
    im -= (im & 0x8000) << 1
    return re, im


def fixed_to_words_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Pack Q1.15 components into 32-bit words (``FixedComplex.to_words``)."""
    return ((np.asarray(re, dtype=np.int64) & 0xFFFF) << 16) | (
        np.asarray(im, dtype=np.int64) & 0xFFFF
    )


def _lanes(*operands) -> tuple:
    """``(dtype, shape)`` a kernel evaluates ``operands`` in: their common
    integer dtype (at least the lane format) and broadcast shape."""
    return (np.result_type(*operands, LANE_DTYPE),
            np.broadcast(*operands).shape)


class FixedPointContext:
    """Arithmetic context implementing the BU datapath in Q1.15.

    Parameters
    ----------
    scale_stages:
        When True (default), each butterfly halves its outputs, matching
        the standard hardware policy of one guard shift per stage; the
        final spectrum is then ``FFT(x) / N`` exactly in the absence of
        rounding.
    """

    def __init__(self, scale_stages: bool = True):
        self.scale_stages = scale_stages
        self.overflow_count = 0

    def multiply(self, x: FixedComplex, w: FixedComplex) -> FixedComplex:
        """Complex multiply with 30->15 bit rounding per component."""
        rr = x.re * w.re - x.im * w.im
        ii = x.re * w.im + x.im * w.re
        return FixedComplex(
            self._narrow(_round_shift(rr, _FRAC_BITS)),
            self._narrow(_round_shift(ii, _FRAC_BITS)),
        )

    def add(self, x: FixedComplex, y: FixedComplex) -> FixedComplex:
        """Saturating add, optionally pre-scaled by 1/2."""
        return self._combine(x.re + y.re, x.im + y.im)

    def sub(self, x: FixedComplex, y: FixedComplex) -> FixedComplex:
        """Saturating subtract, optionally pre-scaled by 1/2."""
        return self._combine(x.re - y.re, x.im - y.im)

    def butterfly(self, a: FixedComplex, b: FixedComplex,
                  w: FixedComplex) -> tuple:
        """Radix-2 butterfly on fixed-point operands."""
        t = self.multiply(b, w)
        return self.add(a, t), self.sub(a, t)

    def _combine(self, re: int, im: int) -> FixedComplex:
        if self.scale_stages:
            re = _round_shift(re, 1)
            im = _round_shift(im, 1)
        return FixedComplex(self._narrow(re), self._narrow(im))

    def _narrow(self, v: int) -> int:
        if v > _MAX or v < _MIN:
            self.overflow_count += 1
        return _saturate(v)

    # Vectorised datapath -------------------------------------------------
    #
    # Array counterparts of multiply/butterfly over (re, im) component
    # arrays, run as one fused kernel in the operands' integer dtype.  In
    # int32 lanes every step is exact (DESIGN.md, "Q1.15 lanes").  Overflow
    # accounting is element-wise and lands on the same ``overflow_count``
    # the scalar path uses, with identical totals for identical inputs.

    def _saturate(self, v: np.ndarray, lo: int = _MIN, hi: int = _MAX) -> None:
        """Clip ``v`` in place to ``[lo, hi]``, counting every clipped
        element; two reductions decide whether anything is out of range."""
        if v.size and (v.max() > hi or v.min() < lo):
            self.overflow_count += int(np.count_nonzero(v > hi)
                                       + np.count_nonzero(v < lo))
            np.clip(v, lo, hi, out=v)

    def _product(self, t, scratch, xr, xi, wr, wi) -> None:
        """``(Re, -Im)`` of ``x * w`` into the rows of ``t``, rounded from
        30 to 15 fraction bits and saturated; ``scratch`` is a block of
        ``t``'s shape.

        ``Im = xr*wi + xi*wr`` reaches ``2**31`` when all four are
        ``-2**15``, one past int32, while ``-Im = xi*(-wr) - xr*wi`` stays
        in ``[-2**31, 2**31 - 2**16]``.  Saturating ``-Im`` to
        ``[-_MAX, -_MIN]`` counts the overflows saturating ``Im`` would.
        """
        np.multiply(xr, wr, out=t[0])
        t[0] -= np.multiply(xi, wi, out=scratch[0])
        np.multiply(xi, -wr, out=t[1])
        t[1] -= np.multiply(xr, wi, out=scratch[0])
        _round_shift_into(t, _FRAC_BITS, scratch)
        self._saturate(t[0])
        self._saturate(t[1], -_MAX, -_MIN)

    def multiply_arrays(self, xr, xi, wr, wi) -> tuple:
        """Element-wise complex multiply with 30->15 bit rounding."""
        dtype, shape = _lanes(xr, xi, wr, wi)
        t = np.empty((2,) + shape, dtype)
        self._product(t, np.empty_like(t), xr, xi, wr, wi)
        np.negative(t[1], out=t[1])
        return t[0], t[1]

    def butterfly_arrays(self, ar, ai, br, bi, wr, wi) -> tuple:
        """Whole-column radix-2 butterfly; returns (sr, si, dr, di).

        One fused kernel: the rounded, saturated product ``t = b * w``,
        then ``a + t`` and ``a - t`` as one block, halved with rounding
        when ``scale_stages`` is set and saturated.
        """
        dtype, shape = _lanes(ar, ai, br, bi, wr, wi)
        work = np.empty((4,) + shape, dtype)
        t = work[:2]
        self._product(t, work[2:], br, bi, wr, wi)
        tr, nti = t
        out = np.empty_like(work)
        np.add(ar, tr, out=out[0])
        np.subtract(ai, nti, out=out[1])
        np.subtract(ar, tr, out=out[2])
        np.add(ai, nti, out=out[3])
        if self.scale_stages:
            _round_shift_into(out, 1, work)
        self._saturate(out)
        sr, si, dr, di = out
        return sr, si, dr, di

    # Vector helpers -----------------------------------------------------

    def quantize_vector(self, x) -> list:
        """Quantise a complex vector to a list of :class:`FixedComplex`."""
        return [quantize(complex(v)) for v in np.asarray(x, dtype=complex)]

    def to_complex_vector(self, values) -> np.ndarray:
        """Convert :class:`FixedComplex` values back to a numpy vector."""
        return np.array([v.to_complex() for v in values], dtype=complex)


def snr_db(reference, measured) -> float:
    """Signal-to-noise ratio (dB) of ``measured`` against ``reference``."""
    reference = np.asarray(reference, dtype=complex)
    measured = np.asarray(measured, dtype=complex)
    noise = np.sum(np.abs(reference - measured) ** 2)
    signal = np.sum(np.abs(reference) ** 2)
    if noise == 0:
        return float("inf")
    if signal == 0:
        return float("-inf")
    return float(10.0 * np.log10(signal / noise))
