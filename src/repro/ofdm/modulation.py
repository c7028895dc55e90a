"""Subcarrier constellation mapping for the OFDM substrate.

The paper motivates the ASIP with OFDM systems (MB-UWB, WiMAX); the
pipeline stages (:mod:`repro.pipelines.stages`) wrap these mappers and
the channel models around the FFT so the ASIP runs inside a realistic
signal chain.
Gray-coded BPSK/QPSK/16-QAM/64-QAM mappers with unit average power, plus
hard-decision demappers: a per-axis slicer and its argmin oracle twin
(DESIGN.md, "Hard-decision slicer").
"""

from __future__ import annotations

import numpy as np

__all__ = ["Constellation", "CONSTELLATIONS", "binary_bits"]

#: The slicer defers a symbol to the oracle when a component lies within
#: ``(_BAND_ROOT * (1 + |z| + R))**2 = 2**-30 * (1 + |z| + R)**2`` of a
#: decision threshold (R: the constellation radius).  Outside that band
#: the oracle's rounded distances provably keep the slicer's nearest
#: point strictly first (DESIGN.md, "Hard-decision slicer").
_BAND_ROOT = 2.0 ** -15


def binary_bits(bits) -> np.ndarray:
    """``bits`` as an ``int64`` array; ``ValueError`` unless each is 0 or 1."""
    bits = np.asarray(bits, dtype=np.int64)
    # One pass, no temporary: OR-ing the unsigned views sets a bit above
    # bit 0 for any value outside {0, 1} (negative ints wrap high).
    if np.bitwise_or.reduce(bits.view(np.uint64), axis=None) > 1:
        raise ValueError("bits must be 0 or 1")
    return bits


def _gray_levels(bits_per_axis: int) -> np.ndarray:
    """Gray-ordered odd-integer PAM levels for one I/Q axis."""
    count = 1 << bits_per_axis
    levels = np.arange(count)
    gray = levels ^ (levels >> 1)
    amplitude = 2 * levels - (count - 1)
    out = np.empty(count)
    out[gray] = amplitude
    return out


class Constellation:
    """A square Gray-mapped QAM constellation with unit average power.

    Point index ``k`` carries its bits MSB first.  Its high bits code the
    in-phase level and its low ``m`` bits the quadrature level, so
    ``k = (i_code << m) | q_code``; BPSK is the case ``m = 0``, one
    quadrature level and no quadrature threshold.
    """

    def __init__(self, name: str, bits_per_symbol: int):
        if bits_per_symbol < 1 or bits_per_symbol > 8:
            raise ValueError("bits per symbol must be in [1, 8]")
        self.name = name
        self.bits_per_symbol = bits_per_symbol
        if bits_per_symbol == 1:  # BPSK on the real axis
            points = np.array([1.0 + 0j, -1.0 + 0j])
        else:
            if bits_per_symbol % 2:
                raise ValueError(
                    "square QAM needs an even number of bits per symbol"
                )
            per_axis = bits_per_symbol // 2
            axis = _gray_levels(per_axis)
            points = (
                axis[:, None] + 1j * axis[None, :]
            ).reshape(-1)
            # index = (i_bits << per_axis) | q_bits
        self.points = points / np.sqrt(np.mean(np.abs(points) ** 2))
        self._shifts = np.arange(bits_per_symbol - 1, -1, -1)
        self._build_slicer()

    def _build_slicer(self) -> None:
        """Per-axis decision tables derived from ``self.points``."""
        points = self.points
        # Sorted distinct levels per axis (``np.unique`` would import
        # ``numpy.ma``, about 1 MB, into every process that imports repro).
        levels = tuple(np.array(sorted(set(axis.tolist())))
                       for axis in (points.real, points.imag))
        q_bits = (len(levels[1]) - 1).bit_length()
        index = np.arange(len(points))
        i_level = np.searchsorted(levels[0], points.real)
        q_level = np.searchsorted(levels[1], points.imag)
        i_code = np.empty(len(levels[0]), dtype=np.intp)
        q_code = np.empty(len(levels[1]), dtype=np.intp)
        i_code[i_level] = index >> q_bits
        q_code[q_level] = index & ((1 << q_bits) - 1)
        assert len(levels[0]) * len(levels[1]) == len(points)
        assert np.array_equal((i_code[i_level] << q_bits) | q_code[q_level],
                              index)
        # Decision thresholds: the midpoints between adjacent levels.
        self._thresholds = tuple((lv[1:] + lv[:-1]) / 2 for lv in levels)
        grid = (i_code[:, None] << q_bits) | q_code[None, :]
        # Row i_level * len(levels[1]) + q_level: that point's bits.
        self._level_bits = (
            (grid.reshape(-1, 1) >> self._shifts) & 1
        ).astype(np.intp)
        self._band_offset = 1.0 + float(np.abs(points).max())

    def map_bits(self, bits: np.ndarray) -> np.ndarray:
        """Map ``(..., P)`` bits to ``(..., P / bits_per_symbol)`` points.

        Each point takes ``bits_per_symbol`` consecutive bits, MSB first.
        ``P`` must be divisible by ``bits_per_symbol`` and every bit must
        be 0 or 1; leading axes (one row per OFDM symbol) map in one call.
        """
        bits = binary_bits(bits)
        width = self.bits_per_symbol
        if bits.shape[-1] % width:
            raise ValueError(
                f"bit count {bits.shape[-1]} not divisible by {width}"
            )
        groups = bits.reshape(bits.shape[:-1] + (-1, width))
        return self.points[groups @ (1 << self._shifts)]

    def unmap_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Hard-decision demap ``(..., N)`` symbols to ``(..., N * w)`` bits.

        A per-axis slicer: each component is compared with the midpoints
        between adjacent levels, and the level pair indexes a table of
        the nearest point's bits.  A symbol with a component within the
        exactness band of a threshold, or with a non-finite band, is
        decided by :meth:`unmap_symbols_reference` instead, so the bits
        (``np.intp``) always equal the oracle's.
        """
        symbols = np.asarray(symbols, dtype=complex)
        index, doubt = self._slice(symbols)
        bits = np.take(self._level_bits, index, axis=0)
        width = self.bits_per_symbol
        if doubt.any():
            bits[doubt] = self.unmap_symbols_reference(
                symbols[doubt]).reshape(-1, width)
        return bits.reshape(symbols.shape[:-1]
                            + (symbols.shape[-1] * width,))

    def _slice(self, symbols: np.ndarray) -> tuple:
        """``(index, doubt)`` per symbol: the row of ``_level_bits`` (mixed
        radix, I level first) and whether the oracle must decide.  The
        float temporaries die on return, before the bits are allocated."""
        index = np.zeros(symbols.shape, dtype=np.intp)
        # Huge, infinite and NaN symbols overflow or poison the band; they
        # are deferred to the oracle, so their warnings say nothing here.
        with np.errstate(over="ignore", invalid="ignore"):
            band = np.abs(symbols)
            band += self._band_offset
            band *= _BAND_ROOT
            band *= band
            doubt = ~np.isfinite(band)
            gap = np.empty_like(band)
            for part, thresholds in zip((symbols.real, symbols.imag),
                                        self._thresholds):
                if not len(thresholds):
                    continue
                index *= len(thresholds) + 1
                for threshold in thresholds:
                    np.abs(np.subtract(part, threshold, out=gap), out=gap)
                    doubt |= gap <= band
                    index += part > threshold
        return index, doubt

    def unmap_symbols_reference(self, symbols: np.ndarray) -> np.ndarray:
        """The oracle: nearest point by argmin over the distance matrix.

        Ties go to the lowest point index; NaN distances win (numpy's
        argmin).  Same shapes and dtype as :meth:`unmap_symbols`.
        """
        symbols = np.asarray(symbols, dtype=complex)
        distances = np.abs(symbols[..., None] - self.points)
        indices = np.argmin(distances, axis=-1)
        bits = (indices[..., None] >> self._shifts) & 1
        return bits.reshape(symbols.shape[:-1]
                            + (symbols.shape[-1] * self.bits_per_symbol,))


CONSTELLATIONS = {
    "bpsk": Constellation("bpsk", 1),
    "qpsk": Constellation("qpsk", 2),
    "16qam": Constellation("16qam", 4),
    "64qam": Constellation("64qam", 6),
}
