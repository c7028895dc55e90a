"""Soft-decision demapping: per-bit LLRs from equalised subcarriers.

A hard-decision demapper throws away exactly the information the
Viterbi decoder feeds on, so the coded receive chain replaces it with a
**max-log LLR** demapper: for every transmitted bit, the squared
distance from the received point to the nearest constellation point
carrying that bit as 0 versus as 1.

**Sign convention** (shared with :mod:`repro.coding.viterbi`, recorded
in DESIGN.md): ``llr = d1 - d0``, so **positive LLR means bit 0 is more
likely** and ``llr < 0`` is the hard decision for bit 1.  With Gray
mapping the sign of a max-log LLR always agrees with nearest-point hard
demapping, which is what makes the chain's "uncoded BER" readable
straight off the LLR signs.  LLR magnitudes are in squared-distance
units; pass ``noise_var`` to scale onto the true log-likelihood grid
(``(d1 - d0) / noise_var`` — an affine scale the Viterbi decision is
invariant to, so the chain leaves it off by default).

**Oracle twin.**  :meth:`SoftDemapper.llrs_reference` is the readable
form: squared distances along a trailing points axis and, per bit, a
minimum over each subset with the other subset masked to ``inf``.
:meth:`SoftDemapper.llrs` lays the same ``np.abs(z - p) ** 2`` values
out points-major and reduces each subset along the leading axis through
precomputed index arrays.  A minimum does not depend on the order of
its operands, and both take the same NaN and ``inf`` values, so the two
are bit-identical, NaN and sign bits included, and raise the same
floating-point warnings.

The **demapper registry** mirrors the other registries — one entry per
constellation scheme, :class:`~repro.core.registry.UnknownNameError`
with the menu on failed lookups.  BPSK/QPSK/16-QAM are built in;
:class:`SoftDemapper` itself is generic over any
:class:`~repro.ofdm.modulation.Constellation`, so registering a new
scheme is one line.
"""

from __future__ import annotations

import numpy as np

from ..core.registry import Registry
from ..ofdm.modulation import CONSTELLATIONS, Constellation

__all__ = [
    "SoftDemapper",
    "register_demapper",
    "unregister_demapper",
    "get_demapper",
    "demapper_names",
    "demapper_specs",
]


class SoftDemapper:
    """Max-log per-bit LLRs for one Gray-mapped constellation."""

    def __init__(self, constellation: Constellation):
        self.constellation = constellation
        self.bits_per_symbol = constellation.bits_per_symbol
        points = constellation.points
        width = self.bits_per_symbol
        indices = np.arange(len(points))
        # (bits_per_symbol, n_points) masks: bit k of the point index,
        # MSB first — the same bit order Constellation.map_bits consumes.
        self._bit_is_one = np.stack([
            ((indices >> (width - 1 - k)) & 1).astype(bool)
            for k in range(width)
        ])
        # Per bit, the indices of the points carrying it as 0 and as 1.
        self._subsets = [(np.flatnonzero(~ones), np.flatnonzero(ones))
                         for ones in self._bit_is_one]
        self._points = points

    def __repr__(self) -> str:
        return f"SoftDemapper({self.constellation.name})"

    def llrs(self, symbols, noise_var: float = None) -> np.ndarray:
        """LLRs for ``(..., N)`` equalised symbols -> ``(..., N * w)``.

        The output bit order matches the mapper's input bit order, so
        ``llrs(map_bits(bits)) < 0`` recovers ``bits`` exactly in the
        noiseless case.  The whole batch demaps in one vectorised pass,
        bit-identical to :meth:`llrs_reference`.
        """
        symbols = np.asarray(symbols, dtype=complex)
        # (points, ..., N) squared distances, then per bit one reduction
        # over each point subset along the leading axis.
        points = self._points.reshape((-1,) + (1,) * symbols.ndim)
        dist = np.abs(symbols - points) ** 2
        llr = np.empty(symbols.shape + (self.bits_per_symbol,))
        for k, (zeros, ones) in enumerate(self._subsets):
            d0 = np.minimum.reduce(dist.take(zeros, axis=0), axis=0)
            d1 = np.minimum.reduce(dist.take(ones, axis=0), axis=0)
            llr[..., k] = d1 - d0
        out = llr.reshape(symbols.shape[:-1] + (-1,))
        if noise_var is not None:
            out = out / float(noise_var)
        return out

    def llrs_reference(self, symbols, noise_var: float = None) -> np.ndarray:
        """The masked per-bit minimum over a trailing points axis: the
        readable oracle :meth:`llrs` must equal bit for bit."""
        symbols = np.asarray(symbols, dtype=complex)
        # (..., N, points) squared distances, then per-bit min over the
        # bit-0 / bit-1 point subsets.
        dist = np.abs(symbols[..., None] - self._points) ** 2
        llr = np.empty(symbols.shape + (self.bits_per_symbol,))
        for k, ones in enumerate(self._bit_is_one):
            d0 = np.min(np.where(ones, np.inf, dist), axis=-1)
            d1 = np.min(np.where(ones, dist, np.inf), axis=-1)
            llr[..., k] = d1 - d0
        out = llr.reshape(symbols.shape[:-1] + (-1,))
        if noise_var is not None:
            out = out / float(noise_var)
        return out

    def hard_bits(self, llrs) -> np.ndarray:
        """Hard decisions from LLR signs (``llr < 0`` -> bit 1)."""
        return (np.asarray(llrs) < 0).astype(np.uint8)


# Demapper registry -------------------------------------------------------

def _check_demapper(name: str, demapper) -> None:
    if not hasattr(demapper, "llrs"):
        raise TypeError(f"demapper for {name!r} has no llrs() method")


_DEMAPPERS = Registry("demapper", _check_demapper)


def register_demapper(name: str, demapper: SoftDemapper,
                      replace: bool = False) -> None:
    """Register ``demapper`` under ``name`` (loud on duplicates)."""
    _DEMAPPERS.register(demapper, name, replace)


unregister_demapper = _DEMAPPERS.unregister
get_demapper = _DEMAPPERS.get
demapper_names = _DEMAPPERS.names
demapper_specs = _DEMAPPERS.specs


for _scheme in ("bpsk", "qpsk", "16qam"):
    register_demapper(
        _scheme, SoftDemapper(CONSTELLATIONS[_scheme]), replace=True
    )
