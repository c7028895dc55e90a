"""Bit interleaving for the coded OFDM chain.

A burst error — a faded subcarrier clobbering several adjacent coded
bits — is what convolutional codes handle worst, so every coded OFDM
standard interleaves the coded bits across the symbol before mapping.
An interleaver here is a fixed permutation of one OFDM symbol's coded
payload: :meth:`interleave` applies it to bits (or anything — LLRs come
back through :meth:`deinterleave` on the receive side), broadcasting
over leading batch axes, so a whole burst permutes as one fancy-index.

The **interleaver registry** mirrors the other registries: named
factories ``factory(n, **params)`` building an interleaver for an
``n``-bit payload, with :class:`~repro.core.registry.UnknownNameError`
listing the menu on failed lookups.
"""

from __future__ import annotations

import numpy as np

from ..core.registry import Registry

__all__ = [
    "BlockInterleaver",
    "IdentityInterleaver",
    "register_interleaver",
    "unregister_interleaver",
    "get_interleaver",
    "interleaver_names",
    "interleaver_specs",
    "build_interleaver",
    "resolve_interleaver",
]


class BlockInterleaver:
    """Row-in, column-out block interleaver over ``n`` positions.

    Bits are written row-wise into a ``depth x (n / depth)`` matrix and
    read column-wise, so bits adjacent in the code stream land
    ``n / depth`` subcarrier-bit positions apart on the air.
    """

    name = "block"

    def __init__(self, n: int, depth: int = 8):
        n, depth = int(n), int(depth)
        if depth < 1 or n % depth:
            raise ValueError(
                f"block interleaver depth {depth} must divide the "
                f"{n}-bit payload"
            )
        self.n = n
        self.depth = depth
        self.permutation = (
            np.arange(n).reshape(depth, n // depth).T.reshape(-1)
        )
        self._inverse = np.argsort(self.permutation)

    def __repr__(self) -> str:
        return f"BlockInterleaver(n={self.n}, depth={self.depth})"

    def interleave(self, values) -> np.ndarray:
        """Permute the last axis into air order."""
        values = np.asarray(values)
        if values.shape[-1] != self.n:
            raise ValueError(
                f"expected {self.n} positions, got {values.shape[-1]}"
            )
        return values[..., self.permutation]

    def deinterleave(self, values) -> np.ndarray:
        """Invert :meth:`interleave` on the last axis."""
        values = np.asarray(values)
        if values.shape[-1] != self.n:
            raise ValueError(
                f"expected {self.n} positions, got {values.shape[-1]}"
            )
        return values[..., self._inverse]


class IdentityInterleaver(BlockInterleaver):
    """The no-op permutation (coded chains without interleaving)."""

    name = "identity"

    def __init__(self, n: int):
        super().__init__(n, depth=1)

    def __repr__(self) -> str:
        return f"IdentityInterleaver(n={self.n})"


# Interleaver registry ----------------------------------------------------

def _check_interleaver(name: str, factory) -> None:
    if not callable(factory):
        raise TypeError(f"interleaver factory for {name!r} is not callable")


_INTERLEAVERS = Registry("interleaver", _check_interleaver)


def register_interleaver(name: str, factory, replace: bool = False) -> None:
    """Register ``factory(n, **params)`` under ``name``."""
    _INTERLEAVERS.register(factory, name, replace)


unregister_interleaver = _INTERLEAVERS.unregister
get_interleaver = _INTERLEAVERS.get
interleaver_names = _INTERLEAVERS.names
interleaver_specs = _INTERLEAVERS.specs


def build_interleaver(name: str, n: int, **params):
    """Build the named interleaver for an ``n``-position payload."""
    return get_interleaver(name)(n, **params)


def resolve_interleaver(spec, n: int):
    """Normalise an interleaver designator for an ``n``-bit payload.

    Accepts ``None`` (identity), a registered name, a ``(name, params)``
    pair, or a ready interleaver object (``interleave``/``deinterleave``
    methods; returned as-is after a size check when it has ``n``).
    """
    if spec is None:
        return IdentityInterleaver(n)
    if isinstance(spec, str):
        return build_interleaver(spec, n)
    if isinstance(spec, tuple) and len(spec) == 2 \
            and isinstance(spec[0], str):
        return build_interleaver(spec[0], n, **dict(spec[1]))
    if hasattr(spec, "interleave") and hasattr(spec, "deinterleave"):
        if getattr(spec, "n", n) != n:
            raise ValueError(
                f"interleaver {spec!r} is sized for {spec.n} positions, "
                f"payload has {n}"
            )
        return spec
    raise TypeError(
        f"interleaver designator {spec!r} is not a name, a "
        f"(name, params) pair, or an interleaver object"
    )


register_interleaver("block", BlockInterleaver, replace=True)
register_interleaver("identity", IdentityInterleaver, replace=True)
