"""Convolutional encoding: the K=7 (133, 171) industry-standard code.

The code every OFDM standard the paper targets (802.11a, 802.16 WiMAX,
DVB-T) puts in front of the FFT is the rate-1/2, constraint-length-7
convolutional code with generator polynomials (133, 171) in octal,
punctured up to rates 2/3 and 3/4.  :class:`ConvolutionalCode` holds the
trellis (states, branch outputs, predecessor tables — everything the
Viterbi decoder needs) and two encoder datapaths mirroring the
oracle/compiled split in :mod:`repro.core`:

* :meth:`ConvolutionalCode.encode_reference` — the readable per-step
  shift-register walk, kept as the correctness oracle;
* :meth:`ConvolutionalCode.encode` — the vectorised path: each generator
  tap becomes one shifted-column XOR over the whole (batched) bit
  matrix, bit-identical to the oracle.

:class:`PuncturedCode` wraps a base code with a puncture pattern and
owns the **block geometry**: given an OFDM symbol's coded-bit capacity
it computes how many information bits fit (terminated with ``K - 1``
tail zeros), how many punctured coded bits come out, and how many zero
pad bits fill the remaining subcarrier positions.

The module also keeps the **code registry** — named codes reachable
from pipelines, scenarios and links — raising
:class:`~repro.core.registry.UnknownNameError` with the registered menu
on failed lookups, exactly like the backend/stage/scenario registries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.registry import Registry, UnknownNameError

__all__ = [
    "PUNCTURE_PATTERNS",
    "BlockGeometry",
    "ConvolutionalCode",
    "PuncturedCode",
    "register_code",
    "unregister_code",
    "get_code",
    "code_names",
    "code_specs",
    "resolve_code",
]

#: puncture patterns per rate: one ``(keep_y0, keep_y1)`` row per trellis
#: step of the puncturing period (the 802.11a / DVB-T conventions —
#: rate 2/3 transmits ``a0 b0 a1``, rate 3/4 transmits ``a0 b0 b1 a2``).
PUNCTURE_PATTERNS = {
    "1/2": ((1, 1),),
    "2/3": ((1, 1), (1, 0)),
    "3/4": ((1, 1), (0, 1), (1, 0)),
}


@dataclass(frozen=True)
class BlockGeometry:
    """How one terminated code block fills a coded-bit capacity.

    ``capacity`` coded positions hold ``coded_bits`` punctured encoder
    outputs (``steps`` trellis steps: ``info_bits`` payload bits plus
    the ``K - 1`` terminating tail zeros) followed by ``pad_bits``
    zero-fill positions that keep the OFDM grid full.
    """

    capacity: int
    info_bits: int
    steps: int
    coded_bits: int
    pad_bits: int


class ConvolutionalCode:
    """A rate-1/n binary convolutional code with its full trellis.

    Parameters
    ----------
    name:
        Registry key.
    polynomials:
        Generator polynomials as integers (write them in octal:
        ``(0o133, 0o171)``); bit ``K-1`` taps the current input bit,
        bit 0 the oldest delay element.
    """

    def __init__(self, name: str, polynomials):
        self.name = name
        self.polynomials = tuple(int(p) for p in polynomials)
        if len(self.polynomials) < 2:
            raise ValueError("a convolutional code needs >= 2 generators")
        self.constraint_length = max(p.bit_length() for p in self.polynomials)
        if self.constraint_length < 2:
            raise ValueError("constraint length must be >= 2")
        self.memory = self.constraint_length - 1
        self.n_outputs = len(self.polynomials)
        self.n_states = 1 << self.memory
        self._build_trellis()

    def _build_trellis(self) -> None:
        """Tabulate branch outputs and predecessors for the trellis.

        State ``s`` holds the ``memory`` most recent input bits, newest
        at the MSB; feeding bit ``u`` forms ``full = (u << memory) | s``
        whose parity against each generator is that branch's output, and
        the next state drops the oldest bit: ``full >> 1``.
        """
        m, s_count = self.memory, self.n_states
        full = (np.arange(2)[:, None] << m) | np.arange(s_count)[None, :]
        self.next_states = (full >> 1).T          # (states, input)
        outs = np.empty((s_count, 2, self.n_outputs), dtype=np.uint8)
        for j, poly in enumerate(self.polynomials):
            masked = full & poly
            bits = np.zeros_like(masked)
            for b in range(self.constraint_length):
                bits ^= (masked >> b) & 1
            outs[:, :, j] = bits.T
        self.outputs = outs                        # (states, input, n)
        # Decoder view: new state's MSB *is* the input bit; the two
        # predecessors differ only in the bit the shift dropped.
        ns = np.arange(s_count)
        mask = s_count - 1
        self.prev_states = np.stack(
            [((ns << 1) & mask) | x for x in (0, 1)], axis=1
        )                                          # (states, 2)
        self.input_bits = (ns >> (m - 1)).astype(np.uint8)
        self.branch_outputs = self.outputs[
            self.prev_states, self.input_bits[:, None]
        ]                                          # (states, 2, n)

    def __repr__(self) -> str:
        polys = ",".join(oct(p) for p in self.polynomials)
        return (f"ConvolutionalCode({self.name}: K={self.constraint_length},"
                f" g=({polys}))")

    # Encoding ------------------------------------------------------------

    def encode(self, bits) -> np.ndarray:
        """Encode (terminated) information bits; vectorised datapath.

        ``bits`` is ``(L,)`` or a ``(..., L)`` batch; each block gets
        ``memory`` tail zeros, so the encoder always ends in state 0.
        Returns the unpunctured output as ``(..., L + memory,
        n_outputs)`` per-step bit groups.  Each generator tap is one
        shifted-column XOR over the whole batch — bit-identical to
        :meth:`encode_reference` (asserted in ``tests/test_coding.py``).
        """
        u = np.asarray(bits, dtype=np.uint8) & 1
        steps = u.shape[-1] + self.memory
        tail = np.zeros(u.shape[:-1] + (self.memory,), dtype=np.uint8)
        x = np.concatenate([tail, u, tail], axis=-1)  # m-zero history + tail
        out = np.zeros(u.shape[:-1] + (steps, self.n_outputs),
                       dtype=np.uint8)
        for j, poly in enumerate(self.polynomials):
            acc = out[..., j]
            for i in range(self.constraint_length):
                if (poly >> (self.constraint_length - 1 - i)) & 1:
                    acc ^= x[..., self.memory - i:self.memory - i + steps]
        return out

    def encode_reference(self, bits) -> np.ndarray:
        """The per-step shift-register oracle (one block at a time)."""
        u = np.asarray(bits, dtype=np.uint8) & 1
        if u.ndim != 1:
            return np.stack(
                [self.encode_reference(row) for row in u.reshape(-1, u.shape[-1])]
            ).reshape(u.shape[:-1] + (u.shape[-1] + self.memory,
                                      self.n_outputs))
        state = 0
        out = np.empty((len(u) + self.memory, self.n_outputs),
                       dtype=np.uint8)
        for t, bit in enumerate(list(u) + [0] * self.memory):
            out[t] = self.outputs[state, bit]
            state = self.next_states[state, bit]
        assert state == 0  # termination drove the register home
        return out

    def punctured(self, rate: str = "1/2") -> "PuncturedCode":
        """This code behind the named puncture pattern."""
        return PuncturedCode(self, rate)


class PuncturedCode:
    """A convolutional code behind a standard puncture pattern.

    Exposes the whole block datapath the coded OFDM chain needs:
    :meth:`block_geometry` (how many info bits fill a coded capacity),
    :meth:`encode` (terminated, punctured, zero-padded to capacity),
    :meth:`depuncture` (LLRs back onto the full trellis grid — punctured
    positions carry LLR 0, i.e. "no information"), and :meth:`decode`
    (the Viterbi datapaths, see :mod:`repro.coding.viterbi`).
    """

    def __init__(self, base: ConvolutionalCode, rate: str = "1/2"):
        pattern = PUNCTURE_PATTERNS.get(rate)
        if pattern is None:
            raise UnknownNameError(
                f"unknown puncture rate {rate!r}; supported rates: "
                f"{', '.join(sorted(PUNCTURE_PATTERNS))}"
            )
        self.base = base
        self.rate = rate
        self.pattern = np.asarray(pattern, dtype=bool)
        self.period_steps = len(self.pattern)
        self.kept_per_period = int(self.pattern.sum())
        self._decoder = None

    @property
    def name(self) -> str:
        """Registry-style name, e.g. ``conv-k7 r3/4``."""
        return f"{self.base.name} r{self.rate}"

    def __repr__(self) -> str:
        return f"PuncturedCode({self.name})"

    def step_mask(self, steps: int) -> np.ndarray:
        """Boolean keep-mask over ``steps`` trellis steps, ``(steps, n)``."""
        reps = -(-steps // self.period_steps)
        return np.tile(self.pattern, (reps, 1))[:steps]

    def coded_length(self, steps: int) -> int:
        """Punctured output bits produced by ``steps`` trellis steps."""
        full, part = divmod(steps, self.period_steps)
        return (full * self.kept_per_period
                + int(self.pattern[:part].sum()))

    def block_geometry(self, capacity: int) -> BlockGeometry:
        """Fit one terminated block into ``capacity`` coded positions."""
        memory = self.base.memory
        # coded_length is monotone in steps; land near the answer and walk.
        steps = max(
            (capacity * self.period_steps) // self.kept_per_period
            + self.period_steps,
            memory + 1,
        )
        while steps > memory + 1 and self.coded_length(steps) > capacity:
            steps -= 1
        info = steps - memory
        coded = self.coded_length(steps)
        if info < 1 or coded > capacity:
            raise ValueError(
                f"capacity {capacity} too small for one terminated "
                f"{self.name} block (needs >= "
                f"{self.coded_length(memory + 2)} coded bits)"
            )
        return BlockGeometry(
            capacity=capacity, info_bits=info, steps=steps,
            coded_bits=coded, pad_bits=capacity - coded,
        )

    # Block datapath ------------------------------------------------------

    def encode(self, bits, capacity: int = None) -> np.ndarray:
        """Terminated + punctured encode of ``(..., L)`` info bits.

        Returns ``(..., coded_bits)`` punctured bits, or — when
        ``capacity`` is given — ``(..., capacity)`` with zero pad bits
        appended (the coded OFDM symbol payload).
        """
        u = np.asarray(bits, dtype=np.uint8) & 1
        steps = u.shape[-1] + self.base.memory
        grouped = self.base.encode(u)
        coded = grouped[..., self.step_mask(steps)]
        if capacity is None:
            return coded
        pad = capacity - coded.shape[-1]
        if pad < 0:
            raise ValueError(
                f"{coded.shape[-1]} coded bits exceed capacity {capacity}"
            )
        width = [(0, 0)] * (coded.ndim - 1) + [(0, pad)]
        return np.pad(coded, width)

    def depuncture(self, llrs) -> np.ndarray:
        """Spread ``(..., coded_bits)`` LLRs onto the ``(..., steps, n)``
        trellis grid; punctured positions get LLR 0 (no information)."""
        llrs = np.asarray(llrs, dtype=np.float64)
        coded = llrs.shape[-1]
        # coded_length is monotone in steps; land one period short of the
        # answer and walk up (at most two periods).
        steps = max(
            (coded * self.period_steps) // self.kept_per_period
            - self.period_steps,
            self.base.memory + 1,
        )
        while self.coded_length(steps) < coded:
            steps += 1
        if self.coded_length(steps) != coded:
            raise ValueError(
                f"{coded} LLRs do not align with rate {self.rate} "
                f"puncturing (nearest block: {self.coded_length(steps)})"
            )
        grid = np.zeros(llrs.shape[:-1] + (steps, self.base.n_outputs))
        grid[..., self.step_mask(steps)] = llrs
        return grid

    def decode(self, llrs, reference: bool = False) -> np.ndarray:
        """Viterbi-decode ``(..., coded_bits)`` punctured LLRs.

        ``reference=True`` routes through the per-step oracle decoder;
        the default vectorised trellis is bit-identical to it.
        Returns the ``(..., info_bits)`` decoded payload (tail dropped).
        """
        from .viterbi import ViterbiDecoder

        if self._decoder is None:
            self._decoder = ViterbiDecoder(self.base)
        grid = self.depuncture(llrs)
        if reference:
            return self._decoder.decode_reference(grid)
        return self._decoder.decode(grid)


# Code registry -----------------------------------------------------------

def _check_code(name: str, code) -> None:
    if not isinstance(code, ConvolutionalCode):
        raise TypeError(
            f"expected a ConvolutionalCode, got {type(code).__name__}"
        )


_CODES = Registry("code", _check_code)


def register_code(code: ConvolutionalCode, replace: bool = False) -> None:
    """Register ``code`` under ``code.name`` (loud on duplicates)."""
    _CODES.register(code, replace=replace)


unregister_code = _CODES.unregister
get_code = _CODES.get
code_names = _CODES.names
code_specs = _CODES.specs


def resolve_code(code, rate: str = "1/2"):
    """Normalise a code designator to a :class:`PuncturedCode`.

    Accepts ``None`` (returns None), a registered name, a
    :class:`ConvolutionalCode` (punctured at ``rate``) or a ready
    :class:`PuncturedCode` (returned as-is; ``rate`` ignored).
    """
    if code is None:
        return None
    if isinstance(code, PuncturedCode):
        return code
    if isinstance(code, ConvolutionalCode):
        return code.punctured(rate)
    return get_code(code).punctured(rate)


for _code in (
    ConvolutionalCode("conv-k7", (0o133, 0o171)),
    ConvolutionalCode("conv-k3", (0o5, 0o7)),
):
    register_code(_code, replace=True)
