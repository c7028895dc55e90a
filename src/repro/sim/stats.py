"""Simulation statistics: the counters Table I / Table II report."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

__all__ = ["SimStats"]


@dataclass
class SimStats:
    """Counters accumulated during one simulation run.

    ``cycles`` comes from the timing model (pipeline + cache penalties);
    ``loads``/``stores`` count *data memory* operations — LDIN/STOUT count
    once per instruction, like the lw/sw they replace (the paper's Table II
    counts instructions, not bus beats).
    """

    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    dcache_hits: int = 0
    dcache_misses: int = 0
    branches: int = 0
    taken_branches: int = 0
    stall_cycles: int = 0
    custom_ops: dict = field(default_factory=dict)

    def copy(self) -> "SimStats":
        """An independent snapshot (``custom_ops`` copied too)."""
        return replace(self, custom_ops=dict(self.custom_ops))

    def __add__(self, other: "SimStats") -> "SimStats":
        """Counter-wise sum, custom ops merged by mnemonic."""
        return self._combine(other, 1)

    def __sub__(self, other: "SimStats") -> "SimStats":
        """Counter-wise difference: what ``self`` retired since the
        snapshot ``other``.  Custom ops that did not move are left out."""
        return self._combine(other, -1)

    def _combine(self, other: "SimStats", sign: int) -> "SimStats":
        counters = {
            f.name: getattr(self, f.name) + sign * getattr(other, f.name)
            for f in fields(self) if f.name != "custom_ops"
        }
        ops = dict(self.custom_ops)
        for key, value in other.custom_ops.items():
            ops[key] = ops.get(key, 0) + sign * value
        return SimStats(**counters,
                        custom_ops={k: v for k, v in ops.items() if v})

    def count_custom(self, mnemonic: str) -> None:
        """Bump the per-custom-op counter."""
        self.custom_ops[mnemonic] = self.custom_ops.get(mnemonic, 0) + 1

    @property
    def memory_operations(self) -> int:
        """Total loads + stores."""
        return self.loads + self.stores

    @property
    def dcache_accesses(self) -> int:
        """Total data-cache accesses."""
        return self.dcache_hits + self.dcache_misses

    @property
    def miss_rate(self) -> float:
        """Data-cache miss rate (0 when the cache was never touched)."""
        accesses = self.dcache_accesses
        return self.dcache_misses / accesses if accesses else 0.0

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    def as_dict(self) -> dict:
        """Flat dictionary for table rendering."""
        out = {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "dcache_misses": self.dcache_misses,
            "dcache_hits": self.dcache_hits,
            "branches": self.branches,
            "stall_cycles": self.stall_cycles,
        }
        for k, v in sorted(self.custom_ops.items()):
            out[f"op_{k}"] = v
        return out
