"""Set-associative data cache with LRU replacement (SimpleScalar-style).

The paper simulates its cores with a modified SimpleScalar whose base PISA
configuration carries a 32 KB data cache; Table II reports data-cache miss
counts for each implementation.  This model reproduces the standard
``sim-cache`` behaviour: write-allocate, write-back, LRU, miss counting,
and a configurable miss penalty consumed by the timing model.

Addresses here are *word* addresses (32-bit words), so ``block_words`` is
the line size in words (8 words = 32 bytes, the SimpleScalar default).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheConfig", "DataCache"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry + timing of a data cache.

    The default models the paper's 32 KB cache: 128 sets x 4 ways x 8
    words x 4 bytes/word = 16 KB... adjusted to 256 sets for 32 KB.
    """

    sets: int = 256
    ways: int = 4
    block_words: int = 8
    hit_latency: int = 1
    miss_penalty: int = 18

    def __post_init__(self):
        for field_name in ("sets", "ways", "block_words"):
            v = getattr(self, field_name)
            if v <= 0 or (v & (v - 1)) != 0:
                raise ValueError(f"{field_name} must be a power of two, got {v}")

    @property
    def size_bytes(self) -> int:
        """Total capacity in bytes (4-byte words)."""
        return self.sets * self.ways * self.block_words * 4


class DataCache:
    """LRU set-associative cache tracking hit/miss counts.

    ``access`` returns the latency of the access and updates the counters;
    the machine adds the latency to the cycle count.  Tag state is kept as
    per-set ordered lists (most recent first) — simple and adequate for
    the simulation sizes involved.
    """

    #: Entries kept by the :meth:`replay` memo: enough for the cold,
    #: warming and fixed-point passes of a few recurring programs.
    REPLAY_MEMO_SIZE = 8

    def __init__(self, config: CacheConfig = None):
        self.config = config or CacheConfig()
        self._sets = [[] for _ in range(self.config.sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self._dirty = set()
        # (config, walk bytes, start state_key) -> (hits, misses,
        # writebacks, end state_key) of one pass; see replay.
        self._replay_memo = OrderedDict()

    def reset(self) -> None:
        """Flush contents and zero the counters."""
        self._sets = [[] for _ in range(self.config.sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self._dirty = set()

    def _locate(self, word_address: int) -> tuple:
        block = word_address // self.config.block_words
        index = block % self.config.sets
        tag = block // self.config.sets
        return index, tag, block

    def access(self, word_address: int, is_write: bool = False) -> int:
        """Simulate one access; returns its latency in cycles."""
        index, tag, block = self._locate(word_address)
        ways = self._sets[index]
        if ways and ways[0] == tag:
            # MRU fast path: back-to-back beats of one LDIN/STOUT hit the
            # same line; no list churn needed to keep it most-recent.
            self.hits += 1
            if is_write:
                self._dirty.add(block)
            return self.config.hit_latency
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            self.hits += 1
            if is_write:
                self._dirty.add(block)
            return self.config.hit_latency
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self.config.ways:
            victim_tag = ways.pop()
            victim_block = victim_tag * self.config.sets + index
            if victim_block in self._dirty:
                self._dirty.discard(victim_block)
                self.writebacks += 1
        if is_write:
            self._dirty.add(block)
        return self.config.hit_latency + self.config.miss_penalty

    def state_key(self) -> tuple:
        """Hashable fingerprint of the full tag/LRU/dirty state.

        Two caches with equal keys respond identically to any future
        access sequence — the fixed-point test :meth:`replay` uses to
        extrapolate per-pass hit/miss counts exactly.
        """
        return (
            tuple(tuple(ways) for ways in self._sets),
            frozenset(self._dirty),
        )

    def restore(self, key: tuple) -> None:
        """Load the tag/LRU/dirty state captured by :meth:`state_key`."""
        sets, dirty = key
        self._sets = [list(ways) for ways in sets]
        self._dirty = set(dirty)

    def replay(self, walk: np.ndarray, repeats: int) -> tuple:
        """Account ``repeats`` back-to-back passes of an access walk.

        ``walk`` encodes one pass in order as ``word_address << 1 |
        is_write``.  Returns the ``(hits, misses)`` of all passes and
        leaves the cache exactly as that many :meth:`access` sweeps
        would.  Each pass is looked up in a small memo keyed by (config,
        walk, start :meth:`state_key`) that stores the pass's counts and
        end state; once a pass ends where it started, the remaining
        passes repeat it and are retired arithmetically.  A warm cache
        therefore replays a recurring walk without a single
        :meth:`access` call.
        """
        memo = self._replay_memo
        walk_key = walk.tobytes()
        total_hits = total_misses = 0
        remaining = repeats
        while remaining > 0:
            start = self.state_key()
            memo_key = (self.config, walk_key, start)
            entry = memo.get(memo_key)
            if entry is None:
                entry = memo[memo_key] = self._sweep(walk)
                if len(memo) > self.REPLAY_MEMO_SIZE:
                    memo.popitem(last=False)
            else:
                memo.move_to_end(memo_key)
                self.restore(entry[3])
                self.hits += entry[0]
                self.misses += entry[1]
                self.writebacks += entry[2]
            hits, misses, writebacks, end = entry
            passes = remaining if end == start else 1
            if passes > 1:
                self.hits += hits * (passes - 1)
                self.misses += misses * (passes - 1)
                self.writebacks += writebacks * (passes - 1)
            total_hits += hits * passes
            total_misses += misses * passes
            remaining -= passes
        return total_hits, total_misses

    def _sweep(self, walk: np.ndarray) -> tuple:
        """One pass of ``walk`` through :meth:`access`; returns its
        ``(hits, misses, writebacks, end state_key)``."""
        hits, misses, writebacks = self.hits, self.misses, self.writebacks
        access = self.access
        for word in walk.tolist():
            access(word >> 1, word & 1)
        return (self.hits - hits, self.misses - misses,
                self.writebacks - writebacks, self.state_key())

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss rate over all accesses."""
        return self.misses / self.accesses if self.accesses else 0.0

