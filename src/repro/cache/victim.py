"""Fully-associative victim cache (Jouppi 1990; paper Section III-A).

The victim cache holds blocks recently evicted from its parent L1.  On an L1
miss that hits in the victim cache, the block is moved back into the L1 and
the L1's evictee takes its place (the classic swap).  The paper argues this
is *especially* effective for a block-disabled cache: fault-thinned sets
concentrate replacements, giving the victim cache temporal locality to
exploit, and it acts "as a fail-safe mechanism for the few sets in the cache
that have few valid blocks".

Two low-voltage sizings from Section V:

* **10T victim cache** — all 16 entries usable at low voltage (twice the
  area per cell);
* **6T victim cache + 10T disable bits** — the paper conservatively assumes
  half the entries (8) are faulty at low voltage.
"""

from __future__ import annotations

from repro.cache.stats import CacheStats


class VictimCache:
    """A small fully-associative LRU cache over block addresses."""

    def __init__(self, entries: int, name: str = "victim") -> None:
        if entries < 0:
            raise ValueError(f"entries must be non-negative, got {entries}")
        self.entries = entries
        self.name = name
        self.stats = CacheStats()
        self._tags: list[int] = []  # index 0 = LRU, tail = MRU

    @property
    def occupancy(self) -> int:
        return len(self._tags)

    def lookup(self, block_addr: int) -> bool:
        """Probe for ``block_addr`` on an L1 miss.

        A hit *removes* the block (the swap): it is about to move back
        into the L1.
        """
        self.stats.accesses += 1
        if block_addr in self._tags:
            self._tags.remove(block_addr)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, block_addr: int) -> int | None:
        """Add an L1 evictee; returns the block pushed out, if any."""
        if self.entries == 0:
            return None
        evicted = None
        if block_addr in self._tags:
            self._tags.remove(block_addr)
        elif len(self._tags) >= self.entries:
            evicted = self._tags.pop(0)
            self.stats.evictions += 1
        self._tags.append(block_addr)
        self.stats.fills += 1
        return evicted

    def contains(self, block_addr: int) -> bool:
        """Non-mutating probe (no stats)."""
        return block_addr in self._tags
