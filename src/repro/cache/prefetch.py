"""Sequential (next-line) prefetching.

Section IV-B observes that shrinking the block size raises block-disabling
capacity at the cost of spatial locality, and suggests prefetching as the
mitigation.  This module provides the classic tagged next-line prefetcher:
on a demand miss (or a demand hit on a tagged block, see
:class:`NextLinePrefetcher`) it issues a fill for block ``b + 1`` into the
cache it is attached to.

Prefetch fills go through the normal allocation path, so they respect
disabled ways; a prefetch into a fully-disabled set is silently dropped,
just like any other fill.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.set_assoc import SetAssociativeCache


@dataclass
class PrefetchStats:
    issued: int = 0
    useful: int = 0

    @property
    def accuracy(self) -> float:
        if self.issued == 0:
            return 0.0
        return self.useful / self.issued


class NextLinePrefetcher:
    """Tagged next-line prefetcher attached to one cache.

    ``degree`` consecutive blocks are prefetched on each trigger.  Every
    block it prefetches is *tagged* (``_tagged``, a set of block
    addresses), and a demand hit on a tagged block counts as *useful*,
    removes the tag and chains the next prefetch.  Nothing else removes
    a tag: not the block's eviction, and not a fill bypassed at a
    fully-disabled set.  So a block prefetched, evicted unused and later
    brought back by a demand fill still counts useful on its first hit,
    and chains a prefetch, although the prefetch did not bring that copy
    in; the set keeps the tags of blocks that are no longer resident.
    """

    def __init__(self, cache: SetAssociativeCache, degree: int = 1) -> None:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.cache = cache
        self.degree = degree
        self.stats = PrefetchStats()
        self._tagged: set[int] = set()

    def on_demand_miss(self, block_addr: int) -> None:
        """Demand miss on ``block_addr``: prefetch its successors."""
        self._issue(block_addr)

    def on_demand_hit(self, block_addr: int) -> None:
        """Demand hit: if it hit a prefetched block, count it useful and
        chain the next prefetch (the 'tagged' policy)."""
        if block_addr in self._tagged:
            self._tagged.discard(block_addr)
            self.stats.useful += 1
            self._issue(block_addr)

    def _issue(self, block_addr: int) -> None:
        for i in range(1, self.degree + 1):
            target = block_addr + i
            if self.cache.contains(target):
                continue
            self.cache.fill(target)
            self._tagged.add(target)
            self.stats.issued += 1
