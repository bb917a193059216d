"""Behavioural set-associative cache with per-set disabled ways.

This is the substrate every disabling scheme runs on.  The cache itself
knows nothing about faults or voltage: it is configured with a boolean
*enabled-way* matrix (num_sets x ways) and simply never allocates into a
disabled way.  Block-disabling hands it a fault-derived matrix (variable
associativity per set, Section III); word-disabling hands it a halved
geometry with all ways enabled; the baseline enables everything.

Addresses are *block addresses* (byte address >> offset bits) — the
hierarchy layer does the shifting once so the hot loop stays cheap.

Replacement is LRU, the policy of every cache in Table II: a fill takes
the first invalid usable way of its set, else evicts the usable way
touched least recently (the first such way on a tie).  Nothing
invalidates a way once filled, so both choices are one first-minimum
over the usable ways' last-touch clocks.

State is stored **flat**: ``_tags``/``_last_touch`` are ``array('q')``
buffers and ``_dirty`` a ``bytearray``, each indexed ``set * ways +
way``, and an invalid way holds the sentinel tag -1 (block-address tags
are non-negative, so the sentinel can never alias a resident block).  A
way that is *disabled* also holds -1 forever: fills never select it, so
lookups need no usable-way filtering at all.

The lane kernel never reads or writes these caches: its set-major lane
arrays (:mod:`repro.cache.engine`) start empty, built from the schemes'
enabled-way matrices, so the two layouts need not match, and only the
object loop drives this class.  Typed buffers hold no Python objects, so
the cyclic garbage collector never walks cache state.
"""

from __future__ import annotations

from array import array
from itertools import compress

import numpy as np

from repro.cache.stats import CacheStats
from repro.faults.geometry import CacheGeometry


class SetAssociativeCache:
    """A set-associative cache over block addresses.

    Parameters
    ----------
    geometry:
        Shape of the cache (sets/ways/block size).
    enabled_ways:
        Optional boolean matrix ``(num_sets, ways)``; ``False`` marks a way
        that must never hold data (a disabled block).  ``None`` enables all.
    name:
        Label used in stats and error messages.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        enabled_ways: np.ndarray | None = None,
        name: str = "cache",
    ) -> None:
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        num_sets = geometry.num_sets
        ways = geometry.ways
        all_ways = tuple(range(ways))

        if enabled_ways is None:
            # The fully-enabled case (baseline, word-disable, every
            # high-voltage cache, the L2) skips the matrix entirely.
            self._enabled = None
            self._usable_ways: list[tuple[int, ...]] = [all_ways] * num_sets
        else:
            enabled_ways = np.asarray(enabled_ways, dtype=bool)
            if enabled_ways.shape != (num_sets, ways):
                raise ValueError(
                    f"enabled_ways shape {enabled_ways.shape} does not match "
                    f"({num_sets}, {ways})"
                )
            self._enabled = enabled_ways
            # Usable way indices per set, precomputed once (hot path reads
            # only; tuples are cheaper to iterate and can never be mutated
            # by a scheme).
            self._usable_ways = [
                tuple(compress(all_ways, row)) for row in enabled_ways.tolist()
            ]

        # Flat per-way state (see module docstring); -1 tags mark both
        # invalid and disabled ways, so the lookup probe needs no
        # validity or usability scan.
        n = num_sets * ways
        self._tags = array("q", [-1]) * n
        self._dirty = bytearray(n)
        self._last_touch = array("q", [0]) * n
        # Residency index: block address -> flat way index.  Kept exactly
        # in sync with ``_tags`` by fill, it turns the hit probe into a
        # single dict lookup (how fast software cache models index
        # residency) without touching any decision the per-set state
        # makes.
        self._resident: dict[int, int] = {}
        self._clock = 0

        self._ways = ways
        self._set_mask = num_sets - 1
        # tag of a block address = block_addr >> index_bits
        self._tag_shift = geometry.index_bits

    # ----- capacity/introspection --------------------------------------------------

    @property
    def usable_blocks(self) -> int:
        """Number of ways that may hold data (== capacity in blocks)."""
        if self._enabled is None:
            return self.geometry.num_blocks
        return int(self._enabled.sum())

    @property
    def capacity_fraction(self) -> float:
        return self.usable_blocks / self.geometry.num_blocks

    def usable_ways_in_set(self, set_index: int) -> int:
        return len(self._usable_ways[set_index])

    def resident_blocks(self) -> set[int]:
        """Block addresses currently cached (for invariant checks)."""
        return set(self._resident)

    # ----- core operations ----------------------------------------------------------

    def lookup(self, block_addr: int, is_write: bool = False) -> bool:
        """Probe for ``block_addr``; update recency and stats.  Returns hit."""
        self._clock += 1
        self.stats.accesses += 1
        index = self._resident.get(block_addr)
        if index is not None:
            self._last_touch[index] = self._clock
            if is_write:
                self._dirty[index] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, block_addr: int, is_write: bool = False) -> int | None:
        """Allocate ``block_addr``, evicting if needed.

        Returns the evicted block address, or ``None`` if nothing (valid)
        was evicted.  If the set has zero usable ways the fill is *bypassed*
        (the access was already counted as a miss; the block simply cannot
        be cached) — this is how a fully-disabled set behaves under
        block-disabling.
        """
        self._clock += 1
        index = self._resident.get(block_addr)
        if index is not None:
            # Refill of an already-resident block.  The demand path never
            # does this (fills follow misses; the prefetcher checks
            # contains() first), but direct API use can: refresh the
            # existing way rather than allocating a duplicate — the
            # residency index is single-valued by construction.
            if is_write:
                self._dirty[index] = True
            self._last_touch[index] = self._clock
            self.stats.fills += 1
            return None
        s = block_addr & self._set_mask
        usable = self._usable_ways[s]
        if not usable:
            self.stats.bypassed_fills += 1
            return None
        # LRU, invalid ways first: an invalid way's touch is still 0.
        base = s * self._ways
        touched = self._last_touch[base : base + self._ways]
        index = base + min(usable, key=touched.__getitem__)
        tags = self._tags
        evicted = None
        if tags[index] != -1:
            evicted = (tags[index] << self._tag_shift) | s
            del self._resident[evicted]
            if self._dirty[index]:
                self.stats.writebacks += 1
            self.stats.evictions += 1
        tags[index] = block_addr >> self._tag_shift
        self._resident[block_addr] = index
        self._dirty[index] = 1 if is_write else 0
        self._last_touch[index] = self._clock
        self.stats.fills += 1
        return evicted

    def contains(self, block_addr: int) -> bool:
        """Non-mutating probe (no stats, no recency update)."""
        return block_addr in self._resident
