"""Behavioural set-associative cache with per-set disabled ways.

This is the substrate every disabling scheme runs on.  The cache itself
knows nothing about faults or voltage: it is configured with a boolean
*enabled-way* matrix (num_sets x ways) and simply never allocates into a
disabled way.  Block-disabling hands it a fault-derived matrix (variable
associativity per set, Section III); word-disabling hands it a halved
geometry with all ways enabled; the baseline enables everything.

Addresses are *block addresses* (byte address >> offset bits) — the
hierarchy layer does the shifting once so the hot loop stays cheap.

State is stored **flat**: ``_tags``/``_dirty``/``_last_touch``/
``_fill_time`` are single lists indexed ``set * ways + way``, and an
invalid way holds the sentinel tag -1 (block-address tags are
non-negative, so the sentinel can never alias a resident block).  The
lane engine (:mod:`repro.cache.engine`) lays the same layout out as one
row per lane and writes a kernel run's contents back through
:meth:`SetAssociativeCache.adopt_flat_state`.  A way that is *disabled*
also holds -1 forever: fills never select it, so lookups need no
usable-way filtering at all.
"""

from __future__ import annotations

import numpy as np

from repro.cache.replacement import ReplacementPolicy, make_policy
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
    policy:
        Replacement policy name (``lru``/``fifo``/``random``) or instance.
    name:
        Label used in stats and error messages.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        enabled_ways: np.ndarray | None = None,
        policy: str | ReplacementPolicy = "lru",
        name: str = "cache",
        seed: int = 0,
    ) -> None:
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        num_sets = geometry.num_sets
        ways = geometry.ways

        if enabled_ways is None:
            # The fully-enabled case (baseline, word-disable, every
            # high-voltage cache, the L2) skips the matrix entirely.
            self._enabled = None
            all_ways = tuple(range(ways))
            self._usable_ways: list[tuple[int, ...]] = [all_ways] * num_sets
            self._fully_enabled: list[bool] = [True] * num_sets
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
                tuple(np.flatnonzero(enabled_ways[s]).tolist())
                for s in range(num_sets)
            ]
            self._fully_enabled = [
                len(usable) == ways for usable in self._usable_ways
            ]

        if isinstance(policy, str):
            policy = make_policy(policy, seed=seed)
        self._policy = policy

        # Flat per-way state (see module docstring); -1 tags mark both
        # invalid and disabled ways, so the lookup probe needs no
        # validity or usability scan.
        n = num_sets * ways
        self._tags: list[int] = [-1] * n
        self._dirty: list[bool] = [False] * n
        self._last_touch: list[int] = [0] * n
        self._fill_time: list[int] = [0] * n
        # Residency index: block address -> flat way index.  Kept exactly
        # in sync with ``_tags`` by fill/invalidate/flush, it turns the
        # hit probe into a single dict lookup (how fast software cache
        # models index residency) without touching any decision the
        # per-set state makes.
        self._resident: dict[int, int] = {}
        self._clock = 0

        self._ways = ways
        self._set_mask = num_sets - 1
        self._index_shift = 0  # block address already excludes the offset
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
            self._fill_time[index] = self._clock
            self.stats.fills += 1
            return None
        s = block_addr & self._set_mask
        usable = self._usable_ways[s]
        if not usable:
            self.stats.bypassed_fills += 1
            return None
        tag = block_addr >> self._tag_shift
        ways = self._ways
        base = s * ways
        tags = self._tags
        # Prefer an invalid usable way.
        victim_way = -1
        segment = tags[base : base + ways]
        if -1 in segment:
            if self._fully_enabled[s]:
                victim_way = segment.index(-1)
            else:
                for w in usable:
                    if tags[base + w] == -1:
                        victim_way = w
                        break
        evicted = None
        if victim_way < 0:
            victim_way = self._policy.victim(
                usable,
                self._last_touch[base : base + ways],
                self._fill_time[base : base + ways],
            )
            index = base + victim_way
            evicted = (tags[index] << self._tag_shift) | s
            del self._resident[evicted]
            if self._dirty[index]:
                self.stats.writebacks += 1
            self.stats.evictions += 1
        index = base + victim_way
        tags[index] = tag
        self._resident[block_addr] = index
        self._dirty[index] = is_write
        self._last_touch[index] = self._clock
        self._fill_time[index] = self._clock
        self.stats.fills += 1
        return evicted

    def invalidate(self, block_addr: int) -> bool:
        """Drop ``block_addr`` if present.  Returns whether it was resident."""
        index = self._resident.pop(block_addr, None)
        if index is None:
            return False
        self._tags[index] = -1
        self._dirty[index] = False
        return True

    def contains(self, block_addr: int) -> bool:
        """Non-mutating probe (no stats, no recency update)."""
        return block_addr in self._resident

    def flush(self) -> None:
        """Invalidate everything (keeps stats).  Mutates the state lists and
        residency dict in place, so holders of references stay coherent."""
        n = len(self._tags)
        self._tags[:] = [-1] * n
        self._dirty[:] = [False] * n
        self._resident.clear()

    def adopt_flat_state(
        self,
        tags: list[int],
        dirty: list[bool],
        last_touch: list[int],
        fill_time: list[int],
        clock: int,
        resident: dict[int, int] | None = None,
    ) -> None:
        """Replace this cache's contents with externally-evolved flat state
        (the lane engine's write-back path).  The lists are copied in
        place so holders of references stay coherent, and the residency
        index is rebuilt from the adopted tags — or adopted from
        ``resident`` when the caller already derived it (the lane engine
        computes it vectorised)."""
        n = len(self._tags)
        if len(tags) != n:
            raise ValueError(f"flat state has {len(tags)} ways, expected {n}")
        self._tags[:] = tags
        self._dirty[:] = dirty
        self._last_touch[:] = last_touch
        self._fill_time[:] = fill_time
        self._clock = clock
        if resident is None:
            self.rebuild_residency()
        else:
            self._resident.clear()
            self._resident.update(resident)

    def rebuild_residency(self) -> None:
        """Recompute the block -> flat-way index from ``_tags`` (invalid
        and disabled ways hold -1 and are skipped)."""
        resident = self._resident
        resident.clear()
        tag_shift = self._tag_shift
        ways = self._ways
        for index, tag in enumerate(self._tags):
            if tag >= 0:
                resident[(tag << tag_shift) | (index // ways)] = index
