"""Tests for the set-associative cache with disabled ways."""

import gc

import numpy as np
import pytest

from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.faults import CacheGeometry

GEOMETRY = CacheGeometry(size_bytes=4 * 1024, ways=4, block_bytes=64)  # 16 sets


def block_in_set(set_index: int, tag: int, geometry: CacheGeometry = GEOMETRY) -> int:
    """Construct a block address mapping to (set_index, tag)."""
    return (tag << geometry.index_bits) | set_index


class TestBasicOperation:
    def test_cold_miss_then_hit(self):
        cache = SetAssociativeCache(GEOMETRY)
        addr = block_in_set(0, 1)
        assert not cache.lookup(addr)
        cache.fill(addr)
        assert cache.lookup(addr)

    def test_distinct_sets_do_not_interfere(self):
        cache = SetAssociativeCache(GEOMETRY)
        a = block_in_set(0, 1)
        b = block_in_set(1, 1)
        cache.fill(a)
        assert not cache.lookup(b)
        assert cache.lookup(a)

    def test_associativity_capacity(self):
        cache = SetAssociativeCache(GEOMETRY)
        addrs = [block_in_set(3, t) for t in range(4)]
        for addr in addrs:
            cache.fill(addr)
        assert all(cache.contains(a) for a in addrs)

    def test_fifth_block_evicts_lru(self):
        cache = SetAssociativeCache(GEOMETRY)
        addrs = [block_in_set(3, t) for t in range(4)]
        for addr in addrs:
            cache.fill(addr)
        for addr in addrs:
            cache.lookup(addr)  # touch in order: addrs[0] is now LRU
        evicted = cache.fill(block_in_set(3, 99))
        assert evicted == addrs[0]
        assert not cache.contains(addrs[0])

    def test_lru_respects_recency(self):
        cache = SetAssociativeCache(GEOMETRY)
        addrs = [block_in_set(2, t) for t in range(4)]
        for addr in addrs:
            cache.fill(addr)
        cache.lookup(addrs[0])  # make tag 0 MRU
        evicted = cache.fill(block_in_set(2, 50))
        assert evicted == addrs[1]

    def test_contains_does_not_touch_stats(self):
        cache = SetAssociativeCache(GEOMETRY)
        cache.contains(block_in_set(0, 1))
        assert cache.stats.accesses == 0

    def test_contains_does_not_refresh_recency(self):
        """The prefetcher probes with ``contains`` before it fills: the
        probe must leave the LRU order as it was."""
        cache = SetAssociativeCache(GEOMETRY)
        addrs = [block_in_set(4, t) for t in range(4)]
        for addr in addrs:
            cache.fill(addr)
        assert cache.contains(addrs[0])
        assert cache.fill(block_in_set(4, 9)) == addrs[0]

    def test_stats_counting(self):
        cache = SetAssociativeCache(GEOMETRY)
        addr = block_in_set(0, 1)
        cache.lookup(addr)
        cache.fill(addr)
        cache.lookup(addr)
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.fills == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_dirty_writeback_counted(self):
        cache = SetAssociativeCache(GEOMETRY)
        addrs = [block_in_set(1, t) for t in range(5)]
        cache.fill(addrs[0], is_write=True)
        for addr in addrs[1:]:
            cache.fill(addr)
        assert cache.stats.writebacks == 1


class TestDisabledWays:
    def test_disabled_way_never_allocates(self):
        enabled = np.ones((16, 4), dtype=bool)
        enabled[3, :] = [True, False, False, False]  # set 3: one usable way
        cache = SetAssociativeCache(GEOMETRY, enabled_ways=enabled)
        a, b = block_in_set(3, 1), block_in_set(3, 2)
        cache.fill(a)
        cache.fill(b)  # must evict a: only one way
        assert cache.contains(b)
        assert not cache.contains(a)

    def test_lru_victim_is_the_least_recent_usable_way(self):
        """A disabled way is never touched, so its stamp is the oldest in
        its set; the LRU choice must still pick among the usable ways."""
        enabled = np.ones((16, 4), dtype=bool)
        enabled[5, 1] = False
        cache = SetAssociativeCache(GEOMETRY, enabled_ways=enabled)
        addrs = [block_in_set(5, t) for t in range(3)]
        for addr in addrs:
            cache.fill(addr)
        cache.lookup(addrs[0])  # addrs[1] is now the least recent
        assert cache.fill(block_in_set(5, 9)) == addrs[1]
        assert cache._tags[5 * GEOMETRY.ways + 1] == -1

    def test_cold_fills_take_the_usable_ways_in_order(self):
        """An empty way's touch stamp is 0, below every filled way's:
        fills into a cold set take its usable ways first to last, and
        only then evict."""
        enabled = np.ones((16, 4), dtype=bool)
        enabled[6, 1] = False
        cache = SetAssociativeCache(GEOMETRY, enabled_ways=enabled)
        addrs = [block_in_set(6, t) for t in (7, 3, 5)]
        for addr in addrs:
            assert cache.fill(addr) is None
        base = 6 * GEOMETRY.ways
        assert list(cache._tags[base : base + GEOMETRY.ways]) == [7, -1, 3, 5]
        assert cache.fill(block_in_set(6, 8)) == addrs[0]

    def test_fully_disabled_set_bypasses_fills(self):
        enabled = np.ones((16, 4), dtype=bool)
        enabled[7, :] = False
        cache = SetAssociativeCache(GEOMETRY, enabled_ways=enabled)
        addr = block_in_set(7, 1)
        assert cache.fill(addr) is None
        assert not cache.contains(addr)
        assert cache.stats.bypassed_fills == 1

    def test_usable_blocks_counts_enabled(self):
        enabled = np.ones((16, 4), dtype=bool)
        enabled[0, 0] = False
        enabled[5, :] = False
        cache = SetAssociativeCache(GEOMETRY, enabled_ways=enabled)
        assert cache.usable_blocks == 64 - 1 - 4
        assert cache.capacity_fraction == pytest.approx((64 - 5) / 64)

    def test_usable_ways_in_set(self):
        enabled = np.ones((16, 4), dtype=bool)
        enabled[2, 1:3] = False
        cache = SetAssociativeCache(GEOMETRY, enabled_ways=enabled)
        assert cache.usable_ways_in_set(2) == 2
        assert cache.usable_ways_in_set(0) == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(GEOMETRY, enabled_ways=np.ones((2, 2), dtype=bool))

    def test_variable_associativity_from_fault_map(self, paper_geometry):
        """End-to-end: a fault map's usable ways drive cache capacity."""
        from repro.faults import FaultMap

        fm = FaultMap.generate(paper_geometry, 0.001, seed=42)
        cache = SetAssociativeCache(paper_geometry, enabled_ways=~fm.faulty_ways_by_set())
        assert cache.usable_blocks == 512 - fm.num_faulty_blocks()


class TestResidencyInvariants:
    def test_resident_blocks_tracks_fills(self):
        cache = SetAssociativeCache(GEOMETRY)
        addrs = {block_in_set(s, t) for s in (0, 1) for t in (1, 2)}
        for addr in addrs:
            cache.fill(addr)
        assert cache.resident_blocks() == addrs

    def test_no_duplicate_blocks_after_refill(self):
        cache = SetAssociativeCache(GEOMETRY)
        addr = block_in_set(0, 1)
        cache.fill(addr)
        cache.fill(addr)  # double-fill must not duplicate
        resident = [b for b in cache.resident_blocks() if b == addr]
        assert len(resident) == 1


class TestRefillSemantics:
    """fill() of an already-resident block refreshes in place — the
    residency index stays single-valued (regression: a duplicate entry
    used to corrupt it and KeyError on a later eviction)."""

    def test_repeated_fill_then_eviction_chain(self):
        cache = SetAssociativeCache(GEOMETRY)
        addr = block_in_set(0, 1)
        for _ in range(GEOMETRY.ways):
            cache.fill(addr)
            assert cache.lookup(addr)
        # Fill the set past capacity; the refreshed block must survive as
        # exactly one way and evictions must not touch its index entry.
        for tag in range(2, GEOMETRY.ways + 4):
            cache.fill(block_in_set(0, tag))
        assert len(cache.resident_blocks()) == GEOMETRY.ways

    def test_refill_marks_dirty_and_refreshes_recency(self):
        cache = SetAssociativeCache(GEOMETRY)
        victim_candidate = block_in_set(0, 1)
        cache.fill(victim_candidate)
        for tag in range(2, GEOMETRY.ways + 1):
            cache.fill(block_in_set(0, tag))
        cache.fill(victim_candidate, is_write=True)  # refresh: now MRU+dirty
        evicted = cache.fill(block_in_set(0, 99))
        assert evicted != victim_candidate  # LRU refresh took effect
        assert cache.contains(victim_candidate)


class TestTypedBufferState:
    """Flat state lives in typed buffers: int64 ``array``s and a
    ``bytearray`` of dirty bits."""

    @staticmethod
    def buffers(cache: SetAssociativeCache) -> tuple:
        return (cache._tags, cache._dirty, cache._last_touch)

    @staticmethod
    def warm_cache() -> SetAssociativeCache:
        cache = SetAssociativeCache(GEOMETRY)
        for tag in range(12):
            cache.fill(block_in_set(tag % 3, tag), is_write=tag % 2 == 0)
        return cache

    def test_cyclic_gc_reaches_no_per_way_object(self):
        # An ``array`` is a GC-tracked heap type whose traversal visits
        # only its type; a ``bytearray`` is not tracked at all.  Lists
        # would hand the collector every way.
        for cache in (SetAssociativeCache(GEOMETRY), self.warm_cache()):
            for buffer in self.buffers(cache):
                assert all(isinstance(r, type) for r in gc.get_referents(buffer))

    def test_numpy_bool_is_write_is_stored(self):
        cache = SetAssociativeCache(GEOMETRY)
        a, b = block_in_set(0, 1), block_in_set(1, 1)
        cache.fill(a, is_write=np.True_)
        cache.fill(b, is_write=np.False_)
        assert cache._dirty[cache._resident[a]] == 1
        assert cache._dirty[cache._resident[b]] == 0
        assert cache.lookup(b, is_write=np.True_)
        assert cache._dirty[cache._resident[b]] == 1
        hierarchy = MemoryHierarchy(
            SetAssociativeCache(GEOMETRY),
            SetAssociativeCache(GEOMETRY),
            CacheGeometry(size_bytes=64 * 1024, ways=8, block_bytes=64),
            LatencyConfig(),
        )
        hierarchy.access_data(a, np.True_)
        assert hierarchy.l1d._dirty[hierarchy.l1d._resident[a]] == 1
