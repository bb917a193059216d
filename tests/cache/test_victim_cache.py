"""Tests for the fully-associative victim cache."""

import pytest

from repro.cache.victim import VictimCache


class TestBasics:
    def test_miss_on_empty(self):
        vc = VictimCache(4)
        assert not vc.lookup(100)

    def test_insert_then_hit(self):
        vc = VictimCache(4)
        vc.insert(100)
        assert vc.lookup(100)

    def test_extract_semantics(self):
        """The swap: a hit removes the block (it returns to the L1)."""
        vc = VictimCache(4)
        vc.insert(100)
        assert vc.lookup(100)
        assert not vc.contains(100)

    def test_hit_frees_its_slot_and_keeps_the_order(self):
        vc = VictimCache(3)
        for addr in (1, 2, 3):
            vc.insert(addr)
        assert vc.lookup(2)
        assert vc.insert(4) is None  # the swap freed a slot
        assert vc.insert(5) == 1  # 1 is still the least recent
        assert [vc.contains(a) for a in (2, 3, 4, 5)] == [False, True, True, True]

    def test_capacity_eviction_is_lru(self):
        vc = VictimCache(2)
        vc.insert(1)
        vc.insert(2)
        evicted = vc.insert(3)
        assert evicted == 1
        assert not vc.contains(1)
        assert vc.contains(2)
        assert vc.contains(3)

    def test_reinsert_refreshes_not_duplicates(self):
        vc = VictimCache(2)
        vc.insert(1)
        vc.insert(2)
        vc.insert(1)  # refresh
        assert vc.occupancy == 2
        evicted = vc.insert(3)
        assert evicted == 2  # 1 was refreshed to MRU

    def test_occupancy_bounded(self):
        vc = VictimCache(3)
        for i in range(10):
            vc.insert(i)
        assert vc.occupancy == 3

    def test_stats(self):
        vc = VictimCache(4)
        vc.lookup(1)
        vc.insert(1)
        vc.lookup(1)
        assert vc.stats.accesses == 2
        assert vc.stats.misses == 1
        assert vc.stats.hits == 1
        assert vc.stats.fills == 1


class TestZeroEntries:
    """A 0-entry victim cache is the no-victim configuration."""

    def test_never_hits(self):
        vc = VictimCache(0)
        vc.insert(1)
        assert not vc.lookup(1)

    def test_insert_noop(self):
        vc = VictimCache(0)
        assert vc.insert(1) is None
        assert vc.occupancy == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VictimCache(-1)
