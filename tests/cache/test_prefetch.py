"""Tests for the next-line prefetcher: its semantics, and the lane
kernel's copy of them against the object engine."""

import numpy as np
import pytest
from trace_rows import Instruction, trace_from_rows

from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.prefetch import NextLinePrefetcher
from repro.cache.set_assoc import SetAssociativeCache
from repro.cpu import lane_kernel
from repro.cpu.config import PAPER_PIPELINE
from repro.cpu.isa import InstrClass
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.cpu.trace import Trace
from repro.faults import CacheGeometry
from repro.workloads.generator import generate_trace

GEOMETRY = CacheGeometry(size_bytes=4 * 1024, ways=4, block_bytes=64)


class TestPrefetch:
    def test_miss_prefetches_next_block(self):
        cache = SetAssociativeCache(GEOMETRY)
        pf = NextLinePrefetcher(cache)
        pf.on_demand_miss(100)
        assert cache.contains(101)
        assert pf.stats.issued == 1

    def test_degree_two(self):
        cache = SetAssociativeCache(GEOMETRY)
        pf = NextLinePrefetcher(cache, degree=2)
        pf.on_demand_miss(100)
        assert cache.contains(101)
        assert cache.contains(102)

    def test_tagged_hit_counts_useful_and_chains(self):
        cache = SetAssociativeCache(GEOMETRY)
        pf = NextLinePrefetcher(cache)
        pf.on_demand_miss(100)  # prefetches 101
        pf.on_demand_hit(101)  # useful, chains to 102
        assert pf.stats.useful == 1
        assert cache.contains(102)

    def test_hit_on_demand_block_not_useful(self):
        cache = SetAssociativeCache(GEOMETRY)
        pf = NextLinePrefetcher(cache)
        cache.fill(100)
        pf.on_demand_hit(100)  # not a prefetched block
        assert pf.stats.useful == 0

    def test_no_duplicate_prefetch(self):
        cache = SetAssociativeCache(GEOMETRY)
        pf = NextLinePrefetcher(cache)
        cache.fill(101)
        pf.on_demand_miss(100)
        assert pf.stats.issued == 0  # 101 already resident

    def test_prefetch_respects_disabled_sets(self):
        enabled = np.ones((GEOMETRY.num_sets, GEOMETRY.ways), dtype=bool)
        target_set = 101 % GEOMETRY.num_sets
        enabled[target_set, :] = False
        cache = SetAssociativeCache(GEOMETRY, enabled_ways=enabled)
        pf = NextLinePrefetcher(cache)
        pf.on_demand_miss(100)
        assert not cache.contains(101)  # dropped, set fully disabled

    def test_accuracy_metric(self):
        cache = SetAssociativeCache(GEOMETRY)
        pf = NextLinePrefetcher(cache)
        pf.on_demand_miss(100)
        pf.on_demand_hit(101)
        assert pf.stats.accuracy == pytest.approx(0.5)  # 1 useful / 2 issued

    def test_stale_tag_counts_useful_after_a_demand_refill(self):
        """``_tagged`` is never cleared on eviction: a block prefetched,
        evicted unused and demand-filled again (here without a prefetch
        of its own, as a victim-cache swap refills) counts useful on its
        first hit and chains the next prefetch."""
        cache = SetAssociativeCache(GEOMETRY)
        pf = NextLinePrefetcher(cache)
        pf.on_demand_miss(100)  # prefetches 101
        for k in range(1, GEOMETRY.ways + 1):  # fill 101's set over it
            cache.fill(101 + k * GEOMETRY.num_sets)
        assert not cache.contains(101) and 101 in pf._tagged
        assert not cache.lookup(101)  # demand miss, then refill
        cache.fill(101)
        assert cache.lookup(101)  # demand hit
        pf.on_demand_hit(101)
        assert pf.stats.useful == 1
        assert cache.contains(102) and pf.stats.issued == 2

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(SetAssociativeCache(GEOMETRY), degree=0)

    def test_zero_accuracy_when_idle(self):
        pf = NextLinePrefetcher(SetAssociativeCache(GEOMETRY))
        assert pf.stats.accuracy == 0.0


# ----- the lane kernel against the object engine ----------------------------

requires_kernel = pytest.mark.skipif(
    lane_kernel.load() is None, reason="no compiled lane kernel on this host"
)

SMALL_L2 = CacheGeometry(size_bytes=32 * 1024, ways=8, block_bytes=64)
LATENCIES = LatencyConfig(l1i=3, l1d=3, victim=1, l2=12, memory=90)


def _hierarchy(
    degree: int,
    l1d: CacheGeometry = GEOMETRY,
    victim_entries: int = 0,
    enabled_d: "np.ndarray | None" = None,
) -> MemoryHierarchy:
    return MemoryHierarchy(
        SetAssociativeCache(GEOMETRY, name="l1i"),
        SetAssociativeCache(l1d, enabled_ways=enabled_d, name="l1d"),
        SMALL_L2,
        LATENCIES,
        victim_entries_i=victim_entries,
        victim_entries_d=victim_entries,
        prefetch_degree=degree,
    )


def _loads(blocks: "list[int]") -> Trace:
    """One load per D-cache block, all fetched from one I-cache line."""
    return trace_from_rows(
        (Instruction(0x1000, InstrClass.LOAD, block * 64, dest=1) for block in blocks),
        name="loads",
    )


def _both_engines(make, trace: Trace, measure_from: int = 0):
    """One run per engine, each on a fresh pipeline over a hierarchy from
    ``make``: the kernel's result, the object engine's result, and the
    object engine's hierarchy (the kernel leaves its own as built), whose
    prefetcher statistics and tag sets show whether a trap fired."""
    results = []
    for engine in ("fused", "object"):
        hierarchy = make()
        pipeline = OutOfOrderPipeline(PAPER_PIPELINE, hierarchy, engine=engine)
        assert (pipeline.kernel_lane() is not None) == (engine == "fused")
        results.append(pipeline.run(trace, measure_from=measure_from))
    return results[0], results[1], hierarchy


@requires_kernel
class TestKernelMatchesTheObjectEngine:
    """Prefetching pipelines run in the lane kernel; each test pins one
    place where it could drift from :class:`NextLinePrefetcher`, and a
    drift would show in the result: a prefetch changes L1 fills and
    evictions, and later hits and misses."""

    def test_batched_lanes_match_per_lane_runs(self):
        """One ``run_batch`` pass over three prefetching lanes — a thinned
        L1D with a fully-disabled set in one, victim caches of 0, 8 and
        16 entries — gives what per-lane object-engine runs give."""
        enabled = np.random.default_rng(4).random((16, 4)) > 0.3
        enabled[5] = False
        trace = generate_trace("mcf", 1_500, seed=3)
        sizings = ((0, None), (8, enabled), (16, None))
        lanes = [
            OutOfOrderPipeline(
                PAPER_PIPELINE, _hierarchy(2, victim_entries=v, enabled_d=e)
            ).kernel_lane()
            for v, e in sizings
        ]
        expected = [
            OutOfOrderPipeline(
                PAPER_PIPELINE,
                _hierarchy(2, victim_entries=v, enabled_d=e),
                engine="object",
            ).run(trace, measure_from=300)
            for v, e in sizings
        ]
        assert OutOfOrderPipeline.run_batch(lanes, trace, measure_from=300) == expected

    def test_stale_tag_hit_counts_useful(self):
        """Trap: the tag set must keep the tags of evicted and bypassed
        blocks.  101 is prefetched, evicted unused by four demand fills
        of its set, demand-filled again and hit: the stale tag makes
        that hit useful.  The hit on 102, prefetched by 101's miss,
        chains a prefetch of 103 into a fully-disabled set: bypassed,
        but tagged."""
        enabled = np.ones((16, 4), dtype=bool)
        enabled[103 % 16] = False
        blocks = [100, *(101 + 16 * k for k in range(1, 5)), 101, 101, 102]
        kernel, reference, hierarchy = _both_engines(
            lambda: _hierarchy(1, enabled_d=enabled), _loads(blocks)
        )
        assert kernel == reference
        assert hierarchy.dport.prefetcher.stats.useful == 2
        assert 103 in hierarchy.dport.prefetcher._tagged
        assert not hierarchy.l1d.contains(103)

    def test_prefetch_of_a_victim_held_block(self):
        """Trap: a prefetch checks only the L1, so it may fill a block
        the victim cache still holds; that block's next L1 eviction
        refreshes the victim entry to MRU without evicting anything.
        Direct-mapped two-set L1D, 2-entry victim caches: 12 is evicted
        to the victim cache by 14, prefetched back by 11's miss, and
        evicted again by 16; the last access finds it in the victim
        cache, whose four fills never evicted anything."""
        two_sets = CacheGeometry(size_bytes=128, ways=1, block_bytes=64)
        kernel, reference, hierarchy = _both_engines(
            lambda: _hierarchy(1, l1d=two_sets, victim_entries=2),
            _loads([12, 14, 11, 16, 12]),
        )
        assert kernel == reference
        stats = reference.hierarchy_stats["victim_d"]
        assert (stats["fills"], stats["evictions"], stats["hits"]) == (4, 0, 1)
        assert hierarchy.victim_d._tags == [15, 16]

    def test_stamps_leave_room_for_prefetch_fills(self):
        """Trap: every access needs 1 + degree distinct stamps, above the
        previous access's.  In a one-set, 4-way L1D at degree 3, a hit
        on 100 after its miss filled 101-103 must make 100 the MRU way,
        so 200's prefetches evict 102, 103 and then 100, in that
        order."""
        one_set = CacheGeometry(size_bytes=256, ways=4, block_bytes=64)
        kernel, reference, hierarchy = _both_engines(
            lambda: _hierarchy(3, l1d=one_set), _loads([100, 100, 200, 300, 100])
        )
        assert kernel == reference

    def test_boundary_resets_cache_counts_not_prefetch_stats(self):
        """Trap: at the warmup boundary the L1 fill and eviction counts
        that prefetches add are reset with every cache statistic.  The
        prefetcher's own statistics, which no result carries, carry over
        on the object engine, as ``_reset_measurement_state`` leaves
        them."""
        one_set = CacheGeometry(size_bytes=256, ways=4, block_bytes=64)
        kernel, reference, hierarchy = _both_engines(
            lambda: _hierarchy(1, l1d=one_set),
            _loads([100, 200, 300, 400, 500]),
            measure_from=2,
        )
        assert kernel == reference
        l1d = reference.hierarchy_stats["l1d"]
        assert (l1d["fills"], l1d["evictions"]) == (6, 6)
        assert hierarchy.dport.prefetcher.stats.issued == 5
