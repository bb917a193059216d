"""Property-based tests (hypothesis) on the core data structures and the
Section IV closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.capacity_dist import CapacityDistribution, block_fault_probability
from repro.analysis.incremental import incremental_word_disable_capacity
from repro.analysis.urn import (
    expected_capacity_fraction,
    expected_faulty_blocks,
    expected_faulty_blocks_exact,
    expected_faulty_blocks_hypergeometric,
    faulty_block_fraction,
    pfail_for_capacity,
)
from repro.analysis.word_disable import (
    half_block_fail_probability,
    whole_cache_failure_probability,
    word_fault_probability,
)
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.victim import VictimCache
from repro.campaign.spec import RunnerSettings
from repro.cpu.config import L1_GEOMETRY
from repro.experiments.providers import FaultMapProvider
from repro.faults import CacheGeometry, FaultMap, sample_fault_map_pairs

pfails = st.floats(min_value=0.0, max_value=0.05, allow_nan=False)
small_dk = st.tuples(
    st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=200)
)


class TestUrnProperties:
    @given(dk=small_dk, n_frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_eq1_bounds(self, dk, n_frac):
        """0 <= u <= min(d, n) for every valid input."""
        d, k = dk
        n = int(n_frac * d * k)
        u = expected_faulty_blocks_exact(d, k, n)
        assert -1e-9 <= u <= min(d, n) + 1e-9

    @given(dk=small_dk, n_frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_eq1_derivations_agree(self, dk, n_frac):
        d, k = dk
        n = int(n_frac * d * k)
        a = expected_faulty_blocks_exact(d, k, n)
        b = expected_faulty_blocks_hypergeometric(d, k, n)
        assert a == pytest.approx(b, rel=1e-6, abs=1e-9)

    @given(p=pfails, k=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_fraction_is_probability(self, p, k):
        f = faulty_block_fraction(k, p)
        assert 0.0 <= f <= 1.0

    @given(
        p1=pfails,
        p2=pfails,
        k=st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fraction_monotone_in_pfail(self, p1, p2, k):
        lo, hi = sorted((p1, p2))
        assert faulty_block_fraction(k, lo) <= faulty_block_fraction(k, hi) + 1e-12

    @given(
        p=st.floats(min_value=1e-6, max_value=0.05),
        k1=st.integers(min_value=1, max_value=500),
        k2=st.integers(min_value=501, max_value=2000),
    )
    @settings(max_examples=40, deadline=None)
    def test_bigger_blocks_lose_more(self, p, k1, k2):
        assert expected_capacity_fraction(k2, p) <= expected_capacity_fraction(k1, p)

    @given(
        capacity=st.floats(min_value=0.05, max_value=1.0),
        k=st.integers(min_value=2, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_pfail_for_capacity_inverts(self, capacity, k):
        p = pfail_for_capacity(k, capacity)
        assert expected_capacity_fraction(k, p) == pytest.approx(capacity, rel=1e-6)


class TestDistributionProperties:
    @given(
        p=pfails,
        d=st.integers(min_value=2, max_value=256),
        k=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=30, deadline=None)
    def test_pmf_normalised(self, p, d, k):
        dist = CapacityDistribution(d=d, k=k, pfail=p)
        assert dist.pmf().sum() == pytest.approx(1.0, abs=1e-7)

    @given(p=pfails, k=st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_pbf_consistent_with_fraction(self, p, k):
        assert block_fault_probability(k, p) == pytest.approx(
            faulty_block_fraction(k, p)
        )


class TestWordDisableProperties:
    @given(p=pfails)
    @settings(max_examples=40, deadline=None)
    def test_pwcf_is_probability(self, p):
        assert 0.0 <= whole_cache_failure_probability(p) <= 1.0

    @given(p=pfails)
    @settings(max_examples=40, deadline=None)
    def test_word_worse_than_cell(self, p):
        """A 32-bit word fails at least as often as a single cell."""
        assert word_fault_probability(p) >= p - 1e-12

    @given(p1=pfails, p2=pfails)
    @settings(max_examples=40, deadline=None)
    def test_half_block_monotone(self, p1, p2):
        lo, hi = sorted((p1, p2))
        assert half_block_fail_probability(lo) <= half_block_fail_probability(hi) + 1e-12


class TestIncrementalProperties:
    @given(p=pfails)
    @settings(max_examples=40, deadline=None)
    def test_capacity_in_unit_interval(self, p):
        assert 0.0 <= incremental_word_disable_capacity(p) <= 1.0

    @given(p=st.floats(min_value=0.0, max_value=0.002))
    @settings(max_examples=40, deadline=None)
    def test_incremental_at_least_block_pair_floor(self, p):
        """In the regime without disabled pairs, capacity >= 1/2."""
        from repro.analysis.incremental import block_pair_disabled_probability

        if block_pair_disabled_probability(p) < 1e-6:
            assert incremental_word_disable_capacity(p) >= 0.5 - 1e-9


class TestFaultMapProperties:
    @given(
        p=st.floats(min_value=0.0, max_value=0.02),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_views_partition(self, p, seed):
        geometry = CacheGeometry(size_bytes=4 * 1024, ways=4, block_bytes=64)
        fm = FaultMap.generate(geometry, p, seed=seed)
        assert fm.data_faults.sum() + fm.tag_faults.sum() == fm.num_faulty_cells
        assert fm.faulty_block_mask().sum() <= min(
            geometry.num_blocks, fm.num_faulty_cells
        )

    @given(
        p=st.floats(min_value=0.0, max_value=0.02),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_word_mask_dominated_by_block_mask(self, p, seed):
        """Any block with a faulty word is a faulty block (data view)."""
        geometry = CacheGeometry(size_bytes=4 * 1024, ways=4, block_bytes=64)
        fm = FaultMap.generate(geometry, p, seed=seed)
        has_faulty_word = fm.faulty_word_mask().any(axis=1)
        data_faulty_block = fm.faulty_block_mask(include_tag=False)
        assert np.array_equal(has_faulty_word, data_faulty_block)

    @given(
        n_fault_maps=st.integers(min_value=1, max_value=3),
        counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
        pfail=st.sampled_from([0.001, 0.004]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_provider_draws_past_n_fault_maps_match_the_sampler(
        self, n_fault_maps, counts, pfail, seed
    ):
        """Any sequence of provider draws, within ``n_fault_maps`` or past
        it, serves the pairs one sample_fault_map_pairs call yields, bit
        for bit."""
        provider = FaultMapProvider(
            RunnerSettings(n_fault_maps=n_fault_maps, pfail=pfail, seed=seed)
        )
        expected = list(
            sample_fault_map_pairs(L1_GEOMETRY, pfail, max(counts), seed=seed)
        )
        for count in counts:
            memo = provider._pairs
            drawn = len(memo)
            pairs = provider.pairs(count)
            assert len(memo) == drawn  # rebound, never grown in place
            assert len(pairs) == count
            for got, want in zip(pairs, expected):
                assert np.array_equal(got.icache.faults, want.icache.faults)
                assert np.array_equal(got.dcache.faults, want.dcache.faults)
        assert len(provider.pairs()) == n_fault_maps


class TestCacheProperties:
    geometry = CacheGeometry(size_bytes=2 * 1024, ways=4, block_bytes=64)  # 8 sets

    @given(addresses=st.lists(st.integers(min_value=0, max_value=511), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_fill_then_lookup_hits(self, addresses):
        """Immediately after a fill, the block is resident (no disabled
        ways) and a lookup hits."""
        cache = SetAssociativeCache(self.geometry)
        for addr in addresses:
            cache.fill(addr)
            assert cache.lookup(addr)

    @given(addresses=st.lists(st.integers(min_value=0, max_value=511), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = SetAssociativeCache(self.geometry)
        for addr in addresses:
            if not cache.lookup(addr):
                cache.fill(addr)
        assert len(cache.resident_blocks()) <= self.geometry.num_blocks

    @given(
        accesses=st.lists(
            st.tuples(st.integers(min_value=0, max_value=127), st.booleans()), max_size=200
        ),
        enabled=st.none() | st.lists(st.booleans(), min_size=32, max_size=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_lru_matches_a_reference_model(self, accesses, enabled):
        """Demand accesses (a lookup, and a fill on a miss) against an
        independent model, one recency list per set over its usable
        ways: every hit, eviction and writeback agrees."""
        sets, ways = self.geometry.num_sets, self.geometry.ways
        if enabled is None:
            cache = SetAssociativeCache(self.geometry)
            capacity = [ways] * sets
        else:
            matrix = np.array(enabled).reshape(sets, ways)
            cache = SetAssociativeCache(self.geometry, enabled_ways=matrix)
            capacity = matrix.sum(axis=1).tolist()
        recency = [[] for _ in range(sets)]  # least recent first
        dirty: set[int] = set()
        writebacks = 0
        for addr, is_write in accesses:
            order = recency[addr % sets]
            hit = addr in order
            assert cache.lookup(addr, is_write) == hit
            if hit:
                order.remove(addr)
            elif capacity[addr % sets] == 0:
                assert cache.fill(addr, is_write) is None
                continue
            else:
                evicted = order.pop(0) if len(order) == capacity[addr % sets] else None
                if evicted in dirty:
                    writebacks += 1
                    dirty.discard(evicted)
                assert cache.fill(addr, is_write) == evicted
            order.append(addr)
            if is_write:
                dirty.add(addr)
        assert cache.resident_blocks() == {a for order in recency for a in order}
        assert cache.stats.writebacks == writebacks

    @given(
        addresses=st.lists(st.integers(min_value=0, max_value=255), max_size=150),
        entries=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_victim_occupancy_bounded(self, addresses, entries):
        victim = VictimCache(entries)
        for addr in addresses:
            victim.insert(addr)
            assert victim.occupancy <= entries

    @given(addresses=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=150))
    @settings(max_examples=30, deadline=None)
    def test_victim_extract_removes(self, addresses):
        victim = VictimCache(8)
        for addr in addresses:
            victim.insert(addr)
        target = addresses[-1]  # most recent: certainly resident
        assert victim.lookup(target)
        assert not victim.contains(target)


class TestTraceGeneratorProperties:
    @given(
        n=st.integers(min_value=10, max_value=2000),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_generated_traces_validate(self, n, seed):
        from repro.workloads.generator import generate_trace

        trace = generate_trace("gzip", n, seed=seed)
        assert len(trace) == n
        trace.validate()
