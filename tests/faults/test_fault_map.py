"""Tests for fault-map generation and queries."""

import gc
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.campaign.spec import RunnerSettings
from repro.cpu.config import L1_GEOMETRY
from repro.experiments import providers
from repro.experiments.providers import FaultMapProvider
from repro.faults import CacheGeometry, FaultMap, sample_fault_map_pairs


def _bits(pairs) -> list:
    """Every cell of every map of ``pairs``, comparable with ``==``."""
    return [(p.icache.faults.tobytes(), p.dcache.faults.tobytes()) for p in pairs]


class TestGeneration:
    def test_shape_matches_geometry(self, paper_geometry):
        fm = FaultMap.generate(paper_geometry, 0.001, seed=0)
        assert fm.faults.shape == (512, 537)

    def test_deterministic_for_seed(self, paper_geometry):
        a = FaultMap.generate(paper_geometry, 0.001, seed=7)
        b = FaultMap.generate(paper_geometry, 0.001, seed=7)
        assert np.array_equal(a.faults, b.faults)

    def test_different_seeds_differ(self, paper_geometry):
        a = FaultMap.generate(paper_geometry, 0.001, seed=1)
        b = FaultMap.generate(paper_geometry, 0.001, seed=2)
        assert not np.array_equal(a.faults, b.faults)

    def test_zero_pfail_is_clean(self, paper_geometry):
        fm = FaultMap.generate(paper_geometry, 0.0, seed=0)
        assert fm.num_faulty_cells == 0

    def test_unity_pfail_is_all_faulty(self, small_geometry):
        fm = FaultMap.generate(small_geometry, 1.0, seed=0)
        assert fm.num_faulty_cells == small_geometry.total_cells

    def test_fault_count_near_expectation(self, paper_geometry):
        fm = FaultMap.generate(paper_geometry, 0.001, seed=3)
        expected = 0.001 * paper_geometry.total_cells  # ~275
        assert 0.5 * expected < fm.num_faulty_cells < 1.5 * expected

    @pytest.mark.parametrize("bad", [-0.5, 1.0001])
    def test_rejects_bad_pfail(self, paper_geometry, bad):
        with pytest.raises(ValueError):
            FaultMap.generate(paper_geometry, bad)

    def test_empty_constructor(self, paper_geometry):
        fm = FaultMap.empty(paper_geometry)
        assert fm.num_faulty_cells == 0
        assert fm.pfail == 0.0

    def test_shape_mismatch_rejected(self, paper_geometry):
        with pytest.raises(ValueError):
            FaultMap(paper_geometry, np.zeros((2, 2), dtype=bool))

    def test_non_bool_rejected(self, paper_geometry):
        bad = np.zeros((512, 537), dtype=np.int8)
        with pytest.raises(ValueError):
            FaultMap(paper_geometry, bad)


class TestBlockQueries:
    def test_faulty_block_mask_matches_counts(self, paper_fault_map):
        counts = paper_fault_map.block_fault_counts()
        mask = paper_fault_map.faulty_block_mask()
        assert np.array_equal(mask, counts > 0)

    def test_capacity_plus_faulty_fraction_is_one(self, paper_fault_map):
        d = paper_fault_map.geometry.num_blocks
        assert paper_fault_map.capacity_fraction() == pytest.approx(
            1.0 - paper_fault_map.num_faulty_blocks() / d
        )

    def test_tag_exclusion_reduces_faulty_blocks(self, paper_geometry):
        """Ignoring tag faults (the word-disable view) can only shrink the
        faulty-block set."""
        fm = FaultMap.generate(paper_geometry, 0.002, seed=11)
        assert fm.num_faulty_blocks(include_tag=False) <= fm.num_faulty_blocks(
            include_tag=True
        )

    def test_data_and_tag_views_partition_cells(self, paper_fault_map):
        g = paper_fault_map.geometry
        assert paper_fault_map.data_faults.shape == (512, g.data_bits_per_block)
        assert paper_fault_map.tag_faults.shape == (
            512,
            g.effective_tag_bits + g.valid_bits,
        )
        total = paper_fault_map.data_faults.sum() + paper_fault_map.tag_faults.sum()
        assert total == paper_fault_map.num_faulty_cells


class TestWordQueries:
    def test_word_counts_shape(self, paper_fault_map):
        counts = paper_fault_map.word_fault_counts()
        assert counts.shape == (512, 16)

    def test_word_counts_sum_to_data_faults(self, paper_fault_map):
        assert (
            paper_fault_map.word_fault_counts().sum()
            == paper_fault_map.data_faults.sum()
        )

    def test_faulty_words_consistent_with_mask(self, paper_fault_map):
        per_block = paper_fault_map.faulty_words_per_block()
        mask = paper_fault_map.faulty_word_mask()
        assert np.array_equal(per_block, mask.sum(axis=1))

    def test_tag_fault_does_not_mark_words(self, paper_geometry):
        faults = np.zeros((512, 537), dtype=bool)
        faults[3, 520] = True  # a tag cell
        fm = FaultMap(paper_geometry, faults)
        assert fm.faulty_words_per_block().sum() == 0
        assert fm.num_faulty_blocks(include_tag=True) == 1
        assert fm.num_faulty_blocks(include_tag=False) == 0


class TestSetWayStructure:
    def test_block_index_layout(self, paper_fault_map):
        g = paper_fault_map.geometry
        assert paper_fault_map.block_index(0, 0) == 0
        assert paper_fault_map.block_index(0, 7) == 7
        assert paper_fault_map.block_index(1, 0) == g.ways
        assert paper_fault_map.block_index(63, 7) == 511

    def test_block_index_bounds(self, paper_fault_map):
        with pytest.raises(IndexError):
            paper_fault_map.block_index(0, 8)
        with pytest.raises(IndexError):
            paper_fault_map.block_index(64, 0)

    def test_usable_ways_complement_faulty(self, paper_fault_map):
        usable = paper_fault_map.usable_ways_per_set()
        faulty = paper_fault_map.faulty_ways_by_set().sum(axis=1)
        assert np.array_equal(usable + faulty, np.full(64, 8))

    def test_usable_ways_sum_matches_capacity(self, paper_fault_map):
        assert paper_fault_map.usable_ways_per_set().sum() == (
            512 - paper_fault_map.num_faulty_blocks()
        )


class TestFaultMapPairs:
    def test_pair_count(self, paper_geometry):
        pairs = list(sample_fault_map_pairs(paper_geometry, 0.001, 5, seed=1))
        assert len(pairs) == 5

    def test_prefix_stability(self, paper_geometry):
        """Pair i is identical whether 3 or 10 pairs are drawn — quick and
        full experiment runs stay comparable."""
        three = list(sample_fault_map_pairs(paper_geometry, 0.001, 3, seed=9))
        ten = list(sample_fault_map_pairs(paper_geometry, 0.001, 10, seed=9))
        for a, b in zip(three, ten):
            assert np.array_equal(a.icache.faults, b.icache.faults)
            assert np.array_equal(a.dcache.faults, b.dcache.faults)

    def test_icache_and_dcache_maps_differ(self, paper_geometry):
        pair = next(iter(sample_fault_map_pairs(paper_geometry, 0.001, 1, seed=2)))
        assert not np.array_equal(pair.icache.faults, pair.dcache.faults)

    def test_pair_exposes_pfail(self, paper_geometry):
        pair = next(iter(sample_fault_map_pairs(paper_geometry, 0.001, 1, seed=2)))
        assert pair.pfail == 0.001

    def test_negative_count_rejected(self, paper_geometry):
        with pytest.raises(ValueError):
            list(sample_fault_map_pairs(paper_geometry, 0.001, -1))


class TestFaultMapProvider:
    @pytest.mark.parametrize("drawn", [0, 5])
    def test_negative_counts_and_indices_rejected(self, drawn):
        """A negative index must not alias a real map: with 5 pairs drawn,
        ``pair(-2)`` would return pair 2 through ``drawn[:-1][-2]``.  A
        rejected call draws nothing."""
        provider = FaultMapProvider(RunnerSettings(n_fault_maps=5, seed=5))
        if drawn:
            provider.pairs()
        for index in (-1, -2, -5):
            with pytest.raises(ValueError, match="index must be >= 0"):
                provider.pair(index)
            with pytest.raises(ValueError, match="count must be >= 0"):
                provider.pairs(index)
        assert provider.pairs(0) == []
        assert len(provider._pairs) == drawn

    def test_concurrent_draws_past_n_fault_maps_keep_every_index(self):
        """The campaign server plans on one thread while another simulates
        on the same session: concurrent on-demand draws must never shift
        a pair off its index."""
        provider = FaultMapProvider(RunnerSettings(n_fault_maps=1, seed=5))
        expected = list(sample_fault_map_pairs(L1_GEOMETRY, 0.001, 9, seed=5))
        wrong: list = []

        def draw(order) -> None:
            for index in order:
                pair = provider.pair(index)
                if not (
                    np.array_equal(pair.icache.faults, expected[index].icache.faults)
                    and np.array_equal(pair.dcache.faults, expected[index].dcache.faults)
                ):
                    wrong.append(index)

        orders = (range(9), range(8, -1, -1), range(0, 9, 2), range(1, 9, 2))
        threads = [threading.Thread(target=draw, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(provider.pairs(9)) == 9

    @pytest.fixture()
    def pools(self, monkeypatch) -> list:
        """The thread count of every pool the provider starts."""
        started: list = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, threads):
                started.append(threads)
                super().__init__(threads)

        monkeypatch.setattr(providers, "ThreadPoolExecutor", CountingPool)
        return started

    def test_draws_on_one_and_two_threads_are_identical(self, cpus, pools):
        """Each pair has its own PCG64 stream, so the threads that draw
        them cannot change a bit or an index."""
        settings = RunnerSettings(n_fault_maps=9, seed=5)
        cpus(1)
        serial = FaultMapProvider(settings).pairs()
        assert pools == []
        cpus(2)
        threaded = FaultMapProvider(settings).pairs()
        assert pools == [2]
        assert _bits(threaded) == _bits(serial)
        drawn_one_by_one = sample_fault_map_pairs(L1_GEOMETRY, 0.001, 9, seed=5)
        assert _bits(serial) == _bits(drawn_one_by_one)

    def test_a_thread_draws_at_least_two_pairs(self, cpus, pools):
        cpus(8)
        provider = FaultMapProvider(RunnerSettings(n_fault_maps=3, seed=5))
        provider.pairs()  # 3 pairs: one thread
        provider.pairs(7)  # 4 more: two threads
        assert pools == [2]

    def test_a_provider_extended_to_50_equals_one_drawn_at_50(self, cpus):
        cpus(2)
        grown = FaultMapProvider(RunnerSettings(n_fault_maps=2, seed=5))
        assert len(grown.pairs()) == 2
        whole = FaultMapProvider(RunnerSettings(n_fault_maps=50, seed=5)).pairs()
        assert _bits(grown.pairs(50)) == _bits(whole)


class TestBatchGeneration:
    def test_batch_matches_sequential_draws(self, paper_geometry):
        """One (n, d, k) RNG call must consume the same PCG64 stream as n
        sequential generate() calls — the seed-stream lock the store keys
        and every historical fault draw rely on."""
        batched = FaultMap.generate_batch(
            paper_geometry, 0.001, 4, np.random.default_rng(123)
        )
        rng = np.random.default_rng(123)
        for map_ in batched:
            expected = FaultMap.generate(paper_geometry, 0.001, rng)
            assert np.array_equal(map_.faults, expected.faults)
            assert map_.pfail == 0.001

    def test_pairs_unchanged_by_batched_drawing(self, paper_geometry):
        """sample_fault_map_pairs now draws each pair as one (2, d, k)
        call; pair i must stay bit-identical to the original per-map
        formulation."""
        pairs = list(sample_fault_map_pairs(paper_geometry, 0.001, 3, seed=2010))
        for i, pair in enumerate(pairs):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=2010, spawn_key=(i,))
            )
            icache = FaultMap.generate(paper_geometry, 0.001, rng)
            dcache = FaultMap.generate(paper_geometry, 0.001, rng)
            assert np.array_equal(pair.icache.faults, icache.faults)
            assert np.array_equal(pair.dcache.faults, dcache.faults)

    def test_empty_batch(self, paper_geometry):
        assert FaultMap.generate_batch(paper_geometry, 0.001, 0, seed=1) == []

    def test_invalid_arguments(self, paper_geometry):
        with pytest.raises(ValueError):
            FaultMap.generate_batch(paper_geometry, 1.5, 2)
        with pytest.raises(ValueError):
            FaultMap.generate_batch(paper_geometry, 0.001, -1)


class TestPersistenceHandle:
    def test_load_closes_the_npz_handle(self, paper_geometry, tmp_path):
        """FaultMap.load must not leak the NpzFile: loading many maps in a
        campaign would otherwise exhaust file descriptors."""
        path = tmp_path / "map.npz"
        original = FaultMap.generate(paper_geometry, 0.001, seed=7)
        original.save(str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            loaded = FaultMap.load(str(path))
            gc.collect()
        assert np.array_equal(loaded.faults, original.faults)
        assert loaded.geometry == original.geometry
