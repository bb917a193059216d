"""Metamorphic properties of the simulator: relations between runs that
must hold whatever the trace, on the lane kernel and the object engine.

* A zero-fault map simulates exactly like the fault-free configuration:
  block disabling over ``FaultMap.empty`` enables every way, so its lane
  (an all-``True`` matrix) must equal the ``LV_BASELINE`` lane (no
  matrix) and the object engine's run.
* Adding faults to a block-disabled map never enables a way.
* LRU's stack property: an L1 set with fewer enabled ways holds a subset
  of what the same set holds with more, so thinning a lane's enabled-way
  matrices (down to fully disabled sets, whose fills bypass) never lowers
  its L1I or L1D miss count.  Victim caches and the L2 only serve misses
  and never change an L1's contents; prefetchers do, so lanes here have
  none.
* Fault maps nest across pfail: pair *i* draws from ``(seed, i)`` alone
  and marks a cell faulty when its draw is below pfail, so every cell
  faulty at one pfail is faulty at any higher one.  With the stack
  property, a block-disabling lane from map *i* never misses less in
  its L1s as pfail rises.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_rows import random_trace

from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.campaign import RunnerSettings, Session
from repro.core import SCHEMES
from repro.core.schemes import VoltageMode
from repro.cpu import lane_kernel
from repro.cpu.config import L1_GEOMETRY, PAPER_PIPELINE
from repro.cpu.pipeline import KernelLane, OutOfOrderPipeline
from repro.experiments.configs import LV_BASELINE, LV_BLOCK
from repro.faults import CacheGeometry, FaultMap
from repro.faults.fault_map import FaultMapPair, fault_map_pair

requires_kernel = pytest.mark.skipif(
    lane_kernel.load() is None, reason="no compiled lane kernel on this host"
)

SETTINGS = RunnerSettings(
    n_instructions=4_000,
    warmup_instructions=1_000,
    n_fault_maps=1,
    benchmarks=("gzip", "mcf"),
)
WARMUP = SETTINGS.warmup_instructions


@pytest.fixture(scope="module")
def zero_fault_session() -> Session:
    """A session whose every fault-map pair is the empty map."""
    session = Session(SETTINGS)
    empty = FaultMap.empty(L1_GEOMETRY)
    session.maps.pair = lambda index: FaultMapPair(empty, empty)
    return session


class TestZeroFaultMap:
    @pytest.mark.parametrize("name", SETTINGS.benchmarks)
    def test_object_engine_matches_the_fault_free_run(
        self, zero_fault_session, name
    ):
        session = zero_fault_session
        trace = session.trace(name)
        block = session.build_pipeline(LV_BLOCK, 0, engine="object")
        for cache in (block.hierarchy.l1i, block.hierarchy.l1d):
            assert cache.usable_blocks == L1_GEOMETRY.num_blocks
        expected = session.build_pipeline(LV_BASELINE, engine="object").run(
            trace, measure_from=WARMUP
        )
        assert block.run(trace, measure_from=WARMUP) == expected

    @requires_kernel
    @pytest.mark.parametrize("name", SETTINGS.benchmarks)
    def test_lane_matches_the_fault_free_lane(self, zero_fault_session, name):
        session = zero_fault_session
        trace = session.trace(name)
        block = session.build_pipeline(LV_BLOCK, 0).kernel_lane()
        baseline = session.build_pipeline(LV_BASELINE).kernel_lane()
        assert block.enabled_i.all() and block.enabled_d.all()
        assert baseline.enabled_i is None and baseline.enabled_d is None
        expected = session.build_pipeline(LV_BASELINE, engine="object").run(
            trace, measure_from=WARMUP
        )
        results = OutOfOrderPipeline.run_batch(
            [block, baseline], trace, measure_from=WARMUP
        )
        assert results == [expected, expected]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pfail=st.sampled_from([1e-4, 5e-4, 1e-3, 2e-3]),
)
@settings(max_examples=25, deadline=None)
def test_adding_faults_never_enables_a_way(seed, pfail):
    scheme = SCHEMES.create("block-disable")
    fewer = FaultMap.generate(L1_GEOMETRY, pfail, seed=seed)
    extra = FaultMap.generate(L1_GEOMETRY, pfail, seed=seed + 1)
    more = FaultMap(L1_GEOMETRY, fewer.faults | extra.faults, pfail)
    enabled = scheme.configure(L1_GEOMETRY, fewer, VoltageMode.LOW).enabled_ways
    thinned = scheme.configure(L1_GEOMETRY, more, VoltageMode.LOW).enabled_ways
    assert not (thinned & ~enabled).any()


# ----- LRU's stack property ----------------------------------------------------

# Small geometries (as in the equivalence fuzz): 16 L1 sets, so random
# traces touch every set, thinned and disabled ones included.
SMALL_L1 = CacheGeometry(size_bytes=4 * 1024, ways=4, block_bytes=64)
SMALL_L2 = CacheGeometry(size_bytes=32 * 1024, ways=8, block_bytes=64)
SMALL_LATENCIES = LatencyConfig(l1i=3, l1d=3, victim=1, l2=12, memory=90)


@st.composite
def thinning_chains(draw) -> "list[tuple[np.ndarray | None, np.ndarray | None]]":
    """Nested ``(L1I, L1D)`` enabled-way matrices: every way first
    (``None``), then 1-3 thinnings, each clearing a random share of the
    ways the one before left; the last disables one whole set per side."""
    sets, ways = SMALL_L1.num_sets, SMALL_L1.ways
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    enabled = np.ones((2, sets, ways), dtype=bool)
    chain: list = [(None, None)]
    for _ in range(draw(st.integers(1, 3))):
        share = draw(st.sampled_from([0.1, 0.3, 0.6]))
        enabled = enabled & (rng.random(enabled.shape) > share)
        chain.append(tuple(enabled))
    last = enabled.copy()
    last[0, draw(st.integers(0, sets - 1))] = False
    last[1, draw(st.integers(0, sets - 1))] = False
    chain[-1] = tuple(last)
    return chain


STACK_CASES = given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=200, max_value=600),
    warm_frac=st.sampled_from([0.0, 0.3]),
    chain=thinning_chains(),
    victims=st.sampled_from([0, 8, 16]),
)


def _assert_misses_never_fall(results) -> None:
    for side in ("l1i", "l1d"):
        misses = [r.hierarchy_stats[side]["misses"] for r in results]
        assert misses == sorted(misses), (side, misses)


@requires_kernel
@STACK_CASES
@settings(max_examples=25, deadline=None)
def test_thinning_never_lowers_l1_misses_in_a_lane_pass(
    seed, n, warm_frac, chain, victims
):
    lanes = [
        KernelLane(
            PAPER_PIPELINE, SMALL_LATENCIES, (SMALL_L1, SMALL_L1, SMALL_L2),
            enabled_i, enabled_d, (victims, victims), 0,
        )
        for enabled_i, enabled_d in chain
    ]
    trace = random_trace(seed, n)
    _assert_misses_never_fall(
        OutOfOrderPipeline.run_batch(lanes, trace, measure_from=int(n * warm_frac))
    )


@STACK_CASES
@settings(max_examples=25, deadline=None)
def test_thinning_never_lowers_l1_misses_on_the_object_engine(
    seed, n, warm_frac, chain, victims
):
    trace = random_trace(seed, n)
    results = []
    for enabled_i, enabled_d in chain:
        hierarchy = MemoryHierarchy(
            SetAssociativeCache(SMALL_L1, enabled_ways=enabled_i, name="l1i"),
            SetAssociativeCache(SMALL_L1, enabled_ways=enabled_d, name="l1d"),
            SMALL_L2,
            SMALL_LATENCIES,
            victim_entries_i=victims,
            victim_entries_d=victims,
        )
        pipeline = OutOfOrderPipeline(PAPER_PIPELINE, hierarchy, engine="object")
        results.append(pipeline.run(trace, measure_from=int(n * warm_frac)))
    _assert_misses_never_fall(results)


# ----- fault maps nest across pfail ---------------------------------------------

NESTING_MAPS = range(6)
RISING_PFAILS = (0.0005, 0.001, 0.0015, 0.002)


@pytest.mark.parametrize("seed", [2010, 7])
def test_fault_maps_nest_across_pfail(seed):
    for index in NESTING_MAPS:
        lower = fault_map_pair(L1_GEOMETRY, 0.001, index, seed)
        higher = fault_map_pair(L1_GEOMETRY, 0.0015, index, seed)
        for low, high in ((lower.icache, higher.icache), (lower.dcache, higher.dcache)):
            assert not (low.faults & ~high.faults).any(), index
            assert 0 < low.faults.sum() < high.faults.sum(), index
    if seed == 2010:  # the draw itself: pair 3's I-cache map
        counts = [
            int(fault_map_pair(L1_GEOMETRY, pfail, 3, seed).icache.faults.sum())
            for pfail in (0.001, 0.0015)
        ]
        assert counts == [263, 400]


@requires_kernel
def test_rising_pfail_never_lowers_l1_misses_in_a_lane_pass():
    """One pass over gzip: for each map index, block-disabling lanes at
    rising pfail (the session's pfail picks the map's threshold)."""
    sessions = [
        Session(dataclasses.replace(SETTINGS, pfail=pfail)) for pfail in RISING_PFAILS
    ]
    lanes = [
        session._kernel_lane(LV_BLOCK, index)
        for index in NESTING_MAPS
        for session in sessions
    ]
    results = OutOfOrderPipeline.run_batch(
        lanes, sessions[0].trace("gzip"), measure_from=WARMUP
    )
    chain = len(RISING_PFAILS)
    for start in range(0, len(results), chain):
        rising = results[start : start + chain]
        _assert_misses_never_fall(rising)
        assert rising[-1].hierarchy_stats["l1d"]["misses"] > (
            rising[0].hierarchy_stats["l1d"]["misses"]
        )
