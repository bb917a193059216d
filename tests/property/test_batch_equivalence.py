"""Property-based equivalence: lane-kernel runs vs the object engine.

The compiled lane kernel promises bit-identity with the object engine on
*any* trace, not just the generator's benchmark profiles.  Hypothesis
drives randomly-structured traces — arbitrary class mixes, register
patterns, branch shapes, and memory streams — through both engines
across heterogeneous victim-cache lanes and asserts the results are
equal, cycles and statistics alike.  Further suites fuzz the hierarchies
themselves — thinned, single-way and fully-disabled L1 sets in some
lanes only, 0/8/16-entry victim caches — and the whole kernel-eligible
space: pipeline widths, FU pools, ring sizes, front-end depths, cache
geometries and latencies, trace lengths and warmup boundaries, through
both ``run()`` and ``run_batch()``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.campaign import RunnerSettings, Session
from repro.cpu import lane_kernel
from repro.cpu.config import PAPER_PIPELINE, PipelineConfig
from repro.cpu.isa import NO_REGISTER, InstrClass
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.cpu.trace import Trace
from repro.experiments.configs import LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10
from repro.faults.geometry import CacheGeometry

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=3,
    benchmarks=("gzip",),
)

SESSION = Session(SETTINGS)

requires_kernel = pytest.mark.skipif(
    lane_kernel.load() is None, reason="no compiled lane kernel on this host"
)

#: (config, map_index) lanes mixing victim sizings (0/8/16 entries) so
#: every example also exercises the padded victim slot axis.
LANE_ITEMS = (
    (LV_BLOCK, 0),
    (LV_BLOCK_V6, 1),
    (LV_BLOCK_V10, 2),
)


def random_trace(seed: int, n: int) -> Trace:
    """A structurally-arbitrary committed-instruction trace: random
    class mix, dependence patterns, jumpy control flow, and a memory
    stream with a little locality (so hits and misses both occur)."""
    rng = random.Random(seed)
    trace = Trace(name=f"prop-{seed}")
    pc = 0x1000
    mem_bases = [rng.randrange(0, 1 << 18) << 6 for _ in range(4)]
    targets = [0x1000 + 4 * rng.randrange(0, 4 * n) for _ in range(8)]
    classes = list(InstrClass)
    for _ in range(n):
        cls = rng.choice(classes)
        mem_addr = -1
        taken = False
        if cls.is_memory:
            mem_addr = rng.choice(mem_bases) + 4 * rng.randrange(0, 256)
        src1 = rng.randrange(0, 64) if rng.random() < 0.8 else NO_REGISTER
        src2 = rng.randrange(0, 64) if rng.random() < 0.4 else NO_REGISTER
        dest = rng.randrange(0, 64) if rng.random() < 0.6 else NO_REGISTER
        if cls.is_control:
            taken = rng.random() < 0.6
        trace.append(pc, cls, mem_addr, src1, src2, dest, taken)
        pc = rng.choice(targets) if taken else pc + 4
    return trace


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=200, max_value=800),
    warm_frac=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=15, deadline=None)
def test_batched_matches_sequential_on_random_traces(seed, n, warm_frac):
    trace = random_trace(seed, n)
    measure_from = int(n * warm_frac)
    sequential = [
        SESSION.build_pipeline(config, m, engine="object").run(
            trace, measure_from=measure_from
        )
        for config, m in LANE_ITEMS
    ]
    pipelines = [SESSION.build_pipeline(config, m) for config, m in LANE_ITEMS]
    batched = OutOfOrderPipeline.run_batch(
        pipelines, trace, measure_from=measure_from
    )
    assert batched == sequential


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_same_map_lanes_agree_on_random_traces(seed):
    """Identical lanes through one batch must produce identical results
    (catches any cross-lane state bleed in the lane kernel)."""
    trace = random_trace(seed, 400)
    pipelines = [SESSION.build_pipeline(LV_BLOCK, 0) for _ in range(3)]
    results = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=0)
    assert results[0] == results[1] == results[2]


# Small geometries (as in the golden stress scenarios): 16 L1 sets, so
# the random traces above touch every set, disabled ones included.
SMALL_L1 = CacheGeometry(size_bytes=4 * 1024, ways=4, block_bytes=64)
SMALL_L2 = CacheGeometry(size_bytes=32 * 1024, ways=8, block_bytes=64)
SMALL_LATENCIES = LatencyConfig(l1i=3, l1d=3, victim=1, l2=12, memory=90)


@st.composite
def thinned_ways(draw) -> np.ndarray:
    """An L1 enabled-way matrix with random thinning, at least one
    fully-disabled set (its fills bypass) and one single-way set."""
    sets, ways = SMALL_L1.num_sets, SMALL_L1.ways
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    enabled = rng.random((sets, ways)) > draw(st.sampled_from([0.2, 0.5]))
    off, single = draw(
        st.lists(st.integers(0, sets - 1), min_size=2, max_size=2, unique=True)
    )
    enabled[off] = False
    enabled[single] = False
    enabled[single, draw(st.integers(0, ways - 1))] = True
    return enabled


VICTIM_SIZES = st.sampled_from([0, 8, 16])
#: (enabled_i, enabled_d, victim entries); ``None`` is an unthinned L1.
LANE = st.tuples(st.none() | thinned_ways(), st.none() | thinned_ways(), VICTIM_SIZES)
#: Every batch mixes an unthinned lane with a thinned one, so some fills
#: are bypassed in some lanes only.
LANES = st.tuples(
    st.tuples(st.none(), st.none(), VICTIM_SIZES),
    st.tuples(thinned_ways(), thinned_ways(), VICTIM_SIZES),
    st.lists(LANE, max_size=2),
).map(lambda drawn: [drawn[0], drawn[1], *drawn[2]])


def _small_pipeline(lane, engine: str) -> OutOfOrderPipeline:
    enabled_i, enabled_d, victim_entries = lane
    hierarchy = MemoryHierarchy(
        SetAssociativeCache(SMALL_L1, enabled_ways=enabled_i, name="l1i", seed=5),
        SetAssociativeCache(SMALL_L1, enabled_ways=enabled_d, name="l1d", seed=6),
        SetAssociativeCache(SMALL_L2, name="l2", seed=7),
        SMALL_LATENCIES,
        victim_entries_i=victim_entries,
        victim_entries_d=victim_entries,
    )
    return OutOfOrderPipeline(PAPER_PIPELINE, hierarchy, engine=engine)


@requires_kernel
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=200, max_value=600),
    warm_frac=st.sampled_from([0.0, 0.3]),
    lanes=LANES,
)
@settings(max_examples=25, deadline=None)
def test_fuzzed_hierarchies_match_the_object_engine(seed, n, warm_frac, lanes):
    trace = random_trace(seed, n)
    measure_from = int(n * warm_frac)
    expected = [
        _small_pipeline(lane, "object").run(trace, measure_from=measure_from)
        for lane in lanes
    ]
    pipelines = [_small_pipeline(lane, "fused") for lane in lanes]
    assert OutOfOrderPipeline._can_run_batch(pipelines)
    batched = OutOfOrderPipeline.run_batch(
        pipelines, trace, measure_from=measure_from
    )
    assert batched == expected


# ----- the whole kernel-eligible space ---------------------------------------

#: Commit widths 3 and 5 take the kernel's non-power-of-two ROB-bound
#: branch; widths are drawn from them half the time.
WIDTH = st.integers(1, 8)
COMMIT_WIDTH = st.sampled_from([3, 5]) | WIDTH
POOL = st.integers(1, 5)

PIPELINE_CONFIGS = st.builds(
    PipelineConfig,
    fetch_width=WIDTH,
    issue_width=WIDTH,
    commit_width=COMMIT_WIDTH,
    int_alu_units=POOL,
    int_mul_units=POOL,
    fp_alu_units=POOL,
    fp_mul_units=POOL,
    rob_entries=st.integers(4, 128),
    iq_int_entries=st.integers(1, 40),
    iq_fp_entries=st.integers(1, 40),
    frontend_stages=st.integers(0, 7),
)

WAYS = st.sampled_from([1, 2, 4, 8])
BLOCK_BYTES = st.sampled_from([32, 64, 128])


@st.composite
def geometries(draw, sets: "tuple[int, ...]") -> CacheGeometry:
    ways = draw(WAYS)
    block_bytes = draw(BLOCK_BYTES)
    return CacheGeometry(
        size_bytes=draw(st.sampled_from(sets)) * ways * block_bytes,
        ways=ways,
        block_bytes=block_bytes,
    )


LATENCIES = st.builds(
    LatencyConfig,
    l1i=st.integers(1, 4),
    l1d=st.integers(1, 4),
    victim=st.integers(0, 2),
    l2=st.integers(0, 25),
    memory=st.integers(0, 120),
)


@st.composite
def eligible_lanes(draw) -> "tuple[PipelineConfig, list]":
    """A pipeline config plus 1-3 lanes of hierarchy factories sharing
    every structural parameter of the batch key: geometries and
    latencies agree, thinning and victim sizes differ per lane."""
    config = draw(PIPELINE_CONFIGS)
    l1i_geometry = draw(geometries((4, 8, 16, 32, 64)))
    l1d_geometry = draw(geometries((4, 8, 16, 32, 64)))
    l2_geometry = draw(geometries((16, 32, 64, 128)))
    latencies = draw(LATENCIES)

    def l1(geometry, name):
        thinning = draw(st.sampled_from([None, 0.2, 0.5, 0.9]))
        if thinning is None:
            return lambda: SetAssociativeCache(geometry, name=name)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        enabled = rng.random((geometry.num_sets, geometry.ways)) > thinning
        return lambda: SetAssociativeCache(geometry, enabled_ways=enabled, name=name)

    lanes = []
    for _ in range(draw(st.integers(1, 3))):
        make_i, make_d = l1(l1i_geometry, "l1i"), l1(l1d_geometry, "l1d")
        victims = draw(st.sampled_from([0, 1, 8, 16]))
        lanes.append(
            lambda make_i=make_i, make_d=make_d, victims=victims: MemoryHierarchy(
                make_i(),
                make_d(),
                l2_geometry,
                latencies,
                victim_entries_i=victims,
                victim_entries_d=victims,
            )
        )
    return config, lanes


@requires_kernel
@given(
    drawn=eligible_lanes(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=700),
    boundary=st.sampled_from(["start", "third", "last"]),
)
@settings(max_examples=300, deadline=None)
def test_eligible_space_matches_the_object_engine(drawn, seed, n, boundary):
    config, lanes = drawn
    trace = random_trace(seed, n)
    measure_from = {"start": 0, "third": n // 3, "last": n - 1}[boundary]
    expected = [
        OutOfOrderPipeline(config, make(), engine="object").run(
            trace, measure_from=measure_from
        )
        for make in lanes
    ]
    single = [OutOfOrderPipeline(config, make()) for make in lanes]
    assert all(p.batch_key() is not None for p in single)
    assert [p.run(trace, measure_from=measure_from) for p in single] == expected
    batch = [OutOfOrderPipeline(config, make()) for make in lanes]
    assert OutOfOrderPipeline._can_run_batch(batch)
    assert OutOfOrderPipeline.run_batch(
        batch, trace, measure_from=measure_from
    ) == expected
