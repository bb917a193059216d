"""Property-based equivalence: fused/batched runs vs per-op sequential.

The lane-batched engine (and, where available, the compiled lane
kernel riding inside it) promises bit-identity with N sequential fused
runs on *any* trace, not just the generator's benchmark profiles.
Hypothesis drives randomly-structured traces — arbitrary class mixes,
register patterns, branch shapes, and memory streams — through both
paths across heterogeneous victim-cache lanes and asserts the results
are equal, cycles and statistics alike.  A second suite fuzzes the
hierarchies themselves — thinned, single-way and fully-disabled L1 sets
in some lanes only, 0/8/16-entry victim caches — against the object
engine, with the compiled lane kernel and on the NumPy fallback.
"""

from __future__ import annotations

import os
import random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cpu.config import PAPER_PIPELINE
from repro.cpu.isa import NO_REGISTER, InstrClass
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.cpu.trace import Trace
from repro.experiments.configs import LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10
from repro.experiments.runner import ExperimentRunner, RunnerSettings
from repro.faults.geometry import CacheGeometry

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=3,
    benchmarks=("gzip",),
)

RUNNER = ExperimentRunner(SETTINGS)

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
        RUNNER.build_pipeline(config, m).run(trace, measure_from=measure_from)
        for config, m in LANE_ITEMS
    ]
    pipelines = [RUNNER.build_pipeline(config, m) for config, m in LANE_ITEMS]
    batched = OutOfOrderPipeline.run_batch(
        pipelines, trace, measure_from=measure_from, min_lanes=1
    )
    assert batched == sequential


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_same_map_lanes_agree_on_random_traces(seed):
    """Identical lanes through one batch must produce identical results
    (catches any cross-lane state bleed in the fused kernels)."""
    trace = random_trace(seed, 400)
    pipelines = [RUNNER.build_pipeline(LV_BLOCK, 0) for _ in range(3)]
    results = OutOfOrderPipeline.run_batch(
        pipelines, trace, measure_from=0, min_lanes=1
    )
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
    for no_kernel in ("", "1"):  # the C kernel (when built), then NumPy
        with mock.patch.dict(os.environ, {"REPRO_NO_CKERNEL": no_kernel}):
            pipelines = [_small_pipeline(lane, "fused") for lane in lanes]
            assert OutOfOrderPipeline._can_run_batch(pipelines)
            batched = OutOfOrderPipeline.run_batch(
                pipelines, trace, measure_from=measure_from, min_lanes=1
            )
        assert batched == expected, f"REPRO_NO_CKERNEL={no_kernel!r}"
