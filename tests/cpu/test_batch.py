"""Lane-batched execution: equivalence, eligibility, and reuse.

The lane kernel's contract is bit-identity with N sequential runs of the
object engine — cycles and every statistic.  These tests drive
heterogeneous lane mixes (different fault maps, different victim
sizings) as pipelines' kernel lanes, the warmup boundary, the
pipelines that have no lane and run the object loop, and what a second
run of a pipeline does on either engine.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.cache.hierarchy import LatencyConfig
from repro.cache.stats import HierarchyStats
from repro.campaign import RunnerSettings, Session
from repro.cpu import lane_kernel
from repro.cpu.config import L1_GEOMETRY, PipelineConfig
from repro.cpu.frontend import frontend_schedule
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.cpu.trace import Trace
from repro.experiments.configs import (
    HV_BASELINE,
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
    LV_WORD,
)
from repro.workloads.generator import generate_trace

#: For the tests that pin what the kernel's own pass does.
requires_kernel = pytest.mark.skipif(
    lane_kernel.load() is None, reason="no compiled lane kernel on this host"
)

SETTINGS = RunnerSettings(
    n_instructions=4_000,
    warmup_instructions=1_000,
    n_fault_maps=4,
    benchmarks=("gzip", "applu"),
)
WARMUP = SETTINGS.warmup_instructions


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(SETTINGS)


def _sequential(session, config, indices, benchmark="gzip"):
    """The reference: one object-engine run per lane."""
    trace = session.trace(benchmark)
    return [
        session.build_pipeline(config, m, engine="object").run(
            trace, measure_from=WARMUP
        )
        for m in indices
    ]


def _lanes(session, items):
    """The ``kernel_lane()`` of each ``(config, map_index)`` item's
    freshly built pipeline."""
    lanes = [session.build_pipeline(c, m).kernel_lane() for c, m in items]
    assert None not in lanes
    return lanes


def _batched(session, config, indices, benchmark="gzip"):
    trace = session.trace(benchmark)
    lanes = _lanes(session, [(config, m) for m in indices])
    return OutOfOrderPipeline.run_batch(lanes, trace, measure_from=WARMUP)


@requires_kernel
@pytest.mark.parametrize(
    "config", [LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10, LV_INCREMENTAL]
)
def test_lanes_match_sequential_runs(session, config):
    indices = range(SETTINGS.n_fault_maps)
    assert _batched(session, config, indices) == _sequential(
        session, config, indices
    )


@requires_kernel
def test_mixed_victim_sizes_batch_vectorised(session):
    """Lanes with different victim sizings (0/8/16 entries) pad to one
    slot axis and batch as a single vectorised group — bit-identical to
    their sequential runs."""
    trace = session.trace("gzip")
    lanes = _lanes(
        session,
        [(LV_BLOCK, 0), (LV_BLOCK_V6, 0), (LV_BLOCK_V6, 1), (LV_BLOCK_V10, 0),
         (LV_BLOCK_V10, 1)],
    )
    results = OutOfOrderPipeline.run_batch(lanes, trace, measure_from=WARMUP)
    assert results[0] == _sequential(session, LV_BLOCK, [0])[0]
    assert results[1:3] == _sequential(session, LV_BLOCK_V6, [0, 1])
    assert results[3:] == _sequential(session, LV_BLOCK_V10, [0, 1])


@requires_kernel
def test_mixed_latencies_fall_back(session):
    """Word-disabling's +1-cycle L1 makes its lanes latency-incompatible
    with the baseline: the lane structures differ, the two lanes refuse
    to share a pass rather than mis-share state, and each pipeline runs
    alone."""
    trace = session.trace("gzip")
    items = [(LV_BASELINE, None), (LV_WORD, None)]
    baseline, word = (session.build_pipeline(c, m) for c, m in items)
    assert baseline.kernel_lane().structure != word.kernel_lane().structure
    with pytest.raises(ValueError, match="share"):
        OutOfOrderPipeline.run_batch(_lanes(session, items), trace, measure_from=WARMUP)
    assert baseline.run(trace, measure_from=WARMUP) == _sequential(
        session, LV_BASELINE, [None]
    )[0]
    assert word.run(trace, measure_from=WARMUP) == _sequential(
        session, LV_WORD, [None]
    )[0]


def test_fault_disabled_l2_falls_back(session):
    """The bulk L2 refill has no fill-bypass port, so pipelines over a
    fault-disabled L2 have no kernel lane: each runs the object loop,
    matching the object engine exactly."""
    import numpy as np

    from repro.cache.hierarchy import MemoryHierarchy
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.cpu.config import L1_GEOMETRY, L2_GEOMETRY, LOW_VOLTAGE

    trace = session.trace("gzip")

    def build(engine="fused"):
        rng = np.random.default_rng(3)
        enabled = rng.random((L2_GEOMETRY.num_sets, L2_GEOMETRY.ways)) > 0.3
        hierarchy = MemoryHierarchy(
            SetAssociativeCache(L1_GEOMETRY, name="l1i"),
            SetAssociativeCache(L1_GEOMETRY, name="l1d"),
            SetAssociativeCache(L2_GEOMETRY, enabled_ways=enabled, name="l2"),
            LOW_VOLTAGE.latencies(),
        )
        return OutOfOrderPipeline(session.pipeline_config, hierarchy, engine=engine)

    pipelines = [build(), build()]
    assert [p.kernel_lane() for p in pipelines] == [None, None]
    results = [p.run(trace, measure_from=WARMUP) for p in pipelines]
    assert results[0] == build("object").run(trace, measure_from=WARMUP)
    assert results[0] == results[1]


def test_reused_pipeline_falls_back(session, monkeypatch):
    """A default-engine pipeline that ran the object loop (here with the
    kernel switched off) has no lane afterwards, kernel or not: its
    second run chains on the object loop from the state the first left,
    exactly like an ``engine="object"`` pipeline's second run."""
    trace = session.trace("gzip")
    reference = session.build_pipeline(LV_BLOCK_V6, 0, engine="object")
    expected = [reference.run(trace, measure_from=WARMUP) for _ in range(2)]
    warm = session.build_pipeline(LV_BLOCK_V6, 0)
    with monkeypatch.context() as patched:
        patched.setenv("REPRO_NO_CKERNEL", "1")
        first = warm.run(trace, measure_from=WARMUP)
    assert warm.kernel_lane() is None
    assert [first, warm.run(trace, measure_from=WARMUP)] == expected
    assert expected[1] != expected[0]  # the second run starts warm


def test_empty_batch():
    assert OutOfOrderPipeline.run_batch([], None) == []


def test_kernel_lanes_are_validated(session):
    """Kernel lanes are refused where pipelines would get no lane (a
    zero-cycle front end), for a negative or missing victim size or a
    negative prefetch degree (at construction, before any pointer
    reaches C), for an enabled-way matrix of the wrong shape, and when
    the lanes of one pass differ in structure (word-disabling's halved,
    slower L1 beside block-disabling), whichever engine runs the pass.
    ``run_batch`` takes lanes, not pipelines."""
    lane = session._kernel_lane(LV_BLOCK, 0)
    trace = session.trace("gzip")
    with pytest.raises(ValueError, match="front-end depth"):
        dataclasses.replace(
            lane,
            config=PipelineConfig(frontend_stages=0),
            latencies=LatencyConfig(l1i=0),
        )
    for bad in ((-1, 0), (0, -1), (8,)):
        with pytest.raises(ValueError, match="victim_entries"):
            dataclasses.replace(lane, victim_entries=bad)
    with pytest.raises(ValueError, match="prefetch_degree"):
        dataclasses.replace(lane, prefetch_degree=-1)
    with pytest.raises(TypeError, match="kernel_lane"):
        OutOfOrderPipeline.run_batch(
            [session.build_pipeline(LV_BLOCK, 0)], trace, measure_from=WARMUP
        )
    short = dataclasses.replace(lane, enabled_d=lane.enabled_d[:-1])
    with pytest.raises(ValueError, match="does not match"):
        OutOfOrderPipeline.run_batch([short], trace, measure_from=WARMUP)
    word = session._kernel_lane(LV_WORD, None)
    with pytest.raises(ValueError, match="share"):
        OutOfOrderPipeline.run_batch([lane, word], trace, measure_from=WARMUP)


@requires_kernel
def test_measure_from_zero_and_validation(session):
    trace = session.trace("applu")
    lanes = _lanes(session, [(LV_BLOCK, m) for m in range(2)])
    cold = OutOfOrderPipeline.run_batch(lanes, trace, measure_from=0)
    expected = [
        session.build_pipeline(LV_BLOCK, m, engine="object").run(
            trace, measure_from=0
        )
        for m in range(2)
    ]
    assert cold == expected
    with pytest.raises(ValueError):
        OutOfOrderPipeline.run_batch(lanes, trace, len(trace))


@requires_kernel
@pytest.mark.parametrize(
    "where", ["first", "second", "middle", "last", "redirect", "memory"]
)
@pytest.mark.parametrize("prefetch_degree", [0, 2])
def test_a_pass_counts_its_measured_region_at_every_edge(
    session, where, prefetch_degree
):
    """The schedule holds no count of a measured region: a pass counts
    its predictions, mispredictions and I- and D-accesses from the
    schedule's index columns and the trace's classes.  At the first
    instruction, the second, mid-trace, the last one, a redirecting
    (mispredicted) one and a load or store, they equal the object
    loop's, which resets its own counters at the boundary."""
    trace = session.trace("gzip")
    n = len(trace)
    lanes = [
        dataclasses.replace(lane, prefetch_degree=prefetch_degree)
        for lane in _lanes(session, [(LV_BASELINE, None), (LV_BLOCK_V10, 1)])
    ]
    redirects = frontend_schedule(
        trace, lanes[0].config, lanes[0].geometries[0].offset_bits
    ).redirect_index[:-1]
    memory = np.flatnonzero((trace.iclass == 4) | (trace.iclass == 5))
    warmup = {
        "first": 0, "second": 1, "middle": n // 2, "last": n - 1,
        "redirect": int(redirects[len(redirects) // 2]),
        "memory": int(memory[len(memory) // 2]),
    }[where]
    results = OutOfOrderPipeline.run_batch(lanes, trace, measure_from=warmup)
    for lane, got in zip(lanes, results):
        expected = lane.pipeline("object").run(trace, measure_from=warmup)
        assert got.branch_predictions == expected.branch_predictions
        assert got.branch_mispredictions == expected.branch_mispredictions
        for cache in ("l1i", "l1d"):
            assert (
                got.hierarchy_stats[cache]["accesses"]
                == expected.hierarchy_stats[cache]["accesses"]
            ), cache
        assert got == expected


@requires_kernel
def test_mixed_scheme_lanes_batch_vectorised(session):
    """Lanes need not share a configuration: the fault-free baseline and
    block-disabling fault maps share one lane structure (same latencies,
    geometries, prefetch degree), so the planner may drive them as one
    vectorised pass — bit-identical to their sequential runs."""
    trace = session.trace("gzip")
    pipelines = [
        session.build_pipeline(LV_BASELINE, None),
        session.build_pipeline(LV_BLOCK, 0),
        session.build_pipeline(LV_BLOCK, 1),
    ]
    lanes = [p.kernel_lane() for p in pipelines]
    assert lanes[0].structure == lanes[1].structure
    results = OutOfOrderPipeline.run_batch(lanes, trace, measure_from=WARMUP)
    assert results[0] == _sequential(session, LV_BASELINE, [None])[0]
    assert results[1:] == _sequential(session, LV_BLOCK, [0, 1])


@requires_kernel
def test_reused_pipeline_has_no_kernel_lane(session):
    """A kernel run leaves the pipeline as built — every clock 0, every
    statistic zero — and uses it up: no lane, and a second run raises,
    pointing at the object engine."""
    trace = session.trace("gzip")
    warm = session.build_pipeline(LV_BLOCK, 0)
    assert warm.kernel_lane() is not None
    warm.run(trace, measure_from=WARMUP)
    hierarchy = warm.hierarchy
    assert [c._clock for c in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)] == [0] * 3
    assert hierarchy.stats() == HierarchyStats()
    assert warm.kernel_lane() is None
    with pytest.raises(RuntimeError, match='engine="object"'):
        warm.run(trace, measure_from=WARMUP)


@requires_kernel
def test_high_voltage_lanes(session):
    """Fault-free lanes (identical contents) batch too — the degenerate
    but common normalisation-baseline case."""
    expected = _sequential(session, HV_BASELINE, [None, None], benchmark="applu")
    assert (
        _batched(session, HV_BASELINE, [None, None], benchmark="applu")
        == expected
    )


@requires_kernel
def test_partially_warm_victim_cache_appends_before_evicting(session):
    """A victim cache pre-filled only through ``VictimCache.insert`` (no
    cache clock moves) makes the hierarchy touched: the pipeline has no
    lane and runs the object loop, where inserts land in empty slots
    first (append semantics), never evicting warm entries while capacity
    remains — exactly as on ``engine="object"``."""
    trace = session.trace("gzip")

    def prefilled(m, engine="fused"):
        # Seed both victim caches with blocks the trace will not touch
        # (high addresses), leaving most slots empty.
        pipeline = session.build_pipeline(LV_BLOCK_V10, m, engine=engine)
        for victim in (pipeline.hierarchy.victim_i, pipeline.hierarchy.victim_d):
            victim.insert((1 << 40) + 1)
            victim.insert((1 << 40) + 2)
        return pipeline

    for m in range(2):
        pipeline = prefilled(m)
        assert pipeline.kernel_lane() is None
        assert pipeline.run(trace, measure_from=WARMUP) == prefilled(
            m, engine="object"
        ).run(trace, measure_from=WARMUP)


def _repeated(trace: Trace, times: int) -> Trace:
    """``trace`` played ``times`` over: the footprint stays the same, so
    cache contents stop growing after one play."""
    return Trace(
        **{name: np.tile(column, times) for name, column in trace.to_arrays().items()},
        name=f"{trace.name}x{times}",
    )


@requires_kernel
def test_lane_memory_does_not_grow_with_trace_length(session):
    """Per-lane statistics live in O(lanes) counters: the memory 24 extra
    lanes cost must not grow with trace length (per-event mask rows grew
    by a few bytes per lane per instruction)."""
    short = generate_trace("gzip", 1_000, seed=5)
    traces = {1: short, 4: _repeated(short, 4)}

    def batch(times: int, lanes: int):
        kernel_lanes = _lanes(
            session, [(LV_BLOCK_V10, m % SETTINGS.n_fault_maps) for m in range(lanes)]
        )
        return lambda: OutOfOrderPipeline.run_batch(
            kernel_lanes, traces[times], measure_from=250
        )

    def peak(times: int, lanes: int) -> int:
        run = batch(times, lanes)
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for times in traces:  # memoised schedules and columns: built untraced
        batch(times, 8)()
    growth_32 = peak(4, 32) - peak(1, 32)
    growth_8 = peak(4, 8) - peak(1, 8)
    assert growth_32 - growth_8 < 100_000


@requires_kernel
def test_a_kernel_pass_allocates_nothing_of_the_trace_length(session):
    """The kernel reads the trace's own columns and computes ROB slots,
    issue-queue slots and D-cache blocks inline: a one-lane pass over a
    fresh 200k-instruction trace, its schedule memoised beforehand,
    retains nothing and peaks at the lane's cache state (about 0.55 MB,
    the 2 MB L2's tags and stamps).  Converted int64 columns, memoised
    on the trace, would retain 56 B per instruction (11.2 MB)."""
    n, warmup = 200_000, 50_000
    trace = generate_trace("mcf", n, seed=3)
    lane = _lanes(session, [(LV_BLOCK, 0)])[0]
    frontend_schedule(trace, lane.config, lane.geometries[0].offset_bits)
    tracemalloc.start()
    try:
        OutOfOrderPipeline.run_batch([lane], trace, measure_from=warmup)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 16 * 1024
    assert peak < 2 * 1024 * 1024


def test_a_schedule_build_retains_only_the_schedule(session):
    """Building the front-end schedule of a fresh 200k-instruction trace
    retains the schedule's own arrays (about 10 B per instruction) and
    under 64 KB beside them: ``_build_schedule``'s fetch lines, change
    mask and branch and call/return positions, memoised on the trace,
    would retain 10.4 B per instruction more (2.1 MB here)."""
    n = 200_000
    trace = generate_trace("mcf", n, seed=3)
    tracemalloc.start()
    try:
        schedule = frontend_schedule(
            trace, session.pipeline_config, L1_GEOMETRY.offset_bits
        )
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = sum(
        value.nbytes
        for value in vars(schedule).values()
        if isinstance(value, np.ndarray)
    )
    assert arrays > 8 * n
    assert retained < arrays + 64 * 1024
