"""Lane-batched execution: equivalence, fallbacks, and state write-back.

The lane kernel's contract is bit-identity with N sequential runs of the
object engine — cycles, every statistic, and the hierarchy state left
behind.  These tests drive heterogeneous lane mixes (different fault
maps, different victim sizings), the warmup boundary, the eligibility
fallbacks, and post-batch warm reuse.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.campaign import RunnerSettings, Session
from repro.cpu import lane_kernel
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

#: For the tests that need batch keys (which exist only with the kernel).
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


def _batched(session, config, indices, benchmark="gzip"):
    trace = session.trace(benchmark)
    pipelines = [session.build_pipeline(config, m) for m in indices]
    return OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=WARMUP)


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
    pipelines = [
        session.build_pipeline(LV_BLOCK, 0),
        session.build_pipeline(LV_BLOCK_V6, 0),
        session.build_pipeline(LV_BLOCK_V6, 1),
        session.build_pipeline(LV_BLOCK_V10, 0),
        session.build_pipeline(LV_BLOCK_V10, 1),
    ]
    assert OutOfOrderPipeline._can_run_batch(pipelines)
    results = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=WARMUP)
    assert results[0] == _sequential(session, LV_BLOCK, [0])[0]
    assert results[1:3] == _sequential(session, LV_BLOCK_V6, [0, 1])
    assert results[3:] == _sequential(session, LV_BLOCK_V10, [0, 1])


def test_mixed_latencies_fall_back(session):
    """Word-disabling's +1-cycle L1 makes its lanes latency-incompatible
    with the baseline; the batch must fall back, not mis-share state."""
    trace = session.trace("gzip")
    pipelines = [
        session.build_pipeline(LV_BASELINE, None),
        session.build_pipeline(LV_WORD, None),
    ]
    assert not OutOfOrderPipeline._can_run_batch(pipelines)
    results = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=WARMUP)
    assert results[0] == _sequential(session, LV_BASELINE, [None])[0]
    assert results[1] == _sequential(session, LV_WORD, [None])[0]


def test_fault_disabled_l2_falls_back(session):
    """The bulk L2 refill has no fill-bypass port, so hierarchies with a
    fault-disabled L2 must take the sequential fallback and still match
    per-lane runs exactly."""
    import numpy as np

    from repro.cache.hierarchy import MemoryHierarchy
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.cpu.config import L1_GEOMETRY, L2_GEOMETRY, LOW_VOLTAGE

    trace = session.trace("gzip")

    def build():
        rng = np.random.default_rng(3)
        enabled = rng.random((L2_GEOMETRY.num_sets, L2_GEOMETRY.ways)) > 0.3
        hierarchy = MemoryHierarchy(
            SetAssociativeCache(L1_GEOMETRY, name="l1i"),
            SetAssociativeCache(L1_GEOMETRY, name="l1d"),
            SetAssociativeCache(L2_GEOMETRY, enabled_ways=enabled, name="l2"),
            LOW_VOLTAGE.latencies(),
        )
        return OutOfOrderPipeline(session.pipeline_config, hierarchy)

    pipelines = [build(), build()]
    assert not OutOfOrderPipeline._can_run_batch(pipelines)
    results = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=WARMUP)
    reference = build()
    assert reference.batch_key() is None  # the object loop is the only engine
    assert results[0] == reference.run(trace, measure_from=WARMUP)
    assert results[0] == results[1]


def test_reused_pipeline_falls_back(session):
    trace = session.trace("gzip")
    warm = session.build_pipeline(LV_BLOCK, 0)
    warm.run(trace, measure_from=WARMUP)
    fresh = session.build_pipeline(LV_BLOCK, 1)
    assert not OutOfOrderPipeline._can_run_batch([warm, fresh])


def test_empty_batch():
    assert OutOfOrderPipeline.run_batch([], None) == []


def test_measure_from_zero_and_validation(session):
    trace = session.trace("applu")
    pipelines = [session.build_pipeline(LV_BLOCK, m) for m in range(2)]
    cold = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=0)
    expected = [
        session.build_pipeline(LV_BLOCK, m, engine="object").run(
            trace, measure_from=0
        )
        for m in range(2)
    ]
    assert cold == expected
    with pytest.raises(ValueError):
        OutOfOrderPipeline._run_lanes(
            [session.build_pipeline(LV_BLOCK, m) for m in range(2)],
            trace,
            len(trace),
        )


@requires_kernel
def test_mixed_scheme_lanes_batch_vectorised(session):
    """Lanes need not share a configuration: the fault-free baseline and
    block-disabling fault maps carry equal batch keys (same latencies,
    geometries, victim sizing), so the planner may drive them as one
    vectorised pass — bit-identical to their sequential runs."""
    trace = session.trace("gzip")
    pipelines = [
        session.build_pipeline(LV_BASELINE, None),
        session.build_pipeline(LV_BLOCK, 0),
        session.build_pipeline(LV_BLOCK, 1),
    ]
    assert pipelines[0].batch_key() == pipelines[1].batch_key() is not None
    assert OutOfOrderPipeline._can_run_batch(pipelines)
    results = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=WARMUP)
    assert results[0] == _sequential(session, LV_BASELINE, [None])[0]
    assert results[1:] == _sequential(session, LV_BLOCK, [0, 1])


@requires_kernel
def test_reused_pipeline_has_no_batch_key(session):
    warm = session.build_pipeline(LV_BLOCK, 0)
    assert warm.batch_key() is not None
    warm.run(session.trace("gzip"), measure_from=WARMUP)
    assert warm.batch_key() is None


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
    """A pre-filled victim cache must behave like the sequential list:
    inserts land in empty slots first (append semantics), never evicting
    warm entries while capacity remains."""
    trace = session.trace("gzip")

    def prefill(pipeline):
        # Seed both victim caches with blocks the trace will not touch
        # (high addresses), leaving most slots empty.
        for victim in (pipeline.hierarchy.victim_i, pipeline.hierarchy.victim_d):
            victim.insert((1 << 40) + 1)
            victim.insert((1 << 40) + 2)

    expected = []
    for m in range(2):
        p = session.build_pipeline(LV_BLOCK_V10, m, engine="object")
        prefill(p)
        expected.append(p.run(trace, measure_from=WARMUP))
    pipelines = [session.build_pipeline(LV_BLOCK_V10, m) for m in range(2)]
    for p in pipelines:
        prefill(p)
    assert OutOfOrderPipeline._can_run_batch(pipelines)
    results = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=WARMUP)
    assert results == expected
    for p, q in zip(pipelines, expected):
        assert p.hierarchy.stats().snapshot() == q.hierarchy_stats


def _repeated(trace: Trace, times: int) -> Trace:
    """``trace`` played ``times`` over: the footprint stays the same, so
    cache contents (and their write-back) stop growing after one play."""
    return Trace(
        pc=trace.pc * times,
        iclass=trace.iclass * times,
        mem_addr=trace.mem_addr * times,
        src1=trace.src1 * times,
        src2=trace.src2 * times,
        dest=trace.dest * times,
        taken=trace.taken * times,
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
        pipelines = [
            session.build_pipeline(LV_BLOCK_V10, m % SETTINGS.n_fault_maps)
            for m in range(lanes)
        ]
        return lambda: OutOfOrderPipeline.run_batch(
            pipelines, traces[times], measure_from=250
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


def test_batched_state_supports_warm_reuse(session):
    """After a batched run, each lane's hierarchy must behave exactly as
    if it had been run sequentially: a second (warm, object-loop) run
    over the same hierarchies stays bit-identical."""
    trace = session.trace("gzip")
    reference = []
    for m in range(2):
        p = session.build_pipeline(LV_BLOCK_V6, m, engine="object")
        reference.append(
            (p.run(trace, measure_from=WARMUP), p.run(trace, measure_from=WARMUP))
        )
    pipelines = [session.build_pipeline(LV_BLOCK_V6, m) for m in range(2)]
    first = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=WARMUP)
    for m, p in enumerate(pipelines):
        assert first[m] == reference[m][0]
        assert p.run(trace, measure_from=WARMUP) == reference[m][1]
        # The written-back residency index must agree with the tags.
        for cache in (p.hierarchy.l1i, p.hierarchy.l1d, p.hierarchy.l2):
            for block, index in cache._resident.items():
                assert cache._tags[index] == block >> cache._tag_shift
            assert len(cache.resident_blocks()) == sum(
                1 for t in cache._tags if t >= 0
            )
