"""The compiled lane kernel: gating, routing, caching, and bit-identity
with the object engine.

The kernel is an optional accelerator — ``REPRO_NO_CKERNEL=1``, a
missing compiler, or a failed build must all leave behaviour unchanged,
with every pipeline on the object loop.  These tests pin the load gates
and which runs reach the kernel, and, when a kernel is available, drive
the same lanes through the kernel and through ``engine="object"`` and
require byte-identical results (cycles and every statistic), and
require a lane's result not to depend on its place in a pass, nor on
how many threaded slices the pass runs as.
"""

from __future__ import annotations

import dataclasses
import itertools
import os

import numpy as np
import pytest
from kernel_toolchain import BuildFailureChecks, GatingChecks

from repro import ckernel
from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.prefetch import NextLinePrefetcher
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import HierarchyStats
from repro.campaign import RunnerSettings, Session
from repro.cpu import lane_kernel
from repro.cpu import pipeline as pipeline_mod
from repro.cpu.config import L1_GEOMETRY, L2_GEOMETRY, LOW_VOLTAGE
from repro.cpu.isa import InstrClass
from repro.cpu.pipeline import OutOfOrderPipeline, kernel_slices
from repro.cpu.trace import Trace
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
)

SETTINGS = RunnerSettings(
    n_instructions=4_000,
    warmup_instructions=1_000,
    n_fault_maps=4,
    benchmarks=("gzip",),
)
WARMUP = SETTINGS.warmup_instructions

kernel_available = pytest.mark.skipif(
    lane_kernel.load() is None, reason="no compiled lane kernel on this host"
)


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(SETTINGS)


def _run_batch(session, items, engine="fused", benchmark="gzip"):
    """Results for ``(config, map_index)`` lanes: one kernel pass over the
    pipelines' kernel lanes by default, one object-loop run per lane with
    ``engine="object"``."""
    trace = session.trace(benchmark)
    pipelines = [session.build_pipeline(c, m, engine=engine) for c, m in items]
    if engine == "object":
        return [p.run(trace, measure_from=WARMUP) for p in pipelines]
    lanes = [p.kernel_lane() for p in pipelines]
    assert None not in lanes
    return OutOfOrderPipeline.run_batch(lanes, trace, measure_from=WARMUP)


def _warm(hierarchy: MemoryHierarchy, trace: Trace, count: int) -> None:
    """Drive the first ``count`` instructions of ``trace`` through the
    object hierarchy: every fetch, load and store (stores dirty blocks)."""
    i_shift = hierarchy.l1i.geometry.offset_bits
    d_shift = hierarchy.l1d.geometry.offset_bits
    for pc, cls, addr in zip(
        trace.pc[:count].tolist(),
        trace.iclass[:count].tolist(),
        trace.mem_addr[:count].tolist(),
    ):
        hierarchy.access_instruction(pc >> i_shift)
        if cls in (InstrClass.LOAD, InstrClass.STORE):
            hierarchy.access_data(addr >> d_shift, cls == InstrClass.STORE)


def _contents(hierarchy: MemoryHierarchy) -> list:
    """Every cache's tags, dirty bits and residency, and the victim
    caches' LRU order: what a run leaves behind besides statistics."""
    state = [
        (list(c._tags), list(c._dirty), c._resident)
        for c in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
    ]
    for victim in (hierarchy.victim_i, hierarchy.victim_d):
        state.append(None if victim is None else list(victim._tags))
    return state


class TestGating(GatingChecks):
    kernel = lane_kernel

    def test_pack_refuses_a_mistyped_array_by_field_name(self):
        with pytest.raises(TypeError, match=r"^ip\.tags must be a contiguous int64"):
            lane_kernel.ARGS.pack(ip={"tags": np.zeros((4, 2, 2), dtype=np.int32)})

    def test_pack_refuses_a_non_contiguous_array_by_field_name(self):
        with pytest.raises(TypeError, match="^cls must be a contiguous int8"):
            lane_kernel.ARGS.pack(cls=np.zeros(16, dtype=np.int8)[::2])


@kernel_available
class TestKernelVsFallback:
    """The kernel against its fallback, the object engine."""

    @pytest.mark.parametrize(
        "config", [LV_BLOCK, LV_BLOCK_V10, LV_INCREMENTAL]
    )
    def test_results_bit_identical(self, session, config, monkeypatch):
        items = [(config, m) for m in range(SETTINGS.n_fault_maps)]
        with_kernel = _run_batch(session, items)
        assert with_kernel == _run_batch(session, items, engine="object")
        # REPRO_NO_CKERNEL leaves the same pipelines their lanes, and
        # run_batch and run() both take the object loop at run time.
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        assert lane_kernel.load() is None
        assert _run_batch(session, items) == with_kernel
        pipelines = [session.build_pipeline(c, m) for c, m in items]
        trace = session.trace("gzip")
        assert [p.run(trace, measure_from=WARMUP) for p in pipelines] == with_kernel

    @pytest.mark.parametrize("measure_from", [0, WARMUP])
    def test_prewarmed_hierarchy_matches_the_object_engine(self, session, measure_from):
        """A hierarchy already driven through 1,500 mcf instructions has
        no kernel lane, so the default engine runs it on the object loop:
        its statistics accumulate over the warm-up like the object
        engine's (a kernel pass would count from zero)."""
        trace = session.trace("gzip")
        results = []
        for engine in ("fused", "object"):
            pipeline = session.build_pipeline(LV_BLOCK, 0, engine=engine)
            _warm(pipeline.hierarchy, session.trace("mcf"), 1_500)
            assert pipeline.kernel_lane() is None
            results.append(pipeline.run(trace, measure_from=measure_from))
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "config", [LV_BLOCK, LV_BLOCK_V10, LV_BLOCK_V6, LV_INCREMENTAL]
    )
    def test_prewarmed_hierarchies_match_the_object_engine(self, session, config):
        """Hierarchies that already hold contents — dirty blocks, victim
        entries, recency from another benchmark — beside a pristine lane:
        only the pristine lane has a kernel lane.  The warm lanes run the
        object loop, so their results, the contents they leave and a
        second, chained run all match the object engine's.  The pristine
        lane's kernel run matches too, leaves its hierarchy as built and
        refuses a second run."""
        warm, trace = session.trace("mcf"), session.trace("gzip")
        sides = {}
        for engine in ("fused", "object"):
            pipelines = [
                session.build_pipeline(config, m, engine=engine)
                for m in range(SETTINGS.n_fault_maps)
            ]
            for m, p in enumerate(pipelines):
                _warm(p.hierarchy, warm, 1_500 * m)  # lane 0 stays pristine
            sides[engine] = pipelines
        fused, reference = sides["fused"], sides["object"]
        assert [p.kernel_lane() is not None for p in fused] == [True] + [False] * (
            SETTINGS.n_fault_maps - 1
        )
        for p, q in zip(fused, reference):
            assert p.run(trace, measure_from=WARMUP) == q.run(trace, measure_from=WARMUP)
        for p, q in zip(fused[1:], reference[1:]):
            assert _contents(p.hierarchy) == _contents(q.hierarchy)
            assert p.run(trace, measure_from=WARMUP) == q.run(trace, measure_from=WARMUP)
        pristine = fused[0].hierarchy
        assert _contents(pristine) == _contents(session.build_pipeline(config, 0).hierarchy)
        assert pristine.stats() == HierarchyStats()
        with pytest.raises(RuntimeError, match='engine="object"'):
            fused[0].run(trace, measure_from=WARMUP)

    def test_padded_heterogeneous_victims(self, session):
        """A mixed 0/8/16-entry victim batch exercises the padded slot
        axis of the kernel's miss service."""
        items = [(LV_BLOCK, 0), (LV_BLOCK_V6, 0), (LV_BLOCK_V10, 0), (LV_BLOCK_V10, 1)]
        assert _run_batch(session, items) == _run_batch(session, items, engine="object")


@kernel_available
class TestSetMajorLanes:
    """Every lane of a pass keeps its copy of a cache set in one shared
    row of the set-major state (``[set, lane, way]``), so a lane's
    result must depend on neither its position in the pass nor its
    neighbours.  A heterogeneous pass — the fault-free baseline, then
    block disabling with no, 8- and 16-entry victim caches over every
    fault map — run in reversed and rotated lane order must permute its
    results the same way, and each result must equal its lane's one-lane
    pass.  A lane index that slips in any set-row base (the I or D
    probe, the prefetch target, the L2 probe, the L1 refill) moves
    state between lanes and breaks one of these."""

    ITEMS = [(LV_BASELINE, None)] + [
        (config, m)
        for m in range(SETTINGS.n_fault_maps)
        for config in (LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10)
    ]

    @pytest.mark.parametrize("prefetch_degree", [0, 2])
    def test_lane_order_permutes_results(self, session, prefetch_degree):
        trace = session.trace("gzip")
        lanes = [
            dataclasses.replace(
                session._kernel_lane(config, m), prefetch_degree=prefetch_degree
            )
            for config, m in self.ITEMS
        ]

        def run(order):
            return OutOfOrderPipeline.run_batch(
                [lanes[j] for j in order], trace, measure_from=WARMUP
            )

        n = len(lanes)
        results = run(range(n))
        # Lanes that agreed with each other could hide a slip.
        assert len({result.cycles for result in results}) == n
        for order in (range(n - 1, -1, -1), [(j + 5) % n for j in range(n)]):
            assert run(order) == [results[j] for j in order]
        assert [run([j])[0] for j in range(n)] == results


class _CountingKernel:
    """Wraps the function ``lane_kernel.load()`` returns, counting calls
    and recording each call's slice count and arrays."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.calls = 0
        self.slices: list[int] = []
        self.arrays: list[list[dict]] = []

    def __call__(self, args) -> None:
        self.calls += 1
        self.slices.append(args[0].slices)
        self.arrays.append(args._arrays)
        self.kernel(args)


@kernel_available
class TestRouting:
    """Exactly the pipelines with a kernel lane run in the kernel, when
    it loads; ``run`` drives it directly, never through ``run_batch``."""

    @pytest.fixture()
    def counter(self, monkeypatch):
        counting = _CountingKernel(lane_kernel.load())
        original_load = lane_kernel.load

        def load():
            return counting if original_load() is not None else None

        monkeypatch.setattr(lane_kernel, "load", load)
        return counting

    @pytest.fixture(autouse=True)
    def no_run_batch(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("run() went through run_batch")

        monkeypatch.setattr(OutOfOrderPipeline, "run_batch", staticmethod(forbidden))

    @staticmethod
    def _hierarchy(**kwargs) -> MemoryHierarchy:
        kwargs.setdefault("l1i", SetAssociativeCache(L1_GEOMETRY, name="l1i"))
        kwargs.setdefault("l1d", SetAssociativeCache(L1_GEOMETRY, name="l1d"))
        kwargs.setdefault("l2", L2_GEOMETRY)
        return MemoryHierarchy(latencies=LOW_VOLTAGE.latencies(), **kwargs)

    def test_block_disabling_runs_in_the_kernel(self, session, counter):
        pipeline = session.build_pipeline(LV_BLOCK, 0)
        assert pipeline.kernel_lane() is not None
        pipeline.run(session.trace("gzip"), measure_from=WARMUP)
        assert counter.calls == 2  # warmup prefix, then the measured region

    def _assert_object_loop(self, pipeline, session, counter) -> None:
        pipeline.run(session.trace("gzip"), measure_from=WARMUP)
        assert counter.calls == 0

    def test_prefetcher_runs_in_the_kernel(self, session, counter):
        pipeline = OutOfOrderPipeline(
            session.pipeline_config, self._hierarchy(prefetch_degree=1)
        )
        assert pipeline.kernel_lane() is not None
        pipeline.run(session.trace("gzip"), measure_from=WARMUP)
        assert counter.calls == 2  # warmup prefix, then the measured region

    def test_block_disabled_l2_runs_the_object_loop(self, session, counter):
        enabled = [[w != 0 for w in range(L2_GEOMETRY.ways)]] * L2_GEOMETRY.num_sets
        l2 = SetAssociativeCache(L2_GEOMETRY, enabled_ways=enabled, name="l2")
        pipeline = OutOfOrderPipeline(session.pipeline_config, self._hierarchy(l2=l2))
        assert pipeline.kernel_lane() is None
        self._assert_object_loop(pipeline, session, counter)

    def test_unmodelled_prefetcher_runs_the_object_loop(self, session, counter):
        """The kernel models exactly ``NextLinePrefetcher``: a subclass
        that prefetches one line further on runs the object loop and
        matches the object engine."""

        class SkipLinePrefetcher(NextLinePrefetcher):
            def _issue(self, block_addr: int) -> None:
                super()._issue(block_addr + 1)

        def build(engine):
            hierarchy = self._hierarchy()
            hierarchy.dport.prefetcher = SkipLinePrefetcher(hierarchy.l1d)
            return OutOfOrderPipeline(session.pipeline_config, hierarchy, engine=engine)

        trace = session.trace("gzip")
        pipeline = build("fused")
        assert pipeline.kernel_lane() is None
        result = pipeline.run(trace, measure_from=WARMUP)
        assert counter.calls == 0
        assert result == build("object").run(trace, measure_from=WARMUP)

    def test_unequal_prefetch_degrees_run_the_object_loop(self, session, counter):
        """A lane has one prefetch degree for both L1s, as a
        ``MemoryHierarchy`` builds them: a D-side prefetcher added by
        hand beside none on the I side runs the object loop and matches
        the object engine."""

        def build(engine):
            hierarchy = self._hierarchy()
            hierarchy.dport.prefetcher = NextLinePrefetcher(hierarchy.l1d, 2)
            return OutOfOrderPipeline(session.pipeline_config, hierarchy, engine=engine)

        trace = session.trace("gzip")
        pipeline = build("fused")
        assert pipeline.kernel_lane() is None
        result = pipeline.run(trace, measure_from=WARMUP)
        assert counter.calls == 0
        assert result == build("object").run(trace, measure_from=WARMUP)

    def test_reused_pipeline_runs_the_object_loop(self, session, counter):
        """A hierarchy one fetch has touched runs the object loop, and a
        second run chains from the first's state on the object loop too,
        as an ``engine="object"`` pipeline's runs do."""
        trace = session.trace("gzip")
        fused, reference = (
            session.build_pipeline(LV_BLOCK, 0, engine=engine)
            for engine in ("fused", "object")
        )
        for p in (fused, reference):
            p.hierarchy.access_instruction(1 << 30)
        assert fused.kernel_lane() is None
        self._assert_object_loop(fused, session, counter)  # the first run
        reference.run(trace, measure_from=WARMUP)
        assert fused.run(trace, measure_from=WARMUP) == reference.run(
            trace, measure_from=WARMUP
        )
        assert counter.calls == 0

    @pytest.mark.parametrize("touch", ["victim-lookup", "prefetch-tags"])
    def test_touch_without_a_clock_runs_the_object_loop(self, session, counter, touch):
        """State that moves no cache clock still touches a hierarchy: a
        victim probe that only counts statistics, or stale prefetch tags
        on the trace's data blocks.  Either runs the object loop and
        matches the object engine.  Stale tags change the timing a kernel
        pass (which starts from nothing) would report; the probe's
        statistics do not reach the result, which counts only the
        measured region."""
        trace = session.trace("gzip")

        def build(engine, touched=True):
            hierarchy = self._hierarchy(
                victim_entries_i=8, victim_entries_d=8, prefetch_degree=1
            )
            if touched and touch == "victim-lookup":
                hierarchy.victim_d.lookup(1 << 40)
            elif touched:
                is_mem = (trace.iclass == InstrClass.LOAD) | (
                    trace.iclass == InstrClass.STORE
                )
                blocks = trace.mem_addr[is_mem] >> hierarchy.l1d.geometry.offset_bits
                hierarchy.dport.prefetcher._tagged.update(blocks.tolist())
            return OutOfOrderPipeline(session.pipeline_config, hierarchy, engine=engine)

        pipeline = build("fused")
        assert [c._clock for c in (pipeline.hierarchy.l1i, pipeline.hierarchy.l1d)] == [0, 0]
        assert pipeline.kernel_lane() is None
        result = pipeline.run(trace, measure_from=0)
        assert counter.calls == 0
        assert result == build("object").run(trace, measure_from=0)
        untouched = build("fused", touched=False).run(trace, measure_from=0)
        assert (result == untouched) == (touch == "victim-lookup")

    def test_object_engine_runs_the_object_loop(self, session, counter):
        pipeline = session.build_pipeline(LV_BLOCK, 0, engine="object")
        assert pipeline.kernel_lane() is None
        self._assert_object_loop(pipeline, session, counter)

    def test_env_override_runs_the_object_loop(self, session, counter, monkeypatch):
        """Without the kernel a pipeline keeps its lane; ``run`` picks
        the object loop when it runs."""
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        pipeline = session.build_pipeline(LV_BLOCK, 0)
        assert pipeline.kernel_lane() is not None
        self._assert_object_loop(pipeline, session, counter)


@kernel_available
class TestSlices:
    """A pass split into threaded kernel slices (contiguous lane ranges,
    each with its own cache state and pass arrays, run in one kernel
    call) gives the unsplit pass's results, and the object engine's, at
    every slice count: 4 is more than most hosts' CPUs, and 3 and 4
    split these seven lanes unevenly."""

    #: Victim-less lanes first: from two slices on, the first slice has
    #: no victim cache beside slices padding 0-, 8- and 16-entry ones.
    ITEMS = [
        (LV_BLOCK, 0), (LV_BLOCK, 1), (LV_BLOCK, 2), (LV_BLOCK_V6, 0),
        (LV_BLOCK_V10, 1), (LV_BLOCK_V6, 2), (LV_BLOCK_V10, 3),
    ]
    #: Fields every slice reads from the one trace, schedule and class
    #: tables; every other array is the slice's own.
    SHARED = {
        "execlat", "fuof", "poolw", "cls", "src1", "src2", "dest", "mem_addr",
        "sps", "ia_idx", "ia_lines", "rd_idx", "rd_snext",
    }

    @pytest.fixture()
    def counter(self, monkeypatch):
        """Force a slice count (the slice rule looked up at call time)
        and count the kernel's calls."""
        counting = _CountingKernel(lane_kernel.load())
        monkeypatch.setattr(lane_kernel, "load", lambda: counting)

        def force(k: int) -> _CountingKernel:
            monkeypatch.setattr(
                pipeline_mod, "kernel_slices", lambda lanes, instructions: k
            )
            counting.calls = 0
            counting.slices.clear()
            counting.arrays.clear()
            return counting

        return force

    def _lanes(self, session, prefetch_degree: int = 0) -> list:
        return [
            dataclasses.replace(
                session._kernel_lane(config, m), prefetch_degree=prefetch_degree
            )
            for config, m in self.ITEMS
        ]

    @pytest.mark.parametrize("prefetch_degree", [0, 2])
    @pytest.mark.parametrize("measure_from", [0, WARMUP])
    def test_every_slice_count_matches_the_object_engine(
        self, session, counter, prefetch_degree, measure_from
    ):
        trace = session.trace("gzip")
        lanes = self._lanes(session, prefetch_degree)
        expected = [lane.pipeline("object").run(trace, measure_from) for lane in lanes]
        assert len({result.cycles for result in expected}) > 1
        for k in (1, 2, 3, 4):
            counter(k)
            assert OutOfOrderPipeline.run_batch(lanes, trace, measure_from) == expected

    @pytest.mark.parametrize("measure_from, calls", [(0, 1), (WARMUP, 2)])
    def test_a_sliced_pass_is_one_kernel_call_per_phase(
        self, session, counter, measure_from, calls
    ):
        lanes = self._lanes(session)
        for k in (1, 2, 3, 4, 99):
            counting = counter(k)
            OutOfOrderPipeline.run_batch(lanes, session.trace("gzip"), measure_from)
            # Python bounds the count the kernel trusts by the lanes.
            assert counting.slices == [min(k, len(lanes))] * calls

    def test_slices_share_no_writable_memory(self, session, counter):
        counting = counter(3)
        OutOfOrderPipeline.run_batch(
            self._lanes(session, prefetch_degree=1), session.trace("gzip"), WARMUP
        )
        slices = counting.arrays[0]
        assert len(slices) == 3
        for name in self.SHARED:  # one schedule, one trace, per pass
            assert all(arrays[name] is slices[0][name] for arrays in slices)
        own = [
            [array for name, array in arrays.items() if name not in self.SHARED]
            for arrays in slices
        ]
        assert {"tags", "tset", "vtags"} <= {
            name.split(".")[-1] for name in slices[2]
        }
        for first, second in itertools.combinations(own, 2):
            for a, b in itertools.product(first, second):
                assert not np.shares_memory(a, b)


class TestSliceRule:
    """``kernel_slices``: one slice per ``SLICE_WORK`` lane-instructions,
    within the CPU budget and the lanes."""

    def test_one_lane_and_short_narrow_passes_stay_whole(self, cpus):
        cpus(64)
        assert kernel_slices(1, 100_000_000) == 1  # every run() pass
        # suite_cold's passes: at most five lanes of 6,250 instructions
        assert [kernel_slices(lanes, 6_250) for lanes in range(1, 6)] == [1] * 5

    def test_a_wide_pass_splits_over_two_cpus(self, cpus):
        cpus(2)
        # lanes50_warm's passes: 20-21 lanes, or one, of 25,000 instructions
        assert [kernel_slices(lanes, 25_000) for lanes in (1, 20, 21)] == [1, 2, 2]

    @pytest.mark.parametrize("budget", [1, 2, 3, 8])
    def test_never_more_than_the_budget_or_the_lanes(self, cpus, budget):
        cpus(budget)
        for lanes in range(1, 30):
            for instructions in (0, 1, 6_250, 25_000, 10**6):
                k = kernel_slices(lanes, instructions)
                assert 1 <= k <= min(budget, lanes)


@kernel_available
class TestBuildCache:
    def test_shared_object_cached_by_source_hash(self):
        path = os.path.join(ckernel.cache_dir(), lane_kernel.KERNEL.object_name())
        assert os.path.exists(path), "kernel loaded but no cached shared object found"


class TestBuildFailureWarning(BuildFailureChecks):
    kernel = lane_kernel
    fallback = "object loop"
