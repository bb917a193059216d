"""The compiled lane kernel: gating, routing, caching, and bit-identity
with the object engine.

The kernel is an optional accelerator — ``REPRO_NO_CKERNEL=1``, a
missing compiler, or a failed build must all leave behaviour unchanged,
with every pipeline on the object loop.  These tests pin the load gates
and which runs reach the kernel, and, when a kernel is available, drive
the same lanes through the kernel and through ``engine="object"`` and
require byte-identical results (cycles and every statistic).
"""

from __future__ import annotations

import gc
import os

import pytest
from kernel_toolchain import BuildFailureChecks, GatingChecks

from repro import ckernel
from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.campaign import RunnerSettings, Session
from repro.cpu import lane_kernel
from repro.cpu.config import L1_GEOMETRY, L2_GEOMETRY, LOW_VOLTAGE
from repro.cpu.isa import InstrClass
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.cpu.trace import Trace
from repro.experiments.configs import (
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
    """``(results, pipelines)`` for ``(config, map_index)`` lanes: one
    kernel pass by default, one object-loop run per lane with
    ``engine="object"``."""
    trace = session.trace(benchmark)
    pipelines = [session.build_pipeline(c, m, engine=engine) for c, m in items]
    if engine == "object":
        results = [p.run(trace, measure_from=WARMUP) for p in pipelines]
    else:
        results = OutOfOrderPipeline.run_batch(
            pipelines, trace, measure_from=WARMUP
        )
    return results, pipelines


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
    caches' LRU order: what a pass leaves behind besides statistics."""
    state = [
        (list(c._tags), list(c._dirty), c._resident)
        for c in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
    ]
    for victim in (hierarchy.victim_i, hierarchy.victim_d):
        state.append(None if victim is None else list(victim._tags))
    return state


class TestGating(GatingChecks):
    kernel = lane_kernel

    def test_ctx_layout_is_dense_and_unique(self):
        slots = sorted(lane_kernel.CTX.values())
        assert len(slots) == len(set(slots))
        assert max(slots) < lane_kernel.CTX_SLOTS


@kernel_available
class TestKernelVsFallback:
    """The kernel against its fallback, the object engine."""

    @pytest.mark.parametrize(
        "config", [LV_BLOCK, LV_BLOCK_V10, LV_INCREMENTAL]
    )
    def test_results_bit_identical(self, session, config, monkeypatch):
        items = [(config, m) for m in range(SETTINGS.n_fault_maps)]
        with_kernel, _ = _run_batch(session, items)
        assert with_kernel == _run_batch(session, items, engine="object")[0]
        # REPRO_NO_CKERNEL sends the same batch through the object loop.
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        assert lane_kernel.load() is None
        assert _run_batch(session, items)[0] == with_kernel

    def test_hierarchy_state_writeback_matches(self, session):
        """Both engines must leave identical cache statistics and
        contents behind on every lane's hierarchy (the post-batch
        warm-reuse contract)."""
        items = [(LV_BLOCK, m) for m in range(SETTINGS.n_fault_maps)]
        _, with_kernel = _run_batch(session, items)
        _, reference = _run_batch(session, items, engine="object")
        for pk, po in zip(with_kernel, reference):
            assert pk.hierarchy.stats() == po.hierarchy.stats()
            for ck, co in zip(
                (pk.hierarchy.l1i, pk.hierarchy.l1d, pk.hierarchy.l2),
                (po.hierarchy.l1i, po.hierarchy.l1d, po.hierarchy.l2),
            ):
                assert ck._tags == co._tags and ck._dirty == co._dirty
                assert ck._resident == co._resident

    @pytest.mark.parametrize(
        "config", [LV_BLOCK, LV_BLOCK_V10, LV_BLOCK_V6, LV_INCREMENTAL]
    )
    def test_prewarmed_hierarchies_match_the_object_engine(self, session, config):
        """A kernel pass over hierarchies that already hold contents —
        dirty blocks, victim entries, recency from another benchmark —
        beside a pristine lane, copies them in and writes them back
        exactly like the object engine.  A second, object-loop pass
        over both sides then checks the written-back recency, which
        orders every later LRU decision."""
        warm, trace = session.trace("mcf"), session.trace("gzip")
        sides = {}
        for engine in ("fused", "object"):
            pipelines = [
                session.build_pipeline(config, m, engine=engine)
                for m in range(SETTINGS.n_fault_maps)
            ]
            for m, p in enumerate(pipelines):
                _warm(p.hierarchy, warm, 1_500 * m)  # lane 0 stays pristine
            if engine == "object":
                first = [p.run(trace, measure_from=WARMUP) for p in pipelines]
            else:
                assert OutOfOrderPipeline._can_run_batch(pipelines)
                first = OutOfOrderPipeline.run_batch(
                    pipelines, trace, measure_from=WARMUP
                )
                # Written back in place: the collector still reaches no
                # per-way object (an ``array`` visits only its type).
                for p in pipelines:
                    for c in (p.hierarchy.l1i, p.hierarchy.l1d, p.hierarchy.l2):
                        for buffer in (c._tags, c._dirty, c._last_touch, c._fill_time):
                            assert all(
                                isinstance(r, type) for r in gc.get_referents(buffer)
                            )
            contents = [_contents(p.hierarchy) for p in pipelines]
            second = [p.run(trace, measure_from=WARMUP) for p in pipelines]
            sides[engine] = (first, contents, second)
        assert sides["fused"] == sides["object"]

    def test_chained_passes_over_one_hierarchy(self, session):
        """Fresh pipelines chained over one hierarchy, each a kernel pass,
        keep matching the object engine.  (Regression: the stamp base was
        twice the caches' clock, so stamps doubled every pass; from about
        pass 52 they passed ``BIG_STAMP`` and LRU started picking
        disabled ways.)"""
        columns = session.trace("mcf").to_arrays()
        trace = Trace(**{k: v[:500] for k, v in columns.items()}, name="mcf")
        hierarchies = {
            engine: session.build_pipeline(LV_BLOCK, 0, engine=engine).hierarchy
            for engine in ("fused", "object")
        }
        for _ in range(64):
            kernel_result, object_result = (
                OutOfOrderPipeline(session.pipeline_config, h, engine=engine).run(
                    trace, measure_from=100
                )
                for engine, h in hierarchies.items()
            )
            assert kernel_result == object_result
        assert _contents(hierarchies["fused"]) == _contents(hierarchies["object"])

    def test_padded_heterogeneous_victims(self, session):
        """A mixed 0/8/16-entry victim batch exercises the padded slot
        axis of the kernel's miss service."""
        items = [(LV_BLOCK, 0), (LV_BLOCK_V6, 0), (LV_BLOCK_V10, 0), (LV_BLOCK_V10, 1)]
        with_kernel, _ = _run_batch(session, items)
        assert with_kernel == _run_batch(session, items, engine="object")[0]


class _CountingKernel:
    """Wraps the function ``lane_kernel.load()`` returns, counting calls."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.calls = 0

    def __call__(self, ctx_ptr) -> None:
        self.calls += 1
        self.kernel(ctx_ptr)


@kernel_available
class TestRouting:
    """Exactly the pipelines with a batch key run in the kernel; ``run``
    drives it directly, never through ``run_batch``."""

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
        assert pipeline.batch_key() is not None
        pipeline.run(session.trace("gzip"), measure_from=WARMUP)
        assert counter.calls == 2  # warmup prefix, then the measured region

    def _assert_object_loop(self, pipeline, session, counter) -> None:
        assert pipeline.batch_key() is None
        pipeline.run(session.trace("gzip"), measure_from=WARMUP)
        assert counter.calls == 0

    def test_prefetcher_runs_in_the_kernel(self, session, counter):
        pipeline = OutOfOrderPipeline(
            session.pipeline_config, self._hierarchy(prefetch_degree=1)
        )
        assert pipeline.batch_key() is not None
        pipeline.run(session.trace("gzip"), measure_from=WARMUP)
        assert counter.calls == 2  # warmup prefix, then the measured region

    def test_fifo_l1_runs_the_object_loop(self, session, counter):
        l1d = SetAssociativeCache(L1_GEOMETRY, policy="fifo", name="l1d")
        pipeline = OutOfOrderPipeline(session.pipeline_config, self._hierarchy(l1d=l1d))
        self._assert_object_loop(pipeline, session, counter)

    def test_block_disabled_l2_runs_the_object_loop(self, session, counter):
        enabled = [[w != 0 for w in range(L2_GEOMETRY.ways)]] * L2_GEOMETRY.num_sets
        l2 = SetAssociativeCache(L2_GEOMETRY, enabled_ways=enabled, name="l2")
        pipeline = OutOfOrderPipeline(session.pipeline_config, self._hierarchy(l2=l2))
        self._assert_object_loop(pipeline, session, counter)

    def test_reused_pipeline_runs_the_object_loop(self, session, counter):
        pipeline = session.build_pipeline(LV_BLOCK, 0)
        pipeline.run(session.trace("gzip"), measure_from=WARMUP)
        counter.calls = 0
        self._assert_object_loop(pipeline, session, counter)

    def test_object_engine_runs_the_object_loop(self, session, counter):
        pipeline = session.build_pipeline(LV_BLOCK, 0, engine="object")
        self._assert_object_loop(pipeline, session, counter)

    def test_env_override_runs_the_object_loop(self, session, counter, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        pipeline = session.build_pipeline(LV_BLOCK, 0)
        self._assert_object_loop(pipeline, session, counter)


@kernel_available
class TestBuildCache:
    def test_shared_object_cached_by_source_hash(self):
        path = os.path.join(ckernel.cache_dir(), lane_kernel.KERNEL.object_name())
        assert os.path.exists(path), "kernel loaded but no cached shared object found"


class TestBuildFailureWarning(BuildFailureChecks):
    kernel = lane_kernel
    fallback = "object loop"
