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

import os
import subprocess
import warnings

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.campaign import RunnerSettings, Session
from repro.cpu import lane_kernel
from repro.cpu.config import L1_GEOMETRY, L2_GEOMETRY, LOW_VOLTAGE
from repro.cpu.pipeline import OutOfOrderPipeline
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


class TestGating:
    def test_env_override_disables_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        assert lane_kernel.load() is None

    def test_ctx_layout_is_dense_and_unique(self):
        slots = sorted(lane_kernel.CTX.values())
        assert len(slots) == len(set(slots))
        assert max(slots) < lane_kernel.CTX_SLOTS

    @kernel_available
    def test_kernel_memoised_per_process(self):
        assert lane_kernel.load() is lane_kernel.load()


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

    def test_prefetcher_runs_the_object_loop(self, session, counter):
        pipeline = OutOfOrderPipeline(
            session.pipeline_config, self._hierarchy(prefetch_degree=1)
        )
        self._assert_object_loop(pipeline, session, counter)

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
        cache_dir = os.environ.get("REPRO_KERNEL_CACHE") or os.path.join(
            __import__("tempfile").gettempdir(),
            f"repro-lane-kernel-{os.getuid()}",
        )
        objects = [
            name
            for name in os.listdir(cache_dir)
            if name.startswith("lane_kernel_") and name.endswith(".so")
        ]
        assert objects, "kernel loaded but no cached shared object found"


class TestBuildFailureWarning:
    @pytest.fixture(autouse=True)
    def fresh_build_state(self, monkeypatch, tmp_path):
        # Each test gets an empty kernel cache and pristine module state,
        # restored afterwards so other tests keep the real kernel.
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.setattr(lane_kernel, "_cached_fn", None)
        monkeypatch.setattr(lane_kernel, "_build_failed", False)
        monkeypatch.setattr(lane_kernel, "_warned", False)

    def test_gcc_failure_warns_once_with_stderr_tail(self, monkeypatch):
        def failing_gcc(*args, **kwargs):
            raise subprocess.CalledProcessError(
                1, ["gcc"], stderr=b"lane_kernel.c:1:1: error: something broke\n"
            )

        monkeypatch.setattr(lane_kernel.subprocess, "run", failing_gcc)
        with pytest.warns(RuntimeWarning, match="something broke"):
            assert lane_kernel.load() is None
        # One-shot: the failure is memoised and the warning never repeats.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert lane_kernel.load() is None

    def test_missing_compiler_warns_with_cause(self, monkeypatch):
        def no_gcc(*args, **kwargs):
            raise FileNotFoundError("No such file or directory: 'gcc'")

        monkeypatch.setattr(lane_kernel.subprocess, "run", no_gcc)
        with pytest.warns(RuntimeWarning, match="object loop"):
            assert lane_kernel.load() is None

    @kernel_available
    def test_concurrent_build_cannot_truncate_the_compiled_source(
        self, monkeypatch, tmp_path
    ):
        """Another worker building the same digest truncates the shared
        ``lane_kernel_<digest>.c`` just before this process's gcc runs.
        The build must not cache an object without the entry point."""
        shared_source = tmp_path / lane_kernel._object_name(
            lane_kernel._source()
        ).replace(".so", ".c")
        real_run = subprocess.run

        def racing_gcc(*args, **kwargs):
            shared_source.write_text("")  # the other worker's open(..., "w")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(lane_kernel.subprocess, "run", racing_gcc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lane_kernel.load() is not None

    @kernel_available
    def test_object_without_entry_point_falls_back_and_is_dropped(
        self, tmp_path
    ):
        bad = tmp_path / lane_kernel._object_name(lane_kernel._source())
        empty = tmp_path / "empty.c"
        empty.write_text("")
        subprocess.run(
            ["gcc", "-shared", "-fPIC", "-o", str(bad), str(empty)], check=True
        )
        with pytest.warns(RuntimeWarning, match="repro_run_lanes"):
            assert lane_kernel.load() is None
        assert not bad.exists()
