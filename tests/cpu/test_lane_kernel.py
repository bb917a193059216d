"""The compiled lane kernel: gating, caching, and bit-identity with the
pure-NumPy fallback loop.

The kernel is an optional accelerator — ``REPRO_NO_CKERNEL=1``, a
missing compiler, or a failed build must all leave behaviour unchanged.
These tests pin the load gates and, when a kernel is available, drive
the same batches through both paths and require byte-identical results
(cycles and every statistic).
"""

from __future__ import annotations

import os
import subprocess
import warnings

import pytest

from repro.cpu import lane_kernel
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.experiments.configs import (
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
)
from repro.experiments.runner import ExperimentRunner, RunnerSettings

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
def runner() -> ExperimentRunner:
    return ExperimentRunner(SETTINGS)


def _run_batch(runner, config, indices, benchmark="gzip"):
    trace = runner.trace(benchmark)
    pipelines = [runner.build_pipeline(config, m) for m in indices]
    results = OutOfOrderPipeline.run_batch(
        pipelines, trace, measure_from=WARMUP, min_lanes=1
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
    @pytest.mark.parametrize(
        "config", [LV_BLOCK, LV_BLOCK_V10, LV_INCREMENTAL]
    )
    def test_results_bit_identical(self, runner, config, monkeypatch):
        indices = range(SETTINGS.n_fault_maps)
        with_kernel, _ = _run_batch(runner, config, indices)
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        assert lane_kernel.load() is None
        without, _ = _run_batch(runner, config, indices)
        assert with_kernel == without

    def test_hierarchy_state_writeback_matches(self, runner, monkeypatch):
        """Both paths must leave identical cache statistics behind on
        every lane's hierarchy (the post-batch warm-reuse contract)."""
        indices = range(SETTINGS.n_fault_maps)
        _, with_kernel = _run_batch(runner, LV_BLOCK, indices)
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        _, without = _run_batch(runner, LV_BLOCK, indices)
        for pk, pn in zip(with_kernel, without):
            assert pk.hierarchy.stats() == pn.hierarchy.stats()

    def test_padded_heterogeneous_victims(self, runner, monkeypatch):
        """A mixed 0/8/16-entry victim batch exercises the padded slot
        axis through the kernel's D-miss resume protocol."""
        trace = runner.trace("gzip")

        def build():
            return [
                runner.build_pipeline(LV_BLOCK, 0),
                runner.build_pipeline(LV_BLOCK_V6, 0),
                runner.build_pipeline(LV_BLOCK_V10, 0),
                runner.build_pipeline(LV_BLOCK_V10, 1),
            ]

        with_kernel = OutOfOrderPipeline.run_batch(
            build(), trace, measure_from=WARMUP, min_lanes=1
        )
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        without = OutOfOrderPipeline.run_batch(
            build(), trace, measure_from=WARMUP, min_lanes=1
        )
        assert with_kernel == without


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
        with pytest.warns(RuntimeWarning, match="NumPy lane loop"):
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
