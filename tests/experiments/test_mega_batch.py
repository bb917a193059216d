"""Cross-point mega-batching: signatures, planning, group execution.

The mega-batch planner merges every pending (config, fault-map) lane of
a campaign that shares a benchmark trace and a pipeline batch signature
— across campaign points and figures — into one vectorised schedule
pass.  These tests pin the grouping rules, the store scatter/dedup, the
schedule-pass accounting, and bit-identity against the per-point path.
"""

from __future__ import annotations

import pytest

from repro.cpu import lane_kernel
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
    LV_WORD,
)
from repro.experiments.parallel import plan_worker_batches, prefill_cache
from repro.experiments.runner import ExperimentRunner, RunnerSettings

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

#: Several campaign points; baseline and block-disabling share structure
#: (same latencies, no victim cache), the rest split off by signature.
CONFIGS = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10, LV_INCREMENTAL)


def _all_items(settings, configs):
    for config in configs:
        if config.needs_fault_map:
            for m in range(settings.n_fault_maps):
                yield config, m
        else:
            yield config, None


#: Merging needs batch keys, which exist only with the compiled kernel.
requires_kernel = pytest.mark.skipif(
    lane_kernel.load() is None, reason="no compiled lane kernel on this host"
)


@pytest.fixture()
def runner() -> ExperimentRunner:
    return ExperimentRunner(SETTINGS)


@pytest.fixture(scope="module")
def reference() -> dict:
    """Sequential per-point results (the legacy path) for every item."""
    sequential = ExperimentRunner(SETTINGS, lanes=1, mega_batch=False)
    return {
        (config.label, m): sequential.run("gzip", config, m)
        for config, m in _all_items(SETTINGS, CONFIGS)
    }


class TestSignatures:
    def test_structural_twins_share_a_signature(self, runner):
        # Fault-free baseline lanes ride along with block-disabling maps.
        assert runner.batch_signature(LV_BASELINE) == runner.batch_signature(
            LV_BLOCK
        )

    @requires_kernel
    def test_structural_differences_split(self, runner):
        signatures = {
            runner.batch_signature(c)
            for c in (LV_BLOCK, LV_WORD, LV_BLOCK_V10, LV_BLOCK_V6)
        }
        # word-disabling still splits off (+1-cycle L1 and halved cache);
        # the V$ rows (16/8/no entries) now pad to one slot axis and
        # share the block-disabling signature — two distinct batches.
        assert len(signatures) == 2
        assert (
            runner.batch_signature(LV_BLOCK)
            == runner.batch_signature(LV_BLOCK_V6)
            == runner.batch_signature(LV_BLOCK_V10)
        )

    def test_signature_is_map_independent(self, runner):
        key0 = runner.build_pipeline(LV_BLOCK, 0).batch_key()
        key1 = runner.build_pipeline(LV_BLOCK, 1).batch_key()
        assert key0 == key1 == runner.batch_signature(LV_BLOCK)


class TestPlanning:
    @requires_kernel
    def test_groups_merge_across_points(self, runner):
        plan = runner.plan_mega_batches(CONFIGS)
        merged = {
            tuple((c.label, m) for c, m in group.items) for group in plan
        }
        assert (
            ("baseline", None),
            ("block disabling", 0),
            ("block disabling", 1),
            ("block disabling+V$ 10T", 0),
            ("block disabling+V$ 10T", 1),
        ) in merged
        # Plans cover exactly the campaign's work items, once each.
        items = [item for group in plan for item in group.items]
        assert len(items) == len(list(_all_items(SETTINGS, CONFIGS)))

    def test_store_holes_are_dropped_first(self, runner):
        runner.run("gzip", LV_BLOCK, 0)
        plan = runner.plan_mega_batches((LV_BASELINE, LV_BLOCK))
        items = [item for group in plan for item in group.items]
        assert (LV_BLOCK, 0) not in items
        assert (LV_BLOCK, 1) in items

    def test_mega_off_plans_per_point(self):
        runner = ExperimentRunner(SETTINGS, mega_batch=False)
        plan = runner.plan_mega_batches(CONFIGS)
        for group in plan:
            assert len({config.label for config, _ in group.items}) == 1

    def test_duplicate_configs_collapse(self, runner):
        plan = runner.plan_mega_batches((LV_BLOCK, LV_BLOCK))
        items = [item for group in plan for item in group.items]
        assert len(items) == SETTINGS.n_fault_maps


class TestGroupExecution:
    @requires_kernel
    def test_mixed_config_group_matches_sequential(self, runner, reference):
        items = [(LV_BASELINE, None), (LV_BLOCK, 0), (LV_BLOCK, 1)]
        results = runner.run_lane_group("gzip", items)
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]
        # One vectorised pass, scattered to the per-point store keys.
        assert runner.schedule_passes == 1
        for config, m in items:
            assert runner.cached("gzip", config, m) == reference[
                (config.label, m)
            ]

    @requires_kernel
    def test_heterogeneous_items_split_by_signature(self, runner, reference):
        # A word-disabling lane among block-disabling ones must not trip
        # the engine's sequential fallback: it splits into its own
        # (singleton, sequential) sub-batch.
        items = [(LV_BLOCK, 0), (LV_WORD, None), (LV_BLOCK, 1)]
        results = runner.run_lane_group("gzip", items)
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]
        assert runner.schedule_passes == 2  # one batched + one sequential

    def test_store_holes_in_the_middle_of_a_group(self, runner, reference):
        runner.store_result(
            "gzip", LV_BLOCK, 0, reference[("block disabling", 0)]
        )
        items = [(LV_BASELINE, None), (LV_BLOCK, 0), (LV_BLOCK, 1)]
        results = runner.run_lane_group("gzip", items)
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]
        assert runner.simulations_executed == 2  # the hole was a pure hit

    def test_explicit_single_lane_stays_sequential(self, reference):
        runner = ExperimentRunner(SETTINGS, lanes=1)
        items = [(LV_BASELINE, None), (LV_BLOCK, 0), (LV_BLOCK, 1)]

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("vectorised path used with lanes=1")

        original = OutOfOrderPipeline.run_batch
        OutOfOrderPipeline.run_batch = staticmethod(boom)
        try:
            results = runner.run_lane_group("gzip", items)
        finally:
            OutOfOrderPipeline.run_batch = original
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]

    def test_duplicate_items_simulate_once(self, runner):
        items = [(LV_BLOCK, 0), (LV_BLOCK, 0), (LV_BLOCK, 1)]
        results = runner.run_lane_group("gzip", items)
        assert results[0] == results[1]
        assert runner.simulations_executed == 2


class TestRunMega:
    @requires_kernel
    def test_fewer_schedule_passes_than_points(self, runner, reference):
        executed = runner.run_mega(CONFIGS)
        assert executed == len(list(_all_items(SETTINGS, CONFIGS)))
        points = len(CONFIGS) * len(SETTINGS.benchmarks)
        assert runner.schedule_passes < points
        for config, m in _all_items(SETTINGS, CONFIGS):
            assert runner.cached("gzip", config, m) == reference[
                (config.label, m)
            ]

    def test_rerun_is_pure_store_hits(self, runner):
        runner.run_mega(CONFIGS)
        executed = runner.simulations_executed
        assert runner.run_mega(CONFIGS) == 0
        assert runner.simulations_executed == executed

    def test_progress_reaches_total(self, runner):
        calls: list[tuple[int, int]] = []
        runner.run_mega(
            CONFIGS, progress=lambda done, total: calls.append((done, total))
        )
        assert calls
        assert calls[-1][0] == calls[-1][1] == len(
            list(_all_items(SETTINGS, CONFIGS))
        )


class TestParallelMega:
    @requires_kernel
    def test_worker_batches_are_trace_groups(self, runner):
        batches = plan_worker_batches(runner, CONFIGS)
        flat = [task for batch in batches for task in batch]
        assert len(flat) == len(list(_all_items(SETTINGS, CONFIGS)))
        labels_per_batch = [
            {config.label for (_, config, _) in batch} for batch in batches
        ]
        # At least one dispatch unit spans several campaign points.
        assert any(len(labels) > 1 for labels in labels_per_batch)

    @requires_kernel
    def test_parallel_prefill_matches_sequential(self, reference):
        parallel = ExperimentRunner(SETTINGS)
        executed = prefill_cache(parallel, CONFIGS, workers=2)
        assert executed == len(list(_all_items(SETTINGS, CONFIGS)))
        for config, m in _all_items(SETTINGS, CONFIGS):
            assert parallel.cached("gzip", config, m) == reference[
                (config.label, m)
            ]
        # Workers' schedule-pass counters aggregate into the parent.
        points = len(CONFIGS) * len(SETTINGS.benchmarks)
        assert 0 < parallel.schedule_passes < points
