"""Cross-point lane passes: signatures, planning, group execution.

The planner merges every pending (config, fault-map) lane of a campaign
that shares a benchmark trace and a lane structure — across campaign
points and figures — into schedule passes, with the lane kernel or
without it.  These tests pin the grouping rules, the store
scatter/dedup, the schedule-pass accounting, and bit-identity against
per-point ``simulate`` calls.
"""

from __future__ import annotations

import pytest

from repro.campaign import PoolExecutor, Progress, RunnerSettings, Session
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
    LV_WORD,
)

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


def _plan_groups(session, configs):
    """The session's plan for ``configs`` as ``(config, map_index)``
    tuples, one per group."""
    plan = session.plan(session.spec(configs))
    return [
        tuple((item.config, item.map_index) for item in group.items)
        for group in plan.groups
    ]


@pytest.fixture()
def session() -> Session:
    return Session(SETTINGS)


@pytest.fixture(scope="module")
def reference() -> dict:
    """Sequential per-point results (one simulate call each) for every item."""
    sequential = Session(SETTINGS)
    return {
        (config.label, m): sequential.simulate("gzip", config, m)
        for config, m in _all_items(SETTINGS, CONFIGS)
    }


class TestSignatures:
    def test_structural_twins_share_a_signature(self, session):
        # Fault-free baseline lanes ride along with block-disabling maps.
        assert session.batch_signature(LV_BASELINE) == session.batch_signature(
            LV_BLOCK
        )

    def test_structural_differences_split(self, session):
        signatures = {
            session.batch_signature(c)
            for c in (LV_BLOCK, LV_WORD, LV_BLOCK_V10, LV_BLOCK_V6)
        }
        # word-disabling still splits off (+1-cycle L1 and halved cache);
        # the V$ rows (16/8/no entries) now pad to one slot axis and
        # share the block-disabling signature — two distinct batches.
        assert len(signatures) == 2
        assert (
            session.batch_signature(LV_BLOCK)
            == session.batch_signature(LV_BLOCK_V6)
            == session.batch_signature(LV_BLOCK_V10)
        )

    def test_signature_is_map_independent(self, session):
        structure0 = session.build_pipeline(LV_BLOCK, 0).kernel_lane().structure
        structure1 = session.build_pipeline(LV_BLOCK, 1).kernel_lane().structure
        assert structure0 == structure1 == session.batch_signature(LV_BLOCK)


class TestPlanning:
    def test_groups_merge_across_points(self, session):
        plan = _plan_groups(session, CONFIGS)
        merged = {tuple((c.label, m) for c, m in group) for group in plan}
        assert (
            ("baseline", None),
            ("block disabling", 0),
            ("block disabling", 1),
            ("block disabling+V$ 10T", 0),
            ("block disabling+V$ 10T", 1),
        ) in merged
        # Plans cover exactly the campaign's work items, once each.
        items = [item for group in plan for item in group]
        assert len(items) == len(list(_all_items(SETTINGS, CONFIGS)))

    def test_store_holes_are_dropped_first(self, session):
        session.simulate("gzip", LV_BLOCK, 0)
        plan = _plan_groups(session, (LV_BASELINE, LV_BLOCK))
        items = [item for group in plan for item in group]
        assert (LV_BLOCK, 0) not in items
        assert (LV_BLOCK, 1) in items

    def test_duplicate_configs_collapse(self, session):
        plan = _plan_groups(session, (LV_BLOCK, LV_BLOCK))
        items = [item for group in plan for item in group]
        assert len(items) == SETTINGS.n_fault_maps


class TestGroupExecution:
    def test_mixed_config_group_matches_sequential(self, session, reference):
        items = [(LV_BASELINE, None), (LV_BLOCK, 0), (LV_BLOCK, 1)]
        results = session.run_group("gzip", items)
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]
        # One vectorised pass, scattered to the per-point store keys.
        assert session.schedule_passes == 1
        for config, m in items:
            assert session.cached("gzip", config, m) == reference[
                (config.label, m)
            ]

    def test_heterogeneous_items_split_by_signature(self, session, reference):
        # A word-disabling lane among block-disabling ones must not trip
        # the engine's sequential fallback: it splits into its own
        # one-lane pass.
        items = [(LV_BLOCK, 0), (LV_WORD, None), (LV_BLOCK, 1)]
        results = session.run_group("gzip", items)
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]
        assert session.schedule_passes == 2  # one pass per signature

    def test_store_holes_in_the_middle_of_a_group(self, session, reference):
        session.store_result(
            "gzip", LV_BLOCK, 0, reference[("block disabling", 0)]
        )
        items = [(LV_BASELINE, None), (LV_BLOCK, 0), (LV_BLOCK, 1)]
        results = session.run_group("gzip", items)
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]
        assert session.simulations_executed == 2  # the hole was a pure hit

    def test_duplicate_items_simulate_once(self, session):
        items = [(LV_BLOCK, 0), (LV_BLOCK, 0), (LV_BLOCK, 1)]
        results = session.run_group("gzip", items)
        assert results[0] == results[1]
        assert session.simulations_executed == 2


class TestRunMega:
    def test_fewer_schedule_passes_than_points(self, session, reference):
        executed = session.run_all(session.spec(CONFIGS)).pending
        assert executed == len(list(_all_items(SETTINGS, CONFIGS)))
        points = len(CONFIGS) * len(SETTINGS.benchmarks)
        assert session.schedule_passes < points
        for config, m in _all_items(SETTINGS, CONFIGS):
            assert session.cached("gzip", config, m) == reference[
                (config.label, m)
            ]

    def test_rerun_is_pure_store_hits(self, session):
        session.run_all(session.spec(CONFIGS))
        executed = session.simulations_executed
        assert session.run_all(session.spec(CONFIGS)).pending == 0
        assert session.simulations_executed == executed

    def test_progress_reaches_total(self, session):
        calls = [
            (event.done, event.total)
            for event in session.run(session.spec(CONFIGS))
            if isinstance(event, Progress)
        ]
        assert calls
        assert calls[-1][0] == calls[-1][1] == len(
            list(_all_items(SETTINGS, CONFIGS))
        )


class TestParallelMega:
    def test_worker_batches_are_trace_groups(self, session):
        batches = session.plan(session.spec(CONFIGS)).worker_batches()
        flat = [task for batch in batches for task in batch]
        assert len(flat) == len(list(_all_items(SETTINGS, CONFIGS)))
        labels_per_batch = [
            {config.label for (_, config, _) in batch} for batch in batches
        ]
        # At least one dispatch unit spans several campaign points.
        assert any(len(labels) > 1 for labels in labels_per_batch)

    def test_parallel_prefill_matches_sequential(self, reference):
        parallel = Session(SETTINGS)
        executed = parallel.run_all(
            parallel.spec(CONFIGS), executor=PoolExecutor(2)
        ).pending
        assert executed == len(list(_all_items(SETTINGS, CONFIGS)))
        for config, m in _all_items(SETTINGS, CONFIGS):
            assert parallel.cached("gzip", config, m) == reference[
                (config.label, m)
            ]
        # Workers' schedule-pass counters aggregate into the parent.
        points = len(CONFIGS) * len(SETTINGS.benchmarks)
        assert 0 < parallel.schedule_passes < points
