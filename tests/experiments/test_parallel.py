"""Tests for the streaming process-pool campaign path."""

import os

from repro.campaign import plan as plan_module
from repro.campaign import (
    CampaignSpec,
    PoolExecutor,
    Progress,
    RunnerSettings,
    Session,
)
from repro.campaign.executors import adaptive_chunksize
from repro.experiments.ablation import run_studies
from repro.experiments.configs import LV_BASELINE, LV_BLOCK, LV_WORD
from repro.store import DiskStore

SMALL = RunnerSettings(
    n_instructions=3000,
    n_fault_maps=2,
    warmup_instructions=1000,
    benchmarks=("crafty", "swim"),
)


def work_items(configs):
    return list(CampaignSpec.from_settings(SMALL, configs).work_items())


def prefill(session, configs, executor=None) -> int:
    """Run the campaign for ``configs``; return how many points it executed."""
    return session.run_all(session.spec(configs), executor=executor).pending


def plan_batches(session, configs):
    """The pool's dispatch units for the plan of ``configs``."""
    return session.plan(session.spec(configs)).worker_batches()


class TestPlanning:
    def test_task_counts(self):
        tasks = work_items((LV_BASELINE, LV_WORD, LV_BLOCK))
        # 2 benchmarks x (1 baseline + 1 word + 2 block maps) = 8.
        assert len(tasks) == 8

    def test_deduplication(self):
        tasks = work_items((LV_BASELINE, LV_BASELINE))
        assert len(tasks) == 2

    def test_fault_free_configs_get_none_index(self):
        tasks = work_items((LV_WORD,))
        assert all(index is None for (_, _, index) in tasks)

    def test_fault_configs_enumerate_maps(self):
        tasks = work_items((LV_BLOCK,))
        indices = sorted(index for (b, _, index) in tasks if b == "crafty")
        assert indices == [0, 1]


class TestPrefill:
    def test_single_process_fallback(self):
        session = Session(SMALL)
        executed = prefill(session, (LV_BASELINE, LV_BLOCK), PoolExecutor(1))
        assert executed == 6  # 2 baseline + 4 block runs
        # Cache hit: a second call does nothing.
        assert prefill(session, (LV_BASELINE, LV_BLOCK), PoolExecutor(1)) == 0

    def test_parallel_matches_single_process(self):
        """Two workers produce bit-identical results to in-process runs."""
        serial = Session(SMALL)
        parallel = Session(SMALL)
        prefill(serial, (LV_BASELINE, LV_BLOCK))
        executed = prefill(parallel, (LV_BASELINE, LV_BLOCK), PoolExecutor(2))
        assert executed == 6
        for bench in SMALL.benchmarks:
            assert (
                serial.simulate(bench, LV_BASELINE).cycles
                == parallel.simulate(bench, LV_BASELINE).cycles
            )
            for m in range(SMALL.n_fault_maps):
                assert (
                    serial.simulate(bench, LV_BLOCK, m).cycles
                    == parallel.simulate(bench, LV_BLOCK, m).cycles
                )

    def test_figures_read_from_prefilled_cache(self):
        session = Session(SMALL)
        prefill(session, (LV_BASELINE, LV_WORD, LV_BLOCK), PoolExecutor(2))
        executed = session.simulations_executed
        series = session.normalized_series(LV_BLOCK, LV_BASELINE)
        assert len(series.average) == 2
        assert session.simulations_executed == executed

    def test_parallel_streams_into_disk_store(self, tmp_path):
        """Workers' results land in the persistent store and are
        bit-identical to the serial path."""
        serial = Session(SMALL)
        prefill(serial, (LV_BASELINE, LV_BLOCK))
        with DiskStore(tmp_path) as store:
            parallel = Session(SMALL, store=store)
            assert prefill(parallel, (LV_BASELINE, LV_BLOCK), PoolExecutor(2)) == 6
        reopened = Session(SMALL, store=DiskStore(tmp_path))
        for bench in SMALL.benchmarks:
            assert (
                reopened.simulate(bench, LV_BASELINE)
                == serial.simulate(bench, LV_BASELINE)
            )
            for m in range(SMALL.n_fault_maps):
                assert (
                    reopened.simulate(bench, LV_BLOCK, m)
                    == serial.simulate(bench, LV_BLOCK, m)
                )
        assert reopened.simulations_executed == 0

    def test_progress_callback_reaches_total(self):
        session = Session(SMALL)
        calls = [
            (event.done, event.total)
            for event in session.run(
                session.spec((LV_BASELINE, LV_BLOCK)), executor=PoolExecutor(2)
            )
            if isinstance(event, Progress)
        ]
        assert calls
        assert all(total == 6 for _, total in calls)
        dones = [done for done, _ in calls]
        assert dones == sorted(dones)
        assert dones[-1] == 6

    def test_prefill_counts_executions_on_runner(self):
        session = Session(SMALL)
        prefill(session, (LV_BASELINE, LV_BLOCK), PoolExecutor(2))
        assert session.simulations_executed == 6

    def test_plan_skips_stored_results(self):
        session = Session(SMALL)
        session.simulate("crafty", LV_BASELINE)
        plan = session.plan(session.spec((LV_BASELINE, LV_BLOCK)))
        tasks = [item.task for group in plan.groups for item in group.items]
        assert ("crafty", LV_BASELINE, None) not in tasks
        assert len(tasks) == 5


class TestBatchPlanning:
    def test_stored_lanes_excluded_before_grouping(self):
        session = Session(SMALL)
        session.simulate("crafty", LV_BLOCK, 0)
        batches = plan_batches(session, (LV_BLOCK,))
        crafty = [b for b in batches if b[0][0] == "crafty"]
        assert len(crafty) == 1
        assert [t[2] for t in crafty[0]] == [1]

    def test_lane_width_splits_groups(self, monkeypatch):
        monkeypatch.setattr(plan_module, "PASS_LANES", 1)
        session = Session(SMALL)
        batches = plan_batches(session, (LV_BLOCK,))
        assert all(len(b) == 1 for b in batches)
        assert sum(len(b) for b in batches) == 4  # 2 benchmarks x 2 maps


class TestChunking:
    def test_tiny_campaigns_checkpoint_every_task(self):
        assert adaptive_chunksize(4, 8) == 1
        assert adaptive_chunksize(8, 8) == 1

    def test_large_campaigns_amortise_dispatch(self):
        assert adaptive_chunksize(10_000, 8) == 8

    def test_mid_sized_campaigns_scale(self):
        assert 1 <= adaptive_chunksize(100, 8) <= 8


class TestStudies:
    def test_run_studies_parallel_matches_serial(self):
        # Two studies so workers=min(2, len) actually takes the pool branch.
        names = ["abl-l2", "abl-energy"]
        serial = run_studies(names, workers=1)
        parallel = run_studies(names, workers=2)
        assert serial.keys() == parallel.keys()
        for name in names:
            assert serial[name].series == parallel[name].series
            assert serial[name].index == parallel[name].index


def test_prefill_aggregates_worker_trace_counters(tmp_path):
    """The parent's trace counters must reflect what the pool's workers
    generated/loaded from a shared trace cache."""
    settings = RunnerSettings(
        n_instructions=1_500,
        warmup_instructions=300,
        n_fault_maps=1,
        benchmarks=("gzip", "crafty"),
    )
    cache_dir = os.fspath(tmp_path)
    first = Session(settings, trace_cache=cache_dir)
    prefill(first, (LV_BASELINE,), PoolExecutor(2))
    assert first.traces.generated + first.traces.loaded >= 2

    second = Session(settings, trace_cache=cache_dir)
    prefill(second, (LV_BASELINE,), PoolExecutor(2))
    # Store is fresh (memory), so simulations rerun — but every trace must
    # now come from the shared cache.
    assert second.traces.generated == 0
    assert second.traces.loaded == 2
