"""The Session facade: streaming events, executor equivalence, lifecycle,
and the one fidelity rule (which session runs a spec)."""

import dataclasses

import pytest

from repro.campaign.events import PlanReady, PointResult, Progress
from repro.campaign.executors import PoolExecutor, SerialExecutor
from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
)
from repro.store import DiskStore, MemoryStore, open_store

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

CONFIGS = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10)


@pytest.fixture()
def session() -> Session:
    return Session(SETTINGS)


@pytest.fixture(scope="module")
def reference() -> dict:
    """Sequential per-point results (one simulate call each) for every item."""
    sequential = Session(SETTINGS)
    out = {}
    for config in CONFIGS:
        indices = range(SETTINGS.n_fault_maps) if config.needs_fault_map else (None,)
        for m in indices:
            out[(config.label, m)] = sequential.simulate("gzip", config, m)
    return out


class TestStreaming:
    def test_event_stream_shape(self, session, reference):
        events = list(session.run(session.spec(CONFIGS)))
        assert isinstance(events[0], PlanReady)
        points = [e for e in events if isinstance(e, PointResult)]
        progress = [e for e in events if isinstance(e, Progress)]
        assert len(points) == events[0].plan.pending == 6
        assert progress[-1].done == progress[-1].total == 6
        # Counters stream with the events.
        assert progress[-1].simulations_executed == 6
        assert progress[-1].schedule_passes == session.schedule_passes

    def test_streamed_results_are_bit_identical(self, session, reference):
        for event in session.run(session.spec(CONFIGS)):
            if isinstance(event, PointResult):
                assert event.result == reference[
                    (event.config.label, event.map_index)
                ]
                # and the store holds what was streamed
                assert session.cached(
                    event.benchmark, event.config, event.map_index
                ) == event.result

    def test_dedup_rerun_streams_nothing_and_zero_passes(self, session):
        session.run_all(session.spec(CONFIGS))
        passes = session.schedule_passes
        events = list(session.run(session.spec(CONFIGS)))
        assert [type(e) for e in events] == [PlanReady]
        assert events[0].plan.pending == 0
        assert session.schedule_passes == passes

    def test_mismatched_fidelity_rejected_eagerly(self, session):
        other = CampaignSpec.from_settings(
            RunnerSettings(n_instructions=9_999, benchmarks=("gzip",)),
            (LV_BASELINE,),
        )
        # Validation happens at the call, not at first iteration: an
        # undrained run() must not silently swallow the error.
        with pytest.raises(ValueError):
            session.run(other)

    def test_benchmark_subset_spec_is_fine(self):
        session = Session(
            RunnerSettings(
                n_instructions=3_000,
                warmup_instructions=1_000,
                n_fault_maps=2,
                benchmarks=("gzip", "crafty"),
            )
        )
        spec = session.spec((LV_BASELINE,), benchmarks=("gzip",))
        plan = session.run_all(spec)
        assert plan.total_points == 1

    def test_pool_executor_matches_serial(self, reference):
        parallel = Session(SETTINGS)
        events = list(
            parallel.run(parallel.spec(CONFIGS), executor=PoolExecutor(2))
        )
        points = [e for e in events if isinstance(e, PointResult)]
        assert len(points) == 6
        for event in points:
            assert event.result == reference[(event.config.label, event.map_index)]
        assert parallel.simulations_executed == 6
        # Workers' schedule-pass counters aggregate into the final event.
        final = [e for e in events if isinstance(e, Progress)][-1]
        assert final.schedule_passes == parallel.schedule_passes > 0

    def test_explicit_serial_executor(self, session, reference):
        plan = session.run_all(session.spec(CONFIGS), executor=SerialExecutor())
        assert plan.pending == 6
        for config in CONFIGS:
            indices = (
                range(SETTINGS.n_fault_maps) if config.needs_fault_map else (None,)
            )
            for m in indices:
                assert session.cached("gzip", config, m) == reference[
                    (config.label, m)
                ]


class TestOneFidelityRule:
    def test_spec_with_more_maps_runs_on_the_session(self, session):
        deeper = dataclasses.replace(SETTINGS, n_fault_maps=4)
        spec = CampaignSpec.from_settings(deeper, CONFIGS)
        points = [e for e in session.run(spec) if isinstance(e, PointResult)]
        assert len(points) == 2 + 2 * 4  # two fault-free configs, two x 4 maps
        assert session.simulations_executed == len(points)
        reference = Session(deeper)
        reference.run_all(spec)
        for event in points:
            assert event.key == reference.task_key(
                event.benchmark, event.config, event.map_index
            )
            assert event.result == reference.cached(
                event.benchmark, event.config, event.map_index
            )

    def test_any_scope_derives_the_session_itself(self, session):
        wider = dataclasses.replace(
            SETTINGS, n_fault_maps=9, benchmarks=("mcf", "gzip")
        )
        assert session.derived(session.spec(CONFIGS)) is session
        assert session.derived(CampaignSpec.from_settings(wider, CONFIGS)) is session

    def test_foreign_fingerprint_gets_one_child_closed_with_the_session(self):
        session = Session(SETTINGS, store=MemoryStore())
        shorter = dataclasses.replace(SETTINGS, n_instructions=2_000)
        spec = CampaignSpec.from_settings(shorter, (LV_BASELINE,))
        child = session.derived(spec)
        assert child is not session
        assert child.settings == shorter
        assert child.store is session.store
        assert child.traces.cache_dir == session.traces.cache_dir
        rescoped = dataclasses.replace(spec, n_fault_maps=5, benchmarks=("mcf",))
        assert session.derived(rescoped) is child
        child.run_all(spec)
        session.close()
        assert child._closed
        assert len(session.store) == 1  # the shared store outlives the child


class TestLifecycle:
    def test_context_manager_closes_owned_store(self, tmp_path):
        with Session(SETTINGS, store=None) as session:
            assert session.store.get("missing") is None
        assert session._closed

    def test_close_flushes_disk_store(self, tmp_path):
        store = DiskStore(tmp_path)
        with Session(SETTINGS, store=store) as session:
            session.simulate("gzip", LV_BASELINE)
        # The session flushed but did not close the caller's store...
        assert store._fh is not None
        store.close()
        # ...and the results are durable.
        reopened = DiskStore(tmp_path)
        assert len(reopened) == 1

    def test_owned_disk_store_closed_on_exit(self, tmp_path):
        store = open_store(tmp_path)
        session = Session(SETTINGS)
        session.store = store
        session.owns_store = True
        session.simulate("gzip", LV_BASELINE)
        session.close()
        assert store._fh is None  # append handle released
        session.close()  # idempotent

    def test_store_context_manager(self, tmp_path):
        with open_store(tmp_path) as store:
            session = Session(SETTINGS, store=store)
            session.simulate("gzip", LV_BASELINE)
        assert store._fh is None
        assert len(DiskStore(tmp_path)) == 1

    def test_memory_store_context_manager_is_noop(self):
        with MemoryStore() as store:
            store.flush()
        assert len(store) == 0
