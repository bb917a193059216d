"""The Session facade: streaming events, executor equivalence, lifecycle,
and the one fidelity rule (which session runs a spec)."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.capacity_dist import capacity_distribution_for_geometry
from repro.analysis.urn import expected_capacity_fraction
from repro.campaign.events import PlanReady, PointResult, Progress
from repro.campaign.executors import PoolExecutor, SerialExecutor
from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.cpu.config import L1_GEOMETRY
from repro.experiments.configs import (
    ALL_CONFIGS,
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
)
from repro.experiments.keys import task_key
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


class TestMapIndex:
    @pytest.mark.parametrize("draw_first", [False, True])
    def test_negative_map_index_rejected(self, session, draw_first):
        """A negative index would alias a real map: with pairs drawn,
        ``simulate("gzip", LV_BLOCK, -2)`` would simulate map 2 and store
        it under map -2's key.  Every entry point rejects it, before and
        after the first draw, and nothing runs or is stored."""
        if draw_first:
            session.fault_maps()
        for m in (-1, -2):
            with pytest.raises(ValueError, match="fault-map index >= 0"):
                session.simulate("gzip", LV_BLOCK, m)
            with pytest.raises(ValueError, match="fault-map index >= 0"):
                session.task_key("gzip", LV_BLOCK, m)
            with pytest.raises(ValueError, match="index must be >= 0"):
                session.build_pipeline(LV_BLOCK, m)
        assert len(session.store) == 0
        assert session.simulations_executed == 0

    def test_fault_independent_configs_ignore_the_index(self, session):
        assert session.task_key("gzip", LV_BASELINE, -2) == session.task_key(
            "gzip", LV_BASELINE
        )

    @pytest.mark.parametrize("config", [LV_BLOCK, LV_BASELINE])
    @pytest.mark.parametrize("index", [1.0, True, np.int64(1)])
    def test_a_map_index_that_is_not_an_int_is_refused(self, session, config, index):
        """``1.0`` and ``True`` equal ``1``: an equality-keyed memo would
        hand them map 1's key, and ``pair(True)`` would simulate map 1
        under another key.  Every entry point refuses them, before or
        after map 1 is keyed, and nothing runs or is stored."""
        for keyed_first in (False, True):
            if keyed_first:
                session.task_key("gzip", config, 1)
            with pytest.raises(TypeError, match="fault-map index is an int"):
                session.task_key("gzip", config, index)
            with pytest.raises(TypeError, match="fault-map index is an int"):
                session.simulate("gzip", config, index)
        assert len(session.store) == 0
        assert session.simulations_executed == 0


class TestTaskKeyMemo:
    """``Session.task_key`` memoises keys; the memo must never hand a
    point another point's key."""

    @pytest.mark.parametrize("order", [(0, 0.0), (0.0, 0)])
    def test_configs_equal_in_python_keep_their_own_keys(self, order):
        """``RunConfig`` equality merges ``victim_entries=0`` and ``0.0``,
        which :func:`~repro.experiments.keys.task_key` encodes
        differently; the session gives each its own key, in either
        order."""
        session = Session(SETTINGS)
        configs = [dataclasses.replace(LV_BLOCK, victim_entries=v) for v in order]
        assert configs[0] == configs[1]
        for config in configs:
            for m in (0, 1):
                assert session.task_key("gzip", config, m) == task_key(
                    SETTINGS, "gzip", config, m
                )
        assert session.task_key("gzip", configs[0], 0) != session.task_key(
            "gzip", configs[1], 0
        )


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


def _lane_values(lane) -> tuple:
    """Everything a lane holds, comparable with ``==``."""
    return (
        lane.structure,
        lane.victim_entries,
        *(None if e is None else e.tolist() for e in (lane.enabled_i, lane.enabled_d)),
    )


class TestOneLaneDescription:
    """A campaign point is described once, by ``Session._kernel_lane``:
    the pipeline ``build_pipeline`` returns is that lane's object-loop
    twin, for every Table III configuration."""

    @pytest.mark.parametrize(
        "config", ALL_CONFIGS, ids=lambda c: f"{c.voltage.value}-{c.label}"
    )
    def test_the_pipeline_gives_back_the_lane(self, session, config):
        m = 0 if config.needs_fault_map else None
        lane = session._kernel_lane(config, m)
        built = session.build_pipeline(config, m).kernel_lane()
        assert _lane_values(built) == _lane_values(lane)
        assert session.batch_signature(config) == lane.structure


class TestLanesCarrySectionIVCapacity:
    """The lanes a session builds (fault-map provider, ``fault_map_pair``,
    ``Session._kernel_lane``) hold Section IV's capacities."""

    def test_block_disabling_lanes_match_eq2(self):
        """Over maps 0-49, the mean enabled fraction of the L1I and L1D
        enabled-way matrices lies within 4 standard errors of Eq. 2
        (0.5843 at k = 537, pfail = 0.001; 0.5849 +- 0.0020 at seed 2010)."""
        session = Session(dataclasses.replace(SETTINGS, n_fault_maps=50))
        lanes = [session._kernel_lane(LV_BLOCK, m) for m in range(50)]
        fractions = np.array(
            [[lane.enabled_i.mean(), lane.enabled_d.mean()] for lane in lanes]
        ).ravel()
        expected = expected_capacity_fraction(
            L1_GEOMETRY.cells_per_block, session.settings.pfail
        )
        standard_error = fractions.std(ddof=1) / np.sqrt(fractions.size)
        assert abs(fractions.mean() - expected) < 4 * standard_error

    @pytest.mark.parametrize("seed", [2010, 7])
    def test_block_disabling_lanes_spread_as_eq3(self, seed):
        """Over maps 0-49, the sample standard deviation of the 100 L1I
        and L1D enabled fractions lies within 4 of its own standard errors
        (the normal approximation, sigma / sqrt(2 (n - 1))) of Eq. 3's
        sigma: 0.0218 at pfail = 0.001, against 0.0201 at seed 2010 and
        0.0228 at seed 7."""
        settings = dataclasses.replace(SETTINGS, n_fault_maps=50, seed=seed)
        session = Session(settings)
        lanes = [session._kernel_lane(LV_BLOCK, m) for m in range(50)]
        fractions = np.array(
            [[lane.enabled_i.mean(), lane.enabled_d.mean()] for lane in lanes]
        ).ravel()
        sigma = capacity_distribution_for_geometry(
            L1_GEOMETRY, settings.pfail
        ).std_capacity
        error = sigma / np.sqrt(2 * (fractions.size - 1))
        assert abs(fractions.std(ddof=1) - sigma) < 4 * error

    def test_word_disabling_lane_is_the_halved_cache_fully_enabled(self, session):
        lane = session._kernel_lane(LV_WORD, None)
        for geometry, enabled in zip(
            lane.geometries[:2], (lane.enabled_i, lane.enabled_d)
        ):
            assert (geometry.size_bytes, geometry.ways) == (16 * 1024, 4)
            assert enabled is None or enabled.all()
