"""The resilience layer: retry policy, chaos harness, fault-tolerant pool.

Two proof styles back the executor's claims:

* **Scripted pool** — :class:`ScriptedExecutor` overrides the pool
  lifecycle seams of :class:`PoolExecutor` with an in-process fake whose
  per-task outcomes (``crash``/``error``/``hang``) are scripted, so
  retry, bisection, watchdog, rebuild, and quarantine paths run
  deterministically in milliseconds.
* **Real chaos** — :mod:`repro.testing.chaos` injects faults into real
  pool workers via ``REPRO_CHAOS``; the campaign must still finish
  bit-identical to a clean serial run.

Pool workers must also shed an asyncio parent's signal plumbing, or a
pool shutdown would stop the campaign server that owns the pool.
"""

import json
import multiprocessing.connection
import os
import subprocess
import sys
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.campaign.events import (
    PointResult,
    Progress,
    TaskFailed,
    TaskRetried,
    WorkerCrashed,
)
from repro.campaign.executors import (
    PoolExecutor,
    _Chunk,
    merge_counters,
    run_batch_locally,
)
from repro.campaign.resilience import (
    CampaignError,
    Quarantined,
    RetryPolicy,
    stable_unit,
)
from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
)
from repro.store import DiskStore, result_to_dict
from repro.testing import chaos
from repro.testing.chaos import ChaosConfig, ChaosError

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

CONFIGS = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10)


def store_snapshot(session: Session) -> str:
    """Canonical serialisation of a session's store: key-sorted JSON of
    every result.  Line order in a JSONL store differs between serial
    and pool runs; this comparison does not."""
    payload = {
        key: result_to_dict(session.store.get(key)) for key in session.store.keys()
    }
    return json.dumps(payload, sort_keys=True)


@lru_cache(maxsize=1)
def reference_snapshot() -> str:
    """The clean serial run every resilient run must reproduce."""
    session = Session(SETTINGS)
    session.run_all(session.spec(CONFIGS))
    return store_snapshot(session)


@lru_cache(maxsize=1)
def campaign_keys() -> tuple[str, ...]:
    """The six task keys of the test campaign, in plan order."""
    session = Session(SETTINGS)
    spec = session.spec(CONFIGS)
    return tuple(session.task_key(*item) for item in spec.work_items())


# --------------------------------------------------------------------------
# Policy / primitives
# --------------------------------------------------------------------------


class TestStableUnit:
    def test_deterministic_and_in_unit_interval(self):
        a = stable_unit("backoff", "abc", 1)
        assert a == stable_unit("backoff", "abc", 1)
        assert 0.0 <= a < 1.0

    def test_distinct_parts_give_distinct_draws(self):
        draws = {stable_unit("k", i) for i in range(100)}
        assert len(draws) == 100


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=1.0, backoff_cap=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(chunk_timeout=0.0)

    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=5.0, jitter=0.5)
        assert policy.backoff(2, "key") == policy.backoff(2, "key")
        assert policy.backoff(2, "key") != policy.backoff(2, "other")

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_base=0.1, backoff_cap=1.0, jitter=0.0
        )
        delays = [policy.backoff(a, "k") for a in range(1, 8)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert all(d == 1.0 for d in delays[4:])

    def test_jitter_stays_within_half_band(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=1.0, jitter=0.5)
        for key in ("a", "b", "c", "d"):
            assert 0.75 <= policy.backoff(1, key) <= 1.25

    def test_zero_base_disables_backoff(self):
        assert RetryPolicy(backoff_base=0.0).backoff(3, "k") == 0.0


class TestMergeCounters:
    def test_first_observation_passes_through(self):
        assert merge_counters(None, (1, 2, 3, 4)) == (1, 2, 3, 4)

    def test_per_field_max_not_lexicographic(self):
        # The regression the satellite fixed: a tuple compare would keep
        # (2, 0, ...) wholesale and lose the larger "loaded" field.
        assert merge_counters((2, 9, 0, 1), (3, 0, 2, 0)) == (3, 9, 2, 1)
        assert merge_counters((3, 0, 2, 0), (2, 9, 0, 1)) == (3, 9, 2, 1)


class TestChunkBisect:
    def test_splits_along_batch_boundaries_first(self):
        chunk = _Chunk([["a1", "a2"], ["b1"], ["c1"]], attempts=3)
        halves = chunk.bisect(attempts=2)
        assert [h.batches for h in halves] == [[["a1", "a2"], ["b1"]], [["c1"]]]
        assert all(h.attempts == 2 for h in halves)

    def test_single_batch_splits_its_task_list(self):
        chunk = _Chunk([["t1", "t2", "t3"]])
        halves = chunk.bisect(attempts=1)
        assert [h.batches for h in halves] == [[["t1", "t2"]], [["t3"]]]

    def test_quarantined_describe_mentions_replay(self):
        task = ("gzip", LV_BLOCK, 1)
        entry = Quarantined(task, "deadbeef" * 8, 3, "boom")
        line = entry.describe()
        assert "gzip/" in line and "map1" in line and "3 attempt(s)" in line
        assert "replay" not in line
        assert "replay failed too" in Quarantined(
            task, "deadbeef" * 8, 3, "boom", replay_error="again"
        ).describe()


# --------------------------------------------------------------------------
# Chaos harness
# --------------------------------------------------------------------------


class TestChaosConfig:
    def test_parse_full_spec(self):
        config = ChaosConfig.parse("crash:0.1, hang:0.05,corrupt:0.02")
        assert (config.crash, config.hang, config.corrupt) == (0.1, 0.05, 0.02)
        assert config.active

    def test_parse_seed_and_dashed_keys(self):
        config = ChaosConfig.parse("crash:0.3,seed:7,hang-seconds:2.5")
        assert config.seed == 7
        assert config.hang_seconds == 2.5

    def test_parse_rejects_unknown_kind_and_missing_value(self):
        with pytest.raises(ValueError):
            ChaosConfig.parse("explode:0.5")
        with pytest.raises(ValueError):
            ChaosConfig.parse("crash")

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosConfig(crash=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(hang_seconds=0.0)

    def test_config_from_env(self, monkeypatch):
        monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
        assert chaos.config_from_env() is None
        monkeypatch.setenv(chaos.CHAOS_ENV, "crash:0.0")
        assert chaos.config_from_env() is None  # no positive rate => inert
        monkeypatch.setenv(chaos.CHAOS_ENV, "crash:0.25,seed:9")
        config = chaos.config_from_env()
        assert config is not None and config.crash == 0.25 and config.seed == 9


class TestChaosInjection:
    @pytest.fixture(autouse=True)
    def parent_role(self, monkeypatch):
        # Every test here runs in the parent role unless it opts in.
        monkeypatch.setattr(chaos, "_worker_epoch", None)
        yield
        monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)

    def test_worker_only_kinds_disarmed_in_parent(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "crash:1.0,hang:1.0,corrupt:1.0")
        chaos.maybe_inject("anykey")  # would os._exit in a worker

    def test_corrupt_fires_in_worker(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "corrupt:1.0")
        monkeypatch.setattr(chaos, "_worker_epoch", 0)
        with pytest.raises(ChaosError):
            chaos.maybe_inject("anykey")

    def test_poison_fires_in_any_process_and_every_epoch(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "poison:1.0")
        with pytest.raises(ChaosError):
            chaos.maybe_inject("anykey")  # parent replay fails too
        monkeypatch.setattr(chaos, "_worker_epoch", 3)
        with pytest.raises(ChaosError):
            chaos.maybe_inject("anykey")

    def test_epoch_rerolls_worker_fate(self):
        # The pool generation feeds the draw: some task that corrupts at
        # epoch 0 must pass at a later epoch (retry-after-rebuild
        # converges) — and the schedule is reproducible per seed.
        config = ChaosConfig(corrupt=0.3, seed=1)
        fates = {
            key: [
                stable_unit(config.seed, "corrupt", key, epoch) < config.corrupt
                for epoch in range(4)
            ]
            for key in campaign_keys()
        }
        assert any(f[0] and not all(f) for f in fates.values() if f[0]) or any(
            not f[0] and any(f) for f in fates.values()
        )
        again = {
            key: stable_unit(config.seed, "corrupt", key, 0) < config.corrupt
            for key in campaign_keys()
        }
        assert again == {key: fates[key][0] for key in campaign_keys()}


# --------------------------------------------------------------------------
# Scripted pool: deterministic failure schedules over a fake pool
# --------------------------------------------------------------------------


class FakePool:
    """Stands in for a ProcessPoolExecutor; carries its generation."""

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


@lru_cache(maxsize=1)
def scripted_worker_session() -> Session:
    """The hidden in-process 'worker' computing real results for scripted
    ``ok`` outcomes.  Long-lived, like a real worker: its trace and
    fault maps are built once for every scripted test and hypothesis
    example."""
    return Session(SETTINGS)


class ScriptedExecutor(PoolExecutor):
    """A PoolExecutor whose pool is fake and whose failures are scripted.

    ``script`` maps task keys to a queue of outcomes consumed once per
    sighting: ``crash`` fails the chunk's future with
    ``BrokenProcessPool``, ``submit-crash`` raises it at submit time,
    ``error`` fails with a worker exception, ``hang`` leaves the future
    pending forever (the watchdog must fire).  An exhausted or absent
    queue means the chunk computes real results in-process.
    """

    def __init__(self, script, workers: int = 2, retry: RetryPolicy | None = None):
        super().__init__(workers, retry=retry)
        self.script = {key: list(outcomes) for key, outcomes in script.items()}
        self.pools: list[FakePool] = []
        self.abandoned = 0

    def _make_pool(self, session, workers, epoch):
        pool = FakePool(epoch)
        self.pools.append(pool)
        return pool

    def _shutdown(self, pool):
        pass

    def _abandon(self, pool):
        self.abandoned += 1

    def _submit(self, pool, session, chunk):
        future: Future = Future()
        for task in chunk.tasks:
            outcomes = self.script.get(session.task_key(*task))
            if not outcomes:
                continue
            outcome = outcomes.pop(0)
            if outcome == "submit-crash":
                raise BrokenProcessPool("scripted pool death at submit")
            if outcome == "crash":
                future.set_exception(BrokenProcessPool("scripted worker death"))
            elif outcome == "error":
                future.set_exception(RuntimeError("scripted worker failure"))
            elif outcome == "hang":
                pass  # never completes: only the watchdog can reap it
            else:  # pragma: no cover - script typo guard
                raise AssertionError(f"unknown scripted outcome {outcome!r}")
            return future
        results = []
        for batch in chunk.batches:
            results.extend(run_batch_locally(scripted_worker_session(), batch))
        future.set_result((4242, (0, 0, 0, 0), results))
        return future


def run_scripted(script, retry: RetryPolicy, collect_error: bool = False):
    """Drive the 6-point campaign through a ScriptedExecutor; returns
    (session, events, executor, CampaignError-or-None)."""
    session = Session(SETTINGS)
    executor = ScriptedExecutor(script, workers=2, retry=retry)
    events, error = [], None
    try:
        for event in session.run(session.spec(CONFIGS), executor=executor):
            events.append(event)
    except CampaignError as exc:
        if not collect_error:
            raise
        error = exc
    return session, events, executor, error


FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0)


class TestScriptedPool:
    def test_clean_run_matches_serial(self):
        session, events, executor, _ = run_scripted({}, FAST_RETRY)
        assert store_snapshot(session) == reference_snapshot()
        assert len([e for e in events if isinstance(e, PointResult)]) == 6
        assert len(executor.pools) == 1  # no rebuilds

    def test_crashing_worker_is_retried_and_succeeds(self):
        key = campaign_keys()[0]
        session, events, executor, _ = run_scripted({key: ["crash"]}, FAST_RETRY)
        assert store_snapshot(session) == reference_snapshot()
        crashed = [e for e in events if isinstance(e, WorkerCrashed)]
        retried = [e for e in events if isinstance(e, TaskRetried)]
        assert crashed and "scripted worker death" in crashed[0].error
        assert retried and retried[0].attempt == 1
        # The crash rebuilt the pool exactly once, bumping the epoch.
        assert [p.epoch for p in executor.pools] == [0, 1]
        assert not session.failures

    def test_submit_time_pool_death_rebuilds_and_resubmits(self):
        key = campaign_keys()[0]
        session, events, executor, _ = run_scripted(
            {key: ["submit-crash"]}, FAST_RETRY
        )
        assert store_snapshot(session) == reference_snapshot()
        assert any(isinstance(e, WorkerCrashed) for e in events)
        assert len(executor.pools) == 2

    def test_hung_worker_trips_watchdog_and_resubmits(self):
        key = campaign_keys()[0]
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, chunk_timeout=0.2)
        session, events, executor, _ = run_scripted({key: ["hang"]}, policy)
        assert store_snapshot(session) == reference_snapshot()
        retried = [e for e in events if isinstance(e, TaskRetried)]
        assert any("timed out" in e.error for e in retried)
        assert executor.abandoned >= 1  # the hung pool was walked away from
        assert not session.failures

    def test_deterministic_poison_is_bisected_and_quarantined(self):
        # Ten scripted failures outlast retries *and* every bisection
        # level; replay is off, so the poison task must end quarantined
        # while all five siblings land in the store.
        keys = campaign_keys()
        poison = keys[2]
        policy = RetryPolicy(
            max_attempts=2, backoff_base=0.0, replay_quarantined=False
        )
        session, events, executor, error = run_scripted(
            {poison: ["error"] * 10}, policy, collect_error=True
        )
        assert error is not None and len(error.failures) == 1
        failure = error.failures[0]
        assert failure.key == poison
        assert "scripted worker failure" in failure.error
        assert failure.replay_error is None  # replay disabled, not failed
        assert session.failures == [failure]
        # Healthy siblings all landed despite the poison neighbour.
        stored = [k for k in keys if session.store.get(k) is not None]
        assert set(stored) == set(keys) - {poison}
        # The chunk containing multiple tasks was bisected, not dropped.
        assert any(
            isinstance(e, TaskRetried) and "bisecting after" in e.error
            for e in events
        ) or all(len(e.tasks) == 1 for e in events if isinstance(e, TaskRetried))
        assert any(isinstance(e, TaskFailed) for e in events)
        assert "quarantined" in str(error)

    def test_replay_rescues_worker_environment_failures(self):
        # The same always-failing script, but replay on: the scripted
        # failures only exist in the fake pool, so the in-process replay
        # recovers the task and the campaign completes bit-identical.
        poison = campaign_keys()[2]
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0)
        session, events, executor, _ = run_scripted(
            {poison: ["error"] * 10}, policy
        )
        assert store_snapshot(session) == reference_snapshot()
        assert not session.failures
        assert not any(isinstance(e, TaskFailed) for e in events)

    def test_backoff_delay_is_respected_without_blocking_healthy_chunks(self):
        key = campaign_keys()[0]
        policy = RetryPolicy(max_attempts=3, backoff_base=0.05, jitter=0.0)
        session, events, _, _ = run_scripted({key: ["error"]}, policy)
        retried = [e for e in events if isinstance(e, TaskRetried)]
        assert retried and retried[0].delay == pytest.approx(0.05)
        assert store_snapshot(session) == reference_snapshot()

    def test_final_progress_reports_full_campaign(self):
        key = campaign_keys()[0]
        _, events, _, _ = run_scripted({key: ["crash"]}, FAST_RETRY)
        final = [e for e in events if isinstance(e, Progress)][-1]
        assert final.done == final.total == 6

    @hyp_settings(max_examples=12, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=5),
            st.lists(
                st.sampled_from(["crash", "error"]), min_size=1, max_size=4
            ),
            max_size=6,
        )
    )
    def test_any_failure_pattern_yields_serial_identical_store(self, pattern):
        """The headline property: whatever combination of worker deaths
        and worker exceptions the pool suffers — retried, bisected, or
        quarantined-then-replayed — the drained store is byte-identical
        to a clean serial run."""
        keys = campaign_keys()
        script = {keys[i]: outcomes for i, outcomes in pattern.items()}
        session, events, _, _ = run_scripted(script, FAST_RETRY)
        assert store_snapshot(session) == reference_snapshot()
        assert [e for e in events if isinstance(e, Progress)][-1].done == 6


# --------------------------------------------------------------------------
# Real pools under REPRO_CHAOS
# --------------------------------------------------------------------------


class TestRealChaos:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
        yield

    def test_crash_chaos_campaign_is_bit_identical(self, monkeypatch):
        # crash:0.4,seed:3 kills real workers mid-campaign (validated to
        # fire for this campaign's keys); rebuilds + epoch re-rolls must
        # still drain to the exact serial store.
        monkeypatch.setenv(chaos.CHAOS_ENV, "crash:0.4,seed:3")
        session = Session(SETTINGS)
        executor = PoolExecutor(2, retry=RetryPolicy(max_attempts=5, backoff_base=0.0))
        events = list(session.run(session.spec(CONFIGS), executor=executor))
        monkeypatch.delenv(chaos.CHAOS_ENV)
        assert any(isinstance(e, WorkerCrashed) for e in events)
        assert any(isinstance(e, TaskRetried) for e in events)
        assert store_snapshot(session) == reference_snapshot()
        assert not session.failures

    def test_poison_chaos_quarantines_and_siblings_land(self, monkeypatch):
        # poison:0.2,seed:11 marks exactly one of the six keys (validated);
        # it must fail in workers *and* in the parent replay, ending
        # quarantined with a replay error while the other five land.
        monkeypatch.setenv(chaos.CHAOS_ENV, "poison:0.2,seed:11")
        session = Session(SETTINGS)
        executor = PoolExecutor(2, retry=RetryPolicy(max_attempts=2, backoff_base=0.0))
        with pytest.raises(CampaignError) as excinfo:
            for _ in session.run(session.spec(CONFIGS), executor=executor):
                pass
        monkeypatch.delenv(chaos.CHAOS_ENV)
        failures = excinfo.value.failures
        assert len(failures) == 1
        assert "poison" in failures[0].error
        assert failures[0].replay_error is not None  # replay failed too
        stored = [k for k in campaign_keys() if session.store.get(k) is not None]
        assert len(stored) == 5 and failures[0].key not in stored
        assert excinfo.value.summary_lines()


class TestOneWorkerInProcess:
    """A campaign of one worker (one batch, or ``PoolExecutor(1)``, the
    default) runs in the parent, through the same fault seam as a worker
    and the same landing path as a pool: a poisoned task is quarantined
    there too, never run clean."""

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
        yield

    def test_poison_quarantines_a_one_batch_plan(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "poison:1.0")
        session = Session(SETTINGS)
        spec = session.spec((LV_BASELINE, LV_BLOCK))
        assert len(session.plan(spec).worker_batches()) == 1
        with pytest.raises(CampaignError) as excinfo:
            list(session.run(spec, executor=PoolExecutor(2)))
        failures = excinfo.value.failures
        assert len(failures) == 3  # baseline + block x 2 maps
        assert all("poison" in f.error and f.replay_error for f in failures)
        assert len(session.store) == 0 and session.simulations_executed == 0

    def test_healthy_siblings_of_a_failed_group_land(self, monkeypatch):
        # poison:0.2,seed:11 marks one of the six keys: its group fails
        # in-process, and the replay lands every healthy sibling.
        reference = json.loads(reference_snapshot())
        monkeypatch.setenv(chaos.CHAOS_ENV, "poison:0.2,seed:11")
        session = Session(SETTINGS)
        with pytest.raises(CampaignError) as excinfo:
            list(session.run(session.spec(CONFIGS), executor=PoolExecutor(1)))
        (failure,) = excinfo.value.failures
        assert "poison" in failure.error and failure.replay_error
        stored = json.loads(store_snapshot(session))
        assert stored == {k: v for k, v in reference.items() if k != failure.key}
        assert session.simulations_executed == 5

    def test_a_one_worker_run_lands_what_a_two_worker_pool_lands(self, tmp_path):
        runs = {}
        for workers in (1, 2):
            with DiskStore(tmp_path / str(workers)) as store:
                session = Session(SETTINGS, store=store)
                spec = session.spec(CONFIGS)
                groups = len(session.plan(spec).groups)
                events = list(session.run(spec, executor=PoolExecutor(workers)))
            lines = (tmp_path / str(workers) / "results.jsonl").read_text()
            runs[workers] = (events, sorted(lines.splitlines()))
        (one, one_lines), (pool, pool_lines) = runs[1], runs[2]

        def points(events):
            found = [e for e in events if isinstance(e, PointResult)]
            return sorted(found, key=lambda e: e.key)

        assert len(points(one)) == 6 and points(one) == points(pool)
        assert one_lines == pool_lines  # the same records, byte for byte
        # In-process: one Progress per group, no replay checkpoint.
        assert len([e for e in one if isinstance(e, Progress)]) == groups
        # The default executor is PoolExecutor(1).
        default = Session(SETTINGS)
        assert list(default.run(default.spec(CONFIGS))) == one


#: A campaign-server-shaped parent: an asyncio loop with a SIGTERM
#: handler forks one pool worker, whose initializer reports in and then
#: lingers before shedding the parent's signal plumbing; the parent
#: SIGTERMs the worker inside that window.  Prints whether the parent's
#: handler fired and whether the worker died.
_INITIALIZER_WINDOW_SCRIPT = """
import asyncio, json, os, signal, time
from concurrent.futures.process import BrokenProcessPool
from repro.campaign import executors
from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings

reported, report = os.pipe()
shed = executors._shed_parent_signal_plumbing

def lingering_shed():
    os.write(report, b"w")
    time.sleep(1.0)
    shed()

executors._shed_parent_signal_plumbing = lingering_shed

async def main():
    loop = asyncio.get_running_loop()
    fired = []
    loop.add_signal_handler(signal.SIGTERM, fired.append, "SIGTERM")
    executor = executors.PoolExecutor(1)
    session = Session(RunnerSettings(benchmarks=("gzip",)))
    pool = executor._make_pool(session, 1, 0)
    future = executor._submit(pool, session, executors._Chunk([]))
    await loop.run_in_executor(None, os.read, reported, 1)
    (pid,) = pool._processes
    os.kill(pid, signal.SIGTERM)
    try:
        await asyncio.wait_for(asyncio.wrap_future(future), 30)
        worker = "ran"
    except BrokenProcessPool:
        worker = "died"
    await asyncio.sleep(0.5)
    executor._shutdown(pool)
    print(json.dumps({"fired": bool(fired), "worker": worker}))

asyncio.run(main())
"""


class TestWorkerSignalHygiene:
    def test_a_worker_sigtermed_in_its_initializer_stays_silent(self):
        """A SIGTERM that reaches a worker before its initializer sheds
        the parent's plumbing must not fire the parent loop's handler
        (pool teardown SIGTERMs every remaining worker of a broken
        pool, so such a relay stopped the campaign server): the worker
        forks with the signal blocked and dies of it once its
        initializer restores the default disposition."""
        out = subprocess.run(
            [sys.executable, "-c", _INITIALIZER_WINDOW_SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert json.loads(out.stdout.splitlines()[-1]) == {
            "fired": False,
            "worker": "died",
        }

    def test_abandon_terminates_a_hung_worker(self, monkeypatch):
        """Once initialised a worker takes SIGTERM again: the watchdog's
        ``_abandon`` ends a worker hung in a task."""
        monkeypatch.setenv(chaos.CHAOS_ENV, "hang:1.0,hang-seconds:60")
        session = Session(SETTINGS)
        executor = PoolExecutor(1)
        pool = executor._make_pool(session, 1, 0)
        executor._submit(pool, session, _Chunk([[("gzip", LV_BLOCK, 0)]]))
        sentinels = [process.sentinel for process in pool._processes.values()]
        time.sleep(1.0)  # let the worker reach the injected hang
        executor._abandon(pool)
        # A sentinel turns ready when its process exits.  (Not
        # is_alive(): the pool's own thread joins the same processes,
        # and a join that loses that race reads a reaped one as alive.)
        assert sorted(multiprocessing.connection.wait(sentinels, 10)) == sorted(
            sentinels
        )

    def test_shed_restores_default_handlers(self):
        # A forked worker inherits an asyncio parent's SIGTERM handler
        # and wakeup fd; keeping them would relay pool-shutdown signals
        # into the parent's event loop and stop the campaign server
        # mid-campaign.  The worker initializer must drop both.
        import signal
        import socket

        from repro.campaign.executors import _shed_parent_signal_plumbing

        a, b = socket.socketpair()
        originals = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            a.setblocking(False)
            old_fd = signal.set_wakeup_fd(a.fileno())
            signal.signal(signal.SIGTERM, lambda *args: None)
            _shed_parent_signal_plumbing()
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
            assert signal.getsignal(signal.SIGINT) is signal.SIG_DFL
            # the wakeup fd is detached: a new set returns "none was set"
            assert signal.set_wakeup_fd(-1) == -1
            signal.set_wakeup_fd(old_fd if old_fd != a.fileno() else -1)
        finally:
            for signum, handler in originals.items():
                signal.signal(signum, handler)
            a.close()
            b.close()


# --------------------------------------------------------------------------
# Session failure surface
# --------------------------------------------------------------------------


class _InterruptingExecutor(PoolExecutor):
    def run(self, session, plan):
        raise KeyboardInterrupt


class TestSessionFailureSurface:
    def test_keyboard_interrupt_flushes_and_prints_resume_hint(self, capsys):
        session = Session(SETTINGS)
        with pytest.raises(KeyboardInterrupt):
            for _ in session.run(
                session.spec(CONFIGS), executor=_InterruptingExecutor()
            ):
                pass
        err = capsys.readouterr().err
        assert "interrupted" in err and "resume" in err

    def test_campaign_error_raised_only_after_drain(self):
        # Session.failures accumulates across runs; the error itself
        # carries only this run's ledger.
        poison = campaign_keys()[1]
        policy = RetryPolicy(
            max_attempts=1, backoff_base=0.0, replay_quarantined=False
        )
        session, events, _, error = run_scripted(
            {poison: ["error"] * 10}, policy, collect_error=True
        )
        assert error is not None
        # Every non-poison point streamed before the error surfaced.
        points = [e for e in events if isinstance(e, PointResult)]
        assert len(points) == 5
