"""I/O fault injection: ChaosStore semantics and campaigns under storage chaos.

Unit half: each armed kind produces exactly its documented observable —
``disk-full``/``fsync-fail`` raise before touching the backend,
``torn-write`` plants half a record then raises, ``partial-append``
silently persists an unterminated record — deterministically from
``(seed, kind, key, attempt)``, with retries re-rolling their fate.

Integration half: a campaign checkpointing through a chaos-wrapped disk
store — in this process or from a real pool — must absorb transient
write faults via the retry policy (``StoreRecovered``), quarantine only
exhausted budgets, and still drain to a store byte-identical to a clean
run.
"""

from __future__ import annotations

import errno
import warnings

import pytest

from repro.campaign.events import PointResult, StoreCorruption, StoreRecovered
from repro.campaign.executors import PoolExecutor
from repro.campaign.resilience import CampaignError, RetryPolicy
from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.experiments.configs import LV_BASELINE, LV_BLOCK, LV_WORD
from repro.store import DiskStore, MemoryStore
from repro.store.format import result_to_dict
from repro.testing import chaos
from repro.testing.chaos import ChaosConfig, ChaosStore

from store_helpers import fill, make_key, make_result

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

CONFIGS = (LV_BASELINE, LV_WORD)

#: Executors every landing-path test runs under: the default
#: (``PoolExecutor(1)`` with the default retry policy), one worker and a
#: two-worker pool, the last two on the test's own policy.
EXECUTORS = {
    "default": lambda retry: None,
    "one-worker": lambda retry: PoolExecutor(1, retry=retry),
    "pool": lambda retry: PoolExecutor(2, retry=retry),
}


def snapshot(store) -> str:
    import json

    return json.dumps(
        {key: result_to_dict(store.get(key)) for key in store.keys()},
        sort_keys=True,
    )


class TestConfigParsing:
    def test_io_kinds_parse_from_env_format(self):
        config = ChaosConfig.parse(
            "torn-write:0.1,partial-append:0.2,fsync-fail:0.3,disk-full:0.4,seed:9"
        )
        assert config.torn_write == 0.1
        assert config.partial_append == 0.2
        assert config.fsync_fail == 0.3
        assert config.disk_full == 0.4
        assert config.seed == 9

    def test_io_active_distinguishes_worker_only_chaos(self):
        assert not ChaosConfig(crash=0.5).io_active
        assert ChaosConfig(crash=0.5).active
        assert ChaosConfig(torn_write=0.1).io_active
        assert ChaosConfig(torn_write=0.1).active
        assert not ChaosConfig().active

    def test_io_rates_validated(self):
        with pytest.raises(ValueError, match="disk_full"):
            ChaosConfig(disk_full=1.5)


class TestChaosStoreUnit:
    def test_reads_and_lifecycle_delegate(self):
        inner = MemoryStore()
        pairs = fill(inner, 3)
        store = ChaosStore(inner, ChaosConfig(disk_full=1.0))
        assert len(store) == 3
        assert pairs[0][0] in store
        assert store.get(pairs[0][0]) == pairs[0][1]
        assert sorted(store.keys()) == sorted(k for k, _ in pairs)
        assert store.health() == inner.health()

    def test_disk_full_raises_enospc_without_touching_backend(self):
        inner = MemoryStore()
        store = ChaosStore(inner, ChaosConfig(disk_full=1.0))
        with pytest.raises(OSError) as excinfo:
            store.put(make_key(1), make_result(1))
        assert excinfo.value.errno == errno.ENOSPC
        assert len(inner) == 0

    def test_fsync_fail_raises_eio(self):
        store = ChaosStore(MemoryStore(), ChaosConfig(fsync_fail=1.0))
        with pytest.raises(OSError) as excinfo:
            store.put(make_key(1), make_result(1))
        assert excinfo.value.errno == errno.EIO

    def test_torn_write_plants_half_a_record_then_raises(self, tmp_path):
        inner = DiskStore(tmp_path)
        store = ChaosStore(inner, ChaosConfig(torn_write=1.0))
        key = make_key(1)
        with pytest.raises(OSError):
            store.put(key, make_result(1))
        data = (tmp_path / "results.jsonl").read_bytes()
        assert data and not data.endswith(b"\n")  # half a line, no terminator
        inner.close()
        with DiskStore(tmp_path) as reopened:
            assert reopened.get(key) is None  # the tear never parses
            assert reopened.health().malformed == 1

    def test_partial_append_succeeds_silently_with_unterminated_line(
        self, tmp_path
    ):
        inner = DiskStore(tmp_path)
        store = ChaosStore(inner, ChaosConfig(partial_append=1.0))
        key = make_key(1)
        store.put(key, make_result(1))  # no exception: silent damage
        assert store.get(key) == make_result(1)  # writer believes it landed
        data = (tmp_path / "results.jsonl").read_bytes()
        assert data and not data.endswith(b"\n")
        inner.close()
        # Tail repair rescues a complete record that lost only its
        # newline — the "silent" loss is recovered on the next open.
        with DiskStore(tmp_path) as reopened:
            assert reopened.get(key) == make_result(1)
            assert not reopened.health().damaged

    def test_fate_is_deterministic_per_seed_key_attempt(self):
        config = ChaosConfig(disk_full=0.5, seed=3)
        outcomes = []
        for _ in range(2):
            store = ChaosStore(MemoryStore(), config)
            fates = []
            for i in range(20):
                try:
                    store.put(make_key(i), make_result(i))
                    fates.append("ok")
                except OSError:
                    fates.append("fail")
            outcomes.append(fates)
        assert outcomes[0] == outcomes[1]
        assert "ok" in outcomes[0] and "fail" in outcomes[0]

    def test_retry_rerolls_fate_per_attempt(self):
        # At a 50% rate a bounded retry loop must eventually land every
        # key — the attempt counter feeds the roll, so fate changes.
        store = ChaosStore(MemoryStore(), ChaosConfig(torn_write=0.5, seed=1))
        for i in range(10):
            for _ in range(64):
                try:
                    store.put(make_key(i), make_result(i))
                    break
                except OSError:
                    continue
            else:
                pytest.fail(f"key {i} never landed across 64 re-rolls")
        assert len(store) == 10


class TestSessionWrap:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
        yield

    def test_armed_io_chaos_wraps_session_store(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "torn-write:0.2,seed:1")
        session = Session(SETTINGS)
        assert isinstance(session.store, ChaosStore)

    def test_worker_only_chaos_does_not_wrap(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "crash:0.2,seed:1")
        session = Session(SETTINGS)
        assert not isinstance(session.store, ChaosStore)

    def test_worker_processes_do_not_wrap(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "torn-write:0.2,seed:1")
        monkeypatch.setattr(chaos, "_worker_epoch", 1)
        session = Session(SETTINGS)
        assert not isinstance(session.store, ChaosStore)

    def test_already_wrapped_store_is_not_double_wrapped(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "torn-write:0.2,seed:1")
        first = Session(SETTINGS)
        second = Session(SETTINGS, store=first.store)
        assert second.store is first.store


class TestCampaignUnderIOChaos:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
        yield

    def reference(self) -> str:
        session = Session(SETTINGS)
        session.run_all(session.spec(CONFIGS))
        return snapshot(session.store)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_transient_store_faults_recover_to_identical_figures(
        self, tmp_path, monkeypatch, executor
    ):
        # Mixed transient faults (validated to fire for these keys/seed):
        # every raise routes through store_with_retry's backoff, every
        # recovery emits StoreRecovered, and the drained disk store is
        # byte-identical to the clean serial reference.
        monkeypatch.setenv(
            chaos.CHAOS_ENV,
            "torn-write:0.4,fsync-fail:0.2,disk-full:0.1,partial-append:0.3,seed:5",
        )
        store = DiskStore(tmp_path)
        session = Session(SETTINGS, store=store)
        assert isinstance(session.store, ChaosStore)
        retry = RetryPolicy(max_attempts=8, backoff_base=0.0)
        events = list(
            session.run(session.spec(CONFIGS), executor=EXECUTORS[executor](retry))
        )
        monkeypatch.delenv(chaos.CHAOS_ENV)
        assert any(isinstance(e, StoreRecovered) for e in events)
        assert not session.failures
        assert snapshot(session.store) == self.reference()
        store.close()
        # Resume from disk with chaos disarmed: whatever torn/partial
        # debris the faults left must be contained, never folded in.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with DiskStore(tmp_path) as reopened:
                clean = Session(SETTINGS, store=reopened)
                list(clean.run(clean.spec(CONFIGS)))
                assert clean.simulations_executed == 0  # all cached
                assert snapshot(clean.store) == self.reference()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_exhausted_write_budget_quarantines_not_crashes(
        self, tmp_path, monkeypatch, executor
    ):
        # A disk that never accepts a write must not kill the drain
        # loop: every task ends quarantined with the store error on
        # record (replay re-simulates, then fails on the same disk).
        monkeypatch.setenv(chaos.CHAOS_ENV, "disk-full:1.0,seed:1")
        store = DiskStore(tmp_path)
        session = Session(SETTINGS, store=store)
        retry = RetryPolicy(max_attempts=2, backoff_base=0.0)
        with pytest.raises(CampaignError) as excinfo:
            for _ in session.run(
                session.spec(CONFIGS), executor=EXECUTORS[executor](retry)
            ):
                pass
        monkeypatch.delenv(chaos.CHAOS_ENV)
        failures = excinfo.value.failures
        assert len(failures) == 2  # each point alone, with its own error
        assert all(
            "store write failed" in f.error and f.key[:12] in f.error
            for f in failures
        )
        # The replays simulate, and their writes fail on the same disk.
        assert all("store write failed" in f.replay_error for f in failures)
        assert len(store) == 0
        store.close()

    def test_one_worker_retries_fsync_failures_per_point(
        self, tmp_path, monkeypatch
    ):
        # The campaign of `fig8 --instructions 2000 --maps 2 --benchmarks
        # gzip`: fsync-fail:0.3,seed:1 fails the first write of two of its
        # four points (validated); each is retried on its own and lands.
        monkeypatch.setenv(chaos.CHAOS_ENV, "fsync-fail:0.3,seed:1")
        store = DiskStore(tmp_path)
        settings = RunnerSettings(
            n_instructions=2_000, n_fault_maps=2, benchmarks=("gzip",)
        )
        session = Session(settings, store=store)
        spec = session.spec((LV_BASELINE, LV_WORD, LV_BLOCK))
        events = list(session.run(spec, executor=PoolExecutor(1)))
        monkeypatch.delenv(chaos.CHAOS_ENV)
        recovered = [e for e in events if isinstance(e, StoreRecovered)]
        points = [e for e in events if isinstance(e, PointResult)]
        assert len(recovered) == 2 and len(points) == 4
        assert not session.failures
        assert {e.key for e in points} == set(spec.task_keys())
        assert len(store) == 4
        store.close()

    def test_session_reports_damage_on_open(self, tmp_path):
        # A store opened over planted damage must announce it once the
        # plan is ready — the operator sees the repair hint, the figures
        # stay clean.
        with DiskStore(tmp_path) as store:
            fill(store, 2)
        path = tmp_path / "results.jsonl"
        path.write_text(path.read_text() + "garbage-tail\n")
        with DiskStore(tmp_path) as damaged:
            session = Session(SETTINGS, store=damaged)
            events = list(session.run(session.spec(CONFIGS)))
            corruption = [e for e in events if isinstance(e, StoreCorruption)]
            assert len(corruption) == 1
            assert "malformed=1" in corruption[0].detail
            assert any(isinstance(e, PointResult) for e in events)
