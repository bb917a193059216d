"""DistributedExecutor: partition-per-worker execution, merged at drain.

The claims under test mirror the pool executor's (serial byte-identity
with and without chaos, resilience seams intact) plus the partition
model's own: workers write to private store partitions, the parent
merges the union at drain, and a durable partition root is recoverable
with the ``store merge`` CLI if the parent dies before merging.
"""

import json
import os
from functools import lru_cache

import pytest

from repro.campaign.events import (
    PointResult,
    Progress,
    TaskRetried,
    WorkerCrashed,
)
from repro.campaign.resilience import RetryPolicy
from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
)
from repro.service import DistributedExecutor
from repro.store import open_store, result_to_dict
from repro.store.tools import load_partitions, main as store_main, merge_stores, partition_dirs
from repro.testing import chaos

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

CONFIGS = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10)


def store_snapshot(session: Session) -> str:
    payload = {
        key: result_to_dict(session.store.get(key)) for key in session.store.keys()
    }
    return json.dumps(payload, sort_keys=True)


@lru_cache(maxsize=1)
def reference_snapshot() -> str:
    """The clean serial run every distributed run must reproduce."""
    session = Session(SETTINGS)
    session.run_all(session.spec(CONFIGS))
    return store_snapshot(session)


@pytest.fixture(autouse=True)
def clean_chaos_env(monkeypatch):
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    yield


class TestDistributedExecution:
    def test_matches_serial_byte_for_byte(self):
        session = Session(SETTINGS)
        executor = DistributedExecutor(workers=2)
        events = list(session.run(session.spec(CONFIGS), executor=executor))
        assert store_snapshot(session) == reference_snapshot()
        points = [e for e in events if isinstance(e, PointResult)]
        assert len(points) == 6
        # merged results carry the real payloads, keyed like serial ones
        for event in points:
            assert result_to_dict(event.result) == result_to_dict(
                session.store.get(event.key)
            )
        final = [e for e in events if isinstance(e, Progress)][-1]
        assert (final.done, final.total) == (6, 6)
        assert session.simulations_executed == 6
        assert not session.failures

    def test_acked_progress_is_truthful_before_the_merge(self):
        # Progress events stream while results are still partition-only;
        # their `done` counts acks, which monotonically reach the total.
        session = Session(SETTINGS)
        events = list(
            session.run(session.spec(CONFIGS), executor=DistributedExecutor(2))
        )
        done_counts = [e.done for e in events if isinstance(e, Progress)]
        assert done_counts == sorted(done_counts)
        assert done_counts[-1] == 6

    def test_temporary_partition_root_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR
        try:
            session = Session(SETTINGS)
            session.run_all(session.spec(CONFIGS), executor=DistributedExecutor(2))
            leftovers = [
                p for p in tmp_path.iterdir() if p.name.startswith("repro-partitions-")
            ]
            assert leftovers == []
        finally:
            tempfile.tempdir = None

    def test_durable_partition_dir_survives_the_run(self, tmp_path):
        root = tmp_path / "partitions"
        session = Session(SETTINGS)
        executor = DistributedExecutor(workers=2, partition_dir=root)
        session.run_all(session.spec(CONFIGS), executor=executor)
        assert store_snapshot(session) == reference_snapshot()
        # partitions are kept for inspection/recovery
        partitions = partition_dirs(os.fspath(root))
        assert partitions  # at least one worker wrote
        union = load_partitions(os.fspath(root))
        assert set(union) == set(session.store.keys())

    def test_chaos_crash_campaign_is_bit_identical(self, monkeypatch):
        # crash:0.4,seed:3 kills real workers mid-campaign (the rate/seed
        # the pool-executor chaos suite validates); rebuilds + epoch
        # re-rolls must drain to the exact serial store through the
        # partition merge.
        monkeypatch.setenv(chaos.CHAOS_ENV, "crash:0.4,seed:3")
        session = Session(SETTINGS)
        executor = DistributedExecutor(
            workers=2, retry=RetryPolicy(max_attempts=5, backoff_base=0.0)
        )
        events = list(session.run(session.spec(CONFIGS), executor=executor))
        monkeypatch.delenv(chaos.CHAOS_ENV)
        assert any(isinstance(e, WorkerCrashed) for e in events)
        assert any(isinstance(e, TaskRetried) for e in events)
        assert store_snapshot(session) == reference_snapshot()
        assert not session.failures


class TestWorkerSignalHygiene:
    def test_shed_parent_signal_plumbing_restores_defaults(self):
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


class TestPartitionMerge:
    def _write_partition(self, root, name, records):
        store = open_store(os.fspath(root / name), backend="jsonl")
        for key, result in records.items():
            store.put(key, result)
        store.close()

    def _some_results(self):
        session = Session(SETTINGS)
        session.run_all(session.spec((LV_BASELINE, LV_WORD)))
        return {key: session.store.get(key) for key in session.store.keys()}

    def test_load_partitions_unions_workers(self, tmp_path):
        results = self._some_results()
        keys = sorted(results)
        self._write_partition(tmp_path, "worker-0-1", {k: results[k] for k in keys[:1]})
        self._write_partition(tmp_path, "worker-0-2", {k: results[k] for k in keys[1:]})
        union = load_partitions(os.fspath(tmp_path))
        assert set(union) == set(keys)

    def test_load_partitions_empty_root(self, tmp_path):
        assert load_partitions(os.fspath(tmp_path)) == {}
        assert partition_dirs(os.fspath(tmp_path)) == []

    def test_merge_stores_copies_only_missing(self, tmp_path):
        results = self._some_results()
        keys = sorted(results)
        self._write_partition(tmp_path, "worker-0-1", results)
        dest = open_store(os.fspath(tmp_path / "dest"), backend="jsonl")
        dest.put(keys[0], results[keys[0]])  # already present
        copied = merge_stores(dest, [os.fspath(tmp_path / "worker-0-1")])
        assert copied == len(keys) - 1
        assert set(dest.keys()) == set(keys)
        dest.close()

    def test_store_merge_cli_recovers_a_crashed_merge(self, tmp_path, capsys):
        # A durable partition root whose parent died before merging:
        # `store merge DEST --from ROOT` folds the partitions in.
        root = tmp_path / "partitions"
        dest = tmp_path / "campaign"
        session = Session(SETTINGS)
        executor = DistributedExecutor(workers=2, partition_dir=root)
        session.run_all(session.spec(CONFIGS), executor=executor)
        code = store_main(
            ["merge", os.fspath(dest), "--from", os.fspath(root)]
        )
        assert code == 0
        merged = open_store(os.fspath(dest))
        try:
            with Session(SETTINGS, store=merged) as check:
                assert store_snapshot(check) == reference_snapshot()
        finally:
            merged.close()

    def test_store_merge_cli_no_partitions_fails(self, tmp_path, capsys):
        code = store_main(
            [
                "merge",
                os.fspath(tmp_path / "dest"),
                "--from",
                os.fspath(tmp_path / "empty"),
            ]
        )
        assert code == 1
