"""Backend contract: jsonl and sqlite behind one API, sharded read-only.

Every writable disk backend must satisfy the same observable contract —
durable puts, reopen fidelity, last-write-wins duplicates, damage
classification via ``health()``, atomic compaction — so the suite
parametrizes over both and asserts identical behaviour, then pins each
backend's own mechanics (sqlite upsert/busy-retry, fsync knob plumbing)
and the read-only sharded layout (manifest check, per-shard damage
containment, every write refused with the migrate hint).
"""

from __future__ import annotations

import json
import os
import sqlite3
import warnings

import pytest

from repro.campaign import PoolExecutor, RunnerSettings, Session
from repro.campaign.events import StoreRecovered
from repro.experiments.configs import LV_BASELINE, LV_WORD
from repro.store import (
    BACKENDS,
    RESULTS_FILENAME,
    SQLITE_FILENAME,
    STORE_BACKEND_ENV,
    STORE_FSYNC_ENV,
    DiskStore,
    MemoryStore,
    ReadOnlyStoreError,
    ShardedDiskStore,
    SqliteStore,
    detect_backend,
    fsync_from_env,
    open_store,
)
from repro.store.format import RECORD_SCHEMA_VERSION, result_to_dict
from repro.store.sharded import MANIFEST_FILENAME, SHARD_COUNT, shard_filename

from store_helpers import fill, make_key, make_result, write_sharded


def open_backend(backend: str, directory, **kwargs):
    return open_store(str(directory), backend=backend, **kwargs)


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    return request.param


class TestContract:
    def test_put_get_reopen(self, backend, tmp_path):
        with open_backend(backend, tmp_path) as store:
            pairs = fill(store)
            for key, result in pairs:
                assert store.get(key) == result
                assert key in store
            assert len(store) == len(pairs)
        with open_backend(backend, tmp_path) as reopened:
            assert sorted(reopened.keys()) == sorted(k for k, _ in pairs)
            for key, result in pairs:
                assert reopened.get(key) == result
            assert not reopened.health().damaged

    def test_auto_detection_resolves_backend(self, backend, tmp_path):
        with open_backend(backend, tmp_path) as store:
            fill(store, 3)
        assert detect_backend(tmp_path) == backend
        with open_store(str(tmp_path)) as auto:
            assert type(auto).__name__ == type(
                open_backend(backend, tmp_path)
            ).__name__
            assert len(auto) == 3

    def test_overwrite_same_key_serves_last_value(self, backend, tmp_path):
        key = make_key(1)
        with open_backend(backend, tmp_path) as store:
            store.put(key, make_result(1))
            store.put(key, make_result(2))
            assert store.get(key) == make_result(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # jsonl warns about the dup
            with open_backend(backend, tmp_path) as reopened:
                assert reopened.get(key) == make_result(2)
                assert len(reopened) == 1

    def test_put_after_close_reopens(self, backend, tmp_path):
        store = open_backend(backend, tmp_path)
        fill(store, 2)
        store.close()
        store.put(make_key(5), make_result(5))
        store.close()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with open_backend(backend, tmp_path) as reopened:
                assert len(reopened) == 3

    def test_compact_clean_store_is_lossless(self, backend, tmp_path):
        with open_backend(backend, tmp_path) as store:
            pairs = fill(store)
            assert store.compact() == 0
        with open_backend(backend, tmp_path) as reopened:
            for key, result in pairs:
                assert reopened.get(key) == result


class TestEnvKnobs:
    def test_backend_env_selects(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_BACKEND_ENV, "sqlite")
        with open_store(str(tmp_path)) as store:
            assert isinstance(store, SqliteStore)

    def test_explicit_backend_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_BACKEND_ENV, "sqlite")
        with open_store(str(tmp_path), backend="jsonl") as store:
            assert type(store) is DiskStore

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            open_store(str(tmp_path), backend="tape")

    def test_empty_directory_is_memory(self):
        assert isinstance(open_store(None), MemoryStore)
        assert isinstance(open_store(""), MemoryStore)

    @pytest.mark.parametrize(
        "raw,expected",
        [("", False), ("0", False), ("false", False), ("off", False),
         ("1", True), ("true", True), ("yes", True)],
    )
    def test_fsync_env_parse(self, monkeypatch, raw, expected):
        monkeypatch.setenv(STORE_FSYNC_ENV, raw)
        assert fsync_from_env() is expected

    def test_fsync_knob_reaches_the_log(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_FSYNC_ENV, "1")
        store = open_store(str(tmp_path / "a"))
        assert store._log.fsync
        store.close()
        store = open_store(str(tmp_path / "b"), fsync=False)
        assert not store._log.fsync
        store.close()
        sq = open_store(str(tmp_path / "c"), backend="sqlite")
        assert sq.fsync
        sq.close()


class TestSharded:
    """The read-only sharded layout, laid out by ``write_sharded``."""

    def test_manifest_written_and_validated(self, tmp_path, records):
        shard_dir = write_sharded(tmp_path, records)
        with ShardedDiskStore(tmp_path) as store:
            assert len(store) == len(records)
        manifest_path = os.path.join(shard_dir, MANIFEST_FILENAME)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["shard_count"] == SHARD_COUNT
        manifest["shard_count"] = 64
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="shard_count"):
            ShardedDiskStore(tmp_path)

    def test_damage_in_one_shard_spares_the_rest(self, tmp_path):
        pairs = [(make_key(i), make_result(i)) for i in range(24)]
        shard_dir = write_sharded(tmp_path, pairs)
        victim = os.path.join(shard_dir, shard_filename(pairs[0][0][0]))
        with open(victim) as fh:
            body = fh.read()
        with open(victim, "w") as fh:
            fh.write("garbage\n" + body)
        with open_backend("sharded", tmp_path) as reopened:
            health = reopened.health()
            assert health.malformed == 1
            assert health.records == 24  # the garbage shadowed nothing
            for key, result in pairs:
                assert reopened.get(key) == result

    def test_auto_detection_resolves_sharded(self, tmp_path, records):
        write_sharded(tmp_path, records)
        assert detect_backend(tmp_path) == "sharded"
        with open_store(str(tmp_path)) as auto:
            assert isinstance(auto, ShardedDiskStore)
            assert sorted(auto.keys()) == sorted(k for k, _ in records)

    def test_every_write_is_refused_with_the_migrate_hint(self, tmp_path, records):
        write_sharded(tmp_path, records)
        key, result = records[0]
        with open_backend("sharded", tmp_path) as store:
            for write in (store.put, store.torn_put, store.partial_put):
                with pytest.raises(ReadOnlyStoreError, match="migrate .* --to jsonl"):
                    write(key, result)
            with pytest.raises(ReadOnlyStoreError, match="store migrate"):
                store.compact()
        # Not an OSError: executors retry those as transient write faults.
        assert not issubclass(ReadOnlyStoreError, OSError)

    def test_load_never_writes(self, tmp_path, records):
        """A torn tail stays torn: repairing it would be a write."""
        shard_dir = write_sharded(tmp_path, records)
        victim = os.path.join(shard_dir, shard_filename(records[0][0][0]))
        with open(victim, "a") as fh:
            fh.write('{"key": "torn')
        with open(victim, "rb") as fh:
            before = fh.read()
        with open_backend("sharded", tmp_path) as store:
            assert store.health().malformed == 1
        with open(victim, "rb") as fh:
            assert fh.read() == before

    def test_pool_campaign_fails_without_store_retries(self, tmp_path, records):
        """The refusal is not a transient write error: the pool's
        checkpoint path must not absorb it as a ``StoreRecovered``."""
        write_sharded(tmp_path, records)
        settings = RunnerSettings(
            n_instructions=1_500,
            warmup_instructions=300,
            n_fault_maps=1,
            benchmarks=("gzip",),
        )
        session = Session(settings, store=open_store(str(tmp_path)))
        spec = session.spec((LV_BASELINE, LV_WORD))
        events = []
        with pytest.raises(ReadOnlyStoreError, match="--to jsonl"):
            for event in session.run(spec, executor=PoolExecutor(2)):
                events.append(event)
        assert not any(isinstance(event, StoreRecovered) for event in events)
        assert len(session.store) == len(records)

    def test_no_sharded_store_to_open(self, tmp_path):
        with pytest.raises(ReadOnlyStoreError, match="read-only"):
            open_backend("sharded", tmp_path)
        assert not os.path.exists(os.path.join(tmp_path, "shards"))


class TestSqlite:
    def test_upserts_never_duplicate(self, tmp_path):
        key = make_key(1)
        with open_backend("sqlite", tmp_path) as store:
            store.put(key, make_result(1))
            store.put(key, make_result(2))
        conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        assert conn.execute("SELECT COUNT(*) FROM results").fetchone()[0] == 1
        conn.close()

    def test_rows_carry_schema_and_checksum(self, tmp_path):
        with open_backend("sqlite", tmp_path) as store:
            fill(store, 3)
        conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        rows = conn.execute("SELECT schema, sha FROM results").fetchall()
        conn.close()
        assert all(schema == RECORD_SCHEMA_VERSION for schema, _ in rows)
        assert all(len(sha) == 64 for _, sha in rows)

    def test_bitrot_detected_and_repaired(self, tmp_path):
        with open_backend("sqlite", tmp_path) as store:
            pairs = fill(store, 6)
        conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        conn.execute(
            "UPDATE results SET payload = replace(payload, '2007', '9007') "
            "WHERE key = ?",
            (pairs[1][0],),
        )
        conn.commit()
        conn.close()
        with open_backend("sqlite", tmp_path) as damaged:
            health = damaged.health()
            assert health.corrupt == 1
            assert health.records == 5
            assert damaged.get(pairs[1][0]) is None  # never served
            assert damaged.compact() == 1
        with open_backend("sqlite", tmp_path) as healed:
            assert not healed.health().damaged

    def test_stale_epoch_rows_reported_not_served(self, tmp_path):
        with open_backend("sqlite", tmp_path) as store:
            pairs = fill(store, 4)
        conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        conn.execute(
            "UPDATE results SET schema = ? WHERE key = ?",
            (RECORD_SCHEMA_VERSION + 1, pairs[0][0]),
        )
        conn.commit()
        conn.close()
        with open_backend("sqlite", tmp_path) as reopened:
            assert reopened.health().stale == 1
            assert reopened.get(pairs[0][0]) is None

    def test_busy_database_retries_then_raises(self, tmp_path):
        with open_backend("sqlite", tmp_path) as store:
            fill(store, 2)
        blocker = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        blocker.execute("BEGIN EXCLUSIVE")
        store = SqliteStore(tmp_path, timeout=0.02)
        try:
            with pytest.raises(sqlite3.OperationalError):
                store.put(make_key(9), make_result(9))
            assert store.write_retries >= 3
        finally:
            blocker.rollback()
            blocker.close()
            store.close()

    def test_put_from_another_thread(self, tmp_path):
        """The campaign server checkpoints from a campaign thread."""
        import threading

        with SqliteStore(tmp_path) as store:
            fill(store, 1)
            errors = []

            def put():
                try:
                    store.put(make_key(7), make_result(7))
                except Exception as exc:  # pragma: no cover - the failure mode
                    errors.append(exc)

            thread = threading.Thread(target=put)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert not errors
        with SqliteStore(tmp_path) as reopened:
            assert reopened.get(make_key(7)) == make_result(7)

    def test_wal_mode_enabled(self, tmp_path):
        with open_backend("sqlite", tmp_path) as store:
            fill(store, 1)
            mode = store._connection().execute(
                "PRAGMA journal_mode"
            ).fetchone()[0]
            assert mode == "wal"


class TestJsonlDamageTaxonomy:
    def test_every_damage_class_counted_separately(self, tmp_path):
        with open_backend("jsonl", tmp_path) as store:
            pairs = fill(store, 6)
        path = tmp_path / RESULTS_FILENAME
        lines = path.read_text().splitlines()
        # corrupt: flip a payload digit under the checksum
        lines[0] = lines[0].replace('"instructions": 1000', '"instructions": 1009')
        # stale: foreign schema epoch
        entry = json.loads(lines[1])
        entry["schema"] = RECORD_SCHEMA_VERSION + 5
        lines[1] = json.dumps(entry)
        # legacy: v1 shape (readable)
        entry = json.loads(lines[2])
        legacy_entry = {"key": entry["key"], "result": entry["result"]}
        lines[2] = json.dumps(legacy_entry)
        # malformed: not a record at all
        lines.append("{} definitely not json")
        path.write_text("\n".join(lines) + "\n")
        with open_backend("jsonl", tmp_path) as store:
            health = store.health()
            assert (health.corrupt, health.stale, health.malformed, health.legacy) \
                == (1, 1, 1, 1)
            assert health.records == 4  # 6 - corrupt - stale
            assert store.get(pairs[2][0]) == pairs[2][1]  # legacy served
            assert store.get(pairs[0][0]) is None  # corrupt never served
            assert store.get(pairs[1][0]) is None  # stale never served
            removed = store.compact()
            assert removed == 3  # corrupt + stale + malformed dropped
        with open_backend("jsonl", tmp_path) as healed:
            assert not healed.health().damaged
            assert healed.health().legacy == 0  # upgraded on rewrite
            line = next(
                l for l in (tmp_path / RESULTS_FILENAME).read_text().splitlines()
                if json.loads(l)["key"] == pairs[2][0]
            )
            assert json.loads(line)["schema"] == RECORD_SCHEMA_VERSION

    def test_health_describe_mentions_counts(self, tmp_path):
        with open_backend("jsonl", tmp_path) as store:
            fill(store, 2)
        path = tmp_path / RESULTS_FILENAME
        path.write_text(path.read_text() + "junk\n")
        with open_backend("jsonl", tmp_path) as store:
            text = store.health().describe()
            assert "2 record(s)" in text and "malformed=1" in text
