"""Store contract: the jsonl log behind ``open_store``, legacy layouts read-only.

The jsonl log must give durable puts, reopen fidelity, last-write-wins
duplicates, damage classification via ``health()`` and atomic
compaction.  The two legacy layouts an earlier build could write — a
sqlite database and sixteen shard logs, laid out here by the test
helpers — must open read-only: every record decoded (and damage
classified) through the one decoder, nothing on disk touched, every
write refused with the migrate hint.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import sys
import warnings

import pytest

from repro.campaign import PoolExecutor, RunnerSettings, Session
from repro.campaign.events import StoreRecovered
from repro.experiments.configs import LV_BASELINE, LV_WORD
from repro.store import (
    RESULTS_FILENAME,
    SQLITE_FILENAME,
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
from repro.store.format import RECORD_SCHEMA_VERSION
from repro.store.legacy import MANIFEST_FILENAME, SHARD_COUNT, shard_filename

from store_helpers import (
    LEGACY_WRITERS,
    fill,
    make_key,
    make_result,
    stored_bytes,
    write_sharded,
    write_sqlite,
)

READERS = {"sqlite": SqliteStore, "sharded": ShardedDiskStore}


@pytest.fixture(params=sorted(LEGACY_WRITERS))
def layout(request) -> str:
    return request.param


class TestContract:
    def test_put_get_reopen(self, tmp_path):
        with open_store(str(tmp_path)) as store:
            pairs = fill(store)
            for key, result in pairs:
                assert store.get(key) == result
                assert key in store
            assert len(store) == len(pairs)
        with open_store(str(tmp_path)) as reopened:
            assert sorted(reopened.keys()) == sorted(k for k, _ in pairs)
            for key, result in pairs:
                assert reopened.get(key) == result
            assert not reopened.health().damaged

    def test_auto_detection_resolves_backend(self, tmp_path):
        assert detect_backend(tmp_path) is None
        with open_store(str(tmp_path)) as store:
            fill(store, 3)
        assert detect_backend(tmp_path) == "jsonl"
        with open_store(str(tmp_path)) as auto:
            assert type(auto) is DiskStore
            assert len(auto) == 3

    def test_overwrite_same_key_serves_last_value(self, tmp_path):
        key = make_key(1)
        with open_store(str(tmp_path)) as store:
            store.put(key, make_result(1))
            store.put(key, make_result(2))
            assert store.get(key) == make_result(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the log warns about the dup
            with open_store(str(tmp_path)) as reopened:
                assert reopened.get(key) == make_result(2)
                assert len(reopened) == 1

    def test_put_after_close_reopens(self, tmp_path):
        store = open_store(str(tmp_path))
        fill(store, 2)
        store.close()
        store.put(make_key(5), make_result(5))
        store.close()
        with open_store(str(tmp_path)) as reopened:
            assert len(reopened) == 3

    def test_compact_clean_store_is_lossless(self, tmp_path):
        with open_store(str(tmp_path)) as store:
            pairs = fill(store)
            assert store.compact() == 0
        with open_store(str(tmp_path)) as reopened:
            for key, result in pairs:
                assert reopened.get(key) == result

    def test_importing_the_store_loads_no_sqlite(self):
        """Only the legacy sqlite reader imports sqlite3, when it opens a
        database."""
        import subprocess

        code = "import sys, repro.store; print('sqlite3' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.strip() == "False"


class TestEnvKnobs:
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


class TestLegacyLayouts:
    """Both legacy layouts, laid out by ``write_sqlite``/``write_sharded``."""

    def test_auto_detection_resolves_the_layout(self, tmp_path, records, layout):
        LEGACY_WRITERS[layout](tmp_path, records)
        assert detect_backend(tmp_path) == layout
        with open_store(str(tmp_path)) as auto:
            assert type(auto) is READERS[layout]
            assert sorted(auto.keys()) == sorted(k for k, _ in records)
            for key, result in records:
                assert auto.get(key) == result
            assert not auto.health().damaged

    def test_the_jsonl_log_wins_detection(self, tmp_path, records):
        """Precedence jsonl > sqlite > sharded: migration only ever goes
        into the log, so a directory migrated in place resolves to it."""
        write_sharded(tmp_path, records[:4])
        write_sqlite(tmp_path, records[4:8])
        assert detect_backend(tmp_path) == "sqlite"
        with open_store(str(tmp_path)) as store:
            assert sorted(store.keys()) == sorted(k for k, _ in records[4:8])
        with DiskStore(tmp_path) as log:
            log.put(*records[8])
        assert detect_backend(tmp_path) == "jsonl"
        with open_store(str(tmp_path)) as store:
            assert type(store) is DiskStore
            assert list(store.keys()) == [records[8][0]]

    def test_every_write_is_refused_with_the_migrate_hint(
        self, tmp_path, records, layout
    ):
        LEGACY_WRITERS[layout](tmp_path, records)
        key, result = make_key(99), make_result(99)
        with open_store(str(tmp_path)) as store:
            for write in (store.put, store.torn_put, store.partial_put):
                with pytest.raises(
                    ReadOnlyStoreError, match=re.escape(f"store migrate {tmp_path}`")
                ):
                    write(key, result)
            with pytest.raises(ReadOnlyStoreError, match="store migrate"):
                store.compact()
            assert key not in store
        # Not an OSError: executors retry those as transient write faults.
        assert not issubclass(ReadOnlyStoreError, OSError)

    def test_opening_never_writes(self, tmp_path, records, layout):
        """A legacy store's bytes are the same after it is opened, read
        and closed: no row or line added, changed or deleted, no torn
        tail repaired, no WAL checkpointed."""
        LEGACY_WRITERS[layout](tmp_path, records)
        before = stored_bytes(tmp_path)
        with open_store(str(tmp_path)) as store:
            assert len(store) == len(records)
            store.flush()
        assert stored_bytes(tmp_path) == before

    def test_pool_campaign_fails_without_store_retries(
        self, tmp_path, records, layout
    ):
        """The refusal is not a transient write error: the pool's
        checkpoint path must not absorb it as a ``StoreRecovered``."""
        LEGACY_WRITERS[layout](tmp_path, records)
        settings = RunnerSettings(
            n_instructions=1_500,
            warmup_instructions=300,
            n_fault_maps=1,
            benchmarks=("gzip",),
        )
        session = Session(settings, store=open_store(str(tmp_path)))
        spec = session.spec((LV_BASELINE, LV_WORD))
        events = []
        with pytest.raises(ReadOnlyStoreError, match="store migrate"):
            for event in session.run(spec, executor=PoolExecutor(2)):
                events.append(event)
        assert not any(isinstance(event, StoreRecovered) for event in events)
        assert len(session.store) == len(records)

    def test_no_store_to_open(self, tmp_path, layout):
        with pytest.raises(ReadOnlyStoreError, match="read-only"):
            READERS[layout](tmp_path)
        assert os.listdir(tmp_path) == []


class TestSharded:
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
        with ShardedDiskStore(tmp_path) as reopened:
            health = reopened.health()
            assert health.malformed == 1
            assert health.records == 24  # the garbage shadowed nothing
            for key, result in pairs:
                assert reopened.get(key) == result

    def test_load_never_repairs_a_torn_tail(self, tmp_path, records):
        """A torn tail stays torn: repairing it would be a write."""
        shard_dir = write_sharded(tmp_path, records)
        victim = os.path.join(shard_dir, shard_filename(records[0][0][0]))
        with open(victim, "a") as fh:
            fh.write('{"key": "torn')
        with open(victim, "rb") as fh:
            before = fh.read()
        with ShardedDiskStore(tmp_path) as store:
            assert store.health().malformed == 1
        with open(victim, "rb") as fh:
            assert fh.read() == before


class TestSqlite:
    def test_damaged_rows_are_classified_and_never_served(self, tmp_path):
        """Rows decode through the one decoder: a flipped payload digit
        is corrupt, a foreign epoch stale, a non-JSON or non-object
        payload malformed, and none of them is served."""
        pairs = [(make_key(i), make_result(i)) for i in range(7)]
        write_sqlite(tmp_path, pairs)
        conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        with conn:
            conn.execute(
                "UPDATE results SET payload = replace(payload, '2007', '9007') "
                "WHERE key = ?",
                (pairs[1][0],),
            )
            conn.execute(
                "UPDATE results SET schema = ? WHERE key = ?",
                (RECORD_SCHEMA_VERSION + 1, pairs[2][0]),
            )
            conn.execute(
                "UPDATE results SET payload = '{\"cycles\": 1' WHERE key = ?",
                (pairs[3][0],),
            )
            conn.execute(
                "UPDATE results SET payload = '[1, 2]' WHERE key = ?",
                (pairs[4][0],),
            )
        conn.close()
        with SqliteStore(tmp_path) as store:
            health = store.health()
            assert (health.corrupt, health.stale, health.malformed) == (1, 1, 2)
            assert health.records == 3
            assert health.damaged
            for key, result in pairs:
                expected = None if key in {k for k, _ in pairs[1:5]} else result
                assert store.get(key) == expected

    def test_rows_read_back_as_a_log_would_serve_them(self, tmp_path, records):
        """The same records, stored as rows or as log lines, decode to
        the same results."""
        write_sqlite(tmp_path / "sqlite", records)
        with DiskStore(tmp_path / "jsonl") as log:
            for key, result in records:
                log.put(key, result)
        with SqliteStore(tmp_path / "sqlite") as rows, DiskStore(
            tmp_path / "jsonl"
        ) as lines:
            assert {k: rows.get(k) for k in rows.keys()} == {
                k: lines.get(k) for k in lines.keys()
            }
            assert not (tmp_path / "sqlite" / RESULTS_FILENAME).exists()


class TestJsonlDamageTaxonomy:
    def test_every_damage_class_counted_separately(self, tmp_path):
        with open_store(str(tmp_path)) as store:
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
        with open_store(str(tmp_path)) as store:
            health = store.health()
            assert (health.corrupt, health.stale, health.malformed, health.legacy) \
                == (1, 1, 1, 1)
            assert health.records == 4  # 6 - corrupt - stale
            assert store.get(pairs[2][0]) == pairs[2][1]  # legacy served
            assert store.get(pairs[0][0]) is None  # corrupt never served
            assert store.get(pairs[1][0]) is None  # stale never served
            removed = store.compact()
            assert removed == 3  # corrupt + stale + malformed dropped
        with open_store(str(tmp_path)) as healed:
            assert not healed.health().damaged
            assert healed.health().legacy == 0  # upgraded on rewrite
            line = next(
                l for l in (tmp_path / RESULTS_FILENAME).read_text().splitlines()
                if json.loads(l)["key"] == pairs[2][0]
            )
            assert json.loads(line)["schema"] == RECORD_SCHEMA_VERSION

    def test_health_describe_mentions_counts(self, tmp_path):
        with open_store(str(tmp_path)) as store:
            fill(store, 2)
        path = tmp_path / RESULTS_FILENAME
        path.write_text(path.read_text() + "junk\n")
        with open_store(str(tmp_path)) as store:
            text = store.health().describe()
            assert "2 record(s)" in text and "malformed=1" in text
