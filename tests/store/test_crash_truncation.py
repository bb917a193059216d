"""Crash-truncation property: a kill at any byte costs at most one record.

The durability claim of every backend is exhaustively checked by
simulating a crash at *every byte offset* of the persisted state: the
store must always open without raising, recover every record whose
write completed, never invent or mutate a record, and lose at most the
final in-flight one.  The same property holds per shard for the
read-only sharded layout (which must open without writing) and for a
truncated WAL journal on the sqlite backend.
"""

from __future__ import annotations

import shutil
import sqlite3
import warnings

import pytest

from repro.store import DiskStore, ShardedDiskStore, SqliteStore
from repro.store.sharded import shard_filename
from repro.store.sqlite import SQLITE_FILENAME

from store_helpers import fill, make_key, make_result, write_sharded


def complete_lines(data: bytes) -> "list[bytes]":
    """Lines whose terminating newline made it to disk."""
    return data.split(b"\n")[:-1] if data else []


def quiet_open(cls, directory):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cls(directory)


def check_truncations(
    tmp_path, cls, log_path, pairs, sibling_records=0, appendable=True
):
    """Assert the crash property at every byte offset of ``log_path``.

    ``sibling_records`` counts records living outside the truncated file
    (the other shards of a sharded store) that must survive untouched.
    ``appendable`` also checks that a new record lands intact after the
    crash (writable backends only).
    """
    original = log_path.read_bytes()
    # The probe append inside each iteration mutates files other than
    # the truncation victim (e.g. a sibling shard), so snapshot and
    # restore the whole directory between offsets.
    pristine = {
        path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()
    }
    by_key = dict(pairs)
    for offset in range(len(original) + 1):
        for path, data in pristine.items():
            path.write_bytes(data)
        truncated = original[:offset]
        log_path.write_bytes(truncated)
        survivors = len(complete_lines(truncated))

        store = quiet_open(cls, tmp_path)  # must never raise
        try:
            # Lost at most the in-flight record: every fully-written line
            # is served, plus possibly a rescued newline-less tail.
            assert survivors + sibling_records <= len(store) <= (
                survivors + sibling_records + 1
            ), f"offset {offset}"
            # Never invents or mutates: everything served matches what
            # was originally written.
            for key in store.keys():
                assert store.get(key) == by_key[key], f"offset {offset}"
            # A truncated tail is at most one damaged line.
            assert store.health().malformed + store.health().corrupt <= 1

            # The log stays appendable after the crash: tail repair means
            # a new record lands intact and survives reopen.
            if appendable:
                store.put(make_key(999), make_result(999))
        finally:
            store.close()
        if not appendable:
            continue
        reopened = quiet_open(cls, tmp_path)
        try:
            assert reopened.get(make_key(999)) == make_result(999), f"offset {offset}"
            assert len(reopened) >= survivors + sibling_records + 1
        finally:
            reopened.close()
    log_path.write_bytes(original)


class TestJsonlTruncation:
    def test_every_byte_offset(self, tmp_path):
        source = tmp_path / "source"
        with DiskStore(source) as store:
            pairs = fill(store, 4)
        work = tmp_path / "work"
        shutil.copytree(source, work)
        check_truncations(work, DiskStore, work / "results.jsonl", pairs)


class TestShardedTruncation:
    def test_every_byte_offset_of_one_shard(self, tmp_path):
        pairs = [(make_key(i), make_result(i)) for i in range(12)]
        work = tmp_path / "work"
        write_sharded(work, pairs)
        victim_char = pairs[0][0][0]
        victim_keys = {k for k, _ in pairs if k[0] == victim_char}
        check_truncations(
            work,
            ShardedDiskStore,
            work / "shards" / shard_filename(victim_char),
            pairs,
            sibling_records=len(pairs) - len(victim_keys),
            appendable=False,
        )


class TestSqliteTruncation:
    def test_truncated_wal_recovers_committed_prefix(self, tmp_path):
        source = tmp_path / "source"
        store = SqliteStore(source)
        pairs = fill(store, 12)
        # Copy db + WAL while the connection is open: closing would
        # checkpoint the WAL away, and the crash being modelled is
        # precisely a kill before that checkpoint.
        db = source / SQLITE_FILENAME
        wal = source / (SQLITE_FILENAME + "-wal")
        assert wal.exists() and wal.stat().st_size > 0
        db_bytes = db.read_bytes()
        wal_bytes = wal.read_bytes()
        store.close()

        by_key = dict(pairs)
        work = tmp_path / "work"
        work.mkdir()
        # Every byte of a multi-frame WAL is slow to iterate; a stride
        # coprime with the frame size still hits every region of every
        # frame across offsets.
        for offset in range(0, len(wal_bytes) + 1, 251):
            (work / SQLITE_FILENAME).write_bytes(db_bytes)
            (work / (SQLITE_FILENAME + "-wal")).write_bytes(wal_bytes[:offset])
            recovered = SqliteStore(work)  # must never raise
            try:
                # WAL recovery serves a committed prefix: a subset of
                # what was written, every value bit-exact.
                assert not recovered.health().damaged
                for key in recovered.keys():
                    assert recovered.get(key) == by_key[key], f"offset {offset}"
                recovered.put(make_key(999), make_result(999))
            finally:
                recovered.close()
            reopened = SqliteStore(work)
            try:
                assert reopened.get(make_key(999)) == make_result(999)
            finally:
                reopened.close()

    def test_full_wal_offset_recovers_everything(self, tmp_path):
        source = tmp_path / "source"
        store = SqliteStore(source)
        pairs = fill(store, 6)
        db_bytes = (source / SQLITE_FILENAME).read_bytes()
        wal_bytes = (source / (SQLITE_FILENAME + "-wal")).read_bytes()
        store.close()
        work = tmp_path / "work"
        work.mkdir()
        (work / SQLITE_FILENAME).write_bytes(db_bytes)
        (work / (SQLITE_FILENAME + "-wal")).write_bytes(wal_bytes)
        recovered = SqliteStore(work)
        try:
            assert sorted(recovered.keys()) == sorted(k for k, _ in pairs)
        finally:
            recovered.close()

    def test_truncated_main_db_fails_loudly_or_serves_subset(self, tmp_path):
        # An amputated main database is beyond silent repair; the store
        # must either refuse loudly or serve only verified records —
        # never hand back damaged bits as results.
        source = tmp_path / "source"
        with SqliteStore(source) as store:
            pairs = fill(store, 12)
        db = source / SQLITE_FILENAME
        data = db.read_bytes()
        db.write_bytes(data[: len(data) // 2])
        by_key = dict(pairs)
        try:
            store = SqliteStore(source)
        except sqlite3.DatabaseError:
            return  # loud refusal is the expected outcome
        try:
            for key in store.keys():
                assert store.get(key) == by_key[key]
        finally:
            store.close()
