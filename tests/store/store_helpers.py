"""Shared builders for the storage-subsystem suite."""

from __future__ import annotations

import hashlib
import json
import os

from repro.cpu.pipeline import SimResult
from repro.store.format import (
    RECORD_SCHEMA_VERSION,
    encode_record,
    record_checksum,
    result_to_dict,
)
from repro.store.legacy import (
    MANIFEST_FILENAME,
    SHARD_COUNT,
    SHARDS_DIRNAME,
    SQLITE_FILENAME,
    shard_filename,
)


def make_result(i: int) -> SimResult:
    """A small, distinct, JSON-round-trippable result per index."""
    return SimResult(
        benchmark=f"bench{i % 3}",
        instructions=1_000 + i,
        cycles=2_000 + 7 * i,
        branch_mispredictions=i,
        branch_predictions=10 * i + 1,
        hierarchy_stats={"l1i_hits": float(100 + i), "l2_misses": float(i)},
    )


def make_key(i: int) -> str:
    """A realistic content-hash key (64 hex chars, varied first char)."""
    return hashlib.sha256(f"task-{i}".encode()).hexdigest()


def fill(store, n: int = 12) -> "list[tuple[str, SimResult]]":
    pairs = [(make_key(i), make_result(i)) for i in range(n)]
    for key, result in pairs:
        store.put(key, result)
    return pairs


def write_sharded(directory, pairs) -> str:
    """Lay out a sharded store holding ``pairs`` under ``directory``.

    This build has no writer for the (read-only) sharded layout, so
    tests and smokes build one here: each encoded record is appended to
    ``shards/shard-<key[0]>.jsonl`` (keys must be lowercase hex, as task
    keys are) and ``shards/MANIFEST.json`` records the layout.  Returns
    the shard directory.
    """
    shard_dir = os.path.join(os.fspath(directory), SHARDS_DIRNAME)
    os.makedirs(shard_dir, exist_ok=True)
    for key, result in pairs:
        path = os.path.join(shard_dir, shard_filename(key[0]))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(encode_record(key, result_to_dict(result)) + "\n")
    manifest = {
        "format": "repro-sharded-store",
        "record_schema": RECORD_SCHEMA_VERSION,
        "shard_count": SHARD_COUNT,
        "shard_by": "key[0] (hex)",
    }
    with open(os.path.join(shard_dir, MANIFEST_FILENAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return shard_dir


def sqlite_row(key: str, result: SimResult) -> tuple:
    """``(key, payload, schema, sha)`` as an earlier build stored them."""
    payload = result_to_dict(result)
    return (
        key,
        json.dumps(payload, sort_keys=True),
        RECORD_SCHEMA_VERSION,
        record_checksum(key, payload),
    )


def connect_sqlite(directory):
    """A WAL-mode connection to ``directory``'s ``results.sqlite`` holding
    the table an earlier build wrote: ``results(key TEXT PRIMARY KEY,
    payload, schema, sha)``."""
    import sqlite3

    os.makedirs(os.fspath(directory), exist_ok=True)
    conn = sqlite3.connect(os.path.join(os.fspath(directory), SQLITE_FILENAME))
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute(
        "CREATE TABLE IF NOT EXISTS results "
        "(key TEXT PRIMARY KEY, payload, schema, sha)"
    )
    conn.commit()
    return conn


def write_sqlite(directory, pairs) -> str:
    """Lay out a sqlite store holding ``pairs`` under ``directory``, as
    an earlier build wrote it (this build writes none).  Returns the
    database path."""
    conn = connect_sqlite(directory)
    with conn:
        conn.executemany(
            "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?)",
            [sqlite_row(key, result) for key, result in pairs],
        )
    conn.close()
    return os.path.join(os.fspath(directory), SQLITE_FILENAME)


def stored_bytes(directory) -> dict:
    """The bytes of every non-empty file under ``directory`` but SQLite's
    shared-memory index, by relative path.  (A read-only SQLite
    connection may create the index and an empty WAL; neither holds a
    row.)"""
    files = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if data and not name.endswith("-shm"):
                files[os.path.relpath(path, directory)] = data
    return files


#: The function laying out each legacy layout, by the name ``detect_backend`` reports.
LEGACY_WRITERS = {"sqlite": write_sqlite, "sharded": write_sharded}
