"""Shared builders for the storage-subsystem suite."""

from __future__ import annotations

import hashlib
import json
import os

from repro.cpu.pipeline import SimResult
from repro.store.format import RECORD_SCHEMA_VERSION, encode_record, result_to_dict
from repro.store.sharded import (
    MANIFEST_FILENAME,
    SHARD_COUNT,
    SHARDS_DIRNAME,
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
