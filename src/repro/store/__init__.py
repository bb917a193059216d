"""Crash-consistent result storage: checksummed records, two writable
backends and one read-only migration source.

This package is the persistence layer the campaign system treats as
ground truth.  It applies the paper's thesis — keep operating correctly
in the presence of faults instead of declaring the part dead — to the
store itself: every record carries its own integrity proof, every
backend tolerates torn writes and concurrent writers, and the
:mod:`repro.store.tools` CLI (``python -m repro.experiments store
verify|repair|compact|migrate``) recovers what is intact instead of
failing the campaign.

On-disk format spec (v2)
------------------------
**Record.**  One JSON object per result, identical across backends::

    {"key": K, "result": R, "schema": 2, "sha": H}

* ``K`` — the content-hash task key (``repro.experiments.keys.task_key``),
  a 64-char sha256 hex string in practice (any non-empty string is legal).
* ``R`` — the JSON-native :class:`~repro.cpu.pipeline.SimResult` payload
  (``result_to_dict``).
* ``schema`` — the record-format epoch, :data:`~repro.store.format.RECORD_SCHEMA_VERSION`.
  A record declaring a different epoch is *stale*: counted and reported,
  never folded into figures.
* ``H`` — ``sha256`` hex digest of the canonical form (sorted keys, no
  whitespace) of ``{"key": K, "result": R, "schema": 2}``.  Bit-rot that
  still parses as JSON — a flipped digit in a cycle count — is caught
  here, not just truncated tails.  ``H`` is backend-independent, so a
  migration that preserves every ``(K, R)`` pair preserves every ``H``.

Legacy v1 records (``{"key": K, "result": R}``, no checksum) are still
readable; loads count them and ``repair``/``compact`` rewrite them as v2.

**jsonl backend** (:class:`~repro.store.jsonl.DiskStore`).
``<dir>/results.jsonl`` — one record per line, append-only.  A killed
writer loses at most its final, partially-written line; loading skips
(and counts) anything undecodable and repairs a confirmed-torn tail with
a single ``O_APPEND`` write.

**sharded layout, read-only** (:class:`~repro.store.sharded.ShardedDiskStore`).
``<dir>/shards/shard-<x>.jsonl`` for ``x`` in ``0..f`` — the jsonl log
split by the first hex character of the key, plus
``<dir>/shards/MANIFEST.json`` recording the layout.  Earlier builds
wrote it; this one reads it so ``store verify`` and ``store migrate DIR
--to jsonl`` still work, and every write raises
:class:`~repro.store.sharded.ReadOnlyStoreError` with that migrate hint.

**sqlite backend** (:class:`~repro.store.sqlite.SqliteStore`).
``<dir>/results.sqlite`` — WAL-mode database, one row per key
(``INSERT ... ON CONFLICT(key) DO UPDATE`` upserts), the same
``schema``/``sha`` columns verified on load, and busy-timeout retries
around writes so concurrent writers queue instead of failing.

:func:`open_store` picks the backend: an explicit ``backend=`` argument
or ``REPRO_STORE_BACKEND`` wins; otherwise the directory's existing
files decide (sqlite > jsonl > sharded), and a fresh directory defaults
to jsonl.  ``fsync=True`` (or ``REPRO_STORE_FSYNC=1``) makes every
``put`` durable through the OS cache; the default relies on the pool
executor's chunk-boundary fsync instead.
"""

from repro.store.base import (
    MemoryStore,
    ResultStore,
    StoreHealth,
    transient_write_errors,
)
from repro.store.format import (
    RECORD_SCHEMA_VERSION,
    CorruptRecord,
    MalformedRecord,
    RecordError,
    StaleRecord,
    decode_record,
    encode_record,
    record_checksum,
    result_from_dict,
    result_to_dict,
)
from repro.store.jsonl import RESULTS_FILENAME, DiskStore
from repro.store.sharded import SHARD_COUNT, ReadOnlyStoreError, ShardedDiskStore
from repro.store.sqlite import SQLITE_FILENAME, SqliteStore

import os as _os

#: Environment variables selecting the backend / per-put durability.
STORE_BACKEND_ENV = "REPRO_STORE_BACKEND"
STORE_FSYNC_ENV = "REPRO_STORE_FSYNC"

#: The writable disk-backed stores ``open_store`` can build (the
#: ``sharded`` layout only opens read-only, as a migration source).
BACKENDS = ("jsonl", "sqlite")


def fsync_from_env() -> bool:
    """Whether ``REPRO_STORE_FSYNC`` requests per-put fsync."""
    raw = (_os.environ.get(STORE_FSYNC_ENV) or "").strip().lower()
    return raw not in ("", "0", "false", "no", "off")


def detect_backend(directory: "str | _os.PathLike") -> "str | None":
    """The backend whose files already live under ``directory``, or
    ``None`` for a fresh directory.  Precedence sqlite > jsonl > sharded
    matches migration order: a store migrated in place (jsonl to sqlite,
    or out of the read-only sharded layout) wins the next open instead
    of the files it was copied from."""
    directory = _os.fspath(directory)
    if _os.path.exists(_os.path.join(directory, SQLITE_FILENAME)):
        return "sqlite"
    if _os.path.exists(_os.path.join(directory, RESULTS_FILENAME)):
        return "jsonl"
    if _os.path.isdir(_os.path.join(directory, "shards")):
        return "sharded"
    return None


def open_store(
    directory: "str | _os.PathLike | None",
    backend: "str | None" = None,
    fsync: "bool | None" = None,
) -> ResultStore:
    """The disk store at ``directory`` (a fresh :class:`MemoryStore`
    when ``directory`` is ``None``/empty), behind the backend-agnostic
    :class:`ResultStore` API.

    ``backend`` is ``"jsonl"``, ``"sqlite"``, ``"sharded"`` (an existing
    sharded store, read-only), or ``None``/``"auto"`` — defaulting to
    ``$REPRO_STORE_BACKEND``, then to whatever already lives under
    ``directory``, then to jsonl.  ``fsync`` (default
    ``$REPRO_STORE_FSYNC``) makes every ``put`` fsync.

    Stores are context managers::

        with open_store(campaign_dir) as store:
            ...  # flushed and closed on exit, even on error paths
    """
    if not directory:
        return MemoryStore()
    if backend is None:
        backend = _os.environ.get(STORE_BACKEND_ENV) or None
    if backend in (None, "auto"):
        backend = detect_backend(directory) or "jsonl"
    if fsync is None:
        fsync = fsync_from_env()
    if backend == "jsonl":
        return DiskStore(directory, fsync=fsync)
    if backend == "sqlite":
        return SqliteStore(directory, fsync=fsync)
    if backend == "sharded":
        return ShardedDiskStore(directory)
    raise ValueError(
        f"unknown store backend {backend!r} (expected one of {BACKENDS}, "
        "'sharded' (read-only) or 'auto')"
    )


__all__ = [
    "BACKENDS",
    "RECORD_SCHEMA_VERSION",
    "RESULTS_FILENAME",
    "SHARD_COUNT",
    "SQLITE_FILENAME",
    "STORE_BACKEND_ENV",
    "STORE_FSYNC_ENV",
    "CorruptRecord",
    "DiskStore",
    "MalformedRecord",
    "MemoryStore",
    "ReadOnlyStoreError",
    "RecordError",
    "ResultStore",
    "ShardedDiskStore",
    "SqliteStore",
    "StaleRecord",
    "StoreHealth",
    "decode_record",
    "detect_backend",
    "encode_record",
    "fsync_from_env",
    "open_store",
    "record_checksum",
    "result_from_dict",
    "result_to_dict",
    "transient_write_errors",
]
