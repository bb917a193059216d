"""Crash-consistent result storage: one checksummed, append-only log,
and read-only readers for the layouts earlier builds wrote.

This package is the persistence layer the campaign system treats as
ground truth.  It applies the paper's thesis — keep operating correctly
in the presence of faults instead of declaring the part dead — to the
store itself: every record carries its own integrity proof, the log
tolerates torn writes, and the :mod:`repro.store.tools` CLI (``python
-m repro.experiments store verify|repair|compact|migrate|merge``)
recovers what is intact instead of failing the campaign.

On-disk format spec (v2)
------------------------
**Record.**  One JSON object per result::

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
  here, not just truncated tails.  ``H`` does not depend on how a
  layout stored the record, so a migration that preserves every
  ``(K, R)`` pair preserves every ``H``.

Legacy v1 records (``{"key": K, "result": R}``, no checksum) are still
readable; loads count them and ``repair``/``compact`` rewrite them as v2.

**The jsonl log** (:class:`~repro.store.jsonl.DiskStore`), the only
store this build writes.  ``<dir>/results.jsonl`` — one record per line,
append-only.  A killed writer loses at most its final,
partially-written line; loading skips (and counts) anything undecodable
and repairs a confirmed-torn tail with a single ``O_APPEND`` write.
Every ``--workers`` pool and the campaign server hand their results to
the parent process, the store's only writer.

**Legacy layouts, read-only** (:mod:`repro.store.legacy`).  Earlier
builds could also write ``<dir>/results.sqlite`` (a WAL-mode database,
one row per key with the same ``schema``/``sha`` columns) or sixteen
shard logs under ``<dir>/shards/``.  This build reads both, decoding
each row or line through :func:`~repro.store.format.decode_entry`, so
``store verify`` reports on them and ``store migrate DIR`` folds them
into the directory's log; every write raises
:class:`~repro.store.legacy.ReadOnlyStoreError` with that migrate hint.

:func:`open_store` opens what the directory holds (:func:`detect_backend`:
jsonl > sqlite > sharded, so a directory migrated in place resolves to
its log), and a fresh directory gets a jsonl log.  ``fsync=True`` (or
``REPRO_STORE_FSYNC=1``) makes every ``put`` durable through the OS
cache; the default relies on the pool executor's chunk-boundary fsync
instead.
"""

from repro.store.base import MemoryStore, ResultStore, StoreHealth
from repro.store.format import (
    RECORD_SCHEMA_VERSION,
    CorruptRecord,
    MalformedRecord,
    RecordError,
    StaleRecord,
    decode_entry,
    decode_record,
    encode_record,
    record_checksum,
    result_from_dict,
    result_to_dict,
)
from repro.store.jsonl import RESULTS_FILENAME, DiskStore
from repro.store.legacy import (
    LEGACY_READERS,
    SHARD_COUNT,
    SQLITE_FILENAME,
    LegacyStore,
    ReadOnlyStoreError,
    ShardedDiskStore,
    SqliteStore,
    legacy_layout,
)

import os as _os

#: Environment variable requesting per-put durability.
STORE_FSYNC_ENV = "REPRO_STORE_FSYNC"


def fsync_from_env() -> bool:
    """Whether ``REPRO_STORE_FSYNC`` requests per-put fsync."""
    raw = (_os.environ.get(STORE_FSYNC_ENV) or "").strip().lower()
    return raw not in ("", "0", "false", "no", "off")


def detect_backend(directory: "str | _os.PathLike") -> "str | None":
    """The layout whose files already live under ``directory`` —
    ``"jsonl"``, else a legacy ``"sqlite"`` or ``"sharded"`` layout —
    or ``None`` when it holds no store.  The jsonl log wins: migration
    only ever goes into it, so a directory migrated in place resolves to
    its log, not to the files the records were copied from."""
    directory = _os.fspath(directory)
    if _os.path.exists(_os.path.join(directory, RESULTS_FILENAME)):
        return "jsonl"
    return legacy_layout(directory)


def open_store(
    directory: "str | _os.PathLike | None", fsync: "bool | None" = None
) -> ResultStore:
    """The store at ``directory`` (a fresh :class:`MemoryStore` when
    ``directory`` is ``None``/empty), behind the :class:`ResultStore`
    API: its jsonl log, created on first put when the directory holds no
    store, or the read-only reader of a legacy layout the directory
    holds instead.  ``fsync`` (default ``$REPRO_STORE_FSYNC``) makes
    every ``put`` fsync.

    Stores are context managers::

        with open_store(campaign_dir) as store:
            ...  # flushed and closed on exit, even on error paths
    """
    if not directory:
        return MemoryStore()
    reader = LEGACY_READERS.get(detect_backend(directory))
    if reader is not None:
        return reader(directory)
    if fsync is None:
        fsync = fsync_from_env()
    return DiskStore(directory, fsync=fsync)


__all__ = [
    "RECORD_SCHEMA_VERSION",
    "RESULTS_FILENAME",
    "SHARD_COUNT",
    "SQLITE_FILENAME",
    "STORE_FSYNC_ENV",
    "CorruptRecord",
    "DiskStore",
    "LegacyStore",
    "MalformedRecord",
    "MemoryStore",
    "ReadOnlyStoreError",
    "RecordError",
    "ResultStore",
    "ShardedDiskStore",
    "SqliteStore",
    "StaleRecord",
    "StoreHealth",
    "decode_entry",
    "decode_record",
    "detect_backend",
    "encode_record",
    "fsync_from_env",
    "open_store",
    "record_checksum",
    "result_from_dict",
    "result_to_dict",
]
