"""Read-only readers for the store layouts earlier builds wrote.

This build writes one store format, the checksummed ``results.jsonl``
log of :class:`~repro.store.jsonl.DiskStore`.  Earlier builds could also
leave two other layouts in a campaign directory:

* ``results.sqlite`` — a WAL-mode SQLite database, one row per key in
  ``results(key, payload, schema, sha)``, where ``payload`` is the
  record's result as JSON text and ``schema``/``sha`` are the record's
  epoch and checksum (see the :mod:`repro.store` format spec);
* ``shards/shard-<x>.jsonl`` for ``x`` in ``0..f`` — the jsonl log split
  by the first hex character of the key, plus ``shards/MANIFEST.json``
  recording the layout.

:class:`SqliteStore` and :class:`ShardedDiskStore` read them, so ``store
verify`` reports on them and ``store migrate DIR`` folds them into the
directory's jsonl log.  Both decode every record through
:func:`~repro.store.format.decode_entry`, so a legacy record is served,
or counted as corrupt, stale or malformed, exactly as a log line would
be; opening writes nothing, and every write raises
:class:`ReadOnlyStoreError` naming the migration.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.store.base import MemoryStore
from repro.store.format import (
    DamageCounts,
    DecodedRecord,
    MalformedRecord,
    decode_entry,
)
from repro.store.jsonl import DiskStore, JsonlLog

#: File name of an earlier build's sqlite database in a campaign directory.
SQLITE_FILENAME = "results.sqlite"

#: Number of shards (one per first hex character of the task key).
SHARD_COUNT = 16

#: Subdirectory holding the shard files of a sharded store.
SHARDS_DIRNAME = "shards"

MANIFEST_FILENAME = "MANIFEST.json"

_SHARD_CHARS = "0123456789abcdef"


class ReadOnlyStoreError(RuntimeError):
    """A write to a read-only legacy store.  Deliberately not an
    :class:`OSError`: executors retry those as transient write failures,
    and retrying cannot make a read-only store writable."""


def read_only_error(directory: str) -> ReadOnlyStoreError:
    """The error every write to the legacy store at ``directory`` raises."""
    return ReadOnlyStoreError(
        f"{directory}: legacy store layouts are read-only; fold it into a "
        f"jsonl log with `python -m repro.experiments store migrate {directory}`"
    )


def shard_filename(char: str) -> str:
    return f"shard-{char}.jsonl"


def legacy_layout(directory: "str | os.PathLike") -> "str | None":
    """The legacy layout under ``directory``: ``"sqlite"``, else
    ``"sharded"``, else ``None``."""
    directory = os.fspath(directory)
    if os.path.exists(os.path.join(directory, SQLITE_FILENAME)):
        return "sqlite"
    if os.path.isdir(os.path.join(directory, SHARDS_DIRNAME)):
        return "sharded"
    return None


class LegacyStore(DiskStore):
    """The records of a legacy layout's sources (objects with the
    :class:`~repro.store.format.DamageCounts` counters and a ``load()``
    returning decoded records), read at open into one :class:`DiskStore`
    index: same damage classification, same last-write-wins dedup.
    Reads only: ``put``, the chaos write seams and ``compact`` raise
    :class:`ReadOnlyStoreError`."""

    #: The layout's name, as :func:`legacy_layout` reports it.
    layout = ""

    def __init__(self, directory: str, path: str, sources: list) -> None:
        if not os.path.exists(path):
            raise ReadOnlyStoreError(
                f"{directory}: no {self.layout} store to open; {self.layout} "
                "stores are read-only, so new stores are jsonl logs"
            )
        MemoryStore.__init__(self)
        self.directory = directory
        self.description = f"{directory} ({self.layout}, read-only)"
        self._path = path
        self._sources = sources
        self.duplicate_lines = 0
        self._load()

    @property
    def path(self) -> str:
        return self._path

    def _logs(self) -> list:
        return self._sources

    def _refuse(self, *_args):
        raise read_only_error(self.directory)

    put = torn_put = partial_put = compact = _refuse

    def flush(self) -> None:
        """Nothing to flush: a legacy store holds no handle."""

    def close(self) -> None:
        """Nothing to release: a legacy store holds no handle."""


class ShardedDiskStore(LegacyStore):
    """The sixteen shard logs of an existing sharded store."""

    layout = "sharded"

    def __init__(self, directory: "str | os.PathLike") -> None:
        directory = os.fspath(directory)
        shard_dir = os.path.join(directory, SHARDS_DIRNAME)
        _check_manifest(os.path.join(shard_dir, MANIFEST_FILENAME))
        shards = [
            JsonlLog(os.path.join(shard_dir, shard_filename(char)))
            for char in _SHARD_CHARS
        ]
        super().__init__(directory, shard_dir, shards)


def _check_manifest(path: str) -> None:
    """Refuse to guess when the manifest declares a different layout
    (another shard count scatters keys differently).  A missing or
    unreadable manifest is tolerated: the shard files are read either
    way."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return
    count = manifest.get("shard_count")
    if count != SHARD_COUNT:
        raise ValueError(
            f"{path}: sharded store has shard_count={count!r}, "
            f"this build expects {SHARD_COUNT}"
        )


class SqliteStore(LegacyStore):
    """The rows of an existing ``results.sqlite``.

    The database opens read-only (``mode=ro``), so SQLite's own WAL
    recovery serves every committed row and a half-written transaction
    never shows, while nothing is checkpointed, added, changed or
    deleted.  Each row is decoded as the record it stores.  A main
    database SQLite cannot read raises :class:`sqlite3.DatabaseError`.
    """

    layout = "sqlite"

    def __init__(self, directory: "str | os.PathLike") -> None:
        directory = os.fspath(directory)
        path = os.path.join(directory, SQLITE_FILENAME)
        super().__init__(directory, path, [_SqliteRows(path)])


class _SqliteRows(DamageCounts):
    """The ``results`` table of one sqlite database, as a record source."""

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path

    def load(self) -> "list[DecodedRecord]":
        import sqlite3

        uri = pathlib.Path(self.path).resolve().as_uri() + "?mode=ro"
        conn = sqlite3.connect(uri, uri=True)
        try:
            (tables,) = conn.execute(
                "SELECT count(*) FROM sqlite_master "
                "WHERE type = 'table' AND name = 'results'"
            ).fetchone()
            # A writer killed before its first commit left no table:
            # nothing was stored.
            rows = []
            if tables:
                rows = conn.execute(
                    "SELECT key, payload, schema, sha FROM results ORDER BY rowid"
                ).fetchall()
        finally:
            conn.close()
        return self.decode_each(_decode_row, rows)


def _decode_row(row: tuple) -> DecodedRecord:
    key, payload, schema, sha = row
    try:
        result = json.loads(payload)
    except (TypeError, ValueError):
        raise MalformedRecord("sqlite payload is not JSON text") from None
    return decode_entry({"key": key, "result": result, "schema": schema, "sha": sha})


#: The reader of each legacy layout :func:`legacy_layout` names.
LEGACY_READERS = {"sqlite": SqliteStore, "sharded": ShardedDiskStore}
