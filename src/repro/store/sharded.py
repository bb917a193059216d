"""Sharded JSONL stores, read-only: sixteen per-prefix logs under ``<dir>/shards/``.

Earlier builds could write a campaign store as sixteen logs split by the
first hex character of the task key, ``<dir>/shards/shard-<x>.jsonl``
for ``x`` in ``0..f``, plus ``<dir>/shards/MANIFEST.json`` recording the
layout.  That layout existed so many processes could append to one
directory; per-worker jsonl partitions and WAL sqlite cover that case,
so this build only *reads* it.  :class:`ShardedDiskStore` loads an
existing ``shards/`` directory with the same damage classification as
the jsonl backend — ``store verify`` reports on it and ``store migrate
DIR --to jsonl`` (or ``--to sqlite``) converts it losslessly — and every
write raises :class:`ReadOnlyStoreError` naming that migration.
"""

from __future__ import annotations

import json
import os

from repro.store.base import MemoryStore
from repro.store.jsonl import DiskStore, JsonlLog

#: Number of shards (one per first hex character of the task key).
SHARD_COUNT = 16

#: Subdirectory holding the shard files — its presence is how
#: ``detect_backend`` recognises a sharded store.
SHARDS_DIRNAME = "shards"

MANIFEST_FILENAME = "MANIFEST.json"

_SHARD_CHARS = "0123456789abcdef"


class ReadOnlyStoreError(RuntimeError):
    """A write to a read-only (sharded) store.  Deliberately not an
    :class:`OSError`: executors retry those as transient write failures,
    and retrying cannot make a read-only store writable."""


def read_only_error(directory: str) -> ReadOnlyStoreError:
    """The error every write to the sharded store at ``directory`` raises."""
    return ReadOnlyStoreError(
        f"{directory}: sharded stores are read-only; convert it with "
        f"`python -m repro.experiments store migrate {directory} --to jsonl`"
    )


def shard_filename(char: str) -> str:
    return f"shard-{char}.jsonl"


class ShardedDiskStore(DiskStore):
    """The sixteen shard logs of an existing sharded store, read into one
    :class:`DiskStore` index (same record format, same damage
    classification, same last-write-wins dedup).  Reads only: ``put``,
    the chaos write seams and ``compact`` raise
    :class:`ReadOnlyStoreError`."""

    def __init__(self, directory: "str | os.PathLike") -> None:
        MemoryStore.__init__(self)
        self.directory = os.fspath(directory)
        self.description = f"{self.directory} (sharded x{SHARD_COUNT}, read-only)"
        self.shard_dir = os.path.join(self.directory, SHARDS_DIRNAME)
        if not os.path.isdir(self.shard_dir):
            raise ReadOnlyStoreError(
                f"{self.directory}: no sharded store to open; sharded stores "
                "are read-only, so new stores use the jsonl or sqlite backend"
            )
        self._check_manifest()
        self._shards = [
            JsonlLog(os.path.join(self.shard_dir, shard_filename(char)))
            for char in _SHARD_CHARS
        ]
        self.duplicate_lines = 0
        self._load()

    def _check_manifest(self) -> None:
        """Refuse to guess when the manifest declares a different layout
        (another shard count scatters keys differently).  A missing or
        unreadable manifest is tolerated: the shard files are read
        either way."""
        path = os.path.join(self.shard_dir, MANIFEST_FILENAME)
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

    @property
    def path(self) -> str:
        return self.shard_dir

    def _logs(self) -> "list[JsonlLog]":
        return self._shards

    def _refuse(self, *_args):
        raise read_only_error(self.directory)

    put = torn_put = partial_put = compact = _refuse
