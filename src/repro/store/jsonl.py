"""Append-only checksummed JSONL persistence: the log and the DiskStore.

:class:`JsonlLog` is the shared file engine — one append-only log of
encoded records (see :mod:`repro.store.format`) with damage-classifying
loads, crash-safe tail repair, optional per-append fsync, and atomic
compaction.  :class:`DiskStore` is one log at ``<dir>/results.jsonl``;
the read-only :class:`~repro.store.sharded.ShardedDiskStore` reads
sixteen of them.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from typing import Iterable

from repro.cpu.pipeline import SimResult

from repro.store.base import MemoryStore, StoreHealth
from repro.store.format import (
    CorruptRecord,
    DecodedRecord,
    RecordError,
    StaleRecord,
    decode_record,
    encode_record,
    result_to_dict,
)

#: File name of the append-only result log inside a campaign directory.
RESULTS_FILENAME = "results.jsonl"

#: Bytes read from the end of a log when checking for a torn tail (far
#: larger than any encoded record).
_TAIL_BYTES = 1 << 20


class JsonlLog:
    """One append-only log of encoded records.

    Loading classifies every line (malformed / corrupt / stale / legacy
    — see :class:`~repro.store.format.RecordError`) into counters
    instead of failing; a writer then repairs a *confirmed* torn tail.
    Appends go through one persistent ``O_APPEND`` handle — a single
    buffered write plus flush per record, optionally fsynced per append.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._fh = None
        # Whether our *own* last raw write left the file without a
        # terminator (an injected torn/partial write).  The next write
        # heals it first, so in-process damage stays one line wide.
        self._dirty_tail = False
        self.malformed = 0
        self.corrupt = 0
        self.stale = 0
        self.legacy = 0

    # ----- loading --------------------------------------------------------------

    def load(self) -> "list[DecodedRecord]":
        """Every readable record in file order (damage counted, never
        fatal).  Reads only; see :meth:`repair_tail`."""
        if not os.path.exists(self.path):
            return []
        records: list[DecodedRecord] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(decode_record(line))
                except CorruptRecord:
                    self.corrupt += 1
                except StaleRecord:
                    self.stale += 1
                except RecordError:
                    self.malformed += 1
        self.legacy += sum(1 for record in records if record.legacy)
        return records

    def repair_tail(self) -> None:
        """Terminate a crash-torn final line so the next append starts a
        fresh record instead of fusing onto (and losing along with) the
        truncated tail.

        The repair is a single ``write`` on the ``O_APPEND`` handle — it
        can only ever land at end-of-file, never inside earlier bytes —
        and fires only when the tail is *confirmed* torn: either it
        decodes as a complete record that merely lacks its newline (a
        writer died between the payload and the terminator — the repair
        rescues it), or it fails to decode *and* the file size is stable
        across a re-read (an undecodable tail that is still growing is a
        concurrent writer's in-flight line, and injecting a newline into
        the middle of it would corrupt a healthy record).
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                if size == 0:
                    return
                fh.seek(max(0, size - _TAIL_BYTES))
                tail = fh.read()
        except OSError:
            return
        if tail.endswith(b"\n"):
            return
        last_line = tail.rsplit(b"\n", 1)[-1]
        try:
            decode_record(last_line.decode("utf-8", "replace"))
            confirmed = True  # complete record missing only its newline
        except RecordError:
            try:
                confirmed = os.path.getsize(self.path) == size
            except OSError:
                confirmed = False
        if confirmed:
            fh = self._handle()
            fh.flush()
            os.write(fh.fileno(), b"\n")

    # ----- appending ------------------------------------------------------------

    def _handle(self):
        if self._fh is None or self._fh.closed:
            self._fh = open(self.path, "a", encoding="utf-8")
        else:
            # A sibling store (another process, or a compaction here) may
            # have replaced the log via rename; appending to the old inode
            # would silently write into an unlinked file.  Reopen when the
            # path no longer names the inode this handle holds — same
            # semantics as open-per-append, at one stat per append.
            try:
                stale = os.fstat(self._fh.fileno()).st_ino != os.stat(
                    self.path
                ).st_ino
            except OSError:
                stale = True
            if stale:
                self._fh.close()
                self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def append(self, key: str, payload: dict) -> None:
        """Durably append one encoded record (line-buffered; fsynced too
        when the log was opened with ``fsync=True``)."""
        self.append_raw(encode_record(key, payload) + "\n")

    def append_raw(self, text: str) -> None:
        """Low-level append of raw text — the injection seam the chaos
        harness uses to plant torn/unterminated lines.  A write that
        follows one of our own unterminated writes starts on a fresh
        line, so a survived tear costs exactly the torn record."""
        if self._dirty_tail and text:
            text = "\n" + text
        fh = self._handle()
        fh.write(text)
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())
        self._dirty_tail = not text.endswith("\n")

    # ----- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.flush()
            self._fh.close()
        self._fh = None

    # ----- compaction -----------------------------------------------------------

    def rewrite(self, items: Iterable[tuple[str, dict]]) -> None:
        """Atomically replace the log with exactly ``items`` (encoded
        v2, one line per key).  A temp file in the same directory
        replaces the log via rename, so a reader or crash mid-rewrite
        sees either the old or the new file, never a partial one.
        Resets the damage counters (the damage is gone)."""
        self.close()
        directory = os.path.dirname(self.path) or "."
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".results-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for key, payload in items:
                    fh.write(encode_record(key, payload) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.malformed = self.corrupt = self.stale = self.legacy = 0
        self._dirty_tail = False


class DiskStore(MemoryStore):
    """Append-only checksummed JSONL store under a campaign directory.

    Layout: ``<directory>/results.jsonl``, one encoded record per line
    (see the :mod:`repro.store` format spec).  The full file is indexed
    into memory on open (results are small — a few hundred bytes each;
    the in-memory index is inherited from :class:`MemoryStore`), and
    every :meth:`put` appends and flushes one line, so a killed run
    loses at most the line being written.  Unreadable, checksum-failing,
    and wrong-schema-epoch lines are classified and counted
    (:meth:`health`), never fatal and never folded into results.

    Concurrent writers (parallel campaigns racing on one directory, or a
    resumed run overlapping a live one) can append the same key more
    than once.  Loading deduplicates last-write-wins — the later append
    is the later checkpoint of an identical simulation — counts the
    shadowed lines in :attr:`duplicate_lines`, and warns so runaway file
    growth is visible; :meth:`compact` rewrites the log without them.
    """

    def __init__(self, directory: str | os.PathLike, fsync: bool = False) -> None:
        super().__init__()
        self.directory = os.fspath(directory)
        self.description = self.directory
        os.makedirs(self.directory, exist_ok=True)
        self._log = JsonlLog(
            os.path.join(self.directory, RESULTS_FILENAME), fsync=fsync
        )
        self.duplicate_lines = 0
        self._load()
        self._log.repair_tail()

    # Handle/path introspection (tests and tools peek at these).
    @property
    def path(self) -> str:
        return self._log.path

    @property
    def _fh(self):
        return self._log._fh

    @property
    def skipped_lines(self) -> int:
        """Undecodable lines (the historical name; see :meth:`health`)."""
        return sum(log.malformed for log in self._logs())

    @property
    def corrupt_records(self) -> int:
        return sum(log.corrupt for log in self._logs())

    @property
    def stale_records(self) -> int:
        return sum(log.stale for log in self._logs())

    @property
    def legacy_lines(self) -> int:
        return sum(log.legacy for log in self._logs())

    def _logs(self) -> "list[JsonlLog]":
        return [self._log]

    def _load(self) -> None:
        for log in self._logs():
            for record in log.load():
                if record.key in self._results:
                    self.duplicate_lines += 1
                self._results[record.key] = record.result
        if self.duplicate_lines:
            warnings.warn(
                f"{self.description}: {self.duplicate_lines} duplicate result "
                "line(s) (concurrent writers?); kept the last write per "
                "key — compact() rewrites the log without them",
                stacklevel=3,
            )

    def health(self) -> StoreHealth:
        logs = self._logs()
        return StoreHealth(
            records=len(self),
            duplicates=self.duplicate_lines,
            corrupt=sum(log.corrupt for log in logs),
            stale=sum(log.stale for log in logs),
            malformed=sum(log.malformed for log in logs),
            legacy=sum(log.legacy for log in logs),
        )

    def put(self, key: str, result: SimResult) -> None:
        self._log.append(key, result_to_dict(result))
        super().put(key, result)

    # ----- chaos injection seams (repro.testing.chaos.ChaosStore) ---------------

    def torn_put(self, key: str, result: SimResult) -> None:
        """Plant a torn write: the first half of the encoded record, no
        newline — what a crash mid-append leaves behind."""
        line = encode_record(key, result_to_dict(result))
        self._log.append_raw(line[: len(line) // 2])

    def partial_put(self, key: str, result: SimResult) -> None:
        """Plant an unterminated append: the full record without its
        newline (a buffered write split by a crash), while the writer
        believes the put succeeded (the in-memory index is updated)."""
        self._log.append_raw(encode_record(key, result_to_dict(result)))
        MemoryStore.put(self, key, result)

    # ----- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        for log in self._logs():
            log.flush()

    def close(self) -> None:
        for log in self._logs():
            log.close()

    def compact(self) -> int:
        """Rewrite the log without duplicate, undecodable, corrupt, or
        stale lines (one v2 line per key, current in-memory value,
        insertion order — legacy v1 lines upgrade in place) and return
        the number of lines dropped.  Atomic (temp file + rename).  Opt-in:
        appends from writers racing the rename can be lost, so compact
        only quiesced campaign directories."""
        removed = self.duplicate_lines + sum(
            log.malformed + log.corrupt + log.stale for log in self._logs()
        )
        self._log.rewrite(
            (key, result_to_dict(result)) for key, result in self._results.items()
        )
        self.duplicate_lines = 0
        return removed
