"""SQLite backend: WAL-mode database, upsert semantics, busy retries.

Where the JSONL backends get crash consistency from append-only lines
plus tail repair, this backend delegates it to SQLite's WAL journal —
a killed writer's half-committed transaction simply never becomes
visible — while keeping the *record* contract identical: every row
carries the same ``schema`` epoch and the same backend-independent
``sha`` checksum (see the :mod:`repro.store` format spec), verified
when the store opens.  A flipped bit inside a committed page that
SQLite itself cannot notice is therefore still caught per record.

Concurrency: writes are upserts (``INSERT ... ON CONFLICT(key) DO
UPDATE``), so re-putting a key is a harmless overwrite instead of a
duplicate line, and transient ``database is locked`` contention from a
sibling writer is retried with deterministic exponential backoff on top
of SQLite's own busy timeout — concurrent campaigns queue instead of
failing.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time

from repro.cpu.pipeline import SimResult

from repro.store.base import MemoryStore, StoreHealth
from repro.store.format import (
    RECORD_SCHEMA_VERSION,
    record_checksum,
    result_from_dict,
    result_to_dict,
)

#: File name of the sqlite database inside a campaign directory — its
#: presence is how ``detect_backend`` recognises this backend.
SQLITE_FILENAME = "results.sqlite"

#: SQLite-level wait for a competing writer before raising "busy"
#: (seconds); our own retry loop then backs off and re-tries on top.
_BUSY_TIMEOUT = 10.0

#: Deterministic retry schedule for locked/busy write errors (seconds).
_RETRY_DELAYS = (0.05, 0.1, 0.2, 0.4, 0.8)

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS results (
    key     TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    schema  INTEGER NOT NULL,
    sha     TEXT NOT NULL
)
"""

_UPSERT_SQL = """
INSERT INTO results (key, payload, schema, sha) VALUES (?, ?, ?, ?)
ON CONFLICT(key) DO UPDATE SET
    payload = excluded.payload,
    schema  = excluded.schema,
    sha     = excluded.sha
"""


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    message = str(exc).lower()
    return "locked" in message or "busy" in message


class SqliteStore(MemoryStore):
    """Result store in a single WAL-mode SQLite database.

    The whole table is read and checksum-verified at open (the same
    damage taxonomy as the JSONL backends — corrupt / stale / malformed
    rows are counted and excluded, never folded into figures), then
    served from the in-memory index; every :meth:`put` upserts one row
    and commits.  ``fsync=True`` runs ``PRAGMA synchronous=FULL`` so
    each commit reaches the platter; the default ``NORMAL`` is durable
    through the OS cache, matching the JSONL backends' flush-per-put.
    """

    def __init__(
        self,
        directory: "str | os.PathLike",
        fsync: bool = False,
        timeout: float = _BUSY_TIMEOUT,
    ) -> None:
        super().__init__()
        self.directory = os.fspath(directory)
        self.description = f"{self.directory} (sqlite)"
        os.makedirs(self.directory, exist_ok=True)
        self.db_path = os.path.join(self.directory, SQLITE_FILENAME)
        self.fsync = fsync
        self.timeout = timeout
        self._conn: "sqlite3.Connection | None" = None
        self.duplicate_lines = 0  # upserts cannot create duplicates
        self.corrupt_records = 0
        self.stale_records = 0
        self.skipped_lines = 0  # malformed rows (historical name)
        self.legacy_lines = 0
        self._bad_keys: list[str] = []
        self.write_retries = 0
        self._load()

    @property
    def path(self) -> str:
        return self.db_path

    # ----- connection -----------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            # The campaign server checkpoints from its campaign threads,
            # one campaign at a time, not from the thread that opened the
            # store; the connection is never used by two threads at once.
            conn = sqlite3.connect(
                self.db_path, timeout=self.timeout, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA busy_timeout={int(self.timeout * 1000)}")
            conn.execute(
                "PRAGMA synchronous=" + ("FULL" if self.fsync else "NORMAL")
            )
            conn.execute(_SCHEMA_SQL)
            conn.commit()
            self._conn = conn
        return self._conn

    def _execute_write(self, sql: str, params: tuple = ()) -> None:
        """One committed write, retrying transient lock contention with
        a deterministic backoff schedule (sibling writers queue; a
        genuinely wedged database still raises after the schedule)."""
        last: "sqlite3.OperationalError | None" = None
        for attempt, delay in enumerate((0.0,) + _RETRY_DELAYS):
            if delay:
                self.write_retries += 1
                time.sleep(delay)
            try:
                conn = self._connection()
                conn.execute(sql, params)
                conn.commit()
                return
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc):
                    raise
                last = exc
        raise last  # type: ignore[misc]

    # ----- loading --------------------------------------------------------------

    def _load(self) -> None:
        conn = self._connection()
        try:
            rows = conn.execute(
                "SELECT key, payload, schema, sha FROM results ORDER BY rowid"
            ).fetchall()
        except sqlite3.DatabaseError:
            # The main db file itself is unreadable; surface loudly —
            # there is nothing to serve and nothing safe to write.
            raise
        for key, payload_text, schema, sha in rows:
            try:
                payload = json.loads(payload_text)
                if not isinstance(payload, dict):
                    raise ValueError("payload is not an object")
            except ValueError:
                self.skipped_lines += 1
                self._bad_keys.append(key)
                continue
            if schema != RECORD_SCHEMA_VERSION:
                self.stale_records += 1
                self._bad_keys.append(key)
                continue
            if sha != record_checksum(key, payload):
                self.corrupt_records += 1
                self._bad_keys.append(key)
                continue
            try:
                result = result_from_dict(payload)
            except (KeyError, TypeError, ValueError):
                self.skipped_lines += 1
                self._bad_keys.append(key)
                continue
            self._results[key] = result

    def health(self) -> StoreHealth:
        return StoreHealth(
            records=len(self),
            duplicates=self.duplicate_lines,
            corrupt=self.corrupt_records,
            stale=self.stale_records,
            malformed=self.skipped_lines,
            legacy=self.legacy_lines,
        )

    # ----- writes ---------------------------------------------------------------

    def put(self, key: str, result: SimResult) -> None:
        payload = result_to_dict(result)
        self._execute_write(
            _UPSERT_SQL,
            (
                key,
                json.dumps(payload, sort_keys=True),
                RECORD_SCHEMA_VERSION,
                record_checksum(key, payload),
            ),
        )
        super().put(key, result)

    # Chaos seams (repro.testing.chaos.ChaosStore): a torn write under
    # WAL is an uncommitted transaction — invisible on reload, which is
    # exactly the semantics the fault models.
    def torn_put(self, key: str, result: SimResult) -> None:
        """Simulate a crash mid-transaction: the row never commits."""

    def partial_put(self, key: str, result: SimResult) -> None:
        """Simulate a commit lost below the OS (power cut before the WAL
        frame reached disk): the writer believes the put succeeded but
        the row is absent on reload."""
        MemoryStore.put(self, key, result)

    # ----- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        if self._conn is not None:
            self._conn.commit()
            if self.fsync:
                try:
                    self._conn.execute("PRAGMA wal_checkpoint(FULL)")
                except sqlite3.OperationalError:
                    pass  # checkpoint contention is harmless; WAL persists

    def close(self) -> None:
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None

    def compact(self) -> int:
        """Delete unreadable rows (their keys were recorded at load),
        checkpoint the WAL, and vacuum; returns rows removed.  Like the
        JSONL compaction this is for quiesced directories."""
        removed = 0
        for key in self._bad_keys:
            self._execute_write("DELETE FROM results WHERE key = ?", (key,))
            removed += 1
        conn = self._connection()
        try:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            conn.execute("VACUUM")
            conn.commit()
        except sqlite3.OperationalError:
            pass  # a concurrent reader can block VACUUM; deletion stands
        self._bad_keys = []
        self.corrupt_records = 0
        self.stale_records = 0
        self.skipped_lines = 0
        self.duplicate_lines = 0
        return removed
