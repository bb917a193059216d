"""The store API: the ABC, health reporting, MemoryStore."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator

from repro.cpu.pipeline import SimResult


@dataclass(frozen=True)
class StoreHealth:
    """What a store found wrong with its persisted records at load.

    Every count is *detected and contained* damage — the affected
    records were excluded from (or shadowed in) the in-memory index, so
    figures never see them.  ``repair``/``compact`` rewrite the store
    without them (and upgrade ``legacy`` records to the checksummed
    format).
    """

    #: Readable records currently served.
    records: int = 0
    #: Later-append-shadowed duplicate records (concurrent writers).
    duplicates: int = 0
    #: Records failing their own checksum (bit-rot that parses as JSON).
    corrupt: int = 0
    #: Well-formed records from a different schema epoch, not folded in.
    stale: int = 0
    #: Undecodable lines/rows (torn tails, fused lines, foreign bytes).
    malformed: int = 0
    #: Readable legacy v1 records (no checksum; upgraded on rewrite).
    legacy: int = 0

    @property
    def damaged(self) -> bool:
        """Whether anything needs ``repair`` (legacy records are
        readable and do not count as damage)."""
        return bool(self.duplicates or self.corrupt or self.stale or self.malformed)

    def describe(self) -> str:
        """One-line rendering for logs and campaign events."""
        parts = [f"{self.records} record(s)"]
        for name in ("duplicates", "corrupt", "stale", "malformed", "legacy"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value}")
        return " ".join(parts)


class ResultStore(abc.ABC):
    """Keyed persistence for simulation results.

    Implementations must make :meth:`put` durable immediately (a killed
    campaign resumes from whatever was put), and must treat re-putting an
    existing key as a harmless overwrite with identical content.
    """

    @abc.abstractmethod
    def get(self, key: str) -> SimResult | None:
        """The stored result, or ``None`` if absent."""

    @abc.abstractmethod
    def put(self, key: str, result: SimResult) -> None:
        """Durably record ``result`` under ``key``."""

    @abc.abstractmethod
    def keys(self) -> Iterator[str]:
        """Iterate over stored keys."""

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def health(self) -> StoreHealth:
        """Damage detected (and contained) when the store loaded; a
        clean in-memory store reports all-zero counts."""
        return StoreHealth(records=len(self))

    # ----- lifecycle ------------------------------------------------------------
    #
    # Stores are context managers: ``with open_store(dir) as store:``
    # guarantees buffered state reaches disk even on error paths.  The
    # default flush/close are no-ops (MemoryStore has nothing durable);
    # the jsonl store holds a persistent append handle and releases it
    # here.  A closed store stays *readable* — and re-opens lazily on the
    # next put — so long-lived callers sharing one store cannot be broken
    # by a sibling's teardown.

    def flush(self) -> None:
        """Push buffered writes to durable storage (no-op by default)."""

    def close(self) -> None:
        """Flush and release any held resources (no-op by default)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    #: Human-readable location for campaign summaries.
    description: str = "memory"


class MemoryStore(ResultStore):
    """Process-private dict — the pre-campaign behaviour."""

    description = "memory"

    def __init__(self) -> None:
        self._results: dict[str, SimResult] = {}

    def get(self, key: str) -> SimResult | None:
        return self._results.get(key)

    def put(self, key: str, result: SimResult) -> None:
        self._results[key] = result

    def keys(self) -> Iterator[str]:
        return iter(dict(self._results))

    def __contains__(self, key: str) -> bool:
        return key in self._results

    def __len__(self) -> int:
        return len(self._results)
