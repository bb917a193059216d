"""The checksummed record codec shared by every store backend.

One record = one simulation result under its content-hash task key.  The
encoded form (see the package docstring for the full spec) carries a
record-format epoch and a sha256 self-checksum over the canonical
payload, so *every* way a stored record can lie is detected at decode
time and classified:

* :class:`MalformedRecord` — the bytes do not parse as a record at all
  (torn tail, fused lines, a foreign file);
* :class:`CorruptRecord` — parses, but the checksum disagrees: bit-rot
  that still reads as JSON;
* :class:`StaleRecord` — a well-formed record from a *different* schema
  epoch; its bits may be meaningless under current semantics, so it is
  reported, never silently folded into figures.

Legacy v1 records (no ``schema``/``sha`` fields) decode with
``legacy=True`` — readable losslessly, flagged for upgrade.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.cpu.pipeline import SimResult

#: The record-format epoch written by this build.  Bump when the encoded
#: record shape changes incompatibly; loads count (and tooling reports)
#: records from any other epoch instead of trusting their bits.
RECORD_SCHEMA_VERSION = 2


class RecordError(ValueError):
    """A stored record could not be trusted (base of all decode errors)."""


class MalformedRecord(RecordError):
    """The bytes do not parse as a record (torn/fused/foreign line)."""


class CorruptRecord(RecordError):
    """The record parses but fails its own checksum (bit-rot)."""


class StaleRecord(RecordError):
    """A well-formed record from a different schema epoch."""

    def __init__(self, schema, message: str) -> None:
        super().__init__(message)
        self.schema = schema


# --------------------------------------------------------------------------
# SimResult (de)serialization
# --------------------------------------------------------------------------

def result_to_dict(result: SimResult) -> dict:
    """JSON-native rendering of a :class:`SimResult`."""
    return {
        "benchmark": result.benchmark,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "branch_mispredictions": result.branch_mispredictions,
        "branch_predictions": result.branch_predictions,
        "hierarchy_stats": result.hierarchy_stats,
    }


def result_from_dict(data: dict) -> SimResult:
    """Inverse of :func:`result_to_dict` (raises on malformed input)."""
    return SimResult(
        benchmark=data["benchmark"],
        instructions=int(data["instructions"]),
        cycles=int(data["cycles"]),
        branch_mispredictions=int(data["branch_mispredictions"]),
        branch_predictions=int(data["branch_predictions"]),
        hierarchy_stats=dict(data["hierarchy_stats"]),
    )


# --------------------------------------------------------------------------
# Record codec
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodedRecord:
    """One verified record: the task key, the raw JSON-native result
    payload (preserved verbatim for lossless migration), and whether it
    was a legacy v1 line (readable, but due an upgrade on rewrite)."""

    key: str
    payload: dict
    legacy: bool = False

    @property
    def result(self) -> SimResult:
        return result_from_dict(self.payload)


def record_checksum(key: str, payload: dict, schema: int = RECORD_SCHEMA_VERSION) -> str:
    """sha256 hex digest of the canonical record body.

    Canonical form: sorted keys, no whitespace — independent of which
    backend stored the record or how its JSON was pretty-printed, so the
    checksum survives migration between backends verbatim.
    """
    canonical = json.dumps(
        {"key": key, "result": payload, "schema": schema},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def encode_record(key: str, payload: dict) -> str:
    """The v2 encoded record (one line, no trailing newline)."""
    return json.dumps(
        {
            "key": key,
            "result": payload,
            "schema": RECORD_SCHEMA_VERSION,
            "sha": record_checksum(key, payload),
        },
        sort_keys=True,
    )


def decode_record(line: str) -> DecodedRecord:
    """Decode and verify one encoded record.

    Raises :class:`MalformedRecord` / :class:`StaleRecord` /
    :class:`CorruptRecord` (all :class:`RecordError`) — callers classify
    damage by exception type; nothing undecodable ever reaches figures.
    """
    try:
        entry = json.loads(line)
    except ValueError as exc:
        raise MalformedRecord(f"not a JSON record: {exc}") from None
    if not isinstance(entry, dict) or "key" not in entry or "result" not in entry:
        raise MalformedRecord("record needs 'key' and 'result' fields")
    key = entry["key"]
    payload = entry["result"]
    if not isinstance(key, str) or not key or not isinstance(payload, dict):
        raise MalformedRecord("record key/result have the wrong shape")
    legacy = "schema" not in entry and "sha" not in entry
    if not legacy:
        schema = entry.get("schema")
        if schema != RECORD_SCHEMA_VERSION:
            raise StaleRecord(
                schema,
                f"record schema {schema!r} is not this build's "
                f"{RECORD_SCHEMA_VERSION} (stale epoch)",
            )
        sha = entry.get("sha")
        if not isinstance(sha, str):
            raise MalformedRecord("checksummed record lacks its 'sha' field")
        if sha != record_checksum(key, payload):
            raise CorruptRecord(f"record checksum mismatch for key {key[:12]}")
    try:
        result_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(f"result payload incomplete: {exc!r}") from None
    return DecodedRecord(key=key, payload=payload, legacy=legacy)
