"""The checksummed record codec every stored record decodes through.

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
from typing import Callable, Iterable

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
    payload (preserved verbatim for lossless migration), the
    :class:`SimResult` it validated as, and whether it was a legacy v1
    line (readable, but due an upgrade on rewrite)."""

    key: str
    payload: dict
    result: SimResult
    legacy: bool = False


def _canonical_body(key: str, payload: dict, schema: int) -> str:
    return json.dumps(
        {"key": key, "result": payload, "schema": schema},
        sort_keys=True,
        separators=(",", ":"),
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_checksum(key: str, payload: dict, schema: int = RECORD_SCHEMA_VERSION) -> str:
    """sha256 hex digest of the canonical record body.

    Canonical form: sorted keys, no whitespace — independent of which
    layout stored the record or how its JSON was pretty-printed, so the
    checksum survives migration out of a legacy layout verbatim.
    """
    return _sha256(_canonical_body(key, payload, schema))


def encode_record(key: str, payload: dict) -> str:
    """The v2 encoded record (one line, no trailing newline): the
    canonical body :func:`record_checksum` hashes, with ``"sha"`` as its
    last member — so the checksummed bytes are a verbatim prefix of the
    line, and the line is itself the canonical form of the record."""
    body = _canonical_body(key, payload, RECORD_SCHEMA_VERSION)
    return f'{body[:-1]},"sha":"{_sha256(body)}"}}'


def _verifies_own_bytes(line: str, entry: object) -> bool:
    """Whether ``line`` has the layout :func:`encode_record` writes and
    the bytes before its ``sha`` member, closed with ``}``, hash to that
    sha: then those bytes are the canonical body, and re-encoding the
    parsed record would only reproduce them.  Any other line (another
    layout, or damage anywhere) answers ``False`` and is checked by
    re-encoding."""
    sha = entry.get("sha") if isinstance(entry, dict) else None
    if not isinstance(sha, str):
        return False
    member = f',"sha":"{sha}"}}'
    return line.endswith(member) and _sha256(line[: -len(member)] + "}") == sha


def decode_record(line: str) -> DecodedRecord:
    """Decode and verify one encoded record line: its JSON parse, then
    :func:`decode_entry`, whose checksum re-encode is skipped when the
    line verifies against its own bytes (any line :func:`encode_record`
    wrote and nothing damaged since).

    Raises :class:`MalformedRecord` / :class:`StaleRecord` /
    :class:`CorruptRecord` (all :class:`RecordError`) — callers classify
    damage by exception type; nothing undecodable ever reaches figures.
    """
    try:
        entry = json.loads(line)
    except ValueError as exc:
        raise MalformedRecord(f"not a JSON record: {exc}") from None
    return decode_entry(entry, verified=_verifies_own_bytes(line, entry))


def decode_entry(entry: object, *, verified: bool = False) -> DecodedRecord:
    """Verify one parsed record, ``{"key", "result", "schema", "sha"}``
    (or the legacy v1 ``{"key", "result"}``), whichever layout stored
    it; raises as :func:`decode_record` does.  ``verified`` says the
    record's bytes already matched its sha, so the checksum is not
    recomputed; every other check runs as for any record."""
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
        if not verified and sha != record_checksum(key, payload):
            raise CorruptRecord(f"record checksum mismatch for key {key[:12]}")
    try:
        result = result_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(f"result payload incomplete: {exc!r}") from None
    return DecodedRecord(key=key, payload=payload, result=result, legacy=legacy)


class DamageCounts:
    """What one record source (a log, a shard, a legacy table) held that
    its decoder refused, by class, plus the legacy v1 records it
    accepted."""

    def __init__(self) -> None:
        self.malformed = self.corrupt = self.stale = self.legacy = 0

    def decode_each(
        self, decode: "Callable[[object], DecodedRecord]", raw_records: Iterable
    ) -> "list[DecodedRecord]":
        """``decode(raw)`` for every raw record: the records that verify,
        in order, with every refusal counted by class instead of raised."""
        records: list[DecodedRecord] = []
        for raw in raw_records:
            try:
                records.append(decode(raw))
            except CorruptRecord:
                self.corrupt += 1
            except StaleRecord:
                self.stale += 1
            except RecordError:
                self.malformed += 1
        self.legacy += sum(1 for record in records if record.legacy)
        return records
