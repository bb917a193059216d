"""The campaign service wire protocol: NDJSON event streams over HTTP.

One request, one campaign, one stream::

    POST /campaign HTTP/1.1          -> 200 Content-Type: application/x-ndjson
    {CampaignSpec.to_dict() JSON}       {"event": "PlanReady",  ...}\\n
                                        {"event": "PointResult", ...}\\n
                                        ...
                                        {"done": true, ...}\\n  (connection closes)

    GET /healthz HTTP/1.1            -> 200 {"campaigns": N, ...}

Every event line is :func:`repro.campaign.events.event_to_dict` output —
the wire format *is* the event union, versioned by
``EVENT_SCHEMA_VERSION``; there is no service-private serializer.  The
stream ends with exactly one **done line** (``{"done": true,
"failures": N, "simulations_executed": M, "server_simulations": S}``)
followed by connection close; a request-level failure is a single
**error line** (``{"error": msg}``) on a non-200 response.  Lines are
UTF-8, one JSON object each, no pretty-printing.  ``/healthz`` is one
JSON object: ``campaigns``, ``active_clients``,
``simulations_executed``, ``store_hits`` (keys streamed from the
store), ``store`` and ``store_entries``.

The helpers here are shared by the asyncio server and the blocking
client so both sides agree on framing by construction.
"""

from __future__ import annotations

import json

from repro.campaign.events import Event, event_from_dict, event_to_dict


def encode_line(payload: dict) -> bytes:
    """One NDJSON line (compact JSON + newline, UTF-8)."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: "bytes | str") -> dict:
    """Inverse of :func:`encode_line` (raises ``ValueError`` unless the
    line holds one JSON object)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object per line, got {payload!r}")
    return payload


def event_line(event: Event) -> bytes:
    """The NDJSON line carrying ``event``."""
    return encode_line(event_to_dict(event))


def done_line(
    failures: int, simulations_executed: int, server_simulations: int
) -> bytes:
    """The terminal line of a campaign stream: how many tasks failed
    terminally (each already streamed as a ``TaskFailed`` event), how
    many simulations this campaign executed on the server, and the
    server's cumulative simulation count (the dedup-proof number —
    overlapping concurrent campaigns grow it by less than the sum of
    their standalone runs)."""
    return encode_line(
        {
            "done": True,
            "failures": failures,
            "simulations_executed": simulations_executed,
            "server_simulations": server_simulations,
        }
    )


def error_line(message: str) -> bytes:
    return encode_line({"error": message})


def is_event(payload: dict) -> bool:
    return "event" in payload


def is_done(payload: dict) -> bool:
    # Event payloads may carry their own "done" field (Progress's count);
    # the terminal line is the one with no "event" and a literal true.
    return "event" not in payload and payload.get("done") is True


def parse_event(payload: dict) -> Event:
    """Decode an event line's payload (see
    :func:`repro.campaign.events.event_from_dict`)."""
    return event_from_dict(payload)
