"""The campaign service layer: the wire API over a shared session.

Two pieces, layered on the campaign and store seams:

* :mod:`repro.service.server` — a stdlib-asyncio campaign server
  (``python -m repro.experiments serve``) accepting
  :class:`~repro.campaign.spec.CampaignSpec` JSON from many concurrent
  clients over HTTP and streaming typed campaign events back as NDJSON,
  coalescing overlapping specs against the shared store (in-flight keys
  are awaited, never re-simulated).  It simulates through any
  :class:`~repro.campaign.executors.Executor`; ``serve --workers N``
  uses the same :class:`~repro.campaign.executors.PoolExecutor` as
  ``run``, so every chunk lands in the shared store as it completes.
* :class:`~repro.service.client.RemoteSession` — the thin blocking
  client (``Session.connect(url)``), exposing the same streaming
  iterator API as a local ``Session.run``.

The wire format is :func:`repro.campaign.events.event_to_dict` /
``event_from_dict`` — events are the API, identical in-process and over
the wire.
"""

from repro.service.client import RemoteSession, connect

__all__ = ["RemoteSession", "connect"]
