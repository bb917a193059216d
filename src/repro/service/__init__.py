"""The campaign service layer: the wire API over a shared session.

Two pieces, layered on the campaign and store seams:

* :mod:`repro.service.server` — a stdlib-asyncio campaign server
  (``python -m repro.experiments serve``) accepting
  :class:`~repro.campaign.spec.CampaignSpec` JSON from many concurrent
  clients over HTTP and streaming typed campaign events back as NDJSON,
  deduplicating overlapping specs against the shared store (one
  campaign simulates at a time and re-plans when its turn comes, so a
  key is never simulated twice).  It simulates through the same
  :class:`~repro.campaign.executors.PoolExecutor` as ``run`` —
  ``PoolExecutor(1)`` in its simulation thread by default, a pool under
  ``serve --workers N`` — so every group or chunk lands in the shared
  store as it completes, with the same write retries and quarantine.
* :class:`~repro.service.client.RemoteSession` — the thin blocking
  client (``Session.connect(url)``), exposing the same streaming
  iterator API as a local ``Session.run``.

The wire format is :func:`repro.campaign.events.event_to_dict` /
``event_from_dict`` — events are the API, identical in-process and over
the wire.
"""

from repro.service.client import RemoteSession, connect

__all__ = ["RemoteSession", "connect"]
