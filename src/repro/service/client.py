"""The blocking campaign client: ``Session.connect(url)``.

A :class:`RemoteSession` speaks the NDJSON wire protocol
(:mod:`repro.service.protocol`) to a campaign server and exposes the
same streaming surface as a local session —

    with Session.connect("http://127.0.0.1:8631") as remote:
        for event in remote.run(spec):
            ...

``run`` yields the same typed :mod:`repro.campaign.events` objects a
local ``Session.run`` yields (decoded from the wire, so a ``PlanReady``
carries ``signature=None`` groups) and raises
:class:`~repro.campaign.resilience.CampaignError` after the stream
drains if any task failed terminally — drop-in for consumers written
against the local API.  It is intentionally a plain blocking
``http.client`` loop: one connection per campaign, no asyncio on the
client side.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse
from typing import TYPE_CHECKING, Iterator

from repro.campaign.events import Event, PlanReady, TaskFailed
from repro.campaign.plan import Plan
from repro.campaign.resilience import CampaignError, Quarantined
from repro.service import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.spec import CampaignSpec


class RemoteCampaignError(ConnectionError):
    """The server rejected a request or the stream broke mid-campaign
    (distinct from :class:`CampaignError`, which means the campaign ran
    and some tasks failed terminally)."""


class RemoteSession:
    """A campaign session living behind a URL.

    Mirrors the campaign half of :class:`~repro.campaign.session.Session`:
    :meth:`run` streams events, :meth:`run_all` drains for the plan.
    Each campaign uses its own HTTP connection, so one ``RemoteSession``
    may run campaigns back to back (or from independent threads).
    """

    def __init__(self, url: str, timeout: "float | None" = 600.0) -> None:
        parsed = urllib.parse.urlsplit(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"campaign servers speak plain http, not {url!r}")
        if not parsed.hostname:
            raise ValueError(f"no host in campaign server url {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        #: Done-line fields of the last drained campaign (failures,
        #: simulations_executed, server_simulations).
        self.last_done: "dict | None" = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ----- lifecycle (context-manager parity with Session) ----------------------

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Nothing to release — connections are per-campaign — but the
        method exists so remote and local sessions close uniformly."""

    # ----- HTTP plumbing --------------------------------------------------------

    def _request(
        self, method: str, path: str, body: "bytes | None" = None
    ) -> http.client.HTTPResponse:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            return connection.getresponse()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise RemoteCampaignError(
                f"campaign server unreachable at {self.url}: {exc!r}"
            ) from exc

    def healthz(self) -> dict:
        """The server's ``/healthz`` counters."""
        response = self._request("GET", "/healthz")
        try:
            return json.loads(response.read())
        finally:
            response.close()

    # ----- campaign API ---------------------------------------------------------

    def run(self, spec: "CampaignSpec") -> Iterator[Event]:
        """Stream ``spec``'s campaign from the server: ``PlanReady``
        first, then one ``PointResult`` per distinct point of the spec
        (simulated for this campaign, or read from the server's store
        after another campaign simulated it — the client cannot tell,
        by design), raising :class:`CampaignError` after the stream
        drains if any task failed terminally."""
        body = json.dumps(spec.to_dict()).encode("utf-8")
        response = self._request("POST", "/campaign", body)
        try:
            if response.status != 200:
                payload = {}
                try:
                    payload = json.loads(response.read())
                except ValueError:
                    pass
                raise RemoteCampaignError(
                    payload.get("error")
                    or f"campaign server answered {response.status}"
                )
            failed: "list[Quarantined]" = []
            done = None
            while True:
                line = response.readline()
                if not line:
                    break
                payload = protocol.decode_line(line)
                if not protocol.is_event(payload):
                    if protocol.is_done(payload):
                        done = payload
                        break
                    raise RemoteCampaignError(
                        str(payload.get("error", f"unreadable line {payload!r}"))
                    )
                event = protocol.parse_event(payload)
                if isinstance(event, TaskFailed):
                    failed.append(event.quarantined)
                yield event
            if done is None:
                raise RemoteCampaignError(
                    "campaign stream ended without a done line "
                    "(server died mid-campaign?)"
                )
            self.last_done = done
            if failed:
                raise CampaignError(failed)
        finally:
            response.close()

    def run_all(self, spec: "CampaignSpec") -> Plan:
        """Drain :meth:`run` for its side effect (the server's store now
        holds every point) and return the resolved plan."""
        plan: "Plan | None" = None
        for event in self.run(spec):
            if isinstance(event, PlanReady):
                plan = event.plan
        assert plan is not None  # the stream always opens with PlanReady
        return plan


def connect(url: str, timeout: "float | None" = 600.0) -> RemoteSession:
    """A :class:`RemoteSession` for the campaign server at ``url``
    (also reachable as ``Session.connect``)."""
    return RemoteSession(url, timeout=timeout)
