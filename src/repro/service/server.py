"""The asyncio campaign server: many clients, one store, zero re-simulation.

``python -m repro.experiments serve`` puts a long-lived front-end over
one shared :class:`~repro.campaign.session.Session`.  Clients POST
:class:`~repro.campaign.spec.CampaignSpec` JSON to ``/campaign`` and
receive the campaign's typed event stream back as NDJSON (see
:mod:`repro.service.protocol`).  The scaling story is the store-dedup
one from the ROADMAP: equal specs produce equal content-hash task keys,
so concurrent users sharing points is a store-dedup problem, not a
simulation one.

Dedup contract
--------------
One campaign simulates at a time, and the
:class:`~repro.campaign.plan.Planner` is the only dedup.  A campaign

1. plans its spec and streams ``PlanReady`` (never waiting behind
   another campaign);
2. streams every key of its spec already in the store as a
   ``PointResult``;
3. if a key is still missing, takes the simulation lock, streams what
   other campaigns stored while it waited, and re-plans its spec: under
   the lock the plan holds exactly the keys no campaign has stored;
4. runs that plan through the server's executor, streaming its
   ``PointResult``, ``TaskRetried``, ``WorkerCrashed`` and
   ``StoreRecovered`` events as they happen;
5. ends with one ``TaskFailed`` per terminal failure, a
   campaign-scoped ``Progress`` and the done line.

A spec that does not decode, or whose first plan fails (an unknown
scheme, a negative victim size), is answered ``400 bad campaign spec``
before any stream begins.

So every client receives a *complete* stream — a ``PointResult`` or a
``TaskFailed`` for every distinct key of its spec, the results
byte-identical to a standalone run — while the server executes each
simulation at most once (the ``server_simulations`` counter on the done
line proves it).  A key in flight in another campaign reaches a queued
client when that campaign releases the lock; a key another campaign
quarantined is re-planned, and run again for the queued campaign.

Concurrency model: the event loop parses requests and streams events;
simulation runs in a worker thread while its campaign holds one
``asyncio.Lock`` (a Session and its providers are not thread-safe),
streaming its events back through an ``asyncio.Queue``; the executor
is ``PoolExecutor(1)``, in that thread, unless ``serve --workers N``
built a pool.  The first plan runs off the loop and outside the lock:
it only reads the store.  Every spec runs on
:meth:`~repro.campaign.session.Session.derived`: the server's own
session whenever the spec's fidelity fingerprint is the session's —
whatever its benchmarks and map count — and a child session over the
same store and trace cache only for a foreign fingerprint, so
mixed-fidelity clients still share everything shareable.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import traceback
from http import HTTPStatus
from typing import TYPE_CHECKING

from repro.campaign.events import (
    PlanReady,
    PointResult,
    Progress,
    StoreRecovered,
    TaskFailed,
    TaskRetried,
    WorkerCrashed,
)
from repro.campaign.executors import PoolExecutor
from repro.campaign.resilience import Quarantined
from repro.campaign.spec import CampaignSpec
from repro.service import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.session import Session

#: Maximum accepted request body (a spec is a few KB; this is generous).
MAX_BODY_BYTES = 4 << 20


class CampaignServer:
    """One listening socket over one shared session (plus one child
    session per foreign fidelity fingerprint), streaming campaigns to
    any number of concurrent clients."""

    def __init__(
        self,
        session: "Session",
        executor: "PoolExecutor | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.session = session
        self.executor = executor if executor is not None else PoolExecutor(1)
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None
        #: One campaign simulates at a time (Session is not thread-safe);
        #: dedup makes the serialisation cheap — a queued campaign
        #: re-plans when its turn comes and simulates only what no
        #: campaign has stored.
        self._sim_lock = asyncio.Lock()
        #: Served verbatim on /healthz so remote clients (the predict
        #: loop among them) can observe how effective dedup is:
        #: campaigns received, clients streaming now, simulations this
        #: server executed, and ``store_hits``, the keys streamed from
        #: the store (on arrival, or after waiting for the lock).
        self.stats = {
            "campaigns": 0,
            "active_clients": 0,
            "simulations_executed": 0,
            "store_hits": 0,
        }

    # ----- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ----- HTTP plumbing --------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        sender = _StreamSender(writer)
        try:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return
            request_line, _, header_block = head.partition(b"\r\n")
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                await self._respond_error(writer, 400, "malformed request line")
                return
            method, path = parts[0].upper(), parts[1]
            headers = {}
            for line in header_block.decode("latin-1").split("\r\n"):
                name, sep, value = line.partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            if method == "GET" and path in ("/healthz", "/"):
                await self._respond_json(writer, 200, self._health_payload())
                return
            if method != "POST" or path != "/campaign":
                await self._respond_error(
                    writer, 404, f"no such endpoint: {method} {path}"
                )
                return
            try:
                length = int(headers.get("content-length") or "0")
            except ValueError:
                length = -1  # malformed: rejected below like a negative one
            if length <= 0 or length > MAX_BODY_BYTES:
                await self._respond_error(
                    writer, 400, "POST /campaign needs a spec JSON body"
                )
                return
            body = await reader.readexactly(length)
            try:
                spec = CampaignSpec.from_dict(json.loads(body))
            except (ValueError, KeyError, TypeError) as exc:
                await self._respond_error(writer, 400, f"bad campaign spec: {exc!r}")
                return
            await self._stream_campaign(sender, spec)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client vanished / server stopping: nothing to salvage
        except Exception:
            # A handler bug must not die silently inside a forgotten task:
            # log it and try to tell the client before closing — with a
            # status line unless a stream's head already went out.
            traceback.print_exc(file=sys.stderr)
            try:
                if sender.head_sent:
                    writer.write(protocol.error_line("internal server error"))
                    await writer.drain()
                else:
                    await self._respond_error(writer, 500, "internal server error")
            except (ConnectionError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _health_payload(self) -> dict:
        return {
            **self.stats,
            "store": self.session.store.description,
            "store_entries": len(self.session.store),
        }

    @staticmethod
    async def _respond_json(writer, status: int, payload: dict) -> None:
        body = protocol.encode_line(payload)
        writer.write(
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1") + body
        )
        await writer.drain()

    async def _respond_error(self, writer, status: int, message: str) -> None:
        await self._respond_json(writer, status, {"error": message})

    # ----- the campaign stream --------------------------------------------------

    async def _stream_campaign(self, sender, spec: CampaignSpec) -> None:
        self.stats["campaigns"] += 1
        self.stats["active_clients"] += 1
        try:
            await self._run_campaign(sender, spec)
        finally:
            self.stats["active_clients"] -= 1

    async def _run_campaign(self, sender: "_StreamSender", spec: CampaignSpec) -> None:
        try:
            session = self.session.derived(spec)
            # This plan only feeds PlanReady, so that event never waits
            # behind another campaign.  Planning reads the store but
            # never simulates; off-thread so a cold trace/signature
            # build cannot stall the event loop.
            plan = await asyncio.to_thread(session.plan, spec)
        except (ValueError, KeyError, TypeError) as exc:
            # A spec that decodes but cannot be planned (an unknown
            # scheme, a negative victim size) is answered as one that
            # does not decode.
            await self._respond_error(sender.writer, 400, f"bad campaign spec: {exc!r}")
            return
        await sender.send_head()
        await sender.send_event(PlanReady(plan))

        # Every distinct key of the spec, with one representative task
        # (the stream's completeness contract: one event per key).
        tasks: "dict[str, tuple]" = {}
        for task in spec.work_items():
            tasks.setdefault(session.task_key(*task), task)
        sent: "set[str]" = set()
        failed: "list[Quarantined]" = []

        async def stream_store_hits() -> None:
            for key, task in tasks.items():
                result = None if key in sent else session.store.get(key)
                if result is not None:
                    sent.add(key)
                    self.stats["store_hits"] += 1
                    await sender.send_event(PointResult(*task, key, result))

        await stream_store_hits()
        executed = passes = 0
        if len(sent) < len(tasks):
            async with self._sim_lock:
                # What other campaigns stored while this one waited.  Under
                # the lock the re-plan holds exactly what no campaign has
                # stored: the Planner is the only dedup.
                await stream_store_hits()
                sims_before = session.simulations_executed
                passes_before = session.schedule_passes
                loop = asyncio.get_running_loop()
                queue: "asyncio.Queue" = asyncio.Queue()

                def pump() -> None:
                    try:
                        for event in self.executor.run(session, session.plan(spec)):
                            loop.call_soon_threadsafe(queue.put_nowait, event)
                    except BaseException as exc:  # surfaced to the client
                        loop.call_soon_threadsafe(queue.put_nowait, exc)
                    finally:
                        loop.call_soon_threadsafe(queue.put_nowait, None)

                thread = threading.Thread(target=pump, name="campaign-sim", daemon=True)
                thread.start()
                try:
                    while (event := await queue.get()) is not None:
                        if isinstance(event, BaseException):
                            reported = sent | {entry.key for entry in failed}
                            failed.extend(
                                Quarantined(task, key, 0, repr(event))
                                for key, task in tasks.items()
                                if key not in reported
                            )
                        elif isinstance(event, PointResult):
                            sent.add(event.key)
                            await sender.send_event(event)
                        elif isinstance(event, TaskFailed):
                            failed.append(event.quarantined)
                        elif isinstance(
                            event, (TaskRetried, WorkerCrashed, StoreRecovered)
                        ):
                            await sender.send_event(event)
                        # Per-chunk Progress is session-cumulative and
                        # meaningless to one client of many; the stream
                        # ends with its own campaign-scoped Progress.
                finally:
                    thread.join()
                    executed = session.simulations_executed - sims_before
                    passes = session.schedule_passes - passes_before
                    self.stats["simulations_executed"] += executed
        for entry in failed:
            await sender.send_event(TaskFailed(entry))
        await sender.send_event(
            Progress(
                done=len(sent),
                total=len(tasks),
                simulations_executed=executed,
                schedule_passes=passes,
            )
        )
        server_total = self.stats["simulations_executed"]
        await sender.write(protocol.done_line(len(failed), executed, server_total))


class _StreamSender:
    """One client's NDJSON output half: survives client disconnects
    (events keep 'sending' into the void, so a vanished client's
    campaign still drains its executor and stores its results before
    the simulation lock passes on)."""

    def __init__(self, writer) -> None:
        self.writer = writer
        self.alive = True
        self.head_sent = False

    async def send_head(self) -> None:
        self.head_sent = True
        await self.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )

    async def send_event(self, event) -> None:
        await self.write(protocol.event_line(event))

    async def write(self, data: bytes) -> None:
        if not self.alive:
            return
        try:
            self.writer.write(data)
            await self.writer.drain()
        except (ConnectionError, OSError):
            self.alive = False


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

async def _serve(server: CampaignServer, announce) -> None:
    await server.start()
    announce(server)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    try:
        import signal

        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
        pass
    try:
        await stop.wait()
    finally:
        await server.stop()


def serve_blocking(
    session: "Session",
    executor: "PoolExecutor | None" = None,
    host: str = "127.0.0.1",
    port: int = 0,
    announce=None,
) -> None:
    """Run a campaign server until SIGINT/SIGTERM (the ``serve`` CLI
    body).  ``announce(server)`` fires once the port is bound."""

    def default_announce(server: CampaignServer) -> None:
        print(f"serving on {server.url}", flush=True)
        print(
            f"[serve] store={session.store.description} "
            f"entries={len(session.store)}",
            file=sys.stderr,
            flush=True,
        )

    asyncio.run(
        _serve(
            CampaignServer(session, executor=executor, host=host, port=port),
            announce or default_announce,
        )
    )


class ServerThread:
    """A campaign server on a background thread (tests, notebooks)::

        with ServerThread(session) as server:
            with Session.connect(server.url) as remote:
                ...

    The thread owns the event loop; ``stop()``/``__exit__`` shuts the
    server down and joins the thread.
    """

    def __init__(
        self,
        session: "Session",
        executor: "PoolExecutor | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = CampaignServer(session, executor=executor, host=host, port=port)
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()

    def start(self) -> "ServerThread":
        def run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.server.start())
            self._started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.stop())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="campaign-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("campaign server failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop = None
            self._thread = None

    @property
    def url(self) -> str:
        return self.server.url

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
