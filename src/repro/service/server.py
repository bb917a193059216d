"""The asyncio campaign server: many clients, one store, zero re-simulation.

``python -m repro.experiments serve`` puts a long-lived front-end over
one shared :class:`~repro.campaign.session.Session`.  Clients POST
:class:`~repro.campaign.spec.CampaignSpec` JSON to ``/campaign`` and
receive the campaign's typed event stream back as NDJSON (see
:mod:`repro.service.protocol`).  The scaling story is the store-dedup
one from the ROADMAP: equal specs produce equal content-hash task keys,
so concurrent users sharing points is a key-coalescing problem, not a
simulation one.

Coalescing contract
-------------------
For every distinct task key of a client's spec, exactly one of:

* **store hit** — the key is already durable: a ``PointResult`` is
  streamed straight from the store, no simulation;
* **claimed** — the key is pending and nobody is simulating it: this
  client claims it (registering an in-flight marker), simulates it via
  the unified Planner/Executor machinery, and streams the result (other
  clients wanting the key await the marker instead of re-simulating);
* **shared** — another client's campaign is already simulating the key:
  this client awaits the in-flight marker and then streams the result
  from the store.  If the claimer fails (its worker crashed terminally,
  its client vanished), the waiter re-claims the key and simulates it
  itself — one re-claim round, then a ``TaskFailed``.

So every client receives a *complete* stream — one ``PointResult`` per
distinct key of its spec, byte-identical to a standalone run — while
the server as a whole executes each simulation at most once (the
``server_simulations`` counter on the done line proves it).

Concurrency model: the event loop owns all coalescing state (claims are
made atomically between awaits); actual simulation runs in a worker
thread under a global lock (one campaign simulates at a time — the
Session and its providers are not thread-safe), streaming its events
back through an ``asyncio.Queue``.  Every spec runs on
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
from repro.campaign.plan import Plan, PlanGroup, WorkItem
from repro.campaign.resilience import Quarantined
from repro.campaign.spec import CampaignSpec
from repro.service import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.executors import Executor
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
        executor: "Executor | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.session = session
        self.executor = executor
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None
        #: One campaign simulates at a time (Session is not thread-safe);
        #: coalescing makes the serialisation cheap — a queued campaign
        #: claims only what is still unclaimed when its turn comes.
        self._sim_lock = asyncio.Lock()
        #: task key -> set when the key lands (or its claimer gives up).
        self._inflight: "dict[str, asyncio.Event]" = {}
        #: Coalescing/claim counters, all served verbatim on /healthz so
        #: remote clients (the predict loop among them) can observe how
        #: effective dedup is: ``store_hits`` (answered from the store),
        #: ``claimed`` (work items this server took ownership of),
        #: ``awaited`` (items served by waiting on another client's
        #: in-flight claim), ``reclaim_rounds`` (campaigns that needed
        #: the second claim round after a claimer failed or vanished).
        self.stats = {
            "campaigns": 0,
            "active_clients": 0,
            "simulations_executed": 0,
            "shared_hits": 0,
            "store_hits": 0,
            "claimed": 0,
            "awaited": 0,
            "reclaim_rounds": 0,
        }

    # ----- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

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
            await self._stream_campaign(writer, spec)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client vanished / server stopping: nothing to salvage
        except Exception:
            # A handler bug must not die silently inside a forgotten task:
            # log it and try to tell the client before closing.
            traceback.print_exc(file=sys.stderr)
            try:
                writer.write(protocol.error_line("internal server error"))
                await writer.drain()
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
            "inflight": len(self._inflight),
        }

    @staticmethod
    async def _respond_json(writer, status: int, payload: dict) -> None:
        body = protocol.encode_line(payload)
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            status, "Error"
        )
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1") + body
        )
        await writer.drain()

    async def _respond_error(self, writer, status: int, message: str) -> None:
        await self._respond_json(writer, status, {"error": message})

    # ----- the campaign stream --------------------------------------------------

    async def _stream_campaign(self, writer, spec: CampaignSpec) -> None:
        self.stats["campaigns"] += 1
        self.stats["active_clients"] += 1
        sender = _StreamSender(writer)
        try:
            await self._run_campaign(sender, spec)
        finally:
            self.stats["active_clients"] -= 1

    async def _run_campaign(self, sender: "_StreamSender", spec: CampaignSpec) -> None:
        session = self.session.derived(spec)
        # Planning reads the store but never simulates; off-thread so a
        # cold trace/signature build cannot stall the event loop.
        plan = await asyncio.to_thread(session.plan, spec)
        await sender.send_head()
        await sender.send_event(PlanReady(plan))

        # Every distinct key of the spec, with one representative task
        # (the stream's completeness contract: one PointResult per key).
        key_tasks: "dict[str, tuple]" = {}
        for benchmark, config, m in spec.work_items():
            m = session._normalize_map_index(config, m)
            key = session.task_key(benchmark, config, m)
            key_tasks.setdefault(key, (benchmark, config, m))

        executed = 0
        failed: "list[Quarantined]" = []
        sent_keys: "set[str]" = set()

        async def send_point(key: str, task: tuple) -> None:
            result = session.store.get(key)
            assert result is not None
            benchmark, config, m = task
            await sender.send_event(PointResult(benchmark, config, m, key, result))
            sent_keys.add(key)

        # Plan-time dedup hits (and anything that landed since): streamed
        # straight from the store, one PointResult per distinct key.
        for key, task in key_tasks.items():
            if session.store.get(key) is not None:
                self.stats["store_hits"] += 1
                await send_point(key, task)

        # Round 0 claims whatever is pending and unclaimed; the re-claim
        # round picks up keys whose claimer failed or vanished.
        pending_items = [
            item for group in plan.groups for item in group.items
        ]
        for round_index in range(2):
            if round_index:
                self.stats["reclaim_rounds"] += 1
            failed_keys = {entry.key for entry in failed}
            # -- atomic partition (no awaits between inflight reads/writes) --
            claimed: "list[WorkItem]" = []
            shared: "list[WorkItem]" = []
            hits: "list[WorkItem]" = []
            for item in pending_items:
                if item.key in sent_keys or item.key in failed_keys:
                    continue
                if item.key in self._inflight:
                    shared.append(item)
                elif session.store.get(item.key) is not None:
                    hits.append(item)  # landed mid-coalesce
                else:
                    self._inflight[item.key] = asyncio.Event()
                    claimed.append(item)
            self.stats["claimed"] += len(claimed)
            self.stats["awaited"] += len(shared)

            for item in hits:
                self.stats["store_hits"] += 1
                await send_point(item.key, item.task)

            # -- simulate this client's claim -------------------------------
            if claimed:
                delta, run_failed = await self._execute_claim(
                    sender, session, plan, claimed, sent_keys
                )
                executed += delta
                failed.extend(run_failed)

            # -- await keys other clients are simulating --------------------
            for item in shared:
                if item.key in sent_keys:
                    continue
                marker = self._inflight.get(item.key)
                if marker is not None:
                    await marker.wait()
                if session.store.get(item.key) is not None:
                    self.stats["shared_hits"] += 1
                    await send_point(item.key, item.task)

            failed_keys = {entry.key for entry in failed}
            missing = [
                item
                for item in pending_items
                if item.key not in sent_keys and item.key not in failed_keys
            ]
            if not missing:
                break
            pending_items = missing
        else:
            # The re-claim round still left holes (a shared claimer failed
            # terminally and our own re-claim did too without reporting):
            # each is terminal here.
            for item in pending_items:
                failed.append(
                    Quarantined(
                        item.task,
                        item.key,
                        0,
                        "shared simulation never landed "
                        "(claimer failed terminally)",
                    )
                )
        for entry in failed:
            await sender.send_event(TaskFailed(entry))

        await sender.send_event(
            Progress(
                done=len(sent_keys),
                total=len(key_tasks),
                simulations_executed=executed,
                schedule_passes=session.schedule_passes,
            )
        )
        await sender.send_done(
            failures=len(failed),
            simulations_executed=executed,
            server_simulations=self.stats["simulations_executed"],
        )

    async def _execute_claim(
        self,
        sender: "_StreamSender",
        session: "Session",
        plan: Plan,
        claimed: "list[WorkItem]",
        sent_keys: "set[str]",
    ) -> "tuple[int, list[Quarantined]]":
        """Simulate ``claimed`` (a sub-plan of ``plan``) in a worker
        thread under the global simulation lock, streaming executor
        events to this client as they happen and resolving each key's
        in-flight marker as it lands.  Returns (simulations executed,
        terminal failures)."""
        claimed_keys = {item.key for item in claimed}
        groups = []
        for group in plan.groups:
            kept = tuple(
                item for item in group.items if item.key in claimed_keys
            )
            if kept:
                groups.append(
                    PlanGroup(
                        benchmark=group.benchmark,
                        merged=group.merged,
                        items=kept,
                        signature=group.signature,
                    )
                )
        subplan = Plan(
            spec=plan.spec,
            groups=tuple(groups),
            total_points=len(claimed_keys),
            dedup_hits=0,
            predicted_passes=plan.predicted_passes,
        )
        failures: "list[Quarantined]" = []
        try:
            async with self._sim_lock:
                from repro.campaign.executors import SerialExecutor

                executor = self.executor or SerialExecutor()
                before = session.simulations_executed
                loop = asyncio.get_running_loop()
                queue: "asyncio.Queue" = asyncio.Queue()

                def pump() -> None:
                    try:
                        for event in executor.run(session, subplan):
                            loop.call_soon_threadsafe(
                                queue.put_nowait, ("event", event)
                            )
                    except BaseException as exc:  # surfaced to the client
                        loop.call_soon_threadsafe(queue.put_nowait, ("error", exc))
                    else:
                        loop.call_soon_threadsafe(queue.put_nowait, ("end", None))

                thread = threading.Thread(
                    target=pump, name="campaign-sim", daemon=True
                )
                thread.start()
                try:
                    while True:
                        kind, payload = await queue.get()
                        if kind == "end":
                            break
                        if kind == "error":
                            failures.extend(
                                Quarantined(
                                    item.task, item.key, 0, repr(payload)
                                )
                                for item in claimed
                                if item.key not in sent_keys
                            )
                            break
                        event = payload
                        if isinstance(event, PointResult):
                            sent_keys.add(event.key)
                            self._resolve(event.key)
                            await sender.send_event(event)
                        elif isinstance(event, TaskFailed):
                            # Collected only: _run_campaign streams every
                            # terminal failure exactly once at the end.
                            failures.append(event.quarantined)
                        elif isinstance(
                            event, (TaskRetried, WorkerCrashed, StoreRecovered)
                        ):
                            await sender.send_event(event)
                        # Per-chunk Progress is session-cumulative and
                        # meaningless to one client of many; the stream
                        # ends with its own campaign-scoped Progress.
                finally:
                    thread.join()
                    self.stats["simulations_executed"] += (
                        session.simulations_executed - before
                    )
        finally:
            # Whatever is still claimed did not land: wake the waiters
            # (they will find the store hole and re-claim).
            for key in claimed_keys:
                self._resolve(key)
        return session.simulations_executed - before, failures

    def _resolve(self, key: str) -> None:
        marker = self._inflight.pop(key, None)
        if marker is not None:
            marker.set()


class _StreamSender:
    """One client's NDJSON output half: survives client disconnects
    (a vanished client must not break the claim bookkeeping — events
    keep 'sending' into the void so the campaign completes and shared
    keys resolve)."""

    def __init__(self, writer) -> None:
        self.writer = writer
        self.alive = True

    async def send_head(self) -> None:
        await self._write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )

    async def send_event(self, event) -> None:
        await self._write(protocol.event_line(event))

    async def send_done(
        self, failures: int, simulations_executed: int, server_simulations: int
    ) -> None:
        await self._write(
            protocol.done_line(failures, simulations_executed, server_simulations)
        )

    async def _write(self, data: bytes) -> None:
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
    executor: "Executor | None" = None,
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
        executor: "Executor | None" = None,
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
