"""The campaign server: wire behaviour, coalescing, multi-client dedup.

The acceptance claims under test:

* a remote campaign is **complete and byte-identical** — every distinct
  key of the client's spec arrives as exactly one ``PointResult`` whose
  payload equals a standalone local run's — whether the server simulates
  serially or through the ``PoolExecutor`` that ``serve --workers N``
  builds, which streams each chunk's results as the chunk lands;
* two concurrent clients with overlapping specs each get full streams
  while the server executes strictly fewer simulations than the sum of
  standalone runs (the coalescing contract);
* keys another client is already simulating are *awaited*, never
  re-simulated (forced deterministically with a gated executor);
* a client that differs from the server's session only in scope runs on
  that session; mixed-fidelity clients get one child session per
  fidelity fingerprint over the shared store;
* malformed requests get a 400 status line, never a bare error line;
* terminal failures stream as ``TaskFailed`` and surface client-side as
  ``CampaignError`` — same semantics as local ``Session.run``.
"""

import dataclasses
import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.campaign.events import PlanReady, PointResult, Progress, TaskFailed
from repro.campaign.executors import PoolExecutor, SerialExecutor
from repro.campaign.resilience import CampaignError, RetryPolicy
from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
)
from repro.service.client import RemoteCampaignError, RemoteSession, connect
from repro.service.server import ServerThread
from repro.store import result_to_dict
from repro.testing import chaos

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

SPEC_A = CampaignSpec.from_settings(
    SETTINGS, (LV_BASELINE, LV_WORD, LV_BLOCK), figure="A"
)
SPEC_B = CampaignSpec.from_settings(
    SETTINGS, (LV_BASELINE, LV_WORD, LV_BLOCK_V10), figure="B"
)


@pytest.fixture(autouse=True)
def clean_chaos_env(monkeypatch):
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    yield


def standalone_results(spec: CampaignSpec) -> dict:
    """key -> result dict of a clean local run (the byte-identity
    reference every remote stream must match)."""
    with Session(SETTINGS) as session:
        session.run_all(spec)
        return {
            key: result_to_dict(session.store.get(key))
            for key in spec.task_keys()
        }


def stream_points(events) -> dict:
    return {
        e.key: result_to_dict(e.result)
        for e in events
        if isinstance(e, PointResult)
    }


class TestWireBasics:
    def test_healthz_and_errors(self):
        with Session(SETTINGS) as session, ServerThread(session) as server:
            with urllib.request.urlopen(f"{server.url}/healthz") as response:
                health = json.loads(response.read())
            assert health["campaigns"] == 0
            assert health["store"] == "memory"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/nope")
            excinfo.value.close()
            assert excinfo.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    urllib.request.Request(
                        f"{server.url}/campaign",
                        data=b'{"not": "a spec"}',
                        method="POST",
                    )
                )
            excinfo.value.close()
            assert excinfo.value.code == 400

    def test_client_url_parsing(self):
        remote = RemoteSession("http://127.0.0.1:8631")
        assert (remote.host, remote.port) == ("127.0.0.1", 8631)
        assert connect("127.0.0.1:8631").port == 8631
        with pytest.raises(ValueError):
            RemoteSession("https://127.0.0.1:8631")
        with pytest.raises(ValueError):
            RemoteSession("http://")

    def test_unreachable_server(self):
        remote = RemoteSession("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(RemoteCampaignError):
            list(remote.run(SPEC_A))


class TestSingleClient:
    @pytest.mark.parametrize(
        "make_executor", [SerialExecutor, lambda: PoolExecutor(2)],
        ids=["serial", "pool"],
    )
    def test_stream_is_complete_and_byte_identical(self, make_executor):
        reference = standalone_results(SPEC_A)
        with Session(SETTINGS) as session, ServerThread(
            session, executor=make_executor()
        ) as server:
            with Session.connect(server.url) as remote:
                events = list(remote.run(SPEC_A))
            assert isinstance(events[0], PlanReady)
            assert events[0].plan.spec == SPEC_A
            assert stream_points(events) == reference
            final = [e for e in events if isinstance(e, Progress)][-1]
            assert (final.done, final.total) == (4, 4)
            assert remote.last_done["simulations_executed"] == 4
            assert remote.last_done["failures"] == 0
            # the shared store holds exactly the standalone payloads
            stored = {key: result_to_dict(session.store.get(key)) for key in reference}
            assert stored == reference

    def test_second_run_is_pure_store_hits(self):
        with Session(SETTINGS) as session, ServerThread(session) as server:
            remote = Session.connect(server.url)
            first = stream_points(remote.run(SPEC_A))
            second = stream_points(remote.run(SPEC_A))
            assert second == first
            assert remote.last_done["simulations_executed"] == 0
            assert remote.last_done["server_simulations"] == 4
            assert remote.healthz()["store_hits"] == 4

    def test_run_all_returns_the_plan(self):
        with Session(SETTINGS) as session, ServerThread(session) as server:
            plan = Session.connect(server.url).run_all(SPEC_A)
            assert plan.spec == SPEC_A
            assert plan.total_points == 4

    def test_mixed_fidelity_client_gets_a_derived_session(self):
        # A spec at a different fidelity must not be rejected (local
        # Session.run would demand .derived()): the server derives one
        # over the shared store and trace cache.
        small = RunnerSettings(
            n_instructions=1_500,
            warmup_instructions=500,
            n_fault_maps=2,
            benchmarks=("gzip",),
        )
        spec = CampaignSpec.from_settings(small, (LV_BASELINE, LV_BLOCK))
        with Session(SETTINGS) as session, ServerThread(session) as server:
            remote = Session.connect(server.url)
            points = stream_points(remote.run(spec))
            assert set(points) == set(spec.task_keys())
            assert remote.last_done["simulations_executed"] == 3
            # the derived session is cached: a re-submit is pure hits
            stream_points(remote.run(spec))
            assert remote.last_done["simulations_executed"] == 0


class TestConcurrentClients:
    def test_overlapping_specs_each_complete_total_deduplicated(self):
        ref_a = standalone_results(SPEC_A)
        ref_b = standalone_results(SPEC_B)
        standalone_total = len(ref_a) + len(ref_b)  # 4 + 4
        with Session(SETTINGS) as session, ServerThread(session) as server:
            out: dict = {}

            def client(name: str, spec: CampaignSpec) -> None:
                remote = Session.connect(server.url)
                out[name] = (stream_points(remote.run(spec)), remote.last_done)

            threads = [
                threading.Thread(target=client, args=("A", SPEC_A)),
                threading.Thread(target=client, args=("B", SPEC_B)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            points_a, done_a = out["A"]
            points_b, done_b = out["B"]
            # complete streams: one PointResult per distinct spec key
            assert points_a == ref_a
            assert points_b == ref_b
            # overlap executed once: strictly fewer simulations than the
            # sum of standalone runs, and the union exactly once
            total = done_a["simulations_executed"] + done_b["simulations_executed"]
            assert total < standalone_total
            assert total == len(set(ref_a) | set(ref_b)) == 6
            assert session.simulations_executed == 6

    def test_inflight_keys_are_awaited_not_resimulated(self):
        # Deterministic forced overlap: client A's executor blocks until
        # both campaigns have partitioned SPEC_A's four keys (claimed or
        # awaited; a campaign is counted when it arrives, before it
        # plans), so B provably finds A's keys in flight (identical
        # specs: B claims nothing).
        with Session(SETTINGS) as session:
            server_box: list = []

            class GatedSerial(SerialExecutor):
                def run(self, sess, plan):
                    deadline = time.monotonic() + 30
                    stats = server_box[0].server.stats
                    while (
                        stats["claimed"] + stats["awaited"] < 2 * 4
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.01)
                    yield from super().run(sess, plan)

            with ServerThread(session, executor=GatedSerial()) as server:
                server_box.append(server)
                out: dict = {}

                def client(name: str) -> None:
                    remote = Session.connect(server.url)
                    out[name] = (
                        stream_points(remote.run(SPEC_A)),
                        remote.last_done,
                    )

                first = threading.Thread(target=client, args=("A",))
                second = threading.Thread(target=client, args=("B",))
                first.start()
                time.sleep(0.3)  # let A plan and claim before B arrives
                second.start()
                first.join(timeout=120)
                second.join(timeout=120)
                assert out["A"][0] == out["B"][0] == standalone_results(SPEC_A)
                executed = [d["simulations_executed"] for _, d in out.values()]
                assert sorted(executed) == [0, 4]  # one simulated, one shared
                stats = server.server.stats
                assert stats["simulations_executed"] == 4
                assert stats["shared_hits"] + stats["store_hits"] >= 4


class TestFailureSurface:
    def test_terminal_failures_reach_the_client_as_campaign_error(
        self, monkeypatch
    ):
        # poison:0.2,seed:11 marks exactly one of this campaign's six
        # keys (validated by the pool-executor chaos suite): it fails in
        # workers and in the parent replay, so the client must see one
        # TaskFailed and CampaignError — while the five healthy points
        # still stream.
        monkeypatch.setenv(chaos.CHAOS_ENV, "poison:0.2,seed:11")
        spec = CampaignSpec.from_settings(
            SETTINGS, (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10)
        )
        with Session(SETTINGS) as session:
            executor = PoolExecutor(
                2, retry=RetryPolicy(max_attempts=2, backoff_base=0.0)
            )
            with ServerThread(session, executor=executor) as server:
                remote = Session.connect(server.url)
                events: list = []
                with pytest.raises(CampaignError) as excinfo:
                    for event in remote.run(spec):
                        events.append(event)
                assert len(excinfo.value.failures) == 1
                assert "poison" in excinfo.value.failures[0].error
                failed = [e for e in events if isinstance(e, TaskFailed)]
                assert len(failed) == 1
                points = stream_points(events)
                assert len(points) == 5
                assert failed[0].key not in points
                assert remote.last_done["failures"] == 1


class TestServeExecutor:
    def test_point_results_precede_the_last_chunk_progress(
        self, monkeypatch
    ):
        # `serve --workers 2` builds an executor that lands every chunk
        # as it completes: over a plan of two or more chunks, a
        # PointResult reaches the stream before the last per-chunk
        # Progress (the final Progress follows the drain), and Progress
        # `done` counts climb monotonically to the total.
        import repro.experiments.__main__ as cli
        import repro.service.server as server_module

        built = {}

        def capture(session, executor=None, **kwargs):
            built["executor"] = executor

        monkeypatch.setattr(server_module, "serve_blocking", capture)
        argv = ["--workers", "2", "--port", "0", "--no-store",
                "--instructions", "3000", "--warmup", "1000", "--maps", "2",
                "--benchmarks", "gzip"]
        assert cli._serve_main(argv) == 0
        with Session(SETTINGS) as session:
            spec = session.spec((LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10))
            assert len(session.plan(spec).worker_batches()) >= 2
            events = list(session.run(spec, executor=built["executor"]))
        progress = [i for i, e in enumerate(events) if isinstance(e, Progress)]
        points = [i for i, e in enumerate(events) if isinstance(e, PointResult)]
        assert len(progress) >= 3  # one per chunk, then the final one
        assert len(points) == 6
        assert points[0] < progress[-2]
        done_counts = [events[i].done for i in progress]
        assert done_counts == sorted(done_counts)
        assert done_counts[-1] == 6


class TestSessionPerFingerprint:
    def test_scope_runs_on_the_base_session_and_fidelity_on_one_child(self):
        rescoped = CampaignSpec.from_settings(
            dataclasses.replace(SETTINGS, n_fault_maps=3, benchmarks=("mcf",)),
            (LV_BASELINE, LV_BLOCK),
        )
        shorter = dataclasses.replace(SETTINGS, n_instructions=1_500)
        foreign = CampaignSpec.from_settings(shorter, (LV_BASELINE, LV_BLOCK))
        with Session(SETTINGS) as session, ServerThread(session) as server:
            remote = Session.connect(server.url)
            points = stream_points(remote.run(rescoped))
            assert set(points) == set(rescoped.task_keys())
            assert session.simulations_executed == len(points) == 4
            stream_points(remote.run(foreign))
            stream_points(remote.run(dataclasses.replace(foreign, n_fault_maps=3)))
            child = session.derived(foreign)
            assert child is not session and child.store is session.store
            # both foreign-fidelity campaigns ran on the one child: 3 + 1
            assert child.simulations_executed == 4
            assert session.simulations_executed == 4
        assert child._closed


class TestMalformedRequests:
    @pytest.mark.parametrize("length", ["abc", "-5", "99999999999"])
    def test_bad_content_length_gets_400(self, length):
        with Session(SETTINGS) as session, ServerThread(session) as server:
            address = ("127.0.0.1", server.server.port)
            with socket.create_connection(address, timeout=30) as sock:
                sock.sendall(
                    b"POST /campaign HTTP/1.1\r\n"
                    b"Content-Length: " + length.encode() + b"\r\n\r\n"
                )
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"spec JSON body" in reply
