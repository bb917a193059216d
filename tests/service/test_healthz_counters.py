"""``GET /healthz`` coalescing/claim counters.

The server partitions every campaign's pending keys into store hits,
claims, and awaited in-flight keys; ``/healthz`` serves the running
totals (``store_hits``, ``claimed``, ``awaited``, ``reclaim_rounds``)
so remote clients — the predict loop's economics reporting among them —
can observe how effective dedup is without server-side logs.  These
tests pin the arithmetic: claims count owned work exactly once, awaited
counts keys served off another client's claim (forced deterministically
with a gated executor), and the re-claim round stays at zero on healthy
paths.
"""

import json
import threading
import time
import urllib.request

from repro.campaign.executors import SerialExecutor
from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.experiments.configs import LV_BASELINE, LV_BLOCK, LV_WORD
from repro.service.server import ServerThread

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

SPEC = CampaignSpec.from_settings(SETTINGS, (LV_BASELINE, LV_WORD, LV_BLOCK))
N_KEYS = 4  # baseline 1 + word 1 + block 2


def healthz(server) -> dict:
    with urllib.request.urlopen(f"{server.url}/healthz") as response:
        return json.load(response)


class TestCounters:
    def test_fresh_server_serves_zeroed_counters(self):
        with Session(SETTINGS) as session, ServerThread(session) as server:
            health = healthz(server)
            for counter in ("store_hits", "claimed", "awaited", "reclaim_rounds"):
                assert health[counter] == 0

    def test_claimed_counts_owned_work_exactly_once(self):
        with Session(SETTINGS) as session, ServerThread(session) as server:
            remote = Session.connect(server.url)
            remote.run_all(SPEC)
            health = healthz(server)
            assert health["claimed"] == N_KEYS
            assert health["awaited"] == 0
            assert health["store_hits"] == 0
            assert health["reclaim_rounds"] == 0
            # a re-submit is pure store hits: nothing new claimed
            remote.run_all(SPEC)
            health = healthz(server)
            assert health["claimed"] == N_KEYS
            assert health["store_hits"] == N_KEYS

    def test_awaited_counts_keys_served_off_another_clients_claim(self):
        # Deterministic forced overlap (same construction as the server
        # suite's await test): client A's executor blocks until both
        # campaigns have partitioned their keys — a campaign is counted
        # when it arrives, before it plans — so B provably finds every
        # key of the identical spec in flight: B claims nothing and
        # awaits all.
        with Session(SETTINGS) as session:
            server_box: list = []

            class GatedSerial(SerialExecutor):
                def run(self, sess, plan):
                    deadline = time.monotonic() + 30
                    stats = server_box[0].server.stats
                    while (
                        stats["claimed"] + stats["awaited"] < 2 * N_KEYS
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.01)
                    yield from super().run(sess, plan)

            with ServerThread(session, executor=GatedSerial()) as server:
                server_box.append(server)

                def client() -> None:
                    Session.connect(server.url).run_all(SPEC)

                first = threading.Thread(target=client)
                second = threading.Thread(target=client)
                first.start()
                # B starts only once A holds the claim on every key.
                deadline = time.monotonic() + 30
                while (
                    server.server.stats["claimed"] < N_KEYS
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                second.start()
                first.join(timeout=120)
                second.join(timeout=120)

                health = healthz(server)
                assert health["claimed"] == N_KEYS  # A's claim, counted once
                assert health["awaited"] == N_KEYS  # B waited on all of them
                assert health["reclaim_rounds"] == 0  # the claimer delivered
                assert health["simulations_executed"] == N_KEYS
