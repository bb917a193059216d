"""``GET /healthz`` counters.

A campaign streams the keys the store already holds, then — if any key
is missing — waits for the simulation lock, streams what other
campaigns stored meanwhile, and re-plans: the Planner is the only
dedup.  ``/healthz`` serves the running totals remote clients (the
predict loop's economics reporting among them) read dedup off:
``simulations_executed`` and ``store_hits`` (every key streamed from
the store, on arrival or after waiting).  These tests pin the field
set and the arithmetic: every distinct key is simulated once and, for
every later campaign that asks for it, streamed from the store once,
under any interleaving of concurrent clients.
"""

import json
import threading
import time
import urllib.request

from repro.campaign.executors import PoolExecutor
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

COUNTERS = ("campaigns", "active_clients", "simulations_executed", "store_hits")


def healthz(server) -> dict:
    with urllib.request.urlopen(f"{server.url}/healthz") as response:
        return json.load(response)


def run_two_clients(server) -> list:
    """Submit SPEC from two concurrent clients; their done lines."""
    done: list = []

    def client() -> None:
        remote = Session.connect(server.url)
        remote.run_all(SPEC)
        done.append(remote.last_done)

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return done


class TestCounters:
    def test_fresh_server_serves_zeroed_counters(self):
        with Session(SETTINGS) as session, ServerThread(session) as server:
            health = healthz(server)
            assert set(health) == {*COUNTERS, "store", "store_entries"}
            for counter in COUNTERS:
                assert health[counter] == 0
            assert health["store_entries"] == 0

    def test_each_key_simulates_once_and_then_streams_from_the_store(self):
        with Session(SETTINGS) as session, ServerThread(session) as server:
            remote = Session.connect(server.url)
            remote.run_all(SPEC)
            health = healthz(server)
            assert health["simulations_executed"] == N_KEYS
            assert health["store_hits"] == 0
            assert health["store_entries"] == N_KEYS
            # a re-submit is pure store hits: nothing simulates
            remote.run_all(SPEC)
            health = healthz(server)
            assert health["simulations_executed"] == N_KEYS
            assert health["store_hits"] == N_KEYS
            assert health["campaigns"] == 2
            assert health["active_clients"] == 0

    def test_concurrent_clients_on_one_spec(self):
        # Whichever campaign takes the simulation lock first simulates
        # every key; the other streams them all from the store, on
        # arrival or after waiting for the lock.
        with Session(SETTINGS) as session, ServerThread(session) as server:
            done = run_two_clients(server)
            executed = sorted(d["simulations_executed"] for d in done)
            assert executed == [0, N_KEYS]
            health = healthz(server)
            assert health["store_hits"] == health["simulations_executed"] == N_KEYS

    def test_a_queued_campaign_streams_keys_landed_while_it_waited(self):
        # Forced overlap: the first campaign to take the simulation lock
        # simulates only once both campaigns have arrived, so the other
        # arrives while every key is still in flight.
        with Session(SETTINGS) as session:
            server_box: list = []

            class GatedSerial(PoolExecutor):
                def run(self, sess, plan):
                    deadline = time.monotonic() + 30
                    stats = server_box[0].server.stats
                    while stats["campaigns"] < 2 and time.monotonic() < deadline:
                        time.sleep(0.01)
                    yield from super().run(sess, plan)

            with ServerThread(session, executor=GatedSerial(1)) as server:
                server_box.append(server)
                done = run_two_clients(server)
                executed = sorted(d["simulations_executed"] for d in done)
                assert executed == [0, N_KEYS]
                health = healthz(server)
                assert health["store_hits"] == health["simulations_executed"] == N_KEYS
