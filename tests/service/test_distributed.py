"""Distributed execution behind the campaign server.

``serve --workers N`` fans each campaign's plan out to worker processes
through the :class:`~repro.campaign.executors.PoolExecutor` the CLI
builds from its execution flags.  The claim under test: when real workers crash
mid-campaign, that executor, with the retry budget ``--max-retries``
gives it, still drains to the exact serial store.
"""

import json

import pytest

from repro.campaign.events import TaskRetried, WorkerCrashed
from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
)
from repro.store import result_to_dict
from repro.testing import chaos

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

CONFIGS = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10)


def store_snapshot(session: Session) -> str:
    payload = {
        key: result_to_dict(session.store.get(key)) for key in session.store.keys()
    }
    return json.dumps(payload, sort_keys=True)


def serve_executor(monkeypatch, *flags: str):
    """The executor ``serve`` would hand its server, built from ``flags``."""
    import repro.experiments.__main__ as cli
    import repro.service.server as server_module

    built = {}

    def capture(session, executor=None, **kwargs):
        built["executor"] = executor

    monkeypatch.setattr(server_module, "serve_blocking", capture)
    assert cli._serve_main(["--port", "0", "--no-store", *flags]) == 0
    return built["executor"]


@pytest.fixture(autouse=True)
def clean_chaos_env(monkeypatch):
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    yield


class TestDistributedExecution:
    def test_chaos_crash_campaign_is_bit_identical(self, monkeypatch):
        # crash:0.4,seed:3 kills real workers mid-campaign (the rate/seed
        # the pool-executor chaos suite validates); rebuilds + epoch
        # re-rolls must drain the serve executor to the exact serial
        # store.
        reference = Session(SETTINGS)
        reference.run_all(reference.spec(CONFIGS))
        executor = serve_executor(monkeypatch, "--workers", "2", "--max-retries", "4")
        monkeypatch.setenv(chaos.CHAOS_ENV, "crash:0.4,seed:3")
        session = Session(SETTINGS)
        events = list(session.run(session.spec(CONFIGS), executor=executor))
        monkeypatch.delenv(chaos.CHAOS_ENV)
        assert any(isinstance(e, WorkerCrashed) for e in events)
        assert any(isinstance(e, TaskRetried) for e in events)
        assert store_snapshot(session) == store_snapshot(reference)
        assert not session.failures
