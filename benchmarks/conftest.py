"""Shared fixtures for the figure-regeneration benches.

The performance figures (8-12) share one session-scoped campaign
:class:`~repro.campaign.session.Session`, so simulations run once and
are reused across benches — exactly how the paper's figures share the
same runs.  Point ``REPRO_STORE`` at a campaign directory and the
session reads/writes a persistent store instead, so repeated bench
sessions (and the CLI, and the figures) skip every simulation already
on disk.

Fidelity is environment-controlled (see ``RunnerSettings.from_env``):

* quick (default):        REPRO_INSTR=40000, REPRO_MAPS=6
* paper-scale statistics: REPRO_INSTR=200000 REPRO_MAPS=50

``REPRO_TRACE_CACHE`` applies here too: the session's TraceProvider
loads cached benchmark traces instead of regenerating them each run.
"""

from __future__ import annotations

import os

import pytest

from repro.campaign import RunnerSettings, Session
from repro.store import open_store


@pytest.fixture(scope="session")
def session() -> Session:
    store = open_store(os.environ.get("REPRO_STORE"))
    return Session(RunnerSettings.from_env(), store=store)
