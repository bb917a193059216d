"""The campaign API: declarative specs, one planner, and a streaming
Session.

The campaign layer is the only way to run an experiment sweep; it turns
the sweep into data plus one execution seam:

* :class:`~repro.campaign.spec.CampaignSpec` — a frozen,
  JSON-round-trippable description of a campaign (benchmarks, Table III
  configurations, fault-map count, fidelity fields, figure tag).
* :class:`~repro.campaign.plan.Planner` /
  :class:`~repro.campaign.plan.Plan` — the single place a spec is
  resolved against a result store into explicit work: pending items,
  dedup holes, and ``(trace, batch signature)`` lane passes of at most
  ``PASS_LANES`` lanes.
* :class:`~repro.campaign.session.Session` — opens store, trace cache,
  and fault maps once; ``session.run(spec)`` streams typed
  :mod:`~repro.campaign.events` with schedule-pass counters through the
  one executor, :class:`~repro.campaign.executors.PoolExecutor`: in this
  process at one worker (the default), across a process pool at more.
  Every plan group is one ``Session.run_pass``, and every result lands
  in the store through the same retrying path at any worker count.

Figure bytes are pinned by a digest in ``benchmarks/ci_smokes.py
campaign``.
"""

from repro.campaign.events import (
    BatchProposed,
    Converged,
    Event,
    PlanReady,
    PointResult,
    Progress,
    SurrogateFit,
    TaskFailed,
    TaskRetried,
    WorkerCrashed,
    signature_digest,
)
from repro.campaign.executors import PoolExecutor, adaptive_chunksize
from repro.campaign.plan import Plan, PlanGroup, Planner, Task, WorkItem
from repro.campaign.resilience import CampaignError, Quarantined, RetryPolicy
from repro.campaign.session import NormalizedSeries, Session
from repro.campaign.spec import (
    CampaignSpec,
    RunnerSettings,
    config_from_dict,
    config_to_dict,
)

__all__ = [
    "CampaignSpec",
    "RunnerSettings",
    "config_to_dict",
    "config_from_dict",
    "Plan",
    "PlanGroup",
    "Planner",
    "Task",
    "WorkItem",
    "Session",
    "NormalizedSeries",
    "Event",
    "PlanReady",
    "PointResult",
    "Progress",
    "TaskRetried",
    "TaskFailed",
    "WorkerCrashed",
    "SurrogateFit",
    "BatchProposed",
    "Converged",
    "signature_digest",
    "RetryPolicy",
    "Quarantined",
    "CampaignError",
    "PoolExecutor",
    "adaptive_chunksize",
]
