"""Typed events streamed by ``Session.run``.

``Session.run(spec)`` is an iterator, not a blocking call: consumers see
the resolved plan first, then one :class:`PointResult` per completed
simulation as executor batches land, with :class:`Progress` checkpoints
carrying the session's schedule-pass and simulation counters.  The CLI
renders Progress lines; tests assert on PointResults; callers that only
want the side effect (a filled store) drain the iterator.

Resilient execution streams its failure handling through the same
channel: :class:`TaskRetried` when a failed/hung chunk is resubmitted,
:class:`WorkerCrashed` when a dead worker forces a pool rebuild, and
:class:`TaskFailed` when a task exhausts its retry budget and is
quarantined (terminal — ``Session.run`` collects these and raises
:class:`~repro.campaign.resilience.CampaignError` after the plan
drains).  Consumers that only care about results may ignore all three.

Wire codec
----------
Every event round-trips through JSON-native dicts via
:func:`event_to_dict` / :func:`event_from_dict` — the campaign server's
NDJSON wire format (one ``{"event": <Type>, "schema": N, ...}`` object
per line), mirroring ``CampaignSpec.to_dict``/``from_dict``.  One
group's batch *signature* is a session-local object (live pipeline
configs and latency tables, meaningless across processes), so it
crosses the wire as a stable content-hash digest
(:func:`signature_digest`): remote consumers can still tell which
groups share a batch signature, and everything they act on (work
items, keys, counts, grouping) survives byte-exactly.  Schema epoch 2
added the digest (epoch-1 payloads, which dropped signatures entirely,
still decode — their groups carry ``None``) and the predict-loop events
:class:`SurrogateFit` / :class:`BatchProposed` / :class:`Converged`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from dataclasses import dataclass

from repro.cpu.pipeline import SimResult
from repro.experiments.configs import RunConfig

from repro.campaign.plan import Plan, PlanGroup, Task, WorkItem
from repro.campaign.resilience import Quarantined
from repro.campaign.spec import CampaignSpec, config_from_dict, config_to_dict
from repro.store.base import StoreHealth
from repro.store.format import result_from_dict, result_to_dict


@dataclass(frozen=True)
class PlanReady:
    """First event of every run: the resolved plan (work items, dedup
    holes, groups) before any simulation starts."""

    plan: Plan


@dataclass(frozen=True)
class PointResult:
    """One simulated campaign point, checkpointed to the store."""

    benchmark: str
    config: RunConfig
    map_index: int | None
    key: str
    result: SimResult


@dataclass(frozen=True)
class Progress:
    """Completion checkpoint after each executed group/chunk."""

    done: int
    total: int
    simulations_executed: int
    schedule_passes: int


@dataclass(frozen=True)
class TaskRetried:
    """A failed or timed-out chunk was returned to the queue: the tasks
    it carries, how many attempts it has consumed, the deterministic
    backoff delay before resubmission, and the error that triggered it
    (bisections report here too, with a ``bisecting`` error prefix)."""

    tasks: tuple[Task, ...]
    attempt: int
    delay: float
    error: str


@dataclass(frozen=True)
class WorkerCrashed:
    """A pool worker died (``BrokenProcessPool``): the pool is rebuilt
    and ``resubmitted`` in-flight chunks return to the queue."""

    error: str
    resubmitted: int


@dataclass(frozen=True)
class TaskFailed:
    """Terminal: one task exhausted its retry budget (and, when replay
    is enabled, failed in-process too) and entered the quarantine
    ledger.  Healthy siblings from its chunks are unaffected — their
    results landed via bisection."""

    quarantined: Quarantined

    @property
    def key(self) -> str:
        return self.quarantined.key


@dataclass(frozen=True)
class StoreCorruption:
    """The session's result store detected (and contained) damaged
    records when it loaded: checksum failures, stale schema epochs,
    undecodable lines, shadowed duplicates.  Nothing damaged reaches
    figures — the event exists so an operator learns the store needs a
    ``store repair`` pass instead of discovering silent shrinkage."""

    store: str
    health: StoreHealth

    @property
    def detail(self) -> str:
        return f"{self.store}: {self.health.describe()}"


@dataclass(frozen=True)
class StoreRecovered:
    """A transient store-write failure (torn write, fsync error,
    disk-full) was retried through the backoff policy and the
    checkpoint landed.  ``attempts`` counts the failed tries."""

    key: str
    attempts: int
    error: str


@dataclass(frozen=True)
class SurrogateFit:
    """The predict loop retrained its surrogate: which round, on how many
    labeled points, with how many ensemble members, and how far the
    mixed simulated+predicted figure estimate moved since the previous
    fit (``None`` on the first fit — there is nothing to diff)."""

    round_index: int
    training: int
    members: int
    delta: float | None


@dataclass(frozen=True)
class BatchProposed:
    """The acquisition strategy proposed the next batch: ``proposed`` new
    work items across ``specs`` (ordinary campaign specs — the Planner
    dedups their already-labeled prefixes), with the loop's running
    simulated/total coverage counters."""

    round_index: int
    strategy: str
    proposed: int
    simulated: int
    total: int
    specs: tuple[CampaignSpec, ...]


@dataclass(frozen=True)
class Converged:
    """Terminal predict-loop event: why the loop stopped (``tolerance``,
    ``budget``, ``exhausted``, or ``stalled``), after how many rounds,
    and what fraction of the full grid was actually simulated."""

    rounds: int
    simulated: int
    total: int
    delta: float | None
    reason: str

    @property
    def coverage(self) -> float:
        return self.simulated / self.total if self.total else 1.0


#: Everything ``Session.run`` can yield.
Event = (
    PlanReady
    | PointResult
    | Progress
    | TaskRetried
    | WorkerCrashed
    | TaskFailed
    | StoreCorruption
    | StoreRecovered
    | SurrogateFit
    | BatchProposed
    | Converged
)


# --------------------------------------------------------------------------
# Wire codec
# --------------------------------------------------------------------------

#: Bump when the event wire shape changes incompatibly (a decoder
#: refuses unknown epochs instead of misreading them).  Epoch 2: plan
#: groups carry a signature digest; predict-loop events exist.
EVENT_SCHEMA_VERSION = 2

#: Epochs :func:`event_from_dict` accepts.  Epoch 1 payloads are a
#: strict subset of epoch 2 (groups simply lack the ``signature`` key),
#: so old servers stay readable.
READABLE_EVENT_SCHEMAS = (1, 2)


def _canonical(value):
    """JSON-able canonical form of a batch-signature component: nested
    dataclasses (pipeline config, latency tables, geometries) become
    ``[type, {field: ...}]`` pairs, tuples become lists, everything else
    must already be JSON-native (``repr`` as a last resort keeps the
    digest total rather than crashing on exotic members)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            type(value).__name__,
            {
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        ]
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def signature_digest(signature) -> "str | None":
    """Stable content-hash digest of a plan group's batch signature.

    Signatures are session-local tuples of live objects; the digest is
    what crosses the wire — equal signatures hash equal in every
    process, so remote consumers can still group lane-compatible work.
    Idempotent: a digest (an already-decoded plan's signature) passes
    through unchanged, and ``None`` stays ``None``.
    """
    if signature is None:
        return None
    if isinstance(signature, str):
        return signature
    canonical = json.dumps(
        _canonical(signature), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _task_to_list(task: Task) -> list:
    benchmark, config, map_index = task
    return [benchmark, config_to_dict(config), map_index]


def _task_from_list(data) -> Task:
    benchmark, config, map_index = data
    return (
        str(benchmark),
        config_from_dict(config),
        None if map_index is None else int(map_index),
    )


def _item_to_dict(item: WorkItem) -> dict:
    return {
        "benchmark": item.benchmark,
        "config": config_to_dict(item.config),
        "map_index": item.map_index,
        "key": item.key,
    }


def _item_from_dict(data: dict) -> WorkItem:
    return WorkItem(
        benchmark=str(data["benchmark"]),
        config=config_from_dict(data["config"]),
        map_index=None if data["map_index"] is None else int(data["map_index"]),
        key=str(data["key"]),
    )


def _plan_to_dict(plan: Plan) -> dict:
    return {
        "spec": plan.spec.to_dict(),
        "groups": [
            {
                "benchmark": group.benchmark,
                "merged": group.merged,
                "signature": signature_digest(group.signature),
                "items": [_item_to_dict(item) for item in group.items],
            }
            for group in plan.groups
        ],
        "total_points": plan.total_points,
        "dedup_hits": plan.dedup_hits,
        "predicted_passes": plan.predicted_passes,
    }


def _plan_from_dict(data: dict) -> Plan:
    return Plan(
        spec=CampaignSpec.from_dict(data["spec"]),
        groups=tuple(
            PlanGroup(
                benchmark=str(group["benchmark"]),
                merged=bool(group["merged"]),
                items=tuple(_item_from_dict(item) for item in group["items"]),
                # Live signatures never cross the wire: a decoded plan
                # carries the content-hash digest (or None from an
                # epoch-1 payload) — see the module docstring.
                signature=group.get("signature"),
            )
            for group in data["groups"]
        ),
        total_points=int(data["total_points"]),
        dedup_hits=int(data["dedup_hits"]),
        predicted_passes=int(data["predicted_passes"]),
    )


def _quarantined_to_dict(entry: Quarantined) -> dict:
    return {
        "task": _task_to_list(entry.task),
        "key": entry.key,
        "attempts": entry.attempts,
        "error": entry.error,
        "replay_error": entry.replay_error,
    }


def _quarantined_from_dict(data: dict) -> Quarantined:
    return Quarantined(
        task=_task_from_list(data["task"]),
        key=str(data["key"]),
        attempts=int(data["attempts"]),
        error=str(data["error"]),
        replay_error=(
            None if data.get("replay_error") is None else str(data["replay_error"])
        ),
    )


def event_to_dict(event: Event) -> dict:
    """JSON-native rendering of any :data:`Event` (inverse:
    :func:`event_from_dict`) — the campaign server's wire format."""
    head = {"event": type(event).__name__, "schema": EVENT_SCHEMA_VERSION}
    if isinstance(event, PlanReady):
        return {**head, "plan": _plan_to_dict(event.plan)}
    if isinstance(event, PointResult):
        return {
            **head,
            "benchmark": event.benchmark,
            "config": config_to_dict(event.config),
            "map_index": event.map_index,
            "key": event.key,
            "result": result_to_dict(event.result),
        }
    if isinstance(event, Progress):
        return {
            **head,
            "done": event.done,
            "total": event.total,
            "simulations_executed": event.simulations_executed,
            "schedule_passes": event.schedule_passes,
        }
    if isinstance(event, TaskRetried):
        return {
            **head,
            "tasks": [_task_to_list(task) for task in event.tasks],
            "attempt": event.attempt,
            "delay": event.delay,
            "error": event.error,
        }
    if isinstance(event, WorkerCrashed):
        return {**head, "error": event.error, "resubmitted": event.resubmitted}
    if isinstance(event, TaskFailed):
        return {**head, "quarantined": _quarantined_to_dict(event.quarantined)}
    if isinstance(event, StoreCorruption):
        return {
            **head,
            "store": event.store,
            "health": {
                "records": event.health.records,
                "duplicates": event.health.duplicates,
                "corrupt": event.health.corrupt,
                "stale": event.health.stale,
                "malformed": event.health.malformed,
                "legacy": event.health.legacy,
            },
        }
    if isinstance(event, StoreRecovered):
        return {
            **head,
            "key": event.key,
            "attempts": event.attempts,
            "error": event.error,
        }
    if isinstance(event, SurrogateFit):
        return {
            **head,
            "round_index": event.round_index,
            "training": event.training,
            "members": event.members,
            "delta": event.delta,
        }
    if isinstance(event, BatchProposed):
        return {
            **head,
            "round_index": event.round_index,
            "strategy": event.strategy,
            "proposed": event.proposed,
            "simulated": event.simulated,
            "total": event.total,
            "specs": [spec.to_dict() for spec in event.specs],
        }
    if isinstance(event, Converged):
        return {
            **head,
            "rounds": event.rounds,
            "simulated": event.simulated,
            "total": event.total,
            "delta": event.delta,
            "reason": event.reason,
        }
    raise TypeError(f"not a campaign event: {event!r}")


def event_from_dict(data: dict) -> Event:
    """Inverse of :func:`event_to_dict` (raises on malformed input or a
    foreign schema epoch)."""
    schema = data.get("schema", EVENT_SCHEMA_VERSION)
    if schema not in READABLE_EVENT_SCHEMAS:
        raise ValueError(
            f"unsupported event schema {schema!r} "
            f"(this build reads {READABLE_EVENT_SCHEMAS})"
        )
    kind = data.get("event")
    if kind == "PlanReady":
        return PlanReady(plan=_plan_from_dict(data["plan"]))
    if kind == "PointResult":
        return PointResult(
            benchmark=str(data["benchmark"]),
            config=config_from_dict(data["config"]),
            map_index=(
                None if data["map_index"] is None else int(data["map_index"])
            ),
            key=str(data["key"]),
            result=result_from_dict(data["result"]),
        )
    if kind == "Progress":
        return Progress(
            done=int(data["done"]),
            total=int(data["total"]),
            simulations_executed=int(data["simulations_executed"]),
            schedule_passes=int(data["schedule_passes"]),
        )
    if kind == "TaskRetried":
        return TaskRetried(
            tasks=tuple(_task_from_list(task) for task in data["tasks"]),
            attempt=int(data["attempt"]),
            delay=float(data["delay"]),
            error=str(data["error"]),
        )
    if kind == "WorkerCrashed":
        return WorkerCrashed(
            error=str(data["error"]), resubmitted=int(data["resubmitted"])
        )
    if kind == "TaskFailed":
        return TaskFailed(quarantined=_quarantined_from_dict(data["quarantined"]))
    if kind == "StoreCorruption":
        return StoreCorruption(
            store=str(data["store"]), health=StoreHealth(**data["health"])
        )
    if kind == "StoreRecovered":
        return StoreRecovered(
            key=str(data["key"]),
            attempts=int(data["attempts"]),
            error=str(data["error"]),
        )
    if kind == "SurrogateFit":
        return SurrogateFit(
            round_index=int(data["round_index"]),
            training=int(data["training"]),
            members=int(data["members"]),
            delta=None if data["delta"] is None else float(data["delta"]),
        )
    if kind == "BatchProposed":
        return BatchProposed(
            round_index=int(data["round_index"]),
            strategy=str(data["strategy"]),
            proposed=int(data["proposed"]),
            simulated=int(data["simulated"]),
            total=int(data["total"]),
            specs=tuple(CampaignSpec.from_dict(spec) for spec in data["specs"]),
        )
    if kind == "Converged":
        return Converged(
            rounds=int(data["rounds"]),
            simulated=int(data["simulated"]),
            total=int(data["total"]),
            delta=None if data["delta"] is None else float(data["delta"]),
            reason=str(data["reason"]),
        )
    raise ValueError(f"unknown campaign event type {kind!r}")
