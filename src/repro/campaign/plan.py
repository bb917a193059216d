"""The campaign planner: spec + store -> explicit Plan.

:class:`Planner` is the single place campaign work is resolved:

1. enumerate every (benchmark, config, map_index) point the
   :class:`~repro.campaign.spec.CampaignSpec` needs,
2. collapse duplicate content-hash keys and drop points already in the
   result store (*dedup holes* — a resumed campaign plans only its
   missing lanes),
3. split the remainder into schedule passes with :func:`lane_passes`,
   the one grouping rule: items merge by ``(trace, batch signature)``
   across points and figures — the signature is the
   :attr:`~repro.cpu.pipeline.KernelLane.structure` every lane of a
   pass shares — and each merged group splits into balanced passes of
   at most :data:`PASS_LANES` lanes.

A plan never depends on the host: whether a pass runs in the C lane
kernel or on the object loop is decided when it runs
(``OutOfOrderPipeline.run_batch``).  The resulting :class:`Plan` is a
frozen value consumed *identically* by the serial and process-pool
executors (``Plan.worker_batches`` ships one group per pool dispatch
unit; every group runs through ``Session.run_group``, which applies the
same rule), rendered by the CLI's ``--dry-run``, and asserted on by
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.experiments.configs import RunConfig

from repro.campaign.spec import CampaignSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session plans us)
    from repro.campaign.session import Session

#: One pool dispatch task: (benchmark, config, map_index-or-None).
Task = tuple[str, RunConfig, "int | None"]

#: Widest schedule pass the planner groups.  Every signature
#: ``Session.build_pipeline`` produces carries the same Table III
#: geometries (a 2 MB L2 per lane), so a pass's memory grows with its
#: lane count whatever the configuration, and the cap counts lanes, not
#: bytes.  A campaign lane's memory is its lane arrays alone, about
#: 0.54 MB, nearly all of it the L2's tags and recency stamps; no object
#: hierarchy backs it.  Measured on perfbench's ``lanes50_warm`` (Fig. 8
#: x gzip,mcf x 50 maps, seed 2010, 2-core Xeon, medians of 5 runs)
#: while each lane still built an object hierarchy: one-lane passes took
#: 1.05 s at 146 MB peak RSS, uncapped 101-lane passes 0.99 s at 415 MB,
#: and caps from 8 to 34 lanes 0.89-0.96 s at 165-234 MB.  The sweep has
#: not been repeated since.
#: 25 takes a paper-scale 50-map point in two passes.
PASS_LANES = 25


@dataclass(frozen=True)
class WorkItem:
    """One pending simulation point, resolved to its store key."""

    benchmark: str
    config: RunConfig
    map_index: int | None
    key: str

    @property
    def task(self) -> Task:
        return (self.benchmark, self.config, self.map_index)


@dataclass(frozen=True)
class PlanGroup:
    """One schedule pass of a plan: at most :data:`PASS_LANES` pending
    work items sharing a benchmark trace and a batch signature, whatever
    points and figures their lanes come from.  It executes through
    ``Session.run_group`` as one ``run_batch`` pass.
    """

    benchmark: str
    items: tuple[WorkItem, ...]
    #: Session-local batch signature tuple — or, on a plan decoded from
    #: the event wire, its content-hash digest string (``None`` from an
    #: epoch-1 payload; see ``repro.campaign.events.signature_digest``).
    signature: "tuple | str | None" = None

    def __len__(self) -> int:
        return len(self.items)

    @property
    def labels(self) -> tuple[str, ...]:
        """Distinct config labels in the group, first-seen order."""
        return tuple(dict.fromkeys(item.config.label for item in self.items))


@dataclass(frozen=True)
class Plan:
    """A resolved campaign: what will run, what the store already holds,
    and how the work is grouped into schedule passes."""

    spec: CampaignSpec
    groups: tuple[PlanGroup, ...]
    #: Distinct content-hash points the spec needs (store hits included).
    total_points: int
    #: Of those, already in the result store when the plan was resolved.
    dedup_hits: int

    @property
    def predicted_passes(self) -> int:
        """Schedule passes the groups will cost as planned, one per group
        (mirrors the executors' pass accounting; store races can only
        lower it)."""
        return len(self.groups)

    @property
    def pending(self) -> int:
        """Simulations the plan will actually execute."""
        return sum(len(group) for group in self.groups)

    def worker_batches(self) -> list[list[Task]]:
        """The plan's groups as process-pool dispatch units, one
        ``(benchmark, config, map_index)`` task list per group.  Serial
        and pool executors therefore consume the *same* plan objects —
        the pool merely ships each group to a worker."""
        return [[item.task for item in group.items] for group in self.groups]

    def describe(self) -> str:
        """Multi-line human rendering (the CLI's ``--dry-run`` output)."""
        lines = [self.spec.describe()]
        lines.append(
            f"  work items : {self.total_points} "
            f"({self.dedup_hits} already in store, {self.pending} to simulate)"
        )
        lines.append(f"  groups     : {len(self.groups)}")
        lines.append(f"  predicted schedule passes: {self.predicted_passes}")
        for i, group in enumerate(self.groups, 1):
            labels = ", ".join(group.labels)
            lines.append(
                f"  [{i:>3}] {group.benchmark}: {len(group)} lane(s) {labels}"
            )
        if not self.groups:
            lines.append("  nothing to simulate (pure store hits)")
        return "\n".join(lines)


def lane_passes(
    items: "Iterable[WorkItem]",
    signature: "Callable[[RunConfig], tuple]",
) -> list[PlanGroup]:
    """The one grouping rule: ``items`` as schedule passes.

    Items merge by ``(benchmark, signature(config))`` in first-seen
    order — across campaign points and figures — and each merged group
    splits into ``ceil(n / PASS_LANES)`` contiguous passes whose sizes
    differ by at most one.  Passes keep the items' order, so a serial
    campaign stores the same records in the same order at any width.
    """
    merged: dict[tuple, list[WorkItem]] = {}
    for item in items:
        merged.setdefault((item.benchmark, signature(item.config)), []).append(item)
    groups: list[PlanGroup] = []
    for (benchmark, group_signature), members in merged.items():
        count = -(-len(members) // PASS_LANES)
        size, extra = divmod(len(members), count)
        start = 0
        for index in range(count):
            end = start + size + (index < extra)
            groups.append(
                PlanGroup(
                    benchmark=benchmark,
                    items=tuple(members[start:end]),
                    signature=group_signature,
                )
            )
            start = end
    return groups


class Planner:
    """Resolves :class:`CampaignSpec`\\ s against a session's result store.

    The planner borrows the session's key/signature caches (content-hash
    task keys, per-config batch signatures) but never simulates:
    resolving a plan costs a store lookup per work item plus one kernel
    lane per new configuration."""

    def __init__(self, session: "Session") -> None:
        self.session = session

    def resolve(self, spec: CampaignSpec) -> Plan:
        """The explicit :class:`Plan` for ``spec`` against the session's
        store, grouped by :func:`lane_passes` exactly as the executors
        will run it."""
        session = self.session
        pending: list[WorkItem] = []
        seen_keys: set[str] = set()
        total = 0
        dedup = 0
        # Enumeration is single-sourced: the spec's work_items() order is
        # the plan order (and the task_keys() order the store contract
        # pins); the planner only adds store dedup and grouping.
        for benchmark, config, m in spec.work_items():
            key = session.task_key(benchmark, config, m)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            total += 1
            if key in session.store:
                dedup += 1
                continue
            pending.append(WorkItem(benchmark, config, m, key))
        return Plan(
            spec=spec,
            groups=tuple(lane_passes(pending, session.batch_signature)),
            total_points=total,
            dedup_hits=dedup,
        )
