"""The campaign planner: spec + store -> explicit Plan.

:class:`Planner` is the single place campaign work is resolved:

1. enumerate every (benchmark, config, map_index) point the
   :class:`~repro.campaign.spec.CampaignSpec` needs,
2. collapse duplicate content-hash keys and drop points already in the
   result store (*dedup holes* — a resumed campaign plans only its
   missing lanes),
3. group the remainder into :class:`PlanGroup`\\ s keyed by
   ``(trace, batch signature)`` — cross-point mega-batches when the
   session mega-batches, per-point groups otherwise.

The resulting :class:`Plan` is a frozen value consumed *identically* by
the serial and process-pool executors (``Plan.worker_batches`` slices
the same groups into pool dispatch units; every slice runs through
``Session.run_group``), rendered by the CLI's ``--dry-run``, and
asserted on by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.experiments.configs import RunConfig

from repro.campaign.spec import CampaignSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session plans us)
    from repro.campaign.session import Session

#: One pool dispatch task: (benchmark, config, map_index-or-None).
Task = tuple[str, RunConfig, "int | None"]


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
    """One executable unit of a plan: pending work items sharing a
    benchmark trace.

    ``merged`` groups are cross-point mega-batches — every lane shares
    one non-``None`` batch ``signature`` and is driven through a single
    lane-kernel pass.  Unmerged groups hold the lanes of one campaign
    point (or one configuration the kernel cannot take).  Both execute
    through ``Session.run_group``.
    """

    benchmark: str
    merged: bool
    items: tuple[WorkItem, ...]
    #: Session-local batch signature tuple — or, on a plan decoded from
    #: the event wire, its content-hash digest string (see
    #: ``repro.campaign.events.signature_digest``).
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
    #: Schedule passes the groups will cost as planned (mirrors the
    #: executors' pass accounting; store races can only lower it).
    predicted_passes: int

    @property
    def pending(self) -> int:
        """Simulations the plan will actually execute."""
        return sum(len(group) for group in self.groups)

    def worker_batches(self, lanes: int | None = None) -> list[list[Task]]:
        """The plan's groups as process-pool dispatch units: each group
        sliced to an explicit ``lanes`` width (whole groups otherwise),
        as ``(benchmark, config, map_index)`` task lists.  Serial and
        pool executors therefore consume the *same* plan objects — the
        pool merely ships each slice to a worker."""
        batches: list[list[Task]] = []
        for group in self.groups:
            tasks = [item.task for item in group.items]
            step = lanes or len(tasks)
            for start in range(0, len(tasks), step):
                batches.append(tasks[start : start + step])
        return batches

    def describe(self) -> str:
        """Multi-line human rendering (the CLI's ``--dry-run`` output)."""
        lines = [self.spec.describe()]
        lines.append(
            f"  work items : {self.total_points} "
            f"({self.dedup_hits} already in store, {self.pending} to simulate)"
        )
        merged = sum(1 for g in self.groups if g.merged)
        lines.append(
            f"  groups     : {len(self.groups)} "
            f"({merged} mega-batched, {len(self.groups) - merged} per-point)"
        )
        lines.append(f"  predicted schedule passes: {self.predicted_passes}")
        for i, group in enumerate(self.groups, 1):
            kind = "mega" if group.merged else "point"
            labels = ", ".join(group.labels)
            lines.append(
                f"  [{i:>3}] {group.benchmark}: {len(group)} lane(s) "
                f"[{kind}] {labels}"
            )
        if not self.groups:
            lines.append("  nothing to simulate (pure store hits)")
        return "\n".join(lines)


class Planner:
    """Resolves :class:`CampaignSpec`\\ s against a session's result store.

    The planner borrows the session's key/signature caches (content-hash
    task keys, per-config batch signatures) and its ``mega_batch`` /
    grouping policy, but never simulates: resolving a plan costs a store
    lookup per work item plus one representative pipeline build per new
    configuration."""

    def __init__(self, session: "Session") -> None:
        self.session = session

    def resolve(self, spec: CampaignSpec) -> Plan:
        """The explicit :class:`Plan` for ``spec`` against the session's
        store, grouped exactly as the executors will run it (cross-point
        merging follows ``session.mega_batch``)."""
        session = self.session
        groups: dict[tuple, list[WorkItem]] = {}
        order: list[tuple] = []
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
            signature = session.batch_signature(config)
            if session.mega_batch and signature is not None:
                # Merged (mega) groups key on (trace, signature) — a
                # 2-tuple; per-point groups carry their config in a
                # 3-tuple so they never collide.
                group_key = (benchmark, signature)
            else:
                group_key = (benchmark, None, config)
            if group_key not in groups:
                groups[group_key] = []
                order.append(group_key)
            groups[group_key].append(WorkItem(benchmark, config, m, key))
        plan_groups = []
        for key in order:
            items = tuple(groups[key])
            merged = len(key) == 2
            plan_groups.append(
                PlanGroup(
                    benchmark=key[0],
                    merged=merged,
                    items=items,
                    # Unmerged groups are single-config; their signature
                    # still decides whether the per-point path can take
                    # the lane kernel.
                    signature=key[1] if merged else session.batch_signature(
                        items[0].config
                    ),
                )
            )
        plan_groups = tuple(plan_groups)
        return Plan(
            spec=spec,
            groups=plan_groups,
            total_points=total,
            dedup_hits=dedup,
            predicted_passes=sum(
                self._group_passes(group) for group in plan_groups
            ),
        )

    def _group_passes(self, group: PlanGroup) -> int:
        """Schedule passes executing ``group`` will cost, mirroring the
        executors' accounting (``Session.execute_group``): one per lane
        chunk when the kernel takes the group, else one per item."""
        n = len(group)
        if group.signature is None:
            return n  # one object-loop run per item
        width = self.session.lanes or n
        return (n + width - 1) // width
