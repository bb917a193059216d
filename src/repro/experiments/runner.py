"""Legacy experiment-runner facade over the campaign layer.

:class:`ExperimentRunner` predates the declarative campaign API
(:mod:`repro.campaign`) and survives as a thin compatibility shim: every
method delegates to a :class:`~repro.campaign.session.Session`, so the
legacy surface (``run``, ``run_batch``, ``run_lane_group``,
``plan_mega_batches``, ``normalized_series``, the cache API) and the new
``session.run(spec)`` streaming path read and write the same store keys
and produce bit-identical results — the ``campaign`` CI smoke pins the
equivalence byte-for-byte.

New code should use :class:`~repro.campaign.session.Session` and
:class:`~repro.campaign.spec.CampaignSpec` directly::

    from repro.campaign import CampaignSpec, Session

    with Session(settings) as session:
        for event in session.run(session.spec(configs)):
            ...

``RunnerSettings`` and ``NormalizedSeries`` are re-exported from their
new homes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.config import PAPER_PIPELINE, PipelineConfig
from repro.cpu.pipeline import OutOfOrderPipeline, SimResult
from repro.cpu.trace import Trace
from repro.experiments.configs import RunConfig
from repro.store import ResultStore
from repro.faults.fault_map import FaultMapPair

from repro.campaign.events import PlanReady, Progress
from repro.campaign.plan import Plan
from repro.campaign.session import NormalizedSeries, Session
from repro.campaign.spec import RunnerSettings

__all__ = [
    "ExperimentRunner",
    "RunnerSettings",
    "NormalizedSeries",
    "LaneGroup",
]


@dataclass(frozen=True)
class LaneGroup:
    """One mega-batch: every pending work item of a campaign that shares
    a trace (``benchmark``) and a pipeline batch signature, across
    campaign points and figures.  ``items`` are ``(config, map_index)``
    pairs in plan order; fault-independent configs carry ``None``.

    Legacy shape — the campaign layer's
    :class:`~repro.campaign.plan.PlanGroup` carries the same grouping
    with resolved store keys; :meth:`ExperimentRunner.plan_mega_batches`
    converts between the two."""

    benchmark: str
    items: "tuple[tuple[RunConfig, int | None], ...]"

    def __len__(self) -> int:
        return len(self.items)


class ExperimentRunner:
    """Thin compatibility facade delegating to a campaign
    :class:`~repro.campaign.session.Session`.

    Constructing a runner opens a session (or wraps one via
    :meth:`from_session`); the runner's cache API (:meth:`task_key`,
    :meth:`cached`, :meth:`store_result`), simulation entry points, and
    counters are direct views of the session's, so legacy callers and
    ``session.run(spec)`` consumers share one store, one trace cache,
    and one set of schedule-pass counters.
    """

    def __init__(
        self,
        settings: RunnerSettings | None = None,
        pipeline_config: PipelineConfig = PAPER_PIPELINE,
        store: ResultStore | None = None,
        trace_cache: str | None = None,
        lanes: int | None = None,
        mega_batch: bool = True,
        session: Session | None = None,
    ) -> None:
        if session is None:
            session = Session(
                settings,
                pipeline_config=pipeline_config,
                store=store,
                trace_cache=trace_cache,
                lanes=lanes,
                mega_batch=mega_batch,
            )
        #: The campaign session this facade delegates to (public: new
        #: code can mix legacy and spec-driven calls over one context).
        self.session = session

    @classmethod
    def from_session(cls, session: Session) -> "ExperimentRunner":
        """Wrap an existing session without opening anything new."""
        return cls(session=session)

    # ----- session views --------------------------------------------------------

    @property
    def settings(self) -> RunnerSettings:
        return self.session.settings

    @property
    def pipeline_config(self) -> PipelineConfig:
        return self.session.pipeline_config

    @property
    def traces(self):
        return self.session.traces

    @property
    def maps(self):
        return self.session.maps

    @property
    def store(self) -> ResultStore:
        return self.session.store

    @property
    def lanes(self) -> int | None:
        return self.session.lanes

    @property
    def mega_batch(self) -> bool:
        return self.session.mega_batch

    @property
    def simulations_executed(self) -> int:
        return self.session.simulations_executed

    @simulations_executed.setter
    def simulations_executed(self, value: int) -> None:
        self.session.simulations_executed = value

    @property
    def schedule_passes(self) -> int:
        return self.session.schedule_passes

    @schedule_passes.setter
    def schedule_passes(self, value: int) -> None:
        self.session.schedule_passes = value

    # ----- inputs -------------------------------------------------------------

    def trace(self, benchmark: str) -> Trace:
        """Warmup prefix + measured region, generated once per benchmark."""
        return self.session.trace(benchmark)

    def fault_maps(self) -> list[FaultMapPair]:
        return self.session.fault_maps()

    # ----- cache API ------------------------------------------------------------

    def task_key(
        self, benchmark: str, config: RunConfig, map_index: int | None = None
    ) -> str:
        """Stable store key of one simulation point (see
        :func:`repro.experiments.keys.task_key`)."""
        return self.session.task_key(benchmark, config, map_index)

    def cached(
        self, benchmark: str, config: RunConfig, map_index: int | None = None
    ) -> SimResult | None:
        """The stored result for this point, or ``None`` if unsimulated."""
        return self.session.cached(benchmark, config, map_index)

    def store_result(
        self,
        benchmark: str,
        config: RunConfig,
        map_index: int | None,
        result: SimResult,
    ) -> None:
        """Checkpoint an externally-computed result (parallel workers)."""
        self.session.store_result(benchmark, config, map_index, result)

    # ----- simulation ----------------------------------------------------------

    def run(
        self, benchmark: str, config: RunConfig, map_index: int | None = None
    ) -> SimResult:
        """Simulate one (benchmark, configuration, fault map) point,
        reading/writing through the result store."""
        return self.session.simulate(benchmark, config, map_index)

    def run_batch(
        self,
        benchmark: str,
        config: RunConfig,
        map_indices: "list[int] | range | None" = None,
    ) -> list[SimResult]:
        """Simulate many fault-map lanes of one (benchmark, config) point
        in a single schedule pass (see :meth:`Session.simulate_maps`)."""
        return self.session.simulate_maps(benchmark, config, map_indices)

    # ----- mega-batching: cross-point lane groups -------------------------------

    def batch_signature(self, config: RunConfig) -> "tuple | None":
        """The batch-compatibility signature of ``config``'s lanes (see
        :meth:`Session.batch_signature`)."""
        return self.session.batch_signature(config)

    def plan_mega_batches(
        self,
        configs: "tuple[RunConfig, ...]",
        benchmarks: "tuple[str, ...] | None" = None,
    ) -> list[LaneGroup]:
        """Cross-point mega-batch plan in the legacy shape: the unified
        :class:`~repro.campaign.plan.Planner` resolves the equivalent
        :class:`CampaignSpec` and the plan's groups are converted to
        ``(config, map_index)`` :class:`LaneGroup` tuples."""
        plan = self._plan(configs, benchmarks)
        return [
            LaneGroup(
                group.benchmark,
                tuple((item.config, item.map_index) for item in group.items),
            )
            for group in plan.groups
        ]

    def _plan(
        self,
        configs: "tuple[RunConfig, ...]",
        benchmarks: "tuple[str, ...] | None" = None,
    ) -> Plan:
        return self.session.plan(self.session.spec(configs, benchmarks=benchmarks))

    def run_lane_group(
        self, benchmark: str, items: "list[tuple[RunConfig, int | None]]"
    ) -> list[SimResult]:
        """Execute one mega-batch (see :meth:`Session.run_group`)."""
        return self.session.run_group(benchmark, items)

    def run_mega(
        self,
        configs: "tuple[RunConfig, ...]",
        benchmarks: "tuple[str, ...] | None" = None,
        progress=None,
    ) -> int:
        """Plan and execute every pending simulation the configurations
        need by streaming the equivalent :class:`CampaignSpec` through
        the session.  Returns the number of simulations executed; an
        optional ``progress(done, total)`` callback reports work-item
        completion group by group."""
        spec = self.session.spec(configs, benchmarks=benchmarks)
        total = 0
        for event in self.session.run(spec):
            if isinstance(event, PlanReady):
                total = event.plan.pending
            elif isinstance(event, Progress) and progress is not None:
                progress(event.done, event.total)
        return total

    def build_pipeline(
        self,
        config: RunConfig,
        map_index: int | None = None,
        engine: str = "fused",
    ) -> OutOfOrderPipeline:
        """Construct the simulator for one configuration point (see
        :meth:`Session.build_pipeline`)."""
        return self.session.build_pipeline(config, map_index, engine=engine)

    # ----- normalized series (the figure bars) ---------------------------------

    def normalized_series(
        self, config: RunConfig, baseline: RunConfig
    ) -> NormalizedSeries:
        """Per-benchmark average and minimum performance of ``config``
        normalized to ``baseline`` (which must be fault-independent)."""
        return self.session.normalized_series(config, baseline)
