"""The campaign Session: one handle over store, caches, and execution.

A :class:`Session` opens everything a campaign needs exactly once — the
result store, the persistent trace/schedule caches, the fault-map
provider — and exposes the whole experiment surface behind two layers:

* **point API** (:meth:`simulate`, :meth:`run_group`) — the simulation
  primitives: one lazy point, or a list of ``(config, map_index)`` lanes
  over a trace, split into schedule passes by the planner's one grouping
  rule (:func:`~repro.campaign.plan.lane_passes`).  A lazy point is a
  one-item :meth:`run_group`, and every plan group executes through
  :meth:`run_group` too, store-deduped;
* **campaign API** (:meth:`plan`, :meth:`run`) — declarative:
  :meth:`run` takes a :class:`~repro.campaign.spec.CampaignSpec`,
  resolves it through the unified :class:`~repro.campaign.plan.Planner`,
  and streams typed :mod:`~repro.campaign.events` while a pluggable
  executor (serial in-process by default, a process pool via
  ``PoolExecutor``) drives the plan's groups.

Sessions are context managers: ``with Session(...) as session`` flushes
and closes the store on exit (the ``ResultStore`` context-manager
satellite), so campaign scripts never leak half-flushed JSONL handles.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core import SCHEMES
from repro.core.schemes import VoltageMode
from repro.cpu.config import (
    HIGH_VOLTAGE,
    L1_GEOMETRY,
    L2_GEOMETRY,
    LOW_VOLTAGE,
    PAPER_PIPELINE,
    OperatingPoint,
    PipelineConfig,
)
from repro.cpu.pipeline import KernelLane, OutOfOrderPipeline, SimResult
from repro.cpu.trace import Trace
from repro.experiments.configs import RunConfig
from repro.experiments.providers import FaultMapProvider, TraceProvider
from repro.experiments.keys import config_members, fidelity_fingerprint, task_key
from repro.store import MemoryStore, ResultStore
from repro.faults.fault_map import FaultMap, FaultMapPair

from repro.campaign.events import (
    Event,
    PlanReady,
    PointResult,
    Progress,
    StoreCorruption,
    TaskFailed,
)
from repro.campaign.plan import Plan, PlanGroup, Planner, WorkItem, lane_passes
from repro.campaign.resilience import CampaignError, Quarantined
from repro.campaign.spec import CampaignSpec, RunnerSettings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.executors import Executor


@dataclass(frozen=True)
class NormalizedSeries:
    """Per-benchmark normalized performance of one configuration."""

    config_label: str
    benchmarks: tuple[str, ...]
    average: tuple[float, ...]
    minimum: tuple[float, ...]

    @property
    def mean_average(self) -> float:
        return sum(self.average) / len(self.average)

    @property
    def mean_penalty(self) -> float:
        """Average performance *loss* vs the normalisation baseline (the
        paper's headline metric, e.g. 11.2% for word-disabling)."""
        return 1.0 - self.mean_average


class Session:
    """One campaign context: store + input providers + counters + planner.

    Opens the result store, trace/schedule caches, and fault-map
    provider once; every experiment — a lazy single point, a list of
    lanes through :meth:`run_group`, or a declarative spec streamed
    through :meth:`run` — reads and writes through the same handles and
    the same dedup keys.  A session runs every spec with its
    :func:`~repro.experiments.keys.fidelity_fingerprint`, over any
    benchmark subset and any map count.
    """

    #: Every session simulates the paper's Table II pipeline.
    pipeline_config: PipelineConfig = PAPER_PIPELINE

    def __init__(
        self,
        settings: RunnerSettings | None = None,
        store: ResultStore | None = None,
        trace_cache: str | None = None,
    ) -> None:
        self.settings = settings or RunnerSettings.from_env()
        # trace_cache=None falls back to $REPRO_TRACE_CACHE (see providers).
        self.traces = TraceProvider(self.settings, cache_dir=trace_cache)
        self.maps = FaultMapProvider(self.settings)
        #: Whether this session owns its store's lifetime: stores the
        #: session built itself are closed on :meth:`close`; stores the
        #: caller handed in stay open (the caller may share them).
        self.owns_store = store is None
        self.store = store if store is not None else MemoryStore()
        # Under armed I/O chaos (REPRO_CHAOS=torn-write:...), checkpoint
        # writes go through the fault-injecting wrapper so the executor's
        # store-retry path is exercised exactly like worker faults are.
        # Only the parent session wraps: pool workers' private stores are
        # not the durable checkpoint path (see chaos.in_worker), and a
        # store handed down from another session is already wrapped.
        from repro.testing import chaos as _chaos

        _chaos_config = _chaos.config_from_env()
        if (
            _chaos_config is not None
            and _chaos_config.io_active
            and not _chaos.in_worker()
            and not isinstance(self.store, _chaos.ChaosStore)
        ):
            self.store = _chaos.ChaosStore(self.store, _chaos_config)
        #: Batch signature per RunConfig (memoised — configuring a
        #: scheme over a fault map is cheap but not free).
        self._signature_cache: dict[RunConfig, tuple] = {}
        # A task key costs a sha256 over its pre-encoded parts, about five
        # times a memo hit; memoise them so warm-store reads stay
        # dict-lookup cheap.
        self._key_cache: dict[tuple, str] = {}
        #: Simulations actually executed (not read from the store): what
        #: :meth:`run_group` ran, lazy :meth:`simulate` misses included,
        #: plus what the pool executor's workers ran, added as it
        #: checkpoints their results.  Store hits never count.
        self.simulations_executed = 0
        #: Passes over a trace this session paid for: +1 per
        #: :meth:`OutOfOrderPipeline.run_batch` call :meth:`run_group`
        #: makes, however many lanes it drives and whichever engine runs
        #: them — what ``Plan.predicted_passes`` predicts.
        self.schedule_passes = 0
        #: Quarantine ledger: every task a resilient executor gave up on
        #: across this session's runs (see
        #: :class:`~repro.campaign.resilience.Quarantined`).  Healthy
        #: results around a failure are always durable in the store.
        self.failures: list[Quarantined] = []
        #: Sessions at other fidelities over this one's store, by
        #: fingerprint (see :meth:`derived`); closed with this session.
        self._children: dict[tuple, "Session"] = {}
        self._closed = False

    # ----- remote sessions ------------------------------------------------------

    @classmethod
    def connect(cls, url: str, timeout: "float | None" = 600.0):
        """A :class:`~repro.service.client.RemoteSession` for the
        campaign server at ``url`` — same streaming ``run(spec)`` /
        ``run_all(spec)`` surface as a local session, with the server
        doing the simulating (and the coalescing, when other clients
        overlap)::

            with Session.connect("http://127.0.0.1:8631") as remote:
                for event in remote.run(spec):
                    ...
        """
        from repro.service.client import RemoteSession

        return RemoteSession(url, timeout=timeout)

    # ----- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def flush(self) -> None:
        """Flush the result store's buffers (durable checkpoint)."""
        self.store.flush()

    def close(self) -> None:
        """Close the :meth:`derived` children, then flush and, when this
        session opened the store itself, close it.  Idempotent; the
        session's in-memory caches stay readable."""
        if self._closed:
            return
        self._closed = True
        for child in self._children.values():
            child.close()
        self.store.flush()
        if self.owns_store:
            self.store.close()

    # ----- inputs -------------------------------------------------------------

    def trace(self, benchmark: str) -> Trace:
        """Warmup prefix + measured region, generated once per benchmark."""
        return self.traces.get(benchmark)

    def fault_maps(self) -> list[FaultMapPair]:
        return self.maps.pairs()

    # ----- cache API ------------------------------------------------------------

    @staticmethod
    def _normalize_map_index(config: RunConfig, map_index: int | None) -> int | None:
        """``map_index`` is required iff performance depends on the fault
        draw; fault-independent configs canonicalise to ``None`` so every
        caller agrees on one key per physical simulation.  An index that
        is not an ``int`` (``True`` and ``1.0`` included) raises
        ``TypeError``: it would key, or draw, map 1 under another key."""
        if map_index is not None and (
            type(map_index) is bool or not isinstance(map_index, int)
        ):
            raise TypeError(
                f"a fault-map index is an int, got {type(map_index).__name__} "
                f"{map_index!r}"
            )
        if config.needs_fault_map:
            if map_index is None or map_index < 0:
                raise ValueError(
                    f"{config.label} requires a fault-map index >= 0, got {map_index}"
                )
            return map_index
        return None

    def task_key(
        self, benchmark: str, config: RunConfig, map_index: int | None = None
    ) -> str:
        """Stable store key of one simulation point (see
        :func:`repro.experiments.keys.task_key`)."""
        map_index = self._normalize_map_index(config, map_index)
        # Keyed on the config's encoded members, not the config: RunConfig
        # equality merges configs that encode differently (0 and 0.0
        # victim entries), and those must keep their own keys.
        cache_key = (benchmark, config_members(config), map_index)
        key = self._key_cache.get(cache_key)
        if key is None:
            key = task_key(
                self.settings, benchmark, config, map_index, self.pipeline_config
            )
            self._key_cache[cache_key] = key
        return key

    def cached(
        self, benchmark: str, config: RunConfig, map_index: int | None = None
    ) -> SimResult | None:
        """The stored result for this point, or ``None`` if unsimulated."""
        return self.store.get(self.task_key(benchmark, config, map_index))

    def store_result(
        self,
        benchmark: str,
        config: RunConfig,
        map_index: int | None,
        result: SimResult,
    ) -> None:
        """Checkpoint an externally-computed result (parallel workers)."""
        self.store.put(self.task_key(benchmark, config, map_index), result)

    # ----- point API ------------------------------------------------------------

    def simulate(
        self, benchmark: str, config: RunConfig, map_index: int | None = None
    ) -> SimResult:
        """Simulate one (benchmark, configuration, fault map) point,
        reading/writing through the result store: a one-item
        :meth:`run_group`.

        ``map_index`` is required iff the configuration's performance
        depends on the fault draw (see :meth:`RunConfig.needs_fault_map`).
        """
        return self.run_group(benchmark, [(config, map_index)])[0]

    # ----- lane groups ----------------------------------------------------------

    def batch_signature(self, config: RunConfig) -> tuple:
        """The :attr:`~repro.cpu.pipeline.KernelLane.structure` every lane
        of ``config`` shares — latencies, geometries, prefetch degree —
        which never depends on the fault draw, so map 0's lane decides it
        for every map index.  Memoised per config."""
        if config not in self._signature_cache:
            lane = self._kernel_lane(config, 0 if config.needs_fault_map else None)
            self._signature_cache[config] = lane.structure
        return self._signature_cache[config]

    def run_group(
        self, benchmark: str, items: "list[tuple[RunConfig, int | None]]"
    ) -> list[SimResult]:
        """Execute ``(config, map_index)`` lanes over one benchmark trace.

        Lanes already in the store are never re-simulated.  The rest
        split into schedule passes by
        :func:`~repro.campaign.plan.lane_passes` — the planner's rule, so
        a plan group is exactly one pass — and each pass scatters back to
        the store under per-point keys.  A pass hands
        :meth:`OutOfOrderPipeline.run_batch` one
        :class:`~repro.cpu.pipeline.KernelLane` per item, built from the
        scheme's enabled-way matrices, and ``run_batch`` picks the
        engine: one kernel pass, with statistics from the kernel's
        counters and no object hierarchy on either side, or each lane's
        object-loop twin on a host without the kernel.  Results return
        in ``items`` order, bit-identical to the object engine.
        """
        results: dict[str, SimResult | None] = {}
        pending: list[WorkItem] = []
        resolved: list[str] = []
        for config, m in items:
            m = self._normalize_map_index(config, m)
            key = self.task_key(benchmark, config, m)
            resolved.append(key)
            if key in results:
                continue
            results[key] = self.store.get(key)
            if results[key] is None:
                pending.append(WorkItem(benchmark, config, m, key))
        warmup = self.settings.warmup_instructions
        for group in lane_passes(pending, self.batch_signature):
            trace = self.trace(benchmark)
            self.schedule_passes += 1
            outs = OutOfOrderPipeline.run_batch(
                [self._kernel_lane(i.config, i.map_index) for i in group.items],
                trace,
                measure_from=warmup,
            )
            for item, result in zip(group.items, outs):
                self.store.put(item.key, result)
                self.simulations_executed += 1
                results[item.key] = result
        return [results[key] for key in resolved]

    def execute_group(
        self, group: PlanGroup
    ) -> list[tuple[WorkItem, SimResult]]:
        """Execute one plan group through :meth:`run_group`; returns
        item/result pairs in plan order."""
        results = self.run_group(
            group.benchmark, [(item.config, item.map_index) for item in group.items]
        )
        return list(zip(group.items, results))

    # ----- campaign API ---------------------------------------------------------

    def spec(
        self,
        configs: "tuple[RunConfig, ...] | list[RunConfig]",
        benchmarks: "tuple[str, ...] | None" = None,
        figure: str | None = None,
    ) -> CampaignSpec:
        """A :class:`CampaignSpec` sweeping ``configs`` at this session's
        fidelity and (default) benchmark scope."""
        return CampaignSpec.from_settings(
            self.settings, configs, benchmarks=benchmarks, figure=figure
        )

    def plan(self, spec: CampaignSpec) -> Plan:
        """Resolve ``spec`` against the store via the unified
        :class:`~repro.campaign.plan.Planner` — no simulation."""
        return Planner(self).resolve(spec)

    def run(
        self, spec: CampaignSpec, executor: "Executor | None" = None
    ) -> Iterator[Event]:
        """Stream a campaign: resolve ``spec`` into a plan, then drive
        every pending group through ``executor`` (in-process serial by
        default; ``PoolExecutor(workers=N)`` fans groups across a
        process pool), yielding :class:`PlanReady` first, then
        :class:`PointResult`/:class:`Progress` events as simulations
        land in the store.

        Any benchmark subset and any map count run here; a spec whose
        :func:`~repro.experiments.keys.fidelity_fingerprint` differs from
        this session's is rejected, because its task keys are not this
        session's — run it on :meth:`derived` instead (same store and
        trace cache, so nothing is recomputed).

        Validation and planning happen *eagerly*, at the call — only the
        execution streams — so a wrong-fidelity spec raises here, not at
        first iteration.
        """
        if fidelity_fingerprint(spec.settings()) != fidelity_fingerprint(
            self.settings
        ):
            raise ValueError(
                "spec fidelity differs from this session's settings; "
                "use session.derived(spec) to open a matching session "
                "over the same store"
            )
        plan = self.plan(spec)
        if executor is None:
            from repro.campaign.executors import SerialExecutor

            executor = SerialExecutor()
        return self._stream(plan, executor)

    def _stream(self, plan: Plan, executor: "Executor") -> Iterator[Event]:
        yield PlanReady(plan)
        health = self.store.health()
        if health.damaged:
            # The store already contained the damage (nothing broken is
            # served); surface it so the operator learns a `store repair`
            # pass is due instead of silently re-simulating lost points.
            yield StoreCorruption(store=self.store.description, health=health)
        failed: list[Quarantined] = []
        try:
            for event in executor.run(self, plan):
                if isinstance(event, TaskFailed):
                    failed.append(event.quarantined)
                    self.failures.append(event.quarantined)
                yield event
        except KeyboardInterrupt:
            # Interrupted campaigns stay resumable: flush whatever the
            # executor already checkpointed and say so before unwinding.
            self.flush()
            print(
                f"[campaign] interrupted — {len(self.store)} result(s) "
                "durable in the store; re-run the same campaign to resume "
                "from the last checkpoint",
                file=sys.stderr,
            )
            raise
        if failed:
            # Raised only after the plan drained: every healthy sibling's
            # result is already durable, so handling this error and
            # re-running retries exactly the quarantined tasks.
            raise CampaignError(failed)

    def run_all(
        self, spec: CampaignSpec, executor: "Executor | None" = None
    ) -> Plan:
        """Drain :meth:`run` for its side effect (a filled store) and
        return the resolved plan."""
        plan: Plan | None = None
        for event in self.run(spec, executor=executor):
            if isinstance(event, PlanReady):
                plan = event.plan
        assert plan is not None  # run always yields PlanReady first
        return plan

    def derived(self, spec: CampaignSpec) -> "Session":
        """The session that runs ``spec``: this one when the fidelity
        fingerprints match (benchmarks and map count never fork a
        session), else a child at ``spec``'s fidelity over this session's
        store and trace cache, memoised per fingerprint and closed with
        this session (never closing the shared store)."""
        settings = spec.settings()
        fingerprint = fidelity_fingerprint(settings)
        if fingerprint == fidelity_fingerprint(self.settings):
            return self
        memo = tuple(sorted(fingerprint.items()))
        child = self._children.get(memo)
        if child is None:
            child = Session(
                settings, store=self.store, trace_cache=self.traces.cache_dir
            )
            self._children[memo] = child
        return child

    # ----- simulator construction ----------------------------------------------

    def build_pipeline(
        self,
        config: RunConfig,
        map_index: int | None = None,
        engine: str = "fused",
    ) -> OutOfOrderPipeline:
        """Construct the simulator for one configuration point: its
        :meth:`_kernel_lane`'s object pipeline.

        Public so benches and studies can time construction + run (one
        campaign point) without going through the result store; ``engine``
        selects the execution engine (``"object"`` forces the reference
        loop; the KIPS microbenchmark compares them).
        """
        return self._kernel_lane(config, map_index).pipeline(engine)

    def _kernel_lane(self, config: RunConfig, map_index: int | None) -> KernelLane:
        """The kernel lane of one configuration point: the scheme's L1I
        and L1D configurations over the point's fault maps, their latency
        set and the configuration's victim entries (both sides), without
        building a hierarchy."""
        scheme = SCHEMES.create(config.scheme)
        operating: OperatingPoint = (
            LOW_VOLTAGE if config.voltage is VoltageMode.LOW else HIGH_VOLTAGE
        )
        if map_index is not None:
            pair = self.maps.pair(map_index)
            imap, dmap = pair.icache, pair.dcache
        elif config.voltage is VoltageMode.LOW:
            # Fault-independent low-voltage schemes (word-disabling's halved
            # cache, the baseline reference) still need a map object for
            # their usability checks; the empty map is the canonical one.
            imap = dmap = FaultMap.empty(L1_GEOMETRY)
        else:
            imap = dmap = None

        cfg_i = scheme.configure(L1_GEOMETRY, imap, config.voltage)
        cfg_d = scheme.configure(L1_GEOMETRY, dmap, config.voltage)
        for cfg in (cfg_i, cfg_d):
            cfg.require_usable()
        latencies = operating.latencies(
            operating.l1_base_latency + cfg_i.latency_adder,
            operating.l1_base_latency + cfg_d.latency_adder,
        )
        return KernelLane(
            self.pipeline_config,
            latencies,
            (cfg_i.geometry, cfg_d.geometry, L2_GEOMETRY),
            cfg_i.enabled_ways,
            cfg_d.enabled_ways,
            (config.victim_entries, config.victim_entries),
            prefetch_degree=0,
        )

    # ----- normalized series (the figure bars) ---------------------------------

    def normalized_series(
        self, config: RunConfig, baseline: RunConfig
    ) -> NormalizedSeries:
        """Per-benchmark average and minimum performance of ``config``
        normalized to ``baseline`` (which must be fault-independent),
        over this session's benchmarks and maps.  Reads pure store hits
        after :meth:`run`; simulates lazily otherwise."""
        if baseline.needs_fault_map:
            raise ValueError("normalisation baseline must be fault-independent")
        benchmarks = self.settings.benchmarks
        averages = []
        minimums = []
        maps = (
            range(self.settings.n_fault_maps) if config.needs_fault_map else [None]
        )
        for benchmark in benchmarks:
            base_cycles = self.simulate(benchmark, baseline).cycles
            # Store hits after a campaign; otherwise the point's pending
            # maps run in as few lane passes as the grouping rule allows.
            normalized = [
                base_cycles / result.cycles
                for result in self.run_group(
                    benchmark, [(config, m) for m in maps]
                )
            ]
            averages.append(sum(normalized) / len(normalized))
            minimums.append(min(normalized))
        return NormalizedSeries(
            config_label=config.label,
            benchmarks=benchmarks,
            average=tuple(averages),
            minimum=tuple(minimums),
        )
