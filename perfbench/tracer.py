"""Per-layer span tracer installed from outside the program.

The tracer wraps each layer's public entry points at runtime — nothing
under ``src/`` changes — and records one span per call: name, start, end,
parent span and the iteration it belongs to.  Spans stay in memory until
the benchmark writes them out.  A layer's self time is its spans' duration
minus the intervals covered by their child spans.

Layers and the entry points wrapped for them:

========== ===========================================================
engine     ``BulkLanes`` construction, ``finalize``, and each port's
           ``service`` closure (the Python miss-event service)
lane_kernel the function ``lane_kernel.load()`` returns
pipeline   ``OutOfOrderPipeline.run`` and ``run_batch``
workloads  ``TraceGenerator.generate``; ``TraceProvider`` counters
frontend   ``frontend_schedule``; ``SCHEDULE_CACHE_STATS``
faults     ``FaultMapProvider.pairs``, ``FaultMap.generate``
campaign   ``Planner.resolve``, ``Session.build_pipeline``; session
           counters
store      ``open_store`` and every store class's ``put``, ``get``,
           ``__contains__``, ``flush`` and ``close``
experiments ``Session.normalized_series`` (figure post-processing)
========== ===========================================================
"""

from __future__ import annotations

import time
from collections import Counter

#: Store methods and the span each is recorded under.
_STORE_METHODS = {
    "put": "store.put",
    "get": "store.lookup",
    "__contains__": "store.lookup",
    "flush": "store.flush",
    "close": "store.flush",
}

#: Span names whose self time becomes a ``<name>_s`` metric, and whose
#: call count becomes the named counter (``None``: time only).
_TIMED_LAYERS = {
    "engine.miss_service": "engine.miss_service_calls",
    "engine.finalize": None,
    "engine.lane_setup": None,
    "lane_kernel.call": "lane_kernel.calls",
    "pipeline.seq_run": "pipeline.seq_runs",
    "pipeline.lane_pass": "pipeline.lane_passes",
    "workloads.trace_gen": "workloads.traces_generated",
    "frontend.schedule": None,
    "faults.map_sample": None,
    "campaign.plan": None,
    "campaign.build_pipeline": "campaign.pipelines_built",
    "store.open": None,
    "store.put": "store.puts",
    "store.lookup": "store.lookups",
    "store.flush": None,
    "figures.render": None,
}

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "engine.miss_service_s": "s",
    "engine.miss_service_calls": "count",
    "engine.instr_per_service_call": "instr/call",
    "engine.finalize_s": "s",
    "engine.lane_setup_s": "s",
    "lane_kernel.call_s": "s",
    "lane_kernel.calls": "count",
    "lane_kernel.available": "bool",
    "pipeline.seq_run_s": "s",
    "pipeline.seq_runs": "count",
    "pipeline.lane_pass_s": "s",
    "pipeline.lane_passes": "count",
    "pipeline.lanes_per_pass": "lanes/pass",
    "workloads.trace_gen_s": "s",
    "workloads.traces_generated": "count",
    "workloads.traces_loaded": "count",
    "frontend.schedule_s": "s",
    "frontend.schedules_built": "count",
    "frontend.schedules_loaded": "count",
    "faults.map_sample_s": "s",
    "campaign.plan_s": "s",
    "campaign.points": "count",
    "campaign.dedup_hits": "count",
    "campaign.build_pipeline_s": "s",
    "campaign.pipelines_built": "count",
    "campaign.simulations_executed": "count",
    "campaign.schedule_passes": "count",
    "store.open_s": "s",
    "store.put_s": "s",
    "store.puts": "count",
    "store.lookup_s": "s",
    "store.lookups": "count",
    "store.flush_s": "s",
    "figures.render_s": "s",
}

#: Per-layer metrics that are counts, which must repeat exactly between
#: two traced runs of the same workload and seed.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit in ("count", "bool")
)


class Tracer:
    """In-memory span registry plus the patches that feed it.

    :meth:`install` wraps the program's layer entry points; :meth:`remove`
    restores every original, so untraced iterations in the same process
    run the unwrapped program.  Spans are ``[name, start, end, parent,
    iteration]`` lists; ``parent`` is an index into :attr:`spans` or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.iteration = 0
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sessions: list = []
        self._providers: list = []
        self._schedules_loaded_at_start = 0

    # ----- span recording ------------------------------------------------------

    def timed(self, name: str, fn):
        """``fn`` wrapped to record a span named ``name`` per call.  A call
        made directly inside a span of the same name (a subclass method
        delegating to its base) is folded into the outer span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          tracer.iteration])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.timed(name, getattr(owner, attr)))

    # ----- installation --------------------------------------------------------

    def install(self, iteration: int) -> None:
        """Start recording ``iteration``: clear the counters and wrap every
        layer's entry points until :meth:`remove`."""
        import repro.cpu.frontend as frontend
        import repro.cpu.pipeline as pipeline_mod
        import repro.store as store_pkg
        from repro.cache.engine import BulkLanes
        from repro.campaign.plan import Planner
        from repro.campaign.session import Session
        from repro.cpu import lane_kernel
        from repro.cpu.pipeline import OutOfOrderPipeline
        from repro.experiments.providers import FaultMapProvider, TraceProvider
        from repro.faults.fault_map import FaultMap
        from repro.store import (
            DiskStore,
            MemoryStore,
            ResultStore,
            ShardedDiskStore,
            SqliteStore,
        )
        from repro.workloads.generator import TraceGenerator

        tracer = self
        counts = self.counts
        self.iteration = iteration
        counts.clear()
        self._sessions.clear()
        self._providers.clear()
        self._schedules_loaded_at_start = frontend.SCHEDULE_CACHE_STATS["loaded"]

        # engine: construction and finalize are spans; the service closures
        # are created per BulkLanes, so each new instance's ports are wrapped.
        timed_setup = self.timed("engine.lane_setup", BulkLanes.__init__)

        def lanes_init(lanes, *args, **kwargs):
            timed_setup(lanes, *args, **kwargs)
            for port in (lanes.iport, lanes.dport):
                port.service = tracer.timed("engine.miss_service", port.service)

        self._patch(BulkLanes, "__init__", lanes_init)
        self._wrap_method(BulkLanes, "finalize", "engine.finalize")

        # lane_kernel: time every call into the compiled entry point.
        original_load = lane_kernel.load

        def load():
            kernel = original_load()
            if kernel is None:
                return None
            return tracer.timed("lane_kernel.call", kernel)

        self._patch(lane_kernel, "load", load)

        # pipeline: sequential runs, and run_batch passes — a pass that fell
        # back to sequential runs is not a lane pass.
        self._wrap_method(OutOfOrderPipeline, "run", "pipeline.seq_run")
        timed_batch = self.timed("pipeline.lane_pass", OutOfOrderPipeline.run_batch)

        def run_batch(pipelines, trace, *args, **kwargs):
            index = len(tracer.spans)
            results = timed_batch(pipelines, trace, *args, **kwargs)
            if any(span[0] == "pipeline.seq_run" for span in tracer.spans[index:]):
                tracer.spans[index][0] = "pipeline.batch_fallback"
            else:
                counts["pipeline.lanes"] += len(pipelines)
                counts["pipeline.lane_instructions"] += len(trace)
            return results

        self._patch(OutOfOrderPipeline, "run_batch", staticmethod(run_batch))

        # workloads / frontend / faults
        self._wrap_method(TraceGenerator, "generate", "workloads.trace_gen")
        original_provider_init = TraceProvider.__init__

        def provider_init(provider, *args, **kwargs):
            original_provider_init(provider, *args, **kwargs)
            tracer._providers.append(provider)

        self._patch(TraceProvider, "__init__", provider_init)
        self._patch(
            pipeline_mod,
            "frontend_schedule",
            self.timed("frontend.schedule", pipeline_mod.frontend_schedule),
        )
        original_build = frontend._build_schedule

        def build_schedule(*args, **kwargs):
            counts["frontend.schedules_built"] += 1
            return original_build(*args, **kwargs)

        self._patch(frontend, "_build_schedule", build_schedule)
        self._wrap_method(FaultMapProvider, "pairs", "faults.map_sample")
        generate = FaultMap.__dict__["generate"].__func__
        self._patch(
            FaultMap, "generate", classmethod(self.timed("faults.map_sample", generate))
        )

        # campaign: planning (with its point counts), pipeline builds, and
        # every session's own counters.
        timed_resolve = self.timed("campaign.plan", Planner.resolve)

        def resolve(planner, *args, **kwargs):
            plan = timed_resolve(planner, *args, **kwargs)
            counts["campaign.points"] += plan.total_points
            counts["campaign.dedup_hits"] += plan.dedup_hits
            return plan

        self._patch(Planner, "resolve", resolve)
        self._wrap_method(Session, "build_pipeline", "campaign.build_pipeline")
        original_session_init = Session.__init__

        def session_init(session, *args, **kwargs):
            original_session_init(session, *args, **kwargs)
            tracer._sessions.append(session)

        self._patch(Session, "__init__", session_init)

        # store
        self._patch(store_pkg, "open_store",
                    self.timed("store.open", store_pkg.open_store))
        for cls in (ResultStore, MemoryStore, DiskStore, ShardedDiskStore, SqliteStore):
            for attr, name in _STORE_METHODS.items():
                if attr in cls.__dict__:
                    self._wrap_method(cls, attr, name)

        # experiments
        self._wrap_method(Session, "normalized_series", "figures.render")

    def remove(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----- derived metrics -----------------------------------------------------

    def layer_metrics(self, iteration: int, kernel_available: bool) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` value for ``iteration``, the one
        most recently installed (counters belong to it alone)."""
        from repro.cpu import frontend

        spans = self.spans
        members = [i for i, span in enumerate(spans) if span[4] == iteration]
        covered = dict.fromkeys(members, 0.0)
        # Spans nest properly (one thread), so a parent's children never
        # overlap and the interval they cover is the sum of their lengths.
        for i in members:
            parent = spans[i][3]
            if parent in covered:
                covered[parent] += spans[i][2] - spans[i][1]
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i in members:
            name, start, end = spans[i][0], spans[i][1], spans[i][2]
            self_time[name] += (end - start) - covered[i]
            calls[name] += 1

        counts = self.counts
        metrics: dict[str, float] = {}
        for name, counter in _TIMED_LAYERS.items():
            metrics[f"{name}_s"] = self_time[name]
            if counter is not None:
                metrics[counter] = calls[name]
        service_calls = calls["engine.miss_service"]
        metrics["engine.instr_per_service_call"] = (
            counts["pipeline.lane_instructions"] / service_calls if service_calls else 0.0
        )
        metrics["lane_kernel.available"] = int(kernel_available)
        passes = calls["pipeline.lane_pass"]
        metrics["pipeline.lanes_per_pass"] = (
            counts["pipeline.lanes"] / passes if passes else 0.0
        )
        metrics["workloads.traces_loaded"] = sum(p.loaded for p in self._providers)
        metrics["frontend.schedules_built"] = counts["frontend.schedules_built"]
        metrics["frontend.schedules_loaded"] = (
            frontend.SCHEDULE_CACHE_STATS["loaded"] - self._schedules_loaded_at_start
        )
        metrics["campaign.points"] = counts["campaign.points"]
        metrics["campaign.dedup_hits"] = counts["campaign.dedup_hits"]
        metrics["campaign.simulations_executed"] = sum(
            s.simulations_executed for s in self._sessions
        )
        metrics["campaign.schedule_passes"] = sum(
            s.schedule_passes for s in self._sessions
        )
        return {name: metrics[name] for name in LAYER_METRICS}

    def span_records(self) -> list[dict]:
        """Spans as JSON-ready records (times in seconds from the first
        span's start)."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "id": i,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "iteration": iteration,
            }
            for i, (name, start, end, parent, iteration) in enumerate(self.spans)
        ]
