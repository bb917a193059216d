"""One-pass trace-driven out-of-order timing model (sim-alpha substitute).

The paper evaluates with sim-alpha, a validated cycle-accurate Alpha 21264
simulator.  We replace it with a deterministic one-pass timing model that
computes, for every committed instruction, its dispatch, issue, completion,
and commit cycles from predecessor state.  The model honours the Table II
resources:

* 15-stage pipeline: a fixed front-end depth plus the I-cache hit latency
  separate fetch from dispatch, so branch mispredictions pay a full refill
  (and word-disabling's +1-cycle I-cache lengthens it, one of the two ways
  its alignment network costs performance);
* 4-wide fetch (broken at cache-line boundaries and taken branches),
  6-wide issue, 4-wide commit;
* 128-entry ROB (dispatch stalls until the instruction 128 older commits);
* 40-entry INT and 20-entry FP issue queues (entries free at issue);
* FU pools: 4 INT ALUs (also AGUs and branches), 4 INT multipliers,
  1 FP ALU, 1 FP multiplier;
* gshare + RAS + line predictor front end;
* loads get their latency from the cache hierarchy, so dependence chains
  see L1 hits (3 or 4 cycles), victim-cache hits (+1), L2 hits (+20), and
  memory (+255/+51) exactly as Table III prescribes.

What it does *not* model: wrong-path execution, replay traps, finite MSHRs,
store-to-load forwarding conflicts, and DRAM bank contention.  These
second-order effects shift absolute IPC but affect every scheme's runs in
the same direction; the paper's conclusions rest on relative performance
between schemes sharing a trace, which this model resolves.

Execution engines
-----------------
A simulation point is a :class:`KernelLane`: a scheme's enabled-way
matrices, victim sizes and prefetch degree beside the structure every
lane of a pass shares.  The timing recurrence that runs it exists twice,
and both copies agree bit for bit in cycles and every reported
statistic:

* the compiled C lane kernel (:mod:`repro.cpu.lane_kernel`) runs lanes
  from empty caches and fresh predictors and yields
  :class:`SimResult` values; no object hierarchy is read beyond its
  disable bits, and none is written;
* the object loop in :meth:`OutOfOrderPipeline.run` drives the original
  ``MemoryHierarchy.access_*`` call chain.  It is the reference the kernel
  is checked against (``engine="object"`` forces it;
  ``tests/integration/test_golden_sim.py`` pins both to the same golden
  cycle counts and statistics) and runs everything the kernel does not
  cover: fault-disabled L2s, hierarchies that already hold state, and
  hosts without a working ``gcc``.  It is also the way
  to inspect a hierarchy after a run, or to chain runs over one.

The engine is chosen at run time, never when a campaign is planned:
:meth:`~OutOfOrderPipeline.run_batch` drives many lanes in one kernel
pass when the kernel loads, else each lane's :meth:`KernelLane.pipeline`
on the object loop, and :meth:`~OutOfOrderPipeline.run` drives a
pipeline's own :meth:`~OutOfOrderPipeline.kernel_lane` as a one-lane
kernel pass under the same condition.  So are a kernel pass's threads:
a wide pass runs as :func:`kernel_slices` slices, contiguous lane ranges
the kernel advances on threads of one call, within the process's CPU
budget (:mod:`repro.budget`).  Plans, passes and results do not depend
on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.budget import cpu_budget
from repro.cache.engine import BulkLanes, bulk_signature
from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import HierarchyStats
from repro.cpu import lane_kernel
from repro.cpu.branch import GsharePredictor, LinePredictor, ReturnAddressStack
from repro.cpu.config import PipelineConfig
from repro.cpu.frontend import frontend_schedule
from repro.cpu.isa import EXECUTION_LATENCY, FU_OF_CLASS, NUM_REGISTERS, InstrClass
from repro.cpu.trace import Trace
from repro.faults.geometry import CacheGeometry

#: Valid ``engine`` arguments to :class:`OutOfOrderPipeline`: ``"fused"``
#: (default) runs the lane kernel whenever the pipeline has a
#: :meth:`~OutOfOrderPipeline.kernel_lane` and the kernel loads,
#: ``"object"`` always runs the reference object loop.
ENGINES = ("fused", "object")

#: Lane-instructions (lanes x trace length) that repay one more kernel
#: slice: its thread, and its own cache state and pass arrays.  Measured
#: on block-disabling passes of gzip and mcf (README, "Lane passes").
SLICE_WORK = 40_000


def kernel_slices(lanes: int, instructions: int) -> int:
    """How many threaded slices a kernel pass of ``lanes`` lanes over a
    trace of ``instructions`` runs as: one per :data:`SLICE_WORK`
    lane-instructions, at most the process's CPU budget
    (:func:`repro.budget.cpu_budget`) and its lanes, and at least one."""
    return max(1, min(cpu_budget(), lanes, lanes * instructions // SLICE_WORK))


@dataclass(frozen=True)
class SimResult:
    """Outcome of one pipeline run."""

    benchmark: str
    instructions: int
    cycles: int
    branch_mispredictions: int
    branch_predictions: int
    hierarchy_stats: dict = field(hash=False, default_factory=dict)

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def misprediction_rate(self) -> float:
        if self.branch_predictions == 0:
            return 0.0
        return self.branch_mispredictions / self.branch_predictions

    def speedup_over(self, other: "SimResult") -> float:
        """This run's performance normalised to ``other`` (same trace)."""
        if self.instructions != other.instructions:
            raise ValueError("speedup requires runs over the same trace")
        if self.cycles == 0:
            raise ValueError("cannot normalise a zero-cycle run")
        return other.cycles / self.cycles


@dataclass(frozen=True, eq=False)
class KernelLane:
    """One simulation point, built from what differs per lane: its L1I
    and L1D enabled-way matrices (``None`` enables every way) and its
    ``(I, D)`` victim-cache entries (0 for none).  The rest — pipeline
    config, latencies, the L1I/L1D/L2 geometries and the next-line
    prefetch degree of both L1s (0 for none) — is the :attr:`structure`
    every lane of one pass shares.

    :meth:`OutOfOrderPipeline.run_batch` runs such lanes from empty
    caches and fresh predictors, like freshly built pipelines, without
    building an object hierarchy or writing anything back when the
    kernel loads; :meth:`pipeline` is the lane's object-loop twin.
    """

    config: PipelineConfig
    latencies: LatencyConfig
    geometries: "tuple[CacheGeometry, CacheGeometry, CacheGeometry]"
    enabled_i: "np.ndarray | None"
    enabled_d: "np.ndarray | None"
    victim_entries: "tuple[int, int]"
    prefetch_degree: int

    def __post_init__(self) -> None:
        # The kernel drops occupancy guards that rely on dispatch cycles
        # being >= 1.
        if self.config.frontend_stages + self.latencies.l1i < 1:
            raise ValueError("a kernel lane needs a front-end depth of at least 1")
        if len(self.victim_entries) != 2 or min(self.victim_entries) < 0:
            raise ValueError(
                "victim_entries must be an (I, D) pair of ints >= 0, "
                f"got {self.victim_entries}"
            )
        if self.prefetch_degree < 0:
            raise ValueError(
                f"prefetch_degree must be an int >= 0, got {self.prefetch_degree}"
            )

    @property
    def structure(self) -> tuple:
        """What every lane of one pass must share: the campaign
        planner's batch signature."""
        return (self.config, self.latencies, self.geometries, self.prefetch_degree)

    def pipeline(self, engine: str = "fused") -> "OutOfOrderPipeline":
        """This lane as a freshly built object pipeline: caches over its
        geometries and enabled-way matrices, its victim caches and
        prefetchers.  With the default engine its
        :meth:`~OutOfOrderPipeline.kernel_lane` gives this lane back."""
        l1i, l1d, l2 = self.geometries
        hierarchy = MemoryHierarchy(
            SetAssociativeCache(l1i, enabled_ways=self.enabled_i, name="l1i"),
            SetAssociativeCache(l1d, enabled_ways=self.enabled_d, name="l1d"),
            l2,
            self.latencies,
            victim_entries_i=self.victim_entries[0],
            victim_entries_d=self.victim_entries[1],
            prefetch_degree=self.prefetch_degree,
        )
        return OutOfOrderPipeline(self.config, hierarchy, engine=engine)


#: Class codes as plain ints: NumPy compares an int8 column against an
#: ``IntEnum`` member several times slower than against an int.
_LOAD, _STORE, _BRANCH, _RETURN = map(
    int, (InstrClass.LOAD, InstrClass.STORE, InstrClass.BRANCH, InstrClass.RETURN)
)


def _count_classes(classes: np.ndarray, *codes: int) -> int:
    """How many of ``classes`` hold one of ``codes``."""
    return sum(int(np.count_nonzero(classes == code)) for code in codes)


def _check_measure_from(n: int, measure_from: int) -> None:
    """The measured region must hold an instruction; an empty trace
    measures from 0."""
    if not 0 <= measure_from < max(n, 1):
        raise ValueError(f"measure_from must be in [0, {n}), got {measure_from}")


def _object_columns(trace: Trace) -> tuple[list, ...]:
    """The trace's seven columns as lists, memoised on the trace.  The
    object loop indexes lists several times faster than arrays, and the
    conversion costs about 3% of a run, which a trace simulated under
    many configurations and fault maps then pays once."""
    columns = trace.__dict__.get("_object_columns")
    if columns is None:
        columns = tuple(column.tolist() for column in trace.to_arrays().values())
        trace._object_columns = columns
    return columns


class OutOfOrderPipeline:
    """Timing model bound to one memory hierarchy instance.

    ``run(trace, measure_from=K)`` implements the SimPoint-style
    methodology the paper uses: the first ``K`` instructions execute
    normally (warming predictors, caches, and pipeline state) but cycle
    counts and statistics cover only the measured region that follows.
    The paper's 100M-instruction regions are measured with warm state; our
    much shorter traces need the explicit prefix or cold two-bit counters
    and compulsory misses dominate.

    ``engine`` selects the execution engine (see module docstring).  A
    pipeline the kernel runs leaves its hierarchy as built and runs
    once; the object loop leaves its state in the hierarchy and
    predictors, so a later run continues from it.
    """

    def __init__(
        self,
        config: PipelineConfig,
        hierarchy: MemoryHierarchy,
        engine: str = "fused",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        self.config = config
        self.hierarchy = hierarchy
        self.engine = engine
        self.gshare = GsharePredictor(config.gshare_history_bits)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.line_predictor = LinePredictor(config.line_predictor_entries)
        #: ``"kernel"`` or ``"object"`` once the pipeline has run.
        self._ran_on: "str | None" = None

    def _reset_measurement_state(self) -> None:
        """Zero every statistic at the warmup/measured-region boundary
        (microarchitectural state — caches, predictor tables, in-flight
        timing — is deliberately kept warm)."""
        self.gshare.predictions = 0
        self.gshare.mispredictions = 0
        self.ras.pops = 0
        self.ras.pushes = 0
        self.ras.mispredictions = 0
        self.line_predictor.lookups = 0
        self.line_predictor.misses = 0
        hier = self.hierarchy
        for cache in (hier.l1i, hier.l1d, hier.l2):
            cache.stats.reset()
        for victim in (hier.victim_i, hier.victim_d):
            if victim is not None:
                victim.stats.reset()
        hier.iport.memory_accesses = 0
        hier.dport.memory_accesses = 0

    def run(self, trace: Trace, measure_from: int = 0) -> SimResult:
        """Simulate the trace; report cycles/statistics for instructions
        ``measure_from..end`` (the measured region).  ``measure_from=0``
        measures everything (cold start).  A pipeline with a
        :meth:`kernel_lane` runs it as a one-lane kernel pass when the
        kernel loads, which leaves the pipeline as built; running it
        again raises ``RuntimeError``.  Every other run is the object
        loop below, which continues from whatever state earlier runs
        left."""
        cfg = self.config
        hier = self.hierarchy

        n = len(trace)
        _check_measure_from(n, measure_from)
        if self._ran_on == "kernel":
            raise RuntimeError(
                "this pipeline already ran in the lane kernel, which leaves its "
                "hierarchy as built; build a new pipeline, or use "
                'engine="object" to chain runs over one hierarchy'
            )
        if n == 0:
            return SimResult(trace.name, 0, 0, 0, 0, HierarchyStats().snapshot())
        lane = self.kernel_lane()
        # Looked up at call time, like every caller of load(): a wrapper
        # set on the module (a profiler's, say) sees each call.
        kernel = lane_kernel.load()
        if lane is not None and kernel is not None:
            self._ran_on = "kernel"
            return OutOfOrderPipeline._run_kernel_lanes(
                kernel, [lane], trace, measure_from
            )[0]
        self._ran_on = "object"

        # Local bindings: the loop below runs once per instruction and
        # dominates experiment runtime.
        pcs, classes, mem_addrs, src1s, src2s, dests, takens = _object_columns(trace)

        predict_branch = self.gshare.predict_and_update
        lp_check = self.line_predictor.predict_and_update
        ras_push = self.ras.push
        ras_pop = self.ras.pop_and_check

        i_shift = hier.l1i.geometry.offset_bits
        d_shift = hier.l1d.geometry.offset_bits
        l1i_lat = hier.latencies.l1i
        frontend_delay = cfg.frontend_stages + l1i_lat
        access_inst = hier.access_instruction
        access_data = hier.access_data

        exec_lat = [EXECUTION_LATENCY[InstrClass(c)] for c in range(9)]
        # FU pool per class index (see isa.FU_OF_CLASS, flattened for speed):
        #   0=INT_ALU 1=INT_MUL 2=FP_ALU 3=FP_MUL; mem/control use INT ALUs.
        fu_of = [0, 1, 2, 3, 0, 0, 0, 0, 0]
        fu_free: list[list[int]] = [
            [0] * cfg.int_alu_units,
            [0] * cfg.int_mul_units,
            [0] * cfg.fp_alu_units,
            [0] * cfg.fp_mul_units,
        ]
        ports = [0] * cfg.issue_width
        n_ports = cfg.issue_width

        reg_ready = [0] * 64

        rob_size = cfg.rob_entries
        rob_ring = [0] * rob_size

        int_iq = [0] * cfg.iq_int_entries
        fp_iq = [0] * cfg.iq_fp_entries
        int_iq_len = cfg.iq_int_entries
        fp_iq_len = cfg.iq_fp_entries
        int_count = 0
        fp_count = 0

        fetch_cycle = 0
        fetch_slot = 0
        fetch_width = cfg.fetch_width
        cur_line = -1

        last_commit = 0
        commit_slots = 0
        commit_width = cfg.commit_width

        LOAD = int(InstrClass.LOAD)
        STORE = int(InstrClass.STORE)
        BRANCH = int(InstrClass.BRANCH)
        CALL = int(InstrClass.CALL)
        FP_ALU = int(InstrClass.FP_ALU)
        FP_MUL = int(InstrClass.FP_MUL)

        cycles_base = 0

        for i in range(n):
            if i == measure_from:
                cycles_base = last_commit
                self._reset_measurement_state()
            pc = pcs[i]
            cls = classes[i]

            # ---- fetch -------------------------------------------------------
            line = pc >> i_shift
            if line != cur_line:
                cur_line = line
                lat = access_inst(line)
                if lat > l1i_lat:
                    fetch_cycle += lat - l1i_lat  # miss stall cycles
                fetch_slot = 0  # fetch groups break at line boundaries
            if fetch_slot >= fetch_width:
                fetch_cycle += 1
                fetch_slot = 0
            fetch_slot += 1

            disp = fetch_cycle + frontend_delay

            # ---- dispatch: ROB and issue-queue occupancy ---------------------
            rob_slot = i % rob_size
            if i >= rob_size:
                freed = rob_ring[rob_slot] + 1
                if freed > disp:
                    disp = freed
            if cls == FP_ALU or cls == FP_MUL:
                slot = fp_count % fp_iq_len
                if fp_count >= fp_iq_len and fp_iq[slot] > disp:
                    disp = fp_iq[slot]
                fp_count += 1
                iq_ring, iq_slot = fp_iq, slot
            else:
                slot = int_count % int_iq_len
                if int_count >= int_iq_len and int_iq[slot] > disp:
                    disp = int_iq[slot]
                int_count += 1
                iq_ring, iq_slot = int_iq, slot

            # ---- ready: operand dependences ----------------------------------
            ready = disp
            r = src1s[i]
            if r >= 0 and reg_ready[r] > ready:
                ready = reg_ready[r]
            r = src2s[i]
            if r >= 0 and reg_ready[r] > ready:
                ready = reg_ready[r]

            # ---- issue: FU and issue-port structural hazards ------------------
            # Min-scans unrolled for the fixed Table II pool widths (4 INT
            # ALUs/multipliers, single FP units, 6 issue ports); other
            # widths take the generic loop.  Tie-breaking (first minimum)
            # matches min()/the loop exactly.
            units = fu_free[fu_of[cls]]
            n_units = len(units)
            if n_units == 1:
                best_u = 0
                best_t = units[0]
            elif n_units == 4:
                best_u = 0
                best_t = units[0]
                t = units[1]
                if t < best_t:
                    best_t = t
                    best_u = 1
                t = units[2]
                if t < best_t:
                    best_t = t
                    best_u = 2
                t = units[3]
                if t < best_t:
                    best_t = t
                    best_u = 3
            else:
                best_u = 0
                best_t = units[0]
                for j in range(1, n_units):
                    if units[j] < best_t:
                        best_t = units[j]
                        best_u = j
            start = ready if ready > best_t else best_t

            if n_ports == 6:
                best_p = 0
                best_t = ports[0]
                t = ports[1]
                if t < best_t:
                    best_t = t
                    best_p = 1
                t = ports[2]
                if t < best_t:
                    best_t = t
                    best_p = 2
                t = ports[3]
                if t < best_t:
                    best_t = t
                    best_p = 3
                t = ports[4]
                if t < best_t:
                    best_t = t
                    best_p = 4
                t = ports[5]
                if t < best_t:
                    best_t = t
                    best_p = 5
            else:
                best_p = 0
                best_t = ports[0]
                for j in range(1, n_ports):
                    if ports[j] < best_t:
                        best_t = ports[j]
                        best_p = j
            if best_t > start:
                start = best_t

            units[best_u] = start + 1  # fully pipelined units
            ports[best_p] = start + 1
            iq_ring[iq_slot] = start + 1  # IQ entry frees at issue

            # ---- execute / complete ------------------------------------------
            if cls < 4:  # ALU/MUL classes 0-3: fixed latencies
                comp = start + exec_lat[cls]
            elif cls == LOAD:
                comp = start + access_data(mem_addrs[i] >> d_shift, False)
            elif cls == STORE:
                access_data(mem_addrs[i] >> d_shift, True)
                comp = start + 1  # retires via the store buffer
            else:  # control classes 6-8: single-cycle execute
                comp = start + 1

            r = dests[i]
            if r >= 0:
                reg_ready[r] = comp

            # ---- commit: in-order, bounded width ------------------------------
            if comp > last_commit:
                last_commit = comp
                commit_slots = 1
            elif commit_slots >= commit_width:
                last_commit += 1
                commit_slots = 1
            else:
                commit_slots += 1
            rob_ring[rob_slot] = last_commit

            # ---- control flow -------------------------------------------------
            if cls > 5:  # one test gates all branch/call/return bookkeeping
                if cls == BRANCH:
                    taken = takens[i]
                    if not predict_branch(pc, taken):
                        # Redirect: fetch restarts after resolution.
                        redirect = comp + 1
                        if redirect > fetch_cycle:
                            fetch_cycle = redirect
                        fetch_slot = 0
                        cur_line = -1
                    elif taken:
                        target_line = (pcs[i + 1] >> i_shift) if i + 1 < n else line
                        if not lp_check(pc, target_line):
                            fetch_cycle += 1  # taken-branch fetch bubble
                        fetch_slot = 0
                elif cls == CALL:
                    ras_push(pc + 4)
                    fetch_slot = 0
                else:  # RETURN
                    actual = pcs[i + 1] if i + 1 < n else pc + 4
                    if not ras_pop(actual):
                        redirect = comp + 1
                        if redirect > fetch_cycle:
                            fetch_cycle = redirect
                        fetch_slot = 0
                        cur_line = -1
                    else:
                        fetch_slot = 0

        return SimResult(
            benchmark=trace.name,
            instructions=n - measure_from,
            cycles=last_commit - cycles_base,
            branch_mispredictions=self.gshare.mispredictions
            + self.ras.mispredictions,
            branch_predictions=self.gshare.predictions + self.ras.pops,
            hierarchy_stats=hier.stats().snapshot(),
        )

    # ----- lane-kernel execution --------------------------------------------

    def kernel_lane(self) -> "KernelLane | None":
        """This pipeline as a :class:`KernelLane` — its hierarchy's
        enabled-way matrices, ``(I, D)`` victim sizes and prefetch
        degree beside the shared structure — or ``None`` when only the
        object loop can run it: another engine, a pipeline that has run
        (the schedule replays predictors from their pristine
        construction state), a front-end depth below 1, or a hierarchy
        outside the bulk engine's coverage (see
        :func:`repro.cache.engine.bulk_signature`)."""
        h = self.hierarchy
        if self.engine != "fused" or self._ran_on is not None:
            return None
        if self.config.frontend_stages + h.latencies.l1i < 1:
            return None
        degree = bulk_signature(h)
        if degree is None:
            return None
        return KernelLane(
            self.config,
            h.latencies,
            (h.l1i.geometry, h.l1d.geometry, h.l2.geometry),
            h.l1i._enabled,
            h.l1d._enabled,
            tuple(0 if v is None else v.entries for v in (h.victim_i, h.victim_d)),
            degree,
        )

    @staticmethod
    def run_batch(
        lanes: "Sequence[KernelLane]", trace: Trace, measure_from: int = 0
    ) -> list[SimResult]:
        """Simulate N :class:`KernelLane` values — one per fault map — in a
        single pass over the shared front-end schedule.

        When the C lane kernel loads, per-lane state (cache tags/recency,
        victim entries, prefetch tag sets, ROB/IQ/FU occupancy,
        statistics) lives in NumPy arrays with a lane axis, built from
        each lane's enabled-way matrices and victim sizes, that the
        kernel advances instruction by instruction for every lane.
        Lanes start empty, statistics come from the kernel's counters,
        and nothing is written back.  Otherwise each lane's
        :meth:`KernelLane.pipeline` runs the object loop.  Results are
        bit-identical either way (golden-pinned).  Every lane must share
        one :attr:`KernelLane.structure`; mixed schemes, fault maps and
        victim sizings (0/8/16-entry lanes pad to one slot axis) may
        share a pass.  A pipeline's lane is its :meth:`kernel_lane`.
        """
        lanes = list(lanes)
        if not lanes:
            return []
        if not all(isinstance(lane, KernelLane) for lane in lanes):
            raise TypeError(
                "run_batch takes KernelLanes; a pipeline's lane is its kernel_lane()"
            )
        first = lanes[0]
        if any(lane.structure != first.structure for lane in lanes[1:]):
            raise ValueError(
                "kernel lanes of one pass must share their pipeline config, "
                "latencies, geometries and prefetch degree"
            )
        _check_measure_from(len(trace), measure_from)
        if len(trace) == 0:  # what run() returns for a fresh pipeline
            return [
                SimResult(trace.name, 0, 0, 0, 0, HierarchyStats().snapshot())
                for _ in lanes
            ]
        kernel = lane_kernel.load()
        if kernel is None:
            return [
                lane.pipeline("object").run(trace, measure_from) for lane in lanes
            ]
        return OutOfOrderPipeline._run_kernel_lanes(kernel, lanes, trace, measure_from)

    @staticmethod
    def _run_kernel_lanes(
        kernel, lanes: "list[KernelLane]", trace: Trace, measure_from: int
    ) -> list[SimResult]:
        """Run ``lanes``, which share one structure, through one pass of
        ``kernel`` (what :func:`repro.cpu.lane_kernel.load` returned);
        returns each lane's result.

        The kernel tracks every timing quantity *scaled by the commit
        width W* (dispatch, ready, issue, completion all stay multiples
        of W), and commit state per lane is ``v = last_commit * W +
        commit_slots``: the three-way commit branch collapses to ``v' =
        max(v, comp_scaled) + 1``, algebraically identical to the object
        loop's rule for ``slots`` in ``1..W``.  Cache recency uses the
        bulk engine's trace-static stamps (see :mod:`repro.cache.engine`),
        so no per-lane clocks are maintained.  The front-end schedule
        covers the whole trace, whatever the warmup: the pass counts the
        measured region's predictions, mispredictions and accesses from
        its index columns and the trace's classes, and sizes the
        prefetchers' tag sets for the whole trace's accesses before the
        kernel starts.  The kernel returns to Python only at the warmup
        boundary (cycle-base snapshot, counter reset) and at trace end;
        cycle counts are recovered as ``(v - 1) // W``.

        The pass runs as :func:`kernel_slices` slices: contiguous lane
        ranges, each with its own :class:`~repro.cache.engine.BulkLanes`
        and pass arrays, all reading one schedule and the trace's
        columns.  One kernel call runs every slice on threads; every
        slice stops at the warmup boundary, and each resets its own
        counters.  Results concatenate in lane order, the same bits at
        every slice count.
        """
        first = lanes[0]
        n = len(trace)
        n_lanes = len(lanes)
        cfg = first.config
        w = cfg.commit_width
        # Looked up at call time, so a caller may force a count; the
        # kernel trusts it, so it is bounded here.
        k = max(1, min(kernel_slices(n_lanes, n), n_lanes))
        schedule = frontend_schedule(trace, cfg, first.geometries[0].offset_bits)
        # The measured region's counts.  Each redirect is one gshare or
        # RAS misprediction, and the index columns end in the sentinel n.
        ia_idx, rd_idx = schedule.iaccess_index, schedule.redirect_index
        i_measured = len(ia_idx) - 1 - int(np.searchsorted(ia_idx, measure_from))
        mispredictions = len(rd_idx) - 1 - int(np.searchsorted(rd_idx, measure_from))
        measured = trace.iclass[measure_from:]
        predictions = _count_classes(measured, _BRANCH, _RETURN)
        d_measured = _count_classes(measured, _LOAD, _STORE)
        accesses = None
        if first.prefetch_degree:  # the tag sets are sized for the whole pass
            accesses = (len(ia_idx) - 1, _count_classes(trace.iclass, _LOAD, _STORE))
        bulks = []
        for j in range(k):  # contiguous slices, sizes differing by at most one
            part = lanes[j * n_lanes // k : (j + 1) * n_lanes // k]
            bulks.append(BulkLanes(
                first.geometries,
                first.latencies,
                [(lane.enabled_i, lane.enabled_d) for lane in part],
                [lane.victim_entries for lane in part],
                lat_scale=w,
                prefetch_degree=first.prefetch_degree,
                accesses=accesses,
            ))
        frontend_delay = cfg.frontend_stages + first.latencies.l1i
        pool_widths = (
            cfg.int_alu_units, cfg.int_mul_units, cfg.fp_alu_units, cfg.fp_mul_units,
        )

        def zeros(*shape):
            return np.zeros(shape, dtype=np.int64)

        # Every slice reads the trace's and the schedule's columns in
        # place, and the class tables, and owns the rest: the bulk
        # engine's cache state and counters, which the kernel mutates,
        # and its timing rows.  Nothing of the trace's length is
        # allocated for a pass.
        shared = dict(
            slices=k, n=n, wscale=w, wm1=w - 1,
            wpow2=int(w & (w - 1) == 0), fdelay=frontend_delay,
            kstamp=bulks[0].stamp_base, kstep=bulks[0].stamp_step,
            dhit=(first.latencies.l1d - 1) * w, nports=cfg.issue_width,
            rob_size=cfg.rob_entries, iqint_size=cfg.iq_int_entries,
            iqfp_size=cfg.iq_fp_entries,
            doff_bits=first.geometries[1].offset_bits,
            cur_sp=lane_kernel.CUR_SP_INVALID,
            boundary=measure_from if measure_from > 0 else -1,
            execlat=np.array(
                [(EXECUTION_LATENCY[cls] - 1) * w for cls in InstrClass], dtype=np.int64
            ),
            fuof=np.array([FU_OF_CLASS[cls] for cls in InstrClass], dtype=np.int64),
            poolw=np.array(pool_widths, dtype=np.int64),
            cls=trace.iclass, src1=trace.src1, src2=trace.src2, dest=trace.dest,
            mem_addr=trace.mem_addr,
            sps=schedule.static_fetch, ia_idx=schedule.iaccess_index,
            ia_lines=schedule.iaccess_line, rd_idx=schedule.redirect_index,
            rd_snext=schedule.redirect_static_next,
        )
        vs = [zeros(bulk.lanes) for bulk in bulks]  # last_commit * W + commit_slots
        args = lane_kernel.ARGS.pack_array(shared, [
            dict(
                lanes=bulk.lanes, ip=bulk.iport, dp=bulk.dport, l2=bulk.l2,
                reg=zeros(NUM_REGISTERS, bulk.lanes),
                rob=zeros(cfg.rob_entries, bulk.lanes),  # scaled dispatch bounds
                iqint=zeros(cfg.iq_int_entries, bulk.lanes),
                iqfp=zeros(cfg.iq_fp_entries, bulk.lanes),
                **{
                    f"pool{j}": zeros(bulk.lanes, width)
                    for j, width in enumerate(pool_widths)
                },
                ports=zeros(bulk.lanes, cfg.issue_width),
                dyn=np.full(bulk.lanes, frontend_delay * w, dtype=np.int64),
                fetch_base=zeros(bulk.lanes),
                v=v,
            )
            for bulk, v in zip(bulks, vs)
        ])
        cycles_base = 0
        kernel(args)
        rets = {slice_args.ret for slice_args in args}
        if len(rets) != 1:
            raise RuntimeError(f"kernel slices returned {sorted(rets)}, not one code")
        if rets == {lane_kernel.RET_BOUNDARY}:
            cycles_base = (np.concatenate(vs) - 1) // w
            for bulk, slice_args in zip(bulks, args):
                bulk.mark_boundary()
                slice_args.boundary = -1
            kernel(args)

        snapshots = [
            snapshot
            for bulk in bulks
            for snapshot in bulk.finalize(i_measured, d_measured)
        ]
        cycles = ((np.concatenate(vs) - 1) // w - cycles_base).tolist()
        return [
            SimResult(
                benchmark=trace.name,
                instructions=n - measure_from,
                cycles=lane_cycles,
                branch_mispredictions=mispredictions,
                branch_predictions=predictions,
                hierarchy_stats=snapshot,
            )
            for lane_cycles, snapshot in zip(cycles, snapshots)
        ]
