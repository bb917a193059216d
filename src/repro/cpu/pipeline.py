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
The timing recurrence exists twice, and both copies agree bit for bit in
cycles and every reported statistic:

* the compiled C lane kernel (:mod:`repro.cpu.lane_kernel`) runs every
  pipeline whose :meth:`OutOfOrderPipeline.batch_key` is not ``None`` —
  alone (:meth:`~OutOfOrderPipeline.run`) or as one lane of a batch
  (:meth:`~OutOfOrderPipeline.run_batch`);
* the object loop in :meth:`OutOfOrderPipeline.run` drives the original
  ``MemoryHierarchy.access_*`` call chain.  It is the reference the kernel
  is checked against (``engine="object"`` forces it;
  ``tests/integration/test_golden_sim.py`` pins both to the same golden
  cycle counts and statistics) and runs everything the kernel does not
  cover: prefetchers, non-LRU policies, fault-disabled L2s, reused
  pipelines, and hosts without a working ``gcc``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cache.engine import BulkLanes, bulk_signature
from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu import lane_kernel
from repro.cpu.branch import GsharePredictor, LinePredictor, ReturnAddressStack
from repro.cpu.config import PipelineConfig
from repro.cpu.frontend import (
    REG_FILE_SLOTS,
    FrontEndSchedule,
    frontend_schedule,
    lane_columns,
    schedule_columns,
)
from repro.cpu.isa import EXECUTION_LATENCY, FU_OF_CLASS, InstrClass
from repro.cpu.trace import Trace

#: Valid ``engine`` arguments to :class:`OutOfOrderPipeline`: ``"fused"``
#: (default) runs the lane kernel whenever :meth:`OutOfOrderPipeline.batch_key`
#: allows it, ``"object"`` always runs the reference object loop.
ENGINES = ("fused", "object")


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


class OutOfOrderPipeline:
    """Timing model bound to one memory hierarchy instance.

    ``run(trace, measure_from=K)`` implements the SimPoint-style
    methodology the paper uses: the first ``K`` instructions execute
    normally (warming predictors, caches, and pipeline state) but cycle
    counts and statistics cover only the measured region that follows.
    The paper's 100M-instruction regions are measured with warm state; our
    much shorter traces need the explicit prefix or cold two-bit counters
    and compulsory misses dominate.

    ``engine`` selects the execution engine (see module docstring); the
    object hierarchy remains the source of truth between runs either way.
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
        self._runs = 0

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
        :meth:`batch_key` runs as a one-lane kernel pass; every other one
        runs the object loop below."""
        cfg = self.config
        hier = self.hierarchy

        n = len(trace)
        if not 0 <= measure_from < max(n, 1):
            raise ValueError(
                f"measure_from must be in [0, {n}), got {measure_from}"
            )
        if n == 0:
            return SimResult(trace.name, 0, 0, 0, 0, hier.stats().snapshot())
        if self.batch_key() is not None:
            return OutOfOrderPipeline._run_lanes([self], trace, measure_from)[0]
        self._runs += 1

        # Local bindings: the loop below runs once per instruction and
        # dominates experiment runtime.
        pcs = trace.pc
        classes = trace.iclass
        mem_addrs = trace.mem_addr
        src1s = trace.src1
        src2s = trace.src2
        dests = trace.dest
        takens = trace.taken

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
            if i == measure_from and i > 0:
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

    def batch_key(self) -> "tuple | None":
        """Hashable lane-compatibility signature, or ``None`` when this
        pipeline must run the object loop.

        A non-``None`` key is the one eligibility predicate of the C lane
        kernel: :meth:`run` sends such a pipeline through a one-lane
        kernel pass, and pipelines with equal keys may be driven over one
        trace as lanes of a single :meth:`run_batch` pass — even when
        their *configurations* differ (mixed schemes, mixed fault maps,
        the fault-free normalisation baseline): lane state is fully
        per-lane; only the structure the key captures must agree.  The
        key requires the default engine, a fresh pipeline (the schedule
        replays predictors from their pristine construction state), a
        positive front-end depth (the kernel drops occupancy guards that
        rely on dispatch cycles being >= 1), no prefetchers (they hook
        demand hits), the bulk engine's coverage (LRU replacement,
        fully-enabled L2 — see :func:`repro.cache.engine.bulk_signature`;
        victim *sizings* may differ per lane, padded by the vector
        engine), and a loadable kernel.  It folds in the shared pipeline
        config, the latency set and the per-level geometries.  The
        campaign planner merges work items by this key into lane passes,
        so on a host without the kernel every item plans as an
        object-loop run.
        """
        h = self.hierarchy
        if self.engine != "fused" or self._runs != 0:
            return None
        if self.config.frontend_stages + h.latencies.l1i < 1:
            return None
        if h.iport.prefetcher is not None or h.dport.prefetcher is not None:
            return None
        bulk = bulk_signature(h)
        if bulk is None or lane_kernel.load() is None:
            return None
        return (
            self.config,
            h.latencies,
            h.l1i.geometry,
            h.l1d.geometry,
            h.l2.geometry,
            bulk,
        )

    @staticmethod
    def _can_run_batch(pipelines: "Sequence[OutOfOrderPipeline]") -> bool:
        """Whether one kernel pass can drive these pipelines: every one
        carries the same non-``None`` :meth:`batch_key` (contents — fault
        maps, resident blocks, recency — may still differ per lane)."""
        key = pipelines[0].batch_key()
        if key is None:
            return False
        return all(p.batch_key() == key for p in pipelines[1:])

    @staticmethod
    def run_batch(
        pipelines: "Sequence[OutOfOrderPipeline]",
        trace: Trace,
        measure_from: int = 0,
    ) -> list[SimResult]:
        """Simulate N lanes — one pipeline per fault map — in a single
        C lane-kernel pass over the shared front-end schedule.

        Per-lane state (cache tags/recency, victim entries, ROB/IQ/FU
        occupancy, statistics) lives in NumPy arrays with a lane axis
        that the kernel advances instruction by instruction for every
        lane.  Results are bit-identical to running each pipeline
        sequentially (golden-pinned).

        Lanes need not share a *configuration*: any pipelines with equal
        non-``None`` :meth:`batch_key` signatures batch together (mixed
        schemes, mixed victim contents *and sizings* — 0/8/16-entry
        lanes pad to one slot axis — fault-free baselines), one lane or
        many.  Other batches — mixed latencies/geometries, prefetchers,
        non-LRU policies, reused pipelines, no kernel — run each
        pipeline's :meth:`run` instead, transparently.
        """
        pipelines = list(pipelines)
        if not pipelines:
            return []
        if len(trace) == 0 or not OutOfOrderPipeline._can_run_batch(pipelines):
            return [p.run(trace, measure_from) for p in pipelines]
        return OutOfOrderPipeline._run_lanes(pipelines, trace, measure_from)

    @staticmethod
    def _kernel_context(
        trace: Trace,
        schedule: FrontEndSchedule,
        cfg: PipelineConfig,
        lanes: BulkLanes,
        boundary: int,
    ) -> "tuple[np.ndarray, np.ndarray, list[np.ndarray]]":
        """Pack one lane pass for the compiled C kernel.

        Returns ``(ctx, v, keepalive)``: the ``int64`` context array
        holding every scalar, cursor, and raw array address the kernel
        reads (see :mod:`repro.cpu.lane_kernel` for the layout), the
        per-lane commit state ``v`` the caller reads cycle counts from,
        and the arrays whose addresses ``ctx`` holds — the caller keeps
        that list alive until the pass ends.  Cache state and counters
        are the bulk engine's own arrays (shared, not copied: the kernel
        mutates them in place); trace and schedule columns are int64
        arrays memoised on the trace and the schedule.
        """
        C = lane_kernel.CTX
        n_lanes = lanes.lanes
        w = cfg.commit_width
        hier0 = lanes.hierarchies[0]
        latencies = hier0.latencies
        frontend_delay = cfg.frontend_stages + latencies.l1i

        def zeros(*shape):
            return np.zeros(shape, dtype=np.int64)

        pool_widths = (
            cfg.int_alu_units, cfg.int_mul_units, cfg.fp_alu_units, cfg.fp_mul_units,
        )
        v = zeros(n_lanes)  # last_commit * W + commit_slots
        arrays = {
            "P_REG": zeros(REG_FILE_SLOTS, n_lanes),
            "P_ROB": zeros(cfg.rob_entries, n_lanes),  # scaled dispatch bounds
            "P_IQINT": zeros(cfg.iq_int_entries, n_lanes),
            "P_IQFP": zeros(cfg.iq_fp_entries, n_lanes),
            "P_PORTS": zeros(n_lanes, cfg.issue_width),
            "P_DYN": np.full(n_lanes, frontend_delay * w, dtype=np.int64),
            "P_FETCHBASE": zeros(n_lanes),
            "P_V": v,
            "P_L2TAGS": lanes.l2.tags,
            "P_L2LAST": lanes.l2.last,
            "P_L2FILLT": lanes.l2.fillt,
        }
        for j, width in enumerate(pool_widths):
            arrays[f"P_POOL{j}"] = zeros(n_lanes, width)
        arrays.update(zip(
            ("P_CLS", "P_SRC1", "P_SRC2", "P_DEST", "P_ROBCOL", "P_IQCOL",
             "P_DBLOCKS"),
            lane_columns(trace, cfg, hier0.l1d.geometry.offset_bits),
        ))
        arrays.update(zip(
            ("P_SPS", "P_IAIDX", "P_IALINES", "P_RDIDX", "P_RDSNEXT"),
            schedule_columns(schedule),
        ))

        ctx = np.zeros(lane_kernel.CTX_SLOTS, dtype=np.int64)
        l2 = lanes.l2
        for name, value in (
            ("N", len(trace)), ("NLANES", n_lanes),
            ("WSCALE", w), ("WM1", w - 1), ("WPOW2", int(w & (w - 1) == 0)),
            ("FDELAY", frontend_delay), ("KSTAMP", lanes.stamp_base),
            ("DHIT", (latencies.l1d - 1) * w), ("NPORTS", cfg.issue_width),
            ("L2WAYS", l2.ways), ("L2STRIDE", l2.n),
            ("L2SETMASK", l2.set_mask), ("L2IDXBITS", l2.tag_shift),
            ("CUR_SP", lane_kernel.CUR_SP_INVALID), ("BOUNDARY", boundary),
        ):
            ctx[C[name]] = value
        for cls in InstrClass:
            ctx[C["EXECLAT"] + cls] = (EXECUTION_LATENCY[cls] - 1) * w
            ctx[C["FUOF"] + cls] = FU_OF_CLASS[cls]
        for j, width in enumerate(pool_widths):
            ctx[C["POOLW"] + j] = width
        for side, port in (("I", lanes.iport), ("D", lanes.dport)):
            l1, victims = port.l1, port.victims
            fields = {
                "WAYS": l1.ways, "STRIDE": l1.n,
                "SETMASK": l1.set_mask, "IDXBITS": l1.tag_shift,
                "VLAT": port.latency[0], "L2LAT": port.latency[1],
                "MEMLAT": port.latency[2],
                "P_TAGS": l1.tags.ctypes.data, "P_LAST": l1.last.ctypes.data,
                "P_DIRTY": l1.dirty.ctypes.data,
                "P_FILLT": l1.fillt.ctypes.data,
                "P_CNT": port.counts.ctypes.data,
            }
            if victims is not None:  # else VENTRIES 0: no victim slots
                fields.update(
                    VENTRIES=victims.entries,
                    VSTRIDE=victims.entries,
                    VEMPTY=victims.empty_stamp,
                    P_VTAGS=victims.tags.ctypes.data,
                    P_VSTAMP=victims.stamp.ctypes.data,
                    P_VINS=(
                        0 if victims.insertable is None
                        else victims.insertable.ctypes.data
                    ),
                )
            for name, value in fields.items():
                ctx[C[f"{side}_{name}"]] = value
        for name, arr in arrays.items():
            ctx[C[name]] = arr.ctypes.data
        return ctx, v, list(arrays.values())

    @staticmethod
    def _run_lanes(
        pipelines: "Sequence[OutOfOrderPipeline]",
        trace: Trace,
        measure_from: int,
    ) -> list[SimResult]:
        """Drive every pipeline as one lane of a C lane-kernel pass.

        The kernel tracks every timing quantity *scaled by the commit
        width W* (dispatch, ready, issue, completion all stay multiples
        of W), and commit state per lane is ``v = last_commit * W +
        commit_slots``: the three-way commit branch collapses to ``v' =
        max(v, comp_scaled) + 1``, algebraically identical to the object
        loop's rule for ``slots`` in ``1..W``.  Cache recency uses the
        bulk engine's trace-static stamps (see :mod:`repro.cache.engine`),
        so no per-lane clocks are maintained.  The kernel returns to
        Python only at the warmup boundary (cycle-base snapshot, counter
        reset) and at trace end; cycle counts are recovered as ``(v - 1)
        // W``.
        """
        cfg = pipelines[0].config
        hier0 = pipelines[0].hierarchy
        n = len(trace)
        if not 0 <= measure_from < n:
            raise ValueError(
                f"measure_from must be in [0, {n}), got {measure_from}"
            )
        # Looked up at call time, like every caller of load(): a wrapper
        # installed on the module (a profiler's, say) sees each call.
        # Callers reach here only through a non-None batch_key().
        kernel = lane_kernel.load()
        w = cfg.commit_width
        schedule = frontend_schedule(
            trace, cfg, hier0.l1i.geometry.offset_bits, measure_from
        )
        lanes = BulkLanes([p.hierarchy for p in pipelines], lat_scale=w)
        ctx, v, _keepalive = OutOfOrderPipeline._kernel_context(
            trace, schedule, cfg, lanes, measure_from if measure_from > 0 else -1
        )
        cycles_base = 0
        kernel(ctx.ctypes.data)
        if ctx[lane_kernel.CTX["RET"]] == lane_kernel.RET_BOUNDARY:
            cycles_base = (v - 1) // w
            lanes.mark_boundary()
            ctx[lane_kernel.CTX["BOUNDARY"]] = -1
            kernel(ctx.ctypes.data)

        # Derive per-lane statistics from the counters and write state +
        # stats back to the object hierarchies.
        lanes.finalize(
            schedule.iaccess_measured,
            schedule.daccess_measured,
            clock=lanes.stamp_base + 2 * n,
        )
        cycles = ((v - 1) // w - cycles_base).tolist()
        mispredictions = (
            schedule.gshare_mispredictions + schedule.ras_mispredictions
        )
        predictions = schedule.gshare_predictions + schedule.ras_pops
        results = []
        for lane, p in enumerate(pipelines):
            p._runs += 1
            schedule.install(p.gshare, p.ras, p.line_predictor)
            results.append(
                SimResult(
                    benchmark=trace.name,
                    instructions=n - measure_from,
                    cycles=cycles[lane],
                    branch_mispredictions=mispredictions,
                    branch_predictions=predictions,
                    hierarchy_stats=p.hierarchy.stats().snapshot(),
                )
            )
        return results
