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
``run`` drives the memory hierarchy through one of two engines:

* ``"fused"`` (default) — the hierarchy is compiled into a
  :class:`~repro.cache.engine.FusedHierarchy` of flat-array state; L1 hits
  are probed *inline in the pipeline loop* (a slice membership test, no
  call frames) and misses take a single closure call.  Statistics and
  cache contents are synced back to the object hierarchy after the run.
* ``"object"`` — the original ``MemoryHierarchy.access_*`` call chain;
  kept as the verification baseline the fused engine is cross-checked
  against (``tests/integration/test_golden_sim.py`` pins both paths to
  the same golden cycle counts and statistics).

Both engines are bit-identical in cycles and every reported statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapreplace
from typing import Sequence

import numpy as np

from repro.cache.engine import BulkLanes, FusedHierarchy, bulk_signature
from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu import lane_kernel
from repro.cpu.branch import GsharePredictor, LinePredictor, ReturnAddressStack
from repro.cpu.config import PipelineConfig
from repro.cpu.frontend import (
    REG_FILE_SLOTS,
    dcache_columns,
    frontend_schedule,
    operand_columns,
    structural_columns,
)
from repro.cpu.isa import EXECUTION_LATENCY, InstrClass
from repro.cpu.trace import Trace

#: Valid ``engine`` arguments to :class:`OutOfOrderPipeline`.
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

    ``engine`` selects the memory-hierarchy execution engine (see module
    docstring); the object hierarchy remains the source of truth between
    runs either way.
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

    def _can_run_fast(self, fused: FusedHierarchy) -> bool:
        """Whether the schedule-driven fast loop applies: first run of this
        pipeline (the schedule replays predictors from their pristine
        construction state), Table II scan widths (the loop unrolls them),
        no prefetchers (they hook demand *hits*, which the fast loop
        services inline), and a positive front-end depth (the fast loop
        drops occupancy guards that rely on dispatch cycles being >= 1)."""
        cfg = self.config
        return (
            self._runs == 0
            and fused.iport.can_inline_hits
            and fused.dport.can_inline_hits
            and cfg.issue_width == 6
            and cfg.int_alu_units == 4
            and cfg.int_mul_units == 4
            and cfg.fp_alu_units == 1
            and cfg.fp_mul_units == 1
            and cfg.frontend_stages + self.hierarchy.latencies.l1i >= 1
        )

    def _reset_measurement_state(self, fused: FusedHierarchy | None) -> None:
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
        if fused is not None:
            fused.reset_stats()
            return
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
        measures everything (cold start)."""
        cfg = self.config
        hier = self.hierarchy

        n = len(trace)
        if not 0 <= measure_from < max(n, 1):
            raise ValueError(
                f"measure_from must be in [0, {n}), got {measure_from}"
            )
        if n == 0:
            return SimResult(trace.name, 0, 0, 0, 0, hier.stats().snapshot())

        # Compile the hierarchy fresh each run: the object model is
        # authoritative between runs (sync() below writes the flat state
        # back), so external mutation of the caches stays visible.
        fused: FusedHierarchy | None = None
        if self.engine == "fused":
            fused = FusedHierarchy(hier)
            if self._can_run_fast(fused):
                self._runs += 1
                return self._run_fast(trace, measure_from, fused)
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
        l1d_lat = hier.latencies.l1d
        frontend_delay = cfg.frontend_stages + l1i_lat

        # Engine binding.  With the fused engine and no prefetcher on a
        # port, the L1 *hit* path is inlined right here in the loop: the
        # residency dict, recency list, and counters are bound to locals,
        # and only misses leave the frame (one closure call).  A prefetcher
        # hooks demand hits, so ports with one fall back to the fused
        # access closure; the object engine uses the original method chain.
        i_inline = d_inline = False
        if fused is not None:
            access_inst = fused.iport.access
            access_data = fused.dport.access
            if fused.iport.can_inline_hits:
                i_inline = True
                i_state = fused._l1i
                i_res = i_state.resident
                i_last = i_state.last_touch
                i_clk = i_state.clock
                i_cnt = i_state.counters
                i_miss = fused.iport.miss
            if fused.dport.can_inline_hits:
                d_inline = True
                d_state = fused._l1d
                d_res = d_state.resident
                d_last = d_state.last_touch
                d_dirty = d_state.dirty
                d_clk = d_state.clock
                d_cnt = d_state.counters
                d_miss = fused.dport.miss
        else:
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
                self._reset_measurement_state(fused)
            pc = pcs[i]
            cls = classes[i]

            # ---- fetch -------------------------------------------------------
            line = pc >> i_shift
            if line != cur_line:
                cur_line = line
                if i_inline:
                    c = i_clk[0] + 1
                    i_clk[0] = c
                    i_cnt[0] += 1  # accesses
                    index = i_res.get(line)
                    if index is not None:
                        i_cnt[1] += 1  # hits: latency == l1i_lat, no stall
                        i_last[index] = c
                    else:
                        i_cnt[2] += 1  # misses
                        lat = i_miss(line, False)
                        fetch_cycle += lat - l1i_lat  # miss stall cycles
                else:
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
                block = mem_addrs[i] >> d_shift
                if d_inline:
                    c = d_clk[0] + 1
                    d_clk[0] = c
                    d_cnt[0] += 1
                    index = d_res.get(block)
                    if index is not None:
                        d_cnt[1] += 1
                        d_last[index] = c
                        comp = start + l1d_lat
                    else:
                        d_cnt[2] += 1
                        comp = start + d_miss(block, False)
                else:
                    comp = start + access_data(block, False)
            elif cls == STORE:
                block = mem_addrs[i] >> d_shift
                if d_inline:
                    c = d_clk[0] + 1
                    d_clk[0] = c
                    d_cnt[0] += 1
                    index = d_res.get(block)
                    if index is not None:
                        d_cnt[1] += 1
                        d_last[index] = c
                        d_dirty[index] = True
                    else:
                        d_cnt[2] += 1
                        d_miss(block, True)
                else:
                    access_data(block, True)
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

        if fused is not None:
            fused.sync()
        return SimResult(
            benchmark=trace.name,
            instructions=n - measure_from,
            cycles=last_commit - cycles_base,
            branch_mispredictions=self.gshare.mispredictions
            + self.ras.mispredictions,
            branch_predictions=self.gshare.predictions + self.ras.pops,
            hierarchy_stats=hier.stats().snapshot(),
        )

    def _run_fast(
        self, trace: Trace, measure_from: int, fused: FusedHierarchy
    ) -> SimResult:
        """Schedule-driven hot loop (see module docstring).

        The front end (predictors, fetch grouping) is precomputed per
        trace by :func:`~repro.cpu.frontend.frontend_schedule`; the loop
        consumes it as one zipped static-fetch column plus two sparse
        event streams (I-cache access points, misprediction redirects).
        Combined with the inlined flat-state L1 probes this leaves only
        the genuinely dynamic work — dependences, structural hazards,
        cache state, commit — in the per-instruction path.  Results are
        bit-identical to the generic loop (golden-pinned).
        """
        cfg = self.config
        hier = self.hierarchy
        n = len(trace)

        classes = trace.iclass
        mem_addrs = trace.mem_addr
        src1s, src2s, dests = operand_columns(trace)

        i_shift = hier.l1i.geometry.offset_bits
        d_shift = hier.l1d.geometry.offset_bits
        l1i_lat = hier.latencies.l1i
        l1d_lat = hier.latencies.l1d
        frontend_delay = cfg.frontend_stages + l1i_lat

        schedule = frontend_schedule(trace, cfg, i_shift, measure_from)
        sps = schedule.static_fetch_list
        ia_indices = schedule.iaccess_index
        ia_lines = schedule.iaccess_line
        rd_indices = schedule.redirect_index
        rd_static_next = schedule.redirect_static_next
        rob_col, iq_col = structural_columns(
            trace, cfg.rob_entries, cfg.iq_int_entries, cfg.iq_fp_entries
        )

        i_state = fused._l1i
        i_res = i_state.resident
        i_last = i_state.last_touch
        i_clk = i_state.clock
        i_cnt = i_state.counters
        i_miss = fused.iport.miss

        d_state = fused._l1d
        d_res = d_state.resident
        d_last = d_state.last_touch
        d_dirty = d_state.dirty
        d_clk = d_state.clock
        d_cnt = d_state.counters
        d_miss = fused.dport.miss

        exec_lat = tuple(EXECUTION_LATENCY[InstrClass(c)] for c in range(9))
        # FU pools and issue ports are earliest-free multisets: each issue
        # replaces one minimum with start+1, and only the minimum is ever
        # observed — heapreplace (C) is multiset-equivalent to the generic
        # loop's argmin scan, so timing stays bit-identical.
        int_alu = [0] * 4
        int_mul = [0] * 4
        fp_alu = [0]
        fp_mul = [0]
        ports = [0] * 6
        heap_replace = heapreplace

        # Slots 64/65 are the read/write sentinels of operand_columns():
        # 64 stays pinned at zero (a "no register" source is always ready),
        # 65 swallows the writes of destination-less instructions.
        reg_ready = [0] * REG_FILE_SLOTS

        rob_size = cfg.rob_entries
        rob_ring = [0] * rob_size

        int_iq = [0] * cfg.iq_int_entries
        fp_iq = [0] * cfg.iq_fp_entries

        # fetch_cycle = dyn - frontend_delay + static_fetch[i]; dispatch =
        # dyn + static_fetch[i].  dyn absorbs I-miss stalls (additive) and
        # redirect maxes.  The ring-occupancy guards of the generic loop
        # (i >= rob_size, count >= iq_len) are dropped: rings start at 0
        # and dispatch is always >= frontend_delay >= 1, so unwritten
        # entries can never bind.
        dyn = frontend_delay
        ia_cursor = 0
        next_ia = ia_indices[0]
        rd_cursor = 0
        next_rd = rd_indices[0]

        last_commit = 0
        commit_slots = 0
        commit_width = cfg.commit_width
        cycles_base = 0
        boundary = measure_from if measure_from > 0 else -1
        # One pre-dispatch event check covers both the (rare) measurement
        # boundary and the precomputed I-cache access points.
        next_pre = next_ia if boundary < 0 or next_ia < boundary else boundary

        # Local mirrors of the L1 clocks: hits touch only locals; the cells
        # are synchronised around each miss-closure call (fills bump them).
        i_clock = i_clk[0]
        d_clock = d_clk[0]

        for i, (cls, sp, r1, r2, rd, rs, slot) in enumerate(
            zip(classes, sps, src1s, src2s, dests, rob_col, iq_col)
        ):
            if i == next_pre:
                if i == boundary:
                    cycles_base = last_commit
                    self._reset_measurement_state(fused)
                    boundary = -1
                if i == next_ia:
                    # ---- I-cache access point (precomputed line change) ---
                    line = ia_lines[ia_cursor]
                    ia_cursor += 1
                    next_ia = ia_indices[ia_cursor]
                    i_clock += 1
                    index = i_res.get(line)
                    if index is not None:
                        i_last[index] = i_clock
                    else:
                        i_cnt[2] += 1  # hits/accesses reconstructed at end
                        i_clk[0] = i_clock
                        dyn += i_miss(line, False) - l1i_lat
                        i_clock = i_clk[0]
                next_pre = next_ia if boundary < 0 or next_ia < boundary else boundary

            disp = dyn + sp

            # ---- dispatch: ROB and issue queues ---------------------------
            freed = rob_ring[rs] + 1
            if freed > disp:
                disp = freed
            if cls == 2 or cls == 3:  # FP_ALU / FP_MUL
                t = fp_iq[slot]
                if t > disp:
                    disp = t
                ready = disp
                t = reg_ready[r1]
                if t > ready:
                    ready = t
                t = reg_ready[r2]
                if t > ready:
                    ready = t
                units = fp_alu if cls == 2 else fp_mul
                t = units[0]
                start = ready if ready > t else t
                t = ports[0]
                if t > start:
                    start = t
                issued = start + 1
                units[0] = issued  # fully pipelined units
                heap_replace(ports, issued)
                fp_iq[slot] = issued  # IQ entry frees at issue
            else:
                t = int_iq[slot]
                if t > disp:
                    disp = t
                ready = disp
                t = reg_ready[r1]
                if t > ready:
                    ready = t
                t = reg_ready[r2]
                if t > ready:
                    ready = t
                units = int_mul if cls == 1 else int_alu
                t = units[0]
                start = ready if ready > t else t
                t = ports[0]
                if t > start:
                    start = t
                issued = start + 1
                heap_replace(units, issued)  # fully pipelined units
                heap_replace(ports, issued)
                int_iq[slot] = issued  # IQ entry frees at issue

            # ---- execute / complete (inline residency probes) -------------
            if cls == 4:  # LOAD
                block = mem_addrs[i] >> d_shift
                d_clock += 1
                index = d_res.get(block)
                if index is not None:
                    d_last[index] = d_clock
                    comp = start + l1d_lat
                else:
                    d_cnt[2] += 1  # hits/accesses reconstructed at end
                    d_clk[0] = d_clock
                    comp = start + d_miss(block, False)
                    d_clock = d_clk[0]
            elif cls == 5:  # STORE
                block = mem_addrs[i] >> d_shift
                d_clock += 1
                index = d_res.get(block)
                if index is not None:
                    d_last[index] = d_clock
                    d_dirty[index] = True
                else:
                    d_cnt[2] += 1
                    d_clk[0] = d_clock
                    d_miss(block, True)
                    d_clock = d_clk[0]
                comp = start + 1  # retires via the store buffer
            else:
                comp = start + exec_lat[cls]

            reg_ready[rd] = comp  # destination-less writes hit the sink slot

            # ---- commit: in-order, bounded width --------------------------
            if comp > last_commit:
                last_commit = comp
                commit_slots = 1
            elif commit_slots >= commit_width:
                last_commit += 1
                commit_slots = 1
            else:
                commit_slots += 1
            rob_ring[rs] = last_commit

            # ---- misprediction redirects (precomputed points) -------------
            if i == next_rd:
                rd_cursor += 1
                next_rd = rd_indices[rd_cursor]
                rebased = comp + 1 + frontend_delay - rd_static_next[rd_cursor - 1]
                if rebased > dyn:
                    dyn = rebased

        # Reconstruct the counters the hot paths skipped: accesses are
        # trace-static (from the schedule) and hits = accesses - misses.
        i_clk[0] = i_clock
        d_clk[0] = d_clock
        i_cnt[0] = schedule.iaccess_measured
        i_cnt[1] = i_cnt[0] - i_cnt[2]
        d_cnt[0] = schedule.daccess_measured
        d_cnt[1] = d_cnt[0] - d_cnt[2]
        fused.sync()
        schedule.install(self.gshare, self.ras, self.line_predictor)
        return SimResult(
            benchmark=trace.name,
            instructions=n - measure_from,
            cycles=last_commit - cycles_base,
            branch_mispredictions=schedule.gshare_mispredictions
            + schedule.ras_mispredictions,
            branch_predictions=schedule.gshare_predictions + schedule.ras_pops,
            hierarchy_stats=hier.stats().snapshot(),
        )

    # ----- lane-batched execution ------------------------------------------

    def batch_key(self) -> "tuple | None":
        """Hashable lane-compatibility signature, or ``None`` when this
        pipeline cannot join any vectorised batch.

        Pipelines with equal non-``None`` keys may be driven over one
        trace as lanes of a single :meth:`run_batch` pass — even when
        their *configurations* differ (mixed schemes, mixed fault maps,
        the fault-free normalisation baseline): lane state is fully
        per-lane; only the structure the key captures must agree.  The
        key requires a fresh fused pipeline (the schedule replays
        predictors from their pristine construction state), a positive
        front-end depth (occupancy guards are dropped exactly as in the
        scalar fast loop), no prefetchers (they hook demand hits, which
        the batched loop services vectorised), and folds in the shared
        pipeline config, the latency set, the per-level geometries, and
        the bulk engine's own coverage signature (LRU replacement,
        fully-enabled L2 — see
        :func:`repro.cache.engine.bulk_signature`; victim *sizings* may
        differ per lane, padded by the vector engine).  The mega-batch
        planner groups campaign work items by this key.
        """
        h = self.hierarchy
        if self.engine != "fused" or self._runs != 0:
            return None
        if self.config.frontend_stages + h.latencies.l1i < 1:
            return None
        if h.iport.prefetcher is not None or h.dport.prefetcher is not None:
            return None
        bulk = bulk_signature(h)
        if bulk is None:
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
        """Whether the lane-batched loop applies: every pipeline carries
        the same non-``None`` :meth:`batch_key` (contents — fault maps,
        resident blocks, recency — may still differ per lane)."""
        key = pipelines[0].batch_key()
        if key is None:
            return False
        return all(p.batch_key() == key for p in pipelines[1:])

    @staticmethod
    def run_batch(
        pipelines: "Sequence[OutOfOrderPipeline]",
        trace: Trace,
        measure_from: int = 0,
        min_lanes: int = 2,
    ) -> list[SimResult]:
        """Simulate N lanes — one pipeline per fault map — in a single
        pass over the shared front-end schedule.

        Per-lane state (flat cache tags/recency, victim entries,
        ROB/IQ/FU occupancy, statistics) lives in NumPy arrays with a
        lane axis; the per-instruction timing recurrence is evaluated for
        every lane at once, L1 probes are one vectorised set comparison,
        and miss *events* (usually shared by many lanes) are serviced
        with lane-masked vector operations.  Results are bit-identical to
        running each pipeline sequentially (golden-pinned).

        Lanes need not share a *configuration*: any pipelines with equal
        non-``None`` :meth:`batch_key` signatures batch together (mixed
        schemes, mixed victim contents *and sizings* — 0/8/16-entry
        lanes pad to one slot axis — fault-free baselines).  Batches
        the vectorised path cannot take — mixed latencies/geometries,
        prefetchers, non-LRU policies, reused pipelines, fewer than
        ``min_lanes`` lanes — fall back to sequential runs
        transparently.
        """
        pipelines = list(pipelines)
        if not pipelines:
            return []
        if (
            len(pipelines) < min_lanes
            or len(trace) == 0
            or not OutOfOrderPipeline._can_run_batch(pipelines)
        ):
            return [p.run(trace, measure_from) for p in pipelines]
        return OutOfOrderPipeline._run_lanes(pipelines, trace, measure_from)

    @staticmethod
    def _kernel_context(trace, cfg, lanes, env):
        """Pack the lane-batched loop's state for the compiled C kernel.

        Returns ``(ctx, keepalive)``: the ``int64`` context array holding
        every scalar, cursor, and raw array address the kernel reads (see
        :mod:`repro.cpu.lane_kernel` for the layout), plus the list of
        freshly-created arrays whose addresses it contains — the caller
        must keep that list alive for the duration of the run.  ``env``
        is :meth:`_run_lanes`'s local namespace (the arrays are shared,
        not copied: the kernel mutates the bulk engine's cache state and
        counters in place).  Per-trace columns are converted to int64
        arrays once and memoised on the trace object.
        """
        C = lane_kernel.CTX

        def i64(x):
            return np.ascontiguousarray(np.asarray(x, dtype=np.int64))

        key = (
            cfg.rob_entries, cfg.iq_int_entries, cfg.iq_fp_entries,
            env["d_shift"],
        )
        cache = trace.__dict__.setdefault("_kernel_columns_i64", {})
        cols = cache.get(key)
        if cols is None:
            cols = tuple(
                i64(c)
                for c in (
                    trace.iclass, env["src1s"], env["src2s"], env["dests"],
                    env["rob_col"], env["iq_col"], env["d_blocks"],
                )
            )
            cache[key] = cols
        cls_a, src1_a, src2_a, dest_a, robcol_a, iqcol_a, dblock_a = cols

        # Sparse per-schedule columns are small (one entry per I-access /
        # redirect); converting per call keeps the cache simple.
        keepalive = [
            i64(env["sps"]), i64(env["ia_indices"]), i64(env["ia_lines"]),
            i64(env["rd_indices"]), i64(env["rd_static_next"]),
        ]
        sps_a, iaidx_a, ialine_a, rdidx_a, rdnext_a = keepalive

        ctx = np.zeros(lane_kernel.CTX_SLOTS, dtype=np.int64)
        commit_width = cfg.commit_width
        l2 = lanes.l2
        for name, value in (
            ("N", len(trace)), ("NLANES", env["n_lanes"]),
            ("WSCALE", commit_width), ("WM1", commit_width - 1),
            ("WPOW2", int(env["w_pow2"])), ("FDELAY", env["frontend_delay"]),
            ("KSTAMP", env["K"]), ("DHIT", env["d_hit_adder"]),
            ("NPORTS", cfg.issue_width),
            ("L2WAYS", l2.ways), ("L2STRIDE", l2.n + 1),
            ("L2SETMASK", l2.set_mask), ("L2IDXBITS", l2.tag_shift),
            ("CUR_SP", lane_kernel.CUR_SP_INVALID),
            ("BOUNDARY", env["boundary"]),
        ):
            ctx[C[name]] = value
        for j, lat in enumerate(env["exec_lat"]):
            ctx[C["EXECLAT"] + j] = (lat - 1) * commit_width
        for j, fu in enumerate(env["fu_of"]):
            ctx[C["FUOF"] + j] = fu
        for j, pool in enumerate(env["pools"]):
            ctx[C["POOLW"] + j] = pool.shape[1]
            ctx[C[f"P_POOL{j}"]] = pool.ctypes.data
        for side, port in (("I", lanes.iport), ("D", lanes.dport)):
            l1, victims = port.l1, port.victims
            fields = {
                "WAYS": l1.ways, "STRIDE": l1.n + 1,
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
                    VSTRIDE=victims.entries + 1,
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
        for name, arr in (
            ("P_CLS", cls_a), ("P_SPS", sps_a), ("P_SRC1", src1_a),
            ("P_SRC2", src2_a), ("P_DEST", dest_a), ("P_ROBCOL", robcol_a),
            ("P_IQCOL", iqcol_a), ("P_DBLOCKS", dblock_a),
            ("P_IAIDX", iaidx_a), ("P_IALINES", ialine_a),
            ("P_RDIDX", rdidx_a), ("P_RDSNEXT", rdnext_a),
            ("P_REG", env["reg_ready"]), ("P_ROB", env["rob_ring"]),
            ("P_IQINT", env["int_iq"]), ("P_IQFP", env["fp_iq"]),
            ("P_PORTS", env["ports"]), ("P_DYN", env["dyn"]),
            ("P_FETCHBASE", env["fetch_base"]), ("P_V", env["v"]),
            ("P_L2TAGS", l2.tags), ("P_L2LAST", l2.last),
            ("P_L2FILLT", l2.fillt),
        ):
            ctx[C[name]] = arr.ctypes.data
        return ctx, keepalive

    @staticmethod
    def _run_lanes(
        pipelines: "Sequence[OutOfOrderPipeline]",
        trace: Trace,
        measure_from: int,
    ) -> list[SimResult]:
        """Vectorised multi-lane mirror of :meth:`_run_fast`.

        Every timing quantity is tracked *scaled by the commit width W*
        (dispatch, ready, issue, completion all stay multiples of W), and
        commit state per lane is ``v = last_commit * W + commit_slots``.
        The three-way commit branch then collapses to ``v' = max(v,
        comp_scaled) + 1`` — algebraically identical to the scalar rule
        for ``slots`` in ``1..W`` — and the ROB ring stores the scaled
        dispatch bound ``(last_commit + 1) * W`` directly, computed from
        the pre-increment ``v`` as ``(v | (W-1)) + 1`` when W is a power
        of two (one OR against the max instead of a divide chain).
        FU pools and issue ports are earliest-free multisets updated by
        argmin-replace (multiset-equivalent to the scalar loop's
        heapreplace).  Cache recency uses the bulk engine's trace-static
        stamps (see :mod:`repro.cache.engine`), so no per-lane clocks are
        maintained.  Cycle counts are recovered once at the end as
        ``(v - 1) // W``.
        """
        cfg = pipelines[0].config
        hier0 = pipelines[0].hierarchy
        n = len(trace)
        n_lanes = len(pipelines)
        if not 0 <= measure_from < n:
            raise ValueError(
                f"measure_from must be in [0, {n}), got {measure_from}"
            )

        i_shift = hier0.l1i.geometry.offset_bits
        d_shift = hier0.l1d.geometry.offset_bits
        l1i_lat = hier0.latencies.l1i
        l1d_lat = hier0.latencies.l1d
        frontend_delay = cfg.frontend_stages + l1i_lat

        schedule = frontend_schedule(trace, cfg, i_shift, measure_from)
        sps = schedule.static_fetch_list
        ia_indices = schedule.iaccess_index
        rd_indices = schedule.redirect_index
        rd_static_next = schedule.redirect_static_next
        classes = trace.iclass
        src1s, src2s, dests = operand_columns(trace)
        rob_col, iq_col = structural_columns(
            trace, cfg.rob_entries, cfg.iq_int_entries, cfg.iq_fp_entries
        )
        d_geom = hier0.l1d.geometry
        l2_geom = hier0.l2.geometry
        d_blocks, d_sets, d_bases, d_tagcol = dcache_columns(
            trace, d_shift, d_geom.index_bits, d_geom.ways
        )
        _, _, d2_bases, d2_tagcol = dcache_columns(
            trace, d_shift, l2_geom.index_bits, l2_geom.ways
        )
        # I-cache access points: (set, base, tag) per point, both levels.
        i_geom = hier0.l1i.geometry
        ia_lines = schedule.iaccess_line
        _lines = np.asarray(ia_lines, dtype=np.int64)
        _sets = _lines & (i_geom.num_sets - 1)
        ia_sets = _sets.tolist()
        ia_bases = (_sets * i_geom.ways).tolist()
        ia_tags = (_lines >> i_geom.index_bits).tolist()
        ia2_bases = ((_lines & (l2_geom.num_sets - 1)) * l2_geom.ways).tolist()
        ia2_tags = (_lines >> l2_geom.index_bits).tolist()

        commit_width = cfg.commit_width
        lanes = BulkLanes([p.hierarchy for p in pipelines], lat_scale=commit_width)
        i_tags2d = lanes.l1i.tags
        i_last2d = lanes.l1i.last
        i_ways = lanes.l1i.ways
        d_tags2d = lanes.l1d.tags
        d_last2d = lanes.l1d.last
        d_dirty2d = lanes.l1d.dirty
        d_ways = lanes.l1d.ways
        service_i = lanes.iport.service
        service_d = lanes.dport.service
        K = lanes.stamp_base

        exec_lat = tuple(EXECUTION_LATENCY[InstrClass(c)] for c in range(9))
        fu_of = (0, 1, 2, 3, 0, 0, 0, 0, 0)

        I64 = np.int64
        reg_ready = np.zeros((REG_FILE_SLOTS, n_lanes), I64)
        rob_ring = np.zeros((cfg.rob_entries, n_lanes), I64)  # stores v
        int_iq = np.zeros((cfg.iq_int_entries, n_lanes), I64)
        fp_iq = np.zeros((cfg.iq_fp_entries, n_lanes), I64)
        # Row views are reused thousands of times; list indexing beats
        # re-deriving an ndarray view every instruction.
        reg_rows = [reg_ready[j] for j in range(REG_FILE_SLOTS)]
        rob_rows = [rob_ring[j] for j in range(cfg.rob_entries)]
        int_iq_rows = [int_iq[j] for j in range(cfg.iq_int_entries)]
        fp_iq_rows = [fp_iq[j] for j in range(cfg.iq_fp_entries)]
        ar = np.arange(n_lanes)
        pools = []
        pool_flat = []
        pool_aridx = []
        pool_single = []
        for width in (
            cfg.int_alu_units,
            cfg.int_mul_units,
            cfg.fp_alu_units,
            cfg.fp_mul_units,
        ):
            arr = np.zeros((n_lanes, width), I64)
            pools.append(arr)
            pool_flat.append(arr.reshape(-1))
            pool_aridx.append(ar * width)
            pool_single.append(arr[:, 0] if width == 1 else None)
        n_ports = cfg.issue_width
        ports = np.zeros((n_lanes, n_ports), I64)
        ports_flat = ports.reshape(-1)
        ports_ar = ar * n_ports
        ports_single = ports[:, 0] if n_ports == 1 else None

        dyn = np.full(n_lanes, frontend_delay * commit_width, I64)
        fetch_base = np.empty(n_lanes, I64)
        cur_sp = None
        v = np.zeros(n_lanes, I64)  # last_commit * W + commit_slots
        cycles_base = np.zeros(n_lanes, I64)
        disp = np.empty(n_lanes, I64)
        issued = np.empty(n_lanes, I64)
        comp = np.empty(n_lanes, I64)
        t = np.empty(n_lanes, I64)
        tb = np.empty(n_lanes, I64)
        idx64 = np.empty(n_lanes, I64)
        colbuf = np.empty(n_lanes, I64)
        w = commit_width  # timing scale factor (see docstring)
        eqbuf_i = np.empty((n_lanes, i_ways), np.bool_)
        eqbuf_d = np.empty((n_lanes, d_ways), np.bool_)
        d_hit_adder = (l1d_lat - 1) * commit_width

        ia_cursor = 0
        next_ia = ia_indices[0]
        rd_cursor = 0
        next_rd = rd_indices[0]
        boundary = measure_from if measure_from > 0 else -1
        next_pre = next_ia if boundary < 0 or next_ia < boundary else boundary

        maximum = np.maximum
        add = np.add
        equal = np.equal
        count_nonzero = np.count_nonzero

        # ufuncs pay ~3x dispatch cost for Python-int operands; 0-d array
        # constants (and one mutable 0-d cell for per-access scalars) keep
        # every hot call on the fast path.
        c_one = np.array(1, I64)
        c_w = np.array(commit_width, I64)
        c_wm1 = np.array(commit_width - 1, I64)
        w_pow2 = commit_width & (commit_width - 1) == 0
        c_dhit = np.array(d_hit_adder, I64)
        c_lat = tuple(np.array((l - 1) * w, I64) for l in exec_lat)
        c_true = np.array(True)
        s_cell = np.array(0, I64)  # per-access scalar operand (base/tag/...)
        s_stamp = np.array(0, I64)  # current recency stamp (0-d copyto source)

        def mark_boundary():
            np.subtract(v, 1, out=t)
            np.floor_divide(t, commit_width, out=t)
            cycles_base[:] = t
            lanes.mark_boundary()

        kernel = lane_kernel.load()
        if kernel is not None:
            # ---- compiled path: the C kernel advances and services
            # every lane, returning early only at the warmup boundary.
            ctx, _keepalive = OutOfOrderPipeline._kernel_context(
                trace, cfg, lanes, locals()
            )
            ctx_ptr = ctx.ctypes.data
            kernel(ctx_ptr)
            if ctx[lane_kernel.CTX["RET"]] == lane_kernel.RET_BOUNDARY:
                mark_boundary()
                ctx[lane_kernel.CTX["BOUNDARY"]] = -1
                kernel(ctx_ptr)
        else:
          for i, (cls, sp, r1, r2, rd, rs, slot) in enumerate(
            zip(classes, sps, src1s, src2s, dests, rob_col, iq_col)
          ):
            if i == next_pre:
                if i == boundary:
                    mark_boundary()
                    boundary = -1
                if i == next_ia:
                    # ---- I-cache access point (precomputed line change) ---
                    line = ia_lines[ia_cursor]
                    s = ia_sets[ia_cursor]
                    base = ia_bases[ia_cursor]
                    tag = ia_tags[ia_cursor]
                    base2 = ia2_bases[ia_cursor]
                    tag2 = ia2_tags[ia_cursor]
                    ia_cursor += 1
                    next_ia = ia_indices[ia_cursor]
                    stamp = K + 2 * i
                    s_cell[()] = tag
                    equal(i_tags2d[:, base : base + i_ways], s_cell, out=eqbuf_i)
                    cnt = count_nonzero(eqbuf_i)
                    if cnt == n_lanes:
                        s_stamp[()] = stamp
                        np.copyto(
                            i_last2d[:, base : base + i_ways],
                            s_stamp,
                            where=eqbuf_i,
                        )
                    else:
                        dyn += service_i(
                            stamp, line, base, s, base2, tag2, tag,
                            eqbuf_i, cnt, False, True,
                        )
                        cur_sp = None  # dyn moved: refresh fetch_base
                next_pre = next_ia if boundary < 0 or next_ia < boundary else boundary

            # ---- dispatch: static fetch offset, ROB, issue queues ---------
            if sp != cur_sp:
                s_cell[()] = sp * w
                add(dyn, s_cell, out=fetch_base)
                cur_sp = sp
            # rob_ring holds the scaled (last_commit + 1) * W bound
            maximum(fetch_base, rob_rows[rs], out=disp)
            iq_rows = fp_iq_rows if cls == 2 or cls == 3 else int_iq_rows
            iq_row = iq_rows[slot]
            maximum(disp, iq_row, out=disp)
            if r1 != 64:
                maximum(disp, reg_rows[r1], out=disp)
            if r2 != 64 and r2 != r1:
                maximum(disp, reg_rows[r2], out=disp)

            # ---- issue: FU and issue-port structural hazards --------------
            fu = fu_of[cls]
            urow = pool_single[fu]
            if urow is None:
                uflat = pool_flat[fu]
                add(pools[fu].argmin(1), pool_aridx[fu], out=idx64)
                uflat.take(idx64, out=tb)
                maximum(disp, tb, out=disp)
            else:
                maximum(disp, urow, out=disp)
            if ports_single is None:
                add(ports.argmin(1), ports_ar, out=colbuf)
                ports_flat.take(colbuf, out=tb)
                maximum(disp, tb, out=disp)
            else:
                maximum(disp, ports_single, out=disp)
            add(disp, c_w, out=issued)
            if urow is None:
                uflat[idx64] = issued  # fully pipelined units
            else:
                urow[:] = issued
            if ports_single is None:
                ports_flat[colbuf] = issued
            else:
                ports_single[:] = issued
            iq_row[:] = issued  # IQ entry frees at issue

            # ---- execute / complete (vectorised residency probes) ---------
            if cls == 4:  # LOAD
                base = d_bases[i]
                stamp = K + 2 * i + 1
                s_cell[()] = d_tagcol[i]
                equal(d_tags2d[:, base : base + d_ways], s_cell, out=eqbuf_d)
                cnt = count_nonzero(eqbuf_d)
                add(issued, c_dhit, out=comp)
                if cnt == n_lanes:
                    s_stamp[()] = stamp
                    np.copyto(
                        d_last2d[:, base : base + d_ways],
                        s_stamp,
                        where=eqbuf_d,
                    )
                else:
                    comp += service_d(
                        stamp, d_blocks[i], base, d_sets[i],
                        d2_bases[i], d2_tagcol[i], d_tagcol[i],
                        eqbuf_d, cnt, False, True,
                    )
                cw = comp
            elif cls == 5:  # STORE
                base = d_bases[i]
                stamp = K + 2 * i + 1
                s_cell[()] = d_tagcol[i]
                equal(d_tags2d[:, base : base + d_ways], s_cell, out=eqbuf_d)
                cnt = count_nonzero(eqbuf_d)
                if cnt == n_lanes:
                    s_stamp[()] = stamp
                    eq_t = eqbuf_d
                    np.copyto(
                        d_last2d[:, base : base + d_ways], s_stamp, where=eq_t
                    )
                    np.copyto(
                        d_dirty2d[:, base : base + d_ways], c_true, where=eq_t
                    )
                else:
                    service_d(
                        stamp, d_blocks[i], base, d_sets[i],
                        d2_bases[i], d2_tagcol[i], d_tagcol[i],
                        eqbuf_d, cnt, True, False,
                    )
                cw = issued  # retires via the store buffer
            else:
                lat = exec_lat[cls]
                if lat == 1:
                    cw = issued
                else:
                    add(issued, c_lat[cls], out=comp)
                    cw = comp

            if rd != 65:
                reg_rows[rd][:] = cw  # sentinel 65 writes are dropped

            # ---- commit: v' = max(v, comp_scaled) + 1; the ROB frees this
            # slot at (last_commit + 1) * W = (v_pre // W + 1) * W --------
            maximum(v, cw, out=v)
            if w_pow2:
                np.bitwise_or(v, c_wm1, out=t)
                add(t, c_one, out=t)
            else:
                np.floor_divide(v, c_w, out=t)
                add(t, c_one, out=t)
                np.multiply(t, c_w, out=t)
            rob_rows[rs][:] = t
            add(v, c_one, out=v)

            # ---- misprediction redirects (precomputed points) -------------
            if i == next_rd:
                rd_cursor += 1
                next_rd = rd_indices[rd_cursor]
                s_cell[()] = (
                    1 + frontend_delay - rd_static_next[rd_cursor - 1]
                ) * w
                add(cw, s_cell, out=t)
                maximum(dyn, t, out=dyn)
                cur_sp = None  # dyn moved: refresh fetch_base

        # Derive per-lane statistics from the counters and write state +
        # stats back to the object hierarchies.
        lanes.finalize(
            schedule.iaccess_measured,
            schedule.daccess_measured,
            clock=K + 2 * n,
        )

        np.subtract(v, 1, out=t)
        np.floor_divide(t, commit_width, out=t)
        cycles = (t - cycles_base).tolist()
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
