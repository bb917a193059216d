"""Tests for the one-pass out-of-order timing model.

These validate the structural limits (widths, ROB, FUs), latency
propagation through dependence chains, and the cache/branch interactions
the paper's comparisons rest on.
"""

import pytest
from trace_rows import Instruction, trace_from_rows

from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import HierarchyStats
from repro.cpu.config import PipelineConfig
from repro.cpu.isa import InstrClass
from repro.cpu.pipeline import KernelLane, OutOfOrderPipeline, SimResult, _object_columns
from repro.cpu.trace import Trace
from repro.faults import CacheGeometry
from repro.workloads.generator import generate_trace

L1 = CacheGeometry(size_bytes=32 * 1024, ways=8, block_bytes=64)
L2 = CacheGeometry(size_bytes=256 * 1024, ways=8, block_bytes=64)


def make_pipeline(
    l1_latency: int = 3, victim: int = 0, engine: str = "fused"
) -> OutOfOrderPipeline:
    lat = LatencyConfig(l1i=l1_latency, l1d=l1_latency, victim=1, l2=20, memory=100)
    hierarchy = MemoryHierarchy(
        SetAssociativeCache(L1, name="l1i"),
        SetAssociativeCache(L1, name="l1d"),
        L2,
        lat,
        victim_entries_i=victim,
        victim_entries_d=victim,
    )
    return OutOfOrderPipeline(PipelineConfig(), hierarchy, engine=engine)


def alu_trace(n: int, independent: bool = True) -> Trace:
    """ALU-only trace looping through a small code region (so compulsory
    I-cache misses amortise away, as they do in real loopy programs)."""
    rows = []
    for i in range(n):
        if independent:
            dest = 1 + i % 20
            src = 25
        else:
            dest = 1
            src = 1  # serial chain
        rows.append(
            Instruction(0x1000 + 4 * (i % 16), InstrClass.INT_ALU, src1=src, dest=dest)
        )
    return trace_from_rows(rows, name="alu")


def load_chain() -> Trace:
    """Serial dependent loads of one L1-resident address."""
    return trace_from_rows(
        (
            Instruction(
                0x1000 + 4 * (i % 16), InstrClass.LOAD, mem_addr=0x8000, src1=4, dest=4
            )
            for i in range(1000)
        ),
        name="loads",
    )


class TestStructuralLimits:
    def test_empty_trace(self):
        result = make_pipeline().run(Trace())
        assert result.cycles == 0
        assert result.instructions == 0

    @pytest.mark.parametrize("victim", [0, 8])
    def test_empty_trace_agrees_across_entry_points(self, victim):
        """run(), run_batch() over the pipeline's lane, and the object
        loop — fresh, or after a run that left its caches and counters
        busy — all return the zero-cycle result with all-zero statistics."""
        empty = Trace()
        pipeline = make_pipeline(victim=victim)
        ran = make_pipeline(victim=victim, engine="object")
        ran.run(generate_trace("gzip", 3_000, seed=2010))
        lane = KernelLane(
            pipeline.config,
            pipeline.hierarchy.latencies,
            (L1, L1, L2),
            None,
            None,
            (victim, victim),
            prefetch_degree=0,
        )
        expected = SimResult(empty.name, 0, 0, 0, 0, HierarchyStats().snapshot())
        assert pipeline.run(empty) == expected
        assert make_pipeline(victim=victim, engine="object").run(empty) == expected
        assert ran.run(empty) == expected
        assert OutOfOrderPipeline.run_batch([lane, lane], empty) == [expected] * 2
        with pytest.raises(ValueError, match="measure_from"):
            OutOfOrderPipeline.run_batch([lane], empty, measure_from=1)

    def test_a_repeated_run_counts_only_its_own_region(self):
        """Two measure_from=0 runs of one trace on one object pipeline
        each report their own instructions' accesses and predictions (the
        caches and predictors stay warm; the counters do not carry over)."""
        trace = generate_trace("gzip", 3_000, seed=2010)
        pipeline = make_pipeline(engine="object")
        first = pipeline.run(trace)
        second = pipeline.run(trace, measure_from=0)
        assert second.cycles < first.cycles  # the second run starts warm
        for result in (first, second):
            assert result.instructions == len(trace)
        assert (
            second.hierarchy_stats["l1d"]["accesses"]
            == first.hierarchy_stats["l1d"]["accesses"]
        )
        assert second.branch_predictions == first.branch_predictions

    def test_ipc_bounded_by_commit_width(self):
        result = make_pipeline().run(alu_trace(4000, independent=True))
        assert result.ipc <= 4.0 + 1e-9

    def test_independent_alus_achieve_high_ipc(self):
        result = make_pipeline().run(alu_trace(4000, independent=True))
        assert result.ipc > 2.0

    def test_serial_chain_is_ipc_one(self):
        """A fully serial dependence chain cannot exceed 1 ALU op/cycle."""
        result = make_pipeline().run(alu_trace(2000, independent=False))
        assert result.ipc == pytest.approx(1.0, abs=0.15)

    def test_fp_alu_structural_hazard(self):
        """One FP ALU (Table II): independent FP adds with 4-cycle latency
        still issue at most one per cycle."""
        trace = trace_from_rows(
            (
                Instruction(
                    0x1000 + 4 * (i % 16), InstrClass.FP_ALU, src1=57, dest=33 + i % 20
                )
                for i in range(2000)
            ),
            name="fp",
        )
        result = make_pipeline().run(trace)
        assert result.ipc <= 1.0 + 1e-9
        assert result.ipc > 0.8

    def test_int_mul_latency_chain(self):
        """Serial 7-cycle multiplies: IPC ~ 1/7."""
        trace = trace_from_rows(
            (
                Instruction(0x1000 + 4 * (i % 16), InstrClass.INT_MUL, src1=1, dest=1)
                for i in range(1000)
            ),
            name="mul",
        )
        result = make_pipeline().run(trace)
        assert result.ipc == pytest.approx(1 / 7, rel=0.2)

    def test_cycles_monotone_in_trace_length(self):
        short = make_pipeline().run(alu_trace(500))
        longer = make_pipeline().run(alu_trace(1000))
        assert longer.cycles > short.cycles


class TestMemoryBehaviour:
    def test_load_chain_pays_l1_latency(self):
        """Serial dependent loads that hit in L1 cost ~l1_latency each."""
        trace = load_chain()
        result = make_pipeline(l1_latency=3).run(trace)
        assert result.ipc == pytest.approx(1 / 3, rel=0.2)

    def test_extra_l1_cycle_slows_load_chains(self):
        """The word-disable +1 L1 cycle must show up in load-to-use chains
        (4-cycle vs 3-cycle serial loads)."""
        trace = load_chain()
        fast = make_pipeline(l1_latency=3).run(trace)
        slow = make_pipeline(l1_latency=4).run(trace)
        assert slow.cycles / fast.cycles == pytest.approx(4 / 3, rel=0.1)

    def test_independent_misses_overlap(self):
        """Memory-level parallelism: independent misses to distinct blocks
        overlap, so total cycles are far below misses x memory latency."""
        trace = trace_from_rows(
            (
                Instruction(
                    0x1000 + 4 * (i % 16),
                    InstrClass.LOAD,
                    mem_addr=0x100000 + i * 4096,
                    src1=25,
                    dest=1 + i % 20,
                )
                for i in range(512)
            ),
            name="mlp",
        )
        result = make_pipeline().run(trace)
        assert result.cycles < 512 * 100 / 4

    def test_store_does_not_stall_chain(self):
        """Stores retire via the store buffer; a store between ALU ops must
        not inject memory latency into the chain."""
        rows = []
        for i in range(500):
            rows.append(Instruction(0x1000 + 8 * (i % 8), InstrClass.INT_ALU, src1=1, dest=1))
            rows.append(
                Instruction(
                    0x1004 + 8 * (i % 8),
                    InstrClass.STORE,
                    mem_addr=0x200000 + i * 4096,
                    src1=25,
                    src2=1,
                )
            )
        trace = trace_from_rows(rows, name="stores")
        result = make_pipeline().run(trace)
        assert result.ipc > 1.0


class TestBranchBehaviour:
    def test_mispredictions_cost_cycles(self):
        """An unpredictable branch stream runs slower than a biased one."""
        import random

        rng = random.Random(0)

        def branch_trace(random_outcomes: bool) -> Trace:
            rows = []
            for i in range(4000):
                rows.append(
                    Instruction(0x1000 + 8 * (i % 4), InstrClass.INT_ALU, src1=25, dest=1)
                )
                taken = rng.random() < 0.5 if random_outcomes else True
                rows.append(
                    Instruction(0x1004 + 8 * (i % 4), InstrClass.BRANCH, src1=1, taken=taken)
                )
            return trace_from_rows(rows, name="br")

        predictable = make_pipeline().run(branch_trace(False))
        unpredictable = make_pipeline().run(branch_trace(True))
        assert unpredictable.cycles > predictable.cycles * 1.3
        assert unpredictable.misprediction_rate > 0.2
        assert predictable.misprediction_rate < 0.05

    def test_calls_and_returns_use_ras(self):
        rows = []
        pc = 0x1000
        for _ in range(200):
            rows.append(Instruction(pc, InstrClass.CALL, taken=True))
            rows.append(Instruction(0x9000, InstrClass.INT_ALU, src1=25, dest=1))
            rows.append(Instruction(0x9004, InstrClass.RETURN, taken=True))
            rows.append(Instruction(pc + 4, InstrClass.INT_ALU, src1=25, dest=2))
            pc += 8
        trace = trace_from_rows(rows, name="callret")
        result = make_pipeline().run(trace)
        # Well-nested call/return pairs: the RAS predicts returns correctly.
        assert result.branch_mispredictions == 0

    def test_results_are_deterministic(self):
        a = make_pipeline().run(alu_trace(2000))
        b = make_pipeline().run(alu_trace(2000))
        assert a.cycles == b.cycles


class TestSimResult:
    def test_speedup_over(self):
        fast = make_pipeline(l1_latency=3).run(alu_trace(1000))
        slow = make_pipeline(l1_latency=4).run(alu_trace(1000))
        assert slow.speedup_over(fast) <= 1.0

    def test_speedup_requires_same_trace_length(self):
        a = make_pipeline().run(alu_trace(100))
        b = make_pipeline().run(alu_trace(200))
        with pytest.raises(ValueError):
            a.speedup_over(b)

    def test_hierarchy_stats_attached(self):
        result = make_pipeline().run(alu_trace(100))
        assert "l1i" in result.hierarchy_stats


class TestIssueQueueLimit:
    def test_fp_queue_occupancy_stalls_dispatch(self):
        """20 FP IQ entries (Table II): a long run of FP ops dependent on
        one slow producer fills the queue; independent INT work behind it
        must still retire no faster than the queue drains."""
        # One slow multiply chain the FP adds depend on.
        rows = [Instruction(0x1000, InstrClass.FP_MUL, src1=57, dest=40)]
        for i in range(64):  # > 20 FP queue entries
            rows.append(
                Instruction(0x1004 + 4 * (i % 8), InstrClass.FP_ALU, src1=40, dest=41 + i % 8)
            )
        trace = trace_from_rows(rows, name="iqfull")
        result = make_pipeline().run(trace)
        # All 64 FP adds wait on the multiply, drain through 1 FP ALU:
        # at least ~64 cycles beyond the producer.
        assert result.cycles > 64

    def test_rob_limit_binds(self):
        """A load miss at the head of the ROB stalls dispatch of the
        129th younger instruction (128-entry ROB)."""
        rows = [Instruction(0x1000, InstrClass.LOAD, mem_addr=0x900000, src1=25, dest=1)]
        for i in range(300):
            rows.append(
                Instruction(0x1004 + 4 * (i % 8), InstrClass.INT_ALU, src1=25, dest=2 + i % 20)
            )
        trace = trace_from_rows(rows, name="robfull")
        result = make_pipeline().run(trace)
        # The miss costs ~100 cycles; with a 128-entry ROB the first ~127
        # ALUs dispatch behind it but the rest wait for the load to commit.
        assert result.cycles > 100


class TestObjectLoopColumns:
    def test_list_views_are_memoised_on_the_trace(self):
        """The object loop indexes lists, converted from the trace's
        arrays once per trace, not once per run."""
        trace = load_chain()
        views = _object_columns(trace)
        assert _object_columns(trace) is views
        assert views == tuple(column.tolist() for column in trace.to_arrays().values())
        assert type(views[0][0]) is int and type(views[6][0]) is bool
