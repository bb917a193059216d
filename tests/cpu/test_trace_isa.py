"""Tests for instruction classes and the trace container."""

import numpy as np
import pytest
from trace_rows import Instruction, trace_from_rows

from repro.cpu.isa import (
    EXECUTION_LATENCY,
    FU_OF_CLASS,
    NO_REGISTER,
    FUPool,
    InstrClass,
)
from repro.cpu.trace import COLUMN_DTYPES, Trace


class TestInstrClass:
    def test_memory_classes(self):
        assert InstrClass.LOAD.is_memory
        assert InstrClass.STORE.is_memory
        assert not InstrClass.INT_ALU.is_memory

    def test_control_classes(self):
        for cls in (InstrClass.BRANCH, InstrClass.CALL, InstrClass.RETURN):
            assert cls.is_control
        assert not InstrClass.LOAD.is_control

    def test_fp_queue_residency(self):
        assert InstrClass.FP_ALU.uses_fp_queue
        assert InstrClass.FP_MUL.uses_fp_queue
        assert not InstrClass.LOAD.uses_fp_queue

    def test_every_class_has_latency_and_fu(self):
        for cls in InstrClass:
            assert cls in EXECUTION_LATENCY
            assert cls in FU_OF_CLASS

    def test_memory_classes_use_int_alu_agus(self):
        assert FU_OF_CLASS[InstrClass.LOAD] is FUPool.INT_ALU
        assert FU_OF_CLASS[InstrClass.STORE] is FUPool.INT_ALU

    def test_int_mul_slower_than_alu(self):
        assert EXECUTION_LATENCY[InstrClass.INT_MUL] > EXECUTION_LATENCY[InstrClass.INT_ALU]


class TestTrace:
    def make_small_trace(self) -> Trace:
        return trace_from_rows(
            [
                Instruction(0x100, InstrClass.INT_ALU, src1=1, src2=2, dest=3),
                Instruction(0x104, InstrClass.LOAD, mem_addr=0x8000, src1=3, dest=4),
                Instruction(0x108, InstrClass.STORE, mem_addr=0x8008, src1=3, src2=4),
                Instruction(0x10C, InstrClass.BRANCH, src1=4, taken=True),
            ],
            name="t",
        )

    def test_len(self):
        assert len(self.make_small_trace()) == 4

    def test_columns_are_read_only_arrays_in_their_dtypes(self):
        trace = self.make_small_trace()
        for name, dtype in COLUMN_DTYPES.items():
            column = getattr(trace, name)
            assert column.dtype == dtype and column.ndim == 1, name
            assert not column.flags.writeable, name
        assert trace.taken.tolist() == [False, False, False, True]

    def test_validate_accepts_good_trace(self):
        self.make_small_trace().validate()

    def test_construction_rejects_memory_without_address(self):
        """Refused when built, so no such trace reaches
        :meth:`Trace.validate` (or an engine)."""
        with pytest.raises(ValueError, match="memory instruction 0 lacks an address"):
            trace_from_rows([Instruction(0, InstrClass.LOAD, mem_addr=-1)])

    def test_validate_rejects_address_on_alu(self):
        trace = trace_from_rows([Instruction(0, InstrClass.INT_ALU, mem_addr=0x100)])
        with pytest.raises(ValueError):
            trace.validate()

    def test_validate_rejects_ragged_columns(self):
        """A trace whose ``taken`` column is one short is refused when it
        is built, so no ragged trace reaches :meth:`Trace.validate`."""
        columns = self.make_small_trace().to_arrays()
        with pytest.raises(ValueError):
            Trace(**dict(columns, taken=columns["taken"][:-1]))

    def test_class_mix(self):
        mix = self.make_small_trace().class_mix()
        assert mix["load"] == pytest.approx(0.25)
        assert mix["branch"] == pytest.approx(0.25)

    def test_class_mix_empty(self):
        assert Trace().class_mix() == {}

    def test_footprints(self):
        trace = self.make_small_trace()
        assert trace.memory_footprint_bytes() == 64  # 0x8000 and 0x8008 share a block
        assert trace.code_footprint_bytes() == 64

    def test_numpy_round_trip(self):
        trace = self.make_small_trace()
        back = Trace(**trace.to_arrays(), name="t")
        assert back == trace
        assert back.pc is not trace.pc and np.shares_memory(back.pc, trace.pc)

    def test_equality_compares_name_and_values(self):
        trace = self.make_small_trace()
        columns = trace.to_arrays()
        assert trace != Trace(**columns, name="other")
        flipped = dict(columns, taken=~columns["taken"])
        assert trace != Trace(**flipped, name="t")

    def test_no_register_constant(self):
        trace = trace_from_rows([Instruction(0, InstrClass.INT_ALU)])
        assert trace.src1[0] == NO_REGISTER
        assert trace.dest[0] == NO_REGISTER


class TestTraceRefusesMalformedColumns:
    """Construction is the one check between a trace and the C lane
    kernel: a class indexes its per-class tables and a register its
    scoreboard, every column is read for ``len(pc)`` rows, and a load or
    store at a negative address would give a negative block, whose -1
    tag matches the invalid ways of every cache (the kernel counted
    hits where the object loop missed)."""

    @staticmethod
    def columns(**changes) -> dict:
        base = dict(
            pc=[0x100, 0x104, 0x108],
            iclass=[0, 4, 6],
            mem_addr=[-1, 0x8000, -1],
            src1=[1, 2, -1],
            src2=[-1, -1, -1],
            dest=[3, 4, -1],
            taken=[False, False, True],
        )
        return {**base, **changes}

    @pytest.mark.parametrize(
        "changes",
        [
            pytest.param(dict(iclass=[0, 4, 9]), id="class-9"),
            pytest.param(dict(iclass=[0, -1, 6]), id="negative-class"),
            pytest.param(dict(iclass=np.array([0, 4, 264])), id="class-that-wraps-to-8"),
            pytest.param(dict(dest=[3, 5000, -1]), id="dest-5000"),
            pytest.param(dict(src1=[1, 64, -1]), id="register-64"),
            pytest.param(dict(src2=[-2, -1, -1]), id="register-minus-2"),
            pytest.param(dict(taken=[0, 2, 1]), id="taken-2"),
            pytest.param(dict(pc=[0x100, 2**64, 0x108]), id="pc-beyond-int64"),
            pytest.param(dict(mem_addr=np.array([0, 2**63, 0], dtype=np.uint64)), id="uint64-address"),
            pytest.param(dict(src1=[1, 2]), id="short-src1"),
            pytest.param(dict(mem_addr=[-1, 0x8000, -1, -1]), id="long-mem_addr"),
            pytest.param(dict(pc=[[0x100, 0x104, 0x108]]), id="2-D-pc"),
            pytest.param(dict(pc=[256.0, 260.5, 264.0]), id="float-pc"),
            pytest.param(dict(iclass=["0", "4", "6"]), id="string-class"),
            pytest.param(dict(mem_addr=[-1, -64, -1]), id="load-at-negative-address"),
            pytest.param(dict(mem_addr=[-1, -1, -1]), id="load-without-address"),
            pytest.param(
                dict(iclass=[0, 5, 6], mem_addr=[-1, -(2**63), -1]),
                id="store-at-int64-min",
            ),
        ],
    )
    def test_refused(self, changes):
        with pytest.raises(ValueError):
            Trace(**self.columns(**changes))

    def test_extremes_accepted(self):
        trace = Trace(
            **self.columns(iclass=[0, 8, 8], src1=[-1, 63, 0], dest=[63, -1, 0])
        )
        assert trace.iclass.tolist() == [0, 8, 8]
        trace = Trace(**self.columns(iclass=[4, 5, 6], mem_addr=[0, 2**63 - 1, -1]))
        assert trace.mem_addr.tolist() == [0, 2**63 - 1, -1]
