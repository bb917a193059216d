"""Hand-built traces for the tests: collect rows, construct once.

:class:`repro.cpu.trace.Trace` is built from whole columns; these tests
write a few instructions at a time, so they collect :class:`Instruction`
rows and hand them to :func:`trace_from_rows`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.cpu.isa import NO_REGISTER
from repro.cpu.trace import COLUMN_DTYPES, Trace


class Instruction(NamedTuple):
    """One committed instruction, fields in :data:`COLUMN_DTYPES` order."""

    pc: int
    iclass: int
    mem_addr: int = -1
    src1: int = NO_REGISTER
    src2: int = NO_REGISTER
    dest: int = NO_REGISTER
    taken: bool = False


def trace_from_rows(rows: Iterable[Instruction], name: str = "trace") -> Trace:
    """The trace of ``rows`` (no rows: an empty trace)."""
    columns = tuple(zip(*rows)) or ((),) * len(COLUMN_DTYPES)
    return Trace(*columns, name=name)
