"""Hand-built traces for the tests: collect rows, construct once.

:class:`repro.cpu.trace.Trace` is built from whole columns; these tests
write a few instructions at a time, so they collect :class:`Instruction`
rows and hand them to :func:`trace_from_rows`.  :func:`random_trace`
builds the property tests' structurally arbitrary traces the same way.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple

from repro.cpu.isa import NO_REGISTER, InstrClass
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


def random_trace(seed: int, n: int) -> Trace:
    """A structurally-arbitrary committed-instruction trace: random
    class mix, dependence patterns, jumpy control flow, and a memory
    stream with a little locality (so hits and misses both occur)."""
    rng = random.Random(seed)
    rows = []
    pc = 0x1000
    mem_bases = [rng.randrange(0, 1 << 18) << 6 for _ in range(4)]
    targets = [0x1000 + 4 * rng.randrange(0, 4 * n) for _ in range(8)]
    classes = list(InstrClass)
    for _ in range(n):
        cls = rng.choice(classes)
        mem_addr = -1
        taken = False
        if cls.is_memory:
            mem_addr = rng.choice(mem_bases) + 4 * rng.randrange(0, 256)
        src1 = rng.randrange(0, 64) if rng.random() < 0.8 else NO_REGISTER
        src2 = rng.randrange(0, 64) if rng.random() < 0.4 else NO_REGISTER
        dest = rng.randrange(0, 64) if rng.random() < 0.6 else NO_REGISTER
        if cls.is_control:
            taken = rng.random() < 0.6
        rows.append((pc, cls, mem_addr, src1, src2, dest, taken))
        pc = rng.choice(targets) if taken else pc + 4
    return trace_from_rows(rows, name=f"prop-{seed}")
