"""Trace container: column-oriented storage of committed instructions.

A :class:`Trace` holds seven parallel columns as contiguous, read-only
NumPy arrays in :data:`COLUMN_DTYPES`: 21 bytes per instruction.  They
are converted and checked once, at construction, so everything
downstream, the C lane kernel above all, indexes them without further
checks: the columns are 1-D and of one length, every class lies in 0-8,
every register in -1..63, and every load and store carries an address
``>= 0``.  The lane kernel reads these arrays in place.  The trace
kernel's output columns become the trace without a copy, and a cached
trace keeps the arrays it reads.
The object loop and the reference schedule builder walk one instruction
at a time, so they index ``tolist()`` views (list indexing is several
times faster than NumPy scalar access in CPython): the reference builder
converts per call, the object loop once per trace, memoised on it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cpu.diskcache import read_members
from repro.cpu.isa import NO_REGISTER, NUM_REGISTERS, InstrClass

#: The columns, in row order, and the dtype each is held in (also the
#: ``.npz`` cache entries' member dtypes and the trace kernel's output).
COLUMN_DTYPES = {
    "pc": np.int64,
    "iclass": np.int8,
    "mem_addr": np.int64,
    "src1": np.int8,
    "src2": np.int8,
    "dest": np.int8,
    "taken": np.bool_,
}

_INT64 = (-(2**63), 2**63 - 1)
_REGISTER = (NO_REGISTER, NUM_REGISTERS - 1)

#: The closed range of values each column may hold.  A class indexes the
#: lane kernel's per-class tables and a register its scoreboard, so a
#: value outside these ranges would read or write out of bounds in C.
_VALUE_RANGES = {
    "pc": _INT64,
    "iclass": (0, len(InstrClass) - 1),
    "mem_addr": _INT64,
    "src1": _REGISTER,
    "src2": _REGISTER,
    "dest": _REGISTER,
    "taken": (0, 1),
}


def _is_memory(iclass: np.ndarray) -> np.ndarray:
    return (iclass == InstrClass.LOAD) | (iclass == InstrClass.STORE)


def _column(name: str, values) -> np.ndarray:
    """``values`` as the read-only column ``name``, refusing (with
    ``ValueError``) anything that is not 1-D or holds a value outside the
    column's range.  The range is checked before the cast, so a value
    that does not fit the dtype is refused, not wrapped.  A contiguous
    array already of the column's dtype is shared, not copied."""
    try:
        array = np.asarray(values)
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"trace column {name!r}: {exc}") from None
    if array.ndim != 1:
        raise ValueError(f"trace column {name!r} is {array.ndim}-D, not 1-D")
    if len(array):
        if array.dtype.kind not in "biu":
            raise ValueError(f"trace column {name!r} holds {array.dtype}, not integers")
        lo, hi = _VALUE_RANGES[name]
        if array.min() < lo or array.max() > hi:
            raise ValueError(f"trace column {name!r} holds values outside {lo}..{hi}")
    column = np.ascontiguousarray(array, dtype=COLUMN_DTYPES[name]).view()
    column.flags.writeable = False
    return column


class Trace:
    """A committed-instruction trace.

    Parallel columns, one entry per instruction:

    * ``pc`` — byte address of the instruction;
    * ``iclass`` — :class:`InstrClass` value;
    * ``mem_addr`` — byte address (``>= 0``) touched by loads/stores,
      else -1;
    * ``src1``, ``src2`` — source register ids, ``NO_REGISTER`` if unused;
    * ``dest`` — destination register id, ``NO_REGISTER`` if none;
    * ``taken`` — branch outcome, ``False`` for non-branches.

    Each argument may be any 1-D integer (or, for ``taken``, boolean)
    sequence; a malformed one raises ``ValueError``.  Built traces are
    immutable: collect the columns first, then construct once.
    """

    def __init__(
        self,
        pc: Sequence[int] = (),
        iclass: Sequence[int] = (),
        mem_addr: Sequence[int] = (),
        src1: Sequence[int] = (),
        src2: Sequence[int] = (),
        dest: Sequence[int] = (),
        taken: Sequence[bool] = (),
        name: str = "trace",
    ) -> None:
        self.name = name
        given = (pc, iclass, mem_addr, src1, src2, dest, taken)
        for column, values in zip(COLUMN_DTYPES, given):
            setattr(self, column, _column(column, values))
        if any(len(getattr(self, column)) != len(self.pc) for column in COLUMN_DTYPES):
            raise ValueError("trace columns have inconsistent lengths")
        # A negative block would match the -1 tags of invalid cache ways.
        bad = np.flatnonzero(_is_memory(self.iclass) & (self.mem_addr < 0))
        if len(bad):
            raise ValueError(f"memory instruction {int(bad[0])} lacks an address")

    def __len__(self) -> int:
        return len(self.pc)

    def __eq__(self, other: object):
        """Same name and the same columns, dtypes and values."""
        if not isinstance(other, Trace):
            return NotImplemented
        return self.name == other.name and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(self.to_arrays().values(), other.to_arrays().values())
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, instructions={len(self)})"

    def validate(self) -> None:
        """Only memory instructions carry an address; raises
        ``ValueError`` on a non-memory row with one.  (Construction
        already checked the column shapes and ranges, and that every
        memory row has an address; neither engine reads the address of
        any other row.)"""
        bad = np.flatnonzero(~_is_memory(self.iclass) & (self.mem_addr >= 0))
        if len(bad):
            raise ValueError(f"non-memory instruction {int(bad[0])} carries an address")

    # ----- summary statistics ------------------------------------------------------

    def class_mix(self) -> dict[str, float]:
        """Fraction of instructions per class (for workload validation)."""
        n = len(self)
        counts = np.bincount(self.iclass, minlength=len(InstrClass)).tolist()
        return {
            InstrClass(cls).name.lower(): count / n
            for cls, count in enumerate(counts)
            if count
        }

    def memory_footprint_bytes(self, block_bytes: int = 64) -> int:
        """Distinct data blocks touched, in bytes."""
        addrs = self.mem_addr[self.mem_addr >= 0]
        return len(np.unique(addrs // block_bytes)) * block_bytes

    def code_footprint_bytes(self, block_bytes: int = 64) -> int:
        """Distinct instruction blocks touched, in bytes."""
        return len(np.unique(self.pc // block_bytes)) * block_bytes

    # ----- numpy bridge and persistence ----------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The columns themselves (read-only, not copies), by name."""
        return {column: getattr(self, column) for column in COLUMN_DTYPES}

    def save(self, path) -> None:
        """Persist as an uncompressed ``.npz`` (the trace-cache entry
        format, see :mod:`repro.cpu.diskcache`).  ``path`` may be a
        filename or an open binary file object."""
        np.savez(path, name=self.name, **self.to_arrays())

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Inverse of :meth:`save`; also reads compressed archives.  Each
        column must be stored in its :data:`COLUMN_DTYPES` dtype, and
        passes the constructor's checks; anything else raises
        ``ValueError`` (or ``KeyError`` for a missing member)."""
        members = read_members(path)
        for column, dtype in COLUMN_DTYPES.items():
            if members[column].dtype != dtype:
                raise ValueError(
                    f"trace column {column!r} is stored as {members[column].dtype}"
                )
        return cls(
            **{column: members[column] for column in COLUMN_DTYPES},
            name=str(members["name"]),
        )
