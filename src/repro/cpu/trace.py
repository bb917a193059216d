"""Trace container: column-oriented storage of committed instructions.

Columns are plain Python lists (not NumPy) because the pipeline model walks
them one element at a time — list indexing is several times faster than
NumPy scalar access in CPython, and the hot loop dominates experiment
runtime.  Conversion helpers to/from NumPy are provided for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cpu.isa import NO_REGISTER, InstrClass

#: The columns and the NumPy dtype each has as an array (``to_arrays``,
#: the ``.npz`` cache entries, and the trace kernel's output).
COLUMN_DTYPES = {
    "pc": np.int64,
    "iclass": np.int8,
    "mem_addr": np.int64,
    "src1": np.int8,
    "src2": np.int8,
    "dest": np.int8,
    "taken": np.bool_,
}


@dataclass
class Trace:
    """A committed-instruction trace.

    Parallel columns, one entry per instruction:

    * ``pc`` — byte address of the instruction;
    * ``iclass`` — :class:`InstrClass` value (stored as int);
    * ``mem_addr`` — byte address touched by loads/stores, else -1;
    * ``src1``, ``src2`` — source register ids, ``NO_REGISTER`` if unused;
    * ``dest`` — destination register id, ``NO_REGISTER`` if none;
    * ``taken`` — branch outcome, ``False`` for non-branches.
    """

    pc: list[int] = field(default_factory=list)
    iclass: list[int] = field(default_factory=list)
    mem_addr: list[int] = field(default_factory=list)
    src1: list[int] = field(default_factory=list)
    src2: list[int] = field(default_factory=list)
    dest: list[int] = field(default_factory=list)
    taken: list[bool] = field(default_factory=list)
    name: str = "trace"

    def __len__(self) -> int:
        return len(self.pc)

    def append(
        self,
        pc: int,
        iclass: InstrClass,
        mem_addr: int = -1,
        src1: int = NO_REGISTER,
        src2: int = NO_REGISTER,
        dest: int = NO_REGISTER,
        taken: bool = False,
    ) -> None:
        self.pc.append(pc)
        self.iclass.append(int(iclass))
        self.mem_addr.append(mem_addr)
        self.src1.append(src1)
        self.src2.append(src2)
        self.dest.append(dest)
        self.taken.append(taken)

    def validate(self) -> None:
        """Cheap structural invariants; raises ``ValueError`` on violation."""
        n = len(self.pc)
        columns = (self.iclass, self.mem_addr, self.src1, self.src2, self.dest, self.taken)
        if any(len(col) != n for col in columns):
            raise ValueError("trace columns have inconsistent lengths")
        for i, cls in enumerate(self.iclass):
            is_mem = cls in (InstrClass.LOAD, InstrClass.STORE)
            if is_mem and self.mem_addr[i] < 0:
                raise ValueError(f"memory instruction {i} lacks an address")
            if not is_mem and self.mem_addr[i] >= 0:
                raise ValueError(f"non-memory instruction {i} carries an address")

    # ----- summary statistics ------------------------------------------------------

    def class_mix(self) -> dict[str, float]:
        """Fraction of instructions per class (for workload validation)."""
        n = len(self)
        if n == 0:
            return {}
        counts: dict[int, int] = {}
        for cls in self.iclass:
            counts[cls] = counts.get(cls, 0) + 1
        return {InstrClass(cls).name.lower(): c / n for cls, c in sorted(counts.items())}

    def memory_footprint_bytes(self, block_bytes: int = 64) -> int:
        """Distinct data blocks touched, in bytes."""
        blocks = {addr // block_bytes for addr in self.mem_addr if addr >= 0}
        return len(blocks) * block_bytes

    def code_footprint_bytes(self, block_bytes: int = 64) -> int:
        """Distinct instruction blocks touched, in bytes."""
        return len({p // block_bytes for p in self.pc}) * block_bytes

    # ----- numpy bridge -------------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {
            name: np.asarray(getattr(self, name), dtype=dtype)
            for name, dtype in COLUMN_DTYPES.items()
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], name: str = "trace") -> "Trace":
        # ndarray.tolist() converts whole columns at C speed (and yields
        # plain int/bool, exactly like the per-element loops it replaced);
        # trace-cache loads put this on the campaign hot path.
        return cls(
            pc=np.asarray(arrays["pc"]).tolist(),
            iclass=np.asarray(arrays["iclass"]).tolist(),
            mem_addr=np.asarray(arrays["mem_addr"]).tolist(),
            src1=np.asarray(arrays["src1"]).tolist(),
            src2=np.asarray(arrays["src2"]).tolist(),
            dest=np.asarray(arrays["dest"]).tolist(),
            taken=np.asarray(arrays["taken"]).tolist(),
            name=name,
        )

    # ----- persistence ---------------------------------------------------------------

    def save(self, path) -> None:
        """Persist as compressed ``.npz`` so expensive traces can be reused
        across experiment campaigns.  ``path`` may be a filename or an open
        binary file object (the trace cache writes through a temp file)."""
        np.savez_compressed(path, name=self.name, **self.to_arrays())

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Inverse of :meth:`save`.  The file is opened here, not by
        :func:`numpy.load`, so it is closed even when the archive is
        corrupt (``np.load`` raises without closing a path it opened)."""
        with open(path, "rb") as fh, np.load(fh) as data:
            return cls.from_arrays(
                {key: data[key] for key in COLUMN_DTYPES},
                name=str(data["name"]),
            )
