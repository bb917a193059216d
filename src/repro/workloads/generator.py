"""Synthetic trace generation from workload profiles.

The generator builds a small program skeleton (basic blocks with fixed
static branch biases and targets) and walks it, emitting committed
instructions with memory addresses drawn from the profile's access-pattern
mixture.  Everything is driven by one ``random.Random(seed)`` stream, so a
(profile, seed, length) triple always yields the identical trace — the
paper's requirement that every scheme sees the same dynamic instruction
stream.

Program model
-------------
* Code is laid out as consecutive basic blocks starting at ``CODE_BASE``;
  block lengths are geometric with mean ``1 / control_fraction`` so the
  emitted branch/call/return fractions match the profile's mix.
* Each block ends in a control instruction with *static* properties chosen
  at construction: a taken-bias (strongly biased for ``predictability`` of
  the static branches, weakly biased otherwise) and a fixed taken-target
  (backward for loops, forward otherwise).  gshare learns the biased
  branches over the trace, reproducing realistic misprediction rates.
* Calls push the fall-through block on a software stack and jump to a
  random "function entry" block; returns pop it.

Data model
----------
Four address generators share the data segment:

* **stream** — four sequential walkers (8-byte strides) over a region,
  giving high spatial locality and compulsory misses;
* **stride** — two strided walkers (``stride_bytes``) for vector-ish codes;
* **random** — uniform block-grain accesses over a region (capacity
  pressure);
* **conflict** — a round-robin pool of ``conflict_blocks`` blocks that all
  map into ``conflict_sets`` cache sets: the associativity stressor that
  separates an 8-way baseline, a 4-way word-disabled cache, a fault-thinned
  block-disabled set, and a victim-cache-backed configuration.

Two engines
-----------
``__init__`` picks one engine per generator; both produce the same
traces, bit for bit:

* the **trace kernel** (:mod:`repro.workloads.trace_kernel`), compiled C
  that builds the code skeleton and walks it.  It starts from
  ``self._rng.getstate()`` and draws CPython's own MT19937 words:
  ``random()`` from two words, ``randrange``/``randint``/``choice`` by
  ``_randbelow``'s rejection loop over one-word ``getrandbits(k)``, and
  ``uniform`` and ``expovariate`` by ``random.py``'s arithmetic, with
  libm's ``log``.  After every call the advanced state goes back into
  ``self._rng``, which stays the one source of truth, so either engine
  can continue the other's stream;
* the **Python** build and walk below: the oracle the kernel is checked
  against, and the path taken without ``gcc`` or under
  ``REPRO_NO_CKERNEL=1``.

The kernel copies only ``getrandbits``'s one-word path and emits int64
addresses, so a profile whose block count, hot-entry count, random region
(in 64-byte blocks) or conflict pool reaches 2^32, or whose addresses
could pass 2^63 (``ws_kb=2**30`` gives about 5.2e9 random blocks), runs
the Python engine.  Both engines fill the same :class:`CodeSkeleton`
columns and carry the same data cursors from one :meth:`generate` call
to the next.  The kernel walks straight into the :data:`COLUMN_DTYPES`
arrays that become the :class:`~repro.cpu.trace.Trace`, with no copy;
the Python walk collects one list per column and constructs the trace
once.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

import numpy as np

from repro.cpu.isa import NO_REGISTER, InstrClass
from repro.cpu.trace import COLUMN_DTYPES, Trace
from repro.faults.geometry import PAPER_L1_GEOMETRY, CacheGeometry
from repro.workloads import trace_kernel
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec2000 import get_profile

CODE_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
CONFLICT_BASE = 0x2000_0000

#: Basic blocks are 3..64 instructions long, terminator included.
_MIN_BLOCK = 3


@dataclass(frozen=True, eq=False)
class CodeSkeleton:
    """The static program: one entry per basic block in each column but
    ``hot``.  Both engines' builders fill exactly these columns."""

    start_pc: np.ndarray  # int64
    length: np.ndarray  # int64: instructions including the terminator
    kind: np.ndarray  # int8: InstrClass.BRANCH / CALL / RETURN
    taken_bias: np.ndarray  # float64
    target: np.ndarray  # int64: taken-target block (branches); callee (calls)
    #: Loop branches iterate a (mostly) fixed trip count instead of
    #: flipping a coin per visit — real loops repeat their history
    #: patterns, which is what lets a gshare predictor learn them.
    trip_count: np.ndarray  # int64: 0 = not a counted loop
    hot: np.ndarray  # int64: the hot-function entry blocks

    COLUMNS = ("start_pc", "length", "kind", "taken_bias", "target", "trip_count")
    DTYPES = (np.int64, np.int64, np.int8, np.float64, np.int64, np.int64)


class TraceGenerator:
    """Deterministic trace generator for one workload profile."""

    def __init__(
        self,
        profile: WorkloadProfile | str,
        seed: int = 0,
        geometry: CacheGeometry = PAPER_L1_GEOMETRY,
    ) -> None:
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile = profile
        self.seed = seed
        self.geometry = geometry
        # zlib.crc32 is stable across processes (unlike hash()), keeping
        # traces bit-identical for a given (benchmark, seed).
        self._rng = random.Random(zlib.crc32(profile.name.encode()) * 65537 + seed)
        self._init_data_generators()  # draws nothing
        self._kernel = trace_kernel.load() if self._kernel_fits() else None
        self._code = self._build_code_c() if self._kernel else self._build_code()

    def _kernel_fits(self) -> bool:
        """Whether the trace kernel covers this profile: every range it
        draws from is below 2^32 and every address it emits fits in int64.
        (The cursors' sums stay below their region's end address.)"""
        ranges = (
            self._max_blocks(),  # bounds the hot-entry count too
            self._random_region // 64,
            len(self._conflict_pool),
        )
        top = max(
            self._stream_base + self._stream_region,
            self._stride_base + self._stride_region,
            self._random_base + self._random_region,
            *self._conflict_pool,
        )
        return max(ranges) < 2**32 and top < 2**63

    # ------------------------------------------------------------------ code

    def _code_instructions(self) -> int:
        return self.profile.code_kb * 1024 // 4

    def _max_blocks(self) -> int:
        return self._code_instructions() // _MIN_BLOCK + 1

    def _code_shape(self) -> tuple[float, float]:
        """``(1 / mean block length, call weight)`` of the code build."""
        p = self.profile
        ctrl_frac = p.branch_frac + 2 * p.call_frac
        mean_len = max(3.0, 1.0 / max(ctrl_frac, 0.02))
        return 1.0 / mean_len, 2 * p.call_frac / max(ctrl_frac, 1e-9)

    def _build_code(self) -> CodeSkeleton:
        """The Python builder: the kernel's oracle, draw for draw."""
        p = self.profile
        rng = self._rng
        block_lambda, call_weight = self._code_shape()
        total_instructions = self._code_instructions()

        start_pcs: list[int] = []
        lengths: list[int] = []
        pc = CODE_BASE
        emitted = 0
        while emitted < total_instructions:
            length = max(_MIN_BLOCK, min(int(rng.expovariate(block_lambda)) + 1, 64))
            start_pcs.append(pc)
            lengths.append(length)
            pc += length * 4
            emitted += length

        n_blocks = len(lengths)
        # Hot-function structure: real programs call a small set of hot
        # functions over and over (the 90/10 rule); that repetition is what
        # trains branch predictors and keeps the I-cache working set
        # meaningful.  Cold calls still happen so the full footprint is
        # exercised.
        n_hot = max(4, n_blocks // 128)
        hot_entries = [rng.randrange(n_blocks) for _ in range(n_hot)]
        kinds = [0] * n_blocks
        biases = [0.0] * n_blocks
        targets = [0] * n_blocks
        trips = [0] * n_blocks
        for idx in range(n_blocks):
            roll = rng.random()
            if roll < call_weight / 2:
                kinds[idx] = int(InstrClass.CALL)
                if rng.random() < 0.9:
                    targets[idx] = hot_entries[rng.randrange(n_hot)]
                else:
                    targets[idx] = rng.randrange(n_blocks)
            elif roll < call_weight:
                kinds[idx] = int(InstrClass.RETURN)
            else:
                kinds[idx] = int(InstrClass.BRANCH)
                if rng.random() < p.predictability:
                    if rng.random() < 0.5:
                        # Counted loop: taken `trip_count` times, then one
                        # not-taken exit.  Deterministic trip counts give
                        # the recurring global-history patterns gshare
                        # learns on real codes.
                        biases[idx] = 0.9  # long-run taken fraction
                        trips[idx] = 2 + min(int(rng.expovariate(1 / 8.0)), 60)
                        targets[idx] = max(0, idx - rng.randint(1, 8))
                    else:
                        # Guard branch (error/rare-case check): the vast
                        # majority are *never* taken at a given site, which
                        # keeps per-path branch history deterministic; a
                        # small minority flip occasionally.
                        biases[idx] = 0.0 if rng.random() < 0.9 else 0.05
                        targets[idx] = (idx + rng.randint(2, 32)) % n_blocks
                else:
                    # Data-dependent branch: genuinely unpredictable.
                    biases[idx] = rng.uniform(0.3, 0.7)
                    if rng.random() < 0.5:
                        targets[idx] = max(0, idx - rng.randint(1, 16))
                    else:
                        targets[idx] = (idx + rng.randint(2, 32)) % n_blocks
        columns = (start_pcs, lengths, kinds, biases, targets, trips)
        return CodeSkeleton(
            *(np.array(c, dtype=t) for c, t in zip(columns, CodeSkeleton.DTYPES)),
            hot=np.array(hot_entries, dtype=np.int64),
        )

    def _build_code_c(self) -> CodeSkeleton:
        """The same build in the trace kernel, into columns sized for the
        most blocks the code size allows."""
        block_lambda, call_weight = self._code_shape()
        capacity = self._max_blocks()
        columns = {
            name: np.empty(capacity, dtype=dtype)
            for name, dtype in zip(CodeSkeleton.COLUMNS, CodeSkeleton.DTYPES)
        }
        hot = np.empty(max(4, capacity // 128), dtype=np.int64)
        done = trace_kernel.run(
            self._kernel,
            "build",
            self._rng,
            code_base=CODE_BASE,
            code_instructions=self._code_instructions(),
            block_lambda=block_lambda,
            call_weight=call_weight,
            predictability=self.profile.predictability,
            hot=hot,
            **columns,
        )
        return CodeSkeleton(
            **{name: c[: done.n_blocks] for name, c in columns.items()},
            hot=hot[: done.n_hot],
        )

    # ------------------------------------------------------------------ data

    def _init_data_generators(self) -> None:
        p = self.profile
        geometry = self.geometry
        ws_bytes = p.ws_kb * 1024
        weights = p.pattern_weights
        # Partition the working set proportionally to the pattern mixture
        # (conflict pool has its own fixed-size segment).
        body = weights[0] + weights[1] + weights[2]
        scale = 1.0 / body if body > 0 else 0.0
        self._stream_region = max(4096, int(ws_bytes * weights[0] * scale))
        self._stride_region = max(4096, int(ws_bytes * weights[1] * scale))
        self._random_region = max(4096, int(ws_bytes * weights[2] * scale))

        self._stream_ptrs = [
            (i * self._stream_region) // 4 for i in range(4)
        ]  # staggered starts
        self._stream_next = 0
        self._stride_ptrs = [0, self._stride_region // 2]
        self._stride_next = 0

        # Conflict pool: blocks j all land in `conflict_sets` sets.
        set_stride = geometry.num_sets * geometry.block_bytes
        block = geometry.block_bytes
        self._conflict_pool = [
            CONFLICT_BASE
            + (j % p.conflict_sets) * block
            + (j // p.conflict_sets) * set_stride
            for j in range(p.conflict_blocks)
        ]
        self._conflict_next = 0

        self._stream_base = DATA_BASE
        self._stride_base = DATA_BASE + 2 * ws_bytes
        self._random_base = DATA_BASE + 4 * ws_bytes

    def _next_address(self) -> int:
        """Draw the next data address from the pattern mixture."""
        rng = self._rng
        w_stream, w_stride, w_random, w_conflict = self.profile.pattern_weights
        roll = rng.random()
        if roll < w_stream:
            s = self._stream_next
            self._stream_next = (s + 1) & 3
            addr = self._stream_base + self._stream_ptrs[s]
            self._stream_ptrs[s] = (self._stream_ptrs[s] + 8) % self._stream_region
            return addr
        roll -= w_stream
        if roll < w_stride:
            s = self._stride_next
            self._stride_next = 1 - s
            addr = self._stride_base + self._stride_ptrs[s]
            self._stride_ptrs[s] = (
                self._stride_ptrs[s] + self.profile.stride_bytes
            ) % self._stride_region
            return addr
        roll -= w_stride
        if roll < w_random:
            block = rng.randrange(self._random_region // 64)
            return self._random_base + block * 64 + rng.randrange(8) * 8
        # Conflict pool: random pick with a drifting hot window.  A pure
        # round-robin sweep is the adversarial worst case for LRU (0% hit
        # rate whenever the pool exceeds the ways); real hot structures
        # rereference recent entries, so sample with recency bias instead.
        pool = self._conflict_pool
        if rng.random() < 0.5:
            c = self._conflict_next  # sweep component keeps all blocks warm
            self._conflict_next = (c + 1) % len(pool)
        else:
            c = rng.randrange(len(pool))
        return pool[c]

    # ------------------------------------------------------------- generation

    def _body_mix(self) -> tuple[float, float]:
        """``(load_p, store_p)``: the cumulative load and store shares of
        body instructions, renormalised without control classes."""
        p = self.profile
        body_frac = 1.0 - (p.branch_frac + 2 * p.call_frac)
        load_p = p.load_frac / body_frac
        return load_p, load_p + p.store_frac / body_frac

    def generate(self, n_instructions: int) -> Trace:
        """Emit a committed-instruction trace of the requested length."""
        if n_instructions <= 0:
            raise ValueError(f"n_instructions must be positive, got {n_instructions}")
        if self._kernel is None:
            return self._walk(n_instructions)
        return self._walk_c(n_instructions)

    def _walk_c(self, n_instructions: int) -> Trace:
        """The walk in the trace kernel, straight into NumPy columns."""
        p = self.profile
        code = self._code
        load_p, store_p = self._body_mix()
        w_stream, w_stride, w_random, _ = p.pattern_weights
        cursors = np.array(
            [
                *self._stream_ptrs,
                self._stream_next,
                *self._stride_ptrs,
                self._stride_next,
                self._conflict_next,
            ],
            dtype=np.int64,
        )
        n = n_instructions
        columns = {name: np.empty(n, dtype) for name, dtype in COLUMN_DTYPES.items()}
        trace_kernel.run(
            self._kernel,
            "walk",
            self._rng,
            **{name: getattr(code, name) for name in CodeSkeleton.COLUMNS},
            hot=code.hot,
            n_blocks=len(code.length),
            n_hot=len(code.hot),
            n=n,
            load_p=load_p,
            store_p=store_p,
            fp_frac=p.fp_frac,
            mul_frac=p.mul_frac,
            dep=p.dep_density,
            w_stream=w_stream,
            w_stride=w_stride,
            w_random=w_random,
            stream_base=self._stream_base,
            stream_region=self._stream_region,
            stride_base=self._stride_base,
            stride_region=self._stride_region,
            # (ptr + step) % region is the same for step mod region, and
            # keeps the kernel's sum below twice the region.
            stride_step=p.stride_bytes % self._stride_region,
            random_base=self._random_base,
            random_blocks=self._random_region // 64,
            pool=np.array(self._conflict_pool, dtype=np.int64),
            pool_size=len(self._conflict_pool),
            cursors=cursors,
            loops=np.empty(len(code.length), dtype=np.int64),
            **columns,
        )
        moved = cursors.tolist()
        self._stream_ptrs = moved[0:4]
        self._stream_next = moved[4]
        self._stride_ptrs = moved[5:7]
        self._stride_next, self._conflict_next = moved[7:9]
        return Trace(**columns, name=p.name)

    def _walk(self, n_instructions: int) -> Trace:
        """The Python walk: the kernel's oracle, draw for draw."""
        return Trace(*self._walk_columns(n_instructions), name=self.profile.name)

    def _walk_columns(self, n_instructions: int) -> tuple[list, ...]:
        """The Python walk's instructions, one list per :class:`Trace`
        column (a list of row tuples would take about twice the memory)."""
        p = self.profile
        rng = self._rng
        columns: tuple[list, ...] = tuple([] for _ in COLUMN_DTYPES)
        add_pc, add_cls, add_addr, add_src1, add_src2, add_dest, add_taken = (
            column.append for column in columns
        )

        def emit(pc, cls, addr, src1, src2, dest, taken):
            add_pc(pc)
            add_cls(cls)
            add_addr(addr)
            add_src1(src1)
            add_src2(src2)
            add_dest(dest)
            add_taken(taken)

        code = self._code
        start_pcs, lengths, kinds, biases, targets, trips = (
            getattr(code, name).tolist() for name in CodeSkeleton.COLUMNS
        )
        hot = code.hot.tolist()
        n_blocks = len(lengths)
        call_stack: list[int] = []
        loop_counters: dict[int, int] = {}

        # Body-instruction mixture, renormalised without control classes.
        load_p, store_p = self._body_mix()

        INT_ALU = int(InstrClass.INT_ALU)
        INT_MUL = int(InstrClass.INT_MUL)
        FP_ALU = int(InstrClass.FP_ALU)
        FP_MUL = int(InstrClass.FP_MUL)
        LOAD = int(InstrClass.LOAD)
        STORE = int(InstrClass.STORE)
        BRANCH = int(InstrClass.BRANCH)
        CALL = int(InstrClass.CALL)
        RETURN = int(InstrClass.RETURN)

        # Register management: rotating destination pools and a recency
        # window per class for dependence chains.
        int_dest = 1
        fp_dest = 33
        recent_int = [28, 29, 30]  # stable base registers to start with
        recent_fp = [60, 61, 62]
        dep = p.dep_density

        def int_src() -> int:
            if rng.random() < dep:
                return recent_int[-1 - rng.randrange(min(3, len(recent_int)))]
            return 25 + rng.randrange(6)  # stable base registers r25..r30

        def fp_src() -> int:
            if rng.random() < dep:
                return recent_fp[-1 - rng.randrange(min(3, len(recent_fp)))]
            return 57 + rng.randrange(6)

        bb_index = 0
        emitted = 0
        while emitted < n_instructions:
            pc = start_pcs[bb_index]
            body_len = lengths[bb_index] - 1
            for _ in range(body_len):
                if emitted >= n_instructions:
                    return columns
                roll = rng.random()
                if roll < load_p:
                    addr = self._next_address()
                    is_fp = rng.random() < p.fp_frac
                    if is_fp:
                        dest = fp_dest
                        fp_dest = 33 + (fp_dest - 32) % 24
                        recent_fp.append(dest)
                        if len(recent_fp) > 8:
                            recent_fp.pop(0)
                    else:
                        dest = int_dest
                        int_dest = 1 + int_dest % 24
                        recent_int.append(dest)
                        if len(recent_int) > 8:
                            recent_int.pop(0)
                    emit(pc, LOAD, addr, int_src(), NO_REGISTER, dest, False)
                elif roll < store_p:
                    addr = self._next_address()
                    value_src = (
                        recent_fp[-1] if rng.random() < p.fp_frac else recent_int[-1]
                    )
                    emit(pc, STORE, addr, int_src(), value_src, NO_REGISTER, False)
                else:
                    is_fp = rng.random() < p.fp_frac
                    is_mul = rng.random() < p.mul_frac
                    if is_fp:
                        cls = FP_MUL if is_mul else FP_ALU
                        dest = fp_dest
                        fp_dest = 33 + (fp_dest - 32) % 24
                        emit(pc, cls, -1, fp_src(), fp_src(), dest, False)
                        recent_fp.append(dest)
                        if len(recent_fp) > 8:
                            recent_fp.pop(0)
                    else:
                        cls = INT_MUL if is_mul else INT_ALU
                        dest = int_dest
                        int_dest = 1 + int_dest % 24
                        emit(pc, cls, -1, int_src(), int_src(), dest, False)
                        recent_int.append(dest)
                        if len(recent_int) > 8:
                            recent_int.pop(0)
                pc += 4
                emitted += 1

            if emitted >= n_instructions:
                return columns

            # Terminator.
            kind = kinds[bb_index]
            if kind == BRANCH:
                if trips[bb_index]:
                    # Counted loop: deterministic iterations, occasional
                    # off-by-one wobble so histories are realistic rather
                    # than perfectly periodic.
                    remaining = loop_counters.get(bb_index)
                    if remaining is None:
                        remaining = trips[bb_index]
                        if rng.random() < 0.02:
                            remaining = max(1, remaining + rng.choice((-1, 1)))
                    taken = remaining > 0
                    if taken:
                        loop_counters[bb_index] = remaining - 1
                    else:
                        loop_counters.pop(bb_index, None)
                else:
                    taken = rng.random() < biases[bb_index]
                emit(pc, BRANCH, -1, recent_int[-1], NO_REGISTER, NO_REGISTER, taken)
                bb_index = targets[bb_index] if taken else (bb_index + 1) % n_blocks
            elif kind == CALL:
                emit(pc, CALL, -1, NO_REGISTER, NO_REGISTER, NO_REGISTER, True)
                call_stack.append((bb_index + 1) % n_blocks)
                if len(call_stack) > 64:
                    call_stack.pop(0)
                bb_index = targets[bb_index]
            else:  # RETURN
                emit(pc, RETURN, -1, NO_REGISTER, NO_REGISTER, NO_REGISTER, True)
                if call_stack:
                    bb_index = call_stack.pop()
                else:
                    # Underflow (we entered mid-function): resume at a hot
                    # entry, as real control flow would.
                    bb_index = hot[rng.randrange(len(hot))]
            emitted += 1

            # Irregular control flow (indirect jumps, phase changes): a small
            # chance of teleporting keeps the walk ergodic over the code
            # footprint, so I-cache pressure tracks `code_kb` instead of the
            # luck of static branch targets.  Kept rare so it does not
            # scramble global branch history unrealistically.
            if rng.random() < 0.003:
                bb_index = rng.randrange(n_blocks)

        return columns


def generate_trace(
    benchmark: WorkloadProfile | str,
    n_instructions: int,
    seed: int = 0,
    geometry: CacheGeometry = PAPER_L1_GEOMETRY,
) -> Trace:
    """One-call convenience: profile (or name) -> trace."""
    return TraceGenerator(benchmark, seed=seed, geometry=geometry).generate(
        n_instructions
    )
