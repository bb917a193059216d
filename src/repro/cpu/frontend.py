"""Precomputed front-end schedule: branch bookkeeping hoisted off the hot loop.

Everything the pipeline front end does — gshare direction prediction, the
return-address stack, the line predictor, fetch-group breaks at line
boundaries/taken branches/redirects, and fetch-width overflow stalls — is a
pure function of the *trace*: predictors train on (pc, taken) streams and
never observe timing or cache state.  The lane kernel therefore replays
the front end **once per trace** and compiles it into flat arrays its hot
loop consumes with O(1) work per instruction:

* ``static_fetch[i]`` — the cumulative statically-known fetch-cycle bumps
  (fetch-width overflows + line-predictor bubbles) before instruction
  *i* dispatches.  At runtime ``fetch_cycle = dynamic_base +
  static_fetch[i]``, where ``dynamic_base`` absorbs the only two dynamic
  events: I-cache miss stalls (additive) and misprediction redirects
  (a max, applied at the recorded redirect points).
* ``iaccess_index`` / ``iaccess_line`` — the exact I-cache access points
  (line changes, including the forced re-fetch after a redirect) and the
  line fetched at each; the kernel probes the I-cache only there.
* ``redirect_index`` / ``redirect_static_next`` — instructions whose
  resolution redirects fetch (gshare mispredicts, RAS mispredicts), with
  the static offset of the following instruction so the rebase is O(1).
* measured-region predictor statistics, plus the trained predictor
  end-state so a pipeline can expose warm predictors after a kernel run
  exactly as the object path would.

Schedules are memoised on the trace object keyed by the front-end
parameters, so campaign runs (one trace x many fault maps x many
configurations) replay the front end once, not per simulation.

Persistent schedule cache
-------------------------
Parallel campaign workers each replay the front end in their own process
— per benchmark, per worker, even when every *trace* comes from the
persistent trace cache.  When ``REPRO_TRACE_CACHE`` names a directory (or
a provider stamps ``trace._schedule_cache_dir``), built schedules are
persisted next to the cached traces as ``sched-<key>.npz``, keyed by a
content hash of the trace columns the front end consumes (pc, class,
taken) plus the front-end parameters.  Workers and later sessions then
load the compiled schedule instead of re-replaying; entries are written
atomically and corrupt ones are discarded and rebuilt, mirroring the
trace cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

from repro.cpu.branch import GsharePredictor, LinePredictor, ReturnAddressStack
from repro.cpu.config import PipelineConfig
from repro.cpu.trace import Trace

#: Attribute used to memoise schedules on the trace object.
_CACHE_ATTR = "_frontend_schedules"

#: Environment variable naming the persistent schedule-cache directory
#: (shared with the trace cache; duplicated here because the cpu layer
#: must not import the experiments layer).
SCHEDULE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Bump when FrontEndSchedule's layout or semantics change incompatibly.
SCHEDULE_SCHEMA_VERSION = 1

#: Persistent entries are ``sched-<key>.npz`` beside the cached traces.
_SCHED_PREFIX = "sched-"

#: Module-level cache-activity counters (CLI summaries and tests).
SCHEDULE_CACHE_STATS = {"loaded": 0, "persisted": 0, "discarded": 0}

#: reg_ready sentinel slots used by the kernel's remapped operand columns:
#: reads of "no register" land on a pinned zero, writes of "no destination"
#: land on a junk sink, so the hot loop needs no >= 0 guards at all.
READ_SENTINEL = 64
WRITE_SENTINEL = 65
REG_FILE_SLOTS = 66


@dataclass(eq=False)
class FrontEndSchedule:
    """Compiled front-end behaviour of one (trace, config, measure_from)."""

    # --- per-instruction (an integer array, or a list from the reference
    # builder) ----------------------------------------------------------------
    static_fetch: "np.ndarray | list[int]"
    # --- sparse events (index lists end with a sentinel of n) ---------------
    iaccess_index: list[int]
    iaccess_line: list[int]
    redirect_index: list[int]
    redirect_static_next: list[int]
    # --- measured-region predictor statistics -------------------------------
    gshare_predictions: int
    gshare_mispredictions: int
    ras_pushes: int
    ras_pops: int
    ras_mispredictions: int
    lp_lookups: int
    lp_misses: int
    # --- measured-region access totals (accesses = hits + misses, so the
    # hot loop counts only misses and reconstructs the rest at run end) ----
    iaccess_measured: int
    daccess_measured: int
    # --- trained end-state, installed on the pipeline after a kernel run ----
    gshare_table: bytes
    gshare_history: int
    ras_stack: tuple[int, ...]
    lp_table: tuple[int, ...]

    def __eq__(self, other: object):  # static_fetch may be list or ndarray
        if not isinstance(other, FrontEndSchedule):
            return NotImplemented
        from dataclasses import fields as _fields

        for f in _fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name == "static_fetch":
                if not np.array_equal(np.asarray(a), np.asarray(b)):
                    return False
            elif a != b:
                return False
        return True

    def install(
        self,
        gshare: GsharePredictor,
        ras: ReturnAddressStack,
        line_predictor: LinePredictor,
    ) -> None:
        """Leave the pipeline's predictors exactly as the object path
        would: trained tables and measured-region counters."""
        gshare._table = bytearray(self.gshare_table)
        gshare._history = self.gshare_history
        gshare.predictions = self.gshare_predictions
        gshare.mispredictions = self.gshare_mispredictions
        ras._stack = list(self.ras_stack)
        ras.pushes = self.ras_pushes
        ras.pops = self.ras_pops
        ras.mispredictions = self.ras_mispredictions
        line_predictor._table = list(self.lp_table)
        line_predictor.lookups = self.lp_lookups
        line_predictor.misses = self.lp_misses


def lane_columns(
    trace: Trace, config: PipelineConfig, d_offset_bits: int
) -> tuple[np.ndarray, ...]:
    """The lane kernel's per-instruction int64 columns: class, src1, src2
    and dest (``NO_REGISTER`` remapped to the sentinels above), ROB slot,
    issue-queue slot, and D-cache block address.

    Ring positions are a pure function of the class sequence:
    ``iq_slot[i]`` is instruction *i*'s slot in *its own* queue (FP
    classes 2-3 rotate through the FP queue, everything else through the
    INT one).  Non-memory rows carry the block of ``mem_addr == -1``,
    which the kernel never reads.  Built with NumPy straight from the
    trace and memoised on it per ring sizes and D-cache block size.
    """
    cache = trace.__dict__.setdefault("_lane_columns", {})
    key = (
        config.rob_entries, config.iq_int_entries, config.iq_fp_entries,
        d_offset_bits,
    )
    columns = cache.get(key)
    if columns is None:
        classes = _frontend_arrays(trace)[1]

        def registers(column, sentinel):
            regs = np.asarray(column, dtype=np.int64)
            return np.where(regs < 0, sentinel, regs)

        is_fp = (classes == 2) | (classes == 3)
        fp_rank = np.cumsum(is_fp) - 1
        int_rank = np.cumsum(~is_fp) - 1
        columns = tuple(
            np.ascontiguousarray(column, dtype=np.int64)
            for column in (
                classes,
                registers(trace.src1, READ_SENTINEL),
                registers(trace.src2, READ_SENTINEL),
                registers(trace.dest, WRITE_SENTINEL),
                np.arange(len(classes)) % config.rob_entries,
                np.where(
                    is_fp,
                    fp_rank % config.iq_fp_entries,
                    int_rank % config.iq_int_entries,
                ),
                np.asarray(trace.mem_addr, dtype=np.int64) >> d_offset_bits,
            )
        )
        cache[key] = columns
    return columns


def _schedule_key(
    config: PipelineConfig, offset_bits: int, measure_from: int, n: int
) -> tuple:
    return (
        config.gshare_history_bits,
        config.ras_entries,
        config.line_predictor_entries,
        config.fetch_width,
        offset_bits,
        measure_from,
        n,
    )


def _frontend_arrays(trace: Trace) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """(pc, iclass, taken) as arrays — the columns the front end consumes,
    converted once and memoised on the trace (shared by the content digest
    and the vectorised schedule builder)."""
    cached = trace.__dict__.get("_frontend_arrays")
    if cached is None:
        cached = (
            np.asarray(trace.pc, dtype=np.int64),
            np.asarray(trace.iclass, dtype=np.int64),
            np.asarray(trace.taken, dtype=np.bool_),
        )
        trace._frontend_arrays = cached
    return cached


def _frontend_masks(trace: Trace) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """(branch_pos, callret_pos, is_mem) — class-derived index/mask arrays
    the schedule builder consumes, memoised on the trace."""
    cached = trace.__dict__.get("_frontend_masks")
    if cached is None:
        classes = _frontend_arrays(trace)[1]
        cached = (
            np.flatnonzero(classes == 6),
            np.flatnonzero(classes > 6),
            (classes == 4) | (classes == 5),
        )
        trace._frontend_masks = cached
    return cached


def _frontend_lines(trace: Trace, offset_bits: int) -> "tuple[np.ndarray, np.ndarray]":
    """(lines, raw_change) for one I-line geometry: the fetch line of each
    instruction and where it differs from its predecessor (the
    predictor-independent part of the I-access points).  Memoised on the
    trace per ``offset_bits``."""
    cache = trace.__dict__.get("_frontend_lines")
    if cache is None:
        cache = {}
        trace._frontend_lines = cache
    entry = cache.get(offset_bits)
    if entry is None:
        lines = _frontend_arrays(trace)[0] >> offset_bits
        raw_change = np.empty(len(lines), dtype=np.bool_)
        if len(lines):
            raw_change[0] = True
            np.not_equal(lines[1:], lines[:-1], out=raw_change[1:])
        entry = (lines, raw_change)
        cache[offset_bits] = entry
    return entry


def _trace_content_digest(trace: Trace) -> str:
    """Content hash of the trace columns the front end consumes (pc,
    class, taken) — memoised on the trace object."""
    digest = trace.__dict__.get("_frontend_digest")
    if digest is None:
        pcs, classes, takens = _frontend_arrays(trace)
        hasher = hashlib.sha256()
        hasher.update(pcs.tobytes())
        hasher.update(classes.tobytes())
        hasher.update(takens.tobytes())
        digest = hasher.hexdigest()
        trace._frontend_digest = digest
    return digest


def schedule_cache_dir(trace: Trace) -> str | None:
    """Where this trace's schedules persist: the provider-stamped
    directory if any, else ``$REPRO_TRACE_CACHE``, else nowhere."""
    stamped = trace.__dict__.get("_schedule_cache_dir")
    if stamped:
        return os.fspath(stamped)
    return os.environ.get(SCHEDULE_CACHE_ENV) or None


def schedule_disk_key(
    trace: Trace, config: PipelineConfig, offset_bits: int, measure_from: int
) -> str:
    """Stable content hash of one persisted schedule."""
    payload = {
        "schema": SCHEDULE_SCHEMA_VERSION,
        "trace": _trace_content_digest(trace),
        "n": len(trace),
        "gshare_history_bits": config.gshare_history_bits,
        "ras_entries": config.ras_entries,
        "line_predictor_entries": config.line_predictor_entries,
        "fetch_width": config.fetch_width,
        "offset_bits": offset_bits,
        "measure_from": measure_from,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: FrontEndSchedule fields persisted as integer arrays / scalars; the
#: remaining three (gshare_table, ras_stack, lp_table) need type fix-ups.
#: The array fields are also the lane kernel's schedule columns.
_ARRAY_FIELDS = (
    "static_fetch",
    "iaccess_index",
    "iaccess_line",
    "redirect_index",
    "redirect_static_next",
)
_SCALAR_FIELDS = (
    "gshare_predictions",
    "gshare_mispredictions",
    "ras_pushes",
    "ras_pops",
    "ras_mispredictions",
    "lp_lookups",
    "lp_misses",
    "iaccess_measured",
    "daccess_measured",
    "gshare_history",
)


def schedule_columns(schedule: FrontEndSchedule) -> tuple[np.ndarray, ...]:
    """The schedule's per-instruction and sparse columns, in
    :data:`_ARRAY_FIELDS` order, as contiguous int64 arrays — the lane
    kernel's view of a schedule, memoised on it."""
    cached = schedule.__dict__.get("_lane_columns")
    if cached is None:
        cached = tuple(
            np.ascontiguousarray(getattr(schedule, name), dtype=np.int64)
            for name in _ARRAY_FIELDS
        )
        schedule.__dict__["_lane_columns"] = cached
    return cached


def save_schedule(schedule: FrontEndSchedule, path_or_file) -> None:
    """Persist a schedule as ``.npz`` (arrays + scalars + predictor
    end-state)."""
    payload: dict[str, np.ndarray] = {
        "schema": np.int64(SCHEDULE_SCHEMA_VERSION),
        "gshare_table": np.frombuffer(schedule.gshare_table, dtype=np.uint8),
        "ras_stack": np.asarray(schedule.ras_stack, dtype=np.int64),
        "lp_table": np.asarray(schedule.lp_table, dtype=np.int64),
    }
    for name in _ARRAY_FIELDS:
        payload[name] = np.asarray(getattr(schedule, name), dtype=np.int64)
    for name in _SCALAR_FIELDS:
        payload[name] = np.int64(getattr(schedule, name))
    np.savez_compressed(path_or_file, **payload)


def load_schedule(path: str) -> FrontEndSchedule:
    """Inverse of :func:`save_schedule` (raises on malformed input)."""
    with np.load(path) as data:
        if int(data["schema"]) != SCHEDULE_SCHEMA_VERSION:
            raise ValueError("schedule schema mismatch")
        kwargs: dict = {
            "gshare_table": data["gshare_table"].tobytes(),
            "ras_stack": tuple(data["ras_stack"].tolist()),
            "lp_table": tuple(data["lp_table"].tolist()),
        }
        for name in _ARRAY_FIELDS:
            if name == "static_fetch":  # consumed as an array: no convert
                kwargs[name] = data[name]
            else:
                kwargs[name] = data[name].tolist()
        for name in _SCALAR_FIELDS:
            kwargs[name] = int(data[name])
    return FrontEndSchedule(**kwargs)


def _load_schedule_entry(path: str) -> FrontEndSchedule | None:
    """Load a persisted schedule; discard and remove a corrupt entry."""
    if not os.path.exists(path):
        return None
    try:
        schedule = load_schedule(path)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        SCHEDULE_CACHE_STATS["discarded"] += 1
        try:
            os.remove(path)
        except OSError:
            pass
        return None
    SCHEDULE_CACHE_STATS["loaded"] += 1
    return schedule


def _persist_schedule(schedule: FrontEndSchedule, directory: str, path: str) -> None:
    """Atomic write (temp + rename), best-effort like the trace cache."""
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".sched-", suffix=".npz.tmp"
        )
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            save_schedule(schedule, fh)
        os.replace(tmp_path, path)
        SCHEDULE_CACHE_STATS["persisted"] += 1
    except Exception:
        try:
            os.remove(tmp_path)
        except OSError:
            pass


def frontend_schedule(
    trace: Trace,
    config: PipelineConfig,
    offset_bits: int,
    measure_from: int,
) -> FrontEndSchedule:
    """The memoised schedule for this trace/front-end combination,
    backed by the persistent schedule cache when one is configured."""
    cache = trace.__dict__.get(_CACHE_ATTR)
    if cache is None:
        cache = {}
        setattr(trace, _CACHE_ATTR, cache)
    key = _schedule_key(config, offset_bits, measure_from, len(trace))
    schedule = cache.get(key)
    if schedule is None:
        directory = schedule_cache_dir(trace)
        path = None
        if directory:
            disk_key = schedule_disk_key(trace, config, offset_bits, measure_from)
            path = os.path.join(directory, f"{_SCHED_PREFIX}{disk_key}.npz")
            schedule = _load_schedule_entry(path)
        if schedule is None:
            schedule = _build_schedule(trace, config, offset_bits, measure_from)
            if path is not None:
                _persist_schedule(schedule, directory, path)
        cache[key] = schedule
    return schedule


def _build_schedule(
    trace: Trace,
    config: PipelineConfig,
    offset_bits: int,
    measure_from: int,
) -> FrontEndSchedule:
    """Compile the schedule array-at-a-time.

    The per-instruction replay (kept as :func:`_build_schedule_reference`,
    the bit-identity twin) walks every instruction in Python.  This builder
    observes that almost everything is data-parallel:

    * gshare's *history* register never sees predictions — it is a pure
      function of the taken-bit stream — so every table index vectorises;
      only the saturating-counter updates stay sequential, and only over
      control-flow instructions (a small fraction of the trace);
    * fetch-slot bookkeeping is a segmented counter: slots reset at line
      changes and after taken/redirecting control flow, so fetch-width
      overflow bumps fall out of a ``maximum.accumulate`` over segment
      starts plus a modulo;
    * ``static_fetch`` is then two cumulative sums (overflow bumps plus
      line-predictor bubbles shifted by one instruction).

    Output is field-for-field identical to the reference loop, so the
    persisted ``.npz`` cache entries stay byte-identical.
    """
    n = len(trace)
    if n == 0:
        empty = _build_schedule_reference(trace, config, offset_bits, measure_from)
        empty.static_fetch = np.asarray(empty.static_fetch, dtype=np.int64)
        return empty

    pcs, classes, takens = _frontend_arrays(trace)
    lines, raw_change = _frontend_lines(trace, offset_bits)
    branch_pos, cr_pos, is_mem = _frontend_masks(trace)
    fetch_width = config.fetch_width
    # The reference resets measured-region stats at ``i == measure_from``
    # only when ``0 < measure_from < n``; at or past the end it never fires.
    reset_from = measure_from if 0 < measure_from < n else 0

    # ---- gshare: indices vectorise, counter chains scan in parallel -----
    n_branches = len(branch_pos)
    hist_bits = config.gshare_history_bits
    hist_mask = (1 << hist_bits) - 1
    b_taken = takens[branch_pos]
    t_bits = b_taken.astype(np.int32)
    # history before branch k: bit b is the outcome of branch k-1-b
    # (gshare's history register never observes predictions).
    hist = np.zeros(n_branches, dtype=np.int32)
    for b in range(min(hist_bits, n_branches)):
        hist[b + 1 :] |= t_bits[: n_branches - b - 1] << b
    g_idx = ((pcs[branch_pos] >> 2) & hist_mask).astype(np.int32) ^ hist
    # A saturating counter step is a clamp-add map s -> min(max(s+a,lo),hi)
    # (taken: a=+1, hi=3; not-taken: a=-1, lo=0), and clamp-add maps are
    # closed under composition — so each table entry's update chain is an
    # associative scan.  Stable-sort branches by table index, then run a
    # segmented Hillis-Steele doubling scan over (a, lo, hi) prefixes:
    # O(log max-chain) vector passes replace the per-branch Python walk.
    order = np.argsort(g_idx, kind="stable")
    gi = g_idx[order]
    gt = b_taken[order]
    chain_start = np.empty(n_branches, dtype=np.bool_)
    mis = np.zeros(n_branches, dtype=np.bool_)
    if n_branches:
        chain_start[0] = True
        np.not_equal(gi[1:], gi[:-1], out=chain_start[1:])
        ordinals = np.arange(n_branches, dtype=np.int32)
        gstart = np.maximum.accumulate(np.where(chain_start, ordinals, -1))
        BIG = 1 << 20  # beyond any reachable |prefix sum|, so "no bound"
        acc_a = np.where(gt, 1, -1).astype(np.int32)
        acc_lo = np.where(gt, -BIG, 0).astype(np.int32)
        acc_hi = np.where(gt, 3, BIG).astype(np.int32)
        chain_len = np.diff(np.append(np.flatnonzero(chain_start), n_branches))
        max_chain = int(chain_len.max())
        span = 1
        while span < max_chain:
            # element k combines with k-span iff both lie in one chain;
            # ordinals[span:] - span is just ordinals[:-span] by value.
            ok = gstart[span:] <= ordinals[:-span]
            a1, lo1, hi1 = acc_a[:-span], acc_lo[:-span], acc_hi[:-span]
            a2, lo2, hi2 = acc_a[span:], acc_lo[span:], acc_hi[span:]
            # (later ∘ earlier): a=a1+a2, lo=max(lo1+a2, lo2),
            # hi=min(max(hi1+a2, lo2), hi2); evaluate maps max-then-min.
            new_a = np.where(ok, a1 + a2, a2)
            new_lo = np.where(ok, np.maximum(lo1 + a2, lo2), lo2)
            new_hi = np.where(
                ok, np.minimum(np.maximum(hi1 + a2, lo2), hi2), hi2
            )
            acc_a = np.concatenate([acc_a[:span], new_a])
            acc_lo = np.concatenate([acc_lo[:span], new_lo])
            acc_hi = np.concatenate([acc_hi[:span], new_hi])
            span *= 2
        # counter AFTER branch k = its inclusive chain prefix applied to
        # the weakly-taken initial state 2; the predicting state is the
        # previous chain element's (2 at each chain head).
        s_after = np.minimum(np.maximum(acc_a + 2, acc_lo), acc_hi)
        s_before = np.empty(n_branches, dtype=np.int32)
        s_before[0] = 2
        s_before[1:] = s_after[:-1]
        s_before[chain_start] = 2
        mis[order] = (s_before >= 2) != gt
    mis_ord = np.flatnonzero(mis)
    gshare_table_arr = np.full(1 << hist_bits, 2, dtype=np.uint8)
    if n_branches:
        chain_last = np.empty(n_branches, dtype=np.bool_)
        chain_last[-1] = True
        chain_last[:-1] = chain_start[1:]
        gshare_table_arr[gi[chain_last]] = s_after[chain_last]
    # Final history: the last ``hist_bits`` outcomes, oldest first.
    gshare_history = 0
    for taken in b_taken[-hist_bits:].tolist():
        gshare_history = ((gshare_history << 1) | taken) & hist_mask
    # Measured-region stats by ordinal: counters only move at branches, so
    # the reference's reset at ``i == reset_from`` is an ordinal split.
    b_split = int(np.searchsorted(branch_pos, reset_from))
    g_pred = n_branches - b_split
    g_mis = len(mis_ord) - int(np.searchsorted(mis_ord, b_split))

    # ---- line predictor: fully vectorised -------------------------------
    # The LP table entry for an index is simply the *last target line* a
    # correctly-predicted taken branch wrote there (a hit rewrites the
    # same value), so misses reduce to neighbour compares after a stable
    # sort by table index, and the trained table is each group's last row.
    correct = np.ones(n_branches, dtype=np.bool_)
    correct[mis_ord] = False
    ct_mask = correct & b_taken
    ct_ord = np.flatnonzero(ct_mask)
    ct_pos = branch_pos[ct_ord]
    lp_mask = config.line_predictor_entries - 1
    ct_li = ((pcs[ct_pos] >> 2) & lp_mask).astype(np.int32)
    # target line of branch i: the line of instruction i+1 (own at end).
    ct_next = np.minimum(ct_pos + 1, n - 1)
    ct_tgt = lines[ct_next]
    order = np.argsort(ct_li, kind="stable")
    sli = ct_li[order]
    stgt = ct_tgt[order]
    miss_sorted = np.empty(len(order), dtype=np.bool_)
    if len(order):
        miss_sorted[0] = True
        np.not_equal(sli[1:], sli[:-1], out=miss_sorted[1:])
        miss_sorted[1:] |= stgt[1:] != stgt[:-1]
    lp_miss = np.empty_like(miss_sorted)
    lp_miss[order] = miss_sorted
    lp_table_arr = np.full(config.line_predictor_entries, -1, dtype=np.int64)
    if len(order):
        group_last = np.empty(len(order), dtype=np.bool_)
        group_last[-1] = True
        np.not_equal(sli[1:], sli[:-1], out=group_last[:-1])
        lp_table_arr[sli[group_last]] = stgt[group_last]
    ct_split = int(np.searchsorted(ct_pos, reset_from))
    lp_lookups = len(ct_pos) - ct_split
    lp_misses = int(np.count_nonzero(lp_miss[ct_split:]))

    # ---- return-address stack: sequential, but calls/returns are rare ---
    cr_call = classes[cr_pos] == 7
    # call pushes pc+4; a return checks against the next pc (pc+4 at end).
    cr_val = np.where(
        cr_call, pcs[cr_pos] + 4, pcs[np.minimum(cr_pos + 1, n - 1)]
    )
    if len(cr_pos) and cr_pos[-1] == n - 1 and not cr_call[-1]:
        cr_val[-1] = pcs[-1] + 4
    ras_entries = config.ras_entries
    ras_stack: list[int] = []
    ras_mis_pos: list[int] = []
    for i, call, val in zip(cr_pos.tolist(), cr_call.tolist(), cr_val.tolist()):
        if call:
            if len(ras_stack) == ras_entries:
                ras_stack.pop(0)
            ras_stack.append(val)
        elif not (ras_stack and ras_stack.pop() == val):
            ras_mis_pos.append(i)
    # Measured-region counts by position (counters only move here).
    cr_split = int(np.searchsorted(cr_pos, reset_from))
    ras_pushes = int(np.count_nonzero(cr_call[cr_split:]))
    ras_pops = len(cr_pos) - cr_split - ras_pushes
    ras_mis_arr = np.asarray(ras_mis_pos, dtype=np.int64)
    ras_mis = len(ras_mis_pos) - int(np.searchsorted(ras_mis_arr, reset_from))

    # ---- redirect / bubble flags over the whole trace -------------------
    redirect = np.zeros(n, dtype=np.bool_)
    redirect[branch_pos[mis_ord]] = True
    redirect[ras_mis_arr] = True
    lp_bubble = np.zeros(n, dtype=np.bool_)
    lp_bubble[ct_pos[lp_miss]] = True  # taken-branch fetch bubble

    # ---- vectorised fetch-group / static-offset assembly ----------------
    # cur_line resets to -1 after a redirect, forcing a line change there.
    change = raw_change.copy()
    change[1:] |= redirect[:-1]
    # fetch_slot resets after calls, returns, and taken or redirecting
    # branches (a correctly-predicted not-taken branch keeps the slot).
    # Scatter over the (sparse) control-flow points instead of composing
    # dense class masks.
    start = change.copy()
    start_tail = start[1:]
    cr_head = cr_pos[cr_pos < n - 1]
    start_tail[cr_head] = True
    b_reset = branch_pos[b_taken | mis]
    start_tail[b_reset[b_reset < n - 1]] = True
    idx = np.arange(n, dtype=np.int32)
    seg_start = np.maximum.accumulate(np.where(start, idx, -1))
    slot = idx - seg_start
    if fetch_width & (fetch_width - 1) == 0:
        bump = (slot > 0) & (slot & (fetch_width - 1) == 0)
    else:
        bump = (slot > 0) & (slot % fetch_width == 0)
    contrib = bump.astype(np.int8)
    contrib[1:] += lp_bubble[:-1]  # a bubble lands after its own slot
    static = np.cumsum(contrib, dtype=np.int32)

    iaccess_idx = np.flatnonzero(change)
    redirect_idx = np.flatnonzero(redirect)
    iaccess_index = iaccess_idx.tolist()
    redirect_index = redirect_idx.tolist()
    next_static = static[np.minimum(redirect_idx + 1, n - 1)]
    iaccess_measured = int(np.count_nonzero(change[reset_from:]))
    daccess_measured = int(np.count_nonzero(is_mem[reset_from:]))
    iaccess_index.append(n)
    redirect_index.append(n)

    return FrontEndSchedule(
        static_fetch=static,
        iaccess_index=iaccess_index,
        iaccess_line=lines[iaccess_idx].tolist(),
        redirect_index=redirect_index,
        redirect_static_next=next_static.tolist(),
        gshare_predictions=g_pred,
        gshare_mispredictions=g_mis,
        ras_pushes=ras_pushes,
        ras_pops=ras_pops,
        ras_mispredictions=ras_mis,
        lp_lookups=lp_lookups,
        lp_misses=lp_misses,
        iaccess_measured=iaccess_measured,
        daccess_measured=daccess_measured,
        gshare_table=gshare_table_arr.tobytes(),
        gshare_history=gshare_history,
        ras_stack=tuple(ras_stack),
        lp_table=tuple(lp_table_arr.tolist()),
    )


def _build_schedule_reference(
    trace: Trace,
    config: PipelineConfig,
    offset_bits: int,
    measure_from: int,
) -> FrontEndSchedule:
    """Replay the front end over the trace (mirror of the generic loop's
    fetch and control-flow sections, minus everything timing-dependent).

    Per-instruction twin of the vectorised :func:`_build_schedule` — kept
    as the bit-identity oracle the equivalence tests compare against."""
    gshare = GsharePredictor(config.gshare_history_bits)
    ras = ReturnAddressStack(config.ras_entries)
    lp = LinePredictor(config.line_predictor_entries)
    predict_branch = gshare.predict_and_update
    lp_check = lp.predict_and_update
    ras_push = ras.push
    ras_pop = ras.pop_and_check

    pcs = trace.pc
    classes = trace.iclass
    takens = trace.taken
    n = len(pcs)
    fetch_width = config.fetch_width

    static_fetch = [0] * n
    iaccess_index: list[int] = []
    iaccess_line: list[int] = []
    redirect_index: list[int] = []

    fetch_static = 0
    fetch_slot = 0
    cur_line = -1
    iaccess_measured = 0
    daccess_measured = 0

    for i in range(n):
        if i == measure_from and i > 0:
            gshare.predictions = 0
            gshare.mispredictions = 0
            ras.pops = 0
            ras.pushes = 0
            ras.mispredictions = 0
            lp.lookups = 0
            lp.misses = 0
            iaccess_measured = 0
            daccess_measured = 0
        pc = pcs[i]
        cls = classes[i]
        if cls == 4 or cls == 5:  # LOAD / STORE: one D-cache access each
            daccess_measured += 1

        line = pc >> offset_bits
        if line != cur_line:
            cur_line = line
            iaccess_index.append(i)
            iaccess_line.append(line)
            iaccess_measured += 1
            fetch_slot = 0
        if fetch_slot >= fetch_width:
            fetch_static += 1
            fetch_slot = 0
        fetch_slot += 1

        static_fetch[i] = fetch_static

        if cls > 5:
            if cls == 6:  # BRANCH
                taken = takens[i]
                if not predict_branch(pc, taken):
                    redirect_index.append(i)
                    fetch_slot = 0
                    cur_line = -1
                elif taken:
                    target_line = (pcs[i + 1] >> offset_bits) if i + 1 < n else line
                    if not lp_check(pc, target_line):
                        fetch_static += 1  # taken-branch fetch bubble
                    fetch_slot = 0
            elif cls == 7:  # CALL
                ras_push(pc + 4)
                fetch_slot = 0
            else:  # RETURN
                actual = pcs[i + 1] if i + 1 < n else pc + 4
                if not ras_pop(actual):
                    redirect_index.append(i)
                    fetch_slot = 0
                    cur_line = -1
                else:
                    fetch_slot = 0

    # Static offset right after each redirect (the redirected instruction
    # stream restarts a fetch group, so no bump lands between).
    redirect_static_next = [
        static_fetch[i + 1] if i + 1 < n else static_fetch[i]
        for i in redirect_index
    ]
    # Sentinels let the hot loop compare against a plain int forever.
    iaccess_index.append(n)
    redirect_index.append(n)

    return FrontEndSchedule(
        static_fetch=static_fetch,
        iaccess_index=iaccess_index,
        iaccess_line=iaccess_line,
        redirect_index=redirect_index,
        redirect_static_next=redirect_static_next,
        gshare_predictions=gshare.predictions,
        gshare_mispredictions=gshare.mispredictions,
        ras_pushes=ras.pushes,
        ras_pops=ras.pops,
        ras_mispredictions=ras.mispredictions,
        lp_lookups=lp.lookups,
        lp_misses=lp.misses,
        iaccess_measured=iaccess_measured,
        daccess_measured=daccess_measured,
        gshare_table=bytes(gshare._table),
        gshare_history=gshare._history,
        ras_stack=tuple(ras._stack),
        lp_table=tuple(lp._table),
    )
