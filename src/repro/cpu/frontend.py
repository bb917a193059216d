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

Predictor end-state is not kept: a kernel run leaves no pipeline state
behind.  Nor is any count of a measured region: the schedule covers the
whole trace, so one schedule serves every warmup, and a kernel pass
counts its own region's branches and accesses from these columns and the
trace's classes (each redirect is one misprediction).

The schedule is the one per-instruction array built for the kernel.
Beside it the kernel reads the trace's own columns in place, and what
else it needs per instruction (ROB and issue-queue slots, D-cache
blocks) it computes inline (see :mod:`repro.cpu.lane_kernel`).

Schedules are memoised on the trace object keyed by the front-end
parameters alone, so campaign runs (one trace x many fault maps x many
configurations) replay the front end once, not per simulation.

Every array field is a contiguous int64 array, and construction checks
what the kernel relies on: each sparse index column is strictly
increasing, lies in ``[0, n)`` and ends with the sentinel ``n``, and its
companion column is one shorter.  The vectorised builder emits its columns as
arrays with no ``tolist`` round trip.

Persistent schedule cache
-------------------------
Parallel campaign workers each replay the front end in their own process
— per benchmark, per worker, even when every *trace* comes from the
persistent trace cache.  A trace provider with a cache directory stamps
it on the traces it serves (``trace._schedule_cache_dir``, the one route
to a schedule directory), and built schedules of those traces persist
next to the cached traces as ``sched-<key>.npz``, keyed by a content
hash of the trace columns the front end consumes (pc, class, taken) plus
the front-end parameters; a trace built outside a provider persists
none.  Workers and later sessions then load the compiled schedule
instead of re-replaying.  Entries are raw
``.npz`` archives of six int64 members — the five columns and a
one-element ``schema`` member — written atomically; a torn entry, or
one the loader refuses (other members than those six, a member not
stored as int64, a ``schema`` other than this build's, a
``static_fetch`` without the trace's length, or an index column the
checks above reject), is discarded and rebuilt, through the same writer
and reader as the trace cache (:mod:`repro.cpu.diskcache`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from repro.cpu.branch import GsharePredictor, LinePredictor, ReturnAddressStack
from repro.cpu.config import PipelineConfig
from repro.cpu.diskcache import SCHEDULE_TMP_PREFIX, read_entry, read_members, write_entry
from repro.cpu.trace import Trace

#: Attribute used to memoise schedules on the trace object.
_CACHE_ATTR = "_frontend_schedules"

#: Bump when FrontEndSchedule's layout or semantics change incompatibly.
SCHEDULE_SCHEMA_VERSION = 3

#: Persistent entries are ``sched-<key>.npz`` beside the cached traces.
_SCHED_PREFIX = "sched-"

#: Module-level cache-activity counters (CLI summaries and tests).
SCHEDULE_CACHE_STATS = {"loaded": 0, "persisted": 0, "discarded": 0}


@dataclass(eq=False)
class FrontEndSchedule:
    """Compiled front-end behaviour of one (trace, front-end config).

    The five fields accept any integer sequence and are held as
    contiguous int64 arrays; construction raises ``ValueError`` when an
    index column could lead the kernel outside its companion column."""

    # --- per-instruction -----------------------------------------------------
    static_fetch: np.ndarray
    # --- sparse events (index columns end with a sentinel of n) -------------
    iaccess_index: np.ndarray
    iaccess_line: np.ndarray
    redirect_index: np.ndarray
    redirect_static_next: np.ndarray

    def __post_init__(self) -> None:
        for name in _ARRAY_FIELDS:
            column = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            if column.ndim != 1:
                raise ValueError(f"schedule column {name} is not 1-D")
            setattr(self, name, column)
        n = len(self.static_fetch)
        for index, companion in (
            ("iaccess_index", "iaccess_line"),
            ("redirect_index", "redirect_static_next"),
        ):
            column = getattr(self, index)
            if not (
                len(column)
                and column[0] >= 0
                and column[-1] == n
                and np.all(column[1:] > column[:-1])
                and len(getattr(self, companion)) == len(column) - 1
            ):
                raise ValueError(
                    f"schedule column {index} is not strictly increasing in [0, {n}) "
                    f"with the sentinel {n}, or {companion} is not one shorter"
                )

    def __eq__(self, other: object):
        if not isinstance(other, FrontEndSchedule):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _ARRAY_FIELDS
        )


#: FrontEndSchedule's fields, each persisted as its own member.
_ARRAY_FIELDS = tuple(f.name for f in fields(FrontEndSchedule))


def _schedule_key(config: PipelineConfig, offset_bits: int, n: int) -> tuple:
    return (
        config.gshare_history_bits,
        config.ras_entries,
        config.line_predictor_entries,
        config.fetch_width,
        offset_bits,
        n,
    )


def _trace_content_digest(trace: Trace) -> str:
    """Content hash of the trace columns the front end consumes (pc,
    class, taken) — memoised on the trace object.  Classes are hashed as
    int64, the layout every persisted key was computed from."""
    digest = trace.__dict__.get("_frontend_digest")
    if digest is None:
        hasher = hashlib.sha256()
        hasher.update(trace.pc.tobytes())
        hasher.update(trace.iclass.astype(np.int64).tobytes())
        hasher.update(trace.taken.tobytes())
        digest = hasher.hexdigest()
        trace._frontend_digest = digest
    return digest


def schedule_cache_dir(trace: Trace) -> str | None:
    """Where this trace's schedules persist: the provider-stamped
    directory if any, else nowhere."""
    stamped = trace.__dict__.get("_schedule_cache_dir")
    return os.fspath(stamped) if stamped else None


def schedule_disk_key(trace: Trace, config: PipelineConfig, offset_bits: int) -> str:
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
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_schedule(schedule: FrontEndSchedule, path_or_file) -> None:
    """Persist a schedule as an uncompressed ``.npz``: the five columns
    and the ``schema`` member (see :mod:`repro.cpu.diskcache`)."""
    np.savez(
        path_or_file,
        schema=np.array([SCHEDULE_SCHEMA_VERSION], dtype=np.int64),
        **{name: getattr(schedule, name) for name in _ARRAY_FIELDS},
    )


def load_schedule(path: str, n: int) -> FrontEndSchedule:
    """Inverse of :func:`save_schedule` for a trace of ``n`` instructions;
    also reads compressed archives.  Raises ``ValueError`` unless the
    members are the five columns and ``schema``, each stored as int64,
    ``schema`` holds this build's schema number alone, ``static_fetch``
    has ``n`` rows and the index columns pass
    :class:`FrontEndSchedule`'s checks."""
    data = read_members(path)
    if sorted(data) != sorted((*_ARRAY_FIELDS, "schema")):
        raise ValueError(f"schedule members are {sorted(data)}")
    for name, member in data.items():
        if member.dtype != np.int64:
            raise ValueError(f"schedule member {name!r} is stored as {member.dtype}")
    if data["schema"].tolist() != [SCHEDULE_SCHEMA_VERSION]:
        raise ValueError(f"schedule schema {data['schema'].tolist()} is not this build's")
    schedule = FrontEndSchedule(**{name: data[name] for name in _ARRAY_FIELDS})
    if len(schedule.static_fetch) != n:
        raise ValueError(f"schedule has {len(schedule.static_fetch)} rows, not {n}")
    return schedule


def frontend_schedule(
    trace: Trace, config: PipelineConfig, offset_bits: int
) -> FrontEndSchedule:
    """The memoised schedule for this trace/front-end combination,
    backed by the persistent schedule cache when one is configured."""
    cache = trace.__dict__.get(_CACHE_ATTR)
    if cache is None:
        cache = {}
        setattr(trace, _CACHE_ATTR, cache)
    key = _schedule_key(config, offset_bits, len(trace))
    schedule = cache.get(key)
    if schedule is None:
        directory = schedule_cache_dir(trace)
        path = None
        if directory:
            disk_key = schedule_disk_key(trace, config, offset_bits)
            path = os.path.join(directory, f"{_SCHED_PREFIX}{disk_key}.npz")
            schedule, discarded = read_entry(
                path, lambda entry: load_schedule(entry, len(trace))
            )
            SCHEDULE_CACHE_STATS["discarded"] += discarded
            SCHEDULE_CACHE_STATS["loaded"] += schedule is not None
        if schedule is None:
            schedule = _build_schedule(trace, config, offset_bits)
            if path is not None and write_entry(
                path, lambda fh: save_schedule(schedule, fh), SCHEDULE_TMP_PREFIX
            ):
                SCHEDULE_CACHE_STATS["persisted"] += 1
        cache[key] = schedule
    return schedule


def _build_schedule(
    trace: Trace, config: PipelineConfig, offset_bits: int
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
        return _build_schedule_reference(trace, config, offset_bits)

    pcs, classes, takens = trace.pc, trace.iclass, trace.taken
    # The fetch line of each instruction, and where it differs from its
    # predecessor (the predictor-independent part of the I-access points;
    # redirects are added below).
    lines = pcs >> offset_bits
    change = np.empty(n, dtype=np.bool_)
    change[0] = True
    np.not_equal(lines[1:], lines[:-1], out=change[1:])
    branch_pos = np.flatnonzero(classes == 6)
    cr_pos = np.flatnonzero(classes > 6)
    fetch_width = config.fetch_width

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

    # ---- line predictor: fully vectorised -------------------------------
    # The LP table entry for an index is simply the *last target line* a
    # correctly-predicted taken branch wrote there (a hit rewrites the
    # same value), so misses reduce to neighbour compares after a stable
    # sort by table index.
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

    # ---- return-address stack: sequential, but calls/returns are rare ---
    cr_call = classes[cr_pos] == 7
    # call pushes pc+4; a return checks against the next pc (pc+4 at end).
    cr_val = np.where(
        cr_call, pcs[cr_pos] + 4, pcs[np.minimum(cr_pos + 1, n - 1)]
    )
    if len(cr_pos) and cr_pos[-1] == n - 1 and not cr_call[-1]:
        cr_val[-1] = pcs[-1] + 4
    ras_entries = config.ras_entries
    stack: list[int] = []
    ras_mis_pos: list[int] = []
    for i, call, val in zip(cr_pos.tolist(), cr_call.tolist(), cr_val.tolist()):
        if call:
            if len(stack) == ras_entries:
                stack.pop(0)
            stack.append(val)
        elif not (stack and stack.pop() == val):
            ras_mis_pos.append(i)

    # ---- redirect / bubble flags over the whole trace -------------------
    redirect = np.zeros(n, dtype=np.bool_)
    redirect[branch_pos[mis_ord]] = True
    redirect[ras_mis_pos] = True
    lp_bubble = np.zeros(n, dtype=np.bool_)
    lp_bubble[ct_pos[lp_miss]] = True  # taken-branch fetch bubble

    # ---- vectorised fetch-group / static-offset assembly ----------------
    # cur_line resets to -1 after a redirect, forcing a line change there.
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
    static = np.cumsum(contrib, dtype=np.int64)

    iaccess_idx = np.flatnonzero(change)
    redirect_idx = np.flatnonzero(redirect)

    return FrontEndSchedule(
        static_fetch=static,
        # Sentinels let the kernel compare against a plain int forever.
        iaccess_index=np.append(iaccess_idx, n),
        iaccess_line=lines[iaccess_idx],
        redirect_index=np.append(redirect_idx, n),
        redirect_static_next=static[np.minimum(redirect_idx + 1, n - 1)],
    )


def _build_schedule_reference(
    trace: Trace, config: PipelineConfig, offset_bits: int
) -> FrontEndSchedule:
    """Replay the front end over the trace (mirror of the generic loop's
    fetch and control-flow sections, minus everything timing-dependent).

    Per-instruction twin of the vectorised :func:`_build_schedule` — kept
    as the bit-identity oracle the equivalence tests compare against.  It
    walks ``tolist()`` views of the trace's columns."""
    gshare = GsharePredictor(config.gshare_history_bits)
    ras = ReturnAddressStack(config.ras_entries)
    lp = LinePredictor(config.line_predictor_entries)
    predict_branch = gshare.predict_and_update
    lp_check = lp.predict_and_update
    ras_push = ras.push
    ras_pop = ras.pop_and_check

    pcs = trace.pc.tolist()
    classes = trace.iclass.tolist()
    takens = trace.taken.tolist()
    n = len(pcs)
    fetch_width = config.fetch_width

    static_fetch = [0] * n
    iaccess_index: list[int] = []
    iaccess_line: list[int] = []
    redirect_index: list[int] = []

    fetch_static = 0
    fetch_slot = 0
    cur_line = -1

    for i in range(n):
        pc = pcs[i]
        cls = classes[i]

        line = pc >> offset_bits
        if line != cur_line:
            cur_line = line
            iaccess_index.append(i)
            iaccess_line.append(line)
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
    )
