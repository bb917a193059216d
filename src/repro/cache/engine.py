"""Fused simulation engine: a :class:`MemoryHierarchy` compiled to flat state.

The object model (:class:`~repro.cache.set_assoc.SetAssociativeCache`,
:class:`~repro.cache.hierarchy.CachePort`, victim cache, prefetcher) is the
*construction and verification substrate*: schemes configure it, tests
introspect it, and its semantics define correctness.  But driving it from
the pipeline costs a 3-5 deep Python call chain plus nested-list indexing
per simulated memory access — the dominant cost of campaign-scale runs.

:class:`FusedHierarchy` "compiles" a constructed hierarchy into flat-array
state and closures:

* per cache, the flat ``tags`` / ``dirty`` / ``last_touch`` /
  ``fill_time`` lists (indexed ``set * ways + way``, invalid ways encoded
  as tag -1 — the layout :class:`SetAssociativeCache` itself stores) are
  shared by reference, so compiling costs O(1) and cache contents never
  need a write-back; the hit probe is one C-speed slice membership test
  with no separate valid scan;
* per port, one closure services a demand access end to end — L1 probe,
  victim swap, L2, memory, fill, victim insertion, prefetch — with every
  piece of state bound in closure cells, no intermediate frames;
* statistics accumulate in plain lists (``counters[0]`` = accesses, ...)
  and are written back to the object model's :class:`CacheStats` by
  :meth:`FusedHierarchy.sync`, so ``hierarchy.stats()`` reports identically.

Bit-identity is the contract: cycles, hit/miss/eviction/writeback counts,
replacement decisions (including the seeded random policy, which consumes
the same RNG stream), and victim/prefetch behaviour all match the object
path exactly.  ``tests/integration/test_golden_sim.py`` and
``tests/cache/test_engine.py`` enforce this for every scheme and policy.

The engine covers the demand path the pipeline drives (lookup + fill);
out-of-band mutation (``invalidate``/``flush``) still belongs to the object
model — call :meth:`sync` first if the flat state has run.
"""

from __future__ import annotations

import numpy as np

from repro.cache.hierarchy import CachePort, MemoryHierarchy
from repro.cache.prefetch import NextLinePrefetcher
from repro.cache.replacement import FIFOPolicy, LRUPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.victim import VictimCache

# counters[] layout, shared by caches and victim caches (CacheStats order).
_ACCESSES, _HITS, _MISSES, _FILLS, _EVICTIONS, _BYPASSED, _WRITEBACKS = range(7)


class FlatCacheState:
    """Hot-loop view of one :class:`SetAssociativeCache`'s flat state.

    ``tags[set * ways + way]`` is the block's tag, or -1 for an invalid
    (or disabled) way — the layout the cache itself stores, shared by
    reference.  The replacement clock lives in a one-element list so port
    closures and the inlined pipeline hit path share one mutable cell.
    """

    __slots__ = (
        "cache",
        "ways",
        "set_mask",
        "tag_shift",
        "tags",
        "dirty",
        "last_touch",
        "fill_time",
        "resident",
        "clock",
        "counters",
        "usable",
        "fully_enabled",
        "policy",
        "policy_kind",
    )

    def __init__(self, cache: SetAssociativeCache) -> None:
        self.cache = cache
        geometry = cache.geometry
        self.ways = geometry.ways
        self.set_mask = geometry.num_sets - 1
        self.tag_shift = geometry.index_bits
        # The object cache already stores its state flat (same layout, same
        # package) — share the lists by reference, so compilation is O(1)
        # and cache contents need no write-back after a fused run.  Only
        # the scalar clock and the stats counters are mirrored (list cells
        # beat attribute access in the hot loop) and synced at run end.
        self.tags = cache._tags
        self.dirty = cache._dirty
        self.last_touch = cache._last_touch
        self.fill_time = cache._fill_time
        self.resident = cache._resident
        self.clock = [cache._clock]
        self.counters = [
            cache.stats.accesses,
            cache.stats.hits,
            cache.stats.misses,
            cache.stats.fills,
            cache.stats.evictions,
            cache.stats.bypassed_fills,
            cache.stats.writebacks,
        ]
        self.usable = cache._usable_ways  # read-only; relative way indices
        self.fully_enabled = cache._fully_enabled
        self.policy = cache._policy
        if type(self.policy) is LRUPolicy:
            self.policy_kind = 0
        elif type(self.policy) is FIFOPolicy:
            self.policy_kind = 1
        else:
            self.policy_kind = 2  # generic: delegate to the policy object

    # ----- write-back to the object model ----------------------------------

    def sync_stats(self) -> None:
        stats = self.cache.stats
        counters = self.counters
        stats.accesses = counters[_ACCESSES]
        stats.hits = counters[_HITS]
        stats.misses = counters[_MISSES]
        stats.fills = counters[_FILLS]
        stats.evictions = counters[_EVICTIONS]
        stats.bypassed_fills = counters[_BYPASSED]
        stats.writebacks = counters[_WRITEBACKS]

    def sync_state(self) -> None:
        """Write the scalar clock back (contents are shared by reference,
        so the object cache already reflects the fused run)."""
        self.cache._clock = self.clock[0]

    def make_fill(self):
        """Closure replicating ``SetAssociativeCache.fill`` on flat state.

        ``fill(block, tag, s, base, is_write)`` returns the evicted block
        address or None; callers pre-split the address (they already have
        the pieces from the lookup probe).
        """
        tags, dirty = self.tags, self.dirty
        last, fillt = self.last_touch, self.fill_time
        resident = self.resident
        clock, counters = self.clock, self.counters
        usable, ways = self.usable, self.ways
        fully = self.fully_enabled
        tag_shift = self.tag_shift
        policy, policy_kind = self.policy, self.policy_kind

        def fill(block, tag, s, base, is_write):
            c = clock[0] + 1
            clock[0] = c
            index = resident.get(block)
            if index is not None:
                # Refill of a resident block (unreachable from the demand
                # path, which always misses first): refresh in place,
                # mirroring SetAssociativeCache.fill.
                if is_write:
                    dirty[index] = True
                last[index] = c
                fillt[index] = c
                counters[_FILLS] += 1
                return None
            usable_s = usable[s]
            if not usable_s:
                counters[_BYPASSED] += 1
                return None
            victim_way = -1
            segment = tags[base : base + ways]
            if -1 in segment:
                if fully[s]:
                    victim_way = segment.index(-1)
                else:
                    for w in usable_s:
                        if tags[base + w] == -1:
                            victim_way = w
                            break
            evicted = None
            if victim_way < 0:
                if policy_kind == 0:  # LRU: first way with minimal last_touch
                    if fully[s]:
                        # All ways usable: C-speed min + first-occurrence
                        # index replicate min()'s first-minimum tie-break.
                        row = last[base : base + ways]
                        victim_way = row.index(min(row))
                    else:
                        victim_way = usable_s[0]
                        best = last[base + victim_way]
                        for w in usable_s:
                            t = last[base + w]
                            if t < best:
                                best = t
                                victim_way = w
                elif policy_kind == 1:  # FIFO: first way with minimal fill_time
                    if fully[s]:
                        row = fillt[base : base + ways]
                        victim_way = row.index(min(row))
                    else:
                        victim_way = usable_s[0]
                        best = fillt[base + victim_way]
                        for w in usable_s:
                            t = fillt[base + w]
                            if t < best:
                                best = t
                                victim_way = w
                else:
                    # Generic policies see the same way-indexed views the
                    # object path passes (slices are cheap; evictions are
                    # the rare path).
                    victim_way = policy.victim(
                        list(usable_s),
                        last[base : base + ways],
                        fillt[base : base + ways],
                    )
                index = base + victim_way
                evicted = (tags[index] << tag_shift) | s
                del resident[evicted]
                if dirty[index]:
                    counters[_WRITEBACKS] += 1
                counters[_EVICTIONS] += 1
            index = base + victim_way
            tags[index] = tag
            resident[block] = index
            dirty[index] = is_write
            last[index] = c
            fillt[index] = c
            counters[_FILLS] += 1
            return evicted

        return fill


class FusedPort:
    """One compiled port: the closure plus its inline-probe ingredients."""

    __slots__ = (
        "access",
        "miss",
        "l1",
        "victim_tags",
        "victim_counters",
        "memory_accesses",
        "prefetch_counters",
        "can_inline_hits",
    )


def _compile_port(
    port: CachePort, l1: FlatCacheState, l2: FlatCacheState
) -> FusedPort:
    """Compile one :class:`CachePort` against shared flat L2 state."""
    fused = FusedPort()
    fused.l1 = l1
    fused.memory_accesses = [port.memory_accesses]

    l1_lat = port.l1_latency
    victim_lat = port.victim_latency
    l2_lat = port.l2_latency
    memory_lat = port.memory_latency

    l1_tags, l1_dirty, l1_last = l1.tags, l1.dirty, l1.last_touch
    l1_resident = l1.resident
    l1_clock, l1_counters = l1.clock, l1.counters
    l1_mask, l1_tag_shift, l1_ways = l1.set_mask, l1.tag_shift, l1.ways
    fill_l1 = l1.make_fill()

    l2_resident = l2.resident
    l2_last = l2.last_touch
    l2_clock, l2_counters = l2.clock, l2.counters
    fill_l2 = l2.make_fill()
    l2_mask, l2_tag_shift, l2_ways = l2.set_mask, l2.tag_shift, l2.ways

    memory_accesses = fused.memory_accesses

    victim = port.victim
    victim_present = victim is not None
    if victim_present:
        victim_tags = victim._tags  # flat already; mutated in place
        victim_entries = victim.entries
        victim_counters = [
            victim.stats.accesses,
            victim.stats.hits,
            victim.stats.misses,
            victim.stats.fills,
            victim.stats.evictions,
            victim.stats.bypassed_fills,
            victim.stats.writebacks,
        ]
    else:
        victim_tags = None
        victim_entries = 0
        victim_counters = None
    fused.victim_tags = victim_tags
    fused.victim_counters = victim_counters

    prefetcher = port.prefetcher
    fused.can_inline_hits = prefetcher is None
    if prefetcher is not None:
        prefetch_counters = [prefetcher.stats.issued, prefetcher.stats.useful]
        tagged = prefetcher._tagged  # mutated in place
        degree = prefetcher.degree
    else:
        prefetch_counters = None
    fused.prefetch_counters = prefetch_counters

    def victim_insert(block):
        # VictimCache.insert: dedup, evict LRU (head) on overflow, append MRU.
        if victim_entries == 0:
            return
        if block in victim_tags:
            victim_tags.remove(block)
        elif len(victim_tags) >= victim_entries:
            victim_tags.pop(0)
            victim_counters[_EVICTIONS] += 1
        victim_tags.append(block)
        victim_counters[_FILLS] += 1

    if prefetcher is not None:

        def prefetch_issue(block):
            for i in range(1, degree + 1):
                target = block + i
                if target in l1_resident:  # contains()
                    continue
                s = target & l1_mask
                base = s * l1_ways
                tag = target >> l1_tag_shift
                fill_l1(target, tag, s, base, False)
                tagged.add(target)
                prefetch_counters[0] += 1

        def prefetch_hit(block):
            if block in tagged:
                tagged.discard(block)
                prefetch_counters[1] += 1
                prefetch_issue(block)

    l1_fully = l1.fully_enabled
    l1_fill_time = l1.fill_time
    # The common L1 fill (fully-enabled set, LRU) is inlined below; thinned
    # sets and non-LRU policies take the generic closure.
    l1_inline_fill = l1.policy_kind == 0

    def miss(block, is_write):
        """Service an L1 demand miss (the caller counted the lookup's
        clock tick and miss): victim swap, else L2, else memory; fill;
        returns total latency."""
        # --- victim cache probe (extract-on-hit swap semantics) ------------
        swap = False
        if victim_present:
            victim_counters[_ACCESSES] += 1
            if block in victim_tags:
                victim_counters[_HITS] += 1
                victim_tags.remove(block)
                swap = True
            else:
                victim_counters[_MISSES] += 1
        if swap:
            latency = l1_lat + victim_lat
        else:
            # --- shared L2 --------------------------------------------------
            c2 = l2_clock[0] + 1
            l2_clock[0] = c2
            l2_counters[_ACCESSES] += 1
            index2 = l2_resident.get(block)
            if index2 is not None:
                l2_counters[_HITS] += 1
                l2_last[index2] = c2
                latency = l1_lat + l2_lat
            else:
                l2_counters[_MISSES] += 1
                s2 = block & l2_mask
                fill_l2(block, block >> l2_tag_shift, s2, s2 * l2_ways, False)
                memory_accesses[0] += 1
                latency = l1_lat + memory_lat
        # --- L1 fill (and evictee -> victim cache) --------------------------
        s = block & l1_mask
        base = s * l1_ways
        tag = block >> l1_tag_shift
        if l1_inline_fill and l1_fully[s]:
            c = l1_clock[0] + 1
            l1_clock[0] = c
            segment = l1_tags[base : base + l1_ways]
            if -1 in segment:
                index = base + segment.index(-1)
                evicted = None
            else:
                row = l1_last[base : base + l1_ways]
                index = base + row.index(min(row))
                evicted = (l1_tags[index] << l1_tag_shift) | s
                del l1_resident[evicted]
                if l1_dirty[index]:
                    l1_counters[_WRITEBACKS] += 1
                l1_counters[_EVICTIONS] += 1
            l1_tags[index] = tag
            l1_resident[block] = index
            l1_dirty[index] = is_write
            l1_last[index] = c
            l1_fill_time[index] = c
            l1_counters[_FILLS] += 1
        else:
            evicted = fill_l1(block, tag, s, base, is_write)
        if victim_present and evicted is not None:
            victim_insert(evicted)
        if prefetcher is not None and not swap:
            prefetch_issue(block)
        return latency

    def access(block, is_write=False):
        """Full demand access: residency probe, then hit or the miss path."""
        c = l1_clock[0] + 1
        l1_clock[0] = c
        l1_counters[_ACCESSES] += 1
        index = l1_resident.get(block)
        if index is not None:
            l1_counters[_HITS] += 1
            l1_last[index] = c
            if is_write:
                l1_dirty[index] = True
            if prefetcher is not None:
                prefetch_hit(block)
            return l1_lat
        l1_counters[_MISSES] += 1
        return miss(block, is_write)

    fused.access = access
    fused.miss = miss
    return fused


class FusedHierarchy:
    """A :class:`MemoryHierarchy` compiled for the pipeline's hot loop.

    Cache contents are shared with the object model by reference; only
    the per-cache clocks and statistics counters are mirrored into list
    cells for speed, and :meth:`sync` writes those back.
    """

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        self._l1i = FlatCacheState(hierarchy.l1i)
        self._l1d = FlatCacheState(hierarchy.l1d)
        self._l2 = FlatCacheState(hierarchy.l2)
        self.iport = _compile_port(hierarchy.iport, self._l1i, self._l2)
        self.dport = _compile_port(hierarchy.dport, self._l1d, self._l2)

    # ----- pipeline-facing API ---------------------------------------------

    def access_instruction(self, block_addr: int) -> int:
        return self.iport.access(block_addr)

    def access_data(self, block_addr: int, is_write: bool = False) -> int:
        return self.dport.access(block_addr, is_write)

    def reset_stats(self) -> None:
        """Zero the measured-region statistics (mirror of the pipeline's
        warmup-boundary reset; state and prefetch-accuracy counters keep
        their warm values, exactly as on the object path)."""
        for flat in (self._l1i, self._l1d, self._l2):
            counters = flat.counters
            for i in range(len(counters)):
                counters[i] = 0
        for port in (self.iport, self.dport):
            port.memory_accesses[0] = 0
            if port.victim_counters is not None:
                for i in range(len(port.victim_counters)):
                    port.victim_counters[i] = 0

    def sync(self, state: bool = True) -> None:
        """Write statistics (and, by default, cache contents) back to the
        object hierarchy so ``hierarchy.stats()`` and cache introspection
        see the fused run's outcome."""
        hierarchy = self.hierarchy
        for flat in (self._l1i, self._l1d, self._l2):
            flat.sync_stats()
            if state:
                flat.sync_state()
        for fused_port, port in (
            (self.iport, hierarchy.iport),
            (self.dport, hierarchy.dport),
        ):
            port.memory_accesses = fused_port.memory_accesses[0]
            if fused_port.victim_counters is not None:
                self._sync_victim(port.victim, fused_port.victim_counters)
            if fused_port.prefetch_counters is not None:
                port.prefetcher.stats.issued = fused_port.prefetch_counters[0]
                port.prefetcher.stats.useful = fused_port.prefetch_counters[1]

    @staticmethod
    def _sync_victim(victim: VictimCache, counters: list[int]) -> None:
        stats = victim.stats
        stats.accesses = counters[_ACCESSES]
        stats.hits = counters[_HITS]
        stats.misses = counters[_MISSES]
        stats.fills = counters[_FILLS]
        stats.evictions = counters[_EVICTIONS]
        stats.bypassed_fills = counters[_BYPASSED]
        stats.writebacks = counters[_WRITEBACKS]


# --------------------------------------------------------------------------
# Lane-batched engine: N fault-map lanes driven through one schedule pass
# --------------------------------------------------------------------------
#
# The bulk engine widens the fused engine's flat state by one axis: every
# per-way quantity becomes a NumPy array with a *lane* dimension, one lane
# per fault map.  The residency probe, the refill (victim-way choice +
# fill), and the victim-cache swap become vectorised multi-lane ports: a
# single `tags[base : base + ways] == tag` comparison probes one set in
# every lane at once, and the miss *event* (usually shared by many lanes —
# cold misses hit all of them together) is serviced with lane-masked
# vector operations rather than a per-lane loop.
#
# Recency is tracked with *stamps* instead of per-lane clocks: the stamp
# of an access is a trace-static, strictly increasing function of the
# instruction index, identical in every lane.  Within one lane each cache
# sees at most one stamped event per instruction, so stamp order equals
# the sequential engine's clock order and every LRU decision — including
# the invalid-way preference, encoded by initialising invalid usable ways
# to a stamp below any real one, and disabled ways to one above all
# (``BIG_STAMP``) — is bit-identical.  Statistics are per-lane int64
# counters (:data:`LANE_COUNTERS`), one block per port, accumulated by
# whichever miss service runs — the NumPy closure below or the C lane
# kernel — so their memory is O(lanes), independent of trace length.

#: Stamp sentinel ordering: disabled ways stay above every real stamp
#: (never chosen by the LRU argmin), invalid usable ways below (always
#: preferred, first index winning ties exactly like the sequential scan).
BIG_STAMP = 1 << 62

#: Row order of a bulk port's ``counts`` block (``[counter, lane]``
#: int64).  The C lane kernel indexes the same rows; every other
#: statistic is derived from these at :meth:`BulkLanes.finalize`.
LANE_COUNTERS = (
    "misses",
    "bypassed",
    "evictions",
    "writebacks",
    "victim_hits",
    "victim_evictions",
    "l2_hits",
    "l2_evictions",
)
(
    _CNT_MISSES,
    _CNT_BYPASSED,
    _CNT_EVICTIONS,
    _CNT_WRITEBACKS,
    _CNT_VICTIM_HITS,
    _CNT_VICTIM_EVICTIONS,
    _CNT_L2_HITS,
    _CNT_L2_EVICTIONS,
) = range(len(LANE_COUNTERS))


class VectorCache:
    """Multi-lane flat state of one cache level (the probe/refill port).

    Every array is lane-major — ``tags``/``last``/``dirty``/``fill_time``
    all ``[lane, flat_index]`` — so one flat index vector (``lane_offset +
    set_base + way``) addresses a set across all four arrays: the event
    service computes it once per refill and reuses it for the tag check,
    the fill scatter, the recency stamp, and the dirty bit.  The set
    probe compares a strided ``[:, base : base + ways]`` slab (eight
    contiguous elements per lane); the LRU victim argmin runs along the
    same contiguous axis.  Every array carries one extra dump column
    (index ``n``) that lane-masked scatters divert excluded lanes to.
    """

    __slots__ = (
        "caches",
        "ways",
        "set_mask",
        "tag_shift",
        "n",
        "tags",
        "last",
        "dirty",
        "fillt",
        "orig_last",
        "bypass_sets",
        "pristine",
    )

    def __init__(self, caches: list[SetAssociativeCache]) -> None:
        geometry = caches[0].geometry
        for cache in caches:
            if cache.geometry != geometry:
                raise ValueError("lane caches must share one geometry")
        self.caches = list(caches)
        self.ways = geometry.ways
        self.set_mask = geometry.num_sets - 1
        self.tag_shift = geometry.index_bits
        n = geometry.num_sets * geometry.ways
        self.n = n
        lanes = len(caches)
        self.tags = np.full((lanes, n + 1), -1, dtype=np.int64)
        self.last = np.zeros((lanes, n + 1), dtype=np.int64)
        self.dirty = np.zeros((lanes, n + 1), dtype=np.bool_)
        self.fillt = np.zeros((lanes, n + 1), dtype=np.int64)
        # A pristine cache's flat state is all defaults (-1/0/False/0);
        # skipping its list -> array conversion makes compiling a fresh
        # campaign batch O(lanes), which matters for the 2MB L2 — and the
        # flag lets sync() write back only the touched entries.
        self.pristine = []
        for lane, cache in enumerate(caches):
            if not cache._resident and cache._clock == 0:
                self.pristine.append(True)
                continue
            self.pristine.append(False)
            self.tags[lane, :n] = cache._tags
            self.last[lane, :n] = cache._last_touch
            self.dirty[lane, :n] = cache._dirty
            self.fillt[lane, :n] = cache._fill_time
        self.orig_last = self.last[:, :n].copy()
        # Stamp sentinels (see module comment).  ``bypass_sets`` lists the
        # set indices where *any* lane has zero usable ways — only those
        # events need the (rare) fill-bypass check.
        last_main = self.last[:, :n]
        last_main[self.tags[:, :n] == -1] = -1
        bypass: set[int] = set()
        for lane, cache in enumerate(caches):
            if cache._enabled is not None:
                disabled = ~cache._enabled.reshape(-1)
                last_main[lane, disabled] = BIG_STAMP
                for s, usable in enumerate(cache._usable_ways):
                    if not usable:
                        bypass.add(s)
        self.bypass_sets = bypass

    def max_clock(self) -> int:
        return max(cache._clock for cache in self.caches)

    def sync(self, clock: int) -> None:
        """Write every lane's contents back to its object cache.  Stamp
        sentinels at still-invalid/disabled positions are replaced by the
        original values (those ways were never touched)."""
        n = self.n
        ways = self.ways
        tag_shift = self.tag_shift
        valid = self.tags[:, :n] >= 0
        sparse = n > 4096 and all(self.pristine)
        if sparse:
            # Large caches that started pristine (the usual 2MB L2 of a
            # fresh campaign batch): every list entry outside the filled
            # positions still holds its default, so write back only the
            # valid entries instead of converting 32k-entry columns.
            for lane, cache in enumerate(self.caches):
                index = np.flatnonzero(valid[lane])
                idx_list = index.tolist()
                tag_vals = self.tags[lane, index]
                blocks = (tag_vals << tag_shift) | (index // ways)
                tags_list = cache._tags
                last_list = cache._last_touch
                fillt_list = cache._fill_time
                dirty_list = cache._dirty
                for j, tag, last, fillt, dirt in zip(
                    idx_list,
                    tag_vals.tolist(),
                    self.last[lane, index].tolist(),
                    self.fillt[lane, index].tolist(),
                    self.dirty[lane, index].tolist(),
                ):
                    tags_list[j] = tag
                    last_list[j] = last
                    fillt_list[j] = fillt
                    dirty_list[j] = dirt
                cache._clock = clock
                resident = cache._resident
                resident.clear()
                resident.update(zip(blocks.tolist(), idx_list))
            return
        merged = np.where(valid, self.last[:, :n], self.orig_last)
        # Whole-matrix conversions: one C-level tolist per array beats a
        # per-lane conversion loop by a wide margin.
        tags_rows = self.tags[:, :n]
        tags_lists = tags_rows.tolist()
        dirty_lists = self.dirty[:, :n].tolist()
        merged_lists = merged.tolist()
        fillt_lists = self.fillt[:, :n].tolist()
        for lane, cache in enumerate(self.caches):
            index = np.flatnonzero(valid[lane])
            blocks = (tags_rows[lane, index] << tag_shift) | (index // ways)
            cache.adopt_flat_state(
                tags_lists[lane],
                dirty_lists[lane],
                merged_lists[lane],
                fillt_lists[lane],
                clock,
                resident=dict(zip(blocks.tolist(), index.tolist())),
            )


class VectorVictims:
    """Multi-lane victim-cache state (the vectorised swap port).

    The LRU list becomes ``tags[lane, slot]`` plus an insertion stamp per
    slot: eviction picks the minimal stamp (the list head), empty slots
    carry the stamp sentinel ``empty_stamp = -(entries + 1)`` — strictly
    below every occupied stamp — so they are preferred exactly like an
    append, and a hit extracts by writing the slot back to empty.
    Initial contents get stamps ``position - entries`` (above the empty
    sentinel, below any run stamp), preserving their order.  Slot
    positions themselves carry no meaning — all operations are
    content-based — so lanes stay bit-identical to the sequential list
    implementation, including partially warm victim caches.

    Lanes need not share one sizing: the slot axis is padded to the
    largest lane's entry count, and a lane's slots beyond its own
    capacity carry tag ``-1`` (probes never match) with stamp
    ``BIG_STAMP`` (strictly above every run stamp, so the insert-path
    ``argmin`` never evicts into them).  Lanes with *no* victim cache
    (``None``, the 0-entry configuration) additionally divert their
    inserts to the dump slot via :attr:`insertable`, so 0/8/16-entry
    configurations — e.g. the paper's three disabling schemes — batch
    as one lane group.
    """

    __slots__ = (
        "victims",
        "entries",
        "tags",
        "stamp",
        "empty_stamp",
        "insertable",
    )

    def __init__(self, victims: "list[VictimCache | None]") -> None:
        lane_entries = [v.entries if v is not None else 0 for v in victims]
        entries = max(lane_entries)
        if entries == 0:
            raise ValueError("need at least one lane with victim entries")
        self.victims = list(victims)
        self.entries = entries
        self.empty_stamp = -(entries + 1)
        lanes = len(victims)
        self.tags = np.full((lanes, entries + 1), -1, dtype=np.int64)
        self.stamp = np.full(
            (lanes, entries + 1), self.empty_stamp, dtype=np.int64
        )
        for lane, victim in enumerate(victims):
            if victim is None:
                continue
            cap = victim.entries
            self.stamp[lane, cap:entries] = BIG_STAMP  # padded slots
            for j, block in enumerate(victim._tags):  # LRU -> MRU order
                self.tags[lane, j] = block
                self.stamp[lane, j] = j - entries
        #: Per-lane insert eligibility mask, or ``None`` when every lane
        #: can insert (``argmin`` slot choice is then already exact and
        #: the service closure skips the extra mask op per event).
        if all(lane_entries):
            self.insertable = None
        else:
            self.insertable = np.array(
                [e > 0 for e in lane_entries], dtype=np.bool_
            )

    def sync(self) -> None:
        for lane, victim in enumerate(self.victims):
            if victim is None:
                continue
            occupied = [
                (int(self.stamp[lane, j]), int(self.tags[lane, j]))
                for j in range(victim.entries)
                if self.tags[lane, j] >= 0
            ]
            occupied.sort()
            victim._tags[:] = [block for _, block in occupied]


def bulk_signature(hierarchy: MemoryHierarchy) -> "tuple | None":
    """The hierarchy's bulk-engine eligibility signature, or ``None``.

    Two hierarchies can share one vectorised lane batch iff both return
    equal non-``None`` signatures: LRU replacement everywhere (the stamp
    encoding is an LRU-order argument) and a fully-enabled L2 (the bulk
    L2 refill has no fill-bypass port; the paper's L2 is always
    fault-free) are hard requirements.  Victim sizing is *not* part of
    the signature: :class:`VectorVictims` pads heterogeneous sizings to
    the largest lane's entry count (masked invalid slots), so 0/8/16-
    entry configurations — contents may differ arbitrarily too — merge
    into one lane group.  The mega-batch planner groups campaign work
    items by this key, so configurations that diverge structurally land
    in separate batches instead of tripping the sequential fallback.
    """
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        if type(cache._policy) is not LRUPolicy:
            return None
    if hierarchy.l2._enabled is not None:
        return None
    return ()


def bulk_lanes_eligible(hierarchies: list[MemoryHierarchy]) -> bool:
    """Whether the bulk-vectorised lane engine covers these hierarchies
    as one batch (see :func:`bulk_signature`).  Anything else falls back
    to sequential runs."""
    signature = bulk_signature(hierarchies[0])
    if signature is None:
        return False
    return all(bulk_signature(h) == signature for h in hierarchies[1:])


class _BulkPort:
    """One compiled multi-lane port: its L1 and victim state, latencies
    beyond L1 (victim, L2, memory — scaled like the service's result),
    the per-lane ``counts`` block (rows in :data:`LANE_COUNTERS` order),
    and the NumPy miss-event ``service`` closure.  The C lane kernel
    services misses itself from the same state and counters."""

    __slots__ = ("service", "l1", "victims", "latency", "counts")


def _compile_bulk_port(
    l1: VectorCache,
    l2: VectorCache,
    victims: VectorVictims | None,
    port0,
    lanes: int,
    scratch: dict,
    lat_scale: int = 1,
) -> _BulkPort:
    """Compile one port side's miss-event service closure.

    ``service`` is called once per access where at least one lane missed
    L1 (``cnt`` = hit-lane count, ``eq`` the probe's comparison matrix).
    It performs the victim swap, the shared-L2 access, the L1 refill, and
    the evictee insertion for every missing lane with lane-masked vector
    operations, adds each missing lane's events to ``counts``, and
    returns the per-lane latency *beyond* the L1 latency (zero at hit
    lanes) when asked — pre-multiplied by ``lat_scale``, the batched
    pipeline's commit-width timing scale.
    """
    bulk = _BulkPort()
    bulk.l1 = l1
    bulk.victims = victims
    victim_lat = port0.victim_latency
    l2_lat = port0.l2_latency
    memory_lat = port0.memory_latency
    mem_minus_l2 = memory_lat - l2_lat
    bulk.latency = tuple(
        lat * lat_scale for lat in (victim_lat, l2_lat, memory_lat)
    )
    counts = np.zeros((len(LANE_COUNTERS), lanes), dtype=np.int64)
    bulk.counts = counts
    n_miss = counts[_CNT_MISSES]
    n_bypassed = counts[_CNT_BYPASSED]
    n_evict = counts[_CNT_EVICTIONS]
    n_wb = counts[_CNT_WRITEBACKS]
    n_vhit = counts[_CNT_VICTIM_HITS]
    n_vevict = counts[_CNT_VICTIM_EVICTIONS]
    n_l2hit = counts[_CNT_L2_HITS]
    n_l2evict = counts[_CNT_L2_EVICTIONS]

    l1_tags, l1_last = l1.tags, l1.last
    l1_dirty, l1_fillt = l1.dirty, l1.fillt
    l1_ways, l1_dump = l1.ways, l1.n
    l1_tag_shift = l1.tag_shift
    bypass_sets = l1.bypass_sets
    l2_tags, l2_last, l2_fillt = l2.tags, l2.last, l2.fillt
    l2_ways, l2_dump = l2.ways, l2.n

    if victims is not None:
        v_entries = victims.entries
        v_tags = victims.tags
        v_tags_main = v_tags[:, :v_entries]
        v_stamp = victims.stamp
        v_stamp_main = v_stamp[:, :v_entries]
        v_insertable = victims.insertable  # None when every lane inserts
        vins_buf = scratch["vins"]

    ar = scratch["ar"]
    hit_buf = scratch["hit"]
    miss_buf = scratch["miss"]
    vhit_buf = scratch["vhit"]
    h2_buf = scratch["h2"]
    l2need_buf = scratch["l2need"]
    fill2 = scratch["fill2"]
    nb = scratch["nb"]
    nb2 = scratch["nb2"]
    ev_buf = scratch["ev"]
    ev1_buf = scratch["ev1"]
    wb_buf = scratch["wb"]
    amin1 = scratch["amin1"]
    amin2 = scratch["amin2"]
    fa = scratch["flat_a"]
    fb = scratch["flat_b"]
    vfa = scratch["flat_va"]
    vfb = scratch["flat_vb"]
    et_buf = scratch["et"]
    et2_buf = scratch["et2"]
    t64 = scratch["t64"]
    t64b = scratch["t64b"]
    #: All lanes missed — 75%+ of events at narrow widths (cold/capacity
    #: misses land in every lane together); the all-miss mask is a shared
    #: read-only constant and every ``logical_and`` against it is skipped.
    all_true = scratch["all_true"]
    eq2_buf = np.empty((lanes, l2_ways), dtype=np.bool_)

    # Flat 1-D views + one precomputed per-lane offset vector per level:
    # the lane-major layout means a single flat index (``lane_offset +
    # set_base + way``) addresses tags, recency, dirty bits and fill
    # times alike — computed once per refill, reused by every gather and
    # scatter.  ``*_dump_vec`` is the same vector pointing at the dump
    # column, copied over excluded lanes' entries instead of a separate
    # index fix-up pass.
    l1_tags_flat = l1_tags.reshape(-1)
    l1_last_flat = l1_last.reshape(-1)
    l1_dirty_flat = l1_dirty.reshape(-1)
    l1_fillt_flat = l1_fillt.reshape(-1)
    ar_l1rows = ar * (l1_dump + 1)
    l1_dump_vec = ar_l1rows + l1_dump
    l2_tags_flat = l2_tags.reshape(-1)
    l2_last_flat = l2_last.reshape(-1)
    l2_fillt_flat = l2_fillt.reshape(-1)
    ar_l2rows = ar * (l2_dump + 1)
    l2_dump_vec = ar_l2rows + l2_dump
    if victims is not None:
        v_tags_flat = v_tags.reshape(-1)
        v_stamp_flat = v_stamp.reshape(-1)
        ar_vrows = ar * (v_entries + 1)
        v_dump_vec = ar_vrows + v_entries

    count_nonzero = np.count_nonzero
    logical_not = np.logical_not
    logical_and = np.logical_and
    add = np.add
    copyto = np.copyto

    # 0-d operands keep every ufunc call off the slow Python-scalar
    # conversion path (~3x dispatch cost); sc_* are mutable cells for the
    # per-event scalars, c_* are constants.
    sc_a = np.array(0, np.int64)
    sc_b = np.array(0, np.int64)
    sc_stamp = np.array(0, np.int64)
    c_zero = np.array(0, np.int64)
    c_one = np.array(1, np.int64)
    c_neg1 = np.array(-1, np.int64)
    c_true = np.array(True)
    c_vempty = np.array(
        victims.empty_stamp if victims is not None else 0, np.int64
    )
    c_l2lat = np.array(l2_lat * lat_scale, np.int64)
    c_memdelta = np.array(mem_minus_l2 * lat_scale, np.int64)
    c_viclat = np.array(victim_lat * lat_scale, np.int64)
    c_tagshift = np.array(l1_tag_shift, np.int64)

    def service(stamp, block, base, s, base2, tag2, tag, eq, cnt, is_write, want_lat):
        sc_stamp[()] = stamp
        all_miss = cnt == 0
        # ---- hit-lane updates + miss mask ---------------------------------
        if all_miss:
            miss = all_true  # shared constant, never written
            add(n_miss, c_one, out=n_miss)
        else:
            hit = eq.any(1, out=hit_buf)
            miss = logical_not(hit, out=miss_buf)
            add(n_miss, miss, out=n_miss)
            # Matched positions only — miss lanes have no match, so the
            # masked copy needs no dump diversion.
            copyto(l1_last[:, base : base + l1_ways], sc_stamp, where=eq)
            if is_write:
                copyto(l1_dirty[:, base : base + l1_ways], c_true, where=eq)
        # ---- victim-cache swap probe (extract-on-hit) ---------------------
        vcnt = 0
        if victims is not None:
            sc_b[()] = block
            veq = scratch["veq"][:, :v_entries]
            np.equal(v_tags_main, sc_b, out=veq)
            vhit = veq.any(1, out=vhit_buf)
            if not all_miss:
                logical_and(vhit, miss, out=vhit)
            vcnt = count_nonzero(vhit)
            if vcnt:
                add(n_vhit, vhit, out=n_vhit)
                vslot = np.argmax(veq, axis=1, out=amin1)
                add(vslot, ar_vrows, out=vfa)
                logical_not(vhit, out=nb)
                copyto(vfa, v_dump_vec, where=nb)  # divert non-hit lanes
                v_tags_flat[vfa] = c_neg1
                v_stamp_flat[vfa] = c_vempty
                l2need = logical_and(miss, nb, out=l2need_buf)
                need_all = False
            else:
                l2need = miss  # read-only below: alias, no copy
                need_all = all_miss
        else:
            l2need = miss
            need_all = all_miss
        # ---- shared L2 ----------------------------------------------------
        sc_b[()] = tag2
        np.equal(l2_tags[:, base2 : base2 + l2_ways], sc_b, out=eq2_buf)
        h2 = eq2_buf.any(1, out=h2_buf)
        if need_all:
            # Every lane probed the L2: matched positions need no mask.
            copyto(l2_last[:, base2 : base2 + l2_ways], sc_stamp, where=eq2_buf)
            add(n_l2hit, h2, out=n_l2hit)
            fill2_m = logical_not(h2, out=fill2)
        else:
            logical_and(h2, l2need, out=h2)
            if count_nonzero(h2):
                add(n_l2hit, h2, out=n_l2hit)
                # Mask out lanes that did not probe the L2 (an L1-hit lane
                # may still hold the block; its recency must not move).
                logical_and(eq2_buf, l2need[:, None], out=eq2_buf)
                copyto(
                    l2_last[:, base2 : base2 + l2_ways], sc_stamp, where=eq2_buf
                )
            logical_not(h2, out=fill2)
            fill2_m = logical_and(fill2, l2need, out=fill2)
        n2m = count_nonzero(fill2_m)
        if n2m:
            vw2 = np.argmin(
                l2_last[:, base2 : base2 + l2_ways], axis=1, out=amin2
            )
            sc_a[()] = base2
            add(vw2, sc_a, out=vw2)
            add(vw2, ar_l2rows, out=fa)
            if n2m != lanes:
                logical_not(fill2_m, out=nb2)
                copyto(fa, l2_dump_vec, where=nb2)  # divert to the dump slot
                et2 = l2_tags_flat.take(fa, out=et2_buf)
                np.greater_equal(et2, c_zero, out=ev_buf)
                logical_and(ev_buf, fill2_m, out=ev_buf)
            else:
                et2 = l2_tags_flat.take(fa, out=et2_buf)
                np.greater_equal(et2, c_zero, out=ev_buf)
            # The L2 is never dirty (fills are reads): no writebacks.
            add(n_l2evict, ev_buf, out=n_l2evict)
            l2_tags_flat[fa] = sc_b  # sc_b still holds tag2
            l2_last_flat[fa] = sc_stamp
            l2_fillt_flat[fa] = sc_stamp
        # ---- latency beyond L1 (zero at hit lanes) ------------------------
        if want_lat:
            if need_all:
                np.multiply(fill2_m, c_memdelta, out=t64)
                add(t64, c_l2lat, out=t64)
            else:
                np.multiply(l2need, c_l2lat, out=t64)
                if n2m:
                    np.multiply(fill2_m, c_memdelta, out=t64b)
                    add(t64, t64b, out=t64)
            if vcnt:
                np.multiply(vhit, c_viclat, out=t64b)
                add(t64, t64b, out=t64)
        # ---- L1 refill (vectorised victim-way choice) ---------------------
        vw = np.argmin(l1_last[:, base : base + l1_ways], axis=1, out=amin1)
        sc_a[()] = base
        add(vw, sc_a, out=vw)
        add(vw, ar_l1rows, out=fb)
        fill1_all = all_miss
        if s in bypass_sets:
            gathered = l1_last_flat.take(fb)
            byp = (gathered >= BIG_STAMP) & miss
            add(n_bypassed, byp, out=n_bypassed)
            fill1 = miss & ~byp
            fill1_all = False
        else:
            fill1 = miss
        if fill1_all:
            et = l1_tags_flat.take(fb, out=et_buf)
            ev = np.greater_equal(et, c_zero, out=ev1_buf)
        else:
            logical_not(fill1, out=nb)
            copyto(fb, l1_dump_vec, where=nb)  # divert hit lanes to the dump
            et = l1_tags_flat.take(fb, out=et_buf)
            np.greater_equal(et, c_zero, out=ev_buf)
            ev = logical_and(ev_buf, fill1, out=ev1_buf)
        n_ev = count_nonzero(ev)
        if n_ev:
            add(n_evict, ev, out=n_evict)
            wb = l1_dirty_flat.take(fb, out=wb_buf)
            logical_and(wb, ev, out=wb)
            add(n_wb, wb, out=n_wb)
            # ---- evictee -> victim cache (no dedup: L1 residency and the
            # victim contents are disjoint by construction, exactly as on
            # the sequential path where the dedup branch is unreachable) --
            if victims is not None:
                np.left_shift(et, c_tagshift, out=et)
                sc_a[()] = s
                np.bitwise_or(et, sc_a, out=et)
                vslot2 = np.argmin(v_stamp_main, axis=1, out=amin2)
                if v_insertable is None:
                    ins = ev
                else:
                    # Heterogeneous group: lanes with no victim cache
                    # divert their evictee to the dump slot.
                    ins = logical_and(ev, v_insertable, out=vins_buf)
                add(vslot2, ar_vrows, out=vfb)
                logical_not(ins, out=nb)
                copyto(vfb, v_dump_vec, where=nb)
                vt = v_tags_flat.take(vfb, out=et2_buf)
                np.greater_equal(vt, c_zero, out=ev_buf)
                logical_and(ev_buf, ins, out=ev_buf)
                add(n_vevict, ev_buf, out=n_vevict)
                v_tags_flat[vfb] = et
                v_stamp_flat[vfb] = sc_stamp
        # ---- L1 fill scatter (same flat index as the gathers) -------------
        sc_a[()] = tag
        l1_tags_flat[fb] = sc_a
        l1_last_flat[fb] = sc_stamp
        l1_dirty_flat[fb] = is_write
        l1_fillt_flat[fb] = sc_stamp
        return t64 if want_lat else None

    bulk.service = service
    return bulk


class BulkLanes:
    """N structurally identical hierarchies compiled for one batched run.

    Lanes may differ in cache *contents* — fault maps, enabled ways,
    victim/L2 residency — and in victim *sizing* (padded to the largest
    lane, see :class:`VectorVictims`), but share geometry, latencies,
    and LRU policies (checked by :func:`bulk_lanes_eligible` plus the
    batched pipeline's own config checks).
    """

    def __init__(
        self,
        hierarchies: list[MemoryHierarchy],
        lat_scale: int = 1,
    ) -> None:
        if not hierarchies:
            raise ValueError("need at least one lane")
        self.hierarchies = list(hierarchies)
        lanes = len(hierarchies)
        self.lanes = lanes
        self.l1i = VectorCache([h.l1i for h in hierarchies])
        self.l1d = VectorCache([h.l1d for h in hierarchies])
        self.l2 = VectorCache([h.l2 for h in hierarchies])
        vi = [h.victim_i for h in hierarchies]
        vd = [h.victim_d for h in hierarchies]
        self.victims_i = (
            VectorVictims(vi) if any(v is not None for v in vi) else None
        )
        self.victims_d = (
            VectorVictims(vd) if any(v is not None for v in vd) else None
        )
        #: Stamps start above twice every initial clock so they dominate
        #: every pre-existing recency value in every lane (see module
        #: comment; instruction i stamps 2i/2i+1 on the I/D side).
        self.stamp_base = (
            2 * max(self.l1i.max_clock(), self.l1d.max_clock(), self.l2.max_clock())
            + 2
        )
        max_victim = max(
            self.victims_i.entries if self.victims_i is not None else 0,
            self.victims_d.entries if self.victims_d is not None else 0,
        )
        bool_buffers = (
            "hit", "miss", "vhit", "l2need", "h2", "fill2", "nb", "nb2",
            "ev", "ev1", "wb", "vins",
        )
        int_buffers = (
            "flat_a", "flat_b", "flat_va", "flat_vb", "et", "et2", "t64", "t64b",
        )
        scratch = {name: np.empty(lanes, dtype=np.bool_) for name in bool_buffers}
        scratch.update(
            {name: np.empty(lanes, dtype=np.int64) for name in int_buffers}
        )
        scratch.update(
            ar=np.arange(lanes),
            amin1=np.empty(lanes, dtype=np.intp),
            amin2=np.empty(lanes, dtype=np.intp),
            veq=np.empty((lanes, max_victim + 1), dtype=np.bool_),
            all_true=np.ones(lanes, dtype=np.bool_),
        )
        self.iport = _compile_bulk_port(
            self.l1i,
            self.l2,
            self.victims_i,
            hierarchies[0].iport,
            lanes,
            scratch,
            lat_scale,
        )
        self.dport = _compile_bulk_port(
            self.l1d,
            self.l2,
            self.victims_d,
            hierarchies[0].dport,
            lanes,
            scratch,
            lat_scale,
        )

    def mark_boundary(self) -> None:
        """The warmup/measured boundary: zero every per-lane counter
        (state effects keep the full history, exactly like the
        sequential statistics reset)."""
        self.iport.counts.fill(0)
        self.dport.counts.fill(0)

    def finalize(self, measured_i_accesses: int, measured_d_accesses: int, clock: int) -> None:
        """Derive every lane's statistics from the per-lane counters and
        write statistics *and* cache contents back to the object
        hierarchies (mirror of :meth:`FusedHierarchy.sync`)."""
        sides = (
            (self.iport.counts.tolist(), measured_i_accesses),
            (self.dport.counts.tolist(), measured_d_accesses),
        )
        for lane, hierarchy in enumerate(self.hierarchies):
            l2_accesses = l2_hits = l2_evictions = 0
            for (counts, accesses), cache, port, victim in zip(
                sides,
                (hierarchy.l1i, hierarchy.l1d),
                (hierarchy.iport, hierarchy.dport),
                (hierarchy.victim_i, hierarchy.victim_d),
            ):
                misses = counts[_CNT_MISSES][lane]
                evictions = counts[_CNT_EVICTIONS][lane]
                stats = cache.stats
                stats.accesses = accesses
                stats.misses = misses
                stats.hits = accesses - misses
                stats.bypassed_fills = counts[_CNT_BYPASSED][lane]
                stats.fills = misses - stats.bypassed_fills
                stats.evictions = evictions
                stats.writebacks = counts[_CNT_WRITEBACKS][lane]
                vhits = 0
                if victim is not None:
                    vhits = counts[_CNT_VICTIM_HITS][lane]
                    stats = victim.stats
                    stats.accesses = misses
                    stats.hits = vhits
                    stats.misses = misses - vhits
                    stats.fills = evictions
                    stats.evictions = counts[_CNT_VICTIM_EVICTIONS][lane]
                    stats.bypassed_fills = 0
                    stats.writebacks = 0
                # Every L1 miss the victim cache did not serve probes the L2.
                port_l2_accesses = misses - vhits
                port_l2_hits = counts[_CNT_L2_HITS][lane]
                port.memory_accesses = port_l2_accesses - port_l2_hits
                l2_accesses += port_l2_accesses
                l2_hits += port_l2_hits
                l2_evictions += counts[_CNT_L2_EVICTIONS][lane]
            stats = hierarchy.l2.stats
            stats.accesses = l2_accesses
            stats.hits = l2_hits
            stats.misses = l2_accesses - l2_hits
            stats.fills = stats.misses
            stats.evictions = l2_evictions
            stats.bypassed_fills = 0
            stats.writebacks = 0
        self.l1i.sync(clock)
        self.l1d.sync(clock)
        self.l2.sync(clock)
        if self.victims_i is not None:
            self.victims_i.sync()
        if self.victims_d is not None:
            self.victims_d.sync()
