"""Lane engine state: N memory hierarchies as NumPy arrays with a lane axis.

The object model (:class:`~repro.cache.set_assoc.SetAssociativeCache`,
:class:`~repro.cache.hierarchy.CachePort`, victim cache, prefetcher) is the
construction and verification substrate: schemes configure it, tests
introspect it, the object pipeline loop drives it, and its semantics
define correctness.  :class:`BulkLanes` lays N structurally identical
hierarchies — one per fault-map lane — out as the arrays the compiled C
lane kernel (:mod:`repro.cpu.lane_kernel`) probes, refills and counts
on, then writes every lane's statistics and cache contents back.

Every per-way quantity becomes a NumPy array with a *lane* dimension.
Recency is tracked with *stamps* instead of per-lane clocks: the stamp of
an access is a trace-static, strictly increasing function of the
instruction index, identical in every lane.  Within one lane each cache
sees at most one stamped event per instruction, so stamp order equals
the object path's clock order and every LRU decision — including the
invalid-way preference, encoded by initialising invalid usable ways to a
stamp below any real one, and disabled ways to one above all
(``BIG_STAMP``) — is bit-identical.  Statistics are per-lane int64
counters (:data:`LANE_COUNTERS`), one block per port, accumulated by the
kernel, so their memory is O(lanes), independent of trace length.

Bit-identity with the object path is the contract: cycles, hit/miss/
eviction/writeback counts, replacement decisions and victim behaviour
all match exactly.  ``tests/integration/test_golden_sim.py`` and the
property suites in ``tests/property/`` enforce it.
"""

from __future__ import annotations

import numpy as np

from repro.cache.hierarchy import CachePort, MemoryHierarchy
from repro.cache.replacement import LRUPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.victim import VictimCache

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
    """Multi-lane flat state of one cache level.

    Every array is lane-major — ``tags``/``last``/``dirty``/``fillt``
    all ``[lane, flat_index]`` — so lane ``l``'s way ``w`` of set ``s``
    sits at ``l * n + s * ways + w`` in all four arrays, and a set's ways
    are contiguous for the kernel's probe and LRU argmin.
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
        self.tags = np.full((lanes, n), -1, dtype=np.int64)
        self.last = np.zeros((lanes, n), dtype=np.int64)
        self.dirty = np.zeros((lanes, n), dtype=np.bool_)
        self.fillt = np.zeros((lanes, n), dtype=np.int64)
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
            self.tags[lane] = cache._tags
            self.last[lane] = cache._last_touch
            self.dirty[lane] = cache._dirty
            self.fillt[lane] = cache._fill_time
        self.orig_last = self.last.copy()
        # Stamp sentinels (see module docstring).
        self.last[self.tags == -1] = -1
        for lane, cache in enumerate(caches):
            if cache._enabled is not None:
                self.last[lane, ~cache._enabled.reshape(-1)] = BIG_STAMP

    def max_clock(self) -> int:
        return max(cache._clock for cache in self.caches)

    def sync(self, clock: int) -> None:
        """Write every lane's contents back to its object cache.  Stamp
        sentinels at still-invalid/disabled positions are replaced by the
        original values (those ways were never touched)."""
        n = self.n
        ways = self.ways
        tag_shift = self.tag_shift
        valid = self.tags >= 0
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
        merged = np.where(valid, self.last, self.orig_last)
        # Whole-matrix conversions: one C-level tolist per array beats a
        # per-lane conversion loop by a wide margin.
        tags_rows = self.tags
        tags_lists = tags_rows.tolist()
        dirty_lists = self.dirty.tolist()
        merged_lists = merged.tolist()
        fillt_lists = self.fillt.tolist()
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
    """Multi-lane victim-cache state.

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
    (``None``, the 0-entry configuration) additionally skip their
    inserts via :attr:`insertable`, so 0/8/16-entry configurations —
    e.g. the paper's three disabling schemes — batch as one lane group.
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
        self.tags = np.full((lanes, entries), -1, dtype=np.int64)
        self.stamp = np.full((lanes, entries), self.empty_stamp, dtype=np.int64)
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
        #: the kernel skips the per-lane check).
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

    Two hierarchies can share one lane-kernel batch iff both return
    equal non-``None`` signatures: LRU replacement everywhere (the stamp
    encoding is an LRU-order argument) and a fully-enabled L2 (the bulk
    L2 refill has no fill-bypass port; the paper's L2 is always
    fault-free) are hard requirements.  Victim sizing is *not* part of
    the signature: :class:`VectorVictims` pads heterogeneous sizings to
    the largest lane's entry count (masked invalid slots), so 0/8/16-
    entry configurations — contents may differ arbitrarily too — merge
    into one lane group.
    """
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        if type(cache._policy) is not LRUPolicy:
            return None
    if hierarchy.l2._enabled is not None:
        return None
    return ()


class _BulkPort:
    """One multi-lane port: its L1 and victim state, the latencies beyond
    L1 (victim, L2, memory) scaled by the pipeline's commit width, and
    the per-lane ``counts`` block (rows in :data:`LANE_COUNTERS` order)
    the lane kernel accumulates into."""

    __slots__ = ("service", "l1", "victims", "latency", "counts")

    def __init__(
        self,
        l1: VectorCache,
        victims: VectorVictims | None,
        port0: CachePort,
        lanes: int,
        lat_scale: int,
    ) -> None:
        # Always None: the kernel services misses itself.  Kept as an
        # attribute because the perfbench tracer reads and re-assigns it.
        self.service = None
        self.l1 = l1
        self.victims = victims
        self.latency = tuple(
            lat * lat_scale
            for lat in (port0.victim_latency, port0.l2_latency, port0.memory_latency)
        )
        self.counts = np.zeros((len(LANE_COUNTERS), lanes), dtype=np.int64)


class BulkLanes:
    """N structurally identical hierarchies compiled for one batched run.

    Lanes may differ in cache *contents* — fault maps, enabled ways,
    victim/L2 residency — and in victim *sizing* (padded to the largest
    lane, see :class:`VectorVictims`), but share geometry, latencies,
    and LRU policies (checked by :func:`bulk_signature` as part of the
    pipeline's ``batch_key``).
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
        self.iport = _BulkPort(
            self.l1i, self.victims_i, hierarchies[0].iport, lanes, lat_scale
        )
        self.dport = _BulkPort(
            self.l1d, self.victims_d, hierarchies[0].dport, lanes, lat_scale
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
        hierarchies, so ``hierarchy.stats()`` and cache introspection see
        the kernel run's outcome."""
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
