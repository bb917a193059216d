"""Lane engine state: N memory hierarchies as NumPy arrays with a lane axis.

The object model (:class:`~repro.cache.set_assoc.SetAssociativeCache`,
:class:`~repro.cache.hierarchy.CachePort`, victim cache, prefetcher) is the
construction and verification substrate: schemes configure it, tests
introspect it, the object pipeline loop drives it, and its semantics
define correctness.  :class:`BulkLanes` lays N structurally identical
hierarchies — one per fault-map lane — out as the arrays the compiled C
lane kernel (:mod:`repro.cpu.lane_kernel`) probes, refills and counts
on.  A lane is built from what differs per lane: its L1I and L1D
enabled-way matrices (a scheme's disable bits, set at boot) and its
victim-cache sizes; geometries, latencies and the prefetch degree are
shared by every lane.

Every per-way quantity becomes a set-major NumPy array, ``[set, lane,
way]`` (:class:`VectorCache`): the kernel takes one access through
every lane before the next, so all lanes probe the same set, and their
copies of it sit side by side.  Lanes start from empty caches and end at
:meth:`BulkLanes.finalize`, which derives each lane's statistics from
the kernel's counters: no object hierarchy exists on either side of the
pass, and nothing is copied in or written back, so the arrays need not
mirror the object caches' layout, and they hold only what the kernel
reads (no fill times; dirty bytes at the L1s only).

Recency is tracked with *stamps* instead of per-lane clocks: the stamp
of an access is a trace-static, strictly increasing function of the
instruction index, identical in every lane, starting just above a fresh
cache's clock.  Within one lane an L1 sees at most 1 + degree stamped
events per access — the demand probe or fill, then one fill per block
its next-line prefetcher brings in — and the stamps leave room for them
(:attr:`BulkLanes.stamp_step`), so stamp order equals the object path's
clock order and every LRU decision — including the invalid-way
preference, encoded by initialising invalid usable ways to a stamp below
any real one, and disabled ways to one above all (``BIG_STAMP``) — is
bit-identical.  Statistics are per-lane int64 counters
(:data:`LANE_COUNTERS`), one block per port, accumulated by the kernel,
so their memory is O(lanes), independent of trace length.

Bit-identity with the object path is the contract: cycles, hit/miss/
eviction/writeback counts, replacement decisions and victim behaviour
all match exactly.  ``tests/integration/test_golden_sim.py`` and the
property suites in ``tests/property/`` enforce it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.prefetch import NextLinePrefetcher
from repro.cache.stats import HierarchyStats
from repro.faults.geometry import CacheGeometry

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
    "prefetches",
    "prefetch_evictions",
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
    _CNT_PREFETCHES,
    _CNT_PREFETCH_EVICTIONS,
) = range(len(LANE_COUNTERS))

#: Multiplier of the tag sets' Fibonacci hash; the C kernel probes with
#: the same one (see :class:`VectorPrefetcher`).
TAG_HASH = 0x9E3779B97F4A7C15


class VectorCache:
    """Multi-lane state of one cache level, set-major.

    ``tags``/``last``/``dirty`` are ``[set, lane, way]`` arrays: lane
    ``l``'s way ``w`` of set ``s`` sits at ``(s * lanes + l) * ways + w``.
    The kernel takes every lane through one access before the next, so
    each access probes the same set in every lane, and set-major puts
    those probes in one contiguous row of ``lanes * ways`` entries
    (lane-major put each lane's copy a whole cache apart).  A lane's
    cache is therefore no longer one row shaped like an object cache's
    typed buffers (:mod:`repro.cache.set_assoc`); nothing copies state
    between the two.  Lanes start empty: tags -1, recency -1 on usable
    ways and ``BIG_STAMP`` on the ways a lane's enabled-way matrix
    disables.
    """

    __slots__ = ("ways", "set_mask", "tag_shift", "tags", "last", "dirty")

    def __init__(
        self,
        geometry: CacheGeometry,
        enabled: "Sequence[np.ndarray | None]",
        *,
        dirty: bool = True,
    ) -> None:
        sets, ways = geometry.num_sets, geometry.ways
        self.ways = ways
        self.set_mask = sets - 1
        self.tag_shift = geometry.index_bits
        # One block for both, not two arrays: a pass slice's L2 state
        # (0.5 MB per lane) then stays one allocation of 4 MB or more
        # from about eight lanes on, which NumPy backs with huge pages;
        # as two arrays, a 25-lane pass set up twice as slowly in two
        # slices as in one.
        self.tags, self.last = np.full(
            (2, sets, len(enabled), ways), -1, dtype=np.int64
        )
        #: ``None`` without ``dirty``: the L2's blocks are never written
        #: back, so the kernel keeps dirty bytes at the L1s only.
        self.dirty = np.zeros(self.tags.shape, dtype=np.bool_) if dirty else None
        for lane, mask in enumerate(enabled):
            if mask is None:
                continue
            mask = np.asarray(mask, dtype=np.bool_)
            if mask.shape != (sets, ways):
                raise ValueError(
                    f"enabled-way matrix shape {mask.shape} does not match "
                    f"{(sets, ways)}"
                )
            self.last[:, lane, :][~mask] = BIG_STAMP


class VectorVictims:
    """Multi-lane victim-cache state.

    The LRU list becomes ``tags[lane, slot]`` plus an insertion stamp per
    slot: eviction picks the minimal stamp (the list head), empty slots
    carry the stamp sentinel ``empty_stamp = -(entries + 1)`` — strictly
    below every occupied stamp — so they are preferred exactly like an
    append, and a hit extracts by writing the slot back to empty.  Slot
    positions themselves carry no meaning — all operations are
    content-based — so lanes stay bit-identical to the sequential list
    implementation.

    Lanes need not share one sizing: the slot axis is padded to the
    largest lane's entry count, and a lane's slots beyond its own
    capacity carry tag ``-1`` (probes never match) with stamp
    ``BIG_STAMP`` (strictly above every run stamp, so the insert-path
    ``argmin`` never evicts into them).  Lanes with *no* victim cache
    (the 0-entry configuration) additionally skip their inserts via
    :attr:`insertable`, so 0/8/16-entry configurations — e.g. the
    paper's three disabling schemes — batch as one lane group.
    """

    __slots__ = (
        "entries",
        "tags",
        "stamp",
        "empty_stamp",
        "insertable",
    )

    def __init__(self, lane_entries: "Sequence[int]") -> None:
        entries = max(lane_entries)
        if entries == 0:
            raise ValueError("need at least one lane with victim entries")
        self.entries = entries
        self.empty_stamp = -(entries + 1)
        lanes = len(lane_entries)
        self.tags = np.full((lanes, entries), -1, dtype=np.int64)
        self.stamp = np.full((lanes, entries), self.empty_stamp, dtype=np.int64)
        for lane, cap in enumerate(lane_entries):
            if cap:
                self.stamp[lane, cap:] = BIG_STAMP  # padded slots
        #: Per-lane insert eligibility mask, or ``None`` when every lane
        #: can insert (``argmin`` slot choice is then already exact and
        #: the kernel skips the per-lane check).
        if all(lane_entries):
            self.insertable = None
        else:
            self.insertable = np.array(
                [e > 0 for e in lane_entries], dtype=np.bool_
            )


class VectorPrefetcher:
    """Multi-lane state of one port's tagged next-line prefetcher.

    Mirrors :class:`~repro.cache.prefetch.NextLinePrefetcher` lane by
    lane: the ``degree`` every lane shares and the tag set ``_tagged`` —
    stale tags of evicted or bypassed blocks included — as one
    open-addressing table of block addresses per lane (``table[lane,
    slot]``, linear probing from a Fibonacci hash of the block; -1 marks
    an empty slot, -2 a removed tag).  Beside the L1's ``dirty`` bytes,
    and in their ``[set, lane, way]`` layout, ``tagged`` says whether a
    resident way's block is in the set, so a demand hit reads one byte;
    only demand fills and hits on tagged ways probe the table.  The
    table is sized per pass by :meth:`reserve`.
    """

    __slots__ = ("degree", "lanes", "tagged", "table", "shift")

    def __init__(self, degree: int, l1: VectorCache, lanes: int) -> None:
        self.degree = degree
        self.lanes = lanes
        self.tagged = np.zeros_like(l1.dirty)
        self.table: "np.ndarray | None" = None
        self.shift = 0

    def reserve(self, accesses: int) -> None:
        """Size every lane's empty table for a pass of ``accesses`` demand
        accesses to this port.  An access adds at most ``degree`` tags,
        each into a slot no tag held before, so a table of at least twice
        ``degree * accesses`` slots never gets more than half full."""
        bits = max(4, (2 * self.degree * accesses - 1).bit_length())
        self.shift = 64 - bits
        self.table = np.full((self.lanes, 1 << bits), -1, dtype=np.int64)


def bulk_signature(hierarchy: MemoryHierarchy) -> "int | None":
    """The hierarchy's bulk-engine eligibility signature, or ``None``.

    Two hierarchies can share one lane-kernel batch iff both return
    equal non-``None`` signatures: a fully-enabled L2 (the bulk L2
    refill has no fill-bypass port; the paper's L2 is always fault-free)
    and an untouched hierarchy (lanes start empty: every cache clock 0,
    empty victim caches and prefetch tag sets, all-zero statistics) are
    hard requirements.  Victim sizing is *not* part of the signature:
    :class:`VectorVictims` pads heterogeneous sizings to the largest
    lane's entry count (masked invalid slots), so 0/8/16-entry
    configurations merge into one lane group.  The signature is the
    next-line prefetch degree both ports share (0 without prefetchers),
    as :class:`~repro.cache.hierarchy.MemoryHierarchy` builds them: each
    port's prefetcher must be a
    :class:`~repro.cache.prefetch.NextLinePrefetcher` on that port's L1.
    """
    if hierarchy.l2._enabled is not None:
        return None
    degrees = []
    for port in (hierarchy.iport, hierarchy.dport):
        prefetcher = port.prefetcher
        if prefetcher is None:
            degrees.append(0)
        elif type(prefetcher) is NextLinePrefetcher and prefetcher.cache is port.l1:
            if prefetcher._tagged:
                return None
            degrees.append(prefetcher.degree)
        else:
            return None
    if degrees[0] != degrees[1]:
        return None
    caches = (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
    if any(cache._clock for cache in caches) or any(
        victim is not None and victim._tags
        for victim in (hierarchy.victim_i, hierarchy.victim_d)
    ):
        return None
    if hierarchy.stats() != HierarchyStats():
        return None
    return degrees[0]


class _BulkPort:
    """One multi-lane port: its L1, victim and prefetcher state, the
    latencies beyond L1 (victim, L2, memory) scaled by the pipeline's
    commit width, and the per-lane ``counts`` block (rows in
    :data:`LANE_COUNTERS` order) the lane kernel accumulates into."""

    __slots__ = ("service", "l1", "victims", "prefetcher", "latency", "counts")

    def __init__(
        self,
        l1: VectorCache,
        victims: VectorVictims | None,
        latencies: LatencyConfig,
        lanes: int,
        lat_scale: int,
        prefetch_degree: int,
    ) -> None:
        # Always None: the kernel services misses itself.  Kept as an
        # attribute because the perfbench tracer reads and re-assigns it.
        self.service = None
        self.l1 = l1
        self.victims = victims
        self.prefetcher = (
            VectorPrefetcher(prefetch_degree, l1, lanes) if prefetch_degree else None
        )
        self.latency = tuple(
            lat * lat_scale
            for lat in (latencies.victim, latencies.l2, latencies.memory)
        )
        self.counts = np.zeros((len(LANE_COUNTERS), lanes), dtype=np.int64)


class BulkLanes:
    """N structurally identical hierarchies compiled for one kernel pass.

    The one lane constructor: every lane shares the geometries and
    latencies (checked as part of
    :attr:`~repro.cpu.pipeline.KernelLane.structure`) and
    brings its own per-lane values — its ``(L1I, L1D)`` enabled-way
    matrices (``None`` enables every way) and its ``(I, D)`` victim
    entry counts (0 for none; sizings pad to the largest lane, see
    :class:`VectorVictims`).  ``prefetch_degree`` gives both ports a
    next-line prefetcher of that degree in every lane (0 for none; see
    :class:`VectorPrefetcher`).  Lanes start empty, their stamps based
    at 1, one above a fresh cache's clock.
    """

    def __init__(
        self,
        geometries: "tuple[CacheGeometry, CacheGeometry, CacheGeometry]",
        latencies: LatencyConfig,
        enabled: "Sequence[tuple[np.ndarray | None, np.ndarray | None]]",
        victim_entries: "Sequence[tuple[int, int]]",
        lat_scale: int = 1,
        prefetch_degree: int = 0,
    ) -> None:
        if not enabled:
            raise ValueError("need at least one lane")
        if len(victim_entries) != len(enabled):
            raise ValueError("need one victim sizing per lane")
        lanes = len(enabled)
        self.lanes = lanes
        self.geometries = geometries
        self.latencies = latencies
        l1i_geometry, l1d_geometry, l2_geometry = geometries
        self.l1i = VectorCache(l1i_geometry, [pair[0] for pair in enabled])
        self.l1d = VectorCache(l1d_geometry, [pair[1] for pair in enabled])
        self.l2 = VectorCache(l2_geometry, [None] * lanes, dirty=False)
        self.victim_entries_i = [pair[0] for pair in victim_entries]
        self.victim_entries_d = [pair[1] for pair in victim_entries]
        self.victims_i = (
            VectorVictims(self.victim_entries_i) if any(self.victim_entries_i) else None
        )
        self.victims_d = (
            VectorVictims(self.victim_entries_d) if any(self.victim_entries_d) else None
        )
        #: Instruction i's demand access stamps ``stamp_base + stamp_step
        #: * (2i + side)`` (side 0 for I, 1 for D), and the j-th block it
        #: prefetches ``j`` more, so a step of one more than the degree
        #: leaves every event of one access its own stamp.
        self.stamp_base = 1
        self.stamp_step = prefetch_degree + 1
        self.iport = _BulkPort(
            self.l1i, self.victims_i, latencies, lanes, lat_scale, prefetch_degree
        )
        self.dport = _BulkPort(
            self.l1d, self.victims_d, latencies, lanes, lat_scale, prefetch_degree
        )

    def reserve_tags(self, i_accesses: int, d_accesses: int) -> None:
        """Size the prefetchers' tag sets for a pass of ``i_accesses``
        I-side and ``d_accesses`` D-side demand accesses (see
        :meth:`VectorPrefetcher.reserve`)."""
        for port, accesses in ((self.iport, i_accesses), (self.dport, d_accesses)):
            if port.prefetcher is not None:
                port.prefetcher.reserve(accesses)

    def mark_boundary(self) -> None:
        """The warmup/measured boundary: zero every per-lane counter
        (state effects keep the full history, exactly like the
        sequential statistics reset)."""
        self.iport.counts.fill(0)
        self.dport.counts.fill(0)

    def finalize(
        self, measured_i_accesses: int, measured_d_accesses: int
    ) -> list[dict]:
        """Every lane's ``hierarchy_stats`` snapshot, derived from the
        per-lane counters with the object caches' arithmetic; a lane
        without a victim cache on a side reports that side's all-zero
        victim entry, as :meth:`MemoryHierarchy.stats` does."""
        sides = (
            (self.iport.counts.tolist(), measured_i_accesses, self.victim_entries_i),
            (self.dport.counts.tolist(), measured_d_accesses, self.victim_entries_d),
        )
        snapshots = []
        for lane in range(self.lanes):
            stats = HierarchyStats()
            l2_accesses = l2_hits = l2_evictions = 0
            for (counts, accesses, victim_entries), l1, victim in zip(
                sides, (stats.l1i, stats.l1d), (stats.victim_i, stats.victim_d)
            ):
                misses = counts[_CNT_MISSES][lane]
                evictions = counts[_CNT_EVICTIONS][lane]
                l1.accesses = accesses
                l1.misses = misses
                l1.hits = accesses - misses
                # Every miss and every prefetch fills, or bypasses at a
                # fully-disabled set; prefetch evictees skip the victim.
                l1.bypassed_fills = counts[_CNT_BYPASSED][lane]
                l1.fills = misses + counts[_CNT_PREFETCHES][lane] - l1.bypassed_fills
                l1.evictions = evictions + counts[_CNT_PREFETCH_EVICTIONS][lane]
                l1.writebacks = counts[_CNT_WRITEBACKS][lane]
                vhits = 0
                if victim_entries[lane]:
                    vhits = counts[_CNT_VICTIM_HITS][lane]
                    victim.accesses = misses
                    victim.hits = vhits
                    victim.misses = misses - vhits
                    victim.fills = evictions
                    victim.evictions = counts[_CNT_VICTIM_EVICTIONS][lane]
                # Every L1 miss the victim cache did not serve probes the L2.
                port_l2_accesses = misses - vhits
                port_l2_hits = counts[_CNT_L2_HITS][lane]
                stats.memory_accesses += port_l2_accesses - port_l2_hits
                l2_accesses += port_l2_accesses
                l2_hits += port_l2_hits
                l2_evictions += counts[_CNT_L2_EVICTIONS][lane]
            l2 = stats.l2
            l2.accesses = l2_accesses
            l2.hits = l2_hits
            l2.misses = l2_accesses - l2_hits
            l2.fills = l2.misses
            l2.evictions = l2_evictions
            snapshots.append(stats.snapshot())
        return snapshots
