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

Each port and the L2 are held as the field dicts of the kernel's
argument struct (``port_t`` and ``l2_t`` in
:data:`repro.cpu.lane_kernel.ARGS`, whose field table gives every
array's layout), so each quantity has one name.  Every per-way quantity is a set-major NumPy array, ``[set, lane,
way]``: the kernel takes one access through every lane before the next,
so all lanes probe the same set, and their copies of it sit side by
side.  Lanes start from empty caches and end at
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
#: the same one (see :meth:`BulkLanes._port`).
TAG_HASH = 0x9E3779B97F4A7C15


def bulk_signature(hierarchy: MemoryHierarchy) -> "int | None":
    """The hierarchy's bulk-engine eligibility signature, or ``None``.

    Two hierarchies can share one lane-kernel batch iff both return
    equal non-``None`` signatures: a fully-enabled L2 (the bulk L2
    refill has no fill-bypass port; the paper's L2 is always fault-free)
    and an untouched hierarchy (lanes start empty: every cache clock 0,
    empty victim caches and prefetch tag sets, all-zero statistics) are
    hard requirements.  Victim sizing is *not* part of the signature:
    :class:`BulkLanes` pads heterogeneous sizings to the largest lane's
    entry count (masked invalid slots), so 0/8/16-entry configurations
    merge into one lane group.  The signature is the
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


def _cache(geometry: CacheGeometry, enabled: "Sequence[np.ndarray | None]") -> dict:
    """One cache level's fields, shared by ``port_t`` and ``l2_t``, its
    lanes empty: tags -1, recency -1 on usable ways and ``BIG_STAMP`` on
    the ways a lane's enabled-way matrix (``None``: every way) disables.
    """
    sets, ways = geometry.num_sets, geometry.ways
    lanes = len(enabled)
    # One block for both, not two arrays: a pass slice's L2 state (0.5 MB
    # per lane) then stays one allocation of 4 MB or more from about
    # eight lanes on, which NumPy backs with huge pages; as two arrays, a
    # 25-lane pass set up twice as slowly in two slices as in one.
    tags, last = np.full((2, sets, lanes, ways), -1, dtype=np.int64)
    for lane, mask in enumerate(enabled):
        if mask is None:
            continue
        mask = np.asarray(mask, dtype=np.bool_)
        if mask.shape != (sets, ways):
            raise ValueError(
                f"enabled-way matrix shape {mask.shape} does not match "
                f"{(sets, ways)}"
            )
        last[:, lane, :][~mask] = BIG_STAMP
    return dict(
        ways=ways, row=lanes * ways, set_mask=sets - 1,
        index_bits=geometry.index_bits, tags=tags, last=last,
    )


class _PortFields(dict):
    """One L1 port's ``port_t`` fields.  A field left out packs as 0 or
    ``NULL``: a port without a victim cache has no victim fields, one
    without a prefetcher no tag-set fields."""

    #: Always ``None``: the kernel services misses itself.  The perfbench
    #: tracer reads and re-assigns it.
    service = None


class BulkLanes:
    """N structurally identical hierarchies compiled for one kernel pass.

    The one lane constructor: every lane shares the geometries and
    latencies (checked as part of
    :attr:`~repro.cpu.pipeline.KernelLane.structure`) and
    brings its own per-lane values — its ``(L1I, L1D)`` enabled-way
    matrices (``None`` enables every way) and its ``(I, D)`` victim
    entry counts (0 for none; sizings pad to the largest lane).
    ``prefetch_degree`` gives both ports a next-line prefetcher of that
    degree in every lane (0 for none), whose tag sets are sized for the
    pass's ``(I, D)`` demand ``accesses``.  Lanes start empty, their
    stamps based at 1, one above a fresh cache's clock.

    :attr:`iport` and :attr:`dport` are the kernel's ``port_t`` fields
    and :attr:`l2` its ``l2_t`` fields, as
    :meth:`~repro.ckernel.Args.pack_array` packs them.
    """

    def __init__(
        self,
        geometries: "tuple[CacheGeometry, CacheGeometry, CacheGeometry]",
        latencies: LatencyConfig,
        enabled: "Sequence[tuple[np.ndarray | None, np.ndarray | None]]",
        victim_entries: "Sequence[tuple[int, int]]",
        lat_scale: int = 1,
        prefetch_degree: int = 0,
        accesses: "tuple[int, int] | None" = None,
    ) -> None:
        if not enabled:
            raise ValueError("need at least one lane")
        if len(victim_entries) != len(enabled):
            raise ValueError("need one victim sizing per lane")
        if prefetch_degree and accesses is None:
            raise ValueError("a prefetching pass needs its (I, D) demand accesses")
        lanes = len(enabled)
        self.lanes = lanes
        l1i_geometry, l1d_geometry, l2_geometry = geometries
        l1i = _cache(l1i_geometry, [pair[0] for pair in enabled])
        l1d = _cache(l1d_geometry, [pair[1] for pair in enabled])
        #: No dirty bytes: the L2's blocks are never written back.
        self.l2 = _cache(l2_geometry, [None] * lanes)
        self.victim_entries_i = [pair[0] for pair in victim_entries]
        self.victim_entries_d = [pair[1] for pair in victim_entries]
        #: Instruction i's demand access stamps ``stamp_base + stamp_step
        #: * (2i + side)`` (side 0 for I, 1 for D), and the j-th block it
        #: prefetches ``j`` more, so a step of one more than the degree
        #: leaves every event of one access its own stamp.
        self.stamp_base = 1
        self.stamp_step = prefetch_degree + 1
        latency = dict(
            vlat=latencies.victim * lat_scale,
            l2lat=latencies.l2 * lat_scale,
            memlat=latencies.memory * lat_scale,
        )
        i_accesses, d_accesses = accesses or (0, 0)
        self.iport = self._port(
            l1i, self.victim_entries_i, latency, prefetch_degree, i_accesses
        )
        self.dport = self._port(
            l1d, self.victim_entries_d, latency, prefetch_degree, d_accesses
        )

    def _port(
        self,
        l1: dict,
        victim_entries: "list[int]",
        latency: dict,
        degree: int,
        accesses: int,
    ) -> _PortFields:
        """One L1 port: the L1's fields and dirty bytes, the latencies
        beyond L1 scaled by the commit width, the per-lane ``cnt`` block
        (rows in :data:`LANE_COUNTERS` order) the kernel accumulates
        into, and the victim and prefetcher state."""
        lanes = self.lanes
        port = _PortFields(
            l1,
            dirty=np.zeros(l1["tags"].shape, dtype=np.bool_),
            cnt=np.zeros((len(LANE_COUNTERS), lanes), dtype=np.int64),
            **latency,
        )
        entries = max(victim_entries)
        if entries:
            # A lane's LRU list is its row of slots, each with an insertion
            # stamp: eviction takes the minimal stamp (the list head).  An
            # empty slot's stamp, vempty, is below every occupied one, so
            # empty slots are taken first, like an append, and a hit
            # extracts by writing its slot back to empty.  Every operation
            # is content-addressed, so slot positions mean nothing and
            # lanes stay bit-identical to the object list.  Slots past a
            # lane's own capacity are padding: tag -1 (no probe matches)
            # and stamp BIG_STAMP (above every run stamp, so no insert
            # evicts into one).  A 0-entry lane skips its inserts by vins.
            empty = -(entries + 1)
            stamp = np.full((lanes, entries), empty, dtype=np.int64)
            for lane, capacity in enumerate(victim_entries):
                if capacity:
                    stamp[lane, capacity:] = BIG_STAMP
            port.update(
                ventries=entries, vempty=empty,
                vtags=np.full((lanes, entries), -1, dtype=np.int64),
                vstamp=stamp,
                vins=None if all(victim_entries)
                else np.array([e > 0 for e in victim_entries], dtype=np.bool_),
            )
        if degree:
            # Each lane's NextLinePrefetcher._tagged, stale tags of
            # evicted or bypassed blocks included: an open-addressing
            # table of block addresses (the kernel's tag_slot probes it),
            # -1 an empty slot and -2 a removed tag, so slots are never
            # reused.  An access adds at most ``degree`` tags, each into a
            # slot no tag held before, so a table of twice ``degree *
            # accesses`` slots never gets more than half full.  ``tagged``
            # marks the resident ways whose block is in the set, so a
            # demand hit reads one byte.
            bits = max(4, (2 * degree * accesses - 1).bit_length())
            port.update(
                pfdeg=degree, tslots=1 << bits, tshift=64 - bits,
                tagged=np.zeros(l1["tags"].shape, dtype=np.bool_),
                tset=np.full((lanes, 1 << bits), -1, dtype=np.int64),
            )
        return port

    def mark_boundary(self) -> None:
        """The warmup/measured boundary: zero every per-lane counter
        (state effects keep the full history, exactly like the
        sequential statistics reset)."""
        self.iport["cnt"].fill(0)
        self.dport["cnt"].fill(0)

    def finalize(
        self, measured_i_accesses: int, measured_d_accesses: int
    ) -> list[dict]:
        """Every lane's ``hierarchy_stats`` snapshot, derived from the
        per-lane counters with the object caches' arithmetic; a lane
        without a victim cache on a side reports that side's all-zero
        victim entry, as :meth:`MemoryHierarchy.stats` does."""
        sides = (
            (self.iport["cnt"].tolist(), measured_i_accesses, self.victim_entries_i),
            (self.dport["cnt"].tolist(), measured_d_accesses, self.victim_entries_d),
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
