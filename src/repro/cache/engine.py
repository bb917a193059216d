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
victim-cache sizes; geometries and latencies are shared by every lane.

Every per-way quantity becomes a NumPy array with a *lane* dimension
whose rows have the layout of the object caches' typed buffers
(:class:`VectorCache`).  Campaign lanes start from empty caches and end
at :meth:`BulkLanes.finalize`, which derives each lane's statistics from
the kernel's counters: no object hierarchy exists on either side of the
pass.  Caller-owned hierarchies are copied in instead
(:meth:`BulkLanes.copy_in`, one buffer copy per lane and cache), and
``finalize`` writes their contents and statistics back.

Recency is tracked with *stamps* instead of per-lane clocks: the stamp
of an access is a trace-static, strictly increasing function of the
instruction index, identical in every lane, starting just above every
lane's clock.  Within one lane an L1 sees at most 1 + degree stamped
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
from repro.cache.replacement import LRUPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import HierarchyStats
from repro.cache.victim import VictimCache
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

#: Row order of a prefetching port's ``stats`` block (``[counter,
#: lane]`` int64): its :class:`~repro.cache.prefetch.PrefetchStats`,
#: which — unlike the cache statistics — carry over the warmup boundary.
PREFETCH_COUNTERS = ("issued", "useful")

#: Multiplier of the tag sets' Fibonacci hash; the C kernel probes with
#: the same one (see :class:`VectorPrefetcher`).
TAG_HASH = 0x9E3779B97F4A7C15


class VectorCache:
    """Multi-lane flat state of one cache level.

    Every array is lane-major — ``tags``/``last``/``dirty``/``fillt``
    all ``[lane, flat_index]`` — so lane ``l``'s way ``w`` of set ``s``
    sits at ``l * n + s * ways + w`` in all four arrays, and a set's ways
    are contiguous for the kernel's probe and LRU argmin.  Lanes start
    empty: tags -1, recency -1 on usable ways and ``BIG_STAMP`` on the
    ways a lane's enabled-way matrix disables.  A lane row has exactly
    the layout of an object cache's typed buffers (see
    :mod:`repro.cache.set_assoc`), so :meth:`copy_in` and
    :meth:`write_back` move a caller-owned cache as one row copy per
    buffer.
    """

    __slots__ = (
        "ways",
        "set_mask",
        "tag_shift",
        "n",
        "tags",
        "last",
        "dirty",
        "fillt",
    )

    def __init__(
        self, geometry: CacheGeometry, enabled: "Sequence[np.ndarray | None]"
    ) -> None:
        lanes = len(enabled)
        self.ways = geometry.ways
        self.set_mask = geometry.num_sets - 1
        self.tag_shift = geometry.index_bits
        n = self.n = geometry.num_sets * geometry.ways
        self.tags = np.full((lanes, n), -1, dtype=np.int64)
        self.last = np.full((lanes, n), -1, dtype=np.int64)
        self.dirty = np.zeros((lanes, n), dtype=np.bool_)
        self.fillt = np.zeros((lanes, n), dtype=np.int64)
        shape = (geometry.num_sets, geometry.ways)
        for lane, mask in enumerate(enabled):
            if mask is None:
                continue
            mask = np.asarray(mask, dtype=np.bool_)
            if mask.shape != shape:
                raise ValueError(
                    f"enabled-way matrix shape {mask.shape} does not match {shape}"
                )
            self.last[lane, ~mask.reshape(-1)] = BIG_STAMP

    def copy_in(self, lane: int, cache: SetAssociativeCache) -> None:
        """Start lane ``lane`` from ``cache``'s contents: the tags, dirty
        and fill-time rows whole, the recency row at valid ways only
        (elsewhere it keeps its stamp sentinels)."""
        tags = np.frombuffer(cache._tags, np.int64)
        self.tags[lane] = tags
        self.dirty[lane] = np.frombuffer(cache._dirty, np.bool_)
        self.fillt[lane] = np.frombuffer(cache._fill_time, np.int64)
        np.copyto(
            self.last[lane], np.frombuffer(cache._last_touch, np.int64), where=tags >= 0
        )

    def write_back(self, lane: int, cache: SetAssociativeCache, clock: int) -> None:
        """Write lane ``lane``'s contents back to ``cache``: the tags,
        dirty and fill-time rows whole, the recency row at valid ways
        only.  Elsewhere ``last`` holds the stamp sentinels; the object
        cache's own recency buffer, which the pass never touched, still
        holds the original values there.  The residency index is rebuilt
        from the valid tags."""
        tags = self.tags[lane]
        valid = tags >= 0
        index = np.flatnonzero(valid)
        blocks = (tags[index] << self.tag_shift) | (index // self.ways)
        cache.adopt_flat_state(
            tags,
            self.dirty[lane],
            np.where(valid, self.last[lane], cache._last_touch),
            self.fillt[lane],
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
    Contents copied in get stamps ``position - entries`` (above the empty
    sentinel, below any run stamp), preserving their order.  Slot
    positions themselves carry no meaning — all operations are
    content-based — so lanes stay bit-identical to the sequential list
    implementation, including partially warm victim caches.

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

    def copy_in(self, lane: int, victim: VictimCache) -> None:
        for j, block in enumerate(victim._tags):  # LRU -> MRU order
            self.tags[lane, j] = block
            self.stamp[lane, j] = j - self.entries

    def write_back(self, lane: int, victim: VictimCache) -> None:
        occupied = [
            (int(self.stamp[lane, j]), int(self.tags[lane, j]))
            for j in range(victim.entries)
            if self.tags[lane, j] >= 0
        ]
        occupied.sort()
        victim._tags[:] = [block for _, block in occupied]


class VectorPrefetcher:
    """Multi-lane state of one port's tagged next-line prefetcher.

    Mirrors :class:`~repro.cache.prefetch.NextLinePrefetcher` lane by
    lane: the ``degree`` every lane shares, the :data:`PREFETCH_COUNTERS`
    rows of ``stats``, and the tag set ``_tagged`` — stale tags of
    evicted or bypassed blocks included — as one open-addressing table
    of block addresses per lane (``table[lane, slot]``, linear probing
    from a Fibonacci hash of the block; -1 marks an empty slot, -2 a
    removed tag).  Beside the L1's ``dirty`` bytes, ``tagged[lane,
    flat_index]`` says whether a resident way's block is in the set, so
    a demand hit reads one byte; only demand fills and hits on tagged
    ways probe the table.  The table is sized per pass by
    :meth:`reserve`.
    """

    __slots__ = ("degree", "tagged", "table", "shift", "stats", "_seeds")

    def __init__(self, degree: int, l1: VectorCache, lanes: int) -> None:
        self.degree = degree
        self.tagged = np.zeros((lanes, l1.n), dtype=np.bool_)
        self.stats = np.zeros((len(PREFETCH_COUNTERS), lanes), dtype=np.int64)
        self.table: "np.ndarray | None" = None
        self.shift = 0
        self._seeds: "list[tuple[int, ...]]" = [()] * lanes

    def copy_in(
        self, lane: int, prefetcher: NextLinePrefetcher, cache: SetAssociativeCache
    ) -> None:
        """Start lane ``lane`` from ``prefetcher``: its statistics, its
        tags (entered into the table by :meth:`reserve`), and the tagged
        byte of every resident way whose block is among them."""
        self.stats[:, lane] = (prefetcher.stats.issued, prefetcher.stats.useful)
        self._seeds[lane] = tuple(prefetcher._tagged)
        for block in self._seeds[lane]:
            index = cache._resident.get(block)
            if index is not None:
                self.tagged[lane, index] = True

    def reserve(self, accesses: int) -> None:
        """Size every lane's table for a pass of ``accesses`` demand
        accesses to this port and enter the copied-in tags.  An access
        adds at most ``degree`` tags, each into a slot no tag held
        before, so a table of at least twice the copied-in tags plus
        ``degree * accesses`` slots never gets more than half full."""
        bound = max(map(len, self._seeds)) + self.degree * accesses
        bits = max(4, (2 * bound - 1).bit_length())
        mask = (1 << bits) - 1
        self.shift = 64 - bits
        self.table = np.full((len(self._seeds), mask + 1), -1, dtype=np.int64)
        for row, seeds in zip(self.table, self._seeds):
            for block in seeds:
                slot = ((block * TAG_HASH) & 0xFFFFFFFFFFFFFFFF) >> self.shift
                while row[slot] >= 0:
                    slot = (slot + 1) & mask
                row[slot] = block

    def write_back(self, lane: int, prefetcher: NextLinePrefetcher) -> None:
        prefetcher.stats.issued, prefetcher.stats.useful = self.stats[:, lane].tolist()
        row = self.table[lane]
        prefetcher._tagged.clear()
        prefetcher._tagged.update(row[row >= 0].tolist())


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
    into one lane group.  The signature is the ``(I, D)`` ports'
    prefetch degrees (0 without a prefetcher): a port's prefetcher must
    be a :class:`~repro.cache.prefetch.NextLinePrefetcher` on that
    port's L1, and every lane of a pass shares its degree.
    """
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        if type(cache._policy) is not LRUPolicy:
            return None
    if hierarchy.l2._enabled is not None:
        return None
    degrees = []
    for port in (hierarchy.iport, hierarchy.dport):
        prefetcher = port.prefetcher
        if prefetcher is None:
            degrees.append(0)
        elif type(prefetcher) is NextLinePrefetcher and prefetcher.cache is port.l1:
            degrees.append(prefetcher.degree)
        else:
            return None
    return tuple(degrees)


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
    latencies (checked as part of the pipeline's ``batch_key``) and
    brings its own per-lane values — its ``(L1I, L1D)`` enabled-way
    matrices (``None`` enables every way) and its ``(I, D)`` victim
    entry counts (0 for none; sizings pad to the largest lane, see
    :class:`VectorVictims`).  ``prefetch_degrees`` gives the ``(I, D)``
    ports a next-line prefetcher of that degree in every lane (0 for
    none; see :class:`VectorPrefetcher`).  Lanes start empty, their
    stamps based at 1, one above a fresh cache's clock.  :meth:`copy_in`
    starts them from caller-owned hierarchies instead.
    """

    def __init__(
        self,
        geometries: "tuple[CacheGeometry, CacheGeometry, CacheGeometry]",
        latencies: LatencyConfig,
        enabled: "Sequence[tuple[np.ndarray | None, np.ndarray | None]]",
        victim_entries: "Sequence[tuple[int, int]]",
        lat_scale: int = 1,
        prefetch_degrees: "tuple[int, int]" = (0, 0),
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
        self.l2 = VectorCache(l2_geometry, [None] * lanes)
        self.victim_entries_i = [pair[0] for pair in victim_entries]
        self.victim_entries_d = [pair[1] for pair in victim_entries]
        self.victims_i = (
            VectorVictims(self.victim_entries_i) if any(self.victim_entries_i) else None
        )
        self.victims_d = (
            VectorVictims(self.victim_entries_d) if any(self.victim_entries_d) else None
        )
        #: Stamps start one above every lane's clock, so they exceed every
        #: recency value the caches already hold.  Instruction i's demand
        #: access stamps ``stamp_base + stamp_step * (2i + side)`` (side 0
        #: for I, 1 for D), and the j-th block it prefetches ``j`` more,
        #: so a step of one more than the largest degree leaves every
        #: event of one access its own stamp.  The pass leaves each clock
        #: at ``stamp_base + stamp_step * 2n``, past the last stamp, so
        #: chained passes over one hierarchy grow the clock by
        #: ``stamp_step * 2n + 1`` each and stay far below ``BIG_STAMP``.
        self.stamp_base = 1
        self.stamp_step = max(prefetch_degrees) + 1
        #: The caller-owned hierarchies :meth:`copy_in` read, which
        #: :meth:`finalize` writes back to; ``None`` for fresh lanes.
        self.hierarchies: "list[MemoryHierarchy] | None" = None
        self.iport = _BulkPort(
            self.l1i, self.victims_i, latencies, lanes, lat_scale, prefetch_degrees[0]
        )
        self.dport = _BulkPort(
            self.l1d, self.victims_d, latencies, lanes, lat_scale, prefetch_degrees[1]
        )

    def copy_in(self, hierarchies: "Sequence[MemoryHierarchy]") -> None:
        """Start each lane from its caller-owned hierarchy — the one its
        enabled-way matrices, victim sizes and prefetch degrees came
        from: cache and victim contents, prefetcher tags and statistics
        — and base the stamps one above every cache's clock."""
        self.hierarchies = list(hierarchies)
        for lane, hierarchy in enumerate(self.hierarchies):
            self.l1i.copy_in(lane, hierarchy.l1i)
            self.l1d.copy_in(lane, hierarchy.l1d)
            self.l2.copy_in(lane, hierarchy.l2)
            if hierarchy.victim_i is not None:
                self.victims_i.copy_in(lane, hierarchy.victim_i)
            if hierarchy.victim_d is not None:
                self.victims_d.copy_in(lane, hierarchy.victim_d)
            for port, source in (
                (self.iport, hierarchy.iport), (self.dport, hierarchy.dport)
            ):
                if port.prefetcher is not None:
                    port.prefetcher.copy_in(lane, source.prefetcher, source.l1)
        self.stamp_base = 1 + max(
            cache._clock
            for hierarchy in self.hierarchies
            for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
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
        sequential statistics reset; prefetcher statistics, which that
        reset leaves alone, carry over)."""
        self.iport.counts.fill(0)
        self.dport.counts.fill(0)

    def finalize(
        self, measured_i_accesses: int, measured_d_accesses: int, clock: int
    ) -> list[dict]:
        """Every lane's ``hierarchy_stats`` snapshot, derived from the
        per-lane counters with the object caches' arithmetic; a lane
        without a victim cache on a side reports that side's all-zero
        victim entry, as :meth:`MemoryHierarchy.stats` does.

        Lanes copied in from caller-owned hierarchies also get their
        statistics and cache contents written back (``clock`` becomes
        every cache's clock), so ``hierarchy.stats()``, cache
        introspection and a later run continue from the kernel pass."""
        sides = (
            (self.iport.counts.tolist(), measured_i_accesses, self.victim_entries_i),
            (self.dport.counts.tolist(), measured_d_accesses, self.victim_entries_d),
        )
        snapshots = []
        for lane in range(self.lanes):
            stats = HierarchyStats()
            memory = []
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
                memory.append(port_l2_accesses - port_l2_hits)
                l2_accesses += port_l2_accesses
                l2_hits += port_l2_hits
                l2_evictions += counts[_CNT_L2_EVICTIONS][lane]
            l2 = stats.l2
            l2.accesses = l2_accesses
            l2.hits = l2_hits
            l2.misses = l2_accesses - l2_hits
            l2.fills = l2.misses
            l2.evictions = l2_evictions
            stats.memory_accesses = sum(memory)
            if self.hierarchies is not None:
                self._write_back(lane, stats, memory, clock)
            snapshots.append(stats.snapshot())
        return snapshots

    def _write_back(
        self, lane: int, stats: HierarchyStats, memory: list[int], clock: int
    ) -> None:
        """Lane ``lane``'s statistics and contents into its caller-owned
        hierarchy (statistics objects and tag sets updated in place)."""
        hierarchy = self.hierarchies[lane]
        for cache, vector, cache_stats in (
            (hierarchy.l1i, self.l1i, stats.l1i),
            (hierarchy.l1d, self.l1d, stats.l1d),
            (hierarchy.l2, self.l2, stats.l2),
        ):
            vars(cache.stats).update(vars(cache_stats))
            vector.write_back(lane, cache, clock)
        for victim, vector, victim_stats in (
            (hierarchy.victim_i, self.victims_i, stats.victim_i),
            (hierarchy.victim_d, self.victims_d, stats.victim_d),
        ):
            if victim is not None:
                vars(victim.stats).update(vars(victim_stats))
                vector.write_back(lane, victim)
        for port, target in ((self.iport, hierarchy.iport), (self.dport, hierarchy.dport)):
            if port.prefetcher is not None:
                port.prefetcher.write_back(lane, target.prefetcher)
        hierarchy.iport.memory_accesses, hierarchy.dport.memory_accesses = memory
