"""Compiled C lane kernel: the timing recurrence for every eligible run.

This module compiles (at first use, with the system ``gcc``) a C kernel
that advances *all* lanes of a pass through the whole trace (one lane
for a single :meth:`~repro.cpu.pipeline.OutOfOrderPipeline.run`): the
timing recurrence, the L1 probes, the miss service (victim cache, shared
L2, L1 refill with its bypass at fully-disabled sets, writebacks) and
the tagged next-line prefetches.  It works on the bulk engine's arrays
(:mod:`repro.cache.engine`), whose recency stamps order as the object
path's clocks, and counts per lane, so statistics cost O(lanes) memory.
Lanes run inside instructions, so the per-way cache arrays are
set-major: one access's probes over every lane read one contiguous row.
A miss latency, scaled by the commit width, is added to the lane's fetch
clock on the I side and to the load's completion on the D side;
prefetches cost no time.  The kernel returns to Python only at the
warmup boundary (cycle-base snapshot, counter reset) and at trace end.

The kernel reads the :class:`~repro.cpu.trace.Trace`'s own columns in
place (``int8`` class and registers, ``int64`` addresses: 12 bytes per
instruction) beside the schedule's fetch offsets, and computes inline
what it derives from them: the ROB slot (``i % rob_entries`` once per
call, then advanced with a wrap), the issue-queue slot (a running
position in the FP queue for classes 2-3, in the INT queue for the rest;
both positions are argument-struct fields, so the warmup-boundary
return carries them), the D-cache block (``mem_addr >> offset_bits``)
and whether an operand names a register (``>= 0``).

Scans select instead of branching: per lane, each instruction takes the
first minimum of an FU pool and of the issue ports, each miss that of a
set's recency stamps or victim slots, and as branches these per-lane
comparisons mispredict.  ``first_min`` keeps the running minimum and its
index with conditional moves, and the L1 probe selects its matching way.
Which of equal minima a scan takes never shows: FU pools and issue ports
are multisets, cache sets and victim slots content-addressed.

State is shared, not marshalled: a slice of a pass is one argument
struct, :data:`ARGS` (a :class:`~repro.ckernel.Args`, like the trace
kernel's): scalars, the cursors a return carries, the two L1 ports and
the L2 as nested structs, and the addresses of NumPy arrays, each
checked for its dtype and contiguity by
:meth:`~repro.ckernel.Args.pack`.  The kernel takes an array of them
(:meth:`~repro.ckernel.Args.pack_array`), one per slice, contiguous
lane ranges of one pass, and the first struct's ``slices`` says how
many: one call runs every slice, slices 1.. on threads it starts and
joins (``-pthread``) and slice 0 on the calling thread, which also runs
any slice whose thread fails to start.  Slices share only what they
read — the trace's and the schedule's columns, the class tables — so
every split gives the same bits, and the warmup boundary stays one
return of every slice.  A call costs one ctypes dispatch (~1µs)
whatever the lane count, plus a thread start per extra slice; each
slice copies its fields into locals before its loop and writes its
cursors and ``ret`` back when it returns.  All arithmetic is 64-bit
integer and results are bit-identical to the object loop —
golden-pinned in ``tests/integration/test_golden_sim.py`` and fuzzed
against ``engine="object"``, split into 1-4 slices, in
``tests/property/test_batch_equivalence.py``.

The kernel is optional: without a compiler, after a failed build or under
``REPRO_NO_CKERNEL=1``, :func:`load` returns ``None`` and every pipeline
runs the object loop, bit for bit the same.  :class:`~repro.ckernel.CKernel`
builds, caches and loads it, as it does the trace kernel.
"""

from __future__ import annotations

from repro.cache.engine import BIG_STAMP, LANE_COUNTERS, TAG_HASH
from repro.ckernel import Args, CKernel

__all__ = ["ARGS", "KERNEL", "load", "RET_DONE", "RET_BOUNDARY", "CUR_SP_INVALID"]

#: Return codes (``ret`` after a kernel call).
RET_DONE = 0
RET_BOUNDARY = 1

#: ``cur_sp`` sentinel forcing a fetch-base refresh (below any real
#: static fetch offset).
CUR_SP_INVALID = -(1 << 62)

#: One L1 port's lane state: L1 geometry (``row`` = lanes * ways), the
#: padded victim slot axis (``ventries`` 0: no victim cache on this
#: port), the latencies beyond L1 scaled by the commit width, the
#: prefetch degree (``pfdeg`` 0: no prefetcher) with the tag sets' slot
#: count and hash shift, and the port's arrays.  The per-way arrays
#: (``tags``, ``last``, ``dirty``, ``tagged``) are set-major,
#: ``[set][lane][way]``: lane l's way k of set s sits at ``s * row + l *
#: ways + k``, so one access's probes over all lanes read one contiguous
#: row.  The rest are lane-major: lane l's victim slot j sits at ``l *
#: ventries + j``, its tag-set slot j at ``l * tslots + j``, its counter
#: k at ``cnt[k * lanes + l]``.  ``vins`` is ``NULL`` when every lane has
#: a victim cache.
_PORT = Args("port_t", (
    ("ways", "i64"), ("row", "i64"), ("set_mask", "i64"), ("index_bits", "i64"),
    ("ventries", "i64"), ("vempty", "i64"),
    ("vlat", "i64"), ("l2lat", "i64"), ("memlat", "i64"),
    ("pfdeg", "i64"), ("tslots", "i64"), ("tshift", "i64"),
    ("tags", "i64*"), ("last", "i64*"), ("dirty", "u8*"),
    ("vtags", "i64*"), ("vstamp", "i64*"), ("vins", "u8*"),
    ("cnt", "i64*"), ("tagged", "u8*"), ("tset", "i64*"),
))
#: The shared L2's lane state, set-major like an L1's; no dirty bytes.
_L2 = Args("l2_t", (
    ("ways", "i64"), ("row", "i64"), ("set_mask", "i64"), ("index_bits", "i64"),
    ("tags", "i64*"), ("last", "i64*"),
))
#: The argument struct of ``repro_run_lanes``.
ARGS = Args("args_t", (
    # constants; the first struct's slices is the pass's slice count
    ("slices", "i64"), ("n", "i64"), ("lanes", "i64"), ("wscale", "i64"),
    ("wm1", "i64"), ("wpow2", "i64"), ("fdelay", "i64"), ("kstamp", "i64"),
    ("kstep", "i64"), ("dhit", "i64"), ("nports", "i64"), ("rob_size", "i64"),
    ("iqint_size", "i64"), ("iqfp_size", "i64"), ("doff_bits", "i64"),
    # cursors and results, carried across calls: the instruction, the
    # next I-access and redirect, and the INT and FP issue-queue positions
    ("i_cur", "i64"), ("ia_cur", "i64"), ("rd_cur", "i64"),
    ("iqint_cur", "i64"), ("iqfp_cur", "i64"), ("cur_sp", "i64"),
    ("boundary", "i64"), ("ret", "i64"),
    ("ip", _PORT), ("dp", _PORT), ("l2", _L2),
    # per instruction class: (latency - 1) * W and FU pool; the pool widths
    ("execlat", "i64*"), ("fuof", "i64*"), ("poolw", "i64*"),
    # the trace's columns, then the schedule's
    ("cls", "i8*"), ("src1", "i8*"), ("src2", "i8*"), ("dest", "i8*"),
    ("mem_addr", "i64*"),
    ("sps", "i64*"), ("ia_idx", "i64*"), ("ia_lines", "i64*"),
    ("rd_idx", "i64*"), ("rd_snext", "i64*"),
    # the pass's own state
    ("reg", "i64*"), ("rob", "i64*"), ("iqint", "i64*"), ("iqfp", "i64*"),
    ("pool0", "i64*"), ("pool1", "i64*"), ("pool2", "i64*"), ("pool3", "i64*"),
    ("ports", "i64*"), ("dyn", "i64*"), ("fetch_base", "i64*"), ("v", "i64*"),
))


_C_BODY = r"""
/* The index of the first minimum of v[0 .. n-1] (earliest-free FU or
   port, LRU way or victim slot), kept with selects, not branches. */
static inline int64_t first_min(const int64_t *v, int64_t n) {
    int64_t m = v[0], w = 0;
    for (int64_t k = 1; k < n; k++) {
        const int lt = v[k] < m;
        m = lt ? v[k] : m;
        w = lt ? k : w;
    }
    return w;
}

/* L1 probe of lane l in the set whose row starts at base: stamp (and,
   for a store, dirty) the matching way; returns its flat index, or -1
   when the lane missed.  A fill follows a miss and a prefetch skips
   resident blocks, so a set never holds a tag twice. */
static inline int64_t probe(const port_t *p, int64_t l, int64_t base,
                            int64_t tag, int64_t stamp, int is_write) {
    const int64_t off = base + l * p->ways;
    int64_t hit = -1;
    for (int64_t k = 0; k < p->ways; k++)
        hit = p->tags[off + k] == tag ? off + k : hit;
    if (hit >= 0) {
        p->last[hit] = stamp;
        if (is_write) p->dirty[hit] = 1;
    }
    return hit;
}

/* A lane's tag set (NextLinePrefetcher._tagged; BulkLanes._port gives
   its markers and sizing): open addressing over tslots slots, linear
   probing from a Fibonacci hash (TAG_HASH_C).  Returns the slot holding
   block, or the empty slot where it would go. */
static int64_t tag_slot(const port_t *p, const int64_t *set, int64_t block) {
    int64_t j = (int64_t)(((uint64_t)block * TAG_HASH_C) >> p->tshift);
    while (set[j] != -1 && set[j] != block) j = (j + 1) & (p->tslots - 1);
    return j;
}

/* NextLinePrefetcher._issue for lane l: blocks block+1 .. block+degree
   the L1 does not hold are tagged, counted, and filled at stamps
   stamp+1 .. (LRU; bypassed at a fully-disabled set).  An evictee is
   counted, then dropped: it enters neither the victim cache nor the L2. */
static void prefetch(const port_t *p, int64_t l, int64_t L, int64_t block,
                     int64_t stamp) {
    int64_t *cnt = p->cnt + l;
    int64_t *set = p->tset + l * p->tslots;
    for (int64_t j = 1; j <= p->pfdeg; j++) {
        const int64_t target = block + j;
        const int64_t tag = target >> p->index_bits;
        const int64_t off = (target & p->set_mask) * p->row + l * p->ways;
        int resident = 0;
        for (int64_t k = 0; k < p->ways; k++)
            if (p->tags[off + k] == tag) resident = 1;
        if (resident) continue;
        set[tag_slot(p, set, target)] = target;
        cnt[CNT_PREFETCHES * L]++;
        const int64_t w = off + first_min(p->last + off, p->ways);
        if (p->last[w] >= BIG_STAMP_C) {
            cnt[CNT_BYPASSED * L]++;
            continue;
        }
        if (p->tags[w] >= 0) {
            cnt[CNT_PREFETCH_EVICTIONS * L]++;
            if (p->dirty[w]) cnt[CNT_WRITEBACKS * L]++;
        }
        p->tags[w] = tag;
        p->last[w] = stamp + j;
        p->dirty[w] = 0;
        p->tagged[w] = 1;
    }
}

/* NextLinePrefetcher.on_demand_hit of lane l on the tagged way w: untag
   it and chain the next prefetch. */
static void tagged_hit(const port_t *p, int64_t l, int64_t L, int64_t w,
                       int64_t block, int64_t stamp) {
    int64_t *set = p->tset + l * p->tslots;
    p->tagged[w] = 0;
    set[tag_slot(p, set, block)] = -2;
    prefetch(p, l, L, block, stamp);
}

/* VictimCache.insert of lane l's L1 evictee: a block the slots already
   hold (a prefetch may refill the L1 with one) moves to MRU; any other
   takes the LRU slot, evicting its occupant. */
static void victim_insert(const port_t *p, int64_t l, int64_t L,
                          int64_t block, int64_t stamp) {
    int64_t *vt = p->vtags + l * p->ventries;
    int64_t *vs = p->vstamp + l * p->ventries;
    int64_t j = -1;
    if (p->pfdeg)
        for (int64_t k = 0; k < p->ventries; k++)
            if (vt[k] == block) { j = k; break; }
    if (j < 0) {
        j = first_min(vs, p->ventries);
        if (vt[j] >= 0) p->cnt[CNT_VICTIM_EVICTIONS * L + l]++;
    }
    vt[j] = block;
    vs[j] = stamp;
}

/* Miss service of lane l, in the object CachePort's order: victim
   extract-on-hit, else the shared L2 (probe, LRU refill on a miss);
   then the L1 LRU refill — bypassed when the chosen way is disabled —
   with its evictee inserted into the victim slots; then, unless the
   victim cache served it, the prefetches.  Returns the latency beyond
   L1, scaled by the commit width. */
static int64_t service(const port_t *p, const l2_t *l2, int64_t l,
                       int64_t L, int64_t block, int64_t stamp,
                       int is_write) {
    int64_t *cnt = p->cnt + l;
    int64_t lat;
    int vhit = 0;
    cnt[CNT_MISSES * L]++;
    if (p->ventries) {
        int64_t *vt = p->vtags + l * p->ventries;
        for (int64_t j = 0; j < p->ventries; j++)
            if (vt[j] == block) {
                vt[j] = -1;
                p->vstamp[l * p->ventries + j] = p->vempty;
                vhit = 1;
                break;
            }
    }
    if (vhit) {
        cnt[CNT_VICTIM_HITS * L]++;
        lat = p->vlat;
    } else {
        const int64_t off2 =
            (block & l2->set_mask) * l2->row + l * l2->ways;
        const int64_t tag2 = block >> l2->index_bits;
        int64_t *t2 = l2->tags + off2;
        int64_t *s2 = l2->last + off2;
        int hit2 = 0;
        for (int64_t k = 0; k < l2->ways; k++)
            if (t2[k] == tag2) {
                s2[k] = stamp;
                hit2 = 1;
            }
        if (hit2) {
            cnt[CNT_L2_HITS * L]++;
            lat = p->l2lat;
        } else {
            const int64_t w = first_min(s2, l2->ways);
            if (t2[w] >= 0) cnt[CNT_L2_EVICTIONS * L]++;
            t2[w] = tag2;
            s2[w] = stamp;
            lat = p->memlat;
        }
    }
    const int64_t s = block & p->set_mask;
    const int64_t off = s * p->row + l * p->ways;
    const int64_t w = off + first_min(p->last + off, p->ways);
    if (p->last[w] >= BIG_STAMP_C) { /* every way of the set is disabled */
        cnt[CNT_BYPASSED * L]++;
    } else {
        const int64_t victim_tag = p->tags[w];
        if (victim_tag >= 0) {
            cnt[CNT_EVICTIONS * L]++;
            if (p->dirty[w]) cnt[CNT_WRITEBACKS * L]++;
            if (p->ventries && (p->vins == NULL || p->vins[l]))
                victim_insert(p, l, L, (victim_tag << p->index_bits) | s, stamp);
        }
        p->tags[w] = block >> p->index_bits;
        p->last[w] = stamp;
        p->dirty[w] = (uint8_t)is_write;
        if (p->pfdeg) { /* tagged iff the set holds the (stale) tag */
            const int64_t *set = p->tset + l * p->tslots;
            p->tagged[w] = set[tag_slot(p, set, block)] == block;
        }
    }
    if (p->pfdeg && !vhit) prefetch(p, l, L, block, stamp);
    return lat;
}

/* One slice of a pass: its lanes through the trace, from the cursors
   in its struct to the warmup boundary or the trace's end. */
static void run_slice(args_t *a) {
    const int64_t n = a->n;
    const int64_t L = a->lanes;
    const int64_t W = a->wscale;
    const int64_t wm1 = a->wm1;
    const int64_t w_pow2 = a->wpow2;
    const int64_t fdelay = a->fdelay;
    const int64_t K = a->kstamp;
    const int64_t kstep = a->kstep;
    const int64_t dhit = a->dhit;
    const int64_t nports = a->nports;
    const int64_t *execlat = a->execlat;
    const int64_t *fuof = a->fuof;
    const int64_t *poolw = a->poolw;
    const port_t ip = a->ip, dp = a->dp;
    const l2_t l2 = a->l2;

    const int8_t *cls_c = a->cls;
    const int8_t *src1 = a->src1;
    const int8_t *src2 = a->src2;
    const int8_t *dest = a->dest;
    const int64_t *mem_addr = a->mem_addr;
    const int64_t doff = a->doff_bits;
    const int64_t *sps_c = a->sps;
    const int64_t *ia_idx = a->ia_idx;
    const int64_t *ia_lines = a->ia_lines;
    const int64_t *rd_idx = a->rd_idx;
    const int64_t *rd_snext = a->rd_snext;
    int64_t *reg = a->reg;
    int64_t *rob = a->rob;
    const int64_t rob_size = a->rob_size;
    /* issue queues, [0] INT and [1] FP: rows, sizes, running positions */
    int64_t *iq[2] = {a->iqint, a->iqfp};
    const int64_t iq_size[2] = {a->iqint_size, a->iqfp_size};
    int64_t iq_cur[2] = {a->iqint_cur, a->iqfp_cur};
    int64_t *pools[4] = {a->pool0, a->pool1, a->pool2, a->pool3};
    int64_t *ports = a->ports;
    int64_t *dyn = a->dyn;
    int64_t *fetch_base = a->fetch_base;
    int64_t *v = a->v;

    int64_t i = a->i_cur;
    int64_t rob_slot = i % rob_size; /* advanced with a wrap below */
    int64_t ia_cur = a->ia_cur;
    int64_t rd_cur = a->rd_cur;
    int64_t cur_sp = a->cur_sp;
    const int64_t boundary = a->boundary;
    int64_t next_ia = ia_idx[ia_cur];
    int64_t next_rd = rd_idx[rd_cur];
    int64_t ret = RET_DONE_C;

    for (; i < n; i++) {
        if (i == boundary) { ret = RET_BOUNDARY_C; goto save; }
        if (i == next_ia) {
            /* ---- I-cache access point: probe, or service, every lane -- */
            const int64_t line = ia_lines[ia_cur];
            const int64_t base = (line & ip.set_mask) * ip.row;
            const int64_t tag = line >> ip.index_bits;
            const int64_t stamp = K + kstep * 2 * i;
            for (int64_t l = 0; l < L; l++) {
                const int64_t way = probe(&ip, l, base, tag, stamp, 0);
                if (way < 0) {
                    dyn[l] += service(&ip, &l2, l, L, line, stamp, 0);
                    cur_sp = CUR_SP_INVALID_C; /* refresh fetch base */
                } else if (ip.pfdeg && ip.tagged[way]) {
                    tagged_hit(&ip, l, L, way, line, stamp);
                }
            }
            ia_cur++;
            next_ia = ia_idx[ia_cur];
        }
        const int64_t cls = cls_c[i];
        const int is_mem = cls == 4 || cls == 5;
        const int is_store = cls == 5;
        int64_t dblock = 0, dbase = 0, dtag = 0;
        if (is_mem) {
            dblock = mem_addr[i] >> doff;
            dbase = (dblock & dp.set_mask) * dp.row;
            dtag = dblock >> dp.index_bits;
        }
        const int64_t sp = sps_c[i];
        if (sp != cur_sp) {
            const int64_t off = sp * W;
            for (int64_t l = 0; l < L; l++) fetch_base[l] = dyn[l] + off;
            cur_sp = sp;
        }
        const int64_t r1 = src1[i];
        const int64_t r2 = src2[i];
        const int64_t rdst = dest[i];
        int64_t *robrow = rob + rob_slot * L;
        const int q = cls == 2 || cls == 3; /* the FP queue */
        int64_t *iqrow = iq[q] + iq_cur[q] * L;
        iq_cur[q] = iq_cur[q] + 1 == iq_size[q] ? 0 : iq_cur[q] + 1;
        const int64_t fu = fuof[cls];
        const int64_t pw = poolw[fu];
        int64_t *pool = pools[fu];
        const int64_t elat = execlat[cls];
        const int redirect = i == next_rd;
        const int64_t rd_add =
            redirect ? (1 + fdelay - rd_snext[rd_cur]) * W : 0;
        const int64_t stamp_d = K + kstep * (2 * i + 1);
        for (int64_t l = 0; l < L; l++) {
            /* dispatch: fetch/ROB/IQ/operand readiness maxima -------- */
            int64_t disp = fetch_base[l];
            int64_t x = robrow[l];
            if (x > disp) disp = x;
            x = iqrow[l];
            if (x > disp) disp = x;
            if (r1 >= 0) {
                x = reg[r1 * L + l];
                if (x > disp) disp = x;
            }
            if (r2 >= 0 && r2 != r1) {
                x = reg[r2 * L + l];
                if (x > disp) disp = x;
            }
            /* issue: earliest-free FU and port, first-minimum tie-break
               (argmin-replace, multiset-equivalent to heapreplace) --- */
            int64_t *pl = pool + l * pw;
            const int64_t bi = first_min(pl, pw);
            if (pl[bi] > disp) disp = pl[bi];
            int64_t *pt = ports + l * nports;
            const int64_t qi = first_min(pt, nports);
            if (pt[qi] > disp) disp = pt[qi];
            const int64_t issued = disp + W;
            pl[bi] = issued;
            pt[qi] = issued;
            iqrow[l] = issued;
            /* execute / complete: D-probe, miss service on a miss ---- */
            int64_t cw;
            if (is_mem) {
                int64_t lat = 0;
                const int64_t way =
                    probe(&dp, l, dbase, dtag, stamp_d, is_store);
                if (way < 0)
                    lat = service(&dp, &l2, l, L, dblock, stamp_d, is_store);
                else if (dp.pfdeg && dp.tagged[way])
                    tagged_hit(&dp, l, L, way, dblock, stamp_d);
                /* a store retires via the store buffer */
                cw = is_store ? issued : issued + dhit + lat;
            } else {
                cw = issued + elat;
            }
            if (rdst >= 0) reg[rdst * L + l] = cw;
            /* commit: v' = max(v, cw) + 1, ROB frees at the scaled
               (last_commit + 1) * W bound ---------------------------- */
            int64_t vv = v[l];
            if (cw > vv) vv = cw;
            robrow[l] = w_pow2 ? (vv | wm1) + 1 : (vv / W + 1) * W;
            v[l] = vv + 1;
            if (redirect) {
                const int64_t dd = cw + rd_add;
                if (dd > dyn[l]) dyn[l] = dd;
            }
        }
        rob_slot = rob_slot + 1 == rob_size ? 0 : rob_slot + 1;
        if (redirect) {
            rd_cur++;
            next_rd = rd_idx[rd_cur];
            cur_sp = CUR_SP_INVALID_C; /* dyn moved: refresh fetch base */
        }
    }
save:
    a->i_cur = i;
    a->ia_cur = ia_cur;
    a->rd_cur = rd_cur;
    a->iqint_cur = iq_cur[0];
    a->iqfp_cur = iq_cur[1];
    a->cur_sp = cur_sp;
    a->ret = ret;
}

static void *slice_main(void *a) {
    run_slice((args_t *)a);
    return NULL;
}

/* Every slice of a pass, a[0 .. a->slices - 1]: slices 1.. on threads of
   their own, slice 0 on the calling thread, then a join.  Slices write
   only their own arrays and read the shared ones (the trace's and the
   schedule's columns, the class tables), so any interleaving gives the
   same bits; a slice whose thread fails to start runs here after slice
   0.  Python bounds slices to 1 .. the pass's lanes. */
void repro_run_lanes(args_t *a) {
    const int64_t k = a->slices;
    pthread_t threads[k];
    int started[k];
    for (int64_t j = 1; j < k; j++)
        started[j] = pthread_create(&threads[j], NULL, slice_main, a + j) == 0;
    run_slice(a);
    for (int64_t j = 1; j < k; j++) {
        if (started[j]) pthread_join(threads[j], NULL);
        else run_slice(a + j);
    }
}
"""


def _source() -> str:
    defines = ["#include <pthread.h>", "#include <stddef.h>", "#include <stdint.h>", ""]
    defines += [
        f"#define CNT_{name.upper()} {row}"
        for row, name in enumerate(LANE_COUNTERS)
    ]
    defines.append(f"#define TAG_HASH_C UINT64_C({TAG_HASH})")
    defines.append(f"#define BIG_STAMP_C INT64_C({BIG_STAMP})")
    defines.append(f"#define RET_DONE_C {RET_DONE}")
    defines.append(f"#define RET_BOUNDARY_C {RET_BOUNDARY}")
    defines.append(f"#define CUR_SP_INVALID_C INT64_C({CUR_SP_INVALID})")
    return "\n".join(defines) + "\n\n" + ARGS.typedef() + _C_BODY


KERNEL = CKernel(
    "lane_kernel",
    _source(),
    ARGS,
    ("repro_run_lanes",),
    fallback="every simulation falls back to the bit-identical object loop",
    cflags=("-pthread",),
)


def load():
    """The compiled kernel entry point, or ``None`` when unavailable
    (``REPRO_NO_CKERNEL=1``, no working ``gcc``, load failure).  Build
    results — success or failure — are cached for the process.  It takes
    an array of :data:`ARGS` structs, one per slice of a pass."""
    lib = KERNEL.load()
    return None if lib is None else lib.repro_run_lanes
