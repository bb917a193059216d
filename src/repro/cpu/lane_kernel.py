"""Compiled C lane kernel: the timing recurrence for every eligible run.

This module compiles (at first use, with the system ``gcc``) a small C
kernel that advances *all* lanes of a pass through the whole trace — one
lane for a single :meth:`~repro.cpu.pipeline.OutOfOrderPipeline.run`,
many for a ``run_batch``: the per-instruction timing recurrence —
dispatch maxima, FU-pool and issue-port argmin-replace, commit,
redirects — the L1 probes, and the miss service of every lane that
misses L1 (victim extract-on-hit, the shared-L2 probe and LRU refill,
the L1 LRU refill with its fill bypass at fully-disabled sets, evictee
insertion into the padded victim slots, writebacks).  It works on the
bulk engine's ``VectorCache``/``VectorVictims`` arrays
(:mod:`repro.cache.engine`) with recency stamps whose order matches the
object path's clocks, first-minimum tie-breaks, and per-lane counter
blocks (:data:`repro.cache.engine.LANE_COUNTERS`), so statistics cost
O(lanes) memory whatever the trace length.  A miss latency (scaled by
the commit width) is added to the lane's fetch clock on the I side and
to the load's completion on the D side.

The kernel returns to Python only at the warmup/measured boundary
(cycle-base snapshot and counter reset) and at trace end.

State is shared, not marshalled: the kernel receives one ``int64`` "ctx"
array holding scalars, cursors, and the raw addresses of the NumPy lane
arrays (``ndarray.ctypes.data``), so a call costs one ctypes dispatch
(~1µs) regardless of lane count.  All arithmetic is 64-bit integer and
every tie-break matches the object loop exactly, keeping results
bit-identical — golden-pinned in ``tests/integration/test_golden_sim.py``
and checked against ``engine="object"`` over fuzzed pipelines and
hierarchies in ``tests/property/test_batch_equivalence.py``.

The kernel is optional: no compiler, a failed build, or the environment
override ``REPRO_NO_CKERNEL=1`` make :func:`load` return ``None``, and
every pipeline then runs the object loop — same results, bit for bit.
Compiled objects are cached under the system temp directory
(``REPRO_KERNEL_CACHE`` overrides it) keyed by a source hash, so
rebuilds only happen when the kernel source changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings

from repro.cache.engine import BIG_STAMP, LANE_COUNTERS

__all__ = ["load", "CTX", "CTX_SLOTS", "RET_DONE", "RET_BOUNDARY"]

#: Return codes (ctx[RET] after a kernel call).
RET_DONE = 0
RET_BOUNDARY = 1

#: ``cur_sp`` sentinel forcing a fetch-base refresh (below any real
#: static fetch offset).
CUR_SP_INVALID = -(1 << 62)

_SCALARS = (
    # constants
    "N", "NLANES", "WSCALE", "WM1", "WPOW2", "FDELAY", "KSTAMP", "DHIT",
    "NPORTS", "L2WAYS", "L2STRIDE", "L2SETMASK", "L2IDXBITS",
    # cursors / results (mutable across calls)
    "I_CUR", "IA_CUR", "RD_CUR", "CUR_SP", "BOUNDARY", "RET",
)
_TABLES = (
    ("EXECLAT", 9),  # (latency - 1) * W per instruction class
    ("FUOF", 9),     # class -> FU pool index
    ("POOLW", 4),    # FU pool widths
)
#: One block per L1 port ("I_*", then "D_*"): L1 geometry, the padded
#: victim slot axis (VENTRIES 0 = no victim cache on this port), the
#: latencies beyond L1 scaled by the commit width, and the addresses of
#: the port's L1/victim arrays and its [counter][lane] counter block.
_PORT_FIELDS = (
    "WAYS", "STRIDE", "SETMASK", "IDXBITS",
    "VENTRIES", "VSTRIDE", "VEMPTY", "VLAT", "L2LAT", "MEMLAT",
    "P_TAGS", "P_LAST", "P_DIRTY", "P_FILLT",
    "P_VTAGS", "P_VSTAMP", "P_VINS", "P_CNT",
)
_POINTERS = (
    "P_CLS", "P_SPS", "P_SRC1", "P_SRC2", "P_DEST", "P_ROBCOL", "P_IQCOL",
    "P_DBLOCKS", "P_IAIDX", "P_IALINES", "P_RDIDX", "P_RDSNEXT",
    "P_REG", "P_ROB", "P_IQINT", "P_IQFP",
    "P_POOL0", "P_POOL1", "P_POOL2", "P_POOL3", "P_PORTS",
    "P_DYN", "P_FETCHBASE", "P_V",
    "P_L2TAGS", "P_L2LAST", "P_L2FILLT",
)

#: Name -> ctx slot index; the C ``#define`` block is generated from this
#: same table, so Python and C can never disagree on the layout.
CTX: dict[str, int] = {}
_slot = 0
for _name in _SCALARS:
    CTX[_name] = _slot
    _slot += 1
for _name, _width in _TABLES:
    CTX[_name] = _slot
    _slot += _width
for _side in ("I", "D"):
    for _name in _PORT_FIELDS:
        CTX[f"{_side}_{_name}"] = _slot
        _slot += 1
for _name in _POINTERS:
    CTX[_name] = _slot
    _slot += 1
CTX_SLOTS = _slot


_C_BODY = r"""
#include <stddef.h>
#include <stdint.h>

#define I64P(k) ((int64_t *)(intptr_t)ctx[k])
#define U8P(k) ((uint8_t *)(intptr_t)ctx[k])

/* One L1 port's lane state (see _PORT_FIELDS).  Arrays are lane-major:
   lane l's L1 entry j sits at l * stride + j, its victim slot j at
   l * vstride + j, its counter k at cnt[k * L + l]. */
typedef struct {
    int64_t ways, stride, set_mask, index_bits;
    int64_t ventries, vstride, vempty, vlat, l2lat, memlat;
    int64_t *tags, *last, *fillt;
    uint8_t *dirty;
    int64_t *vtags, *vstamp;
    const uint8_t *vins; /* NULL: every lane has a victim cache */
    int64_t *cnt;
} port_t;

typedef struct {
    int64_t ways, stride, set_mask, index_bits;
    int64_t *tags, *last, *fillt;
} l2_t;

static void load_port(port_t *p, const int64_t *ctx, int64_t at) {
    p->ways = ctx[at + PORT_WAYS];
    p->stride = ctx[at + PORT_STRIDE];
    p->set_mask = ctx[at + PORT_SETMASK];
    p->index_bits = ctx[at + PORT_IDXBITS];
    p->ventries = ctx[at + PORT_VENTRIES];
    p->vstride = ctx[at + PORT_VSTRIDE];
    p->vempty = ctx[at + PORT_VEMPTY];
    p->vlat = ctx[at + PORT_VLAT];
    p->l2lat = ctx[at + PORT_L2LAT];
    p->memlat = ctx[at + PORT_MEMLAT];
    p->tags = I64P(at + PORT_P_TAGS);
    p->last = I64P(at + PORT_P_LAST);
    p->dirty = U8P(at + PORT_P_DIRTY);
    p->fillt = I64P(at + PORT_P_FILLT);
    p->vtags = I64P(at + PORT_P_VTAGS);
    p->vstamp = I64P(at + PORT_P_VSTAMP);
    p->vins = U8P(at + PORT_P_VINS);
    p->cnt = I64P(at + PORT_P_CNT);
}

/* L1 probe of lane l: stamp (and, for a store, dirty) the matching way;
   returns whether the lane hit. */
static inline int probe(const port_t *p, int64_t l, int64_t base,
                        int64_t tag, int64_t stamp, int is_write) {
    const int64_t off = l * p->stride + base;
    int hit = 0;
    for (int64_t k = 0; k < p->ways; k++)
        if (p->tags[off + k] == tag) {
            p->last[off + k] = stamp;
            if (is_write) p->dirty[off + k] = 1;
            hit = 1;
        }
    return hit;
}

/* Miss service of lane l, in the object CachePort's order: victim
   extract-on-hit, else the shared L2 (probe, LRU refill on a miss);
   then the L1 LRU refill — bypassed when the chosen way is disabled —
   with its evictee inserted into the victim slots.  Returns the latency
   beyond L1, scaled by the commit width. */
static int64_t service(const port_t *p, const l2_t *l2, int64_t l,
                       int64_t L, int64_t block, int64_t stamp,
                       int is_write) {
    int64_t *cnt = p->cnt + l;
    int64_t lat;
    int vhit = 0;
    cnt[CNT_MISSES * L]++;
    if (p->ventries) {
        int64_t *vt = p->vtags + l * p->vstride;
        for (int64_t j = 0; j < p->ventries; j++)
            if (vt[j] == block) {
                vt[j] = -1;
                p->vstamp[l * p->vstride + j] = p->vempty;
                vhit = 1;
                break;
            }
    }
    if (vhit) {
        cnt[CNT_VICTIM_HITS * L]++;
        lat = p->vlat;
    } else {
        const int64_t off2 =
            l * l2->stride + (block & l2->set_mask) * l2->ways;
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
            int64_t w = 0;
            for (int64_t k = 1; k < l2->ways; k++)
                if (s2[k] < s2[w]) w = k;
            if (t2[w] >= 0) cnt[CNT_L2_EVICTIONS * L]++;
            t2[w] = tag2;
            s2[w] = stamp;
            l2->fillt[off2 + w] = stamp;
            lat = p->memlat;
        }
    }
    const int64_t s = block & p->set_mask;
    const int64_t off = l * p->stride + s * p->ways;
    const int64_t *s1 = p->last + off;
    int64_t w = 0;
    for (int64_t k = 1; k < p->ways; k++)
        if (s1[k] < s1[w]) w = k;
    if (s1[w] >= BIG_STAMP_C) { /* every way of the set is disabled */
        cnt[CNT_BYPASSED * L]++;
        return lat;
    }
    const int64_t victim_tag = p->tags[off + w];
    if (victim_tag >= 0) {
        cnt[CNT_EVICTIONS * L]++;
        if (p->dirty[off + w]) cnt[CNT_WRITEBACKS * L]++;
        if (p->ventries && (p->vins == NULL || p->vins[l])) {
            int64_t *vt = p->vtags + l * p->vstride;
            int64_t *vs = p->vstamp + l * p->vstride;
            int64_t j = 0;
            for (int64_t k = 1; k < p->ventries; k++)
                if (vs[k] < vs[j]) j = k;
            if (vt[j] >= 0) cnt[CNT_VICTIM_EVICTIONS * L]++;
            vt[j] = (victim_tag << p->index_bits) | s;
            vs[j] = stamp;
        }
    }
    p->tags[off + w] = block >> p->index_bits;
    p->last[off + w] = stamp;
    p->dirty[off + w] = (uint8_t)is_write;
    p->fillt[off + w] = stamp;
    return lat;
}

void repro_run_lanes(int64_t *ctx) {
    const int64_t n = ctx[N];
    const int64_t L = ctx[NLANES];
    const int64_t W = ctx[WSCALE];
    const int64_t wm1 = ctx[WM1];
    const int64_t w_pow2 = ctx[WPOW2];
    const int64_t fdelay = ctx[FDELAY];
    const int64_t K = ctx[KSTAMP];
    const int64_t dhit = ctx[DHIT];
    const int64_t nports = ctx[NPORTS];
    const int64_t *execlat = ctx + EXECLAT;
    const int64_t *fuof = ctx + FUOF;
    const int64_t *poolw = ctx + POOLW;
    port_t ip, dp;
    load_port(&ip, ctx, I_PORT);
    load_port(&dp, ctx, D_PORT);
    const l2_t l2 = {ctx[L2WAYS], ctx[L2STRIDE], ctx[L2SETMASK],
                     ctx[L2IDXBITS], I64P(P_L2TAGS), I64P(P_L2LAST),
                     I64P(P_L2FILLT)};

    const int64_t *cls_c = I64P(P_CLS);
    const int64_t *sps_c = I64P(P_SPS);
    const int64_t *src1 = I64P(P_SRC1);
    const int64_t *src2 = I64P(P_SRC2);
    const int64_t *dest = I64P(P_DEST);
    const int64_t *robcol = I64P(P_ROBCOL);
    const int64_t *iqcol = I64P(P_IQCOL);
    const int64_t *dblocks = I64P(P_DBLOCKS);
    const int64_t *ia_idx = I64P(P_IAIDX);
    const int64_t *ia_lines = I64P(P_IALINES);
    const int64_t *rd_idx = I64P(P_RDIDX);
    const int64_t *rd_snext = I64P(P_RDSNEXT);
    int64_t *reg = I64P(P_REG);
    int64_t *rob = I64P(P_ROB);
    int64_t *iqint = I64P(P_IQINT);
    int64_t *iqfp = I64P(P_IQFP);
    int64_t *pools[4] = {I64P(P_POOL0), I64P(P_POOL1), I64P(P_POOL2),
                         I64P(P_POOL3)};
    int64_t *ports = I64P(P_PORTS);
    int64_t *dyn = I64P(P_DYN);
    int64_t *fetch_base = I64P(P_FETCHBASE);
    int64_t *v = I64P(P_V);

    int64_t i = ctx[I_CUR];
    int64_t ia_cur = ctx[IA_CUR];
    int64_t rd_cur = ctx[RD_CUR];
    int64_t cur_sp = ctx[CUR_SP];
    const int64_t boundary = ctx[BOUNDARY];
    int64_t next_ia = ia_idx[ia_cur];
    int64_t next_rd = rd_idx[rd_cur];
    int64_t ret = RET_DONE_C;

    for (; i < n; i++) {
        if (i == boundary) { ret = RET_BOUNDARY_C; goto save; }
        if (i == next_ia) {
            /* ---- I-cache access point: probe, or service, every lane -- */
            const int64_t line = ia_lines[ia_cur];
            const int64_t base = (line & ip.set_mask) * ip.ways;
            const int64_t tag = line >> ip.index_bits;
            const int64_t stamp = K + 2 * i;
            for (int64_t l = 0; l < L; l++)
                if (!probe(&ip, l, base, tag, stamp, 0)) {
                    dyn[l] += service(&ip, &l2, l, L, line, stamp, 0);
                    cur_sp = CUR_SP_INVALID_C; /* refresh fetch base */
                }
            ia_cur++;
            next_ia = ia_idx[ia_cur];
        }
        const int64_t cls = cls_c[i];
        const int is_mem = cls == 4 || cls == 5;
        const int is_store = cls == 5;
        int64_t dblock = 0, dbase = 0, dtag = 0;
        if (is_mem) {
            dblock = dblocks[i];
            dbase = (dblock & dp.set_mask) * dp.ways;
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
        int64_t *robrow = rob + robcol[i] * L;
        int64_t *iqrow =
            ((cls == 2 || cls == 3) ? iqfp : iqint) + iqcol[i] * L;
        const int64_t fu = fuof[cls];
        const int64_t pw = poolw[fu];
        int64_t *pool = pools[fu];
        const int64_t elat = execlat[cls];
        const int redirect = i == next_rd;
        const int64_t rd_add =
            redirect ? (1 + fdelay - rd_snext[rd_cur]) * W : 0;
        const int64_t stamp_d = K + 2 * i + 1;
        for (int64_t l = 0; l < L; l++) {
            /* dispatch: fetch/ROB/IQ/operand readiness maxima -------- */
            int64_t disp = fetch_base[l];
            int64_t x = robrow[l];
            if (x > disp) disp = x;
            x = iqrow[l];
            if (x > disp) disp = x;
            if (r1 != 64) {
                x = reg[r1 * L + l];
                if (x > disp) disp = x;
            }
            if (r2 != 64 && r2 != r1) {
                x = reg[r2 * L + l];
                if (x > disp) disp = x;
            }
            /* issue: earliest-free FU and port, first-minimum tie-break
               (argmin-replace, multiset-equivalent to heapreplace) --- */
            int64_t *pl = pool + l * pw;
            int64_t bi = 0, bv = pl[0];
            for (int64_t k = 1; k < pw; k++)
                if (pl[k] < bv) { bv = pl[k]; bi = k; }
            if (bv > disp) disp = bv;
            int64_t *pt = ports + l * nports;
            int64_t qi = 0, qv = pt[0];
            for (int64_t k = 1; k < nports; k++)
                if (pt[k] < qv) { qv = pt[k]; qi = k; }
            if (qv > disp) disp = qv;
            const int64_t issued = disp + W;
            pl[bi] = issued;
            pt[qi] = issued;
            iqrow[l] = issued;
            /* execute / complete: D-probe, miss service on a miss ---- */
            int64_t cw;
            if (is_mem) {
                int64_t lat = 0;
                if (!probe(&dp, l, dbase, dtag, stamp_d, is_store))
                    lat = service(&dp, &l2, l, L, dblock, stamp_d, is_store);
                /* a store retires via the store buffer */
                cw = is_store ? issued : issued + dhit + lat;
            } else {
                cw = issued + elat;
            }
            if (rdst != 65) reg[rdst * L + l] = cw;
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
        if (redirect) {
            rd_cur++;
            next_rd = rd_idx[rd_cur];
            cur_sp = CUR_SP_INVALID_C; /* dyn moved: refresh fetch base */
        }
    }
save:
    ctx[I_CUR] = i;
    ctx[IA_CUR] = ia_cur;
    ctx[RD_CUR] = rd_cur;
    ctx[CUR_SP] = cur_sp;
    ctx[RET] = ret;
}
"""


def _source() -> str:
    defines = [f"#define {name} {slot}" for name, slot in CTX.items()]
    defines += [f"#define PORT_{name} {j}" for j, name in enumerate(_PORT_FIELDS)]
    defines.append(f"#define I_PORT {CTX['I_' + _PORT_FIELDS[0]]}")
    defines.append(f"#define D_PORT {CTX['D_' + _PORT_FIELDS[0]]}")
    defines += [
        f"#define CNT_{name.upper()} {row}"
        for row, name in enumerate(LANE_COUNTERS)
    ]
    defines.append(f"#define BIG_STAMP_C INT64_C({BIG_STAMP})")
    defines.append(f"#define RET_DONE_C {RET_DONE}")
    defines.append(f"#define RET_BOUNDARY_C {RET_BOUNDARY}")
    defines.append("#define CUR_SP_INVALID_C (-(INT64_C(1) << 62))")
    return "\n".join(defines) + "\n" + _C_BODY


_cached_fn = None
_build_failed = False
_warned = False


def _warn_fallback(message: str) -> None:
    """One warning per process when the kernel is unavailable: a broken
    toolchain in one pool worker used to mean a *silent* fallback (and a
    mysteriously slow campaign) — now the gcc stderr tail names the
    cause the first time it happens."""
    global _warned
    if _warned:
        return
    _warned = True
    warnings.warn(
        f"{message}; every simulation falls back to the bit-identical "
        "object loop (slower). Set REPRO_NO_CKERNEL=1 to silence this "
        "warning.",
        RuntimeWarning,
        stacklevel=4,
    )


def _object_name(source: str) -> str:
    """File name of the compiled object cached for ``source`` — the name
    :func:`load` looks for under the kernel cache directory."""
    return f"lane_kernel_{hashlib.sha256(source.encode()).hexdigest()[:16]}.so"


def _build() -> "ctypes.CDLL | None":
    source = _source()
    cache_dir = os.environ.get("REPRO_KERNEL_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-lane-kernel-{os.getuid()}"
    )
    lib_path = os.path.join(cache_dir, _object_name(source))
    if not os.path.exists(lib_path):
        # Source and object both go to process-unique names and only the
        # finished object is renamed into place (atomic under POSIX):
        # concurrent workers building the same digest can neither
        # truncate each other's source under gcc nor load a half-written
        # object.
        stem = f"{lib_path[:-3]}.{os.getpid()}"
        src_path = f"{stem}.c"
        tmp_path = f"{stem}.so.tmp"
        try:
            os.makedirs(cache_dir, exist_ok=True)
            with open(src_path, "w") as fh:
                fh.write(source)
            subprocess.run(
                ["gcc", "-O2", "-shared", "-fPIC", "-o", tmp_path, src_path],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_path, lib_path)
        except subprocess.CalledProcessError as exc:
            stderr = exc.stderr or b""
            tail = stderr.decode("utf-8", errors="replace").strip()[-800:]
            _warn_fallback(
                f"lane-kernel build failed (gcc exited {exc.returncode}); "
                f"gcc stderr tail:\n{tail}"
            )
            return None
        except (OSError, subprocess.SubprocessError) as exc:
            _warn_fallback(f"lane-kernel build unavailable ({exc!r})")
            return None
        finally:
            for path in (src_path, tmp_path):
                with contextlib.suppress(OSError):
                    os.unlink(path)
    try:
        fn = ctypes.CDLL(lib_path).repro_run_lanes
    except (OSError, AttributeError) as exc:
        # An unloadable cached object, or one without the entry point,
        # would fail every later process too: drop it so the next load
        # rebuilds.
        _warn_fallback(f"lane-kernel load failed ({exc!r})")
        with contextlib.suppress(OSError):
            os.unlink(lib_path)
        return None
    fn.argtypes = [ctypes.c_void_p]
    fn.restype = None
    return fn


def load():
    """The compiled kernel entry point, or ``None`` when unavailable
    (``REPRO_NO_CKERNEL=1``, no working ``gcc``, load failure).  Build
    results — success or failure — are cached for the process."""
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    global _cached_fn, _build_failed
    if _cached_fn is None and not _build_failed:
        _cached_fn = _build()
        if _cached_fn is None:
            _build_failed = True
    return _cached_fn
