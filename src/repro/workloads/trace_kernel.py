"""Compiled trace kernel: :class:`~repro.workloads.generator.TraceGenerator`'s
code build and walk in C, drawing CPython's own random stream.

``random.Random`` is MT19937, and every draw the generator makes is an
integer-exact or libm-exact function of its 32-bit output words.  The
kernel copies CPython's ``Modules/_randommodule.c`` and ``random.py``
(the paths are identical in 3.11, 3.12 and 3.13):

* ``genrand`` is ``genrand_uint32`` over the 624 state words and the
  position ``Random.getstate()`` lists after them;
* ``rnd`` is ``random()``: ``((a >> 5) * 67108864.0 + (b >> 6)) /
  2**53`` over two consecutive words;
* ``randbelow(n)`` is ``_randbelow``: ``k = n.bit_length()``, then
  ``getrandbits(k)``, whose ``k <= 32`` fast path is one word shifted
  right by ``32 - k``, redrawn while ``>= n``.  ``randrange(n)`` is
  ``randbelow(n)``, ``randint(a, b)`` is ``a + randbelow(b - a + 1)``
  and ``choice(seq)`` indexes with ``randbelow(len(seq))``;
* ``uniform(a, b)`` is ``a + (b - a) * random()`` and
  ``expovariate(l)`` is ``-log(1.0 - random()) / l`` with libm's
  ``log``, which ``math.log`` calls.  The object is compiled with
  ``-ffp-contract=off`` so no multiply-add fuses into an FMA.

So the kernel covers only ranges below 2^32 (``getrandbits``'s one-word
path); the generator checks that before choosing it.  :func:`run` hands
the kernel ``rng.getstate()`` and puts the advanced state back with
``rng.setstate()``, so the ``random.Random`` stays the one source of
truth and either engine continues the other's stream.

Arguments travel in one C struct, :data:`ARGS`: a
:class:`~repro.ckernel.Args` generated from one field table, like the
lane kernel's, whose packer checks every array before C sees it.
"""

from __future__ import annotations

import ctypes
import random

import numpy as np

from repro.ckernel import Args, CKernel
from repro.cpu.isa import NO_REGISTER, InstrClass

__all__ = ["ARGS", "KERNEL", "load", "run"]

#: The argument struct of both entry points.
ARGS = Args("args_t", (
    # MT19937: the 624 words, then the position (Random.getstate()[1]).
    ("state", "u32*"),
    # The code skeleton: filled by repro_trace_build, read by the walk.
    ("start_pc", "i64*"),
    ("length", "i64*"),
    ("kind", "i8*"),
    ("taken_bias", "f64*"),
    ("target", "i64*"),
    ("trip_count", "i64*"),
    ("hot", "i64*"),
    ("n_blocks", "i64"),  # set by the build
    ("n_hot", "i64"),  # set by the build
    # Build inputs.
    ("code_base", "i64"),
    ("code_instructions", "i64"),
    ("block_lambda", "f64"),
    ("call_weight", "f64"),
    ("predictability", "f64"),
    # Walk inputs: body mix, data segments and their cursors.
    ("n", "i64"),
    ("load_p", "f64"),
    ("store_p", "f64"),
    ("fp_frac", "f64"),
    ("mul_frac", "f64"),
    ("dep", "f64"),
    ("w_stream", "f64"),
    ("w_stride", "f64"),
    ("w_random", "f64"),
    ("stream_base", "i64"),
    ("stream_region", "i64"),
    ("stride_base", "i64"),
    ("stride_region", "i64"),
    ("stride_step", "i64"),
    ("random_base", "i64"),
    ("random_blocks", "i64"),
    ("pool", "i64*"),
    ("pool_size", "i64"),
    # The data cursors: four stream pointers, the next stream, two
    # stride pointers, the next stride, the conflict sweep position.
    ("cursors", "i64*"),
    ("loops", "i64*"),  # n_blocks scratch: counted-loop iterations left
    # Walk outputs: the trace columns, n entries each.
    ("pc", "i64*"),
    ("iclass", "i8*"),
    ("mem_addr", "i64*"),
    ("src1", "i8*"),
    ("src2", "i8*"),
    ("dest", "i8*"),
    ("taken", "u8*"),
))


_C_BODY = r"""
#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t *mt;
    uint32_t i;
} rng_t;

/* genrand_uint32 of CPython's _randommodule.c. */
static uint32_t genrand(rng_t *r) {
    uint32_t *mt = r->mt;
    uint32_t y;
    if (r->i >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        r->i = 0;
    }
    y = mt[r->i++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

/* random(). */
static double rnd(rng_t *r) {
    uint32_t a = genrand(r) >> 5, b = genrand(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* _randbelow(n) for 0 < n < 2**32: getrandbits(n.bit_length()). */
static int64_t randbelow(rng_t *r, int64_t n) {
    const int k = 64 - __builtin_clzll((uint64_t)n);
    uint32_t v;
    do {
        v = genrand(r) >> (32 - k);
    } while (v >= n);
    return v;
}

static int64_t randint(rng_t *r, int64_t a, int64_t b) {
    return a + randbelow(r, b - a + 1);
}

static double uniform(rng_t *r, double a, double b) {
    return a + (b - a) * rnd(r);
}

static double expovariate(rng_t *r, double lambd) {
    return -log(1.0 - rnd(r)) / lambd;
}

/* TraceGenerator._build_code: block lengths, hot entries, then each
   block's terminator, in the Python builder's draw order. */
void repro_trace_build(args_t *a) {
    rng_t r = {a->state, a->state[MT_N]};
    int64_t n = 0, emitted = 0, pc = a->code_base;
    while (emitted < a->code_instructions) {
        int64_t len = (int64_t)expovariate(&r, a->block_lambda) + 1;
        len = len > 64 ? 64 : len < 3 ? 3 : len;
        a->start_pc[n] = pc;
        a->length[n] = len;
        a->kind[n] = 0;
        a->taken_bias[n] = 0.0;
        a->target[n] = 0;
        a->trip_count[n] = 0;
        pc += 4 * len;
        emitted += len;
        n++;
    }
    const int64_t n_hot = n / 128 > 4 ? n / 128 : 4;
    for (int64_t j = 0; j < n_hot; j++) a->hot[j] = randbelow(&r, n);
    for (int64_t idx = 0; idx < n; idx++) {
        const double roll = rnd(&r);
        if (roll < a->call_weight / 2) {
            a->kind[idx] = CLS_CALL;
            a->target[idx] = rnd(&r) < 0.9 ? a->hot[randbelow(&r, n_hot)]
                                           : randbelow(&r, n);
        } else if (roll < a->call_weight) {
            a->kind[idx] = CLS_RETURN;
        } else {
            a->kind[idx] = CLS_BRANCH;
            if (rnd(&r) < a->predictability) {
                if (rnd(&r) < 0.5) { /* counted loop */
                    a->taken_bias[idx] = 0.9;
                    const int64_t trips = (int64_t)expovariate(&r, 1 / 8.0);
                    a->trip_count[idx] = 2 + (trips < 60 ? trips : 60);
                    const int64_t back = idx - randint(&r, 1, 8);
                    a->target[idx] = back > 0 ? back : 0;
                } else { /* guard branch */
                    a->taken_bias[idx] = rnd(&r) < 0.9 ? 0.0 : 0.05;
                    a->target[idx] = (idx + randint(&r, 2, 32)) % n;
                }
            } else { /* data-dependent branch */
                a->taken_bias[idx] = uniform(&r, 0.3, 0.7);
                if (rnd(&r) < 0.5) {
                    const int64_t back = idx - randint(&r, 1, 16);
                    a->target[idx] = back > 0 ? back : 0;
                } else {
                    a->target[idx] = (idx + randint(&r, 2, 32)) % n;
                }
            }
        }
    }
    a->n_blocks = n;
    a->n_hot = n_hot;
    a->state[MT_N] = r.i;
}

/* TraceGenerator._next_address. */
static int64_t next_address(const args_t *a, rng_t *r, int64_t *cur) {
    double roll = rnd(r);
    if (roll < a->w_stream) {
        const int64_t s = cur[CUR_STREAM_NEXT];
        cur[CUR_STREAM_NEXT] = (s + 1) & 3;
        const int64_t addr = a->stream_base + cur[CUR_STREAM + s];
        cur[CUR_STREAM + s] = (cur[CUR_STREAM + s] + 8) % a->stream_region;
        return addr;
    }
    roll -= a->w_stream;
    if (roll < a->w_stride) {
        const int64_t s = cur[CUR_STRIDE_NEXT];
        cur[CUR_STRIDE_NEXT] = 1 - s;
        const int64_t addr = a->stride_base + cur[CUR_STRIDE + s];
        cur[CUR_STRIDE + s] = (cur[CUR_STRIDE + s] + a->stride_step) % a->stride_region;
        return addr;
    }
    roll -= a->w_stride;
    if (roll < a->w_random) {
        const int64_t block = randbelow(r, a->random_blocks);
        return a->random_base + block * 64 + randbelow(r, 8) * 8;
    }
    int64_t c;
    if (rnd(r) < 0.5) {
        c = cur[CUR_CONFLICT_NEXT];
        cur[CUR_CONFLICT_NEXT] = (c + 1) % a->pool_size;
    } else {
        c = randbelow(r, a->pool_size);
    }
    return a->pool[c];
}

/* Recent destination registers, newest first: only the last three of
   the Python walk's window of eight are ever read. */
static inline void push(int64_t *recent, int64_t reg) {
    recent[2] = recent[1];
    recent[1] = recent[0];
    recent[0] = reg;
}

static inline int64_t src(const args_t *a, rng_t *r, const int64_t *recent,
                          int64_t base) {
    if (rnd(r) < a->dep) return recent[randbelow(r, 3)];
    return base + randbelow(r, 6);
}

#define EMIT(cls_, addr_, s1_, s2_, d_, taken_) do { \
        a->pc[i] = pc; a->iclass[i] = (cls_); a->mem_addr[i] = (addr_); \
        a->src1[i] = (s1_); a->src2[i] = (s2_); a->dest[i] = (d_); \
        a->taken[i] = (taken_); } while (0)

/* TraceGenerator._walk: n instructions from block 0 with fresh call
   stack, loop counters and registers; the data cursors carry over. */
void repro_trace_walk(args_t *a) {
    rng_t r = {a->state, a->state[MT_N]};
    int64_t *cur = a->cursors;
    const int64_t n = a->n, nb = a->n_blocks;
    int64_t stack[CALL_DEPTH];
    int64_t top = 0, depth = 0; /* ring buffer: the oldest entry drops */
    int64_t int_dest = 1, fp_dest = 33;
    int64_t recent_int[3] = {30, 29, 28}, recent_fp[3] = {62, 61, 60};
    int64_t bb = 0, i = 0;
    for (int64_t b = 0; b < nb; b++) a->loops[b] = -1; /* no count yet */
    while (i < n) {
        int64_t pc = a->start_pc[bb];
        const int64_t body = a->length[bb] - 1;
        for (int64_t j = 0; j < body; j++) {
            if (i >= n) goto done;
            const double roll = rnd(&r);
            if (roll < a->load_p) {
                const int64_t addr = next_address(a, &r, cur);
                int64_t d;
                if (rnd(&r) < a->fp_frac) {
                    d = fp_dest;
                    fp_dest = 33 + (fp_dest - 32) % 24;
                    push(recent_fp, d);
                } else {
                    d = int_dest;
                    int_dest = 1 + int_dest % 24;
                    push(recent_int, d);
                }
                const int64_t base = src(a, &r, recent_int, 25);
                EMIT(CLS_LOAD, addr, base, NO_REG, d, 0);
            } else if (roll < a->store_p) {
                const int64_t addr = next_address(a, &r, cur);
                const int64_t value = rnd(&r) < a->fp_frac ? recent_fp[0] : recent_int[0];
                const int64_t base = src(a, &r, recent_int, 25);
                EMIT(CLS_STORE, addr, base, value, NO_REG, 0);
            } else {
                const int is_fp = rnd(&r) < a->fp_frac;
                const int is_mul = rnd(&r) < a->mul_frac;
                if (is_fp) {
                    const int64_t d = fp_dest;
                    fp_dest = 33 + (fp_dest - 32) % 24;
                    const int64_t s1 = src(a, &r, recent_fp, 57);
                    const int64_t s2 = src(a, &r, recent_fp, 57);
                    EMIT(is_mul ? CLS_FP_MUL : CLS_FP_ALU, -1, s1, s2, d, 0);
                    push(recent_fp, d);
                } else {
                    const int64_t d = int_dest;
                    int_dest = 1 + int_dest % 24;
                    const int64_t s1 = src(a, &r, recent_int, 25);
                    const int64_t s2 = src(a, &r, recent_int, 25);
                    EMIT(is_mul ? CLS_INT_MUL : CLS_INT_ALU, -1, s1, s2, d, 0);
                    push(recent_int, d);
                }
            }
            pc += 4;
            i++;
        }
        if (i >= n) break;

        const int8_t kind = a->kind[bb];
        if (kind == CLS_BRANCH) {
            int taken;
            if (a->trip_count[bb]) {
                int64_t remaining = a->loops[bb];
                if (remaining < 0) {
                    remaining = a->trip_count[bb];
                    if (rnd(&r) < 0.02) {
                        remaining += randbelow(&r, 2) ? 1 : -1;
                        if (remaining < 1) remaining = 1;
                    }
                }
                taken = remaining > 0;
                a->loops[bb] = taken ? remaining - 1 : -1;
            } else {
                taken = rnd(&r) < a->taken_bias[bb];
            }
            EMIT(CLS_BRANCH, -1, recent_int[0], NO_REG, NO_REG, taken);
            bb = taken ? a->target[bb] : (bb + 1) % nb;
        } else if (kind == CLS_CALL) {
            EMIT(CLS_CALL, -1, NO_REG, NO_REG, NO_REG, 1);
            stack[top] = (bb + 1) % nb;
            top = (top + 1) % CALL_DEPTH;
            if (depth < CALL_DEPTH) depth++;
            bb = a->target[bb];
        } else {
            EMIT(CLS_RETURN, -1, NO_REG, NO_REG, NO_REG, 1);
            if (depth) {
                top = (top + CALL_DEPTH - 1) % CALL_DEPTH;
                depth--;
                bb = stack[top];
            } else {
                bb = a->hot[randbelow(&r, a->n_hot)];
            }
        }
        i++;
        if (rnd(&r) < 0.003) bb = randbelow(&r, nb);
    }
done:
    a->state[MT_N] = r.i;
}
"""


def _source() -> str:
    lines = ["#include <math.h>", "#include <stdint.h>", ""]
    lines += [f"#define CLS_{cls.name} {int(cls)}" for cls in InstrClass]
    lines += [
        f"#define NO_REG {NO_REGISTER}",
        "#define CALL_DEPTH 64",
        "#define CUR_STREAM 0",
        "#define CUR_STREAM_NEXT 4",
        "#define CUR_STRIDE 5",
        "#define CUR_STRIDE_NEXT 7",
        "#define CUR_CONFLICT_NEXT 8",
        "",
    ]
    return "\n".join(lines) + "\n" + ARGS.typedef() + _C_BODY


KERNEL = CKernel(
    "trace_kernel",
    _source(),
    ARGS,
    ("repro_trace_build", "repro_trace_walk"),
    fallback="every trace falls back to the bit-identical Python walk",
    cflags=("-ffp-contract=off",),
    libs=("-lm",),
)


def load() -> ctypes.CDLL | None:
    """The compiled trace kernel, or ``None`` when unavailable
    (``REPRO_NO_CKERNEL=1``, no working ``gcc``, load failure)."""
    return KERNEL.load()


def run(lib: ctypes.CDLL, entry: str, rng: random.Random, **fields) -> ctypes.Structure:
    """Call ``repro_trace_<entry>`` on ``rng``'s stream and return the
    argument struct (the build sets ``n_blocks`` and ``n_hot``).

    ``fields`` are :data:`ARGS` fields, packed and checked by
    :meth:`~repro.ckernel.Args.pack`.  The kernel advances a copy of
    ``rng.getstate()``, which is put back into ``rng`` afterwards.
    """
    version, words, gauss_next = rng.getstate()
    state = np.array(words, dtype=np.uint32)
    args = ARGS.pack(state=state, **fields)
    getattr(lib, f"repro_trace_{entry}")(ctypes.byref(args))
    rng.setstate((version, tuple(state.tolist()), gauss_next))
    return args
