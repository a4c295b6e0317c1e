/*
 * repro.workloads.generate_trace's columns, drawn from numpy's own stream.
 *
 * repro_generate_trace() makes the same draws, in the same order, as the
 * numpy reference in repro/workloads/synthetic.py, and assembles the same
 * five columns byte for byte:
 *
 *   - the bit generator is numpy's PCG64 (128-bit LCG, XSL-RR output),
 *     seeded with the four words SeedSequence.generate_state(4, uint64)
 *     returns (ported to Python in repro/common/rng.py);
 *   - Generator.random is (next_uint64 >> 11) * 2**-53, and next_uint32
 *     hands out the low half of a 64-bit draw first and keeps the high
 *     half for the next call;
 *   - Generator.geometric and Generator.integers are numpy's own C code,
 *     random_geometric and random_bounded_uint64_fill, linked from
 *     numpy/random/lib/libnpyrandom.a (numpy's C API for extending
 *     numpy.random);
 *   - Generator.choice with p is searchsorted(cdf, random(), "right") over
 *     the CDF the caller builds in numpy's float order.
 *
 * The prototypes are declared here because numpy's distributions.h
 * includes Python.h.  repro/engine/native.py builds this file into its own
 * library next to the kernel's and passes every table as an argument.
 */

#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;
typedef unsigned __int128 u128;

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy/random/distributions.h (npy_intp is intptr_t) */
int64_t random_geometric(bitgen_t *bitgen_state, double p);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off,
                                uint64_t rng, intptr_t cnt, bool use_masked,
                                uint64_t *out);

enum { N_CLASSES = 12, NOP = 11, N_REGCLASSES = 2 };
enum { FLAG_MISPREDICT = 1, FLAG_L1_MISS = 2, FLAG_L2_MISS = 4 };

/* Rows of the class table, N_CLASSES entries each (synthetic.py). */
enum { T_SRC_CLASS, T_DST_CLASS, T_IS_BRANCH, T_IS_MEMORY };

/* Probabilities, in the order synthetic.py packs them. */
enum { R_DEP, R_SECOND_SRC, R_GEOMETRIC, R_MISPREDICT, R_L1_MISS,
       R_L2_MISS };

/* Draws parked in the flags column until the columns are assembled. */
enum { W_SRC1 = 1, W_SRC2 = 2, W_MISPREDICT = 4, W_L1_MISS = 8,
       W_L2_MISS = 16 };

/* Return codes (synthetic.py). */
enum { OK, ERR_NOMEM };

typedef struct {
    u128 state;
    u128 inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64;

#define PCG_MULTIPLIER \
    (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static inline void pcg64_step(pcg64 *g)
{
    g->state = g->state * PCG_MULTIPLIER + g->inc;
}

static uint64_t pcg64_next64(void *st)
{
    pcg64 *g = st;
    pcg64_step(g);
    const uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    const unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static uint32_t pcg64_next32(void *st)
{
    pcg64 *g = st;
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    const uint64_t next = pcg64_next64(g);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* PCG64's seeding: state = seed[0]:seed[1], increment = seed[2]:seed[3]. */
static void pcg64_seed(pcg64 *g, const uint64_t *seed)
{
    g->state = 0;
    g->inc = ((((u128)seed[2] << 64) | seed[3]) << 1) | 1;
    pcg64_step(g);
    g->state += ((u128)seed[0] << 64) | seed[1];
    pcg64_step(g);
    g->has_uint32 = 0;
    g->uinteger = 0;
}

int repro_generate_trace(i64 n, const uint64_t *seed, const double *cdf,
                         const double *rates, uint64_t reg_span,
                         const int8_t *table, int8_t *opclass, i64 *src1,
                         i64 *src2, i64 *dst, int8_t *flags)
{
    pcg64 state;
    bitgen_t gen = {&state, pcg64_next64, pcg64_next32, pcg64_next_double,
                    pcg64_next64};
    pcg64_seed(&state, seed);
    i64 *producers = malloc((size_t)(n ? n : 1) * N_REGCLASSES * sizeof(i64));
    if (!producers)
        return ERR_NOMEM;
    const int8_t *src_class = table + T_SRC_CLASS * N_CLASSES;
    const int8_t *dst_class = table + T_DST_CLASS * N_CLASSES;
    const int8_t *is_branch = table + T_IS_BRANCH * N_CLASSES;
    const int8_t *is_memory = table + T_IS_MEMORY * N_CLASSES;

    /* The draws, column by column, as generate_trace makes them.  The
     * distances wait in src1/src2 and the Bernoulli draws in flags. */
    for (i64 i = 0; i < n; i++) {
        const double u = pcg64_next_double(&state);
        int k = 0;
        while (k < N_CLASSES - 1 && cdf[k] <= u)
            k++;
        opclass[i] = (int8_t)k;
    }
    for (i64 i = 0; i < n; i++)
        flags[i] = pcg64_next_double(&state) < rates[R_DEP] ? W_SRC1 : 0;
    for (i64 i = 0; i < n; i++)
        if (pcg64_next_double(&state) < rates[R_SECOND_SRC])
            flags[i] |= W_SRC2;
    for (i64 i = 0; i < n; i++)
        src1[i] = random_geometric(&gen, rates[R_GEOMETRIC]);
    for (i64 i = 0; i < n; i++)
        src2[i] = random_geometric(&gen, rates[R_GEOMETRIC]);
    for (i64 i = 0; i < n; i++)
        if (pcg64_next_double(&state) < rates[R_MISPREDICT])
            flags[i] |= W_MISPREDICT;
    for (i64 i = 0; i < n; i++)
        if (pcg64_next_double(&state) < rates[R_L1_MISS])
            flags[i] |= W_L1_MISS;
    for (i64 i = 0; i < n; i++)
        if (pcg64_next_double(&state) < rates[R_L2_MISS])
            flags[i] |= W_L2_MISS;
    random_bounded_uint64_fill(&gen, 0, reg_span, (intptr_t)n, false,
                               (uint64_t *)dst);

    /* Source j of instruction i reads the producer dist_j back in the
     * stream of earlier producers of i's source register class, clamped to
     * the oldest one. */
    i64 count[N_REGCLASSES] = {0, 0};
    for (i64 i = 0; i < n; i++) {
        const int k = opclass[i], sc = src_class[k], dc = dst_class[k];
        const int w = flags[i];
        const i64 before = count[sc];
        const i64 *pool = producers + sc * n;
        const int reads = k != NOP && before > 0;
        src1[i] = reads && (w & W_SRC1)
            ? pool[before > src1[i] ? before - src1[i] : 0] : -1;
        src2[i] = reads && (w & W_SRC2)
            ? pool[before > src2[i] ? before - src2[i] : 0] : -1;
        if (dc >= 0)
            producers[dc * n + count[dc]++] = i;
        else
            dst[i] = -1;
        /* Branches are never memory ops, so the flag families are
         * disjoint. */
        int f = 0;
        if (is_branch[k] && (w & W_MISPREDICT))
            f = FLAG_MISPREDICT;
        if (is_memory[k] && (w & W_L1_MISS))
            f |= FLAG_L1_MISS | (w & W_L2_MISS ? FLAG_L2_MISS : 0);
        flags[i] = (int8_t)f;
    }
    free(producers);
    return OK;
}
