/*
 * The generic timing model of repro/engine/kernel.py, in C.
 *
 * repro_simulate() is a line-for-line port of kernel.simulate(): the same
 * stages in the same order (fetch, steering, operands, issue, execute,
 * writeback, retire), the five built-in steering policies, and the energy
 * model's loop counters.  repro/engine/native.py compiles this file once
 * per process, passes every config scalar and build_tables() table as an
 * argument, and folds the returned counters into a KernelResult, so the
 * source never depends on a config and nothing is generated.
 *
 * Memory stays O(n) whatever latencies are configured: the issue-slot and
 * bus-slot scoreboards are a fixed window of cycles plus hash maps that
 * grow with what is inserted (at most one key per instruction), never
 * arrays indexed by cycle.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

enum { N_CLASSES = 12, N_FU = 4, LOAD = 6, FP_LOAD = 7, BRANCH = 10, NOP = 11 };
enum { FLAG_MISPREDICT = 1, FLAG_L1_MISS = 2, FLAG_L2_MISS = 4 };

/* Steering policy ids (native.py: _STEERING_IDS). */
enum { DEPENDENCE, MODULO, ROUND_ROBIN, LOAD_BALANCE, CRITICALITY };

/* Scalar parameters, in the order native.py packs them. */
enum {
    P_N_CLUSTERS, P_IS_RING, P_STEERING, P_FETCH_WIDTH, P_WINDOW_SIZE,
    P_FRONTEND_DEPTH, P_ISSUE_WIDTH, P_HOP_LATENCY, P_BUS_BANDWIDTH,
    P_WB_LATENCY, P_MISPREDICT_PENALTY, P_L1_MISS_PENALTY,
    P_L2_MISS_PENALTY, P_TRACK_ENERGY, N_PARAMS
};

/* Output slots; the class tally, hop counts (n_clusters + 1) and issued
 * per cluster (n_clusters) follow O_CLASS_COUNTS in that order. */
enum {
    O_LAST_RETIRE, O_MISPREDICTS, O_L1_MISSES, O_L2_MISSES,
    O_COMMUNICATIONS, O_OPERAND_READS, O_WAKEUP_UNITS, O_BAD_INDEX,
    O_CLASS_COUNTS
};

/* Return codes (native.py: simulate_native). */
enum { OK, ERR_NOMEM, ERR_OPCLASS, ERR_SOURCE, ERR_FU_COVERAGE };

/* Slot occupancy counts keyed by cycle * n_clusters + cluster: an
 * open-addressing hash map (linear probing, -1 marks an empty slot) that
 * doubles when half full, so it holds what was inserted and no more.  A
 * failed allocation sets `failed`, and the count then lands in `dummy`: the
 * loop still ends, and the call reports ERR_NOMEM. */
typedef struct {
    i64 *keys;
    i64 *counts;
    i64 used;
    int bits;
    int failed;
    i64 dummy;
} slot_map;

static uint64_t slot_hash(const slot_map *m, i64 key)
{
    return ((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> (64 - m->bits);
}

static int slot_map_grow(slot_map *m)
{
    const int bits = m->keys ? m->bits + 1 : 6;
    const uint64_t cap = (uint64_t)1 << bits, mask = cap - 1;
    const uint64_t old_cap = m->keys ? (uint64_t)1 << m->bits : 0;
    i64 *keys = malloc(cap * sizeof(i64));
    i64 *counts = malloc(cap * sizeof(i64));
    if (!keys || !counts) {
        free(keys);
        free(counts);
        return 0;
    }
    memset(keys, 0xff, cap * sizeof(i64));
    i64 *old_keys = m->keys, *old_counts = m->counts;
    m->keys = keys;
    m->counts = counts;
    m->bits = bits;
    for (uint64_t j = 0; j < old_cap; j++) {
        if (old_keys[j] < 0)
            continue;
        uint64_t h = slot_hash(m, old_keys[j]);
        while (keys[h] >= 0)
            h = (h + 1) & mask;
        keys[h] = old_keys[j];
        counts[h] = old_counts[j];
    }
    free(old_keys);
    free(old_counts);
    return 1;
}

/* The count stored under key, or NULL when absent. */
static i64 *slot_find(const slot_map *m, i64 key)
{
    if (!m->keys)
        return NULL;
    const uint64_t mask = ((uint64_t)1 << m->bits) - 1;
    for (uint64_t h = slot_hash(m, key);; h = (h + 1) & mask) {
        if (m->keys[h] == key)
            return &m->counts[h];
        if (m->keys[h] < 0)
            return NULL;
    }
}

/* The count stored under key, inserted at 0 if absent. */
static i64 *slot(slot_map *m, i64 key)
{
    i64 *count = slot_find(m, key);
    if (count)
        return count;
    if ((!m->keys || 2 * (m->used + 1) > ((i64)1 << m->bits))
            && !slot_map_grow(m)) {
        m->failed = 1;
        m->dummy = 0;
        return &m->dummy;
    }
    const uint64_t mask = ((uint64_t)1 << m->bits) - 1;
    uint64_t h = slot_hash(m, key);
    while (m->keys[h] >= 0)
        h = (h + 1) & mask;
    m->keys[h] = key;
    m->counts[h] = 0;
    m->used++;
    return &m->counts[h];
}

/* Issue-slot and bus-grant counts for the cycles from a horizon on: a
 * ring of `rows` rows (a power of two, at most WINDOW) of n_clusters
 * cells, each cell one (cycle, cluster) count tagged with its cycle.  The
 * rows hold at most WINDOW_CELLS cells in all, but always at least one
 * row, so neither memory nor the work per cycle grows with n_clusters
 * beyond one row.  Each probe passes its horizon, a cycle that never
 * decreases and below which no later probe falls (fetch_cycle for issue
 * slots and RING grants; for CONV's lazy grants, see `reach` in
 * repro_simulate), so a cell tagged with an earlier cycle is free for
 * reuse.  A probe whose cell still holds a live cycle (with latencies
 * near `rows`) spills to the map, and moves back into the cell once the
 * cell frees.  Cells and map together stay O(n) whatever the latencies. */
enum { WINDOW = 1024, WINDOW_CELLS = 1 << 14 };

typedef struct {
    i64 tag;
    i64 count;
} slot_cell;

typedef struct {
    slot_cell *cells;
    i64 row_mask; /* rows - 1 */
    i64 nc;
    slot_map spill;
} slot_window;

static int window_init(slot_window *w, i64 nc)
{
    i64 rows = WINDOW;
    while (rows > 1 && rows * nc > WINDOW_CELLS)
        rows >>= 1;
    w->nc = nc;
    w->row_mask = rows - 1;
    w->cells = malloc(rows * nc * sizeof(slot_cell));
    if (!w->cells)
        return 0;
    for (i64 c = 0; c < rows * nc; c++)
        w->cells[c].tag = -1;
    return 1;
}

static i64 *window_slot(slot_window *w, i64 cycle, i64 cluster, i64 horizon)
{
    slot_cell *cell = w->cells + (cycle & w->row_mask) * w->nc + cluster;
    if (cell->tag != cycle) {
        if (cell->tag >= horizon)
            return slot(&w->spill, cycle * w->nc + cluster);
        i64 *spilled = w->spill.used
            ? slot_find(&w->spill, cycle * w->nc + cluster) : NULL;
        cell->tag = cycle;
        cell->count = spilled ? *spilled : 0;
    }
    return &cell->count;
}

/* First cycle >= g at which `cluster` may inject another result. */
static i64 grant_window(slot_window *bus, i64 g, i64 cluster, i64 bandwidth,
                        i64 horizon)
{
    for (;; g++) {
        i64 *count = window_slot(bus, g, cluster, horizon);
        if (*count < bandwidth) {
            ++*count;
            return g;
        }
    }
}

/* Least-loaded cluster, lowest index on ties. */
static i64 argmin_load(const i64 *load, i64 nc)
{
    i64 cluster = 0;
    for (i64 c = 1; c < nc; c++)
        if (load[c] < load[cluster])
            cluster = c;
    return cluster;
}

int repro_simulate(
    i64 n, const int8_t *opclass, const i64 *src1, const i64 *src2,
    const int8_t *flags, const i64 *params, const i64 *latency,
    const i64 *occupancy, const i64 *fu_for, const i64 *has_dst,
    const i64 *fu_counts, i64 *out)
{
    const i64 nc = params[P_N_CLUSTERS];
    const int is_ring = params[P_IS_RING] != 0;
    const i64 steering = params[P_STEERING];
    const i64 fetch_width = params[P_FETCH_WIDTH];
    const i64 window_size = params[P_WINDOW_SIZE];
    const i64 frontend_depth = params[P_FRONTEND_DEPTH];
    const i64 issue_width = params[P_ISSUE_WIDTH];
    const i64 hop_lat = params[P_HOP_LATENCY];
    const i64 bus_bw = params[P_BUS_BANDWIDTH];
    const i64 wb_lat = params[P_WB_LATENCY];
    const i64 mispredict_pen = params[P_MISPREDICT_PENALTY];
    const i64 l1_miss_pen = params[P_L1_MISS_PENALTY];
    const i64 l2_miss_pen = params[P_L2_MISS_PENALTY];
    const int track_energy = params[P_TRACK_ENERGY] != 0;
    const int occupancy_steering =
        steering == LOAD_BALANCE || steering == CRITICALITY;
    const int track_retire = track_energy || occupancy_steering;
    const i64 cap = window_size / nc > 1 ? window_size / nc : 1;

    i64 *class_counts = out + O_CLASS_COUNTS;
    i64 *hop_counts = class_counts + N_CLASSES;
    i64 *issued_per_cluster = hop_counts + nc + 1;

    /* Pre-pass: reject what would index out of bounds (a trace built with
     * validate=False), then tally classes and check FU coverage. */
    for (i64 i = 0; i < n; i++) {
        int8_t k = opclass[i];
        if (k < 0 || k >= N_CLASSES) {
            out[O_BAD_INDEX] = i;
            return ERR_OPCLASS;
        }
        if (src1[i] >= n || src2[i] >= n) {
            out[O_BAD_INDEX] = i;
            return ERR_SOURCE;
        }
        class_counts[k]++;
    }
    for (int k = 0; k < N_CLASSES; k++)
        if (class_counts[k] && k != NOP && fu_counts[fu_for[k]] == 0)
            return ERR_FU_COVERAGE;

    /* CONV grants a producer its bus slot lazily, when its first remote
     * consumer arrives, at most `reach` instructions later: the longest
     * i - src, or n when some source does not precede its consumer
     * (possible with validate=False).  Every producer a consumer at i or
     * later can name has then been fetched no earlier than instruction
     * i - reach, so no later grant probes a cycle before that fetch cycle
     * and the bus window may reuse any cell tagged earlier.  A loop of its
     * own: the validation loop above runs for RING too. */
    i64 reach = 0;
    if (!is_ring) {
        for (i64 i = 0; i < n; i++) {
            const i64 s1 = src1[i], s2 = src2[i];
            if (s1 >= i || s2 >= i) {
                reach = n;
                break;
            }
            if (s1 >= 0 && i - s1 > reach)
                reach = i - s1;
            if (s2 >= 0 && i - s2 > reach)
                reach = i - s2;
        }
    }

    /* fu_free[cluster * units_per_cluster + unit_off[t] + u]: next-free
     * cycle of unit u of FU type t. */
    i64 unit_off[N_FU];
    i64 units_per_cluster = 0;
    for (int t = 0; t < N_FU; t++) {
        unit_off[t] = units_per_cluster;
        units_per_cluster += fu_counts[t];
    }

    int ok;
    /* Zeroed, so a source that does not precede its consumer (possible
     * with validate=False) reads cluster 0 instead of garbage. */
    i64 *cluster_col = calloc(n + 1, sizeof(i64));
    i64 *complete_col = calloc(n + 1, sizeof(i64));
    i64 *grant_col = malloc((n + 1) * sizeof(i64));
    i64 *retire_col = track_retire ? malloc((n + 1) * sizeof(i64)) : NULL;
    /* Each instruction's fetch cycle, for CONV's grant horizon; filled
     * for RING too, where testing for it in the loop cost ~2 ns/instr. */
    i64 *fetch_col = malloc((n + 1) * sizeof(i64));
    i64 *rob = calloc(window_size, sizeof(i64));
    i64 *fu_free = calloc(nc * units_per_cluster + 1, sizeof(i64));
    i64 *load = calloc(nc, sizeof(i64));
    slot_window *issue_slots = calloc(1, sizeof(slot_window));
    slot_window *bus_slots = calloc(1, sizeof(slot_window));
    ok = cluster_col && complete_col && grant_col && rob && fu_free && load
        && (retire_col || !track_retire) && fetch_col
        && issue_slots && bus_slots;
    ok = ok && window_init(issue_slots, nc) && window_init(bus_slots, nc);
    if (!ok)
        goto done;
    for (i64 i = 0; i < n; i++)
        grant_col[i] = -1;

    i64 fetch_cycle = 0, fetched_this_cycle = 0, redirect = 0;
    i64 last_retire = 0, rr_counter = 0, rob_idx = 0, sp = 0;
    i64 mispredicts = 0, l1_misses = 0, l2_misses = 0, communications = 0;
    i64 operand_reads = 0, wakeup_units = 0;

    for (i64 i = 0; i < n; i++) {
        const int k = opclass[i];
        const i64 s1 = src1[i], s2 = src2[i];
        const int f = flags[i];
        i64 cluster, base;

        /* ---- fetch --------------------------------------------------- */
        if (fetched_this_cycle >= fetch_width) {
            fetch_cycle++;
            fetched_this_cycle = 0;
        }
        if (redirect > fetch_cycle) {
            fetch_cycle = redirect;
            fetched_this_cycle = 0;
        }
        if (i >= window_size && rob[rob_idx] > fetch_cycle) {
            fetch_cycle = rob[rob_idx];
            fetched_this_cycle = 0;
        }
        fetched_this_cycle++;
        fetch_col[i] = fetch_cycle;
        i64 ready = fetch_cycle + frontend_depth;

        /* Retire the program-order prefix whose window entries have freed
         * by this fetch: the occupancy policies' per-cluster load and the
         * energy model's occupancy share this monotone pointer. */
        if (track_retire) {
            while (sp < i && retire_col[sp] <= fetch_cycle) {
                if (occupancy_steering)
                    load[cluster_col[sp]]--;
                sp++;
            }
        }

        /* ---- steering ------------------------------------------------ */
        base = -1; /* critical producer's cluster */
        if (steering == DEPENDENCE || steering == CRITICALITY) {
            if (s1 >= 0)
                base = (s2 >= 0 && complete_col[s2] > complete_col[s1])
                    ? cluster_col[s2] : cluster_col[s1];
            else if (s2 >= 0)
                base = cluster_col[s2];
        }
        switch (steering) {
        case DEPENDENCE:
            if (base >= 0)
                cluster = is_ring ? (base + 1) % nc : base;
            else
                cluster = rr_counter++ % nc;
            break;
        case MODULO:
            cluster = (i / fetch_width) % nc;
            break;
        case ROUND_ROBIN:
            cluster = i % nc;
            break;
        case CRITICALITY:
            if (base >= 0) {
                cluster = is_ring ? (base + 1) % nc : base;
                if (load[cluster] >= cap)
                    cluster = argmin_load(load, nc);
            } else {
                cluster = argmin_load(load, nc);
            }
            load[cluster]++;
            break;
        default: /* LOAD_BALANCE */
            cluster = argmin_load(load, nc);
            load[cluster]++;
            break;
        }
        cluster_col[i] = cluster;

        /* ---- operand availability ------------------------------------ */
        for (int o = 0; o < 2; o++) {
            const i64 s = o ? s2 : s1;
            i64 avail, d;
            if (s < 0)
                continue;
            const i64 pc = cluster_col[s];
            if (is_ring) {
                d = (cluster - pc - 1 + nc) % nc + 1;
                avail = grant_col[s] + d * hop_lat;
            } else if (cluster == pc) {
                avail = complete_col[s]; /* intra-cluster bypass */
                d = 0;
            } else {
                i64 g = grant_col[s];
                if (g < 0) {
                    const i64 horizon = i >= reach ? fetch_col[i - reach] : 0;
                    g = grant_window(bus_slots, complete_col[s] + wb_lat, pc,
                                     bus_bw, horizon) + wb_lat;
                    grant_col[s] = g;
                    communications++;
                }
                d = cluster > pc ? cluster - pc : pc - cluster;
                if (nc - d < d)
                    d = nc - d;
                avail = g + d * hop_lat;
            }
            if (d)
                hop_counts[d]++;
            if (avail > ready)
                ready = avail;
        }

        /* ---- issue (NOPs occupy no slot or unit) ---------------------- */
        i64 issue;
        if (k != NOP) {
            const i64 t = fu_for[k];
            i64 *units = fu_free + cluster * units_per_cluster + unit_off[t];
            i64 unit_idx = 0;
            for (i64 u = 1; u < fu_counts[t]; u++)
                if (units[u] < units[unit_idx])
                    unit_idx = u;
            issue = units[unit_idx] > ready ? units[unit_idx] : ready;
            for (;; issue++) {
                i64 *count = window_slot(issue_slots, issue, cluster,
                                         fetch_cycle);
                if (*count < issue_width) {
                    ++*count;
                    break;
                }
            }
            units[unit_idx] = issue + occupancy[k];
            issued_per_cluster[cluster]++;
        } else {
            issue = ready;
        }

        /* ---- execute ------------------------------------------------- */
        i64 lat = latency[k];
        if (f & FLAG_MISPREDICT)
            mispredicts++;
        if (f & FLAG_L1_MISS) {
            l1_misses++;
            if (k == LOAD || k == FP_LOAD) { /* only loads stall on a miss */
                lat += l1_miss_pen;
                if (f & FLAG_L2_MISS)
                    lat += l2_miss_pen;
            }
            if (f & FLAG_L2_MISS)
                l2_misses++;
        }
        const i64 complete = issue + lat;
        complete_col[i] = complete;

        /* ---- writeback / interconnect -------------------------------- */
        if (has_dst[k]) {
            if (is_ring) {
                /* Every result enters the unidirectional ring exactly once. */
                grant_col[i] = grant_window(bus_slots, complete, cluster,
                                            bus_bw, fetch_cycle) + wb_lat;
                communications++;
            }
            /* CONV grants lazily, on first remote consumer (see above). */
        } else if (k == BRANCH && (f & FLAG_MISPREDICT)) {
            if (complete + mispredict_pen > redirect)
                redirect = complete + mispredict_pen;
        }

        /* ---- in-order retire ----------------------------------------- */
        if (complete > last_retire)
            last_retire = complete;
        rob[rob_idx] = last_retire;
        if (++rob_idx == window_size)
            rob_idx = 0;
        if (track_retire)
            retire_col[i] = last_retire;

        /* ---- energy (per-event counters; see repro.energy) ------------ */
        if (track_energy) {
            operand_reads += (s1 >= 0) + (s2 >= 0);
            wakeup_units += i - sp + 1;
        }
    }

    out[O_LAST_RETIRE] = last_retire;
    out[O_MISPREDICTS] = mispredicts;
    out[O_L1_MISSES] = l1_misses;
    out[O_L2_MISSES] = l2_misses;
    out[O_COMMUNICATIONS] = communications;
    out[O_OPERAND_READS] = operand_reads;
    out[O_WAKEUP_UNITS] = wakeup_units;

done:
    free(cluster_col);
    free(complete_col);
    free(grant_col);
    free(retire_col);
    free(fetch_col);
    free(rob);
    free(fu_free);
    free(load);
    for (int w = 0; w < 2; w++) {
        slot_window *win = w ? bus_slots : issue_slots;
        if (win) {
            ok = ok && !win->spill.failed;
            free(win->cells);
            free(win->spill.keys);
            free(win->spill.counts);
            free(win);
        }
    }
    return ok ? OK : ERR_NOMEM;
}
