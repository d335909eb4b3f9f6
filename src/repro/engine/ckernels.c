/*
 * Compiled batch-cache kernels: one generic kernel per cache family.
 *
 * Built and loaded by ckernels.py (ctypes, the system C compiler); the
 * Python wrappers there validate every argument before a call, so these
 * functions trust their inputs.  Each kernel replays one batch in trace
 * order over state arrays owned by the calling cache and mutates them in
 * place, replicating the scalar models in repro.cache bit for bit:
 *
 *   repro_sa_run      set-associative: conventional, skewed or fully
 *                     associative placement, any ways, LRU/FIFO/random/PLRU,
 *                     either write policy;
 *   repro_victim_run  a main cache backed by a fully-associative victim
 *                     buffer, any main ways, any buffer size, any policy;
 *   repro_column_run  the column-associative cache.
 *
 * Layouts: per-way tables are way-major (ways x num_sets), PLRU direction
 * bits are set-major (num_sets x tree), tag -1 marks an invalid frame.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { POLICY_LRU = 0, POLICY_FIFO = 1, POLICY_RANDOM = 2, POLICY_PLRU = 3 };

/* Slots of every kernel's `counts` output.  The EXTRA slots are the
 * family's own counters: victim main hits and buffer hits; column
 * first-probe hits, second-probe hits and probes. */
enum { LOADS, STORES, LOAD_MISSES, STORE_MISSES, EVICTIONS, WRITEBACKS,
       EXTRA0, EXTRA1, EXTRA2, NUM_COUNTS };

static void count_access(int64_t *c, int write, int hit)
{
    c[write ? STORES : LOADS]++;
    if (!hit)
        c[write ? STORE_MISSES : LOAD_MISSES]++;
}

/* Replacement state of one structure (a cache or a victim buffer). */
typedef struct {
    int64_t kind;
    int64_t ways;
    int64_t num_sets;
    int64_t tree;       /* direction bits per set: max(ways - 1, 1) */
    int64_t *stamps;    /* ways x num_sets: LRU/FIFO/PLRU timestamps */
    uint8_t *bits;      /* num_sets x tree: PLRU direction bits */
    uint64_t seed;      /* random draw seed */
    int64_t counter;    /* random draws consumed so far */
} policy_t;

/* SplitMix64 mix: draw n of the random policy is splitmix64(seed + n). */
static uint64_t splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Point the midpoint-split tree's bits along `way`'s path away from it. */
static void plru_touch(uint8_t *bits, int64_t way, int64_t ways)
{
    int64_t offset = 0, low = 0, high = ways;
    while (high - low > 1) {
        int64_t mid = (low + high) / 2;
        int go_right = way >= mid;
        bits[offset] = (uint8_t)!go_right;
        if (go_right) {
            offset += mid - low;
            low = mid;
        } else {
            offset += 1;
            high = mid;
        }
    }
}

static int64_t plru_victim(const uint8_t *bits, int64_t ways)
{
    int64_t offset = 0, low = 0, high = ways;
    while (high - low > 1) {
        int64_t mid = (low + high) / 2;
        if (bits[offset]) {
            offset += mid - low;
            low = mid;
        } else {
            offset += 1;
            high = mid;
        }
    }
    return low;
}

static void policy_touch(policy_t *p, int64_t way, int64_t set, int64_t now,
                         int fill)
{
    switch (p->kind) {
    case POLICY_LRU:
        p->stamps[way * p->num_sets + set] = now;
        break;
    case POLICY_FIFO:
        if (fill)
            p->stamps[way * p->num_sets + set] = now;
        break;
    case POLICY_PLRU:
        p->stamps[way * p->num_sets + set] = now;
        plru_touch(p->bits + set * p->tree, way, p->ways);
        break;
    }
}

/* The way with the smallest timestamp, ties broken towards way 0. */
static int64_t min_stamp_way(const policy_t *p, const int64_t *cand)
{
    int64_t best_way = 0;
    int64_t best = p->stamps[cand[0]];
    for (int64_t w = 1; w < p->ways; w++) {
        int64_t value = p->stamps[w * p->num_sets + cand[w]];
        if (value < best) {
            best = value;
            best_way = w;
        }
    }
    return best_way;
}

/* Pick the way to evict; cand[w] is way w's candidate set. */
static int64_t policy_victim(policy_t *p, const int64_t *cand)
{
    if (p->kind == POLICY_RANDOM) {
        uint64_t draw = splitmix64(p->seed + (uint64_t)p->counter);
        p->counter += 1;
        return (int64_t)(draw % (uint64_t)p->ways);
    }
    if (p->kind == POLICY_PLRU) {
        /* The tree decides when every candidate shares one set; a skewed
         * spread falls back to true LRU over the timestamps. */
        int64_t w = 1;
        while (w < p->ways && cand[w] == cand[0])
            w++;
        if (w == p->ways)
            return plru_victim(p->bits + cand[0] * p->tree, p->ways);
    }
    return min_stamp_way(p, cand);
}

/* Probe the ways in order; returns the hit way, or -1 with every way's
 * candidate set in cand[] and the first invalid way (or -1) in *invalid. */
static int64_t probe(const int64_t *tags, const int64_t *const *way_sets,
                     int64_t ways, int64_t num_sets, int64_t i, int64_t block,
                     int64_t *cand, int64_t *invalid)
{
    int64_t first_invalid = -1;
    for (int64_t w = 0; w < ways; w++) {
        int64_t s = way_sets[w][i];
        int64_t tag = tags[w * num_sets + s];
        cand[w] = s;
        if (tag == block)
            return w;
        if (tag < 0 && first_invalid < 0)
            first_invalid = w;
    }
    *invalid = first_invalid;
    return -1;
}

/*
 * Set-associative cache.  io = {clock, random draws}.  Returns 0, or -1
 * when scratch memory is unavailable (nothing changed).
 */
int64_t repro_sa_run(int64_t n, const int64_t *blocks, const uint8_t *writes,
                     const int64_t *const *way_sets, int64_t ways,
                     int64_t num_sets, int64_t write_back, int64_t kind,
                     int64_t *tags, uint8_t *dirty, int64_t *stamps,
                     uint8_t *bits, uint64_t seed, int64_t *io, uint8_t *hits,
                     int64_t *counts)
{
    int64_t *cand = malloc((size_t)ways * sizeof *cand);
    if (cand == NULL)
        return -1;
    policy_t p = {kind, ways, num_sets, ways > 1 ? ways - 1 : 1, stamps,
                  bits, seed, io[1]};
    int64_t clock = io[0];
    int64_t c[NUM_COUNTS] = {0};

    for (int64_t i = 0; i < n; i++) {
        int64_t b = blocks[i];
        int w = writes[i] != 0;
        clock += 1;
        int64_t invalid;
        int64_t way = probe(tags, way_sets, ways, num_sets, i, b, cand,
                            &invalid);
        hits[i] = way >= 0;
        count_access(c, w, way >= 0);
        if (way >= 0) {
            policy_touch(&p, way, cand[way], clock, 0);
            if (w && write_back)
                dirty[way * num_sets + cand[way]] = 1;
            continue;
        }
        if (w && !write_back)
            continue; /* write-through / no-write-allocate */
        way = invalid;
        if (way < 0) {
            way = policy_victim(&p, cand);
            c[EVICTIONS]++;
            if (dirty[way * num_sets + cand[way]])
                c[WRITEBACKS]++;
        }
        int64_t frame = way * num_sets + cand[way];
        tags[frame] = b;
        dirty[frame] = (uint8_t)(w && write_back);
        policy_touch(&p, way, cand[way], clock, 1);
    }

    free(cand);
    io[0] = clock;
    io[1] = p.counter;
    memcpy(counts, c, sizeof c);
    return 0;
}

/*
 * Victim cache: a write-back main cache plus a fully-associative buffer of
 * `entries` lines, each with its own policy state.  io = {main clock,
 * buffer clock, main random draws, buffer random draws}.  Returns 0, or -1
 * when scratch memory is unavailable.
 */
int64_t repro_victim_run(int64_t n, const int64_t *blocks,
                         const uint8_t *writes,
                         const int64_t *const *way_sets, int64_t ways,
                         int64_t num_sets, int64_t kind, int64_t *tags,
                         uint8_t *dirty, int64_t *stamps, uint8_t *bits,
                         uint64_t seed, int64_t entries, int64_t *vtags,
                         uint8_t *vdirty, int64_t *vstamps, uint8_t *vbits,
                         uint64_t vseed, int64_t *io, uint8_t *hits,
                         int64_t *counts)
{
    int64_t *cand = malloc((size_t)ways * sizeof *cand);
    int64_t *buffer_sets = calloc((size_t)entries, sizeof *buffer_sets);
    if (cand == NULL || buffer_sets == NULL) {
        free(cand);
        free(buffer_sets);
        return -1;
    }
    policy_t main_p = {kind, ways, num_sets, ways > 1 ? ways - 1 : 1, stamps,
                       bits, seed, io[2]};
    policy_t buf_p = {kind, entries, 1, entries > 1 ? entries - 1 : 1,
                      vstamps, vbits, vseed, io[3]};
    int64_t main_clock = io[0], victim_clock = io[1];
    int64_t c[NUM_COUNTS] = {0};

    for (int64_t i = 0; i < n; i++) {
        int64_t b = blocks[i];
        int w = writes[i] != 0;
        int64_t invalid;
        int64_t way = probe(tags, way_sets, ways, num_sets, i, b, cand,
                            &invalid);
        if (way >= 0) {
            main_clock += 1;
            policy_touch(&main_p, way, cand[way], main_clock, 0);
            if (w)
                dirty[way * num_sets + cand[way]] = 1;
            count_access(c, w, 1);
            c[EXTRA0]++;
            hits[i] = 1;
            continue;
        }
        /* Main miss: probe the buffer; a hit leaves it for the main cache. */
        int64_t slot = -1;
        for (int64_t j = 0; j < entries; j++) {
            if (vtags[j] == b) {
                slot = j;
                break;
            }
        }
        count_access(c, w, slot >= 0);
        hits[i] = slot >= 0;
        if (slot >= 0) {
            c[EXTRA1]++;
            vtags[slot] = -1;
            vdirty[slot] = 0;
        }
        /* Refill the main cache (write-back, write-allocate). */
        main_clock += 1;
        int64_t evicted = -1;
        uint8_t evicted_dirty = 0;
        way = invalid;
        if (way < 0) {
            way = policy_victim(&main_p, cand);
            evicted = tags[way * num_sets + cand[way]];
            evicted_dirty = dirty[way * num_sets + cand[way]];
        }
        int64_t frame = way * num_sets + cand[way];
        tags[frame] = b;
        dirty[frame] = (uint8_t)w;
        policy_touch(&main_p, way, cand[way], main_clock, 1);
        if (evicted < 0)
            continue;
        /* Stash the displaced line; a dirty line falling out is written
         * back to the next level. */
        victim_clock += 1;
        slot = -1;
        for (int64_t j = 0; j < entries; j++) {
            if (vtags[j] < 0) {
                slot = j;
                break;
            }
        }
        if (slot < 0) {
            slot = policy_victim(&buf_p, buffer_sets);
            if (vdirty[slot])
                c[WRITEBACKS]++;
        }
        vtags[slot] = evicted;
        vdirty[slot] = evicted_dirty;
        policy_touch(&buf_p, slot, 0, victim_clock, 1);
    }

    free(cand);
    free(buffer_sets);
    io[0] = main_clock;
    io[1] = victim_clock;
    io[2] = main_p.counter;
    io[3] = buf_p.counter;
    memcpy(counts, c, sizeof c);
    return 0;
}

/*
 * Column-associative cache.  sec_of[f] is the secondary index of the block
 * in frame f, so a displaced block retreats without a rehash.
 */
int64_t repro_column_run(int64_t n, const int64_t *blocks,
                         const uint8_t *writes, const int64_t *primary,
                         const int64_t *secondary, int64_t swap,
                         int64_t *tags, uint8_t *dirty, int64_t *sec_of,
                         uint8_t *hits, int64_t *counts)
{
    int64_t c[NUM_COUNTS] = {0};

    for (int64_t i = 0; i < n; i++) {
        int64_t b = blocks[i], p = primary[i], s = secondary[i];
        int first_hit = tags[p] == b;
        int second_hit = !first_hit && s != p && tags[s] == b;
        hits[i] = first_hit || second_hit;
        count_access(c, writes[i] != 0, hits[i]);
        c[EXTRA2] += first_hit ? 1 : 2;
        if (first_hit) {
            c[EXTRA0]++;
            continue;
        }
        int64_t displaced = tags[p];
        uint8_t displaced_dirty = dirty[p];
        int64_t displaced_sec = sec_of[p];
        if (second_hit) {
            c[EXTRA1]++;
            if (swap) {
                /* Promote the block to its primary slot (clean); the
                 * primary occupant retreats to the secondary slot. */
                tags[p] = b;
                dirty[p] = 0;
                sec_of[p] = s;
                if (displaced >= 0) {
                    tags[s] = displaced;
                    dirty[s] = displaced_dirty;
                    sec_of[s] = displaced_sec;
                } else {
                    tags[s] = -1;
                    dirty[s] = 0;
                }
            }
            continue;
        }
        /* Miss: install at the primary slot; its occupant retreats to its
         * own secondary slot. */
        tags[p] = b;
        dirty[p] = 0;
        sec_of[p] = s;
        if (displaced < 0)
            continue;
        if (displaced_sec == p) {
            c[EVICTIONS]++;
            continue;
        }
        if (tags[displaced_sec] >= 0)
            c[EVICTIONS]++;
        tags[displaced_sec] = displaced;
        dirty[displaced_sec] = displaced_dirty;
        sec_of[displaced_sec] = displaced_sec;
    }

    memcpy(counts, c, sizeof c);
    return 0;
}
