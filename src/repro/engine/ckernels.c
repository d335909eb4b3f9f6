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
 *   repro_fa_run      the same for a one-set (fully-associative) cache, in
 *                     O(1) per access where repro_sa_run scans every way:
 *                     a block -> way map finds hits, and a recency list of
 *                     the ways (LRU/FIFO) or the PLRU tree picks victims;
 *   repro_victim_run  a main cache backed by a fully-associative victim
 *                     buffer, any main ways, any buffer size, any policy;
 *   repro_column_run  the column-associative cache;
 *   repro_hier_run    the virtual-real hierarchy: a virtually-indexed L1
 *                     over a physical L2 with back-invalidation, each
 *                     level any set-associative cache, through
 *                     repro_sa_run's per-access body;
 *   repro_ooo_run     the out-of-order core of repro.cpu.processor over one
 *                     program, its L1 data cache through the same body;
 *   repro_build_program  the synthetic program generator of
 *                     repro.cpu.workloads, writing the core's input columns;
 *   repro_workload_trace  the synthetic workload traces of
 *                     repro.trace.workloads, writing their columns;
 *   repro_first_touch the distinct pages of a page-number stream in
 *                     first-touch order, for the batch page-table walk.
 *
 * Layouts: per-way tables are way-major (ways x num_sets), PLRU direction
 * bits are set-major (num_sets x tree), tag -1 marks an invalid frame.
 * The cache kernels take byte addresses and a block shift (log2 of the
 * block size) and shift each address to its block inline: the wrappers
 * keep every block below 2**63, so no block is negative.  Each access's
 * set is computed inline from the cache's placement (index_vec.Placement).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { POLICY_LRU = 0, POLICY_FIFO = 1, POLICY_RANDOM = 2, POLICY_PLRU = 3 };

/* The per-access helpers are inlined into every kernel loop. */
#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

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

INLINE void policy_touch(policy_t *p, int64_t way, int64_t set, int64_t now,
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
    /* The smallest timestamp, ties broken towards way 0. */
    int64_t best_way = 0, best = p->stamps[cand[0]];
    for (int64_t w = 1; w < p->ways; w++) {
        int64_t value = p->stamps[w * p->num_sets + cand[w]];
        if (value < best) {
            best = value;
            best_way = w;
        }
    }
    return best_way;
}

/* A placement as a kernel call takes it (index_vec.Placement): function f
 * maps a block to the XOR of images[f * bits + j] over the block's set
 * bits j < bits. */
typedef struct {
    int64_t funcs, bits;
    const int64_t *images;
} placement_t;

/*
 * A placement during a run: the images expanded into one 256-entry XOR
 * table per byte of the window, each entry holding the sets of two
 * functions (2q in its low half, 2q + 1 in its high half), so a skewed
 * two-way cache finds both ways' sets in one lookup per byte.
 */
typedef struct {
    int64_t funcs, bytes;
    uint64_t *tables; /* (funcs + 1) / 2 x bytes x 256 */
} index_t;

static int index_open(index_t *x, const placement_t *p)
{
    int64_t pairs = (p->funcs + 1) / 2;
    x->funcs = p->funcs;
    /* One table at least: all zeros for a window of no bits. */
    x->bytes = p->bits > 8 ? (p->bits + 7) / 8 : 1;
    x->tables = malloc((size_t)(pairs * x->bytes * 256) * sizeof *x->tables);
    if (x->tables == NULL)
        return -1;
    for (int64_t q = 0; q < pairs; q++) {
        for (int64_t k = 0; k < x->bytes; k++) {
            uint64_t *t = x->tables + (q * x->bytes + k) * 256;
            t[0] = 0;
            for (int64_t j = 0; j < 8; j++) {
                int64_t bit = 8 * k + j, span = (int64_t)1 << j;
                uint64_t image = 0;
                for (int64_t h = 0; h < 2 && 2 * q + h < p->funcs; h++)
                    if (bit < p->bits)
                        image |= (uint64_t)(uint32_t)
                                 p->images[(2 * q + h) * p->bits + bit]
                                 << (32 * h);
                for (int64_t v = 0; v < span; v++)
                    t[span + v] = t[v] ^ image;
            }
        }
    }
    return 0;
}

/* sets[f] = the set of `block` under function f, for every function: the
 * XOR of one table entry per window byte. */
INLINE void index_sets(const index_t *x, uint64_t block, int64_t *sets)
{
    for (int64_t f = 0; f < x->funcs; f += 2) {
        const uint64_t *t = x->tables + f / 2 * x->bytes * 256;
        uint64_t pair = 0, b = block;
        for (int64_t k = 0; k < x->bytes; k++, t += 256, b >>= 8)
            pair ^= t[b & 255];
        sets[f] = (int64_t)(pair & 0xFFFFFFFF);
        if (f + 1 < x->funcs)
            sets[f + 1] = (int64_t)(pair >> 32);
    }
}

/* Probe the ways in order; returns the hit way, or -1 with every way's
 * candidate set in cand[] and the first invalid way (or -1) in *invalid.
 * One function serves every way of a conventional cache. */
INLINE int64_t probe(const int64_t *tags, const index_t *x, int64_t ways,
                     int64_t num_sets, int64_t block, int64_t *cand,
                     int64_t *invalid)
{
    int64_t first_invalid = -1;
    index_sets(x, (uint64_t)block, cand);
    for (int64_t w = 0; w < ways; w++) {
        int64_t s = cand[x->funcs == 1 ? 0 : w];
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

/* One set-associative cache as a kernel call takes it (ckernels.py builds
 * it): io = {clock, random draws} is read and updated, counts accumulates
 * NUM_COUNTS. */
typedef struct {
    placement_t place;
    int64_t ways, num_sets, write_back, kind;
    int64_t *tags;
    uint8_t *dirty;
    int64_t *stamps;
    uint8_t *bits;
    uint64_t seed;
    int64_t *io;
    int64_t *counts;
} level_t;

/* A level during a run: a private copy of its level_t's geometry and
 * pointers (so the compiler can keep them in registers while the state
 * arrays are written), its policy state, clock and counters. */
typedef struct {
    index_t x;
    int64_t ways, num_sets, write_back;
    int64_t *tags;
    uint8_t *dirty;
    policy_t p;
    int64_t clock;
    int64_t *cand; /* scratch: each way's candidate set of one access */
    int64_t evicted; /* the tag the last fill replaced (-1 for none) */
    int64_t c[NUM_COUNTS];
} cache_t;

static int cache_open(cache_t *s, const level_t *l)
{
    s->cand = malloc((size_t)l->ways * sizeof *s->cand);
    if (s->cand == NULL || index_open(&s->x, &l->place) != 0) {
        free(s->cand);
        return -1;
    }
    s->ways = l->ways;
    s->num_sets = l->num_sets;
    s->write_back = l->write_back;
    s->tags = l->tags;
    s->dirty = l->dirty;
    s->p = (policy_t){l->kind, l->ways, l->num_sets,
                      l->ways > 1 ? l->ways - 1 : 1, l->stamps, l->bits,
                      l->seed, l->io[1]};
    s->clock = l->io[0];
    memset(s->c, 0, sizeof s->c);
    return 0;
}

static void cache_free(cache_t *s)
{
    free(s->cand);
    free(s->x.tables);
}

static void cache_close(cache_t *s, const level_t *l)
{
    l->io[0] = s->clock;
    l->io[1] = s->p.counter;
    for (int i = 0; i < NUM_COUNTS; i++)
        l->counts[i] += s->c[i];
    cache_free(s);
}

/*
 * One access: `block`, a store when `write`.  Returns 1 on a hit; *frame is
 * the frame hit or filled (way * num_sets + set), or -1 when a store miss
 * did not allocate.
 */
INLINE int sa_access(cache_t *s, int64_t block, int write, int64_t *frame)
{
    int64_t *cand = s->cand;
    int64_t invalid;
    s->clock += 1;
    int64_t way = probe(s->tags, &s->x, s->ways, s->num_sets, block, cand,
                        &invalid);
    count_access(s->c, write, way >= 0);
    if (way >= 0) {
        policy_touch(&s->p, way, cand[way], s->clock, 0);
        *frame = way * s->num_sets + cand[way];
        if (write && s->write_back)
            s->dirty[*frame] = 1;
        return 1;
    }
    *frame = -1;
    if (write && !s->write_back)
        return 0; /* write-through / no-write-allocate */
    way = invalid;
    if (way < 0) {
        way = policy_victim(&s->p, cand);
        s->c[EVICTIONS]++;
        if (s->dirty[way * s->num_sets + cand[way]])
            s->c[WRITEBACKS]++;
    }
    *frame = way * s->num_sets + cand[way];
    s->evicted = s->tags[*frame];
    s->tags[*frame] = block;
    s->dirty[*frame] = (uint8_t)(write && s->write_back);
    policy_touch(&s->p, way, cand[way], s->clock, 1);
    return 0;
}

/* The block of byte address `addr` under a block shift. */
INLINE int64_t block_of(uint64_t addr, int64_t shift)
{
    return (int64_t)(addr >> shift);
}

/*
 * Set-associative cache: conventional, skewed or fully associative, one
 * sa_access per access of block addr[i] >> shift.  ckernels.py sends
 * one-set caches to repro_fa_run instead.  Returns 0, or -1 when scratch
 * memory is unavailable (nothing changed).
 */
int64_t repro_sa_run(int64_t n, const uint64_t *addr, int64_t shift,
                     const uint8_t *writes, const level_t *l, uint8_t *hits)
{
    cache_t s;
    if (cache_open(&s, l) != 0)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t frame;
        hits[i] = (uint8_t)sa_access(&s, block_of(addr[i], shift),
                                     writes[i] != 0, &frame);
    }
    cache_close(&s, l);
    return 0;
}

/* Slots of the hierarchy kernel's `events` output. */
enum { HOLES, BACK_INVALIDATIONS, ALIAS_INVALIDATIONS, NUM_EVENTS };

/*
 * Which L1 frame holds each line: a chained hash keyed by the raw line
 * number, one chain link per frame.  line[f] is the line in frame f or -1
 * (the caller's l1_line, kept current); head[] holds each bucket's first
 * frame and next[] each frame's successor in its chain, -1 ending one.
 */
typedef struct {
    int64_t *line, *head, *next;
    int shift; /* 64 - log2(buckets) */
} line_map_t;

INLINE int64_t *line_bucket(const line_map_t *m, int64_t line)
{
    return m->head + (((uint64_t)line * 0x9E3779B97F4A7C15u) >> m->shift);
}

INLINE int64_t line_map_find(const line_map_t *m, int64_t line)
{
    int64_t f = *line_bucket(m, line);
    while (f >= 0 && m->line[f] != line)
        f = m->next[f];
    return f;
}

/* Frame f now holds `line` (-1 for none). */
static void line_map_set(line_map_t *m, int64_t f, int64_t line)
{
    if (m->line[f] >= 0) {
        int64_t *link = line_bucket(m, m->line[f]);
        while (*link != f)
            link = m->next + *link;
        *link = m->next[f];
    }
    m->line[f] = line;
    if (line >= 0) {
        int64_t *head = line_bucket(m, line);
        m->next[f] = *head;
        *head = f;
    }
}

/* An empty map over line[0 .. frames): at least two buckets and one per
 * frame. */
INLINE int line_map_alloc(line_map_t *m, int64_t *line, int64_t frames)
{
    int64_t buckets = 2;
    m->shift = 63;
    while (buckets < frames) {
        buckets *= 2;
        m->shift--;
    }
    m->head = malloc((size_t)buckets * sizeof *m->head);
    m->next = malloc((size_t)frames * sizeof *m->next);
    if (m->head == NULL || m->next == NULL) {
        free(m->head);
        free(m->next);
        return -1;
    }
    memset(m->head, 0xff, (size_t)buckets * sizeof *m->head);
    m->line = line;
    return 0;
}

/* Index the lines of l1_line[0 .. frames).  Each frame goes to the head
 * of its chain, so a line held twice finds its highest frame. */
static int line_map_open(line_map_t *m, int64_t *l1_line, int64_t frames)
{
    if (line_map_alloc(m, l1_line, frames) != 0)
        return -1;
    for (int64_t f = 0; f < frames; f++) {
        int64_t line = l1_line[f];
        l1_line[f] = -1;
        line_map_set(m, f, line);
    }
    return 0;
}

/* Invalidate L1 frame f and forget which line it held. */
static void drop_l1(cache_t *l1, line_map_t *m, int64_t f)
{
    l1->tags[f] = -1;
    l1->dirty[f] = 0;
    line_map_set(m, f, -1);
}

/*
 * The virtual-real hierarchy, one access at a time in trace order, like
 * repro.cache.virtual_real: a virtually-indexed L1 over a physical L2 that
 * enforces Inclusion, both levels with one block shift.
 *
 * Access i looks up block l1_addr[i] >> shift (virtual) in L1 and block
 * l2_addr[i] >> shift (physical) in L2; the L2 block is the access's line.
 * l1_line[f] is the line in L1 frame f or -1; the kernel keeps it current
 * and finds a line's frame through a line_map_t over it.  An L1 frame
 * holding this access's line under another L1 block is an alias and is
 * invalidated first.  An L2 miss that evicts a block invalidates the L1
 * copy of that line, if any; a copy other than the line being filled is
 * a hole, so an L2 miss creates at most one.  A store that hits L1 is
 * written through to L2 and never back-invalidates.  Returns 0, or -1
 * when scratch memory is unavailable (nothing changed).
 */
int64_t repro_hier_run(int64_t n, const uint64_t *l1_addr,
                       const uint64_t *l2_addr, const uint8_t *writes,
                       int64_t shift, const level_t *l1l, const level_t *l2l,
                       int64_t *l1_line, uint8_t *l1_hits, uint8_t *l2_hits,
                       int64_t *events)
{
    cache_t l1, l2;
    line_map_t m;
    if (cache_open(&l1, l1l) != 0)
        return -1;
    if (cache_open(&l2, l2l) != 0) {
        cache_free(&l1);
        return -1;
    }
    if (line_map_open(&m, l1_line, l1.ways * l1.num_sets) != 0) {
        cache_free(&l1);
        cache_free(&l2);
        return -1;
    }
    int64_t e[NUM_EVENTS] = {0};

    for (int64_t i = 0; i < n; i++) {
        int64_t block = block_of(l1_addr[i], shift), f, f2;
        int64_t line = block_of(l2_addr[i], shift);
        int w = writes[i] != 0;
        f = line_map_find(&m, line);
        if (f >= 0 && l1.tags[f] != block) {
            drop_l1(&l1, &m, f);
            e[ALIAS_INVALIDATIONS]++;
        }
        if (sa_access(&l1, block, w, &f)) {
            l1_hits[i] = l2_hits[i] = 1;
            if (w)
                sa_access(&l2, line, 1, &f2);
            continue;
        }
        l1_hits[i] = 0;
        if (f >= 0)
            line_map_set(&m, f, line);
        l2_hits[i] = (uint8_t)sa_access(&l2, line, w, &f2);
        if (l2_hits[i] || f2 < 0 || l2.evicted < 0)
            continue;
        int64_t g = line_map_find(&m, l2.evicted);
        if (g < 0)
            continue;
        e[BACK_INVALIDATIONS]++;
        if (l1.tags[g] != block)
            e[HOLES]++;
        drop_l1(&l1, &m, g);
    }

    cache_close(&l1, l1l);
    cache_close(&l2, l2l);
    free(m.head);
    free(m.next);
    memcpy(events, e, sizeof e);
    return 0;
}

/*
 * Victim cache: a write-back main cache plus a fully-associative buffer of
 * `entries` lines, each with its own policy state.  io = {main clock,
 * buffer clock, main random draws, buffer random draws}.  Returns 0, or -1
 * when scratch memory is unavailable.
 */
int64_t repro_victim_run(int64_t n, const uint64_t *addr, int64_t shift,
                         const uint8_t *writes, const placement_t *place,
                         int64_t ways, int64_t num_sets, int64_t kind,
                         int64_t *tags,
                         uint8_t *dirty, int64_t *stamps, uint8_t *bits,
                         uint64_t seed, int64_t entries, int64_t *vtags,
                         uint8_t *vdirty, int64_t *vstamps, uint8_t *vbits,
                         uint64_t vseed, int64_t *io, uint8_t *hits,
                         int64_t *counts)
{
    int64_t *cand = malloc((size_t)ways * sizeof *cand);
    int64_t *buffer_sets = calloc((size_t)entries, sizeof *buffer_sets);
    index_t x;
    if (cand == NULL || buffer_sets == NULL || index_open(&x, place) != 0) {
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
        int64_t b = block_of(addr[i], shift);
        int w = writes[i] != 0;
        int64_t invalid;
        int64_t way = probe(tags, &x, ways, num_sets, b, cand, &invalid);
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
    free(x.tables);
    io[0] = main_clock;
    io[1] = victim_clock;
    io[2] = main_p.counter;
    io[3] = buf_p.counter;
    memcpy(counts, c, sizeof c);
    return 0;
}

/*
 * Column-associative cache: place function 0 is the primary index, 1 the
 * secondary.  sec_of[f] is the secondary index of the block in frame f, so
 * a displaced block retreats without a rehash.  Returns 0, or -1 when
 * scratch memory is unavailable.
 */
int64_t repro_column_run(int64_t n, const uint64_t *addr, int64_t shift,
                         const uint8_t *writes, const placement_t *place,
                         int64_t swap, int64_t *tags, uint8_t *dirty,
                         int64_t *sec_of, uint8_t *hits, int64_t *counts)
{
    int64_t c[NUM_COUNTS] = {0};
    index_t x;
    if (index_open(&x, place) != 0)
        return -1;

    for (int64_t i = 0; i < n; i++) {
        int64_t b = block_of(addr[i], shift), sets[2];
        index_sets(&x, (uint64_t)b, sets);
        int64_t p = sets[0], s = sets[1];
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

    free(x.tables);
    memcpy(counts, c, sizeof c);
    return 0;
}

/* ------------------------------------------------------------------ */
/* The out-of-order core (repro.cpu.processor) */

/* Slots of repro_ooo_run's `params`, in ckernels.OOO_PARAMS order. */
enum { P_FETCH_WIDTH, P_COMMIT_WIDTH, P_ROB_ENTRIES, P_INT_PHYS, P_FP_PHYS,
       P_DECODE_LATENCY, P_REDIRECT_PENALTY, P_BRANCH_ENTRIES, P_HIT_TIME,
       P_MISS_PENALTY, P_XOR_PENALTY, P_PORTS, P_MSHR_ENTRIES,
       P_BUS_CYCLES, P_ADDRESS_PREDICTION, P_ADDRESS_ENTRIES,
       P_CONFIDENCE, P_FORWARD_LATENCY, P_NUM_REGS, P_FIRST_FP_REG,
       P_NUM_ADDRESS_IDS, P_NUM_UNITS, P_OP_LOAD, P_OP_STORE, P_OP_BRANCH };

/* Slots of its `counters` output, in ckernels.OOO_COUNTERS order. */
enum { C_CYCLES, C_FORWARDED, C_LOAD_ACCESSES, C_STORE_ACCESSES,
       C_MERGED, C_MSHR_STALL, C_BRANCHES, C_MISPREDICTIONS, C_LOOKUPS,
       C_CONFIDENT, C_CORRECT, NUM_OOO_COUNTERS };

/* ThroughputLimiter: the cycles of the last `width` events, oldest at
 * `head` once the ring is full. */
typedef struct {
    int64_t *recent;
    int64_t width, count, head;
} limiter_t;

INLINE int64_t limiter_record(limiter_t *t, int64_t cycle)
{
    if (t->count < t->width) {
        t->recent[t->count++] = cycle;
        return cycle;
    }
    if (t->recent[t->head] + 1 > cycle)
        cycle = t->recent[t->head] + 1;
    t->recent[t->head] = cycle;
    if (++t->head == t->width)
        t->head = 0;
    return cycle;
}

/* WindowResource: release cycles of up to `capacity` holders in order,
 * the oldest at `head` (0 until the ring is full). */
typedef struct {
    int64_t *held;
    int64_t capacity, count, head;
} window_t;

INLINE int64_t window_earliest(const window_t *w, int64_t cycle)
{
    if (w->count == w->capacity && w->held[w->head] > cycle)
        return w->held[w->head];
    return cycle;
}

/* Acquire at a cycle window_earliest granted (so no stall is left). */
INLINE void window_acquire(window_t *w, int64_t release)
{
    if (w->count < w->capacity) {
        w->held[w->count++] = release;
        return;
    }
    w->held[w->head] = release;
    if (++w->head == w->capacity)
        w->head = 0;
}

/* The core's timing state besides its functional L1 (cache_t). */
typedef struct {
    const int64_t *p;
    const int64_t *fu;     /* per op: latency, repeat, serves[units] */
    int64_t *next_free;    /* per functional unit */
    limiter_t ports;
    int64_t *inflight_block, *inflight_ready, inflight;
    int64_t bus_free;
    int64_t *c;            /* counters */
} core_t;

/* FunctionalUnitPool.issue: the first serving unit already free at `now`,
 * else the one that frees up first; returns the completion cycle and the
 * start in *start. */
INLINE int64_t fu_issue(core_t *k, int64_t op, int64_t now, int64_t *start)
{
    int64_t units = k->p[P_NUM_UNITS];
    const int64_t *row = k->fu + op * (2 + units);
    int64_t best = -1;
    for (int64_t u = 0; u < units; u++) {
        if (!row[2 + u])
            continue;
        if (k->next_free[u] <= now) {
            best = u;
            break;
        }
        if (best < 0 || k->next_free[u] < k->next_free[best])
            best = u;
    }
    int64_t s = now > k->next_free[best] ? now : k->next_free[best];
    k->next_free[best] = s + row[1];
    *start = s;
    return s + row[0];
}

/* Forget the fills complete by `now` (DataCacheModel._expire_inflight). */
static void expire_inflight(core_t *k, int64_t now)
{
    int64_t kept = 0;
    for (int64_t j = 0; j < k->inflight; j++) {
        if (k->inflight_ready[j] > now) {
            k->inflight_block[kept] = k->inflight_block[j];
            k->inflight_ready[kept] = k->inflight_ready[j];
            kept++;
        }
    }
    k->inflight = kept;
}

/* DataCacheModel.load for instruction i: returns the ready cycle. */
static int64_t dcache_load(core_t *k, cache_t *l1, int64_t block,
                           int64_t request, int predicted)
{
    const int64_t *p = k->p;
    int64_t hit_time = p[P_HIT_TIME], frame;
    int64_t start = limiter_record(
        &k->ports, request + (predicted ? 0 : p[P_XOR_PENALTY]));
    expire_inflight(k, start);
    int64_t merged = -1;
    for (int64_t j = 0; j < k->inflight; j++) {
        if (k->inflight_block[j] == block) {
            merged = j;
            break;
        }
    }
    int hit = sa_access(l1, block, 0, &frame);
    k->c[C_LOAD_ACCESSES]++;
    if (merged >= 0) {
        /* A secondary miss waits for the outstanding fill. */
        k->c[C_MERGED]++;
        int64_t ready = k->inflight_ready[merged];
        return ready > start + hit_time ? ready : start + hit_time;
    }
    if (hit)
        return start + hit_time;
    /* Primary miss: wait for a free MSHR. */
    int64_t issue = start;
    while (k->inflight >= p[P_MSHR_ENTRIES]) {
        int64_t earliest = k->inflight_ready[0];
        for (int64_t j = 1; j < k->inflight; j++)
            if (k->inflight_ready[j] < earliest)
                earliest = k->inflight_ready[j];
        k->c[C_MSHR_STALL] += earliest - issue;
        issue = earliest;
        expire_inflight(k, issue);
    }
    int64_t fill = issue + hit_time + p[P_MISS_PENALTY];
    int64_t bus_start = fill - p[P_BUS_CYCLES];
    if (bus_start < k->bus_free)
        bus_start = k->bus_free;
    k->bus_free = bus_start + p[P_BUS_CYCLES];
    int64_t ready = fill > k->bus_free ? fill : k->bus_free;
    k->inflight_block[k->inflight] = block;
    k->inflight_ready[k->inflight] = ready;
    k->inflight++;
    return ready;
}

/*
 * OutOfOrderProcessor.run on a fresh processor, one call per program:
 * instruction i has op code ops[i], destination dests[i] (-1 for none),
 * sources srcs[i * nsrc ...] (padded with -1), dense address id
 * addr_ids[i], address addresses[i], cache block blocks[i], pc pcs[i] and
 * branch outcome taken[i].  accessed[i] is set when the instruction
 * reached the L1.  Returns 0, or -1 when scratch memory is unavailable.
 */
int64_t repro_ooo_run(int64_t n, const int64_t *ops, const int64_t *dests,
                      const int64_t *srcs, int64_t nsrc,
                      const int64_t *addr_ids, const int64_t *addresses,
                      const int64_t *blocks, const int64_t *pcs,
                      const uint8_t *taken, const int64_t *p,
                      const int64_t *fu, const level_t *l1l,
                      uint8_t *accessed, int64_t *counters)
{
    int64_t ids = p[P_NUM_ADDRESS_IDS], regs = p[P_NUM_REGS];
    int64_t bp_entries = p[P_BRANCH_ENTRIES], ap_entries = p[P_ADDRESS_ENTRIES];
    int64_t ap_used = p[P_ADDRESS_PREDICTION] ? ap_entries : 0;
    size_t words = (size_t)(p[P_FETCH_WIDTH] + p[P_COMMIT_WIDTH]
                            + p[P_ROB_ENTRIES] + p[P_INT_PHYS] + p[P_FP_PHYS]
                            + p[P_PORTS] + 2 * p[P_MSHR_ENTRIES]
                            + p[P_NUM_UNITS] + regs + 3 * ids
                            + 2 * ap_used);
    int64_t *scratch = calloc(words, sizeof *scratch);
    uint8_t *bp = malloc((size_t)bp_entries);
    uint8_t *ap_counter = calloc((size_t)ap_used + 1, 1);
    cache_t l1;
    if (scratch == NULL || bp == NULL || ap_counter == NULL
        || cache_open(&l1, l1l) != 0) {
        free(scratch);
        free(bp);
        free(ap_counter);
        return -1;
    }
    int64_t *next = scratch;
#define TAKE(count) (next += (count), next - (count))
    limiter_t fetch = {TAKE(p[P_FETCH_WIDTH]), p[P_FETCH_WIDTH], 0, 0};
    limiter_t commit = {TAKE(p[P_COMMIT_WIDTH]), p[P_COMMIT_WIDTH], 0, 0};
    window_t rob = {TAKE(p[P_ROB_ENTRIES]), p[P_ROB_ENTRIES], 0, 0};
    window_t int_regs = {TAKE(p[P_INT_PHYS]), p[P_INT_PHYS], 0, 0};
    window_t fp_regs = {TAKE(p[P_FP_PHYS]), p[P_FP_PHYS], 0, 0};
    int64_t c[NUM_OOO_COUNTERS] = {0};
    core_t k = {p, fu, NULL, {NULL, p[P_PORTS], 0, 0}, NULL, NULL, 0, 0, c};
    k.ports.recent = TAKE(p[P_PORTS]);
    k.inflight_block = TAKE(p[P_MSHR_ENTRIES]);
    k.inflight_ready = TAKE(p[P_MSHR_ENTRIES]);
    k.next_free = TAKE(p[P_NUM_UNITS]);
    int64_t *reg_ready = TAKE(regs);
    /* The store-forwarding buffer: the youngest store per address id. */
    int64_t *sb_seq = TAKE(ids), *sb_ready = TAKE(ids), *sb_commit = TAKE(ids);
    int64_t *ap_last = TAKE(ap_used), *ap_stride = TAKE(ap_used);
#undef TAKE
    for (int64_t j = 0; j < ids; j++)
        sb_seq[j] = -1;
    memset(bp, 1, (size_t)bp_entries); /* weakly not-taken */

    int64_t op_load = p[P_OP_LOAD], op_store = p[P_OP_STORE];
    int64_t op_branch = p[P_OP_BRANCH], first_fp = p[P_FIRST_FP_REG];
    int64_t fetch_floor = 0, prev_commit = 0, start;
    for (int64_t i = 0; i < n; i++) {
        int64_t op = ops[i], dest = dests[i];
        int64_t dispatch = window_earliest(
            &rob, limiter_record(&fetch, fetch_floor) + p[P_DECODE_LATENCY]);
        window_t *regfile = NULL;
        if (dest >= 0) {
            regfile = dest >= first_fp ? &fp_regs : &int_regs;
            dispatch = window_earliest(regfile, dispatch);
        }
        int64_t ready = dispatch;
        for (int64_t j = 0; j < nsrc; j++) {
            int64_t s = srcs[i * nsrc + j];
            if (s >= 0 && reg_ready[s] > ready)
                ready = reg_ready[s];
        }

        int64_t complete;
        accessed[i] = 0;
        if (op == op_load) {
            int64_t done = fu_issue(&k, op, ready, &start);
            uint64_t address = (uint64_t)addresses[i];
            int predicted = 0;
            if (ap_used) {
                /* StrideAddressPredictor.predict then .update. */
                int64_t e = (pcs[i] >> 2) & (ap_entries - 1);
                int confident = ap_counter[e] >= p[P_CONFIDENCE];
                int correct = (uint64_t)ap_last[e] + (uint64_t)ap_stride[e]
                              == address;
                c[C_LOOKUPS]++;
                c[C_CONFIDENT] += confident;
                if (correct && ap_counter[e] < 3)
                    ap_counter[e]++;
                else if (!correct && ap_counter[e] > 0)
                    ap_counter[e]--;
                if (ap_counter[e] < 2)
                    ap_stride[e] = (int64_t)(address - (uint64_t)ap_last[e]);
                ap_last[e] = (int64_t)address;
                predicted = confident && correct;
                c[C_CORRECT] += predicted;
            }
            int64_t id = addr_ids[i];
            if (sb_seq[id] >= 0 && sb_seq[id] < i && sb_commit[id] > done) {
                /* Forwarded from a store still in the buffer. */
                c[C_FORWARDED]++;
                complete = (done > sb_ready[id] ? done : sb_ready[id])
                           + p[P_FORWARD_LATENCY];
            } else {
                accessed[i] = 1;
                if (predicted) {
                    /* The access started with the predicted line. */
                    complete = dcache_load(&k, &l1, blocks[i], start, 1);
                    if (complete < done)
                        complete = done;
                } else {
                    complete = dcache_load(&k, &l1, blocks[i], done, 0);
                }
            }
        } else {
            complete = fu_issue(&k, op, ready, &start);
            if (op == op_branch) {
                /* BimodalBranchPredictor.update. */
                int64_t e = (pcs[i] >> 2) & (bp_entries - 1);
                int predicted_taken = bp[e] >= 2, outcome = taken[i] != 0;
                c[C_BRANCHES]++;
                if (predicted_taken != outcome) {
                    c[C_MISPREDICTIONS]++;
                    /* Fetch waits for the branch to resolve. */
                    if (complete + p[P_REDIRECT_PENALTY] > fetch_floor)
                        fetch_floor = complete + p[P_REDIRECT_PENALTY];
                }
                if (outcome && bp[e] < 3)
                    bp[e]++;
                else if (!outcome && bp[e] > 0)
                    bp[e]--;
            }
        }

        int64_t commit_cycle = complete + 1;
        if (commit_cycle < prev_commit)
            commit_cycle = prev_commit;
        commit_cycle = prev_commit = limiter_record(&commit, commit_cycle);
        window_acquire(&rob, commit_cycle);
        if (regfile != NULL) {
            window_acquire(regfile, commit_cycle);
            reg_ready[dest] = complete;
        }
        if (op == op_store) {
            /* Written through to the cache at commit, and buffered. */
            int64_t frame, id = addr_ids[i];
            sa_access(&l1, blocks[i], 1, &frame);
            c[C_STORE_ACCESSES]++;
            accessed[i] = 1;
            sb_seq[id] = i;
            sb_ready[id] = complete;
            sb_commit[id] = commit_cycle;
        }
    }

    c[C_CYCLES] = prev_commit;
    cache_close(&l1, l1l);
    memcpy(counters, c, sizeof c);
    free(scratch);
    free(bp);
    free(ap_counter);
    return 0;
}

/* ------------------------------------------------------------------ */
/* The program builder (repro.cpu.workloads._instruction_stream) */

/* Slots of repro_build_program's `params`, in ckernels.PROGRAM_PARAMS
 * order.  Draws are taken below PPM (op classes, branch flips) or below
 * PERCENT (sources, register classes); a *_CUT is an upper bound on a
 * PPM draw, a *_CHANCE on a PERCENT draw. */
enum { G_PPM, G_PERCENT, G_MEM_CUT, G_BRANCH_CUT, G_FLIP_CUT, G_FP_CUT,
       G_FP_DIV_CUT, G_FP_SQRT_CUT, G_FP_MUL_CUT, G_INT_MUL_CUT,
       G_INT_DIV_CUT, G_FP_MEMORY, G_STORE_FP_CHANCE, G_LOAD_FP_CHANCE,
       G_MEMORY_SRC_CHANCE, G_BRANCH_SRC_CHANCE, G_SRC_CHANCE, G_WINDOW,
       G_POOL_LIMIT, G_POOL_DROP, G_INT_REGS, G_FP_REGS, G_BASE_REGS,
       G_BRANCH_SITES, G_PC_START, G_PC_STEP, G_BRANCH_PC, G_OP_LOAD,
       G_OP_STORE, G_OP_BRANCH, G_OP_FP_DIV, G_OP_FP_SQRT, G_OP_FP_MUL,
       G_OP_FP_ADD, G_OP_INT_MUL, G_OP_INT_DIV, G_OP_INT_ALU };

/* _SplitMix64.below: advance the state, mix it, reduce. */
INLINE int64_t draw_below(uint64_t *state, int64_t bound)
{
    uint64_t x = splitmix64(*state);
    *state += 0x9E3779B97F4A7C15ULL;
    return (int64_t)(x % (uint64_t)bound);
}

/* The most recent destinations of one register class, oldest first. */
typedef struct {
    int64_t *regs;
    int64_t len;
} pool_t;

/* pick_src: with chance/PERCENT one of the pool's last `window`
 * destinations, otherwise one of the class's base registers. */
INLINE int64_t pick_src(uint64_t *rng, const int64_t *p, const pool_t *pool,
                        int64_t base, int64_t chance)
{
    if (draw_below(rng, p[G_PERCENT]) < chance) {
        int64_t w = pool->len < p[G_WINDOW] ? pool->len : p[G_WINDOW];
        return pool->regs[pool->len - w + draw_below(rng, w)];
    }
    return base + draw_below(rng, p[G_BASE_REGS]);
}

/* next_int_dest / next_fp_dest: a cursor over [first, end). */
INLINE int64_t next_dest(int64_t *cursor, int64_t first, int64_t end)
{
    int64_t dest = (*cursor)++;
    if (*cursor >= end)
        *cursor = first;
    return dest;
}

/* Keep the pool bounded: past POOL_LIMIT entries drop the POOL_DROP
 * oldest. */
INLINE void pool_trim(pool_t *pool, const int64_t *p)
{
    if (pool->len > p[G_POOL_LIMIT]) {
        pool->len -= p[G_POOL_DROP];
        memmove(pool->regs, pool->regs + p[G_POOL_DROP],
                (size_t)pool->len * sizeof *pool->regs);
    }
}

/*
 * _instruction_stream(name, n, seed) as ProgramColumns arrays, draw for
 * draw: instruction i gets op code ops[i], destination dests[i] (-1 for
 * none), sources srcs[2 * i], srcs[2 * i + 1] (-1 for none), address
 * addresses[i] (0 for none), pc pcs[i] and branch outcome taken[i].
 * Memory instructions take the trace's accesses in order: address
 * t_addresses[t], a store when t_writes[t], pc t_pcs[t] (the running pc
 * when that is 0).  seed is the initial SplitMix64 state.  Returns 0, -1
 * when scratch memory is unavailable, or -2 when the program needs more
 * than trace_len accesses.
 */
int64_t repro_build_program(int64_t n, uint64_t seed, const int64_t *p,
                            int64_t trace_len, const int64_t *t_addresses,
                            const uint8_t *t_writes, const int64_t *t_pcs,
                            int64_t *ops, int64_t *dests, int64_t *srcs,
                            int64_t *addresses, int64_t *pcs, uint8_t *taken)
{
    int64_t base = p[G_BASE_REGS], int_regs = p[G_INT_REGS];
    int64_t cap = (base > p[G_POOL_LIMIT] ? base : p[G_POOL_LIMIT]) + 1;
    int64_t *scratch = malloc((size_t)(2 * cap) * sizeof *scratch);
    uint8_t *bias = malloc((size_t)p[G_BRANCH_SITES]);
    if (scratch == NULL || bias == NULL) {
        free(scratch);
        free(bias);
        return -1;
    }
    uint64_t rng = seed;
    /* Per-branch-site "usually taken?" flags. */
    for (int64_t s = 0; s < p[G_BRANCH_SITES]; s++) {
        bias[s] = (splitmix64(rng) & 1) == 0;
        rng += 0x9E3779B97F4A7C15ULL;
    }
    /* Both pools start as their class's base registers. */
    pool_t ints = {scratch, base}, fps = {scratch + cap, base};
    for (int64_t j = 0; j < base; j++) {
        ints.regs[j] = j;
        fps.regs[j] = int_regs + j;
    }
    int64_t int_cursor = base, fp_cursor = int_regs + base;
    int64_t fp_end = int_regs + p[G_FP_REGS];
    int64_t pc = p[G_PC_START], t = 0, status = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t draw = draw_below(&rng, p[G_PPM]);
        int64_t *src = srcs + 2 * i;
        pc += p[G_PC_STEP];
        dests[i] = src[0] = src[1] = -1;
        addresses[i] = 0;
        pcs[i] = pc;
        taken[i] = 0;
        if (draw < p[G_MEM_CUT]) {
            if (t >= trace_len) {
                status = -2;
                break;
            }
            addresses[i] = t_addresses[t];
            if (t_pcs[t] != 0)
                pcs[i] = t_pcs[t];
            if (t_writes[t]) {
                int fp = p[G_FP_MEMORY] && draw_below(&rng, p[G_PERCENT])
                                               < p[G_STORE_FP_CHANCE];
                /* The data source is drawn before the address source. */
                src[1] = pick_src(&rng, p, fp ? &fps : &ints,
                                  fp ? int_regs : 0, p[G_SRC_CHANCE]);
                src[0] = pick_src(&rng, p, &ints, 0, p[G_MEMORY_SRC_CHANCE]);
                ops[i] = p[G_OP_STORE];
            } else {
                int fp = p[G_FP_MEMORY] && draw_below(&rng, p[G_PERCENT])
                                               < p[G_LOAD_FP_CHANCE];
                int64_t dest = fp ? next_dest(&fp_cursor, int_regs + base,
                                              fp_end)
                                  : next_dest(&int_cursor, base, int_regs);
                src[0] = pick_src(&rng, p, &ints, 0, p[G_MEMORY_SRC_CHANCE]);
                ops[i] = p[G_OP_LOAD];
                dests[i] = dest;
                pool_t *pool = fp ? &fps : &ints;
                pool->regs[pool->len++] = dest;
            }
            t++;
        } else if (draw < p[G_BRANCH_CUT]) {
            int64_t site = draw_below(&rng, p[G_BRANCH_SITES]);
            int outcome = bias[site];
            if (draw_below(&rng, p[G_PPM]) < p[G_FLIP_CUT])
                outcome = !outcome;
            src[0] = pick_src(&rng, p, &ints, 0, p[G_BRANCH_SRC_CHANCE]);
            ops[i] = p[G_OP_BRANCH];
            pcs[i] = p[G_BRANCH_PC] + site * p[G_PC_STEP];
            taken[i] = (uint8_t)outcome;
        } else if (draw_below(&rng, p[G_PPM]) < p[G_FP_CUT]) {
            int64_t roll = draw_below(&rng, p[G_PPM]);
            ops[i] = roll < p[G_FP_DIV_CUT] ? p[G_OP_FP_DIV]
                     : roll < p[G_FP_SQRT_CUT] ? p[G_OP_FP_SQRT]
                     : roll < p[G_FP_MUL_CUT] ? p[G_OP_FP_MUL]
                     : p[G_OP_FP_ADD];
            dests[i] = next_dest(&fp_cursor, int_regs + base, fp_end);
            src[0] = pick_src(&rng, p, &fps, int_regs, p[G_SRC_CHANCE]);
            src[1] = pick_src(&rng, p, &fps, int_regs, p[G_SRC_CHANCE]);
            fps.regs[fps.len++] = dests[i];
        } else {
            int64_t roll = draw_below(&rng, p[G_PPM]);
            ops[i] = roll < p[G_INT_MUL_CUT] ? p[G_OP_INT_MUL]
                     : roll < p[G_INT_DIV_CUT] ? p[G_OP_INT_DIV]
                     : p[G_OP_INT_ALU];
            dests[i] = next_dest(&int_cursor, base, int_regs);
            src[0] = pick_src(&rng, p, &ints, 0, p[G_SRC_CHANCE]);
            src[1] = pick_src(&rng, p, &ints, 0, p[G_SRC_CHANCE]);
            ints.regs[ints.len++] = dests[i];
        }
        pool_trim(&ints, p);
        pool_trim(&fps, p);
    }
    free(scratch);
    free(bias);
    return status;
}

/* ------------------------------------------------------------------ */
/* Workload traces (repro.trace.workloads) and first-touch page order */

/* Slots of repro_workload_trace's `params`, in ckernels.WORKLOAD_PARAMS
 * order: the cuts of the component draw (below WORKLOAD_PPM) and of the
 * hot component's store draw, then _WorkloadState's layout. */
enum { W_CONFLICT_CUT, W_STREAM_CUT, W_MEDIUM_CUT, W_WRITE_CUT,
       W_BLOCK_SIZE, W_HOT_BASE, W_HOT_SLOTS, W_STREAM_BASE, W_MEDIUM_BASE,
       W_MEDIUM_BLOCKS, W_CONFLICT_BASE, W_CONFLICT_SPACING,
       W_CONFLICT_ELEMENTS, W_CONFLICT_ARRAYS, W_HOT_PC, W_STREAM_PC,
       W_MEDIUM_PC, W_CONFLICT_PC, W_CONFLICT_PC_STEP };

#define WORKLOAD_PPM 1000000

/*
 * build_trace(name, n, block_size, seed) as columns, draw for draw: a
 * draw below the conflict, stream or medium cut picks that component for
 * access i, any other the hot one, which takes a second draw for its
 * store flag.  Each component keeps _WorkloadState's cursors.  Addresses
 * are uint64 and wrap as the NumPy synthesis's do; pcs may be NULL.  seed
 * is the initial SplitMix64 state.  Returns 0.
 */
int64_t repro_workload_trace(int64_t n, uint64_t seed, const int64_t *p,
                             uint64_t *addresses, uint8_t *writes,
                             int64_t *pcs)
{
    uint64_t rng = seed, block = (uint64_t)p[W_BLOCK_SIZE];
    uint64_t stream = (uint64_t)p[W_STREAM_BASE];
    int64_t hot = 0, medium = 0, array = 0, element = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t draw = draw_below(&rng, WORKLOAD_PPM), pc;
        uint8_t write = 0;
        if (draw < p[W_CONFLICT_CUT]) {
            addresses[i] = (uint64_t)p[W_CONFLICT_BASE]
                           + (uint64_t)array * (uint64_t)p[W_CONFLICT_SPACING]
                           + (uint64_t)element * 8u;
            if (++array == p[W_CONFLICT_ARRAYS]) {
                array = 0;
                if (++element == p[W_CONFLICT_ELEMENTS])
                    element = 0;
            }
            pc = p[W_CONFLICT_PC] + p[W_CONFLICT_PC_STEP] * array;
        } else if (draw < p[W_STREAM_CUT]) {
            addresses[i] = stream;
            stream += block;
            pc = p[W_STREAM_PC];
        } else if (draw < p[W_MEDIUM_CUT]) {
            addresses[i] = (uint64_t)p[W_MEDIUM_BASE]
                           + (uint64_t)medium * block;
            if (++medium == p[W_MEDIUM_BLOCKS])
                medium = 0;
            pc = p[W_MEDIUM_PC];
        } else {
            addresses[i] = (uint64_t)p[W_HOT_BASE] + (uint64_t)hot * 8u;
            if (++hot == p[W_HOT_SLOTS])
                hot = 0;
            write = draw_below(&rng, WORKLOAD_PPM) < p[W_WRITE_CUT];
            pc = p[W_HOT_PC];
        }
        writes[i] = write;
        if (pcs != NULL)
            pcs[i] = pc;
    }
    return 0;
}

/* An open-addressing table of `size` (a power of two) slots, all -1. */
static int64_t *slots_open(int64_t size)
{
    int64_t *slot = malloc((size_t)size * sizeof *slot);
    if (slot != NULL)
        memset(slot, 0xff, (size_t)size * sizeof *slot);
    return slot;
}

/*
 * The distinct pages of pages[0 .. n) in first-touch order: distinct[j]
 * is the j-th page first touched and ordinals[i] the index j of
 * pages[i].  A page's index is found through an open-addressing table
 * (linear probing, Fibonacci-hashed, doubled whenever it passes half
 * full), so the scratch grows with the distinct pages, not with n.
 * Returns the number of distinct pages, or -1 when scratch memory is
 * unavailable.
 */
int64_t repro_first_touch(int64_t n, const int64_t *pages, int64_t *distinct,
                          int64_t *ordinals)
{
    int64_t size = 64, count = 0;
    int shift = 58; /* 64 - log2(size) */
    int64_t *slot = slots_open(size);
    if (slot == NULL)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t page = pages[i], j;
        if (i > 0 && page == pages[i - 1]) {
            ordinals[i] = ordinals[i - 1];
            continue;
        }
        uint64_t h = ((uint64_t)page * 0x9E3779B97F4A7C15u) >> shift;
        while ((j = slot[h]) >= 0 && distinct[j] != page)
            h = (h + 1) & (uint64_t)(size - 1);
        if (j < 0) {
            j = count++;
            distinct[j] = page;
            slot[h] = j;
            if (2 * count > size) {
                free(slot);
                size *= 2;
                shift--;
                slot = slots_open(size);
                if (slot == NULL)
                    return -1;
                for (int64_t k = 0; k < count; k++) {
                    h = ((uint64_t)distinct[k] * 0x9E3779B97F4A7C15u)
                        >> shift;
                    while (slot[h] >= 0)
                        h = (h + 1) & (uint64_t)(size - 1);
                    slot[h] = k;
                }
            }
        }
        ordinals[i] = j;
    }
    free(slot);
    return count;
}

/*
 * One-set caches (repro_fa_run).  Kept last in the file: code placed
 * before the other kernels moves them, and moving repro_victim_run alone,
 * its instructions unchanged, slowed it by ~10% on x86-64 with GCC 12.
 */

/* The valid ways of a one-set cache from the least to the most recently
 * stamped, ties towards way 0: prev[]/next[] link them, -1 ending the
 * list at head and tail. */
typedef struct {
    int64_t *prev, *next;
    int64_t head, tail;
} way_list_t;

INLINE void way_list_push(way_list_t *l, int64_t w)
{
    l->prev[w] = l->tail;
    l->next[w] = -1;
    if (l->tail >= 0)
        l->next[l->tail] = w;
    else
        l->head = w;
    l->tail = w;
}

INLINE void way_list_unlink(way_list_t *l, int64_t w)
{
    if (l->prev[w] >= 0)
        l->next[l->prev[w]] = l->next[w];
    else
        l->head = l->next[w];
    if (l->next[w] >= 0)
        l->prev[l->next[w]] = l->prev[w];
    else
        l->tail = l->prev[w];
}

typedef struct {
    int64_t stamp, way;
} stamped_way_t;

INLINE int stamped_before(stamped_way_t a, stamped_way_t b)
{
    return a.stamp < b.stamp || (a.stamp == b.stamp && a.way < b.way);
}

/* Heap-sort v[0 .. n) into (stamp, way) order: first build the heap from
 * v[n / 2 - 1] down to v[0], then move its top behind it n - 1 times. */
INLINE void stamped_sort(stamped_way_t *v, int64_t n)
{
    int64_t top = n / 2, end = n;
    while (end > 1) {
        stamped_way_t x;
        int64_t i, c;
        if (top > 0) {
            i = --top;
            x = v[i];
        } else {
            x = v[--end];
            v[end] = v[0];
            i = 0;
        }
        for (; (c = 2 * i + 1) < end; i = c) {
            if (c + 1 < end && stamped_before(v[c], v[c + 1]))
                c++;
            if (!stamped_before(x, v[c]))
                break;
            v[i] = v[c];
        }
        v[i] = x;
    }
}

/*
 * sa_access over a one-set cache, n times, in O(1) per access where the
 * probe and policy_victim scan every way; same hits, same state written.
 * A line_map_t over the tags finds the hit way, indexed so that a block
 * held twice finds its lowest way, as the probe does.  A cursor finds the
 * first invalid way: nothing is invalidated during a call, so it only
 * moves forward.  LRU and FIFO victims are the head of a way_list_t built
 * in (stamp, way) order, each way moving to its tail when stamped; that
 * order holds while every stamp is below the clock, so a cache whose
 * stamps run ahead of it (the kernels never write one) is declined.  PLRU
 * victims come straight from the set's tree, random ones from
 * policy_victim.  Returns 0, or -1 when it declined or scratch memory is
 * unavailable (nothing changed).
 */
static int fa_loop(cache_t *s, int64_t n, const uint64_t *addr,
                   int64_t shift, const uint8_t *writes, uint8_t *hits)
{
    int64_t ways = s->ways, kind = s->p.kind, *tags = s->tags;
    int64_t *stamps = s->p.stamps;
    uint8_t *dirty = s->dirty;
    int listed = kind == POLICY_LRU || kind == POLICY_FIFO;
    int64_t valid = 0, cursor = 0;
    way_list_t l = {NULL, NULL, -1, -1};
    line_map_t m;

    if (listed) {
        /* prev[], next[], then the valid ways to sort */
        stamped_way_t *order;
        l.prev = malloc((size_t)ways * 4 * sizeof *l.prev);
        if (l.prev == NULL)
            return -1;
        l.next = l.prev + ways;
        order = (stamped_way_t *)(l.next + ways);
        for (int64_t w = 0; w < ways; w++) {
            if (tags[w] < 0)
                continue;
            if (stamps[w] > s->clock)
                goto declined;
            order[valid++] = (stamped_way_t){stamps[w], w};
        }
        stamped_sort(order, valid);
        for (int64_t k = 0; k < valid; k++)
            way_list_push(&l, order[k].way);
    }
    if (line_map_alloc(&m, tags, ways) != 0)
        goto declined;
    for (int64_t w = ways - 1; w >= 0; w--) { /* the lowest way first */
        int64_t block = tags[w];
        tags[w] = -1;
        line_map_set(&m, w, block);
    }
    while (cursor < ways && tags[cursor] >= 0)
        cursor++;

    for (int64_t i = 0; i < n; i++) {
        int64_t block = block_of(addr[i], shift);
        int64_t way = line_map_find(&m, block);
        int write = writes[i] != 0;
        s->clock += 1;
        count_access(s->c, write, way >= 0);
        hits[i] = way >= 0;
        if (way >= 0) {
            if (kind == POLICY_LRU && way != l.tail) {
                way_list_unlink(&l, way);
                way_list_push(&l, way);
            }
            policy_touch(&s->p, way, 0, s->clock, 0);
            if (write && s->write_back)
                dirty[way] = 1;
            continue;
        }
        if (write && !s->write_back)
            continue; /* write-through / no-write-allocate */
        if (cursor < ways) {
            way = cursor;
        } else {
            if (listed)
                way_list_unlink(&l, way = l.head);
            else if (kind == POLICY_PLRU)
                way = plru_victim(s->p.bits, ways);
            else
                way = policy_victim(&s->p, s->cand);
            s->c[EVICTIONS]++;
            if (dirty[way])
                s->c[WRITEBACKS]++;
        }
        line_map_set(&m, way, block); /* tags[way] = block */
        while (cursor < ways && tags[cursor] >= 0)
            cursor++;
        dirty[way] = (uint8_t)(write && s->write_back);
        policy_touch(&s->p, way, 0, s->clock, 1);
        if (listed)
            way_list_push(&l, way);
    }
    free(m.head);
    free(m.next);
    free(l.prev);
    return 0;

declined:
    free(l.prev);
    return -1;
}

/*
 * A one-set (fully-associative) cache: repro_sa_run's results and state,
 * through fa_loop, or through repro_sa_run's loop when fa_loop declines.
 * Returns 0, or -1 when scratch memory is unavailable (nothing changed).
 */
int64_t repro_fa_run(int64_t n, const uint64_t *addr, int64_t shift,
                     const uint8_t *writes, const level_t *l, uint8_t *hits)
{
    cache_t s;
    if (cache_open(&s, l) != 0)
        return -1;
    if (fa_loop(&s, n, addr, shift, writes, hits) != 0) {
        for (int64_t i = 0; i < n; i++) {
            int64_t frame;
            hits[i] = (uint8_t)sa_access(&s, block_of(addr[i], shift),
                                         writes[i] != 0, &frame);
        }
    }
    cache_close(&s, l);
    return 0;
}
