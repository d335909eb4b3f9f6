"""Trace-order kernels: skewed caches, narrow conventional caches, victim caches.

:mod:`repro.engine.set_decompose` exploits the independence of the sets of a
*conventional* cache: group accesses per set, simulate each group over dense
local state.  A skewed cache has no such independence to exploit — an access
touches one frame per way, each in a *different* set of its bank, so the
frames reachable from one way-0 group are shared with every other group
through the rehashed ways, and any per-group replay would reorder the
globally-ordered eviction decisions those shared frames carry.  (The victim
cache has the same obstruction one level up: its fully-associative buffer is
one shared side-structure coupling every main-cache set.)  The differential
suite is the enforcer: a grouping that breaks global order diverges from the
scalar models immediately.

These kernels therefore keep global trace order and decompose everything
around the per-access loop:

* **per-way index streams** — each way's rehashed set indices are computed
  array-at-a-time and memoised sweep-wide as arrays *and* as the plain-list
  views the kernels iterate (:func:`repro.engine.memo.cached_set_index_lists`),
  so tasks sharing a trace share the rehash work;
* **policy decisions** — the per-access :class:`~repro.engine.replacement_vec`
  method dispatch of the generic kernel is decomposed into policy-specific
  loops operating directly on checked-out state-table views: LRU and FIFO
  share one stamp kernel (they differ only in whether a hit refreshes the
  stamp), tree-PLRU walks a flat direction-bit view (one flag per set at the
  paper's two ways), and victim selection is an inline stamp comparison;
* **random draws** — the counter-based random policy's victim picks are a
  pure function of the eviction ordinal, so a whole batch's draws are
  precomputed in one vectorized pass
  (:func:`~repro.engine.replacement_vec.splitmix64_array`) and consumed by
  index, never calling into Python's ``splitmix64`` per eviction.

A conventional cache is the case where every way uses the same index
function (Seznec's skewed-associative cache with no skew), so the same
kernels serve it by receiving the way-0 set-index list for every way — the
two-way PLRU kernel's ``sa == sb`` test is exactly the scalar policy's
shared-set check.

The non-LRU kernels share state-table layout with the generic kernels
through :class:`~repro.engine.replacement_vec.VecReplacementState` (stamps,
PLRU bits, draw counters checked out at ``kernel_begin`` and back in at
``kernel_end``), so a cache can hand off mid-stream between these kernels,
the generic kernel and the scalar engine with bit-exact continuity — which
the differential suite asserts state-table-for-state-table.

Two kernel families:

* :func:`run_trace_order` — :class:`~repro.engine.batch_cache.BatchSetAssociativeCache`
  with skewed placement (any policy) or conventional placement of at most
  two ways (non-LRU): tight 2-way specialisations for the paper's geometry
  plus dense generic-ways variants.  LRU stamps live in the cache's own
  ``_way_used`` rows; the 3C classifier (LRU only — classifying non-LRU
  caches run the generic kernel) replays over the hit mask afterwards.
* :func:`run_victim_decomposed` — :class:`~repro.engine.batch_cache.BatchVictimCache`
  with a 1-way (Jouppi's geometry) or 2-way main cache, any policy, skewed
  or conventional main indexing.  The victim buffer is carried as a dense
  side-structure probed with C-level list scans (``in`` / ``index`` over a
  handful of entries), swap-on-victim-hit and displaced-block insertion
  replicated from the generic kernel bit-exactly.  Wider main caches keep
  the generic victim kernel.
"""

from __future__ import annotations

import numpy as np

from ..cache.replacement import plru_touch, plru_victim
from ..cache.set_assoc import WritePolicy
from .memo import cached_set_index_lists
from .replacement_vec import splitmix64_array

__all__ = ["run_trace_order", "run_victim_decomposed"]


# --------------------------------------------------------------------- #
# set-associative caches (skewed, or conventional with <= 2 ways)
# --------------------------------------------------------------------- #

def run_trace_order(cache, blocks: np.ndarray,
                    is_write: np.ndarray) -> np.ndarray:
    """Run one batch through the trace-order kernel for the cache's policy.

    ``cache`` is a :class:`~repro.engine.batch_cache.BatchSetAssociativeCache`
    that is skewed, or conventional with at most two ways and a non-LRU
    policy; only an LRU cache may carry the 3C classifier.  Mutates the
    cache's tag/dirty stores, LRU stamps and policy state tables exactly
    like the generic kernel and returns the per-access hit mask.
    """
    ways = cache._ways
    if cache._skewed:
        way_lists = [cached_set_index_lists(cache._vec_index, blocks, w)
                     for w in range(ways)]
    else:
        way_lists = [cached_set_index_lists(cache._vec_index, blocks, 0)] * ways
    blocks_l = blocks.tolist()
    writes_l = is_write.tolist()
    name = cache._replacement_name
    policy = cache._vec_policy
    two_way = ways == 2
    if policy is not None:
        policy.kernel_begin()
    try:
        if name == "random":
            kernel = _random_2way if two_way else _random_ways
            counts = kernel(cache, blocks_l, way_lists, writes_l)
        elif name == "plru":
            kernel = _plru_2way if two_way else _plru_ways
            counts = kernel(cache, blocks_l, way_lists, writes_l)
        else:
            stamps = cache._way_used if policy is None else policy.stamp_lists
            kernel = _stamp_2way if two_way else _stamp_ways
            counts = kernel(cache, blocks_l, way_lists, writes_l, stamps,
                            name == "lru")
    finally:
        if policy is not None:
            policy.kernel_end()
    hits_l, load_misses, store_misses, evictions, writebacks = counts

    n = blocks.shape[0]
    stores = int(is_write.sum())
    cache._clock += n
    stats = cache.stats
    stats.loads += n - stores
    stats.stores += stores
    stats.load_misses += load_misses
    stats.store_misses += store_misses
    stats.evictions += evictions
    stats.writebacks += writebacks
    classifier = cache._classifier
    if classifier is not None:
        # The shadow cache sees only (block, hit) in trace order, never the
        # real cache's state, so it can replay over the finished hit mask.
        classify = classifier.classify
        kinds = stats.miss_kinds
        for b, hit in zip(blocks_l, hits_l):
            kind = classify(b, hit)
            if kind is not None:
                kinds[kind] += 1
    return np.array(hits_l, dtype=bool)


def _stamp_2way(cache, blocks_l, way_lists, writes_l, stamps,
                refresh_on_hit):
    """LRU (``refresh_on_hit``) or FIFO over per-way stamp rows."""
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    t0, t1 = cache._way_tags
    d0, d1 = cache._way_dirty
    stamp0, stamp1 = stamps
    s0_l, s1_l = way_lists
    clock = cache._clock
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = evictions = writebacks = 0

    for b, sa, sb, w in zip(blocks_l, s0_l, s1_l, writes_l):
        clock += 1
        if t0[sa] == b:
            ha(True)
            if refresh_on_hit:
                stamp0[sa] = clock
            if w and write_back:
                d0[sa] = True
            continue
        if t1[sb] == b:
            ha(True)
            if refresh_on_hit:
                stamp1[sb] = clock
            if w and write_back:
                d1[sb] = True
            continue
        ha(False)
        if w:
            store_misses += 1
            if not write_back:
                continue
        else:
            load_misses += 1
        dirty = w and write_back
        # Invalid frames first (in way order), then the oldest stamp with
        # ties broken towards way 0 — the scalar `_fill` ordering.
        if t0[sa] < 0:
            t0[sa] = b
            d0[sa] = dirty
            stamp0[sa] = clock
        elif t1[sb] < 0:
            t1[sb] = b
            d1[sb] = dirty
            stamp1[sb] = clock
        elif stamp0[sa] <= stamp1[sb]:
            evictions += 1
            if d0[sa]:
                writebacks += 1
            t0[sa] = b
            d0[sa] = dirty
            stamp0[sa] = clock
        else:
            evictions += 1
            if d1[sb]:
                writebacks += 1
            t1[sb] = b
            d1[sb] = dirty
            stamp1[sb] = clock
    return hits_l, load_misses, store_misses, evictions, writebacks


def _random_2way(cache, blocks_l, way_lists, writes_l):
    policy = cache._vec_policy
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    t0, t1 = cache._way_tags
    d0, d1 = cache._way_dirty
    s0_l, s1_l = way_lists
    # One draw per eviction, at most one eviction per access: n picks cover
    # the batch; the counter advances by the draws actually consumed.
    picks_l = (splitmix64_array(policy.seed, policy.counter, len(blocks_l))
               % np.uint64(2)).astype(bool).tolist()
    pe = 0
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = evictions = writebacks = 0

    for b, sa, sb, w in zip(blocks_l, s0_l, s1_l, writes_l):
        # Random hits are transparent (no policy state at all).
        if t0[sa] == b:
            ha(True)
            if w and write_back:
                d0[sa] = True
            continue
        if t1[sb] == b:
            ha(True)
            if w and write_back:
                d1[sb] = True
            continue
        ha(False)
        if w:
            store_misses += 1
            if not write_back:
                continue
        else:
            load_misses += 1
        dirty = w and write_back
        if t0[sa] < 0:
            t0[sa] = b
            d0[sa] = dirty
        elif t1[sb] < 0:
            t1[sb] = b
            d1[sb] = dirty
        elif picks_l[pe]:
            pe += 1
            evictions += 1
            if d1[sb]:
                writebacks += 1
            t1[sb] = b
            d1[sb] = dirty
        else:
            pe += 1
            evictions += 1
            if d0[sa]:
                writebacks += 1
            t0[sa] = b
            d0[sa] = dirty

    policy.counter += pe
    return hits_l, load_misses, store_misses, evictions, writebacks


def _plru_2way(cache, blocks_l, way_lists, writes_l):
    policy = cache._vec_policy
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    t0, t1 = cache._way_tags
    d0, d1 = cache._way_dirty
    s0_l, s1_l = way_lists
    clock = cache._clock
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = evictions = writebacks = 0

    bits_l = policy.bit_lists
    stamp0, stamp1 = policy.stamp_lists
    # One direction bit per set at two ways: True sends the victim walk to
    # way 1.  Checked out flat, written back row-by-row at the end.
    flat = [row[0] for row in bits_l]
    try:
        for b, sa, sb, w in zip(blocks_l, s0_l, s1_l, writes_l):
            clock += 1
            if t0[sa] == b:
                ha(True)
                stamp0[sa] = clock
                flat[sa] = True
                if w and write_back:
                    d0[sa] = True
                continue
            if t1[sb] == b:
                ha(True)
                stamp1[sb] = clock
                flat[sb] = False
                if w and write_back:
                    d1[sb] = True
                continue
            ha(False)
            if w:
                store_misses += 1
                if not write_back:
                    continue
            else:
                load_misses += 1
            dirty = w and write_back
            if t0[sa] < 0:
                target = 0
            elif t1[sb] < 0:
                target = 1
            elif sa == sb:
                # Shared set: the per-set tree decides.
                target = 1 if flat[sa] else 0
                evictions += 1
            else:
                # Skewed candidates: true-LRU fallback over the stamps,
                # ties towards way 0 (the scalar policy's scan order).
                target = 0 if stamp0[sa] <= stamp1[sb] else 1
                evictions += 1
            if target:
                if t1[sb] >= 0 and d1[sb]:
                    writebacks += 1
                t1[sb] = b
                d1[sb] = dirty
                stamp1[sb] = clock
                flat[sb] = False
            else:
                if t0[sa] >= 0 and d0[sa]:
                    writebacks += 1
                t0[sa] = b
                d0[sa] = dirty
                stamp0[sa] = clock
                flat[sa] = True
    finally:
        for s, value in enumerate(flat):
            bits_l[s][0] = value
    return hits_l, load_misses, store_misses, evictions, writebacks


def _stamp_ways(cache, blocks_l, way_lists, writes_l, stamps,
                refresh_on_hit):
    """Any-ways counterpart of :func:`_stamp_2way`."""
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    way_range = range(cache._ways)
    tags = cache._way_tags
    dirty = cache._way_dirty
    clock = cache._clock
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = evictions = writebacks = 0

    for i, b in enumerate(blocks_l):
        clock += 1
        w = writes_l[i]
        hit = False
        for wy in way_range:
            s = way_lists[wy][i]
            if tags[wy][s] == b:
                hit = True
                if refresh_on_hit:
                    stamps[wy][s] = clock
                if w and write_back:
                    dirty[wy][s] = True
                break
        if hit:
            ha(True)
            continue
        ha(False)
        if w:
            store_misses += 1
            if not write_back:
                continue
        else:
            load_misses += 1
        target = -1
        for wy in way_range:
            if tags[wy][way_lists[wy][i]] < 0:
                target = wy
                break
        if target < 0:
            best = None
            for wy in way_range:
                value = stamps[wy][way_lists[wy][i]]
                if best is None or value < best:
                    best = value
                    target = wy
            s = way_lists[target][i]
            evictions += 1
            if dirty[target][s]:
                writebacks += 1
        s = way_lists[target][i]
        tags[target][s] = b
        dirty[target][s] = w and write_back
        stamps[target][s] = clock
    return hits_l, load_misses, store_misses, evictions, writebacks


def _random_ways(cache, blocks_l, way_lists, writes_l):
    policy = cache._vec_policy
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    ways = cache._ways
    way_range = range(ways)
    tags = cache._way_tags
    dirty = cache._way_dirty
    picks_l = (splitmix64_array(policy.seed, policy.counter, len(blocks_l))
               % np.uint64(ways)).tolist()
    pe = 0
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = evictions = writebacks = 0

    for i, b in enumerate(blocks_l):
        w = writes_l[i]
        hit = False
        for wy in way_range:
            s = way_lists[wy][i]
            if tags[wy][s] == b:
                hit = True
                if w and write_back:
                    dirty[wy][s] = True
                break
        if hit:
            ha(True)
            continue
        ha(False)
        if w:
            store_misses += 1
            if not write_back:
                continue
        else:
            load_misses += 1
        target = -1
        for wy in way_range:
            if tags[wy][way_lists[wy][i]] < 0:
                target = wy
                break
        if target < 0:
            target = picks_l[pe]
            pe += 1
            s = way_lists[target][i]
            evictions += 1
            if dirty[target][s]:
                writebacks += 1
        s = way_lists[target][i]
        tags[target][s] = b
        dirty[target][s] = w and write_back

    policy.counter += pe
    return hits_l, load_misses, store_misses, evictions, writebacks


def _plru_ways(cache, blocks_l, way_lists, writes_l):
    policy = cache._vec_policy
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    ways = cache._ways
    way_range = range(ways)
    tags = cache._way_tags
    dirty = cache._way_dirty
    clock = cache._clock
    touch = plru_touch
    pick = plru_victim
    tree = ways >= 2
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = evictions = writebacks = 0

    bits_l = policy.bit_lists
    stamp = policy.stamp_lists
    for i, b in enumerate(blocks_l):
        clock += 1
        w = writes_l[i]
        hit_way = -1
        for wy in way_range:
            s = way_lists[wy][i]
            if tags[wy][s] == b:
                hit_way = wy
                break
        if hit_way >= 0:
            ha(True)
            stamp[hit_way][s] = clock
            if tree:
                touch(bits_l[s], hit_way, ways)
            if w and write_back:
                dirty[hit_way][s] = True
            continue
        ha(False)
        if w:
            store_misses += 1
            if not write_back:
                continue
        else:
            load_misses += 1
        target = -1
        for wy in way_range:
            if tags[wy][way_lists[wy][i]] < 0:
                target = wy
                break
        if target < 0:
            first = way_lists[0][i]
            shared = True
            for wy in way_range:
                if way_lists[wy][i] != first:
                    shared = False
                    break
            if shared:
                target = pick(bits_l[first], ways)
            else:
                best = None
                for wy in way_range:
                    value = stamp[wy][way_lists[wy][i]]
                    if best is None or value < best:
                        best = value
                        target = wy
            s = way_lists[target][i]
            evictions += 1
            if dirty[target][s]:
                writebacks += 1
        s = way_lists[target][i]
        tags[target][s] = b
        dirty[target][s] = w and write_back
        stamp[target][s] = clock
        if tree:
            touch(bits_l[s], target, ways)
    return hits_l, load_misses, store_misses, evictions, writebacks


# --------------------------------------------------------------------- #
# victim caches (main array + fully-associative buffer side-structure)
# --------------------------------------------------------------------- #

def run_victim_decomposed(cache, blocks: np.ndarray,
                          is_write: np.ndarray) -> np.ndarray:
    """Run one batch through the decomposed victim kernel for the cache's policy.

    ``cache`` is a :class:`~repro.engine.batch_cache.BatchVictimCache` with a
    1- or 2-way main cache (skewed or conventional).  Mutates main/buffer
    tag stores, both policies' state tables and both clocks exactly like the
    generic victim kernel and returns the per-access overall hit mask.
    """
    name = cache._replacement_name
    way_lists = [cached_set_index_lists(cache._vec_index, blocks, w)
                 for w in range(cache._ways if cache._skewed else 1)]
    blocks_l = blocks.tolist()
    writes_l = is_write.tolist()
    if cache._ways == 1:
        if name in ("lru", "fifo"):
            hits_l = _victim_stamp_1way(cache, blocks_l, way_lists[0],
                                        writes_l, name == "lru")
        elif name == "random":
            hits_l = _victim_random_1way(cache, blocks_l, way_lists[0],
                                         writes_l)
        else:
            hits_l = _victim_plru_1way(cache, blocks_l, way_lists[0],
                                       writes_l)
    else:
        s0_l = way_lists[0]
        s1_l = way_lists[-1] if cache._skewed else way_lists[0]
        if name in ("lru", "fifo"):
            hits_l = _victim_stamp_2way(cache, blocks_l, s0_l, s1_l,
                                        writes_l, name == "lru")
        elif name == "random":
            hits_l = _victim_random_2way(cache, blocks_l, s0_l, s1_l,
                                         writes_l)
        else:
            hits_l = _victim_plru_2way(cache, blocks_l, s0_l, s1_l, writes_l)
    n = blocks.shape[0]
    stores = int(is_write.sum())
    stats = cache.stats
    stats.loads += n - stores
    stats.stores += stores
    return np.array(hits_l, dtype=bool)


class _VictimBuffer:
    """Checked-out dense view of the victim buffer and its policy state.

    One instance brackets one kernel run: :meth:`__init__` checks the
    buffer policy's tables out as flat lists, the kernel calls
    :meth:`stash` per displaced line, and :meth:`close` writes the stamp
    view back before ``kernel_end``.  Probing stays in the caller (C-level
    ``in`` / ``index`` over the tag list is the hot path).
    """

    __slots__ = ("tags", "dirty", "entries", "policy", "name", "stamps",
                 "bits", "picks", "pe", "clock", "writebacks")

    def __init__(self, cache, name, draws):
        self.tags = cache._victim_tags
        self.dirty = cache._victim_dirty
        self.entries = cache._entries
        self.policy = cache._victim_policy
        self.name = name
        self.clock = cache._victim_clock
        self.writebacks = 0
        self.pe = 0
        self.policy.kernel_begin()
        if name in ("lru", "fifo"):
            self.stamps = [row[0] for row in self.policy.stamp_lists]
            self.bits = None
            self.picks = None
        elif name == "plru":
            self.stamps = [row[0] for row in self.policy.stamp_lists]
            self.bits = self.policy.bit_lists[0]
            self.picks = None
        else:
            self.stamps = None
            self.bits = None
            self.picks = (splitmix64_array(self.policy.seed,
                                           self.policy.counter, draws)
                          % np.uint64(self.entries)).tolist()

    def stash(self, block, dirty):
        """Insert a displaced main-cache line, spilling the policy victim."""
        self.clock += 1
        tags = self.tags
        if -1 in tags:
            slot = tags.index(-1)
        else:
            name = self.name
            if name == "random":
                slot = self.picks[self.pe]
                self.pe += 1
            elif name == "plru":
                slot = plru_victim(self.bits, self.entries)
            else:
                stamps = self.stamps
                slot = stamps.index(min(stamps))
            if self.dirty[slot]:
                # A dirty line falling out of the buffer would be written
                # back to the next level.
                self.writebacks += 1
        tags[slot] = block
        self.dirty[slot] = dirty
        if self.stamps is not None:
            self.stamps[slot] = self.clock
        if self.bits is not None:
            plru_touch(self.bits, slot, self.entries)

    def close(self, cache):
        """Write flat views back and check the policy tables in."""
        try:
            if self.stamps is not None:
                for slot, row in enumerate(self.policy.stamp_lists):
                    row[0] = self.stamps[slot]
            if self.picks is not None:
                self.policy.counter += self.pe
        finally:
            self.policy.kernel_end()
        cache._victim_clock = self.clock
        cache.stats.writebacks += self.writebacks


def _victim_stamp_1way(cache, blocks_l, sets_l, writes_l, refresh_on_hit):
    t0 = cache._way_tags[0]
    d0 = cache._way_dirty[0]
    vtags = cache._victim_tags
    main_policy = cache._main_policy
    main_clock = cache._main_clock
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = main_hits = victim_hits = 0

    main_policy.kernel_begin()
    try:
        buffer = _VictimBuffer(cache, cache._replacement_name, len(blocks_l))
        try:
            mstamp = main_policy.stamp_lists[0]
            for b, s, w in zip(blocks_l, sets_l, writes_l):
                main_clock += 1
                if t0[s] == b:
                    if refresh_on_hit:
                        mstamp[s] = main_clock
                    if w:
                        d0[s] = True  # main cache is write-back
                    main_hits += 1
                    ha(True)
                    continue
                # Main miss: probe the victim buffer (C-level list scan).
                victim_hit = b in vtags
                ha(victim_hit)
                if victim_hit:
                    victim_hits += 1
                    slot = vtags.index(b)
                    vtags[slot] = -1
                    cache._victim_dirty[slot] = False
                elif w:
                    store_misses += 1
                else:
                    load_misses += 1
                # Refill the main cache (write-back / write-allocate).
                evicted = t0[s]
                t0[s] = b
                mstamp[s] = main_clock
                if evicted < 0:
                    d0[s] = bool(w)
                    continue
                evicted_dirty = d0[s]
                d0[s] = bool(w)
                buffer.stash(evicted, evicted_dirty)
        finally:
            buffer.close(cache)
    finally:
        main_policy.kernel_end()

    _finish_victim(cache, main_clock, main_hits, victim_hits,
                   load_misses, store_misses)
    return hits_l


def _victim_random_1way(cache, blocks_l, sets_l, writes_l):
    t0 = cache._way_tags[0]
    d0 = cache._way_dirty[0]
    vtags = cache._victim_tags
    main_policy = cache._main_policy
    main_clock = cache._main_clock
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = main_hits = victim_hits = 0
    main_evictions = 0

    buffer = _VictimBuffer(cache, "random", len(blocks_l))
    try:
        for b, s, w in zip(blocks_l, sets_l, writes_l):
            if t0[s] == b:
                if w:
                    d0[s] = True
                main_hits += 1
                ha(True)
                continue
            victim_hit = b in vtags
            ha(victim_hit)
            if victim_hit:
                victim_hits += 1
                slot = vtags.index(b)
                vtags[slot] = -1
                cache._victim_dirty[slot] = False
            elif w:
                store_misses += 1
            else:
                load_misses += 1
            evicted = t0[s]
            t0[s] = b
            if evicted < 0:
                d0[s] = bool(w)
                continue
            # A single way means the pick is forced, but the generic kernel
            # (and the scalar policy) still consume one draw per eviction —
            # advance the counter identically.
            main_evictions += 1
            evicted_dirty = d0[s]
            d0[s] = bool(w)
            buffer.stash(evicted, evicted_dirty)
    finally:
        buffer.close(cache)
        main_policy.counter += main_evictions

    _finish_victim(cache, main_clock + len(blocks_l), main_hits, victim_hits,
                   load_misses, store_misses)
    return hits_l


def _victim_plru_1way(cache, blocks_l, sets_l, writes_l):
    # A 1-way tree has no direction bits (plru_touch is a no-op below two
    # ways); only the LRU-fallback stamps are maintained.
    return _victim_stamp_1way(cache, blocks_l, sets_l, writes_l, True)


def _victim_stamp_2way(cache, blocks_l, s0_l, s1_l, writes_l,
                       refresh_on_hit):
    t0, t1 = cache._way_tags
    d0, d1 = cache._way_dirty
    vtags = cache._victim_tags
    main_policy = cache._main_policy
    main_clock = cache._main_clock
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = main_hits = victim_hits = 0

    main_policy.kernel_begin()
    buffer = None
    try:
        buffer = _VictimBuffer(cache, cache._replacement_name, len(blocks_l))
        stamp0, stamp1 = main_policy.stamp_lists
        for b, sa, sb, w in zip(blocks_l, s0_l, s1_l, writes_l):
            main_clock += 1
            if t0[sa] == b:
                if refresh_on_hit:
                    stamp0[sa] = main_clock
                if w:
                    d0[sa] = True
                main_hits += 1
                ha(True)
                continue
            if t1[sb] == b:
                if refresh_on_hit:
                    stamp1[sb] = main_clock
                if w:
                    d1[sb] = True
                main_hits += 1
                ha(True)
                continue
            victim_hit = b in vtags
            ha(victim_hit)
            if victim_hit:
                victim_hits += 1
                slot = vtags.index(b)
                vtags[slot] = -1
                cache._victim_dirty[slot] = False
            elif w:
                store_misses += 1
            else:
                load_misses += 1
            fill_dirty = bool(w)
            if t0[sa] < 0:
                t0[sa] = b
                d0[sa] = fill_dirty
                stamp0[sa] = main_clock
                continue
            if t1[sb] < 0:
                t1[sb] = b
                d1[sb] = fill_dirty
                stamp1[sb] = main_clock
                continue
            if stamp0[sa] <= stamp1[sb]:
                evicted = t0[sa]
                evicted_dirty = d0[sa]
                t0[sa] = b
                d0[sa] = fill_dirty
                stamp0[sa] = main_clock
            else:
                evicted = t1[sb]
                evicted_dirty = d1[sb]
                t1[sb] = b
                d1[sb] = fill_dirty
                stamp1[sb] = main_clock
            buffer.stash(evicted, evicted_dirty)
    finally:
        if buffer is not None:
            buffer.close(cache)
        main_policy.kernel_end()

    _finish_victim(cache, main_clock, main_hits, victim_hits,
                   load_misses, store_misses)
    return hits_l


def _victim_random_2way(cache, blocks_l, s0_l, s1_l, writes_l):
    t0, t1 = cache._way_tags
    d0, d1 = cache._way_dirty
    vtags = cache._victim_tags
    main_policy = cache._main_policy
    picks_l = (splitmix64_array(main_policy.seed, main_policy.counter,
                                len(blocks_l)) % np.uint64(2)).astype(
                                    bool).tolist()
    pe = 0
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = main_hits = victim_hits = 0

    buffer = _VictimBuffer(cache, "random", len(blocks_l))
    try:
        for b, sa, sb, w in zip(blocks_l, s0_l, s1_l, writes_l):
            if t0[sa] == b:
                if w:
                    d0[sa] = True
                main_hits += 1
                ha(True)
                continue
            if t1[sb] == b:
                if w:
                    d1[sb] = True
                main_hits += 1
                ha(True)
                continue
            victim_hit = b in vtags
            ha(victim_hit)
            if victim_hit:
                victim_hits += 1
                slot = vtags.index(b)
                vtags[slot] = -1
                cache._victim_dirty[slot] = False
            elif w:
                store_misses += 1
            else:
                load_misses += 1
            fill_dirty = bool(w)
            if t0[sa] < 0:
                t0[sa] = b
                d0[sa] = fill_dirty
                continue
            if t1[sb] < 0:
                t1[sb] = b
                d1[sb] = fill_dirty
                continue
            if picks_l[pe]:
                pe += 1
                evicted = t1[sb]
                evicted_dirty = d1[sb]
                t1[sb] = b
                d1[sb] = fill_dirty
            else:
                pe += 1
                evicted = t0[sa]
                evicted_dirty = d0[sa]
                t0[sa] = b
                d0[sa] = fill_dirty
            buffer.stash(evicted, evicted_dirty)
    finally:
        buffer.close(cache)
        main_policy.counter += pe

    _finish_victim(cache, cache._main_clock + len(blocks_l), main_hits,
                   victim_hits, load_misses, store_misses)
    return hits_l


def _victim_plru_2way(cache, blocks_l, s0_l, s1_l, writes_l):
    t0, t1 = cache._way_tags
    d0, d1 = cache._way_dirty
    vtags = cache._victim_tags
    main_policy = cache._main_policy
    main_clock = cache._main_clock
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = main_hits = victim_hits = 0

    main_policy.kernel_begin()
    buffer = None
    flat = None
    try:
        buffer = _VictimBuffer(cache, "plru", len(blocks_l))
        bits_l = main_policy.bit_lists
        stamp0, stamp1 = main_policy.stamp_lists
        flat = [row[0] for row in bits_l]
        for b, sa, sb, w in zip(blocks_l, s0_l, s1_l, writes_l):
            main_clock += 1
            if t0[sa] == b:
                stamp0[sa] = main_clock
                flat[sa] = True
                if w:
                    d0[sa] = True
                main_hits += 1
                ha(True)
                continue
            if t1[sb] == b:
                stamp1[sb] = main_clock
                flat[sb] = False
                if w:
                    d1[sb] = True
                main_hits += 1
                ha(True)
                continue
            victim_hit = b in vtags
            ha(victim_hit)
            if victim_hit:
                victim_hits += 1
                slot = vtags.index(b)
                vtags[slot] = -1
                cache._victim_dirty[slot] = False
            elif w:
                store_misses += 1
            else:
                load_misses += 1
            fill_dirty = bool(w)
            if t0[sa] < 0:
                target = 0
            elif t1[sb] < 0:
                target = 1
            elif sa == sb:
                target = 1 if flat[sa] else 0
            else:
                target = 0 if stamp0[sa] <= stamp1[sb] else 1
            if target:
                evicted = t1[sb]
                evicted_dirty = d1[sb]
                t1[sb] = b
                d1[sb] = fill_dirty
                stamp1[sb] = main_clock
                flat[sb] = False
            else:
                evicted = t0[sa]
                evicted_dirty = d0[sa]
                t0[sa] = b
                d0[sa] = fill_dirty
                stamp0[sa] = main_clock
                flat[sa] = True
            if evicted >= 0:
                buffer.stash(evicted, evicted_dirty)
    finally:
        if flat is not None:
            for s, value in enumerate(flat):
                bits_l[s][0] = value
        if buffer is not None:
            buffer.close(cache)
        main_policy.kernel_end()

    _finish_victim(cache, main_clock, main_hits, victim_hits,
                   load_misses, store_misses)
    return hits_l


def _finish_victim(cache, main_clock, main_hits, victim_hits,
                   load_misses, store_misses):
    cache._main_clock = main_clock
    stats = cache.stats
    stats.load_misses += load_misses
    stats.store_misses += store_misses
    cache.main_hits += main_hits
    cache.victim_hits += victim_hits
