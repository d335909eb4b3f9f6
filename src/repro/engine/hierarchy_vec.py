"""Batch multi-level engine: two-level and virtual-real hierarchies.

The scalar multi-level models (:class:`~repro.cache.hierarchy.TwoLevelHierarchy`
and :class:`~repro.cache.virtual_real.VirtualRealHierarchy`) interleave the two
cache levels access by access, which makes them the slowest path in the repo:
none of the single-level batch kernels can serve them directly because L2
evictions feed *back* into L1 as back-invalidations (the "holes" of Sections
3.2/3.3 of the paper).

This module composes per-level batch caches by exchanging **miss streams**:

1. an optimistic L1 pass over an *epoch* of the trace runs a single-level
   collect kernel and emits the L2-bound stream — every L1 miss (including
   write-through/no-allocate store misses) plus every L1 store hit
   (write-through propagation), each tagged with its trace position and the
   dirty write-back victim it displaced;
2. the L2 consume kernel replays that stream in trace order.  Whenever an L2
   miss evicts a line, a residency oracle (per-epoch fill/evict event lists
   plus the epoch-start snapshot) answers "did L1 hold a copy of that line at
   this trace position?" — exactly the question the scalar model answers with
   ``l1.invalidate_block``;
3. if the answer is ever *yes*, the optimistic L1 pass is invalid beyond that
   position: the epoch **stops**, L1 is rewound to its epoch-start snapshot,
   the committed prefix is replayed scalar-exactly, the back-invalidation is
   applied with the scalar model's own hole accounting, and simulation resumes
   just after the stop with a smaller epoch (sizes adapt between
   ``_EPOCH_MIN`` and ``_EPOCH_MAX``).

Because back-invalidations are rare by construction (the paper measures well
under 1% of L2 misses creating holes), almost every epoch commits cleanly and
the engine runs at single-level kernel speed; the stop/rewind path is the
scalar semantics itself, so the composition is bit-exact — per-level
:class:`~repro.cache.stats.CacheStats`, hole counters, resident blocks and
per-access hit/miss outcomes all match the scalar models (asserted by the
differential suite in ``tests/test_hierarchy_vec.py``).

The virtual-real twin adds the translation front-end of
:mod:`repro.engine.translate_vec` (batch page-table walks in first-touch fault
order, TLB run collapsing) and dispatches on the page mapping: with an
injective virtual->physical frame mapping the scalar alias-invalidation path
is provably dead and the virtual/physical line correspondence is a bijection,
so the same epoch/miss-stream machinery applies with the inverse frame map as
the back-invalidation oracle; a hand-doctored aliasing mapping (or a
sequential allocator that could collide with pre-seeded frames) falls back to
a fused per-access transliteration of the scalar protocol.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..cache.set_assoc import WritePolicy
from ..memory.paging import TLB, PageTable
from .batch import AddressBatch
from .batch_cache import BatchSetAssociativeCache
from .memo import cached_block_numbers, cached_set_index_lists
from .translate_vec import batch_page_frames, run_tlb_kernel

__all__ = [
    "MissStream",
    "HierarchyBatchResult",
    "BatchTwoLevelHierarchy",
    "BatchVirtualRealHierarchy",
    "batch_hierarchy_like",
    "batch_virtual_real_like",
]

# Epoch sizing: start mid-range, halve on every stop (cross-level feedback
# detected), double on every clean commit.  Stops are rare in realistic
# configurations, so epochs quickly grow to _EPOCH_MAX and the engine spends
# its time in the single-level kernels.
_EPOCH_START = 1024
_EPOCH_MIN = 64
_EPOCH_MAX = 32768


@dataclass
class MissStream:
    """The L2-bound access stream one L1 collect pass emits for an epoch.

    One ``(position, l2_block, is_write, is_l1_miss, victim_block,
    victim_dirty)`` tuple per entry, in trace order.  A single tuple append
    per entry is what keeps high-miss-ratio traces fast — the collect loop
    emits an entry for ~90% of accesses on a conflict-heavy trace, so entry
    construction is part of the hot path, not bookkeeping.

    ``is_l1_miss`` distinguishes genuine L1 misses from write-through
    store-hit propagation (whose L2 evictions the scalar models ignore);
    ``victim_block``/``victim_dirty`` record the L1 line each miss displaced
    (``-1``/False when the fill used an invalid frame or the miss did not
    allocate) — the scalar hierarchy absorbs L1 write-backs without an L2
    access, so these fields are observability plus the residency oracle's
    raw material, not extra L2 traffic.
    """

    entries: List[Tuple[int, int, bool, bool, int, bool]]

    def __len__(self) -> int:
        return len(self.entries)

    # Column views (for tests and introspection; the kernels iterate the
    # tuples directly).
    @property
    def positions(self) -> List[int]:
        return [e[0] for e in self.entries]

    @property
    def l2_blocks(self) -> List[int]:
        return [e[1] for e in self.entries]

    @property
    def is_write(self) -> List[bool]:
        return [e[2] for e in self.entries]

    @property
    def is_l1_miss(self) -> List[bool]:
        return [e[3] for e in self.entries]

    @property
    def victim_blocks(self) -> List[int]:
        return [e[4] for e in self.entries]

    @property
    def victim_dirty(self) -> List[bool]:
        return [e[5] for e in self.entries]


@dataclass
class HierarchyBatchResult:
    """Per-access outcome arrays of one batch through a two-level engine.

    ``l2_hits`` follows the scalar access results: it is True wherever L1 hit
    (the request never probed L2, or only as write-through propagation) and
    carries the real L2 outcome on L1 misses.
    """

    l1_hits: np.ndarray
    l2_hits: np.ndarray

    def __len__(self) -> int:
        return len(self.l1_hits)

    @property
    def memory_accesses(self) -> int:
        """Number of accesses that missed both levels."""
        return int(np.count_nonzero(~self.l1_hits & ~self.l2_hits))


# --------------------------------------------------------------------------- #
# scalar-exact single access on batch-cache state (all three layouts)
# --------------------------------------------------------------------------- #


class _policy_checkout:
    """Context manager holding a cache's replacement-policy kernel checkout."""

    def __init__(self, cache: BatchSetAssociativeCache) -> None:
        self._policy = cache._vec_policy

    def __enter__(self) -> "_policy_checkout":
        if self._policy is not None:
            self._policy.kernel_begin()
        return self

    def __exit__(self, *exc) -> None:
        if self._policy is not None:
            self._policy.kernel_end()


def _cache_access_one(cache: BatchSetAssociativeCache, block: int,
                      is_write: bool) -> Tuple[bool, bool, Optional[int], bool]:
    """One scalar-exact access against batch-cache state.

    Returns ``(hit, allocated, evicted_block, evicted_dirty)`` — the fields
    of the scalar :class:`~repro.cache.set_assoc.AccessResult` the multi-level
    protocols consume.  Statistics and the access clock update exactly like
    :meth:`SetAssociativeCache.access_block`.  For policy-backed caches the
    caller must hold the kernel checkout (see :class:`_policy_checkout`).
    """
    cache._clock += 1
    clock = cache._clock
    stats = cache.stats
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE

    if not cache._use_flat:
        d = cache._sets[cache._index_fn.index(block, 0)]
        if block in d:
            dirty = d.pop(block)
            d[block] = dirty or (is_write and write_back)
            stats.record_access(is_write, True)
            return True, False, None, False
        stats.record_access(is_write, False)
        if is_write and not write_back:
            return False, False, None, False
        evicted: Optional[int] = None
        evicted_dirty = False
        if len(d) >= cache._ways:
            evicted = next(iter(d))
            evicted_dirty = d.pop(evicted)
            if evicted_dirty:
                stats.writebacks += 1
            stats.evictions += 1
        d[block] = is_write and write_back
        return False, True, evicted, evicted_dirty

    tags = cache._way_tags
    used = cache._way_used
    dirty = cache._way_dirty
    policy = cache._vec_policy
    cand = cache._candidate_sets(block)
    for wy, s in enumerate(cand):
        if tags[wy][s] == block:
            if policy is None:
                used[wy][s] = clock
            else:
                policy.on_hit(wy, s, clock)
            if is_write and write_back:
                dirty[wy][s] = True
            stats.record_access(is_write, True)
            return True, False, None, False
    stats.record_access(is_write, False)
    if is_write and not write_back:
        return False, False, None, False
    fill_dirty = is_write and write_back
    target = -1
    for wy, s in enumerate(cand):
        if tags[wy][s] < 0:
            target = wy
            break
    evicted = None
    evicted_dirty = False
    if target < 0:
        if policy is None:
            # LRU: smallest stamp wins, first way on ties (scalar ordering).
            best = None
            for wy, s in enumerate(cand):
                stamp = used[wy][s]
                if best is None or stamp < best:
                    best = stamp
                    target = wy
        else:
            target = policy.victim(cand)
        s = cand[target]
        evicted = tags[target][s]
        evicted_dirty = dirty[target][s]
        if evicted_dirty:
            stats.writebacks += 1
        stats.evictions += 1
    s = cand[target]
    tags[target][s] = block
    if policy is None:
        used[target][s] = clock
    else:
        policy.on_fill(target, s, clock)
    dirty[target][s] = fill_dirty
    return False, True, evicted, evicted_dirty


def _replay_l1(collect, l1: BatchSetAssociativeCache, ctx,
               blocks_l: List[int], l2blocks_l: List[int],
               writes_l: List[bool], start: int, stop: int) -> None:
    """Re-apply accesses ``[start, stop)`` after an epoch rewind.

    A replayed prefix is just a sequence of L1 accesses, so the epoch's own
    collect kernel re-runs it at full speed; the re-emitted miss stream is
    discarded (the L2 side already consumed the real one) and the hit
    outcomes are the ones the first pass recorded.
    """
    collect(l1, ctx, blocks_l, l2blocks_l, writes_l, start, stop)


# --------------------------------------------------------------------------- #
# residency oracle
# --------------------------------------------------------------------------- #


def _resident_block_set(cache: BatchSetAssociativeCache) -> set:
    """The set of blocks resident in ``cache`` right now.

    Built once per epoch so the residency oracle never has to recompute
    placement indices (the scalar GF(2) index of a skewed L1 costs more
    than the whole lookup it would serve).
    """
    resident: set = set()
    if not cache._use_flat:
        for d in cache._sets:
            resident.update(d)
        return resident
    for tags in cache._way_tags:
        for tag in tags:
            if tag >= 0:
                resident.add(tag)
    return resident


def _build_events(entries, blocks_l: List[int], alloc_on_store: bool,
                  ) -> Dict[int, List[Tuple[int, bool]]]:
    """Per-block fill (True) / evict (False) event lists of one epoch.

    Reconstructed from the miss stream itself — every fill is a miss entry
    that allocated (all of them except store misses under
    write-through/no-allocate) and every eviction is a recorded victim —
    so the collect hot loop never maintains event bookkeeping; only epochs
    whose consume pass actually sees an L2 eviction pay for this pass over
    the (much shorter) stream.
    """
    events: Dict[int, List[Tuple[int, bool]]] = {}
    for p, _lb, w, miss_entry, vb, _vd in entries:
        if not miss_entry:
            continue
        if vb >= 0:
            events.setdefault(vb, []).append((p, False))
        if not w or alloc_on_store:
            events.setdefault(blocks_l[p], []).append((p, True))
    return events


def _make_oracle(l1: BatchSetAssociativeCache, stream: "MissStream",
                 blocks_l: List[int], start_set: set) -> Callable[[int, int], bool]:
    """Lazy residency oracle: was ``block`` in L1 right after position ``pos``?

    Blocks with a fill/evict event before ``pos`` answer from the event
    lists; everything else falls back to the epoch-start resident set.
    Exact for every position up to the first back-invalidation — which is
    precisely where the consume pass stops.  The event index is built on
    first use, so epochs whose L2 never evicts (the common case while L2
    is filling) skip it entirely.
    """
    alloc_on_store = l1._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    state = {"events": None}

    def resident(block: int, pos: int) -> bool:
        events = state["events"]
        if events is None:
            events = state["events"] = _build_events(
                stream.entries, blocks_l, alloc_on_store)
        evs = events.get(block)
        if evs:
            i = bisect_right(evs, (pos, True))
            if i:
                return evs[i - 1][1]
        return block in start_set

    return resident


# --------------------------------------------------------------------------- #
# L1 collect kernels — run one epoch, emit the miss stream
# --------------------------------------------------------------------------- #


def _collect_kernel_name(l1: BatchSetAssociativeCache) -> str:
    if not l1._use_flat:
        return "collect-dict-lru"
    if l1._vec_policy is None and l1._ways == 2:
        return "collect-flat-lru-2way"
    return "collect-generic"


def _consume_kernel_name(l2: BatchSetAssociativeCache) -> str:
    return "consume-dict-lru" if not l2._use_flat else "consume-generic"


def _collect_dict_lru(l1, ctx, blocks_l, l2blocks_l, writes_l, start, end):
    sets_l = ctx
    sets_state = l1._sets
    ways = l1._ways
    write_back = l1._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    stats = l1.stats

    entries: List[Tuple[int, int, bool, bool, int, bool]] = []
    emit = entries.append
    loads = stores = load_misses = store_misses = evictions = writebacks = 0

    # zip over epoch slices — markedly faster in CPython than indexing four
    # lists per iteration, and the slices are one-off pointer copies.
    for p, b, w, s in zip(range(start, end), blocks_l[start:end],
                          writes_l[start:end], sets_l[start:end]):
        d = sets_state[s]
        if b in d:
            dirty = d.pop(b)
            d[b] = dirty or (w and write_back)
            if w:
                stores += 1
                emit((p, l2blocks_l[p], True, False, -1, False))
            else:
                loads += 1
            continue
        victim = -1
        vdirty = False
        if w:
            stores += 1
            store_misses += 1
        else:
            loads += 1
            load_misses += 1
        if not (w and not write_back):
            if len(d) >= ways:
                victim = next(iter(d))
                vdirty = d.pop(victim)
                if vdirty:
                    writebacks += 1
                evictions += 1
            d[b] = w and write_back
        emit((p, l2blocks_l[p], w, True, victim, vdirty))

    l1._clock += end - start
    stats.loads += loads
    stats.stores += stores
    stats.load_misses += load_misses
    stats.store_misses += store_misses
    stats.evictions += evictions
    stats.writebacks += writebacks
    return MissStream(entries)


def _collect_flat_lru_2way(l1, ctx, blocks_l, l2blocks_l, writes_l, start,
                           end):
    s0_l, s1_l = ctx
    t0, t1 = l1._way_tags
    u0, u1 = l1._way_used
    d0, d1 = l1._way_dirty
    write_back = l1._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    stats = l1.stats
    clock = l1._clock

    entries: List[Tuple[int, int, bool, bool, int, bool]] = []
    emit = entries.append
    loads = stores = load_misses = store_misses = evictions = writebacks = 0

    # zip over epoch slices — markedly faster in CPython than indexing four
    # lists per iteration, and the slices are one-off pointer copies.
    for p, b, w, sa, sb in zip(range(start, end), blocks_l[start:end],
                               writes_l[start:end], s0_l[start:end],
                               s1_l[start:end]):
        clock += 1
        if t0[sa] == b:
            u0[sa] = clock
            if w:
                stores += 1
                if write_back:
                    d0[sa] = True
                emit((p, l2blocks_l[p], True, False, -1, False))
            else:
                loads += 1
            continue
        if t1[sb] == b:
            u1[sb] = clock
            if w:
                stores += 1
                if write_back:
                    d1[sb] = True
                emit((p, l2blocks_l[p], True, False, -1, False))
            else:
                loads += 1
            continue
        # Miss.
        victim = -1
        vdirty = False
        if w:
            stores += 1
            store_misses += 1
        else:
            loads += 1
            load_misses += 1
        if not (w and not write_back):
            fill_dirty = w and write_back
            # Invalid frames first (in way order), then the LRU victim with
            # ties broken towards way 0 — the scalar `_fill` ordering.
            if t0[sa] < 0:
                t0[sa] = b
                u0[sa] = clock
                d0[sa] = fill_dirty
            elif t1[sb] < 0:
                t1[sb] = b
                u1[sb] = clock
                d1[sb] = fill_dirty
            elif u0[sa] <= u1[sb]:
                victim = t0[sa]
                vdirty = d0[sa]
                evictions += 1
                if vdirty:
                    writebacks += 1
                t0[sa] = b
                u0[sa] = clock
                d0[sa] = fill_dirty
            else:
                victim = t1[sb]
                vdirty = d1[sb]
                evictions += 1
                if vdirty:
                    writebacks += 1
                t1[sb] = b
                u1[sb] = clock
                d1[sb] = fill_dirty
        emit((p, l2blocks_l[p], w, True, victim, vdirty))

    l1._clock = clock
    stats.loads += loads
    stats.stores += stores
    stats.load_misses += load_misses
    stats.store_misses += store_misses
    stats.evictions += evictions
    stats.writebacks += writebacks
    return MissStream(entries)


def _collect_generic(l1, ctx, blocks_l, l2blocks_l, writes_l, start, end):
    entries: List[Tuple[int, int, bool, bool, int, bool]] = []
    with _policy_checkout(l1):
        for p in range(start, end):
            b = blocks_l[p]
            w = writes_l[p]
            hit, allocated, evicted, evicted_dirty = _cache_access_one(
                l1, b, w)
            if hit:
                if w:
                    entries.append((p, l2blocks_l[p], True, False, -1, False))
                continue
            victim = -1
            vdirty = False
            if allocated and evicted is not None:
                victim = evicted
                vdirty = evicted_dirty
            entries.append((p, l2blocks_l[p], w, True, victim, vdirty))
    return MissStream(entries)


_COLLECT_KERNELS = {
    "collect-dict-lru": _collect_dict_lru,
    "collect-flat-lru-2way": _collect_flat_lru_2way,
    "collect-generic": _collect_generic,
}


# --------------------------------------------------------------------------- #
# L2 consume kernels — replay the miss stream, detect cross-level feedback
# --------------------------------------------------------------------------- #


def _consume_dict_lru(l2, stream, l2_hits, enforce, targets_fn, oracle):
    """Consume a miss stream into a dict-layout LRU L2.

    Returns ``(stop_index, evicted_block)`` — the stream entry whose L2
    eviction requires a back-invalidation of a resident L1 line (the epoch
    must rewind past it), or ``(-1, -1)`` when the whole stream committed.
    The L2 access *at* the stop entry is committed (the scalar order is
    access first, back-invalidate second); entries after it are untouched.
    """
    entries = stream.entries
    n_entries = len(entries)
    stop_i = -1
    stop_evicted = -1
    if n_entries == 0:
        return stop_i, stop_evicted
    sets_l = l2._vec_index.way_indices(
        np.fromiter((e[1] for e in entries), dtype=np.int64,
                    count=n_entries), 0).tolist()
    sets_state = l2._sets
    ways = l2._ways
    write_back = l2._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    stats = l2.stats
    loads = stores = load_misses = store_misses = evictions = writebacks = 0
    hit_pos: List[int] = []
    miss_pos: List[int] = []
    hitp_a = hit_pos.append
    missp_a = miss_pos.append

    i = -1
    for i, (p, b, w, miss_entry, _vb, _vd), s in zip(range(n_entries),
                                                     entries, sets_l):
        d = sets_state[s]
        if b in d:
            dirty = d.pop(b)
            d[b] = dirty or (w and write_back)
            if w:
                stores += 1
            else:
                loads += 1
            if miss_entry:
                hitp_a(p)
            continue
        # L2 miss.
        if w:
            stores += 1
            store_misses += 1
        else:
            loads += 1
            load_misses += 1
        if miss_entry:
            missp_a(p)
        if w and not write_back:
            continue
        evicted = None
        if len(d) >= ways:
            evicted = next(iter(d))
            if d.pop(evicted):
                writebacks += 1
            evictions += 1
        d[b] = w and write_back
        # The scalar hierarchy only back-invalidates on L1-miss-driven L2
        # accesses (write-through store-hit propagation returns early).
        if evicted is not None and miss_entry and enforce:
            for x in targets_fn(evicted):
                if oracle(x, p):
                    stop_i = i
                    stop_evicted = evicted
                    break
            if stop_i >= 0:
                break

    # One fancy-indexed assignment per epoch instead of one NumPy scalar
    # write per entry.
    if hit_pos:
        l2_hits[hit_pos] = True
    if miss_pos:
        l2_hits[miss_pos] = False
    l2._clock += i + 1
    stats.loads += loads
    stats.stores += stores
    stats.load_misses += load_misses
    stats.store_misses += store_misses
    stats.evictions += evictions
    stats.writebacks += writebacks
    return stop_i, stop_evicted


def _consume_generic(l2, stream, l2_hits, enforce, targets_fn, oracle):
    """Generic consume kernel (flat-layout / policy-backed L2)."""
    stop_i = -1
    stop_evicted = -1
    hit_pos: List[int] = []
    miss_pos: List[int] = []
    with _policy_checkout(l2):
        for i, (p, b, w, miss_entry, _vb, _vd) in enumerate(stream.entries):
            hit, _allocated, evicted, _ed = _cache_access_one(l2, b, w)
            if miss_entry:
                (hit_pos if hit else miss_pos).append(p)
            if not hit and evicted is not None and miss_entry and enforce:
                for x in targets_fn(evicted):
                    if oracle(x, p):
                        stop_i = i
                        stop_evicted = evicted
                        break
                if stop_i >= 0:
                    break
    if hit_pos:
        l2_hits[hit_pos] = True
    if miss_pos:
        l2_hits[miss_pos] = False
    return stop_i, stop_evicted


_CONSUME_KERNELS = {
    "consume-dict-lru": _consume_dict_lru,
    "consume-generic": _consume_generic,
}


# --------------------------------------------------------------------------- #
# the shared epoch loop
# --------------------------------------------------------------------------- #


def _run_epoch_stream(h, blocks_arr, blocks_l, l2blocks_l, writes_l,
                      l1_hits, l2_hits, enforce, targets_fn) -> None:
    """Drive the collect/consume epoch loop for either hierarchy twin.

    ``h`` provides ``l1``/``l2``, the epoch counters and ``_apply_stop``.
    """
    l1 = h.l1
    l2 = h.l2
    collect = _COLLECT_KERNELS[h.l1_collect_kernel]
    consume = _CONSUME_KERNELS[h.l2_consume_kernel]
    if h.l1_collect_kernel == "collect-dict-lru":
        ctx = cached_set_index_lists(l1._vec_index, blocks_arr, 0)
    elif h.l1_collect_kernel == "collect-flat-lru-2way":
        ctx = (cached_set_index_lists(l1._vec_index, blocks_arr, 0),
               cached_set_index_lists(l1._vec_index, blocks_arr, 1))
    else:
        ctx = None

    n = len(blocks_l)
    pos = 0
    size = h._epoch_hint or _EPOCH_START
    if not enforce:
        # No back-invalidation feedback: one epoch covers the whole batch.
        size = n
    while pos < n:
        end = min(pos + size, n)
        snap = l1._snapshot_state() if enforce else None
        start_set = _resident_block_set(l1) if enforce else None
        stream = collect(l1, ctx, blocks_l, l2blocks_l, writes_l, pos, end)
        # The L1 hit mask falls out of the stream: every L1 miss is a
        # stream entry flagged ``is_l1_miss`` and everything else hit.
        l1_hits[pos:end] = True
        miss_pos = [e[0] for e in stream.entries if e[3]]
        if miss_pos:
            l1_hits[miss_pos] = False
        h.epochs += 1
        h.stream_entries += len(stream)
        oracle = (_make_oracle(l1, stream, blocks_l, start_set)
                  if enforce else None)
        stop_i, stop_evicted = consume(l2, stream, l2_hits, enforce,
                                       targets_fn, oracle)
        if stop_i < 0:
            pos = end
            if h._epoch_hint is None and enforce:
                size = min(size * 2, _EPOCH_MAX)
            continue
        # Cross-level feedback: rewind L1 to the epoch start, replay the
        # committed prefix scalar-exactly, then apply the back-invalidation
        # with the scalar hole accounting.  L2 is already exact through the
        # stop entry and was never touched past it.
        p = stream.entries[stop_i][0]
        l1._restore_state(snap)
        _replay_l1(collect, l1, ctx, blocks_l, l2blocks_l, writes_l,
                   pos, p + 1)
        h._apply_stop(stop_evicted, blocks_l[p])
        h.rewinds += 1
        pos = p + 1
        if h._epoch_hint is None:
            size = max(_EPOCH_MIN, size // 2)



def _check_level(cache, label: str) -> None:
    if not isinstance(cache, BatchSetAssociativeCache):
        raise TypeError(
            f"{label} must be a BatchSetAssociativeCache, "
            f"got {type(cache).__name__}"
        )
    if cache._classifier is not None:
        raise ValueError(
            "the batch multi-level engine does not support 3C miss "
            f"classification (enabled on {label})"
        )


# --------------------------------------------------------------------------- #
# the batch twins
# --------------------------------------------------------------------------- #


class BatchTwoLevelHierarchy:
    """Batch twin of :class:`~repro.cache.hierarchy.TwoLevelHierarchy`.

    Same construction rules and counters; :meth:`run` consumes an
    :class:`AddressBatch` and leaves both levels' state, statistics and the
    hole counters exactly where the scalar model would after the same trace.

    ``epoch_hint`` pins the epoch size (normally adaptive) — useful to force
    tiny epochs in stress tests so the stop/rewind path is exercised.
    """

    def __init__(self, l1: BatchSetAssociativeCache,
                 l2: BatchSetAssociativeCache,
                 enforce_inclusion: bool = True,
                 epoch_hint: Optional[int] = None) -> None:
        _check_level(l1, "L1")
        _check_level(l2, "L2")
        if l1.block_size > l2.block_size:
            raise ValueError(
                "L1 block size must not exceed the L2 block size "
                f"({l1.block_size} vs {l2.block_size})"
            )
        if l2.block_size % l1.block_size:
            raise ValueError(
                "L2 block size must be a multiple of the L1 block size "
                f"({l2.block_size} vs {l1.block_size})"
            )
        if l2.size_bytes < l1.size_bytes:
            raise ValueError("L2 must be at least as large as L1")
        if epoch_hint is not None and epoch_hint < 1:
            raise ValueError("epoch_hint must be positive")
        self.l1 = l1
        self.l2 = l2
        self._ratio = l2.block_size // l1.block_size
        self._enforce_inclusion = enforce_inclusion
        self._epoch_hint = epoch_hint

        self.holes_created = 0
        self.l2_misses_causing_holes = 0
        self.back_invalidations = 0
        self.epochs = 0
        self.rewinds = 0
        self.stream_entries = 0

    # -- introspection -------------------------------------------------- #

    @property
    def inclusion_enforced(self) -> bool:
        """Whether back-invalidation is active."""
        return self._enforce_inclusion

    def dispatch_strategy(self, batch: Optional[AddressBatch] = None) -> str:
        """Name of the composition :meth:`run` will execute.

        ``"hierarchy-epoch-stream"`` when inclusion is enforced (epochs with
        stop/rewind), ``"hierarchy-stream"`` otherwise (one straight-line
        collect/consume pass — no feedback exists without back-invalidation).
        """
        return ("hierarchy-epoch-stream" if self._enforce_inclusion
                else "hierarchy-stream")

    @property
    def l1_collect_kernel(self) -> str:
        """Collect kernel serving L1 (``collect-*``)."""
        return _collect_kernel_name(self.l1)

    @property
    def l2_consume_kernel(self) -> str:
        """Consume kernel serving L2 (``consume-*``)."""
        return _consume_kernel_name(self.l2)

    # -- scalar-identical protocol helpers ------------------------------ #

    def _l2_block_of_l1_block(self, l1_block: int) -> int:
        return l1_block // self._ratio

    def _l1_blocks_of_l2_block(self, l2_block: int) -> Iterable[int]:
        start = l2_block * self._ratio
        return range(start, start + self._ratio)

    def _apply_stop(self, evicted_l2_block: int, filling_l1_block: int) -> None:
        """Scalar ``_back_invalidate`` + hole accounting at a stop point."""
        hole = False
        for l1_block in self._l1_blocks_of_l2_block(evicted_l2_block):
            if self.l1.invalidate_block(l1_block):
                self.back_invalidations += 1
                if l1_block != filling_l1_block:
                    hole = True
                    self.holes_created += 1
                    self.l1.stats.holes_created += 1
        if hole:
            self.l2_misses_causing_holes += 1

    # -- simulation ------------------------------------------------------ #

    def run(self, batch: AddressBatch) -> HierarchyBatchResult:
        """Simulate a whole batch; state carries over to the next call."""
        n = len(batch)
        l1_hits = np.zeros(n, dtype=bool)
        l2_hits = np.ones(n, dtype=bool)
        result = HierarchyBatchResult(l1_hits, l2_hits)
        if n == 0:
            return result
        for level in (self.l1, self.l2):
            level._lists()  # the loops below read the list layout
        blocks_arr = cached_block_numbers(batch, self.l1.block_size)
        blocks_l = blocks_arr.tolist()
        if self.l1.block_size == self.l2.block_size:
            # Equal block sizes: L2 block numbers ARE the L1 block numbers,
            # so reuse the list instead of paying a second 1M-element
            # ndarray->list conversion.
            l2blocks_l = blocks_l
        else:
            l2blocks_l = cached_block_numbers(
                batch, self.l2.block_size).tolist()
        _run_epoch_stream(
            self, blocks_arr, blocks_l, l2blocks_l,
            batch.is_write.tolist(), l1_hits, l2_hits,
            self._enforce_inclusion, self._l1_blocks_of_l2_block)
        return result

    # -- derived metrics (mirror the scalar model) ----------------------- #

    @property
    def l2_miss_count(self) -> int:
        """Number of L2 misses observed so far."""
        return self.l2.stats.misses

    @property
    def hole_rate_per_l2_miss(self) -> float:
        """Fraction of L2 misses that created at least one L1 hole."""
        misses = self.l2_miss_count
        return self.l2_misses_causing_holes / misses if misses else 0.0

    def check_inclusion(self) -> bool:
        """Verify that every valid L1 block is also present in L2."""
        if not self._enforce_inclusion:
            return True
        l2_resident = set(self.l2.resident_blocks())
        return all(self._l2_block_of_l1_block(b) in l2_resident
                   for b in self.l1.resident_blocks())

    def flush(self) -> None:
        """Empty both levels."""
        self.l1.flush()
        self.l2.flush()


class BatchVirtualRealHierarchy:
    """Batch twin of :class:`~repro.cache.virtual_real.VirtualRealHierarchy`.

    Instead of a scalar ``translate`` callable it takes the
    :class:`~repro.memory.paging.PageTable` itself (plus an optional TLB),
    because translation must run array-at-a-time in front of the index
    pipeline; page faults happen in first-touch trace order so the table,
    the fault counter and the TLB counters stay bit-exact with per-access
    translation (see :mod:`repro.engine.translate_vec`).
    """

    def __init__(self, l1: BatchSetAssociativeCache,
                 l2: BatchSetAssociativeCache,
                 page_table: PageTable,
                 tlb: Optional[TLB] = None,
                 epoch_hint: Optional[int] = None) -> None:
        _check_level(l1, "L1")
        _check_level(l2, "L2")
        if l1.block_size != l2.block_size:
            raise ValueError(
                "the virtual-real protocol requires equal L1/L2 block sizes "
                f"({l1.block_size} vs {l2.block_size})"
            )
        if l2.size_bytes < l1.size_bytes:
            raise ValueError("L2 must be at least as large as L1")
        page_size = page_table.page_size
        if page_size < l1.block_size or page_size % l1.block_size:
            raise ValueError(
                "page_size must be a multiple of the cache block size "
                f"({page_size} vs {l1.block_size})"
            )
        if tlb is not None and tlb._page_size != page_size:
            raise ValueError("TLB and page table must agree on page size")
        if epoch_hint is not None and epoch_hint < 1:
            raise ValueError("epoch_hint must be positive")
        self.l1 = l1
        self.l2 = l2
        self._page_table = page_table
        self._tlb = tlb
        self._bpp = page_size // l1.block_size  # cache blocks per page
        self._epoch_hint = epoch_hint
        # Same pointer state as the scalar protocol; during an epoch run the
        # maps are not maintained inline but rebuilt from L1 residency after
        # the batch (exact under an injective frame mapping — see run()).
        self._virt_of_phys: Dict[int, int] = {}
        self._phys_of_virt: Dict[int, int] = {}
        self._targets_fn: Optional[Callable[[int], Tuple[int, ...]]] = None

        self.alias_invalidations = 0
        self.holes_created = 0
        self.l2_misses_causing_holes = 0
        self.external_invalidations = 0
        self.epochs = 0
        self.rewinds = 0
        self.stream_entries = 0

    # -- introspection -------------------------------------------------- #

    @property
    def page_table(self) -> PageTable:
        """The page table translating this hierarchy's virtual addresses."""
        return self._page_table

    @property
    def tlb(self) -> Optional[TLB]:
        """The TLB fronting translation, if any."""
        return self._tlb

    def dispatch_strategy(self, batch: Optional[AddressBatch] = None) -> str:
        """Name of the composition :meth:`run` will execute.

        ``"vr-epoch-stream"`` when the virtual->physical frame mapping is
        injective (then alias invalidations are impossible and the inverse
        frame map is an exact back-invalidation oracle); ``"vr-fused"`` when
        the mapping holds duplicate frames — or a sequential allocator could
        collide with a pre-seeded frame — in which case a per-access
        transliteration of the scalar protocol runs instead.  The scatter
        allocator rejection-samples against frames in use, so allocation
        during the batch can never *create* an alias.
        """
        mapping = self._page_table._mapping
        frames = list(mapping.values())
        if len(set(frames)) != len(frames):
            return "vr-fused"
        if (self._page_table._allocation == "sequential" and frames
                and max(frames) >= self._page_table._next_frame):
            return "vr-fused"
        return "vr-epoch-stream"

    @property
    def l1_collect_kernel(self) -> str:
        """Collect kernel serving L1 (``collect-*``)."""
        return _collect_kernel_name(self.l1)

    @property
    def l2_consume_kernel(self) -> str:
        """Consume kernel serving L2 (``consume-*``)."""
        return _consume_kernel_name(self.l2)

    # -- scalar-identical protocol helpers ------------------------------ #

    def _map(self, virt_block: int, phys_block: int) -> None:
        self._phys_of_virt[virt_block] = phys_block
        self._virt_of_phys[phys_block] = virt_block

    def _unmap(self, virt_block: int) -> None:
        phys = self._phys_of_virt.pop(virt_block, None)
        if phys is not None and self._virt_of_phys.get(phys) == virt_block:
            del self._virt_of_phys[phys]

    def _apply_stop(self, evicted_phys_block: int,
                    filling_virt_block: int) -> None:
        """Scalar ``_handle_l2_eviction`` + hole accounting at a stop."""
        hole = False
        for virt_block in self._targets_fn(evicted_phys_block):
            if self.l1.invalidate_block(virt_block):
                if virt_block != filling_virt_block:
                    hole = True
                    self.holes_created += 1
                    self.l1.stats.holes_created += 1
        if hole:
            self.l2_misses_causing_holes += 1

    def _rebuild_maps(self) -> None:
        """Restore the scalar pointer state from L1 residency.

        Under an injective frame mapping the scalar maps are exactly
        ``{resident L1 virtual line -> its physical line}`` at all times, so
        rebuilding after the batch reproduces them bit-exactly.
        """
        mapping = self._page_table._mapping
        bpp = self._bpp
        self._virt_of_phys.clear()
        self._phys_of_virt.clear()
        for virt_block in self.l1.resident_blocks():
            frame = mapping[virt_block // bpp]
            phys_block = frame * bpp + virt_block % bpp
            self._phys_of_virt[virt_block] = phys_block
            self._virt_of_phys[phys_block] = virt_block

    # -- simulation ------------------------------------------------------ #

    def run(self, batch: AddressBatch) -> HierarchyBatchResult:
        """Simulate a whole batch of virtual addresses."""
        n = len(batch)
        l1_hits = np.zeros(n, dtype=bool)
        l2_hits = np.ones(n, dtype=bool)
        result = HierarchyBatchResult(l1_hits, l2_hits)
        if n == 0:
            return result
        for level in (self.l1, self.l2):
            level._lists()  # the loops below read the list layout
        strategy = self.dispatch_strategy(batch)
        # AddressBatch stores uint64; mixing with the int64 translation
        # arrays would promote to float64, so cast once up front (batches
        # validate addresses < 2**63).
        addr = batch.addresses.astype(np.int64)
        vpns, frames = batch_page_frames(self._page_table, addr)
        if self._tlb is not None:
            run_tlb_kernel(self._tlb, vpns, frames)
        page = self._page_table.page_size
        phys = frames * page + (addr - vpns * page)
        block_size = self.l1.block_size
        virt_blocks = cached_block_numbers(batch, block_size)
        phys_blocks = phys // block_size
        writes_l = batch.is_write.tolist()

        if strategy == "vr-fused":
            self._run_fused(virt_blocks.tolist(), phys_blocks.tolist(),
                            writes_l, l1_hits, l2_hits)
            return result

        # Epoch path: injective frame mapping, so the inverse map recovers
        # the unique L1 virtual line an evicted physical line could shadow.
        bpp = self._bpp
        inv_frame = {f: v for v, f in self._page_table._mapping.items()}

        def targets_fn(phys_block: int) -> Tuple[int, ...]:
            vpn = inv_frame.get(phys_block // bpp)
            if vpn is None:
                return ()
            return (vpn * bpp + phys_block % bpp,)

        self._targets_fn = targets_fn
        try:
            _run_epoch_stream(
                self, virt_blocks, virt_blocks.tolist(),
                phys_blocks.tolist(), writes_l, l1_hits, l2_hits,
                True, targets_fn)
        finally:
            self._targets_fn = None
        self._rebuild_maps()
        return result

    def _run_fused(self, virt_l: List[int], phys_l: List[int],
                   writes_l: List[bool], l1_hits: np.ndarray,
                   l2_hits: np.ndarray) -> None:
        """Per-access transliteration of the scalar protocol (alias-capable)."""
        l1 = self.l1
        l2 = self.l2
        virt_of_phys = self._virt_of_phys
        with _policy_checkout(l1), _policy_checkout(l2):
            for p, (vb, pb) in enumerate(zip(virt_l, phys_l)):
                w = writes_l[p]
                resident_virt = virt_of_phys.get(pb)
                if resident_virt is not None and resident_virt != vb:
                    if l1.invalidate_block(resident_virt):
                        self.alias_invalidations += 1
                    self._unmap(resident_virt)
                hit, allocated, evicted, _ed = _cache_access_one(l1, vb, w)
                if hit:
                    l1_hits[p] = True
                    if w:
                        _cache_access_one(l2, pb, True)
                    continue
                if evicted is not None:
                    self._unmap(evicted)
                if allocated:
                    self._map(vb, pb)
                l2_hit, _a2, evicted2, _ed2 = _cache_access_one(l2, pb, w)
                l2_hits[p] = l2_hit
                if not l2_hit and evicted2 is not None:
                    if self._handle_l2_eviction(evicted2, vb):
                        self.l2_misses_causing_holes += 1

    def _handle_l2_eviction(self, evicted_phys_block: int,
                            filling_virt_block: Optional[int]) -> bool:
        """Scalar ``_handle_l2_eviction`` against the maintained maps."""
        virt_block = self._virt_of_phys.get(evicted_phys_block)
        if virt_block is None:
            return False
        invalidated = self.l1.invalidate_block(virt_block)
        self._unmap(virt_block)
        if not invalidated:
            return False
        if (filling_virt_block is not None
                and virt_block == filling_virt_block):
            return False
        self.holes_created += 1
        self.l1.stats.holes_created += 1
        return True

    def external_invalidate(self, physical_address: int) -> bool:
        """Scalar-identical physically-addressed coherence invalidation."""
        phys_block = self.l2.block_number_of(physical_address)
        self.l2.invalidate_block(phys_block)
        virt_block = self._virt_of_phys.get(phys_block)
        if virt_block is None:
            return False
        invalidated = self.l1.invalidate_block(virt_block)
        self._unmap(virt_block)
        if invalidated:
            self.external_invalidations += 1
        return invalidated

    # -- derived metrics (mirror the scalar model) ----------------------- #

    @property
    def hole_rate_per_l2_miss(self) -> float:
        """Fraction of L2 misses that created an L1 hole."""
        misses = self.l2.stats.misses
        return self.l2_misses_causing_holes / misses if misses else 0.0

    def check_inclusion(self) -> bool:
        """Verify that every valid L1 line's physical image is present in L2."""
        l2_resident = set(self.l2.resident_blocks())
        for virt_block in self.l1.resident_blocks():
            phys_block = self._phys_of_virt.get(virt_block)
            if phys_block is None or phys_block not in l2_resident:
                return False
        return True

    def flush(self) -> None:
        """Empty both levels and the alias maps."""
        self.l1.flush()
        self.l2.flush()
        self._virt_of_phys.clear()
        self._phys_of_virt.clear()


# --------------------------------------------------------------------------- #
# convenience constructors (mirror engine.replay.batch_cache_like)
# --------------------------------------------------------------------------- #


def batch_hierarchy_like(hierarchy,
                         epoch_hint: Optional[int] = None
                         ) -> BatchTwoLevelHierarchy:
    """Build a cold batch twin of a scalar :class:`TwoLevelHierarchy`."""
    from .replay import batch_cache_like

    return BatchTwoLevelHierarchy(
        batch_cache_like(hierarchy.l1), batch_cache_like(hierarchy.l2),
        enforce_inclusion=hierarchy.inclusion_enforced,
        epoch_hint=epoch_hint)


def batch_virtual_real_like(vr, page_table: PageTable,
                            tlb: Optional[TLB] = None,
                            epoch_hint: Optional[int] = None
                            ) -> BatchVirtualRealHierarchy:
    """Build a cold batch twin of a scalar :class:`VirtualRealHierarchy`.

    The scalar model only holds a ``translate`` callable, so the page table
    (and TLB, if the scalar side translated through one) must be supplied
    explicitly — give the twin its *own* fresh ``PageTable``/``TLB`` seeded
    identically, since translation mutates them.
    """
    from .replay import batch_cache_like

    return BatchVirtualRealHierarchy(
        batch_cache_like(vr.l1), batch_cache_like(vr.l2), page_table,
        tlb=tlb, epoch_hint=epoch_hint)
