"""Batch cache simulators: whole-trace simulation over NumPy address arrays.

This module is the heart of the vectorized engine.  It simulates the same
cache organisations as the scalar models in :mod:`repro.cache` —
set-associative (conventional, skewed or fully associative, either write
policy), victim and column-associative — but consumes an
:class:`~repro.engine.batch.AddressBatch` instead of one
:class:`~repro.trace.record.MemoryAccess` at a time, and is bit-exact with
the scalar models by construction (the differential suites in
``tests/test_engine_equivalence.py`` and ``tests/test_ckernels.py`` assert
identical hit/miss sequences and identical final
:class:`~repro.cache.stats.CacheStats`).

Kernels, picked per cache by ``dispatch_strategy``:

* ``compiled-set-assoc-{lru,fifo,random,plru}``,
  ``compiled-victim-{lru,fifo,random,plru}`` and
  ``compiled-column-associative`` — one generic C kernel per family
  (:mod:`repro.engine.ckernels`), used whenever the library builds.  Set
  indices are computed array-at-a-time per way (a conventional cache passes
  its way-0 array for every way), and the kernel mutates the cache's NumPy
  state arrays in place.  A 3C-classifying cache replays its
  :class:`~repro.cache.stats.MissClassifier` over the finished hit mask: the
  shadow sees only (block, hit) in trace order.
* Without a C compiler, the Python fallbacks: ``lru-dict`` (conventional
  LRU: one insertion-ordered dict per set), ``generic-policy-kernel``
  (every other set-associative cache: per-way flat lists, LRU stamps in
  ``_way_used``, other policies in the
  :mod:`repro.engine.replacement_vec` state tables), ``victim-generic-kernel``
  and ``column-associative``.

Every kernel supports stores under both write policies and warm caches.

State has two layouts and exactly one is live.  The compiled kernels and
both tiers of the multi-level loop (:mod:`repro.engine.hierarchy_vec`)
mutate NumPy arrays; the other Python consumers — the fallback kernels and
the point operations (``contains_block``, ``invalidate_block``,
``resident_blocks``) — read lists (and per-set dicts for conventional LRU)
checked out through ``_lists()``.
A cache converts only when the other kind of consumer touched it last, so
single-level runs never convert.  Policy tables
(:class:`~repro.engine.replacement_vec.VecReplacementState`) are NumPy in
both cases.

Every cache exposes ``dispatch_strategy(batch)`` — the name of the kernel
``run`` will execute — as the dispatcher's single source of truth, which
the differential suite introspects to prove each path is covered.

Block-number and set-index arrays are obtained through the sweep-wide memo
tables of :mod:`repro.engine.memo`, so tasks that share one materialised
trace (see :mod:`repro.trace.batching`) also share the derived arrays.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from ..cache.replacement import (
    RandomReplacement,
    ReplacementPolicy,
    replacement_policy_name,
)
from ..cache.set_assoc import WritePolicy
from ..cache.stats import CacheStats, MissClassifier
from ..core.index import BitSelectIndexing, IndexFunction, IPolyIndexing
from . import ckernels
from .batch import AddressBatch
from .index_vec import VectorizedIndex, vectorize_index
from .memo import (
    cached_block_numbers,
    cached_set_index_lists,
    cached_set_indices,
)
from .replacement_vec import (
    VecReplacementState,
    make_vec_replacement,
    min_stamp_way,
)

__all__ = [
    "BatchSetAssociativeCache",
    "BatchColumnAssociativeCache",
    "BatchVictimCache",
]


def _resolve_batch_replacement(
        replacement: Union[str, ReplacementPolicy, None]):
    """Normalise a batch cache's ``replacement=`` argument.

    Returns ``(name, seed)``: the validated policy name plus the draw seed
    carried by a scalar :class:`RandomReplacement` instance (``None``
    otherwise), so that passing a configured policy instance to a batch
    cache reproduces the scalar cache's exact victim sequence instead of
    silently falling back to the default seed.
    """
    seed = (replacement.seed
            if isinstance(replacement, RandomReplacement) else None)
    return replacement_policy_name(replacement), seed


def _policy_tables(policy: VecReplacementState):
    """A policy's NumPy state as the C kernels take it.

    Returns ``(stamps, PLRU bits as uint8, seed, random draws consumed)``;
    the bit table is a view, so the kernel's writes land in the policy.
    """
    bits = getattr(policy, "bits", None)
    return (getattr(policy, "stamps", None),
            None if bits is None else bits.view(np.uint8),
            getattr(policy, "seed", 0), getattr(policy, "counter", 0))


def _classify_over_hits(classifier: MissClassifier, stats: CacheStats,
                        blocks: np.ndarray, hits: np.ndarray) -> None:
    """Replay the 3C shadow over a finished hit mask, in trace order."""
    classify = classifier.classify
    kinds = stats.miss_kinds
    for b, hit in zip(blocks.tolist(), hits.tolist()):
        kind = classify(b, hit)
        if kind is not None:
            kinds[kind] += 1


def _check_geometry(size_bytes: int, block_size: int, ways: int,
                    index_function: Optional[IndexFunction]):
    """Validate a set-associative geometry like the scalar cache does.

    Returns ``(num_sets, index_function)``, defaulting to bit selection.
    """
    if block_size < 1 or block_size & (block_size - 1):
        raise ValueError("block_size must be a positive power of two")
    if ways < 1:
        raise ValueError("ways must be at least 1")
    if size_bytes < block_size * ways:
        raise ValueError("cache must hold at least one set")
    if size_bytes % (block_size * ways):
        raise ValueError(
            "size_bytes must be a multiple of block_size * ways "
            f"({block_size * ways}), got {size_bytes}"
        )
    num_sets = size_bytes // (block_size * ways)
    if num_sets & (num_sets - 1):
        raise ValueError(
            f"number of sets must be a power of two, got {num_sets}"
        )
    if index_function is None:
        index_function = BitSelectIndexing(num_sets)
    if index_function.num_sets != num_sets:
        raise ValueError(
            f"index function covers {index_function.num_sets} sets but the "
            f"cache has {num_sets}"
        )
    return num_sets, index_function


def _way_indices(cache, blocks: np.ndarray, as_lists: bool = False):
    """Per-way set indices of ``blocks`` (memoised arrays, or the list
    views the Python kernels iterate); a conventional cache repeats its
    way-0 indices for every way."""
    fetch = cached_set_index_lists if as_lists else cached_set_indices
    if cache._skewed:
        return [fetch(cache._vec_index, blocks, way)
                for way in range(cache._ways)]
    return [fetch(cache._vec_index, blocks, 0)] * cache._ways


class _Layout(enum.Enum):
    """``_state`` of a fresh or flushed cache: neither layout built yet (an
    enum member, so the identity checks survive pickling)."""
    EMPTY = "empty"


_EMPTY = _Layout.EMPTY


class _BatchCache:
    """What the batch caches share: the chunk-consume entry point and the
    two state layouts.

    Exactly one layout is live.  ``_state`` holds the NumPy arrays the
    compiled kernels mutate, ``None`` while the list attributes named by
    ``_LIST_ATTRS`` are live, or ``_EMPTY`` until the first consumer of
    either kind builds its layout empty.  Subclasses provide
    ``_new_arrays()``, ``_new_lists()``, ``_arrays_to_lists(arrays)`` and
    ``_lists_to_arrays()``.
    """

    _LIST_ATTRS: tuple = ()
    _EXTRA_COUNTERS: tuple = ()
    _state = _EMPTY
    _name = ""
    _block_size = 0

    @property
    def name(self) -> str:
        """Human-readable label for reports."""
        return self._name

    @property
    def block_size(self) -> int:
        """Line size in bytes."""
        return self._block_size

    def run_chunks(self, chunks: Iterable[AddressBatch]) -> int:
        """Consume a stream of batches; returns the accesses simulated.

        The chunk-consume entry point of the streaming trace layer
        (:func:`repro.trace.stream.iter_trace_chunks`): state, statistics
        and counters carry across chunks exactly as across :meth:`run`
        calls, so a chunked replay is bit-exact with one ``run()`` over the
        whole trace — the route depends only on the configuration, so every
        chunk runs the kernel a one-shot run would.
        """
        total = 0
        for batch in chunks:
            self.run(batch)
            total += len(batch)
        return total

    def _add_counts(self, loads: int, stores: int, load_misses: int,
                    store_misses: int, evictions: int, writebacks: int,
                    *extra: int) -> None:
        """Accumulate one run's counters, in the kernels' slot order: six
        :class:`CacheStats` fields, then ``_EXTRA_COUNTERS``."""
        stats = self.stats
        stats.loads += loads
        stats.stores += stores
        stats.load_misses += load_misses
        stats.store_misses += store_misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        for name, value in zip(self._EXTRA_COUNTERS, extra):
            setattr(self, name, getattr(self, name) + value)

    def _reset_state(self) -> None:
        """Empty the cache: no layout until a consumer asks for one."""
        self._state = _EMPTY
        for attr in self._LIST_ATTRS:
            setattr(self, attr, None)

    def _lists(self) -> None:
        """Check the state out in the list layout Python consumers read."""
        if self._state is None:
            return
        if self._state is _EMPTY:
            self._new_lists()
        else:
            self._arrays_to_lists(self._state)
        self._state = None

    def _arrays(self):
        """Check the state out as the arrays the compiled kernels mutate."""
        if self._state is _EMPTY:
            self._state = self._new_arrays()
        elif self._state is None:
            self._state = self._lists_to_arrays()
            for attr in self._LIST_ATTRS:
                setattr(self, attr, None)
        return self._state


class BatchSetAssociativeCache(_BatchCache):
    """Batch counterpart of :class:`~repro.cache.set_assoc.SetAssociativeCache`.

    Construction mirrors the scalar cache (same geometry validation, same
    defaults); :meth:`run` consumes an :class:`AddressBatch` and returns the
    per-access hit mask while accumulating into :attr:`stats`.  State persists
    across calls, so a cache can be warmed with one batch and measured with
    the next, exactly like the scalar model.
    """

    _LIST_ATTRS = ("_sets", "_way_tags", "_way_used", "_way_dirty")

    def __init__(
        self,
        size_bytes: int,
        block_size: int,
        ways: int,
        index_function: Optional[IndexFunction] = None,
        replacement: Union[str, ReplacementPolicy, None] = None,
        write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
        classify_misses: bool = False,
        name: str = "",
    ) -> None:
        self._num_sets, index_function = _check_geometry(
            size_bytes, block_size, ways, index_function)
        if write_policy not in WritePolicy.ALL:
            raise ValueError(f"unknown write policy {write_policy!r}")

        self._size_bytes = size_bytes
        self._block_size = block_size
        self._ways = ways
        self._index_fn = index_function
        self._vec_index: VectorizedIndex = vectorize_index(index_function)
        self._replacement_name, random_seed = _resolve_batch_replacement(
            replacement)
        self._write_policy = write_policy
        self._name = name or (f"{size_bytes // 1024}KB-{ways}way-"
                              f"{index_function.name}-batch")
        self._skewed = index_function.is_skewed

        self._clock = 0
        self.stats = CacheStats()
        self._classifier = (
            MissClassifier(self.num_blocks) if classify_misses else None
        )
        # List layout: conventional LRU keeps one dict per set mapping
        # block -> dirty in LRU-to-MRU insertion order; every other cache
        # keeps per-way flat tag / dirty lists (tag -1 == invalid frame) with
        # LRU stamps in ``_way_used``.  The array layout is ``(tags, dirty,
        # used)``, each ``ways x num_sets``.  Non-LRU policies keep their
        # decision state in the tables of :mod:`repro.engine.replacement_vec`.
        self._use_flat = self._skewed or self._replacement_name != "lru"
        self._vec_policy: Optional[VecReplacementState] = None
        if self._replacement_name != "lru":
            self._vec_policy = make_vec_replacement(
                self._replacement_name, ways, self._num_sets,
                seed=random_seed)
        self._reset_state()

    # ------------------------------------------------------------------ #
    # state layouts
    # ------------------------------------------------------------------ #

    def _new_arrays(self):
        shape = (self._ways, self._num_sets)
        return (np.full(shape, -1, dtype=np.int64),
                np.zeros(shape, dtype=np.uint8),
                np.zeros(shape, dtype=np.int64))

    def _new_lists(self) -> None:
        ways, num_sets = self._ways, self._num_sets
        if self._use_flat:
            self._way_tags = [[-1] * num_sets for _ in range(ways)]
            self._way_used = [[0] * num_sets for _ in range(ways)]
            self._way_dirty = [[False] * num_sets for _ in range(ways)]
        else:
            self._sets = [dict() for _ in range(num_sets)]

    def _arrays_to_lists(self, arrays) -> None:
        tags, dirty, used = arrays
        if self._use_flat:
            self._way_tags = tags.tolist()
            self._way_dirty = dirty.astype(bool).tolist()
            self._way_used = used.tolist()
            return
        # Conventional LRU: rebuild each set's dict oldest stamp first.
        sets: List[Dict[int, bool]] = [dict() for _ in range(self._num_sets)]
        order = np.argsort(used, axis=0, kind="stable")
        columns = np.arange(self._num_sets)
        for ways_by_age in order:
            row_tags = tags[ways_by_age, columns]
            row_dirty = dirty[ways_by_age, columns]
            for s in np.flatnonzero(row_tags >= 0).tolist():
                sets[s][int(row_tags[s])] = bool(row_dirty[s])
        self._sets = sets

    def _lists_to_arrays(self):
        if self._use_flat:
            return (np.array(self._way_tags, dtype=np.int64),
                    np.array(self._way_dirty, dtype=np.uint8),
                    np.array(self._way_used, dtype=np.int64))
        # Conventional LRU: a set's k blocks take ways 0..k-1 with distinct
        # stamps ending at the current clock, oldest first.
        tags, dirty, used = self._new_arrays()
        for s, d in enumerate(self._sets):
            base = self._clock - len(d)
            for way, (block, is_dirty) in enumerate(d.items()):
                tags[way, s] = block
                dirty[way, s] = is_dirty
                used[way, s] = base + 1 + way
        return tags, dirty, used

    # ------------------------------------------------------------------ #
    # introspection (mirrors the scalar cache)
    # ------------------------------------------------------------------ #

    @property
    def size_bytes(self) -> int:
        """Total capacity in bytes."""
        return self._size_bytes

    @property
    def ways(self) -> int:
        """Associativity."""
        return self._ways

    @property
    def num_sets(self) -> int:
        """Number of sets per way."""
        return self._num_sets

    @property
    def num_blocks(self) -> int:
        """Total number of frames."""
        return self._num_sets * self._ways

    @property
    def index_function(self) -> IndexFunction:
        """The (scalar) placement function this cache vectorizes."""
        return self._index_fn

    @property
    def write_policy(self) -> str:
        """The configured write policy."""
        return self._write_policy

    @property
    def replacement_name(self) -> str:
        """Short name of the configured replacement policy."""
        return self._replacement_name

    def resident_blocks(self) -> List[int]:
        """All resident block numbers (order unspecified)."""
        self._lists()
        if self._use_flat:
            return [tag for tags in self._way_tags for tag in tags if tag >= 0]
        return [block for d in self._sets for block in d]

    def reset_stats(self) -> None:
        """Zero the statistics counters."""
        self.stats.reset()

    # ------------------------------------------------------------------ #
    # scalar-shaped point operations (used by the multi-level engine)
    # ------------------------------------------------------------------ #

    def block_number_of(self, address: int) -> int:
        """Map a byte address to its block number (mirrors the scalar cache)."""
        if address < 0:
            raise ValueError("address must be non-negative")
        return address // self._block_size

    def _candidate_sets(self, block_number: int) -> List[int]:
        """Per-way set indices of one block via the scalar index function."""
        if not self._skewed:
            return [self._index_fn.index(block_number, 0)] * self._ways
        return [self._index_fn.index(block_number, way)
                for way in range(self._ways)]

    def contains_block(self, block_number: int) -> bool:
        """Return True if ``block_number`` is resident."""
        self._lists()
        if not self._use_flat:
            return block_number in self._sets[self._index_fn.index(block_number, 0)]
        for way, set_index in enumerate(self._candidate_sets(block_number)):
            if self._way_tags[way][set_index] == block_number:
                return True
        return False

    def invalidate_block(self, block_number: int) -> bool:
        """Remove ``block_number`` if resident; returns True if it was found.

        Mirrors :meth:`SetAssociativeCache.invalidate_block` bit-exactly:
        the invalidations counter bumps only when the block was resident, and
        replacement state is untouched (the scalar ``on_invalidate`` hook is
        a universal no-op) — a later fill prefers the invalid frame in way
        order, exactly like the scalar ``_fill``.
        """
        self._lists()
        if not self._use_flat:
            d = self._sets[self._index_fn.index(block_number, 0)]
            if block_number in d:
                del d[block_number]
                self.stats.invalidations += 1
                return True
            return False
        for way, set_index in enumerate(self._candidate_sets(block_number)):
            if self._way_tags[way][set_index] == block_number:
                self._way_tags[way][set_index] = -1
                self._way_dirty[way][set_index] = False
                self.stats.invalidations += 1
                return True
        return False

    def flush(self) -> None:
        """Empty the cache (statistics are preserved; reset them separately).

        Mirrors the scalar :meth:`SetAssociativeCache.flush`: every frame is
        invalidated and the replacement state forgets everything, but the
        access clock keeps running.
        """
        self._reset_state()
        if self._vec_policy is not None:
            self._vec_policy.reset()
        if self._classifier is not None:
            self._classifier.reset()

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #

    def dispatch_strategy(self, batch: AddressBatch) -> str:
        """Name of the kernel :meth:`run` would execute for ``batch``.

        The dispatcher's single source of truth — :meth:`run` switches on
        exactly this value, so tests can introspect which kernel serves a
        given (organisation, policy) combination.  The route depends only
        on the configuration and on whether the compiled kernels built;
        ``batch`` is accepted so every batch cache shares one signature.
        Possible values:

        * ``"compiled-set-assoc-{lru,fifo,random,plru}"`` — every cache,
          with or without the 3C classifier, when the C library is
          available;
        * ``"lru-dict"`` — otherwise, conventional LRU;
        * ``"generic-policy-kernel"`` — otherwise, everything else.
        """
        if ckernels.available():
            return f"compiled-set-assoc-{self._replacement_name}"
        if self._replacement_name == "lru" and not self._skewed:
            return "lru-dict"
        return "generic-policy-kernel"

    def run(self, batch: AddressBatch) -> np.ndarray:
        """Simulate a whole batch; returns the per-access hit mask (bool).

        Statistics accumulate into :attr:`stats` and cache state carries over
        to the next call, exactly like feeding the scalar model one access at
        a time.  The kernel is picked by :meth:`dispatch_strategy`.
        """
        n = len(batch)
        if n == 0:
            return np.zeros(0, dtype=bool)
        strategy = self.dispatch_strategy(batch)
        blocks = cached_block_numbers(batch, self._block_size)
        if strategy == "lru-dict":
            hits = self._run_dict_kernel(blocks, batch.is_write)
        elif strategy == "generic-policy-kernel":
            hits = self._run_policy_kernel(blocks, batch.is_write)
        else:
            hits = self._run_compiled(blocks, batch.is_write)
        if self._classifier is not None:
            # The 3C shadow sees only (block, hit) in trace order, so it
            # replays over the finished hit mask.
            _classify_over_hits(self._classifier, self.stats, blocks, hits)
        return hits

    # -- compiled kernel ------------------------------------------------ #

    def _run_compiled(self, blocks: np.ndarray,
                      is_write: np.ndarray) -> np.ndarray:
        state = self._kernel_state(blocks)
        hits, counts = ckernels.run_set_assoc(
            blocks, np.ascontiguousarray(is_write).view(np.uint8), **state)
        self._kernel_done(state["io"], counts)
        return hits

    def _kernel_state(self, blocks: np.ndarray) -> dict:
        """The arrays a compiled kernel runs this cache on for ``blocks``:
        :func:`ckernels.run_set_assoc`'s keyword arguments, set indices
        included (the multi-level engine passes one per level)."""
        tags, dirty, used = self._arrays()
        policy = self._vec_policy
        if policy is None:  # LRU: stamps live with the tags
            stamps, bits, seed, draws = used, None, 0, 0
        else:
            stamps, bits, seed, draws = _policy_tables(policy)
        return dict(
            way_sets=_way_indices(self, blocks),
            write_back=self._write_policy == WritePolicy.WRITE_BACK_ALLOCATE,
            policy=self._replacement_name, tags=tags, dirty=dirty,
            stamps=stamps, bits=bits, seed=seed,
            io=np.array([self._clock, draws], dtype=np.int64))

    def _kernel_done(self, io: np.ndarray, counts) -> None:
        """Take back the clock, random draws and counters of a run on
        :meth:`_kernel_state`."""
        self._clock = int(io[0])
        if self._replacement_name == "random":
            self._vec_policy.counter = int(io[1])
        self._add_counts(*counts.tolist())

    # -- conventional LRU fallback: insertion-ordered dict kernel ------- #

    def _run_dict_kernel(self, blocks: np.ndarray,
                         is_write: np.ndarray) -> np.ndarray:
        self._lists()
        n = blocks.shape[0]
        sets_l = cached_set_index_lists(self._vec_index, blocks, 0)
        blocks_l = blocks.tolist()
        writes_l = is_write.tolist()
        sets_state = self._sets
        ways = self._ways
        write_back = self._write_policy == WritePolicy.WRITE_BACK_ALLOCATE

        hits_l = []
        hit_append = hits_l.append
        loads = stores = load_misses = store_misses = evictions = writebacks = 0

        for b, s, w in zip(blocks_l, sets_l, writes_l):
            d = sets_state[s]
            if b in d:
                dirty = d.pop(b)
                d[b] = dirty or (w and write_back)
                if w:
                    stores += 1
                else:
                    loads += 1
                hit_append(True)
                continue
            # Miss.
            hit_append(False)
            if w:
                stores += 1
                store_misses += 1
                if not write_back:
                    continue  # write-through / no-write-allocate
            else:
                loads += 1
                load_misses += 1
            if len(d) >= ways:
                victim = next(iter(d))
                if d.pop(victim):
                    writebacks += 1
                evictions += 1
            d[b] = w and write_back

        self._clock += n
        self._add_counts(loads, stores, load_misses, store_misses, evictions,
                         writebacks)
        return np.array(hits_l, dtype=bool)

    # -- generic fallback kernel (any placement, any policy) ------------ #

    def _run_policy_kernel(self, blocks: np.ndarray,
                           is_write: np.ndarray) -> np.ndarray:
        self._lists()
        way_sets = _way_indices(self, blocks, as_lists=True)
        blocks_l = blocks.tolist()
        writes_l = is_write.tolist()
        tags = self._way_tags
        dirty = self._way_dirty
        write_back = self._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
        clock = self._clock
        way_range = range(self._ways)
        policy = self._vec_policy
        if policy is None:
            # Skewed LRU: stamps in the cache's own ``_way_used`` rows.
            used = self._way_used

            def on_hit(wy, s, now):
                used[wy][s] = now

            on_fill = on_hit

            def choose(candidate_sets):
                return min_stamp_way(used, candidate_sets)
        else:
            policy.kernel_begin()
            on_hit = policy.on_hit
            on_fill = policy.on_fill
            choose = policy.victim

        hits_l = []
        hit_append = hits_l.append
        loads = stores = load_misses = store_misses = evictions = writebacks = 0

        try:
            for i, b in enumerate(blocks_l):
                clock += 1
                w = writes_l[i]
                hit_way = -1
                for wy in way_range:
                    s = way_sets[wy][i]
                    if tags[wy][s] == b:
                        hit_way = wy
                        on_hit(wy, s, clock)
                        if w and write_back:
                            dirty[wy][s] = True
                        break
                if hit_way >= 0:
                    if w:
                        stores += 1
                    else:
                        loads += 1
                    hit_append(True)
                    continue
                hit_append(False)
                if w:
                    stores += 1
                    store_misses += 1
                    if not write_back:
                        continue
                else:
                    loads += 1
                    load_misses += 1
                fill_dirty = w and write_back
                target = -1
                for wy in way_range:
                    if tags[wy][way_sets[wy][i]] < 0:
                        target = wy
                        break
                if target < 0:
                    target = choose([way_sets[wy][i] for wy in way_range])
                    s = way_sets[target][i]
                    evictions += 1
                    if dirty[target][s]:
                        writebacks += 1
                s = way_sets[target][i]
                tags[target][s] = b
                dirty[target][s] = fill_dirty
                on_fill(target, s, clock)
        finally:
            if policy is not None:
                policy.kernel_end()

        self._clock = clock
        self._add_counts(loads, stores, load_misses, store_misses, evictions,
                         writebacks)
        return np.array(hits_l, dtype=bool)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchSetAssociativeCache({self._size_bytes}B, {self._ways}-way, "
            f"{self._block_size}B blocks, index={self._index_fn.name})"
        )


class BatchColumnAssociativeCache(_BatchCache):
    """Batch counterpart of :class:`~repro.cache.column_assoc.ColumnAssociativeCache`.

    The two probe indices are computed array-at-a-time; the per-access state
    machine (swap on second-probe hit, displaced-block retreat on miss) runs
    in one kernel and replicates the scalar model's behaviour — including
    its statistics — exactly.  Each frame carries its block's secondary
    index, so a displaced block retreats without being rehashed.
    """

    _LIST_ATTRS = ("_tags", "_dirty", "_sec_of")
    _EXTRA_COUNTERS = ("first_probe_hits", "second_probe_hits",
                       "total_probes")

    def __init__(
        self,
        size_bytes: int,
        block_size: int,
        primary_index: Optional[IndexFunction] = None,
        secondary_index: Optional[IndexFunction] = None,
        swap_on_rehash_hit: bool = True,
        classify_misses: bool = False,
        address_bits: Optional[int] = None,
        replacement: Union[str, ReplacementPolicy, None] = None,
        name: str = "",
    ) -> None:
        if block_size < 1 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if size_bytes % block_size:
            raise ValueError("size_bytes must be a multiple of block_size")
        num_frames = size_bytes // block_size
        if num_frames & (num_frames - 1):
            raise ValueError("number of frames must be a power of two")

        # Accepted and validated for sweep symmetry, but behaviourally inert:
        # the organisation is direct-mapped per probe location, so placement
        # is fully determined (see the scalar model's docstring).
        self._replacement_name, _ = _resolve_batch_replacement(replacement)
        self._block_size = block_size
        self._num_frames = num_frames
        self._primary = primary_index or BitSelectIndexing(num_frames)
        self._secondary = secondary_index or IPolyIndexing(
            num_frames, address_bits=address_bits)
        for fn, label in ((self._primary, "primary"), (self._secondary, "secondary")):
            if fn.num_sets != num_frames:
                raise ValueError(f"{label} index covers {fn.num_sets} sets, "
                                 f"cache has {num_frames} frames")
        self._vec_primary = vectorize_index(self._primary)
        self._vec_secondary = vectorize_index(self._secondary)
        self._swap = bool(swap_on_rehash_hit)
        self._name = name or f"column-{size_bytes // 1024}KB-batch"

        # State: tags, dirty bits and the secondary index of each frame's
        # block, as arrays or as the lists ``_tags``/``_dirty``/``_sec_of``.
        self._reset_state()
        self.stats = CacheStats()
        self.first_probe_hits = 0
        self.second_probe_hits = 0
        self.total_probes = 0
        self._classifier = (
            MissClassifier(num_frames) if classify_misses else None
        )

    def _new_arrays(self):
        frames = self._num_frames
        return (np.full(frames, -1, dtype=np.int64),
                np.zeros(frames, dtype=np.uint8),
                np.zeros(frames, dtype=np.int64))

    def _new_lists(self) -> None:
        self._tags = [-1] * self._num_frames
        self._dirty = [False] * self._num_frames
        self._sec_of = [0] * self._num_frames

    def _arrays_to_lists(self, arrays) -> None:
        tags, dirty, sec_of = arrays
        self._tags = tags.tolist()
        self._dirty = dirty.astype(bool).tolist()
        self._sec_of = sec_of.tolist()

    def _lists_to_arrays(self):
        return (np.array(self._tags, dtype=np.int64),
                np.array(self._dirty, dtype=np.uint8),
                np.array(self._sec_of, dtype=np.int64))

    @property
    def num_frames(self) -> int:
        """Total number of frames (direct-mapped)."""
        return self._num_frames

    @property
    def replacement_name(self) -> str:
        """Configured (inert — see class docstring) replacement policy name."""
        return self._replacement_name

    @property
    def first_probe_hit_ratio(self) -> float:
        """Fraction of hits satisfied on the first probe."""
        hits = self.first_probe_hits + self.second_probe_hits
        return self.first_probe_hits / hits if hits else 0.0

    @property
    def average_probes(self) -> float:
        """Average number of probes per access (>= 1)."""
        return self.total_probes / self.stats.accesses if self.stats.accesses else 0.0

    def resident_blocks(self) -> List[int]:
        """All resident block numbers (order unspecified)."""
        self._lists()
        return [tag for tag in self._tags if tag >= 0]

    def dispatch_strategy(self, batch: AddressBatch) -> str:
        """Name of the kernel :meth:`run` would execute for ``batch``:
        ``"compiled-column-associative"`` when the C library is available,
        ``"column-associative"`` (the Python loop) otherwise."""
        if ckernels.available():
            return "compiled-column-associative"
        return "column-associative"

    def run(self, batch: AddressBatch) -> np.ndarray:
        """Simulate a whole batch; returns the per-access hit mask (bool)."""
        n = len(batch)
        if n == 0:
            return np.zeros(0, dtype=bool)
        strategy = self.dispatch_strategy(batch)
        blocks = cached_block_numbers(batch, self._block_size)
        primary = cached_set_indices(self._vec_primary, blocks, 0)
        secondary = cached_set_indices(self._vec_secondary, blocks, 0)
        if strategy == "column-associative":
            hits = self._run_python(blocks, primary, secondary,
                                    batch.is_write)
        else:
            tags, dirty, sec_of = self._arrays()
            hits, counts = ckernels.run_column(
                blocks, np.ascontiguousarray(batch.is_write).view(np.uint8),
                primary, secondary, swap=self._swap, tags=tags, dirty=dirty,
                sec_of=sec_of)
            self._add_counts(*counts.tolist())
        if self._classifier is not None:
            _classify_over_hits(self._classifier, self.stats, blocks, hits)
        return hits

    def _run_python(self, blocks: np.ndarray, primary: np.ndarray,
                    secondary: np.ndarray, is_write: np.ndarray) -> np.ndarray:
        self._lists()
        tags = self._tags
        dirty = self._dirty
        sec_of = self._sec_of
        swap = self._swap

        hits_l = []
        hit_append = hits_l.append
        loads = stores = load_misses = store_misses = evictions = 0
        first_hits = second_hits = probes_total = 0

        for b, p, s, w in zip(blocks.tolist(), primary.tolist(),
                              secondary.tolist(), is_write.tolist()):
            first_hit = tags[p] == b
            second_hit = (not first_hit) and s != p and tags[s] == b
            hit = first_hit or second_hit
            probes_total += 1 if first_hit else 2

            if w:
                stores += 1
                if not hit:
                    store_misses += 1
            else:
                loads += 1
                if not hit:
                    load_misses += 1
            hit_append(hit)

            if first_hit:
                first_hits += 1
                continue
            displaced = tags[p]
            displaced_dirty = dirty[p]
            displaced_sec = sec_of[p]
            if second_hit:
                second_hits += 1
                if swap:
                    # Promote the block to its primary slot; the displaced
                    # primary occupant retreats to the secondary slot (and,
                    # as in the scalar model, the promoted line comes back
                    # clean).
                    tags[p] = b
                    dirty[p] = False
                    sec_of[p] = s
                    if displaced >= 0:
                        tags[s] = displaced
                        dirty[s] = displaced_dirty
                        sec_of[s] = displaced_sec
                    else:
                        tags[s] = -1
                        dirty[s] = False
                continue
            # Miss: install at the primary slot; its previous occupant
            # retreats to its own secondary slot.
            tags[p] = b
            dirty[p] = False
            sec_of[p] = s
            if displaced < 0:
                continue
            if displaced_sec == p:
                evictions += 1
                continue
            if tags[displaced_sec] >= 0:
                evictions += 1
            tags[displaced_sec] = displaced
            dirty[displaced_sec] = displaced_dirty
            sec_of[displaced_sec] = displaced_sec

        self._add_counts(loads, stores, load_misses, store_misses, evictions,
                         0, first_hits, second_hits, probes_total)
        return np.array(hits_l, dtype=bool)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchColumnAssociativeCache({self._num_frames} frames, "
                f"{self._block_size}B blocks)")


class BatchVictimCache(_BatchCache):
    """Batch counterpart of :class:`~repro.cache.victim.VictimCache`.

    A main cache backed by a small fully-associative victim buffer, run as
    one kernel over pre-vectorized main-cache indices.  The per-access
    state machine replicates the scalar model exactly: a main miss probes
    the buffer; a buffer hit invalidates the entry and refills the main
    cache; any line the main cache displaces is stashed in the buffer; and a
    dirty line falling out of the buffer counts as a writeback on
    :attr:`stats` (the only writeback the scalar model surfaces).  Both
    structures honour the same ``replacement`` policy names as the scalar
    cache, with independent policy state per structure — so the whole
    organisation is differential-testable policy-for-policy.

    :meth:`run` returns the per-access overall hit mask; :attr:`main_hits`
    and :attr:`victim_hits` split the hits like the scalar model.
    """

    _LIST_ATTRS = ("_way_tags", "_way_dirty", "_victim_tags", "_victim_dirty")
    _EXTRA_COUNTERS = ("main_hits", "victim_hits")

    def __init__(
        self,
        size_bytes: int,
        block_size: int,
        ways: int = 1,
        victim_entries: int = 8,
        index_function: Optional[IndexFunction] = None,
        replacement: Union[str, ReplacementPolicy, None] = None,
        name: str = "",
    ) -> None:
        if victim_entries < 1:
            raise ValueError("victim_entries must be positive")
        self._num_sets, index_function = _check_geometry(
            size_bytes, block_size, ways, index_function)
        self._size_bytes = size_bytes
        self._block_size = block_size
        self._ways = ways
        self._index_fn = index_function
        self._vec_index = vectorize_index(index_function)
        self._skewed = index_function.is_skewed
        self._replacement_name, random_seed = _resolve_batch_replacement(
            replacement)
        self._entries = victim_entries
        self._name = name or f"victim-{size_bytes // 1024}KB+{victim_entries}-batch"

        # Main-cache state (per-way tags/dirty) and victim-buffer state (one
        # set of `victim_entries` ways), each with its own policy tables and
        # clock.  Array layout: (tags, dirty, buffer tags, buffer dirty).
        self._main_policy = make_vec_replacement(
            self._replacement_name, ways, self._num_sets, seed=random_seed)
        self._victim_policy = make_vec_replacement(
            self._replacement_name, victim_entries, 1, seed=random_seed)
        self._main_clock = 0
        self._victim_clock = 0
        self._reset_state()

        self.stats = CacheStats()
        self.main_hits = 0
        self.victim_hits = 0

    def _new_arrays(self):
        shape = (self._ways, self._num_sets)
        return (np.full(shape, -1, dtype=np.int64),
                np.zeros(shape, dtype=np.uint8),
                np.full(self._entries, -1, dtype=np.int64),
                np.zeros(self._entries, dtype=np.uint8))

    def _new_lists(self) -> None:
        self._way_tags = [[-1] * self._num_sets for _ in range(self._ways)]
        self._way_dirty = [[False] * self._num_sets for _ in range(self._ways)]
        self._victim_tags = [-1] * self._entries
        self._victim_dirty = [False] * self._entries

    def _arrays_to_lists(self, arrays) -> None:
        tags, dirty, vtags, vdirty = arrays
        self._way_tags = tags.tolist()
        self._way_dirty = dirty.astype(bool).tolist()
        self._victim_tags = vtags.tolist()
        self._victim_dirty = vdirty.astype(bool).tolist()

    def _lists_to_arrays(self):
        return (np.array(self._way_tags, dtype=np.int64),
                np.array(self._way_dirty, dtype=np.uint8),
                np.array(self._victim_tags, dtype=np.int64),
                np.array(self._victim_dirty, dtype=np.uint8))

    @property
    def victim_entries(self) -> int:
        """Number of lines in the victim buffer."""
        return self._entries

    @property
    def replacement_name(self) -> str:
        """Replacement policy applied to the main cache and the buffer."""
        return self._replacement_name

    @property
    def miss_ratio(self) -> float:
        """Overall miss ratio (misses in both structures)."""
        return self.stats.miss_ratio

    @property
    def victim_hit_ratio(self) -> float:
        """Fraction of all accesses satisfied by the victim buffer."""
        return self.victim_hits / self.stats.accesses if self.stats.accesses else 0.0

    def resident_blocks(self) -> List[int]:
        """Blocks resident in the main cache or the buffer (order unspecified)."""
        self._lists()
        return [tag for tags in self._way_tags + [self._victim_tags]
                for tag in tags if tag >= 0]

    def dispatch_strategy(self, batch: AddressBatch) -> str:
        """Name of the kernel :meth:`run` would execute for ``batch``:
        ``"compiled-victim-{lru,fifo,random,plru}"`` when the C library is
        available, ``"victim-generic-kernel"`` otherwise."""
        if ckernels.available():
            return f"compiled-victim-{self._replacement_name}"
        return "victim-generic-kernel"

    def run(self, batch: AddressBatch) -> np.ndarray:
        """Simulate a whole batch; returns the per-access overall hit mask.

        The kernel is picked by :meth:`dispatch_strategy`.
        """
        n = len(batch)
        if n == 0:
            return np.zeros(0, dtype=bool)
        strategy = self.dispatch_strategy(batch)
        blocks = cached_block_numbers(batch, self._block_size)
        if strategy == "victim-generic-kernel":
            return self._run_generic_kernel(blocks, batch.is_write)
        return self._run_compiled(blocks, batch.is_write)

    def _run_compiled(self, blocks: np.ndarray,
                      is_write: np.ndarray) -> np.ndarray:
        tags, dirty, vtags, vdirty = self._arrays()
        stamps, bits, seed, draws = _policy_tables(self._main_policy)
        vstamps, vbits, vseed, vdraws = _policy_tables(self._victim_policy)
        io = np.array([self._main_clock, self._victim_clock, draws, vdraws],
                      dtype=np.int64)
        hits, counts = ckernels.run_victim(
            blocks, np.ascontiguousarray(is_write).view(np.uint8),
            _way_indices(self, blocks), policy=self._replacement_name, tags=tags, dirty=dirty,
            stamps=stamps, bits=bits, seed=seed, vtags=vtags, vdirty=vdirty,
            vstamps=vstamps, vbits=vbits, vseed=vseed, io=io)
        self._main_clock, self._victim_clock, draws, vdraws = io.tolist()
        if self._replacement_name == "random":
            self._main_policy.counter = draws
            self._victim_policy.counter = vdraws
        self._add_counts(*counts.tolist())
        return hits

    def _run_generic_kernel(self, blocks: np.ndarray,
                            is_write: np.ndarray) -> np.ndarray:
        """The Python victim kernel (any geometry, any policy): the
        fallback when the compiled kernels are unavailable."""
        self._lists()
        way_sets = _way_indices(self, blocks, as_lists=True)
        blocks_l = blocks.tolist()
        writes_l = is_write.tolist()
        tags = self._way_tags
        dirty = self._way_dirty
        vtags = self._victim_tags
        vdirty = self._victim_dirty
        entries = self._entries
        entry_range = range(entries)
        way_range = range(self._ways)
        #: Candidate sets of the single-set victim buffer (one per entry).
        buffer_sets = [0] * entries
        main_clock = self._main_clock
        victim_clock = self._victim_clock
        main_policy = self._main_policy
        victim_policy = self._victim_policy
        main_policy.kernel_begin()
        victim_policy.kernel_begin()

        hits_l = []
        hit_append = hits_l.append
        loads = stores = load_misses = store_misses = writebacks = 0
        main_hits = victim_hits = 0

        try:
            for i, b in enumerate(blocks_l):
                w = writes_l[i]
                # Probe the main cache.
                hit_way = -1
                for wy in way_range:
                    s = way_sets[wy][i]
                    if tags[wy][s] == b:
                        hit_way = wy
                        break
                if hit_way >= 0:
                    main_clock += 1
                    main_policy.on_hit(hit_way, s, main_clock)
                    if w:
                        dirty[hit_way][s] = True  # main cache is write-back
                        stores += 1
                    else:
                        loads += 1
                    main_hits += 1
                    hit_append(True)
                    continue
                # Main miss: probe the victim buffer.
                victim_slot = -1
                for j in entry_range:
                    if vtags[j] == b:
                        victim_slot = j
                        break
                victim_hit = victim_slot >= 0
                if w:
                    stores += 1
                    if not victim_hit:
                        store_misses += 1
                else:
                    loads += 1
                    if not victim_hit:
                        load_misses += 1
                hit_append(victim_hit)
                if victim_hit:
                    victim_hits += 1
                    # The promoted entry leaves the buffer; the line the main
                    # cache displaces will take a slot below.
                    vtags[victim_slot] = -1
                    vdirty[victim_slot] = False
                # Refill the main cache (write-back / write-allocate).
                main_clock += 1
                fill_dirty = bool(w)
                target = -1
                for wy in way_range:
                    if tags[wy][way_sets[wy][i]] < 0:
                        target = wy
                        break
                evicted = -1
                evicted_dirty = False
                if target < 0:
                    target = main_policy.victim(
                        [way_sets[wy][i] for wy in way_range])
                    s = way_sets[target][i]
                    evicted = tags[target][s]
                    evicted_dirty = dirty[target][s]
                s = way_sets[target][i]
                tags[target][s] = b
                dirty[target][s] = fill_dirty
                main_policy.on_fill(target, s, main_clock)
                if evicted < 0:
                    continue
                # Stash the displaced line in the victim buffer.
                victim_clock += 1
                slot = -1
                for j in entry_range:
                    if vtags[j] < 0:
                        slot = j
                        break
                if slot < 0:
                    slot = victim_policy.victim(buffer_sets)
                    if vdirty[slot]:
                        # A dirty line falling out of the buffer would be
                        # written back to the next level.
                        writebacks += 1
                vtags[slot] = evicted
                vdirty[slot] = evicted_dirty
                victim_policy.on_fill(slot, 0, victim_clock)
        finally:
            main_policy.kernel_end()
            victim_policy.kernel_end()

        self._main_clock = main_clock
        self._victim_clock = victim_clock
        self._add_counts(loads, stores, load_misses, store_misses, 0,
                         writebacks, main_hits, victim_hits)
        return np.array(hits_l, dtype=bool)

    def flush(self) -> None:
        """Empty both structures (statistics are preserved)."""
        self._reset_state()
        self._main_policy.reset()
        self._victim_policy.reset()
        self._main_clock = 0
        self._victim_clock = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchVictimCache({self._size_bytes}B, {self._ways}-way, "
                f"+{self._entries} victim entries)")
