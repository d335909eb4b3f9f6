"""Batch cache simulators: whole-trace simulation over NumPy address arrays.

This module is the heart of the vectorized engine.  It simulates the same
cache organisations as the scalar models in :mod:`repro.cache` —
set-associative (conventional or skewed, either write policy) and
column-associative — but consumes an :class:`~repro.engine.batch.AddressBatch`
instead of one :class:`~repro.trace.record.MemoryAccess` at a time, and is
bit-exact with the scalar models by construction (the differential suite in
``tests/test_engine_equivalence.py`` asserts identical hit/miss sequences and
identical final :class:`~repro.cache.stats.CacheStats`).

Kernels, picked per cache configuration by ``dispatch_strategy``:

* ``lru-dict`` — conventional LRU, any ways
  (:meth:`BatchSetAssociativeCache._run_dict_kernel`): one insertion-ordered
  dict per set, LRU-first, over pre-vectorized set indices.
* ``trace-order-{lru,fifo,random,plru}`` — skewed placement with any ways
  and policy, and conventional non-LRU with at most two ways
  (:mod:`repro.engine.skew_decompose`): per-way index streams (the way-0
  stream repeated for a conventional cache) and a tight policy-specific
  loop in global trace order; LRU and FIFO share one stamp kernel.
* ``set-decomposed-{fifo,random,plru}`` — conventional non-LRU with more
  than two ways (:mod:`repro.engine.set_decompose`): accesses grouped per
  set and simulated over dense per-set state, which keeps wide and
  fully-associative conventional caches tractable.
* ``generic-policy-kernel`` — non-LRU with the 3C classifier
  (:meth:`BatchSetAssociativeCache._run_policy_kernel`): a per-way flat-list
  kernel whose decisions come from the NumPy-backed state tables in
  :mod:`repro.engine.replacement_vec`, calling the classifier in global
  order with per-access hit context.  It remains the reference the
  specialised kernels are tested against; all non-LRU kernels share its
  state tables, so any of them can continue another's cache.

Every kernel supports stores under both write policies and warm caches.

:class:`BatchColumnAssociativeCache` runs one two-probe kernel replicating
:class:`~repro.cache.column_assoc.ColumnAssociativeCache`'s
swap-on-second-probe-hit and displaced-block retreat exactly.
:class:`BatchVictimCache` runs the decomposed victim kernels of
:mod:`repro.engine.skew_decompose` (``victim-decomposed-*``) for main caches
of one or two ways and ``victim-generic-kernel`` for wider ones, replicating
:class:`~repro.cache.victim.VictimCache` — swap-on-victim-hit, displaced
lines stashed in the buffer, dirty lines falling out of the buffer counted
as writebacks — exactly.

Every cache exposes ``dispatch_strategy(batch)`` — the name of the kernel
``run`` will execute — as the dispatcher's single source of truth, which
the differential suite introspects to prove each path is covered.

Block-number and set-index arrays are obtained through the sweep-wide memo
tables of :mod:`repro.engine.memo` (including the plain-list views the
tight kernels iterate), so tasks that share one materialised trace (see
:mod:`repro.trace.batching`) also share the derived arrays.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from ..cache.replacement import (
    RandomReplacement,
    ReplacementPolicy,
    replacement_policy_name,
)
from ..cache.set_assoc import WritePolicy
from ..cache.stats import CacheStats, MissClassifier, MissKind
from ..core.index import BitSelectIndexing, IndexFunction, IPolyIndexing
from .batch import AddressBatch
from .index_vec import VectorizedIndex, _VecIPoly, vectorize_index
from .memo import (
    cached_block_numbers,
    cached_set_index_lists,
    cached_set_indices,
)
from .replacement_vec import VecReplacementState, make_vec_replacement
from .set_decompose import run_decomposed_policy
from .skew_decompose import run_trace_order, run_victim_decomposed

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


class BatchSetAssociativeCache:
    """Batch counterpart of :class:`~repro.cache.set_assoc.SetAssociativeCache`.

    Construction mirrors the scalar cache (same geometry validation, same
    defaults); :meth:`run` consumes an :class:`AddressBatch` and returns the
    per-access hit mask while accumulating into :attr:`stats`.  State persists
    across calls, so a cache can be warmed with one batch and measured with
    the next, exactly like the scalar model.
    """

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
        if write_policy not in WritePolicy.ALL:
            raise ValueError(f"unknown write policy {write_policy!r}")

        self._size_bytes = size_bytes
        self._block_size = block_size
        self._ways = ways
        self._num_sets = size_bytes // (block_size * ways)
        if self._num_sets & (self._num_sets - 1):
            raise ValueError(
                f"number of sets must be a power of two, got {self._num_sets}"
            )
        if index_function is None:
            index_function = BitSelectIndexing(self._num_sets)
        if index_function.num_sets != self._num_sets:
            raise ValueError(
                f"index function covers {index_function.num_sets} sets but the "
                f"cache has {self._num_sets}"
            )
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
        # Conventional LRU state: one dict per set mapping block -> dirty, in
        # LRU-to-MRU insertion order.  Skewed LRU and every non-LRU policy:
        # per-way flat tag / dirty lists (tag -1 == invalid frame), with
        # last-used timestamps in the cache (LRU) or in the policy state
        # tables of :mod:`repro.engine.replacement_vec` (everything else).
        self._use_flat = self._skewed or self._replacement_name != "lru"
        self._vec_policy: Optional[VecReplacementState] = None
        if self._use_flat:
            self._way_tags = [[-1] * self._num_sets for _ in range(ways)]
            self._way_used = [[0] * self._num_sets for _ in range(ways)]
            self._way_dirty = [[False] * self._num_sets for _ in range(ways)]
            self._sets: List[Dict[int, bool]] = []
            if self._replacement_name != "lru":
                self._vec_policy = make_vec_replacement(
                    self._replacement_name, ways, self._num_sets,
                    seed=random_seed)
        else:
            self._sets = [dict() for _ in range(self._num_sets)]

    # ------------------------------------------------------------------ #
    # introspection (mirrors the scalar cache)
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """Human-readable label for reports."""
        return self._name

    @property
    def size_bytes(self) -> int:
        """Total capacity in bytes."""
        return self._size_bytes

    @property
    def block_size(self) -> int:
        """Line size in bytes."""
        return self._block_size

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
        if self._use_flat:
            for tags in self._way_tags:
                tags[:] = [-1] * self._num_sets
            for used in self._way_used:
                used[:] = [0] * self._num_sets
            for dirty in self._way_dirty:
                dirty[:] = [False] * self._num_sets
            if self._vec_policy is not None:
                self._vec_policy.reset()
        else:
            for d in self._sets:
                d.clear()
        if self._classifier is not None:
            self._classifier.reset()

    def _snapshot_state(self):
        """Deep copy of simulation state + statistics for epoch rewind."""
        stats = self.stats
        counters = (stats.loads, stats.stores, stats.load_misses,
                    stats.store_misses, stats.evictions, stats.writebacks,
                    stats.invalidations, stats.holes_created,
                    dict(stats.miss_kinds))
        policy_snap = (self._vec_policy.state_snapshot()
                       if self._vec_policy is not None else None)
        if self._use_flat:
            state = ([list(row) for row in self._way_tags],
                     [list(row) for row in self._way_used],
                     [list(row) for row in self._way_dirty])
        else:
            state = [d.copy() for d in self._sets]
        return self._clock, state, counters, policy_snap

    def _restore_state(self, snapshot) -> None:
        """Restore a :meth:`_snapshot_state` copy (state, stats, policy, clock)."""
        clock, state, counters, policy_snap = snapshot
        self._clock = clock
        stats = self.stats
        (stats.loads, stats.stores, stats.load_misses, stats.store_misses,
         stats.evictions, stats.writebacks, stats.invalidations,
         stats.holes_created, kinds) = counters
        stats.miss_kinds = dict(kinds)
        if self._vec_policy is not None:
            self._vec_policy.state_restore(policy_snap)
        if self._use_flat:
            tags, used, dirty = state
            for dst, src in zip(self._way_tags, tags):
                dst[:] = list(src)
            for dst, src in zip(self._way_used, used):
                dst[:] = list(src)
            for dst, src in zip(self._way_dirty, dirty):
                dst[:] = list(src)
        else:
            for dst, src in zip(self._sets, state):
                dst.clear()
                dst.update(src)

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #

    def dispatch_strategy(self, batch: AddressBatch) -> str:
        """Name of the kernel :meth:`run` would execute for ``batch``.

        The dispatcher's single source of truth — :meth:`run` switches on
        exactly this value, so tests can introspect which kernel serves a
        given (organisation, policy) combination.  The route depends only
        on the configuration; ``batch`` is accepted so every batch cache
        shares one signature.  Possible values:

        * ``"lru-dict"`` — conventional LRU, any ways, with or without the
          3C classifier;
        * ``"trace-order-{lru,fifo,random,plru}"`` — skewed placement (any
          ways, any policy), and conventional non-LRU with at most two ways
          (:mod:`repro.engine.skew_decompose`);
        * ``"set-decomposed-{fifo,random,plru}"`` — conventional non-LRU
          with more than two ways (:mod:`repro.engine.set_decompose`);
        * ``"generic-policy-kernel"`` — non-LRU with the 3C classifier.
        """
        name = self._replacement_name
        if name != "lru" and self._classifier is not None:
            return "generic-policy-kernel"
        if self._skewed or (name != "lru" and self._ways <= 2):
            return f"trace-order-{name}"
        if name != "lru":
            return f"set-decomposed-{name}"
        return "lru-dict"

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
        if strategy.startswith("trace-order-"):
            return run_trace_order(self, blocks, batch.is_write)
        if strategy.startswith("set-decomposed-"):
            sets = cached_set_indices(self._vec_index, blocks, 0)
            return run_decomposed_policy(self, blocks, sets, batch.is_write)
        if strategy == "generic-policy-kernel":
            return self._run_policy_kernel(blocks, batch.is_write)
        return self._run_dict_kernel(blocks, batch.is_write)

    def run_chunks(self, chunks: Iterable[AddressBatch]) -> int:
        """Consume a stream of batches; returns the accesses simulated.

        The chunk-consume entry point of the streaming trace layer
        (:func:`repro.trace.stream.iter_trace_chunks`): state and statistics
        carry across chunks exactly as across :meth:`run` calls, so a
        chunked replay is bit-exact with one ``run()`` over the whole trace
        — the route depends only on the configuration, so every chunk runs
        the kernel a one-shot run would.
        """
        total = 0
        for batch in chunks:
            self.run(batch)
            total += len(batch)
        return total

    # -- conventional LRU: insertion-ordered dict kernel ---------------- #

    def _run_dict_kernel(self, blocks: np.ndarray,
                         is_write: np.ndarray) -> np.ndarray:
        n = blocks.shape[0]
        sets_l = cached_set_index_lists(self._vec_index, blocks, 0)
        blocks_l = blocks.tolist()
        writes_l = is_write.tolist()
        sets_state = self._sets
        ways = self._ways
        write_back = self._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
        classifier = self._classifier
        stats = self.stats

        hits_l = []
        hit_append = hits_l.append
        loads = stores = load_misses = store_misses = evictions = writebacks = 0
        kinds = {MissKind.COMPULSORY: 0, MissKind.CAPACITY: 0, MissKind.CONFLICT: 0}

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
                if classifier is not None:
                    classifier.classify(b, True)
                continue
            # Miss.
            hit_append(False)
            if classifier is not None:
                kind = classifier.classify(b, False)
                kinds[kind] += 1
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
        stats.loads += loads
        stats.stores += stores
        stats.load_misses += load_misses
        stats.store_misses += store_misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        if classifier is not None:
            for kind, count in kinds.items():
                stats.miss_kinds[kind] += count
        return np.array(hits_l, dtype=bool)

    # -- generic replacement kernel (reference; 3C-classifying non-LRU) -- #

    def _run_policy_kernel(self, blocks: np.ndarray,
                           is_write: np.ndarray) -> np.ndarray:
        ways = self._ways
        if self._skewed:
            way_sets = [
                cached_set_index_lists(self._vec_index, blocks, w)
                for w in range(ways)
            ]
        else:
            shared = cached_set_index_lists(self._vec_index, blocks, 0)
            way_sets = [shared] * ways
        blocks_l = blocks.tolist()
        writes_l = is_write.tolist()
        tags = self._way_tags
        dirty = self._way_dirty
        write_back = self._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
        classifier = self._classifier
        stats = self.stats
        clock = self._clock
        way_range = range(ways)
        policy = self._vec_policy
        policy.kernel_begin()
        on_hit = policy.on_hit
        on_fill = policy.on_fill
        choose = policy.victim

        hits_l = []
        hit_append = hits_l.append
        loads = stores = load_misses = store_misses = evictions = writebacks = 0
        kinds = {MissKind.COMPULSORY: 0, MissKind.CAPACITY: 0, MissKind.CONFLICT: 0}

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
                    if classifier is not None:
                        classifier.classify(b, True)
                    continue
                hit_append(False)
                if classifier is not None:
                    kind = classifier.classify(b, False)
                    kinds[kind] += 1
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
            policy.kernel_end()

        self._clock = clock
        stats.loads += loads
        stats.stores += stores
        stats.load_misses += load_misses
        stats.store_misses += store_misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        if classifier is not None:
            for kind, count in kinds.items():
                stats.miss_kinds[kind] += count
        return np.array(hits_l, dtype=bool)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchSetAssociativeCache({self._size_bytes}B, {self._ways}-way, "
            f"{self._block_size}B blocks, index={self._index_fn.name})"
        )


class BatchColumnAssociativeCache:
    """Batch counterpart of :class:`~repro.cache.column_assoc.ColumnAssociativeCache`.

    The two probe indices are computed array-at-a-time; the per-access state
    machine (swap on second-probe hit, displaced-block retreat on miss) runs
    in a tight kernel over flat tag/dirty lists and replicates the scalar
    model's behaviour — including its statistics — exactly.
    """

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
        # Scalar rehash of an arbitrary (displaced) block: the GF(2) chunk
        # tables make this a couple of list lookups for I-Poly functions.
        if isinstance(self._vec_secondary, _VecIPoly):
            self._rehash_scalar: Callable[[int], int] = (
                self._vec_secondary.table_for_way(0).reduce_scalar)
        else:
            self._rehash_scalar = self._secondary.index
        self._swap = bool(swap_on_rehash_hit)
        self._name = name or f"column-{size_bytes // 1024}KB-batch"

        self._tags = [-1] * num_frames
        self._dirty = [False] * num_frames
        self.stats = CacheStats()
        self.first_probe_hits = 0
        self.second_probe_hits = 0
        self.total_probes = 0
        self._classifier = (
            MissClassifier(num_frames) if classify_misses else None
        )

    @property
    def name(self) -> str:
        """Label used in reports."""
        return self._name

    @property
    def block_size(self) -> int:
        """Line size in bytes."""
        return self._block_size

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

    def run(self, batch: AddressBatch) -> np.ndarray:
        """Simulate a whole batch; returns the per-access hit mask (bool)."""
        n = len(batch)
        if n == 0:
            return np.zeros(0, dtype=bool)
        blocks = cached_block_numbers(batch, self._block_size)
        prim_l = cached_set_indices(self._vec_primary, blocks, 0).tolist()
        sec_l = cached_set_indices(self._vec_secondary, blocks, 0).tolist()
        blocks_l = blocks.tolist()
        writes_l = batch.is_write.tolist()
        tags = self._tags
        dirty = self._dirty
        swap = self._swap
        rehash = self._rehash_scalar
        classifier = self._classifier
        stats = self.stats

        hits_l = []
        hit_append = hits_l.append
        loads = stores = load_misses = store_misses = evictions = 0
        first_hits = second_hits = probes_total = 0
        kinds = {MissKind.COMPULSORY: 0, MissKind.CAPACITY: 0, MissKind.CONFLICT: 0}

        for b, p, s, w in zip(blocks_l, prim_l, sec_l, writes_l):
            first_hit = tags[p] == b
            second_hit = (not first_hit) and s != p and tags[s] == b
            hit = first_hit or second_hit
            probes_total += 1 if first_hit else 2

            if classifier is not None:
                kind = classifier.classify(b, hit)
                if kind is not None:
                    kinds[kind] += 1
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
            if second_hit:
                second_hits += 1
                if swap:
                    # Promote the block to its primary slot; the displaced
                    # primary occupant retreats to the secondary slot (and,
                    # as in the scalar model, the promoted line comes back
                    # clean).
                    displaced = tags[p]
                    displaced_dirty = dirty[p]
                    tags[p] = b
                    dirty[p] = False
                    if displaced >= 0:
                        tags[s] = displaced
                        dirty[s] = displaced_dirty
                    else:
                        tags[s] = -1
                        dirty[s] = False
                continue
            # Miss: install at the primary slot; its previous occupant
            # retreats to that block's own rehash location.
            if tags[p] < 0:
                tags[p] = b
                dirty[p] = False
                continue
            displaced = tags[p]
            displaced_dirty = dirty[p]
            tags[p] = b
            dirty[p] = False
            retreat = rehash(displaced)
            if retreat == p:
                evictions += 1
                continue
            if tags[retreat] >= 0:
                evictions += 1
            tags[retreat] = displaced
            dirty[retreat] = displaced_dirty

        stats.loads += loads
        stats.stores += stores
        stats.load_misses += load_misses
        stats.store_misses += store_misses
        stats.evictions += evictions
        if classifier is not None:
            for kind, count in kinds.items():
                stats.miss_kinds[kind] += count
        self.first_probe_hits += first_hits
        self.second_probe_hits += second_hits
        self.total_probes += probes_total
        return np.array(hits_l, dtype=bool)

    def run_chunks(self, chunks: Iterable[AddressBatch]) -> int:
        """Consume a stream of batches (see
        :meth:`BatchSetAssociativeCache.run_chunks`); returns the accesses
        simulated.  State, statistics and probe counters carry across
        chunks, so chunked replay is bit-exact with a one-shot run."""
        total = 0
        for batch in chunks:
            self.run(batch)
            total += len(batch)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchColumnAssociativeCache({self._num_frames} frames, "
                f"{self._block_size}B blocks)")


class BatchVictimCache:
    """Batch counterpart of :class:`~repro.cache.victim.VictimCache`.

    A main cache backed by a small fully-associative victim buffer, run as
    one tight kernel over pre-vectorized main-cache indices.  The per-access
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
        self._size_bytes = size_bytes
        self._block_size = block_size
        self._ways = ways
        self._num_sets = size_bytes // (block_size * ways)
        if self._num_sets & (self._num_sets - 1):
            raise ValueError(
                f"number of sets must be a power of two, got {self._num_sets}"
            )
        if index_function is None:
            index_function = BitSelectIndexing(self._num_sets)
        if index_function.num_sets != self._num_sets:
            raise ValueError(
                f"index function covers {index_function.num_sets} sets but the "
                f"cache has {self._num_sets}"
            )
        self._index_fn = index_function
        self._vec_index = vectorize_index(index_function)
        self._skewed = index_function.is_skewed
        self._replacement_name, random_seed = _resolve_batch_replacement(
            replacement)
        self._entries = victim_entries
        self._name = name or f"victim-{size_bytes // 1024}KB+{victim_entries}-batch"

        # Main-cache state (per-way flat lists) and its policy tables.
        self._way_tags = [[-1] * self._num_sets for _ in range(ways)]
        self._way_dirty = [[False] * self._num_sets for _ in range(ways)]
        self._main_policy = make_vec_replacement(
            self._replacement_name, ways, self._num_sets, seed=random_seed)
        self._main_clock = 0
        # Victim-buffer state (one set of `victim_entries` ways).
        self._victim_tags = [-1] * victim_entries
        self._victim_dirty = [False] * victim_entries
        self._victim_policy = make_vec_replacement(
            self._replacement_name, victim_entries, 1, seed=random_seed)
        self._victim_clock = 0

        self.stats = CacheStats()
        self.main_hits = 0
        self.victim_hits = 0

    @property
    def name(self) -> str:
        """Label used in reports."""
        return self._name

    @property
    def block_size(self) -> int:
        """Line size in bytes."""
        return self._block_size

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

    def dispatch_strategy(self, batch: AddressBatch) -> str:
        """Name of the kernel :meth:`run` would execute for ``batch``.

        ``"victim-decomposed-{lru,fifo,random,plru}"`` for a 1- or 2-way
        main cache (the decomposed kernels of
        :mod:`repro.engine.skew_decompose`, with the buffer as a dense
        side-structure); ``"victim-generic-kernel"`` for wider main caches.
        """
        if self._ways <= 2:
            return f"victim-decomposed-{self._replacement_name}"
        return "victim-generic-kernel"

    def run(self, batch: AddressBatch) -> np.ndarray:
        """Simulate a whole batch; returns the per-access overall hit mask.

        The kernel is picked by :meth:`dispatch_strategy`.
        """
        n = len(batch)
        if n == 0:
            return np.zeros(0, dtype=bool)
        blocks = cached_block_numbers(batch, self._block_size)
        if self.dispatch_strategy(batch).startswith("victim-decomposed-"):
            return run_victim_decomposed(self, blocks, batch.is_write)
        return self._run_generic_kernel(blocks, batch.is_write)

    def run_chunks(self, chunks: Iterable[AddressBatch]) -> int:
        """Consume a stream of batches (see
        :meth:`BatchSetAssociativeCache.run_chunks`); returns the accesses
        simulated.  Main-cache and victim-buffer state carry across chunks,
        so chunked replay is bit-exact with a one-shot run."""
        total = 0
        for batch in chunks:
            self.run(batch)
            total += len(batch)
        return total

    def _run_generic_kernel(self, blocks: np.ndarray,
                            is_write: np.ndarray) -> np.ndarray:
        """The retained per-access victim kernel (any geometry, any policy).

        Serves main caches wider than two ways, and remains the reference
        implementation the differential suite pits the decomposed victim
        kernels of :mod:`repro.engine.skew_decompose` against.
        """
        ways = self._ways
        if self._skewed:
            way_sets = [
                cached_set_index_lists(self._vec_index, blocks, w)
                for w in range(ways)
            ]
        else:
            shared = cached_set_index_lists(self._vec_index, blocks, 0)
            way_sets = [shared] * ways
        blocks_l = blocks.tolist()
        writes_l = is_write.tolist()
        tags = self._way_tags
        dirty = self._way_dirty
        vtags = self._victim_tags
        vdirty = self._victim_dirty
        entries = self._entries
        entry_range = range(entries)
        way_range = range(ways)
        #: Candidate sets of the single-set victim buffer (one per entry).
        buffer_sets = [0] * entries
        stats = self.stats
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
        stats.loads += loads
        stats.stores += stores
        stats.load_misses += load_misses
        stats.store_misses += store_misses
        stats.writebacks += writebacks
        self.main_hits += main_hits
        self.victim_hits += victim_hits
        return np.array(hits_l, dtype=bool)

    def flush(self) -> None:
        """Empty both structures (statistics are preserved)."""
        for tags in self._way_tags:
            tags[:] = [-1] * self._num_sets
        for d in self._way_dirty:
            d[:] = [False] * self._num_sets
        self._victim_tags[:] = [-1] * self._entries
        self._victim_dirty[:] = [False] * self._entries
        self._main_policy.reset()
        self._victim_policy.reset()
        self._main_clock = 0
        self._victim_clock = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchVictimCache({self._size_bytes}B, {self._ways}-way, "
                f"+{self._entries} victim entries)")
