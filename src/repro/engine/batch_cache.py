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

Kernels: each cache's ``run`` picks a kernel module once — ``kernels =
ckernels if ckernels.available() else pykernels`` — and makes one call.

* :mod:`repro.engine.ckernels`: one generic C kernel per family, used
  whenever the library builds, plus an O(1)-per-access path for one-set
  caches (``dispatch_strategy`` names
  ``compiled-set-assoc-{lru,fifo,random,plru}``,
  ``compiled-fully-assoc-{lru,fifo,random,plru}``,
  ``compiled-victim-{lru,fifo,random,plru}`` and
  ``compiled-column-associative``).
* :mod:`repro.engine.pykernels`: the same kernels in Python, function for
  function, without a C compiler (``generic-policy-kernel``,
  ``python-fully-assoc-{lru,fifo,random,plru}``,
  ``victim-generic-kernel`` and ``column-associative``).

Each cache builds its placement descriptor once, at construction
(:func:`~repro.engine.index_vec.placement`: one way-function for a
conventional cache, one per way for a skewed one), and the kernels compute
every access's candidate sets from it; an index function outside the
registered families is rejected there with ``ValueError``.  A 3C-classifying
cache replays its :class:`~repro.cache.stats.MissClassifier` over the
finished hit mask: the shadow sees only (block, hit) in trace order.  Every
kernel supports stores under both write policies and warm caches.

State is NumPy arrays only — tags, dirty bits and one
:class:`~repro.engine.replacement_vec.PolicyTables` per structure —
allocated on first use and mutated in place by both kernel tiers, by both
tiers of the multi-level loop (:mod:`repro.engine.hierarchy_vec`) and by
the point operations (``contains_block``, ``invalidate_block``,
``resident_blocks``, ``flush``).

Every cache exposes ``dispatch_strategy(batch)`` — the name of the kernel
``run`` will execute — which the differential suite introspects to prove
each path is covered.

The kernels take the batch's byte addresses and the cache's block shift
and shift each address to its block themselves, so a run derives no
block-number array; only the 3C classifier's replay asks the batch for
one (:meth:`~repro.engine.batch.AddressBatch.block_numbers`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

import numpy as np

from ..cache.replacement import (
    RandomReplacement,
    ReplacementPolicy,
    replacement_policy_name,
)
from ..cache.set_assoc import WritePolicy
from ..cache.stats import CacheStats, MissClassifier
from ..core.index import BitSelectIndexing, IndexFunction, IPolyIndexing
from . import ckernels, pykernels
from .batch import AddressBatch
from .index_vec import Placement, placement, way_function
from .replacement_vec import PolicyTables

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


def _writes(batch: AddressBatch) -> np.ndarray:
    """The batch's store flags as the kernels take them (uint8)."""
    return np.ascontiguousarray(batch.is_write).view(np.uint8)


def _addresses(batch: AddressBatch) -> np.ndarray:
    """The batch's addresses as the kernels take them (contiguous uint64)."""
    return np.ascontiguousarray(batch.addresses)


class _BatchCache:
    """What the batch caches share: the chunk-consume entry point, the
    counters and the state arrays.

    ``_state`` is ``None`` until the first run or point operation allocates
    the subclass's ``_new_arrays()``, and again after a flush, so a cache
    that is built but never run allocates nothing.
    """

    _EXTRA_COUNTERS: tuple = ()
    _state = None
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

    @property
    def block_shift(self) -> int:
        """log2 of :attr:`block_size`: an address's block is ``address >>
        block_shift``."""
        return self._block_size.bit_length() - 1

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

    def _arrays(self):
        """The state arrays, allocated empty on first use."""
        if self._state is None:
            self._state = self._new_arrays()
        return self._state


class BatchSetAssociativeCache(_BatchCache):
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
        self._num_sets, index_function = _check_geometry(
            size_bytes, block_size, ways, index_function)
        if write_policy not in WritePolicy.ALL:
            raise ValueError(f"unknown write policy {write_policy!r}")

        self._size_bytes = size_bytes
        self._block_size = block_size
        self._ways = ways
        self._index_fn = index_function
        self._place = placement(index_function, ways)
        self._replacement_name, self._seed = _resolve_batch_replacement(
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

    def _new_arrays(self):
        """``(tags, dirty, policy tables)``: ``ways x num_sets`` tags (-1
        for an invalid frame) and dirty bits."""
        shape = (self._ways, self._num_sets)
        return (np.full(shape, -1, dtype=np.int64),
                np.zeros(shape, dtype=np.uint8),
                PolicyTables(self._replacement_name, self._ways,
                             self._num_sets, seed=self._seed))

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
        tags = self._arrays()[0]
        return tags[tags >= 0].tolist()

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
        tags = self._arrays()[0]
        return any(tags[way, set_index] == block_number for way, set_index
                   in enumerate(self._candidate_sets(block_number)))

    def invalidate_block(self, block_number: int) -> bool:
        """Remove ``block_number`` if resident; returns True if it was found.

        Mirrors :meth:`SetAssociativeCache.invalidate_block` bit-exactly:
        the invalidations counter bumps only when the block was resident, and
        replacement state is untouched (the scalar ``on_invalidate`` hook is
        a universal no-op) — a later fill prefers the invalid frame in way
        order, exactly like the scalar ``_fill``.
        """
        tags, dirty, _policy = self._arrays()
        for way, set_index in enumerate(self._candidate_sets(block_number)):
            if tags[way, set_index] == block_number:
                tags[way, set_index] = -1
                dirty[way, set_index] = 0
                self.stats.invalidations += 1
                return True
        return False

    def flush(self) -> None:
        """Empty the cache (statistics are preserved; reset them separately).

        Mirrors the scalar :meth:`SetAssociativeCache.flush`: every frame is
        invalidated and the replacement state forgets everything, but the
        access clock keeps running.
        """
        self._state = None
        if self._classifier is not None:
            self._classifier.reset()

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #

    def dispatch_strategy(self, batch: AddressBatch) -> str:
        """Name of the kernel :meth:`run` would execute for ``batch``.

        Tests introspect it to see which kernel serves a given
        (organisation, policy) combination.  The route depends only on
        whether the compiled kernels built and on the cache's shape
        (:func:`ckernels.set_assoc_path`); ``batch`` is accepted so every
        batch cache shares one signature.  Possible values:

        * ``"compiled-fully-assoc-{lru,fifo,random,plru}"`` — a one-set
          cache, with or without the 3C classifier, when the C library is
          available;
        * ``"compiled-set-assoc-{lru,fifo,random,plru}"`` — every other
          cache, likewise;
        * ``"python-fully-assoc-{lru,fifo,random,plru}"`` — a one-set
          cache on the Python mirror;
        * ``"generic-policy-kernel"`` — every other cache on it.
        """
        path = ckernels.set_assoc_path(self._num_sets)
        if ckernels.available():
            return f"compiled-{path}-{self._replacement_name}"
        if path == "fully-assoc":
            return f"python-fully-assoc-{self._replacement_name}"
        return "generic-policy-kernel"

    def run(self, batch: AddressBatch) -> np.ndarray:
        """Simulate a whole batch; returns the per-access hit mask (bool).

        Statistics accumulate into :attr:`stats` and cache state carries over
        to the next call, exactly like feeding the scalar model one access at
        a time.  :meth:`dispatch_strategy` names the kernel.
        """
        if len(batch) == 0:
            return np.zeros(0, dtype=bool)
        kernels = ckernels if ckernels.available() else pykernels
        state = self._kernel_state()
        hits, counts = kernels.run_set_assoc(
            _addresses(batch), _writes(batch), shift=self.block_shift,
            **state)
        self._kernel_done(state["io"], counts)
        if self._classifier is not None:
            # The 3C shadow sees only (block, hit) in trace order, so it
            # replays over the finished hit mask.
            _classify_over_hits(self._classifier, self.stats,
                                batch.block_numbers(self._block_size), hits)
        return hits

    def _kernel_state(self) -> dict:
        """The placement and arrays a kernel runs this cache on:
        :func:`ckernels.run_set_assoc`'s keyword arguments (the multi-level
        engine passes one per level)."""
        tags, dirty, policy = self._arrays()
        return dict(
            place=self._place,
            write_back=self._write_policy == WritePolicy.WRITE_BACK_ALLOCATE,
            policy=self._replacement_name, tags=tags, dirty=dirty,
            stamps=policy.stamps, bits=policy.bits, seed=policy.seed,
            io=np.array([self._clock, policy.draws], dtype=np.int64))

    def _kernel_done(self, io: np.ndarray, counts) -> None:
        """Take back the clock, random draws and counters of a run on
        :meth:`_kernel_state`."""
        self._clock, self._state[2].draws = io.tolist()
        self._add_counts(*counts.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchSetAssociativeCache({self._size_bytes}B, {self._ways}-way, "
            f"{self._block_size}B blocks, index={self._index_fn.name})"
        )


class BatchColumnAssociativeCache(_BatchCache):
    """Batch counterpart of :class:`~repro.cache.column_assoc.ColumnAssociativeCache`.

    The two probe indices are one placement of two functions; the
    per-access state machine (swap on second-probe hit, displaced-block
    retreat on miss) runs in one kernel and replicates the scalar model's
    behaviour — including its statistics — exactly.  Each frame carries its
    block's secondary index, so a displaced block retreats without being
    rehashed.
    """

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
        self._place = Placement([way_function(self._primary, 0),
                                 way_function(self._secondary, 0)])
        self._swap = bool(swap_on_rehash_hit)
        self._name = name or f"column-{size_bytes // 1024}KB-batch"

        self.stats = CacheStats()
        self.first_probe_hits = 0
        self.second_probe_hits = 0
        self.total_probes = 0
        self._classifier = (
            MissClassifier(num_frames) if classify_misses else None
        )

    def _new_arrays(self):
        """``(tags, dirty, sec_of)`` per frame: ``sec_of`` is the secondary
        index of the frame's block."""
        frames = self._num_frames
        return (np.full(frames, -1, dtype=np.int64),
                np.zeros(frames, dtype=np.uint8),
                np.zeros(frames, dtype=np.int64))

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
        tags = self._arrays()[0]
        return tags[tags >= 0].tolist()

    def dispatch_strategy(self, batch: AddressBatch) -> str:
        """Name of the kernel :meth:`run` would execute for ``batch``:
        ``"compiled-column-associative"`` when the C library is available,
        ``"column-associative"`` (the Python loop) otherwise."""
        if ckernels.available():
            return "compiled-column-associative"
        return "column-associative"

    def run(self, batch: AddressBatch) -> np.ndarray:
        """Simulate a whole batch; returns the per-access hit mask (bool)."""
        if len(batch) == 0:
            return np.zeros(0, dtype=bool)
        kernels = ckernels if ckernels.available() else pykernels
        tags, dirty, sec_of = self._arrays()
        hits, counts = kernels.run_column(
            _addresses(batch), _writes(batch), shift=self.block_shift,
            place=self._place, swap=self._swap, tags=tags, dirty=dirty,
            sec_of=sec_of)
        self._add_counts(*counts.tolist())
        if self._classifier is not None:
            _classify_over_hits(self._classifier, self.stats,
                                batch.block_numbers(self._block_size), hits)
        return hits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchColumnAssociativeCache({self._num_frames} frames, "
                f"{self._block_size}B blocks)")


class BatchVictimCache(_BatchCache):
    """Batch counterpart of :class:`~repro.cache.victim.VictimCache`.

    A main cache backed by a small fully-associative victim buffer, run as
    one kernel over the main cache's placement.  The per-access
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
        self._place = placement(index_function, ways)
        self._replacement_name, self._seed = _resolve_batch_replacement(
            replacement)
        self._entries = victim_entries
        self._name = name or f"victim-{size_bytes // 1024}KB+{victim_entries}-batch"

        # The main cache and the buffer (one set of `victim_entries` ways)
        # each have their own policy tables and clock.
        self._main_clock = 0
        self._victim_clock = 0

        self.stats = CacheStats()
        self.main_hits = 0
        self.victim_hits = 0

    def _new_arrays(self):
        """``(tags, dirty, policy tables)`` of the main cache (``ways x
        num_sets``), then of the buffer (``entries``)."""
        shape = (self._ways, self._num_sets)
        return (np.full(shape, -1, dtype=np.int64),
                np.zeros(shape, dtype=np.uint8),
                PolicyTables(self._replacement_name, self._ways,
                             self._num_sets, seed=self._seed),
                np.full(self._entries, -1, dtype=np.int64),
                np.zeros(self._entries, dtype=np.uint8),
                PolicyTables(self._replacement_name, self._entries, 1,
                             seed=self._seed))

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
        tags, _dirty, _policy, vtags, _vdirty, _vpolicy = self._arrays()
        return tags[tags >= 0].tolist() + vtags[vtags >= 0].tolist()

    def dispatch_strategy(self, batch: AddressBatch) -> str:
        """Name of the kernel :meth:`run` would execute for ``batch``:
        ``"compiled-victim-{lru,fifo,random,plru}"`` when the C library is
        available, ``"victim-generic-kernel"`` otherwise."""
        if ckernels.available():
            return f"compiled-victim-{self._replacement_name}"
        return "victim-generic-kernel"

    def run(self, batch: AddressBatch) -> np.ndarray:
        """Simulate a whole batch; returns the per-access overall hit mask.

        :meth:`dispatch_strategy` names the kernel.
        """
        if len(batch) == 0:
            return np.zeros(0, dtype=bool)
        kernels = ckernels if ckernels.available() else pykernels
        tags, dirty, main, vtags, vdirty, buffer = self._arrays()
        io = np.array([self._main_clock, self._victim_clock, main.draws,
                       buffer.draws], dtype=np.int64)
        hits, counts = kernels.run_victim(
            _addresses(batch), _writes(batch), shift=self.block_shift,
            place=self._place, policy=self._replacement_name, tags=tags,
            dirty=dirty, stamps=main.stamps, bits=main.bits, seed=main.seed,
            vtags=vtags, vdirty=vdirty, vstamps=buffer.stamps,
            vbits=buffer.bits, vseed=buffer.seed, io=io)
        (self._main_clock, self._victim_clock, main.draws,
         buffer.draws) = io.tolist()
        self._add_counts(*counts.tolist())
        return hits

    def flush(self) -> None:
        """Empty both structures (statistics are preserved)."""
        self._state = None
        self._main_clock = 0
        self._victim_clock = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchVictimCache({self._size_bytes}B, {self._ways}-way, "
                f"+{self._entries} victim entries)")
