"""One-pass pricing of conventional LRU and FIFO configuration grids.

Every other kernel in this package simulates **one** cache configuration per
trace pass.  A sweep over a family of conventional caches — the
capacity/associativity grids of the classic miss-ratio studies — therefore
costs O(configs x N).  This module prices such a grid in one pass:

* **All-associativity (Hill & Smith style) LRU set profiling**
  (:class:`MultiConfigLRUProfile`): bit-selection set mappings are nested —
  a cache with ``2^k`` sets partitions the sets of one with ``2^(k+1)`` —
  so one capped per-set LRU stack pass per *set count* serves every
  associativity at that set count at once (Mattson stack distances).  A
  (num_sets x ways) grid for a fixed block size costs one pass per
  distinct ``num_sets`` instead of one per configuration.

* **Single-pass FIFO grids** (:class:`MultiConfigFIFOProfile`): FIFO is not
  a stack algorithm (Belady's anomaly), but it is *hit-transparent* — hits
  never mutate FIFO state — so after one vectorized occurrence-list pass
  each configuration is priced by an event-driven replay that touches only
  its misses, exact to the per-configuration kernels at a cost
  proportional to the miss count.

* **Sweep partitioning** (:class:`MultiConfigPlan`): experiment sweeps hand
  their task list to a plan, which splits it into *profilable*
  configurations (conventional bit-selection placement, LRU or FIFO
  replacement, no 3C classifier, cold cache — see below) and everything
  else (skewed, I-Poly, victim, column, other policies), which runs its own
  kernel.  Exact profiles serve only the Python kernel tier, where they
  win; ``profile="sampled"`` prices LRU groups through the approximate
  SHARDS profile of :mod:`repro.engine.shards` on either tier.

Write-policy divergence
-----------------------

A single profile can only serve every configuration if the stack update is
configuration-independent.  Loads (and, under write-back/write-allocate,
stores) always move the accessed block to MRU — the uniform Mattson case.
Under the paper's write-through/no-write-allocate policy a store *hit*
refreshes recency while a store *miss* changes nothing, so the update seems
to depend on the (configuration-dependent) hit outcome.  It does not: a
block's last-touch time is identical in every cache that holds it (a block
re-enters any cache only through an allocating access, and from then on
every touch hits every holder), so the family remains a *priority* stack
algorithm in Mattson's sense, with last-touch time as the priority.  The
store-aware kernel maintains exactly that priority stack; traces without
stores use the plain move-to-front fast path.  What is **not** profilable
is the 3C classifier (it needs per-access hit context in trace order) and
any policy other than LRU and FIFO — those keep their per-configuration
kernels.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cache.set_assoc import WritePolicy
from . import ckernels
from .batch import AddressBatch
from .batch_cache import BatchSetAssociativeCache

__all__ = [
    "PROFILE_MODES",
    "check_profile_mode",
    "ProfileOptions",
    "ProfileCounts",
    "MultiConfigLRUProfile",
    "MultiConfigFIFOProfile",
    "MultiConfigPlan",
    "run_lru_grid",
    "profile_cache_info",
    "memo_info",
]

#: Valid values of every experiment's ``profile`` parameter.  ``"auto"``
#: prices every task bit-exactly: profilable groups out of the exact
#: profiles on the Python fallback kernels, every task on its compiled
#: kernel while :func:`repro.engine.ckernels.available`.  ``"sampled"``
#: prices LRU groups approximately through the SHARDS profile of
#: :mod:`repro.engine.shards` and everything else as ``"auto"`` does.
PROFILE_MODES = ("auto", "sampled")


def check_profile_mode(profile: str) -> str:
    """Validate a ``profile`` parameter value, returning it normalised."""
    label = str(profile).strip().lower()
    if label not in PROFILE_MODES:
        raise ValueError(
            f"unknown profile mode {profile!r}; expected one of {PROFILE_MODES}")
    return label


@dataclass(frozen=True)
class ProfileOptions:
    """How a :class:`MultiConfigPlan` prices its tasks.

    ``profile`` is one of :data:`PROFILE_MODES`; ``sample_rate`` (in
    (0, 1]), ``sample_size`` (a cap on the expected sample, or ``None``)
    and ``profile_seed`` configure the SHARDS sampler of
    ``profile="sampled"``.  The fields are the plan's keywords, validated
    at construction.
    """

    profile: str = "auto"
    sample_rate: float = 0.01
    sample_size: Optional[int] = None
    profile_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", check_profile_mode(self.profile))
        if not 0.0 < float(self.sample_rate) <= 1.0:
            raise ValueError(
                f"sample rate must be in (0, 1], got {self.sample_rate}")
        if self.sample_size is not None and int(self.sample_size) < 1:
            raise ValueError(
                f"sample size must be at least 1, got {self.sample_size}")
        if int(self.profile_seed) < 0:
            raise ValueError(f"profile seed must be non-negative, got "
                             f"{self.profile_seed}")

    def plan(self) -> "MultiConfigPlan":
        """An empty plan with these options."""
        return MultiConfigPlan(self.profile, self.sample_rate,
                               self.sample_size, self.profile_seed)


# --------------------------------------------------------------------- #
# readout counts
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ProfileCounts:
    """Access/miss counters of one configuration, engine-agnostic.

    Field names and ratio formulas mirror :class:`~repro.cache.stats.CacheStats`
    exactly, so a ratio read out of a profile is the *same IEEE double* as
    the one computed from a kernel (or scalar) run of the configuration —
    the equality the differential suite asserts is bit-exact, not approximate.
    """

    loads: int
    stores: int
    load_misses: int
    store_misses: int

    @property
    def accesses(self) -> int:
        """Total number of accesses."""
        return self.loads + self.stores

    @property
    def misses(self) -> int:
        """Total number of misses (loads + stores)."""
        return self.load_misses + self.store_misses

    @property
    def hits(self) -> int:
        """Total number of hits."""
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        """Overall miss ratio; 0.0 when there are no accesses."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def load_miss_ratio(self) -> float:
        """Load miss ratio — the metric the paper's tables report."""
        return self.load_misses / self.loads if self.loads else 0.0

    @classmethod
    def from_stats(cls, stats) -> "ProfileCounts":
        """Extract the profile-comparable counters from a ``CacheStats``."""
        return cls(loads=stats.loads, stores=stats.stores,
                   load_misses=stats.load_misses,
                   store_misses=stats.store_misses)

    @staticmethod
    def of(cache) -> "ProfileCounts":
        """A run cache's counters: those of its ``stats``, as
        :class:`ProbeCounts` when it is column-associative (it counts
        probes)."""
        counts = ProfileCounts.from_stats(cache.stats)
        if not hasattr(cache, "total_probes"):
            return counts
        return ProbeCounts(
            counts.loads, counts.stores, counts.load_misses,
            counts.store_misses, first_probe_hits=cache.first_probe_hits,
            second_probe_hits=cache.second_probe_hits,
            total_probes=cache.total_probes)


@dataclass(frozen=True)
class ProbeCounts(ProfileCounts):
    """:class:`ProfileCounts` of a column-associative cache plus its probe
    counters, with the ratios formed as
    :class:`~repro.cache.column_assoc.ColumnAssociativeCache` forms them."""

    first_probe_hits: int
    second_probe_hits: int
    total_probes: int

    @property
    def first_probe_hit_ratio(self) -> float:
        """Fraction of hits satisfied on the first probe."""
        hits = self.first_probe_hits + self.second_probe_hits
        return self.first_probe_hits / hits if hits else 0.0

    @property
    def average_probes(self) -> float:
        """Average number of probes per access."""
        return self.total_probes / self.accesses if self.accesses else 0.0

    def average_hit_time(self, second_probe_penalty: float = 1.0) -> float:
        """Average hit time in first-probe times, a second probe costing
        ``second_probe_penalty`` more."""
        hits = self.first_probe_hits + self.second_probe_hits
        if not hits:
            return 1.0
        return 1.0 + second_probe_penalty * self.second_probe_hits / hits


# --------------------------------------------------------------------- #
# part (a): per-level capped stack kernels (all-associativity readout)
# --------------------------------------------------------------------- #

def _level_pass_loads(blocks_l: list, mask: int, cap: int,
                      stacks: List[List[int]], hist: List[int]) -> None:
    """Capped per-set LRU stack distances of a load-only stream.

    Accumulates into ``hist`` (``hist[d]`` = accesses whose per-set stack
    distance is exactly ``d`` (< ``cap``)); deeper reuse and first touches
    are not recorded — they miss at every associativity up to ``cap``.
    The cap is sound because the top ``w`` entries of a per-set LRU stack
    are exactly the content of a ``w``-way set (inclusion), and a block
    below the cap can only resurface at the top through its own (re-)access.

    ``stacks``/``hist`` are caller-owned state (:class:`_LevelState`).
    """
    for b in blocks_l:
        st = stacks[b & mask]
        if b in st:
            i = st.index(b)
            hist[len(st) - 1 - i] += 1
            del st[i]
            st.append(b)
        else:
            st.append(b)
            if len(st) > cap:
                del st[0]


def _level_pass_uniform(blocks_l: list, writes_l: list, mask: int, cap: int,
                        stacks: List[List[int]], hist_load: List[int],
                        hist_store: List[int]) -> None:
    """Load/store-split capped distances under a uniform stack update.

    Exact for write-back/write-allocate caches, where stores allocate and
    refresh recency exactly like loads — the per-access update never
    depends on the (configuration-specific) hit outcome.  State is
    caller-owned, as in :func:`_level_pass_loads`.
    """
    for b, w in zip(blocks_l, writes_l):
        st = stacks[b & mask]
        if b in st:
            i = st.index(b)
            (hist_store if w else hist_load)[len(st) - 1 - i] += 1
            del st[i]
            st.append(b)
        else:
            st.append(b)
            if len(st) > cap:
                del st[0]


def _level_pass_wtna(blocks_l: list, writes_l: list, mask: int, cap: int,
                     stacks: List[List[int]], prios: List[List[int]],
                     hist_load: List[int], hist_store: List[int],
                     clock: int) -> int:
    """Capped *priority* stack distances under write-through/no-allocate.

    Stores never change any configuration's content (no allocate on miss,
    no movement on hit), but a store hit refreshes the block's last-touch
    time — which, being identical in every cache that holds the block, is a
    valid Mattson priority.  Loads therefore update the stack with the
    generalized priority walk: the new top is the loaded block, and walking
    down to its old position each level keeps the more-recently-touched of
    its old occupant and the carried running-minimum (each full cache of
    that depth evicts its least-recently-touched line).  Stacks hold the
    most recent ``cap`` *positions* (top at index 0), with per-entry
    last-touch priorities alongside.

    State (stacks, priorities, the returned clock) is caller-owned, as in
    :func:`_level_pass_loads`.
    """
    for b, w in zip(blocks_l, writes_l):
        clock += 1
        s = b & mask
        st = stacks[s]
        if w:
            # Store: touch-only.  A hit at position p refreshes the
            # priority for every cache deep enough to hold the block; a
            # miss (not in the capped stack => not in any tracked cache)
            # changes nothing.
            if b in st:
                i = st.index(b)
                hist_store[i] += 1
                prios[s][i] = clock
            continue
        pr = prios[s]
        if st and st[0] == b:
            hist_load[0] += 1
            pr[0] = clock
            continue
        try:
            idx = st.index(b)
        except ValueError:
            idx = -1
        if idx > 0:
            hist_load[idx] += 1
        if not st:
            st.append(b)
            pr.append(clock)
            continue
        # Priority walk: carry the running least-recently-touched entry
        # down; each level keeps the more recent of its occupant and the
        # carry.  On a hit the carry lands in the vacated slot; on a miss
        # it falls off the bottom (or extends a not-yet-full stack).
        vb, vp = st[0], pr[0]
        end = idx if idx > 0 else len(st)
        j = 1
        while j < end:
            if pr[j] < vp:
                st[j], vb = vb, st[j]
                pr[j], vp = vp, pr[j]
            j += 1
        if idx > 0:
            st[idx] = vb
            pr[idx] = vp
        elif len(st) < cap:
            st.append(vb)
            pr.append(vp)
        st[0] = b
        pr[0] = clock
    return clock


#: One profiled level: every associativity ``w <= cap`` at this set count
#: reads its hit counts out of the (load, store) distance histograms.
@dataclass(frozen=True)
class _LevelProfile:
    num_sets: int
    cap: int
    hist_load: Tuple[int, ...]
    hist_store: Tuple[int, ...]
    loads: int
    stores: int


def _checked_level_caps(level_caps: Mapping[int, int]) -> Dict[int, int]:
    """Validate a ``{num_sets: max_ways}`` request, returning it sorted."""
    if not level_caps:
        raise ValueError("level_caps must name at least one set count")
    checked: Dict[int, int] = {}
    for num_sets, max_ways in sorted(level_caps.items()):
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ValueError(
                f"num_sets must be a positive power of two, got {num_sets}")
        if max_ways < 1:
            raise ValueError("ways must be at least 1")
        checked[num_sets] = max_ways
    return checked


def _store_mode(has_stores: bool, write_policy: str) -> str:
    """The stack-update semantics a (batch, write policy) pair needs."""
    if not has_stores:
        return "loads"
    if write_policy == WritePolicy.WRITE_BACK_ALLOCATE:
        return "uniform"
    return "wtna"


def _round_cap(ways: int) -> int:
    """Depth cap actually profiled for a requested associativity.

    Rounded up to a power of two (>= 8): a cap-8 histogram serves every
    associativity up to eight, not only the ones requested.
    """
    cap = 8
    while cap < ways:
        cap <<= 1
    return cap


class _LevelState:
    """State of one level's capped stack pass: the per-set stacks (and, for
    ``wtna``, priorities and the touch clock) and the distance histograms.
    """

    __slots__ = ("num_sets", "cap", "mode", "stacks", "prios",
                 "hist_load", "hist_store", "clock", "loads", "stores")

    def __init__(self, num_sets: int, cap: int, mode: str) -> None:
        self.num_sets = num_sets
        self.cap = cap
        self.mode = mode
        self.stacks: List[List[int]] = [[] for _ in range(num_sets)]
        self.prios: Optional[List[List[int]]] = (
            [[] for _ in range(num_sets)] if mode == "wtna" else None)
        self.hist_load = [0] * cap
        self.hist_store = [0] * cap
        self.clock = 0
        self.loads = 0
        self.stores = 0

    def feed(self, blocks_l: list, writes_l: Optional[list]) -> None:
        """Consume block numbers (and store flags) in trace order."""
        mask = self.num_sets - 1
        if self.mode == "loads":
            _level_pass_loads(blocks_l, mask, self.cap,
                              self.stacks, self.hist_load)
            self.loads += len(blocks_l)
            return
        if self.mode == "uniform":
            _level_pass_uniform(blocks_l, writes_l, mask, self.cap,
                                self.stacks, self.hist_load, self.hist_store)
        else:
            self.clock = _level_pass_wtna(
                blocks_l, writes_l, mask, self.cap, self.stacks, self.prios,
                self.hist_load, self.hist_store, self.clock)
        stores = sum(writes_l)
        self.stores += stores
        self.loads += len(blocks_l) - stores

    def profile(self) -> _LevelProfile:
        """Freeze the accumulated histograms into a readout profile."""
        return _LevelProfile(num_sets=self.num_sets, cap=self.cap,
                             hist_load=tuple(self.hist_load),
                             hist_store=tuple(self.hist_store),
                             loads=self.loads, stores=self.stores)


class MultiConfigLRUProfile:
    """All-associativity profile of one (trace, block size) pair.

    ``level_caps`` maps each required set count (power of two; ``1`` is the
    fully-associative organisation) to the deepest associativity that will
    be read out of it.  Construction runs one capped stack pass per level;
    :meth:`miss_counts` then prices any ``(num_sets, ways)`` configuration
    of the grid in O(ways).
    """

    def __init__(self, batch: AddressBatch, block_size: int,
                 level_caps: Mapping[int, int],
                 write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                 ) -> None:
        if write_policy not in WritePolicy.ALL:
            raise ValueError(f"unknown write policy {write_policy!r}")
        self._block_size = block_size
        self._mode = _store_mode(batch.has_stores, write_policy)
        blocks_l = batch.block_numbers(block_size).tolist()
        writes_l = (None if self._mode == "loads"
                    else batch.is_write.tolist())
        self._levels: Dict[int, _LevelProfile] = {}
        for num_sets, max_ways in _checked_level_caps(level_caps).items():
            state = _LevelState(num_sets, _round_cap(max_ways), self._mode)
            state.feed(blocks_l, writes_l)
            self._levels[num_sets] = state.profile()

    @property
    def block_size(self) -> int:
        """Line size (bytes) the profile was taken at."""
        return self._block_size

    @property
    def store_mode(self) -> str:
        """Stack-update semantics used (``loads``, ``uniform`` or ``wtna``)."""
        return self._mode

    @property
    def levels(self) -> List[int]:
        """Profiled set counts."""
        return sorted(self._levels)

    def miss_counts(self, num_sets: int, ways: int) -> ProfileCounts:
        """Exact counters of the ``(num_sets, ways)`` LRU configuration."""
        level = self._levels.get(num_sets)
        if level is None:
            raise KeyError(f"set count {num_sets} was not profiled "
                           f"(levels: {self.levels})")
        if ways > level.cap:
            raise ValueError(
                f"ways {ways} exceeds the profiled depth cap {level.cap} "
                f"at {num_sets} sets")
        # distance d hits every cache with ways > d: hit iff d < ways, and
        # distance == ways is exactly the first miss — no tolerance band.
        load_hits = sum(level.hist_load[:ways])
        store_hits = sum(level.hist_store[:ways])
        return ProfileCounts(loads=level.loads, stores=level.stores,
                             load_misses=level.loads - load_hits,
                             store_misses=level.stores - store_hits)


# --------------------------------------------------------------------- #
# part (b): single-pass FIFO grid profiling
# --------------------------------------------------------------------- #

def _block_occurrences(blocks: np.ndarray) -> Tuple[np.ndarray, List[List[int]]]:
    """Distinct block numbers and each one's ascending access positions.

    One stable vectorized sort of the block stream; the per-block position
    lists then serve *every* FIFO configuration priced from the stream
    (the single trace-order pass all the event simulations share).
    """
    blocks = np.asarray(blocks)
    if blocks.shape[0] == 0:
        return np.empty(0, dtype=np.int64), []
    order = np.argsort(blocks, kind="stable")
    sorted_blocks = blocks[order]
    boundary = np.empty(sorted_blocks.shape[0], dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    values = sorted_blocks[starts].astype(np.int64, copy=False)
    occurrences = [part.tolist() for part in np.split(order, starts[1:])]
    return values, occurrences


def _fifo_level_counts(num_sets: int, ways: int, mode: str,
                       occurrences: List[List[int]],
                       block_sets: List[int],
                       first_events: List[int],
                       is_write: Optional[List[bool]],
                       ) -> Tuple[int, int]:
    """Load/store misses of one ``(num_sets, ways)`` FIFO configuration.

    Event-driven over misses only — FIFO's **hit transparency**: a hit
    never mutates FIFO state (the queue reorders only on allocation), so
    every access between a block's allocation and its eviction can be
    skipped wholesale.  The pending-miss heap holds, per non-resident block
    with a future access, that access's position; popping in position order
    replays exactly the misses the per-access kernel would count.  Each
    allocation appends to its set's insertion log, and the victim of
    allocation ``a`` is the block logged at ``a - ways`` (a block is never
    re-allocated while resident, so log entries are live exactly once) —
    whose next access after the eviction point re-enters the heap as a
    pending miss.  Cost is O((footprint + misses) log footprint),
    independent of the hit count.

    Events are single ints, ``position << shift | block_index`` (a pending
    block's event sits at a position accessing that very block, so events
    occupy distinct positions and the packed ordering is the position
    ordering) — plain-int heap compares are markedly cheaper than tuple
    compares, and ``next_occ`` carries each block's pending occurrence
    index on the side.
    """
    shift = max(1, len(occurrences)).bit_length()
    mask = (1 << shift) - 1
    heap = list(first_events)  # ascending unique positions: already a heap
    next_occ = [0] * len(occurrences)
    lmiss = 0
    smiss = 0
    rings: List[List[int]] = [[] for _ in range(num_sets)]
    wtna = mode == "wtna"
    classify = mode != "loads" and is_write is not None
    pop, push = heappop, heappush
    while heap:
        event = pop(heap)
        block = event & mask
        pos = event >> shift
        if classify and is_write[pos]:
            smiss += 1
            if wtna:
                # Write-through/no-allocate store miss: no state change;
                # the block's very next access is still a pending miss.
                occ = occurrences[block]
                index = next_occ[block] + 1
                if index < len(occ):
                    next_occ[block] = index
                    push(heap, (occ[index] << shift) | block)
                continue
        else:
            lmiss += 1
        ring = rings[block_sets[block]]
        ring.append(block)
        alloc = len(ring)
        if alloc > ways:
            victim = ring[alloc - ways - 1]
            occ = occurrences[victim]
            index = bisect_right(occ, pos)
            if index < len(occ):
                next_occ[victim] = index
                push(heap, (occ[index] << shift) | victim)
    return lmiss, smiss


class MultiConfigFIFOProfile:
    """Single-pass pricing of a bit-selection ``(num_sets, ways)`` FIFO grid.

    FIFO is **not** a stack algorithm (Belady's anomaly: a larger cache can
    miss more), so no reuse-distance histogram can serve every capacity the
    way :class:`MultiConfigLRUProfile` does.  What FIFO does have is *hit
    transparency*: hits never touch FIFO state.  This profile therefore
    makes one vectorized pass over the trace (per-block occurrence lists),
    after which each requested configuration is priced by an event-driven
    replay that touches only its misses — exact to the per-configuration
    kernels, at a cost proportional to the miss count rather than the
    access count.  Configurations are priced lazily on first query and
    memoised for the profile's lifetime.

    Store semantics match the batch kernels: a write-back/write-allocate
    store misses like a load (dirtiness never changes the queue), a
    write-through/no-allocate store miss leaves the set untouched.
    """

    def __init__(self, batch: AddressBatch, block_size: int,
                 level_caps: Mapping[int, int],
                 write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                 ) -> None:
        if write_policy not in WritePolicy.ALL:
            raise ValueError(f"unknown write policy {write_policy!r}")
        self._block_size = block_size
        self._mode = _store_mode(batch.has_stores, write_policy)
        blocks = batch.block_numbers(block_size)
        self._stores = int(batch.store_count)
        self._loads = int(blocks.shape[0]) - self._stores
        self._level_caps = _checked_level_caps(level_caps)
        self._values, self._occurrences = _block_occurrences(blocks)
        shift = max(1, len(self._occurrences)).bit_length()
        self._first_events = sorted(
            (occ[0] << shift) | index
            for index, occ in enumerate(self._occurrences))
        self._is_write = (None if self._mode == "loads"
                          else batch.is_write.tolist())
        self._block_sets: Dict[int, List[int]] = {}
        self._counts: Dict[Tuple[int, int], Tuple[int, int]] = {}

    # -- readout ------------------------------------------------------- #

    @property
    def block_size(self) -> int:
        """Line size the profile was taken at."""
        return self._block_size

    @property
    def store_mode(self) -> str:
        """Store semantics used (``loads``, ``uniform`` or ``wtna``)."""
        return self._mode

    @property
    def accesses(self) -> int:
        """Total accesses in the profiled stream."""
        return self._loads + self._stores

    @property
    def levels(self) -> List[int]:
        """Set counts the profile can price, ascending."""
        return sorted(self._level_caps)

    def miss_counts(self, num_sets: int, ways: int) -> ProfileCounts:
        """Exact counters of the ``(num_sets, ways)`` FIFO configuration."""
        cap = self._level_caps.get(num_sets)
        if cap is None:
            raise KeyError(f"set count {num_sets} was not profiled "
                           f"(levels: {self.levels})")
        if ways > cap:
            raise ValueError(
                f"ways {ways} exceeds the profiled depth cap {cap} "
                f"at {num_sets} sets")
        if ways < 1:
            raise ValueError("ways must be at least 1")
        counts = self._counts.get((num_sets, ways))
        if counts is None:
            block_sets = self._block_sets.get(num_sets)
            if block_sets is None:
                mask = np.int64(num_sets - 1)
                block_sets = (self._values & mask).tolist()
                self._block_sets[num_sets] = block_sets
            counts = _fifo_level_counts(
                num_sets, ways, self._mode, self._occurrences, block_sets,
                self._first_events, self._is_write)
            self._counts[(num_sets, ways)] = counts
        lmiss, smiss = counts
        return ProfileCounts(loads=self._loads, stores=self._stores,
                             load_misses=lmiss, store_misses=smiss)


# --------------------------------------------------------------------- #
# part (c): sweep partitioning
# --------------------------------------------------------------------- #

#: Index-function ``cache_key`` heads whose set mapping is plain bit
#: selection over the low block-number bits (``single-set`` is the
#: degenerate one-set case used by fully-associative organisations).
_BIT_SELECT_KEYS = ("bit-select", "single-set")


@dataclass
class _PlanTask:
    key: Hashable
    batch: AddressBatch
    cache: object
    runner: Optional[Callable]
    level: Optional[Tuple[int, int]]  # (num_sets, ways) when profilable
    kind: str                         # "lru" or "fifo"


class MultiConfigPlan:
    """Partition a sweep's tasks into profiled and kernel-run configurations.

    Drivers :meth:`add` one entry per task — a result key, the
    :class:`AddressBatch` the task replays, and a zero-argument cache
    factory — then call :meth:`run` once.  Profilable tasks (see the module
    docstring) are grouped per (kind, trace identity, block size, store
    mode); each group is priced out of one :class:`MultiConfigLRUProfile`
    or :class:`MultiConfigFIFOProfile`.  Every other task runs its cache's
    own kernel.

    One rule picks the path.  Exact profiles serve the profilable groups
    iff the compiled kernels of :mod:`repro.engine.ckernels` are
    unavailable: a compiled per-configuration run outpaces the exact
    profile (~2x on the 16-configuration LRU grid
    ``benchmarks/bench_engine.py`` times at 1M accesses), while the Python
    fallback kernels' per-access probe is linear in the ways, so the
    profile wins there even on single configurations (9-13x on a 256-way
    fully-associative LRU one).  Either path gives the same numbers.
    ``profile="sampled"`` prices every LRU group through
    :class:`~repro.engine.shards.SampledMultiConfigLRUProfile` instead, on
    either tier; its FIFO groups follow the exact rule.
    """

    def __init__(self, profile: str = "auto", sample_rate: float = 0.01,
                 sample_size: Optional[int] = None,
                 profile_seed: int = 0) -> None:
        self._options = ProfileOptions(profile, sample_rate, sample_size,
                                       profile_seed)
        self._tasks: List[_PlanTask] = []

    @staticmethod
    def _profilable_shape(cache) -> Optional[Tuple[int, int]]:
        """Common profilability gate: cold bit-selection batch cache."""
        if not isinstance(cache, BatchSetAssociativeCache):
            return None
        if cache._classifier is not None or cache._clock != 0:
            return None
        key = cache.index_function.cache_key
        if key is None or key[0] not in _BIT_SELECT_KEYS:
            return None
        return cache.num_sets, cache.ways

    @staticmethod
    def profilable(cache, batch: AddressBatch) -> Optional[Tuple[int, int]]:
        """The ``(num_sets, ways)`` level a cache can be profiled at, or None.

        Requires a cold :class:`BatchSetAssociativeCache` with bit-selection
        (or single-set) placement, LRU replacement and no 3C classifier.
        Both write policies qualify — the store-mode kernels absorb the
        difference — but a warmed cache never does (profiles assume a cold
        start).
        """
        if getattr(cache, "replacement_name", None) != "lru":
            return None
        return MultiConfigPlan._profilable_shape(cache)

    @staticmethod
    def profilable_fifo(cache, batch: AddressBatch,
                        ) -> Optional[Tuple[int, int]]:
        """The ``(num_sets, ways)`` level of a FIFO-profilable cache, or None.

        Same shape gate as :meth:`profilable` with FIFO replacement: such
        tasks are priced by :class:`MultiConfigFIFOProfile`'s miss-driven
        event replays instead of per-configuration kernel passes.
        """
        if getattr(cache, "replacement_name", None) != "fifo":
            return None
        return MultiConfigPlan._profilable_shape(cache)

    def add(self, key: Hashable, batch: AddressBatch,
            factory: Callable[[], object],
            runner: Optional[Callable] = None) -> None:
        """Register one task: result ``key``, its batch, a cache factory.

        ``runner(cache, batch)`` overrides how a fallback task is driven
        (defaults to ``cache.run(batch)``) — the studies pass their scalar
        replay shim so caller-supplied organisations keep working.
        """
        cache = factory()
        kind = "lru"
        level = self.profilable(cache, batch)
        if level is None:
            kind = "fifo"
            level = self.profilable_fifo(cache, batch)
        self._tasks.append(_PlanTask(key=key, batch=batch, cache=cache,
                                     runner=runner, level=level, kind=kind))

    def _group_key(self, task: _PlanTask) -> tuple:
        cache = task.cache
        mode = _store_mode(task.batch.has_stores, cache.write_policy)
        # Two batches may share one address array under different store
        # masks; store-sensitive modes therefore key on the mask identity
        # too (an all-loads mask is behaviourally unique, so "loads" mode
        # only needs the addresses).
        mask_id = id(task.batch.is_write) if mode != "loads" else None
        return (task.kind, id(task.batch.addresses), mask_id,
                cache.block_size, mode)

    def _build_profile(self, kind: str, exemplar: _PlanTask,
                       level_caps: Dict[int, int]):
        """The shared profile one task group is priced out of."""
        if kind == "fifo":
            return MultiConfigFIFOProfile(
                exemplar.batch, exemplar.cache.block_size, level_caps,
                write_policy=exemplar.cache.write_policy)
        options = self._options
        if options.profile == "sampled":
            from .shards import SampledMultiConfigLRUProfile

            return SampledMultiConfigLRUProfile(
                exemplar.batch, exemplar.cache.block_size, level_caps,
                write_policy=exemplar.cache.write_policy,
                rate=options.sample_rate, seed=options.profile_seed,
                sample_size=options.sample_size)
        return MultiConfigLRUProfile(
            exemplar.batch, exemplar.cache.block_size, level_caps,
            write_policy=exemplar.cache.write_policy)

    def run(self) -> Dict[Hashable, ProfileCounts]:
        """Execute the plan; returns ``{key: ProfileCounts}`` for every task."""
        exact = not ckernels.available()
        sampled = self._options.profile == "sampled"
        groups: Dict[tuple, List[_PlanTask]] = {}
        for task in self._tasks:
            if task.level is not None and (
                    exact or (sampled and task.kind == "lru")):
                groups.setdefault(self._group_key(task), []).append(task)

        results: Dict[Hashable, ProfileCounts] = {}
        profiled: set = set()
        for group_key, group in groups.items():
            kind = group_key[0]
            level_caps: Dict[int, int] = {}
            for task in group:
                num_sets, ways = task.level
                level_caps[num_sets] = max(level_caps.get(num_sets, 0), ways)
            profile = self._build_profile(kind, group[0], level_caps)
            for task in group:
                results[task.key] = profile.miss_counts(*task.level)
                profiled.add(id(task))

        for task in self._tasks:
            if id(task) in profiled:
                continue
            if task.runner is not None:
                task.runner(task.cache, task.batch)
            else:
                task.cache.run(task.batch)
            results[task.key] = ProfileCounts.of(task.cache)
        return results


def run_lru_grid(batch: AddressBatch, block_size: int,
                 grid: Sequence[Tuple[int, int]],
                 write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                 profile: str = "auto",
                 replacement: str = "lru",
                 sample_rate: float = 0.01,
                 sample_size: Optional[int] = None,
                 profile_seed: int = 0,
                 ) -> Dict[Tuple[int, int], ProfileCounts]:
    """Price a whole conventional ``(num_sets, ways)`` grid through one
    :class:`MultiConfigPlan`.

    ``grid`` lists ``(num_sets, ways)`` pairs (the capacity is
    ``num_sets * ways * block_size``) of ``replacement`` caches; the result
    maps each pair to its :class:`ProfileCounts`.  ``profile="auto"``
    prices them exactly, by the plan's rule; ``profile="sampled"`` prices
    LRU grids approximately at ``sample_rate`` (see
    :mod:`repro.engine.shards` — ``sample_size`` caps the expected number
    of sampled accesses, ``profile_seed`` picks the hash universe).
    """
    plan = MultiConfigPlan(profile=profile, sample_rate=sample_rate,
                           sample_size=sample_size, profile_seed=profile_seed)
    for num_sets, ways in grid:
        def factory(num_sets=num_sets, ways=ways):
            return BatchSetAssociativeCache(
                size_bytes=num_sets * ways * block_size,
                block_size=block_size, ways=ways,
                replacement=replacement,
                write_policy=write_policy)
        plan.add((num_sets, ways), batch, factory)
    return plan.run()


def profile_cache_info() -> Dict[str, int]:
    """Counters of the retired level-profile memo, all zero.

    Profiles are not memoised (each plan group builds its own once); the
    function stays because ``perfbench/rep.py`` reads it.
    """
    return dict.fromkeys(("entries", "hits", "misses", "evictions",
                          "bypasses", "limit", "byte_limit", "nbytes"), 0)


def memo_info() -> Dict[str, Dict[str, int]]:
    """Counters of the retired derived-array memos: there are none.

    The kernels shift addresses to blocks themselves, so nothing derived
    from a trace is memoised; the function stays because
    ``perfbench/rep.py`` and ``perfbench/tracing.py`` read it.
    """
    return {}
