"""One-pass pricing of conventional LRU configuration grids.

Every other kernel in this package simulates **one** cache configuration per
trace pass.  A sweep over a family of conventional LRU caches — the
capacity/associativity grids of the classic miss-ratio studies — therefore
costs O(configs x N).  This module prices such a grid in one pass:

* **All-associativity (Hill & Smith style) LRU set profiling**
  (:class:`MultiConfigLRUProfile`): bit-selection set mappings are nested —
  a cache with ``2^k`` sets partitions the sets of one with ``2^(k+1)`` —
  so one capped per-set LRU stack pass per *set count* serves every
  associativity at that set count at once (Mattson stack distances).  A
  (num_sets x ways) grid for a fixed block size costs one pass per
  distinct ``num_sets`` instead of one per configuration.  At a sampling
  ``rate`` below 1 the profile is SHARDS-approximate (spatially hashed
  sampling with miniature simulation, see below); at rate 1 it is exact.

* **Sweep partitioning** (:class:`MultiConfigPlan`): experiment sweeps hand
  their task list to a plan.  One rule, on both kernel tiers:
  ``profile="auto"`` runs every task on its own kernel, bit-exact;
  ``profile="sampled"`` prices the *profilable* ones (conventional
  bit-selection placement, LRU replacement, no 3C classifier, cold cache)
  out of a sampled profile, and runs everything else on its own kernel.

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
any policy other than LRU — those keep their per-configuration kernels.

Sampling
--------

A full pass still pays stack work on every access.  **Spatially hashed
sampling** (SHARDS — Waldspurger, Park, Garthwaite & Ahmad, FAST'15) hashes
each block number with a fixed seed and keeps only the blocks whose hash
falls under a threshold: it samples *blocks*, not accesses, so all the
accesses to a sampled block stay together and reuse survives the filter.
Naive distance rescaling is badly biased at small associativity, so the
profile uses **miniature simulation** (Waldspurger et al., ATC'17): per
set-count level it picks the largest power-of-two exponent ``k`` with
``2^-k >= rate`` (capped so the mini cache keeps :data:`MIN_MINI_SETS`
sets, :func:`level_rate_exponent`), keeps the blocks whose hash has ``k``
leading zero bits and runs the exact stack pass over a mini cache with
``num_sets >> k`` sets at the same associativities.  Sampled hit ratios are
scaled to the exact access totals.  Levels where ``k == 0`` (small set
counts, or rate 1) are the exact pass, and compute no hashes.  The hash is
the splitmix64 finalizer over ``block XOR mix(seed)``
(:func:`hash_blocks`), so a profile is a pure function of (trace, block
size, rate, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cache.replacement import splitmix64
from ..cache.set_assoc import WritePolicy
from .batch import AddressBatch
from .batch_cache import BatchSetAssociativeCache
from .replacement_vec import SPLITMIX64_GAMMA, splitmix64_finalize_array

__all__ = [
    "PROFILE_MODES",
    "check_profile_mode",
    "ProfileOptions",
    "check_sample_options",
    "ProfileCounts",
    "hash_blocks",
    "level_rate_exponent",
    "MultiConfigLRUProfile",
    "MultiConfigPlan",
    "run_lru_grid",
    "profile_cache_info",
    "memo_info",
]

#: Valid values of every experiment's ``profile`` parameter.  ``"auto"``
#: runs every task on its own kernel, bit-exactly; ``"sampled"`` prices
#: LRU groups approximately through a sampled :class:`MultiConfigLRUProfile`
#: and everything else as ``"auto"`` does.
PROFILE_MODES = ("auto", "sampled")


def check_profile_mode(profile: str) -> str:
    """Validate a ``profile`` parameter value, returning it normalised."""
    label = str(profile).strip().lower()
    if label not in PROFILE_MODES:
        raise ValueError(
            f"unknown profile mode {profile!r}; expected one of {PROFILE_MODES}")
    return label


def check_sample_options(rate: float, sample_size: Optional[int] = None,
                         seed: int = 0,
                         ) -> Tuple[float, Optional[int], int]:
    """Validate the sampling knobs — a rate in (0, 1], a sample-size cap of
    at least 1 (or ``None``) and a non-negative hash seed — returning them
    as ``(float, int or None, int)``: the one check of all three, for the
    plan's options and the profile alike."""
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sample rate must be in (0, 1], got {rate}")
    if sample_size is not None:
        sample_size = int(sample_size)
        if sample_size < 1:
            raise ValueError(
                f"sample size must be at least 1, got {sample_size}")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"profile seed must be non-negative, got {seed}")
    return rate, sample_size, seed


@dataclass(frozen=True)
class ProfileOptions:
    """How a :class:`MultiConfigPlan` prices its tasks.

    ``profile`` is one of :data:`PROFILE_MODES`; ``sample_rate`` (in
    (0, 1]), ``sample_size`` (a cap on the expected sample, or ``None``)
    and ``profile_seed`` configure the sampled profile of
    ``profile="sampled"``.  The fields are the plan's keywords, validated
    at construction.
    """

    profile: str = "auto"
    sample_rate: float = 0.01
    sample_size: Optional[int] = None
    profile_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", check_profile_mode(self.profile))
        check_sample_options(self.sample_rate, self.sample_size,
                             self.profile_seed)

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


def hash_blocks(blocks: np.ndarray, seed: int = 0) -> np.ndarray:
    """Spatial sampling hash: uint64 splitmix64 finalizer per block number.

    A pure function of ``(block, seed)`` — every access to a block hashes
    identically, which is exactly what makes hash-threshold sampling
    *spatial* (whole blocks are kept or dropped, never individual
    accesses).  Finalized by
    :func:`repro.engine.replacement_vec.splitmix64_finalize_array`, like the
    random policy's draws.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    x = np.asarray(blocks).astype(np.uint64, copy=True)
    x ^= np.uint64(splitmix64(seed))
    x += np.uint64(SPLITMIX64_GAMMA)
    return splitmix64_finalize_array(x)


#: Smallest mini cache a level may be scaled down to.  A mini cache with
#: very few sets hosts too few sampled blocks for its hit ratio to be a
#: stable estimate (a one-set mini is a ~R-rate sample of a single LRU
#: stack); floors of ~16 sets keep miniature-simulation variance in line
#: with the fully-associative SHARDS estimator.
MIN_MINI_SETS = 16


def level_rate_exponent(num_sets: int, rate: float,
                        min_sets: int = MIN_MINI_SETS) -> int:
    """Mini-simulation exponent of one set-count level at a nominal rate.

    The largest ``k`` with ``2^-k >= rate``, capped so the mini cache
    keeps at least ``min_sets`` sets (never more than ``num_sets``): the
    level samples blocks at rate ``2^-k`` and scales its set count down by
    the same factor, preserving associativity.  Small-set levels are thus
    profiled at a higher rate than requested — variance control takes
    precedence over speed exactly where the level is cheap anyway.
    ``k == 0`` means the level is profiled exactly.
    """
    k = 0
    log2_sets = num_sets.bit_length() - 1
    log2_floor = max(1, min_sets).bit_length() - 1
    max_k = max(0, log2_sets - log2_floor)
    while k < max_k and 2.0 ** -(k + 1) >= rate:
        k += 1
    return k


class MultiConfigLRUProfile:
    """All-associativity profile of one (trace, block size) pair.

    ``level_caps`` maps each required set count (power of two; ``1`` is the
    fully-associative organisation) to the deepest associativity that will
    be read out of it.  Construction runs one capped stack pass per level;
    :meth:`miss_counts` then prices any ``(num_sets, ways)`` configuration
    of the grid in O(ways).

    At ``rate`` 1 (the default) every level is exact.  Below it, each level
    runs a miniature cache with ``num_sets >> k`` sets (at rate ``2^-k``,
    see :func:`level_rate_exponent`) over the blocks ``seed``'s hash keeps,
    and :meth:`miss_counts` scales its hit ratios to the exact load/store
    totals of the full stream; levels with ``k == 0`` stay exact.
    ``sample_size`` (optional) caps the expected sampled volume by lowering
    the rate to ``sample_size / accesses``, which keeps the mini caches'
    set scale fixed.
    """

    def __init__(self, batch: AddressBatch, block_size: int,
                 level_caps: Mapping[int, int],
                 write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                 rate: float = 1.0, seed: int = 0,
                 sample_size: Optional[int] = None) -> None:
        if write_policy not in WritePolicy.ALL:
            raise ValueError(f"unknown write policy {write_policy!r}")
        rate, sample_size, seed = check_sample_options(rate, sample_size,
                                                      seed)
        if sample_size is not None and len(batch):
            rate = max(min(rate, sample_size / len(batch)), 2.0 ** -64)
        self._rate = rate
        self._block_size = block_size
        self._mode = _store_mode(batch.has_stores, write_policy)
        blocks = batch.block_numbers(block_size)
        self._stores = int(batch.store_count)
        self._loads = len(batch) - self._stores
        writes = batch.is_write if self._mode != "loads" else None
        hashes = None
        self._levels: Dict[int, _LevelProfile] = {}
        self._level_rates: Dict[int, float] = {}
        # Levels sharing one exponent share one filtered substream.
        filtered: Dict[int, tuple] = {}
        for num_sets, max_ways in _checked_level_caps(level_caps).items():
            k = level_rate_exponent(num_sets, rate)
            if k not in filtered:
                keep = slice(None)
                if k:
                    if hashes is None:
                        hashes = hash_blocks(blocks, seed)
                    keep = (hashes >> np.uint64(64 - k)) == 0
                filtered[k] = (blocks[keep].tolist(),
                               None if writes is None
                               else writes[keep].tolist())
            state = _LevelState(num_sets >> k, _round_cap(max_ways),
                                self._mode)
            state.feed(*filtered[k])
            self._levels[num_sets] = state.profile()
            self._level_rates[num_sets] = 2.0 ** -k

    @property
    def block_size(self) -> int:
        """Line size (bytes) the profile was taken at."""
        return self._block_size

    @property
    def store_mode(self) -> str:
        """Stack-update semantics used (``loads``, ``uniform`` or ``wtna``)."""
        return self._mode

    @property
    def rate(self) -> float:
        """Effective nominal sampling rate (1.0 = exact)."""
        return self._rate

    @property
    def levels(self) -> List[int]:
        """Profiled set counts."""
        return sorted(self._levels)

    def _level(self, num_sets: int) -> _LevelProfile:
        level = self._levels.get(num_sets)
        if level is None:
            raise KeyError(f"set count {num_sets} was not profiled "
                           f"(levels: {self.levels})")
        return level

    def level_rate(self, num_sets: int) -> float:
        """The power-of-two rate one level was sampled at (1.0 = exact)."""
        self._level(num_sets)
        return self._level_rates[num_sets]

    def miss_counts(self, num_sets: int, ways: int) -> ProfileCounts:
        """Counters of the ``(num_sets, ways)`` LRU configuration.

        Exact when the level's rate is 1.0; otherwise the mini cache's
        load/store hit ratios scaled to the exact full-stream totals and
        rounded to integers (so the derived ratios stay consistent with
        the counts).
        """
        level = self._level(num_sets)
        if ways > level.cap:
            raise ValueError(
                f"ways {ways} exceeds the profiled depth cap {level.cap} "
                f"at {num_sets} sets")
        # distance d hits every cache with ways > d: hit iff d < ways, and
        # distance == ways is exactly the first miss — no tolerance band.
        load_hits = sum(level.hist_load[:ways])
        store_hits = sum(level.hist_store[:ways])
        if self._level_rates[num_sets] >= 1.0:
            return ProfileCounts(loads=level.loads, stores=level.stores,
                                 load_misses=level.loads - load_hits,
                                 store_misses=level.stores - store_hits)
        est_load_hits = (round(self._loads * load_hits / level.loads)
                         if level.loads else 0)
        est_store_hits = (round(self._stores * store_hits / level.stores)
                          if level.stores else 0)
        return ProfileCounts(loads=self._loads, stores=self._stores,
                             load_misses=self._loads - est_load_hits,
                             store_misses=self._stores - est_store_hits)


# --------------------------------------------------------------------- #
# part (b): sweep partitioning
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
    level: Optional[Tuple[int, int]]  # (num_sets, ways) when profiled


class MultiConfigPlan:
    """Partition a sweep's tasks into profiled and kernel-run configurations.

    Drivers :meth:`add` one entry per task — a result key, the
    :class:`AddressBatch` the task replays, and a zero-argument cache
    factory — then call :meth:`run` once.  One rule, on both kernel tiers:
    ``profile="auto"`` runs every task on its cache's own kernel;
    ``profile="sampled"`` groups the :meth:`profilable` tasks per (trace
    identity, block size, store mode) and prices each group out of one
    sampled :class:`MultiConfigLRUProfile`, and runs every other task on
    its own kernel.
    """

    def __init__(self, profile: str = "auto", sample_rate: float = 0.01,
                 sample_size: Optional[int] = None,
                 profile_seed: int = 0) -> None:
        self._options = ProfileOptions(profile, sample_rate, sample_size,
                                       profile_seed)
        self._tasks: List[_PlanTask] = []

    @staticmethod
    def profilable(cache, batch: AddressBatch) -> Optional[Tuple[int, int]]:
        """The ``(num_sets, ways)`` level a cache can be profiled at, or None.

        Requires a cold :class:`BatchSetAssociativeCache` with bit-selection
        (or single-set) placement, LRU replacement and no 3C classifier.
        Both write policies qualify — the store-mode kernels absorb the
        difference — but a warmed cache never does (profiles assume a cold
        start).
        """
        if not isinstance(cache, BatchSetAssociativeCache):
            return None
        if cache.replacement_name != "lru":
            return None
        if cache._classifier is not None or cache._clock != 0:
            return None
        key = cache.index_function.cache_key
        if key is None or key[0] not in _BIT_SELECT_KEYS:
            return None
        return cache.num_sets, cache.ways

    def add(self, key: Hashable, batch: AddressBatch,
            factory: Callable[[], object],
            runner: Optional[Callable] = None) -> None:
        """Register one task: result ``key``, its batch, a cache factory.

        ``runner(cache, batch)`` overrides how a kernel-run task is driven
        (defaults to ``cache.run(batch)``) — the studies pass their scalar
        replay shim so caller-supplied organisations keep working.
        """
        cache = factory()
        level = (self.profilable(cache, batch)
                 if self._options.profile == "sampled" else None)
        self._tasks.append(_PlanTask(key=key, batch=batch, cache=cache,
                                     runner=runner, level=level))

    @staticmethod
    def _group_key(task: _PlanTask) -> tuple:
        cache = task.cache
        mode = _store_mode(task.batch.has_stores, cache.write_policy)
        # Two batches may share one address array under different store
        # masks; store-sensitive modes therefore key on the mask identity
        # too (an all-loads mask is behaviourally unique, so "loads" mode
        # only needs the addresses).
        mask_id = id(task.batch.is_write) if mode != "loads" else None
        return (id(task.batch.addresses), mask_id, cache.block_size, mode)

    def run(self) -> Dict[Hashable, ProfileCounts]:
        """Execute the plan; returns ``{key: ProfileCounts}`` for every task."""
        groups: Dict[tuple, List[_PlanTask]] = {}
        for task in self._tasks:
            if task.level is not None:
                groups.setdefault(self._group_key(task), []).append(task)

        options = self._options
        results: Dict[Hashable, ProfileCounts] = {}
        for group in groups.values():
            level_caps: Dict[int, int] = {}
            for task in group:
                num_sets, ways = task.level
                level_caps[num_sets] = max(level_caps.get(num_sets, 0), ways)
            exemplar = group[0]
            profile = MultiConfigLRUProfile(
                exemplar.batch, exemplar.cache.block_size, level_caps,
                write_policy=exemplar.cache.write_policy,
                rate=options.sample_rate, seed=options.profile_seed,
                sample_size=options.sample_size)
            for task in group:
                results[task.key] = profile.miss_counts(*task.level)

        for task in self._tasks:
            if task.level is not None:
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
    runs each on its own kernel; ``profile="sampled"`` prices LRU grids
    out of one :class:`MultiConfigLRUProfile` at ``sample_rate``
    (``sample_size`` caps the expected number of sampled accesses,
    ``profile_seed`` picks the hash universe; rate 1 is exact).
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
