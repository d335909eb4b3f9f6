"""SHARDS-style sampled reuse-distance profiling (approximate, ~1% cost).

The exact profilers in :mod:`repro.engine.multiconfig` make a dense
conventional-LRU sweep cost one trace pass — but still a *full* pass: every
access pays Fenwick/stack work.  For production-scale "price every
configuration" sweeps the classic answer is **spatially hashed sampling**
(SHARDS — Waldspurger, Park, Garthwaite & Ahmad, FAST'15): hash each block
number with a fixed seed and keep only blocks whose hash falls under a
threshold ``T``, i.e. sample *blocks* at rate ``R = T / 2^64``, not
accesses.  Because all accesses to a sampled block are kept together, reuse
behaviour survives the filter; distances measured on the sampled substream
are unbiased estimates of ``R`` times the true distance, so rescaling by
``1/R`` (and weighting counts by ``1/R``) recovers the full miss-ratio
curve from ~``R·N`` accesses of work.  Two sampling modes:

* **fixed-rate** — ``R`` chosen up front; memory grows with the sampled
  footprint;
* **fixed-size** — the threshold adapts downward so at most ``S_max``
  distinct blocks are ever tracked (SHARDS' ``S_max`` mode): when the
  sample set overflows, the largest-hash block sets the new threshold and
  every block at or above it is evicted from the sample.  Each access is
  recorded with the weight ``1/R`` *in effect when it was measured*;
  earlier records are not revisited.

Two sampled profiles mirror their exact twins' query APIs:

* :class:`SampledStackDistanceProfile` (twin of
  :class:`~repro.engine.multiconfig.StackDistanceProfile`): the classic
  SHARDS estimator — sampled reuse distances, rescaled at measurement time,
  weighted readout of the fully-associative LRU miss-ratio curve.  Both
  sampling modes.

* :class:`SampledMultiConfigLRUProfile` (twin of
  :class:`~repro.engine.multiconfig.MultiConfigLRUProfile`): set-associative
  grids.  Naive distance rescaling is badly biased at small associativity
  (a 2-way set at ``R = 0.01`` would have to resolve scaled distances of
  0.02 ways), so this profile uses **miniature simulation** (Waldspurger et
  al., ATC'17 "Cache Modeling and Optimization using Miniature
  Simulations"): per set-count level it picks the largest power-of-two
  exponent ``k`` with ``2^-k >= rate`` (capped at ``log2(num_sets)``),
  keeps blocks whose hash has ``k`` leading zero bits (rate ``2^-k``), and
  runs the *exact* capped per-set stack kernel over a mini cache with
  ``num_sets >> k`` sets at the same associativities — same store-mode
  semantics (``loads``/``uniform``/``wtna``), unbiased set occupancy, and
  the all-associativity readout intact.  Sampled hit ratios are scaled to
  the *exact* access totals (the filter observes every access, so totals
  are not estimates).  Levels where ``k == 0`` (single-set organisations,
  or rates at/above 1) degrade to the exact kernel — bit-identical to the
  exact twin.

Determinism: the hash is the splitmix64 finalizer over
``block XOR mix(seed)`` (the one of
:func:`repro.engine.replacement_vec.splitmix64_finalize_array`), so a profile is a
pure function of (trace, block size, rate, seed) — identical across runs,
chunkings and platforms.  Both profiles have carried-state Builder forms
(:class:`SampledStackDistanceBuilder`,
:class:`SampledMultiConfigProfileBuilder`) whose chunked feeding is
bit-identical to the one-shot constructors by construction.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cache.replacement import splitmix64
from ..cache.set_assoc import WritePolicy
from .batch import AddressBatch
from .memo import cached_block_numbers
from .multiconfig import (
    ProfileCounts,
    _checked_level_caps,
    _LevelProfile,
    _LevelState,
    _round_cap,
    _store_mode,
)
from .replacement_vec import SPLITMIX64_GAMMA, splitmix64_finalize_array

__all__ = [
    "hash_blocks",
    "check_sample_rate",
    "sample_threshold",
    "level_rate_exponent",
    "SpatialSampler",
    "AdaptiveSpatialSampler",
    "SampledStackDistanceProfile",
    "SampledStackDistanceBuilder",
    "SampledMultiConfigLRUProfile",
    "SampledMultiConfigProfileBuilder",
]

_TWO64 = 1 << 64


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


def check_sample_rate(rate: float) -> float:
    """Validate a sampling rate, returning it as a float in (0, 1]."""
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sample rate must be in (0, 1], got {rate}")
    return rate


def sample_threshold(rate: float) -> int:
    """The 64-bit hash threshold realising ``rate``: sample iff hash < T."""
    rate = check_sample_rate(rate)
    return min(_TWO64, max(1, int(round(rate * _TWO64))))


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
    rate = check_sample_rate(rate)
    k = 0
    log2_sets = num_sets.bit_length() - 1
    log2_floor = max(1, min_sets).bit_length() - 1
    max_k = max(0, log2_sets - log2_floor)
    while k < max_k and 2.0 ** -(k + 1) >= rate:
        k += 1
    return k


class SpatialSampler:
    """Fixed-rate spatial hash filter: keep block ``b`` iff ``hash(b) < T``.

    Stateless and vectorized; the same (rate, seed) pair selects the same
    blocks in any chunking of the trace.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        self._rate = check_sample_rate(rate)
        self._seed = int(seed)
        if self._seed < 0:
            raise ValueError("seed must be non-negative")
        self._threshold = sample_threshold(self._rate)

    @property
    def rate(self) -> float:
        """Nominal sampling rate ``R = T / 2^64``."""
        return self._rate

    @property
    def seed(self) -> int:
        """Hash seed."""
        return self._seed

    @property
    def threshold(self) -> int:
        """64-bit hash threshold ``T``."""
        return self._threshold

    def mask(self, blocks: np.ndarray) -> np.ndarray:
        """Boolean keep-mask over a block-number array."""
        hashes = hash_blocks(blocks, self._seed)
        if self._threshold >= _TWO64:
            return np.ones(hashes.shape, dtype=bool)
        return hashes < np.uint64(self._threshold)


class AdaptiveSpatialSampler:
    """Fixed-size (``S_max``) spatial filter with a self-lowering threshold.

    Tracks the distinct blocks currently sampled; when a new block would
    grow the set beyond ``max_blocks``, the threshold drops to the largest
    hash in the set and every block at or above it is evicted (SHARDS'
    fixed-size mode).  The threshold only ever decreases, so an evicted
    block can never re-enter.  ``on_evict`` (set by the owning builder) is
    called with each evicted block.
    """

    def __init__(self, max_blocks: int, seed: int = 0,
                 initial_rate: float = 1.0) -> None:
        if int(max_blocks) < 1:
            raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")
        self._max_blocks = int(max_blocks)
        self._seed = int(seed)
        if self._seed < 0:
            raise ValueError("seed must be non-negative")
        self._threshold = sample_threshold(initial_rate)
        self._active: Dict[int, int] = {}  # block -> hash
        self._heap: List[Tuple[int, int]] = []  # (-hash, block)
        self.on_evict = None

    @property
    def seed(self) -> int:
        """Hash seed."""
        return self._seed

    @property
    def max_blocks(self) -> int:
        """Bound on distinct sampled blocks (``S_max``)."""
        return self._max_blocks

    @property
    def threshold(self) -> int:
        """Current 64-bit hash threshold (monotonically non-increasing)."""
        return self._threshold

    @property
    def rate(self) -> float:
        """Current sampling rate ``T / 2^64``."""
        return self._threshold / _TWO64

    @property
    def active_blocks(self) -> int:
        """Distinct blocks currently tracked."""
        return len(self._active)

    def admit(self, block: int, block_hash: int) -> bool:
        """Test one access against the *current* threshold; True if sampled.

        The caller pre-filters each chunk against the threshold *at chunk
        entry*; because the threshold can drop mid-chunk, this re-checks.
        Call :meth:`shrink` after recording the access: the triggering
        access is itself measured at the pre-drop rate (each record carries
        the rate in effect when it was measured), and the eviction callback
        then sees fully-recorded state — even when the new block is its own
        victim.
        """
        if block_hash >= self._threshold:
            return False
        if block not in self._active:
            self._active[block] = block_hash
            heappush(self._heap, (-block_hash, block))
        return True

    def shrink(self) -> None:
        """Enforce ``S_max``: lower the threshold to the largest tracked
        hash and evict every block at or above it (ties included)."""
        while len(self._active) > self._max_blocks:
            top_hash, _ = self._heap[0]
            self._threshold = -top_hash
            while self._heap and -self._heap[0][0] >= self._threshold:
                _, victim = heappop(self._heap)
                del self._active[victim]
                if self.on_evict is not None:
                    self.on_evict(victim)


# --------------------------------------------------------------------- #
# sampled fully-associative profile (classic SHARDS)
# --------------------------------------------------------------------- #

class SampledStackDistanceProfile:
    """Sampled twin of :class:`~repro.engine.multiconfig.StackDistanceProfile`.

    Holds per-sampled-access reuse distances *already rescaled* to
    full-trace units (``round(d / R)`` at the measurement-time rate; ``-1``
    marks a first touch) with per-access weights ``1/R``, plus the exact
    total access count of the unsampled stream.  The readout mirrors the
    exact twin: ``hit_count``/``miss_count``/``miss_ratio``/
    ``miss_ratio_curve`` price a fully-associative LRU cache of any
    capacity — as integer-backed estimates (hit counts are the weighted
    sampled hit fraction scaled to the exact total, rounded), so
    ``miss_ratio == miss_count / accesses`` holds exactly like the twin's.
    """

    def __init__(self, distances: np.ndarray, weights: np.ndarray,
                 accesses: int, rate: float, seed: int = 0) -> None:
        distances = np.asarray(distances, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if distances.ndim != 1 or distances.shape != weights.shape:
            raise ValueError("distances and weights must be matching 1-D arrays")
        if accesses < distances.shape[0]:
            raise ValueError("total accesses cannot be fewer than sampled")
        self._distances = distances
        self._weights = weights
        self._accesses = int(accesses)
        self._rate = check_sample_rate(rate)
        self._seed = int(seed)
        self._total_weight = float(weights.sum()) if weights.size else 0.0
        reused = distances >= 0
        order = np.argsort(distances[reused], kind="stable")
        self._sorted_distances = distances[reused][order]
        cum = np.cumsum(weights[reused][order], dtype=np.float64)
        self._cumulative_weight = np.concatenate(([0.0], cum))

    # -- construction -------------------------------------------------- #

    @classmethod
    def from_blocks(cls, blocks: np.ndarray, rate: float = 0.01,
                    seed: int = 0, max_blocks: Optional[int] = None,
                    ) -> "SampledStackDistanceProfile":
        """Profile a block-number array at ``rate`` (optionally ``S_max``-bounded)."""
        builder = SampledStackDistanceBuilder(rate=rate, seed=seed,
                                              max_blocks=max_blocks)
        builder.feed(blocks)
        return builder.finish()

    @classmethod
    def from_batch(cls, batch: AddressBatch, block_size: int,
                   rate: float = 0.01, seed: int = 0,
                   max_blocks: Optional[int] = None,
                   ) -> "SampledStackDistanceProfile":
        """Profile a batch at the given line size."""
        return cls.from_blocks(cached_block_numbers(batch, block_size),
                               rate=rate, seed=seed, max_blocks=max_blocks)

    # -- readout ------------------------------------------------------- #

    @property
    def accesses(self) -> int:
        """Exact number of accesses in the *unsampled* stream."""
        return self._accesses

    @property
    def sampled_accesses(self) -> int:
        """Accesses that survived the spatial filter."""
        return int(self._distances.shape[0])

    @property
    def rate(self) -> float:
        """Nominal sampling rate the profile was requested at."""
        return self._rate

    @property
    def seed(self) -> int:
        """Hash seed."""
        return self._seed

    @property
    def distances(self) -> np.ndarray:
        """Sampled reuse distances, rescaled to full-trace units."""
        return self._distances

    @property
    def weights(self) -> np.ndarray:
        """Per-sampled-access weights (``1/R`` at measurement time)."""
        return self._weights

    def _hit_fraction(self, capacity_blocks: int) -> float:
        if capacity_blocks < 1:
            raise ValueError("capacity_blocks must be positive")
        if self._total_weight <= 0.0:
            return 0.0
        index = np.searchsorted(self._sorted_distances, capacity_blocks,
                                side="left")
        return float(self._cumulative_weight[index]) / self._total_weight

    def hit_count(self, capacity_blocks: int) -> int:
        """Estimated hits of a fully-associative LRU cache of that capacity."""
        return int(round(self._accesses * self._hit_fraction(capacity_blocks)))

    def miss_count(self, capacity_blocks: int) -> int:
        """Estimated misses at one capacity."""
        return self._accesses - self.hit_count(capacity_blocks)

    def miss_ratio(self, capacity_blocks: int) -> float:
        """Estimated miss ratio at one capacity; 0.0 for an empty profile."""
        if not self._accesses:
            return 0.0
        return self.miss_count(capacity_blocks) / self._accesses

    def miss_ratio_curve(self, capacities: Sequence[int]) -> np.ndarray:
        """Estimated miss ratio at each capacity (blocks)."""
        return np.array([self.miss_ratio(c) for c in capacities])


class SampledStackDistanceBuilder:
    """Incremental :class:`SampledStackDistanceProfile` over a chunked stream.

    Fixed-rate (``rate``) or fixed-size (``max_blocks``; the rate then only
    sets the *initial* threshold, default 1.0).  Each chunk is hash-filtered
    vectorized against the entry threshold, then the surviving accesses run
    the carried Fenwick/last-position machinery of the exact
    :class:`~repro.engine.multiconfig.StackDistanceBuilder`, restricted to
    sampled positions — with the one extra move SHARDS needs: a block
    evicted from the sample drops its live marker, so later distances only
    count blocks still under the threshold.  Distances are rescaled and
    weighted at measurement time, making chunked feeding bit-identical to
    the one-shot constructors for any chunking.
    """

    def __init__(self, rate: Optional[float] = None, seed: int = 0,
                 max_blocks: Optional[int] = None) -> None:
        if rate is None and max_blocks is None:
            raise ValueError("need a sampling rate, a max_blocks bound, or both")
        self._nominal_rate = check_sample_rate(
            rate if rate is not None else 1.0)
        self._seed = int(seed)
        if self._seed < 0:
            raise ValueError("seed must be non-negative")
        if max_blocks is not None:
            self._sampler = AdaptiveSpatialSampler(
                max_blocks, seed=seed, initial_rate=self._nominal_rate)
            self._sampler.on_evict = self._evict
        else:
            self._sampler = None
            self._threshold = sample_threshold(self._nominal_rate)
        self._accesses = 0          # full-stream accesses seen
        self._count = 0             # sampled accesses (Fenwick positions)
        self._distances: List[int] = []
        self._weights: List[float] = []
        self._last_pos: Dict[int, int] = {}
        self._cap = 1024
        self._tree = [0] * (self._cap + 1)

    # -- Fenwick over sampled positions -------------------------------- #

    def _grow(self, need: int) -> None:
        cap = self._cap
        while cap < need:
            cap <<= 1
        self._cap = cap
        tree = [0] * (cap + 1)
        for position in self._last_pos.values():
            pos = position + 1
            while pos <= cap:
                tree[pos] += 1
                pos += pos & -pos
        self._tree = tree

    def _prefix(self, pos: int) -> int:
        tree = self._tree
        total = 0
        while pos:
            total += tree[pos]
            pos -= pos & -pos
        return total

    def _update(self, pos: int, delta: int) -> None:
        tree = self._tree
        cap = self._cap
        while pos <= cap:
            tree[pos] += delta
            pos += pos & -pos

    def _evict(self, block: int) -> None:
        """Sample eviction: drop the block's live marker and tracking."""
        position = self._last_pos.pop(block, None)
        if position is not None:
            self._update(position + 1, -1)

    # -- feeding ------------------------------------------------------- #

    @property
    def accesses(self) -> int:
        """Full-stream accesses consumed so far."""
        return self._accesses

    @property
    def sampled_accesses(self) -> int:
        """Sampled accesses recorded so far."""
        return self._count

    @property
    def rate(self) -> float:
        """Current sampling rate (fixed, or the adaptive threshold's)."""
        if self._sampler is not None:
            return self._sampler.rate
        return self._threshold / _TWO64

    @property
    def seed(self) -> int:
        """Hash seed."""
        return self._seed

    def feed(self, blocks: np.ndarray) -> None:
        """Consume one chunk of block numbers (trace order)."""
        blocks = np.asarray(blocks, dtype=np.int64)
        self._accesses += int(blocks.shape[0])
        if not blocks.shape[0]:
            return
        hashes = hash_blocks(blocks, self._seed)
        threshold = (self._sampler.threshold if self._sampler is not None
                     else self._threshold)
        if threshold >= _TWO64:
            kept = np.arange(blocks.shape[0])
        else:
            kept = np.flatnonzero(hashes < np.uint64(threshold))
        if not kept.size:
            return
        kept_blocks = blocks[kept].tolist()
        kept_hashes = hashes[kept].tolist()
        if self._count + len(kept_blocks) > self._cap:
            self._grow(self._count + len(kept_blocks))
        sampler = self._sampler
        last_pos = self._last_pos
        distances = self._distances
        weights = self._weights
        i = self._count
        for b, h in zip(kept_blocks, kept_hashes):
            if sampler is not None:
                rate = sampler.threshold / _TWO64
                if not sampler.admit(b, h):
                    continue
            else:
                rate = self._nominal_rate
            p = last_pos.get(b, -1)
            if p < 0:
                distances.append(-1)
            else:
                raw = self._prefix(i) - self._prefix(p + 1)
                distances.append(int(round(raw / rate)))
                self._update(p + 1, -1)
            weights.append(1.0 / rate)
            self._update(i + 1, 1)
            last_pos[b] = i
            i += 1
            if sampler is not None:
                sampler.shrink()
        self._count = i

    def feed_batch(self, batch: AddressBatch, block_size: int) -> None:
        """Consume one :class:`AddressBatch` at the given line size."""
        self.feed(cached_block_numbers(batch, block_size))

    def finish(self) -> SampledStackDistanceProfile:
        """The profile of everything fed so far (builder stays usable)."""
        return SampledStackDistanceProfile(
            np.array(self._distances, dtype=np.int64),
            np.array(self._weights, dtype=np.float64),
            self._accesses, rate=self._nominal_rate, seed=self._seed)


# --------------------------------------------------------------------- #
# sampled all-associativity profile (miniature simulation)
# --------------------------------------------------------------------- #

def _effective_rate(rate: float, sample_size: Optional[int],
                    accesses: int) -> float:
    """Lower ``rate`` so the expected sampled volume fits ``sample_size``.

    The plan-facing meaning of ``--sample-size`` for in-memory batches:
    with the stream length known, an ``S_max`` bound on sampled *accesses*
    is just a rate cap (``size / accesses``), which keeps the mini caches'
    set scale fixed — the property miniature simulation needs.
    """
    rate = check_sample_rate(rate)
    if sample_size is None:
        return rate
    if int(sample_size) < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if accesses <= 0:
        return rate
    return max(min(rate, float(sample_size) / float(accesses)),
               1.0 / _TWO64)


class SampledMultiConfigLRUProfile:
    """Sampled twin of :class:`~repro.engine.multiconfig.MultiConfigLRUProfile`.

    Per set-count level, a miniature cache with ``num_sets >> k`` sets (at
    rate ``2^-k``, see :func:`level_rate_exponent`) runs the exact capped
    stack kernel over the hash-filtered substream, under the same store
    mode as the exact twin; :meth:`miss_counts` scales the mini cache's
    hit ratios to the exact load/store totals of the full stream.  Levels
    with ``k == 0`` are exact.  ``sample_size`` (optional) caps the
    expected sampled volume by lowering the rate (see
    :func:`_effective_rate`).
    """

    def __init__(self, batch: AddressBatch, block_size: int,
                 level_caps: Mapping[int, int],
                 write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                 rate: float = 0.01, seed: int = 0,
                 sample_size: Optional[int] = None) -> None:
        builder = SampledMultiConfigProfileBuilder(
            block_size, level_caps, write_policy=write_policy,
            has_stores=batch.has_stores,
            rate=_effective_rate(rate, sample_size, len(batch)), seed=seed)
        builder.feed(batch)
        frozen = builder.finish()
        self._init_from_parts(*frozen._parts())

    def _init_from_parts(self, block_size: int, mode: str, rate: float,
                         seed: int, loads: int, stores: int,
                         levels: Mapping[int, _LevelProfile],
                         level_rates: Mapping[int, float],
                         level_totals: Mapping[int, Tuple[int, int]]) -> None:
        self._block_size = block_size
        self._mode = mode
        self._rate = rate
        self._seed = seed
        self._loads = loads
        self._stores = stores
        self._levels = dict(levels)
        self._level_rates = dict(level_rates)
        self._level_totals = dict(level_totals)

    @classmethod
    def _from_parts(cls, *parts) -> "SampledMultiConfigLRUProfile":
        """Wrap prebuilt level state (the builder's finish path)."""
        self = cls.__new__(cls)
        self._init_from_parts(*parts)
        return self

    def _parts(self) -> tuple:
        return (self._block_size, self._mode, self._rate, self._seed,
                self._loads, self._stores, self._levels, self._level_rates,
                self._level_totals)

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
        """Effective nominal sampling rate."""
        return self._rate

    @property
    def seed(self) -> int:
        """Hash seed."""
        return self._seed

    @property
    def accesses(self) -> int:
        """Exact accesses in the unsampled stream."""
        return self._loads + self._stores

    @property
    def levels(self) -> List[int]:
        """Profiled set counts."""
        return sorted(self._levels)

    def level_rate(self, num_sets: int) -> float:
        """The power-of-two rate one level was sampled at (1.0 = exact)."""
        if num_sets not in self._level_rates:
            raise KeyError(f"set count {num_sets} was not profiled "
                           f"(levels: {self.levels})")
        return self._level_rates[num_sets]

    def sampled_accesses(self, num_sets: int) -> int:
        """Accesses that reached one level's mini cache."""
        loads, stores = self._level_totals[num_sets]
        return loads + stores

    def miss_counts(self, num_sets: int, ways: int) -> ProfileCounts:
        """Estimated counters of the ``(num_sets, ways)`` LRU configuration.

        Bit-exact when the level's rate is 1.0; otherwise the mini cache's
        load/store hit ratios scaled to the exact full-stream totals and
        rounded to integers (so the derived ratios stay consistent with
        the counts, as in the exact twin).
        """
        level = self._levels.get(num_sets)
        if level is None:
            raise KeyError(f"set count {num_sets} was not profiled "
                           f"(levels: {self.levels})")
        if ways > level.cap:
            raise ValueError(
                f"ways {ways} exceeds the profiled depth cap {level.cap} "
                f"at {num_sets} sets")
        load_hits = sum(level.hist_load[:ways])
        store_hits = sum(level.hist_store[:ways])
        if self._level_rates[num_sets] >= 1.0:
            return ProfileCounts(loads=level.loads, stores=level.stores,
                                 load_misses=level.loads - load_hits,
                                 store_misses=level.stores - store_hits)
        est_load_hits = (int(round(self._loads * load_hits / level.loads))
                         if level.loads else 0)
        est_store_hits = (int(round(self._stores * store_hits / level.stores))
                          if level.stores else 0)
        return ProfileCounts(loads=self._loads, stores=self._stores,
                             load_misses=self._loads - est_load_hits,
                             store_misses=self._stores - est_store_hits)


class SampledMultiConfigProfileBuilder:
    """Incremental :class:`SampledMultiConfigLRUProfile` over a chunked trace.

    Mirrors :class:`~repro.engine.multiconfig.MultiConfigProfileBuilder`:
    one carried mini :class:`_LevelState` per set count (scaled by that
    level's power-of-two rate), fed the hash-filtered substream chunk by
    chunk.  The rate is fixed at construction (a stream's length is
    unknown, so the ``sample_size`` rate cap is a one-shot-only
    convenience), making chunked and one-shot profiles bit-identical.

    As with the exact builder, the store mode must be declared up front;
    feeding a chunk that contradicts it raises immediately rather than
    letting the profile silently drift.
    """

    def __init__(self, block_size: int, level_caps: Mapping[int, int],
                 write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                 has_stores: bool = True, rate: float = 0.01,
                 seed: int = 0) -> None:
        if write_policy not in WritePolicy.ALL:
            raise ValueError(f"unknown write policy {write_policy!r}")
        self._block_size = block_size
        self._mode = _store_mode(has_stores, write_policy)
        self._rate = check_sample_rate(rate)
        self._seed = int(seed)
        if self._seed < 0:
            raise ValueError("seed must be non-negative")
        self._loads = 0
        self._stores = 0
        self._states: Dict[int, _LevelState] = {}
        self._level_k: Dict[int, int] = {}
        self._level_loads: Dict[int, int] = {}
        self._level_stores: Dict[int, int] = {}
        for num_sets, max_ways in _checked_level_caps(level_caps).items():
            k = level_rate_exponent(num_sets, self._rate)
            self._level_k[num_sets] = k
            self._states[num_sets] = _LevelState(
                num_sets >> k, _round_cap(max_ways), self._mode)
            self._level_loads[num_sets] = 0
            self._level_stores[num_sets] = 0

    @property
    def store_mode(self) -> str:
        """Stack-update semantics used (``loads``, ``uniform`` or ``wtna``)."""
        return self._mode

    @property
    def rate(self) -> float:
        """Nominal sampling rate (per-level rates are its power-of-two caps)."""
        return self._rate

    @property
    def seed(self) -> int:
        """Hash seed."""
        return self._seed

    @property
    def accesses(self) -> int:
        """Full-stream accesses consumed so far."""
        return self._loads + self._stores

    def feed(self, batch: AddressBatch) -> int:
        """Consume one chunk; returns its length."""
        if self._mode == "loads" and batch.has_stores:
            raise ValueError(
                "store mode changed mid-stream: this builder was created "
                "with has_stores=False but the chunk fed after "
                f"{self.accesses} accesses contains stores; create the "
                "builder with has_stores=True (the write policy's store "
                "semantics then apply to every chunk)")
        blocks = cached_block_numbers(batch, self._block_size)
        n = int(blocks.shape[0])
        if not n:
            return 0
        stores = int(batch.store_count)
        self._loads += n - stores
        self._stores += stores
        hashes = hash_blocks(blocks, self._seed)
        writes = batch.is_write if self._mode != "loads" else None
        # Levels sharing one exponent share one filtered substream.
        filtered: Dict[int, Tuple[list, Optional[list], int]] = {}
        for num_sets, state in self._states.items():
            k = self._level_k[num_sets]
            if k not in filtered:
                if k == 0:
                    kept_blocks = blocks.tolist()
                    kept_writes = (writes.tolist() if writes is not None
                                   else None)
                    kept_stores = stores
                else:
                    keep = (hashes >> np.uint64(64 - k)) == 0
                    kept_blocks = blocks[keep].tolist()
                    if writes is not None:
                        kept_writes_arr = writes[keep]
                        kept_writes = kept_writes_arr.tolist()
                        kept_stores = int(np.count_nonzero(kept_writes_arr))
                    else:
                        kept_writes = None
                        kept_stores = 0
                filtered[k] = (kept_blocks, kept_writes, kept_stores)
            kept_blocks, kept_writes, kept_stores = filtered[k]
            if kept_blocks:
                state.feed(kept_blocks, kept_writes)
            self._level_loads[num_sets] += len(kept_blocks) - kept_stores
            self._level_stores[num_sets] += kept_stores
        return n

    def finish(self) -> "SampledMultiConfigLRUProfile":
        """Freeze into a profile (builder stays usable for more chunks)."""
        return SampledMultiConfigLRUProfile._from_parts(
            self._block_size, self._mode, self._rate, self._seed,
            self._loads, self._stores,
            {num_sets: state.profile()
             for num_sets, state in self._states.items()},
            {num_sets: 2.0 ** -k for num_sets, k in self._level_k.items()},
            {num_sets: (self._level_loads[num_sets],
                        self._level_stores[num_sets])
             for num_sets in self._states})
