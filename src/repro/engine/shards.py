"""SHARDS-style sampled all-associativity LRU profiling (approximate).

The exact profile of :mod:`repro.engine.multiconfig` makes a dense
conventional-LRU sweep cost one trace pass — but still a *full* pass: every
access pays stack work.  The classic answer is **spatially hashed
sampling** (SHARDS — Waldspurger, Park, Garthwaite & Ahmad, FAST'15): hash
each block number with a fixed seed and keep only the blocks whose hash
falls under a threshold, i.e. sample *blocks* at rate ``R``, not accesses.
Because all accesses to a sampled block are kept together, reuse behaviour
survives the filter, and the work drops to ~``R·N`` accesses.

:class:`SampledMultiConfigLRUProfile` (twin of
:class:`~repro.engine.multiconfig.MultiConfigLRUProfile`) prices
set-associative grids.  Naive distance rescaling is badly biased at small
associativity (a 2-way set at ``R = 0.01`` would have to resolve scaled
distances of 0.02 ways), so it uses **miniature simulation** (Waldspurger
et al., ATC'17 "Cache Modeling and Optimization using Miniature
Simulations"): per set-count level it picks the largest power-of-two
exponent ``k`` with ``2^-k >= rate`` (capped so the mini cache keeps
:data:`MIN_MINI_SETS` sets), keeps blocks whose hash has ``k`` leading zero
bits (rate ``2^-k``), and runs the *exact* capped per-set stack kernel over
a mini cache with ``num_sets >> k`` sets at the same associativities —
same store-mode semantics (``loads``/``uniform``/``wtna``), unbiased set
occupancy, and the all-associativity readout intact.  Sampled hit ratios
are scaled to the *exact* access totals (the filter observes every access,
so totals are not estimates).  Levels where ``k == 0`` (small set counts,
or rates at/above 1) degrade to the exact kernel — bit-identical to the
exact twin.

Determinism: the hash is the splitmix64 finalizer over
``block XOR mix(seed)`` (the one of
:func:`repro.engine.replacement_vec.splitmix64_finalize_array`), so a
profile is a pure function of (trace, block size, rate, seed) — identical
across runs and platforms.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from ..cache.replacement import splitmix64
from ..cache.set_assoc import WritePolicy
from .batch import AddressBatch
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
    "level_rate_exponent",
    "SampledMultiConfigLRUProfile",
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
        if write_policy not in WritePolicy.ALL:
            raise ValueError(f"unknown write policy {write_policy!r}")
        self._seed = int(seed)
        if self._seed < 0:
            raise ValueError("seed must be non-negative")
        self._block_size = block_size
        self._mode = _store_mode(batch.has_stores, write_policy)
        self._rate = _effective_rate(rate, sample_size, len(batch))
        blocks = batch.block_numbers(block_size)
        self._stores = int(batch.store_count)
        self._loads = int(blocks.shape[0]) - self._stores
        hashes = hash_blocks(blocks, self._seed)
        writes = batch.is_write if self._mode != "loads" else None
        self._levels: Dict[int, _LevelProfile] = {}
        self._level_rates: Dict[int, float] = {}
        # Levels sharing one exponent share one filtered substream.
        filtered: Dict[int, tuple] = {}
        for num_sets, max_ways in _checked_level_caps(level_caps).items():
            k = level_rate_exponent(num_sets, self._rate)
            if k not in filtered:
                keep = (slice(None) if k == 0
                        else (hashes >> np.uint64(64 - k)) == 0)
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
