"""The one-set (fully-associative) path of both kernel tiers, differentially.

A one-set cache runs ``repro_fa_run`` (``compiled-fully-assoc-*``) or its
Python twin (``python-fully-assoc-*``): a block -> way map finds hits, a
cursor finds fills and a recency order (LRU, FIFO) or the PLRU tree picks
victims, where the generic loops scan every way.  Each case runs one trace
through a batch cache on four kernels — the two one-set paths and the two
generic loops (``repro_sa_run`` and its Python twin, reached by patching
:func:`ckernels.set_assoc_path`) — and compares everything a run writes:
hits, tags, dirty bits, stamps, PLRU bits, the clock, the random draws and
the counters.  Cold caches also match the scalar
:class:`~repro.cache.fully_assoc.FullyAssociativeCache` on both tiers;
doctored caches start from states the kernels never write themselves (a
block in several ways, invalid ways amid valid ones, tied stamps, stamps
past the clock).
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.cache.fully_assoc import FullyAssociativeCache
from repro.cache.replacement import REPLACEMENT_POLICIES
from repro.cache.set_assoc import WritePolicy
from repro.core.index import SingleSetIndexing
from repro.engine import AddressBatch, BatchSetAssociativeCache, ckernels

BLOCK = 32
WAYS = (1, 2, 16, 256, 512)
WRITE_POLICIES = (WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                  WritePolicy.WRITE_BACK_ALLOCATE)
#: Chunk sizes of a replay; ``None`` is the whole trace in one call.  One
#: access per call on the widest caches is deep-sweep only (``-m slow``).
CHUNKS = (pytest.param(1, marks=pytest.mark.slow), 7, 4096, None)
#: Each kernel a case runs on, and the head of its dispatch name.
TIERS = {"one-set": "compiled-fully-assoc-",
         "generic": "compiled-set-assoc-",
         "python-one-set": "python-fully-assoc-",
         "python-generic": "generic-policy-kernel"}


@lru_cache(maxsize=None)
def trace(ways):
    """Block numbers and store flags: a hot set of three quarters of the
    cache and a spread over three times it, so every cache fills, hits
    and evicts."""
    rng = np.random.default_rng(ways)
    n = 1500 + 4 * ways
    hot = rng.integers(0, max(1, 3 * ways // 4), n)
    spread = rng.integers(0, 3 * ways + 2, n)
    blocks = np.where(rng.random(n) < 0.7, hot, spread).astype(np.int64)
    return blocks, rng.random(n) < 0.3


def batches(blocks, writes, chunk):
    step = chunk or len(blocks)
    return [AddressBatch.from_arrays(
        (blocks[lo:lo + step] * BLOCK).astype(np.uint64),
        writes[lo:lo + step]) for lo in range(0, len(blocks), step)]


def batch_cache(ways, policy, write_policy, classify=False):
    return BatchSetAssociativeCache(
        ways * BLOCK, BLOCK, ways, index_function=SingleSetIndexing(),
        replacement=policy, write_policy=write_policy,
        classify_misses=classify)


def stats_of(stats):
    return {name: getattr(stats, name) for name in (
        "loads", "stores", "load_misses", "store_misses", "evictions",
        "writebacks")} | {"miss_kinds": dict(stats.miss_kinds)}


def by_way(outcome, key):
    """A one-set table of ``outcome`` as one value per way."""
    return [row[0] for row in outcome[key]]


def run_tier(monkeypatch, tier, cache, runs):
    """Replay ``runs`` on ``tier``; returns everything the runs wrote."""
    with monkeypatch.context() as patch:
        if tier.endswith("generic"):
            patch.setattr(ckernels, "set_assoc_path", lambda num_sets:
                          "set-assoc")
        if tier.startswith("python"):
            patch.setattr(ckernels, "available", lambda: False)
        assert cache.dispatch_strategy(runs[0]).startswith(TIERS[tier])
        hits = np.concatenate([cache.run(batch) for batch in runs])
    tags, dirty, policy = cache._arrays()
    return {"hits": hits.tolist(), "tags": tags.tolist(),
            "dirty": dirty.tolist(),
            "stamps": None if policy.stamps is None
            else policy.stamps.tolist(),
            "bits": None if policy.bits is None else policy.bits.tolist(),
            "clock": cache._clock, "draws": policy.draws,
            "stats": stats_of(cache.stats)}


def assert_tiers_agree(monkeypatch, build, runs, doctor=None):
    """Run a fresh ``build()`` (doctored by ``doctor``) on every tier;
    returns the one-set path's outcome."""
    outcomes = {}
    for tier in TIERS:
        cache = build()
        if doctor is not None:
            doctor(cache)
        outcomes[tier] = run_tier(monkeypatch, tier, cache, runs)
    for tier in TIERS:
        assert outcomes[tier] == outcomes["one-set"], tier
    return outcomes["one-set"]


@lru_cache(maxsize=None)
def scalar_oracle(ways, policy, write_policy):
    blocks, writes = trace(ways)
    scalar = FullyAssociativeCache(ways * BLOCK, BLOCK, replacement=policy,
                                   write_policy=write_policy,
                                   classify_misses=True)
    hits = [scalar.access(b * BLOCK, w).hit
            for b, w in zip(blocks.tolist(), writes.tolist())]
    return hits, stats_of(scalar.stats), sorted(scalar.resident_blocks())


def test_one_set_caches_dispatch_to_their_path(kernel_path):
    batch = AddressBatch.from_arrays([0])
    tier = "compiled" if kernel_path == "compiled" else "python"
    for policy in REPLACEMENT_POLICIES:
        assert batch_cache(64, policy, WRITE_POLICIES[0]).dispatch_strategy(
            batch) == f"{tier}-fully-assoc-{policy}"
        two_sets = BatchSetAssociativeCache(128 * BLOCK, BLOCK, 64,
                                            replacement=policy)
        assert two_sets.dispatch_strategy(batch) == (
            f"compiled-set-assoc-{policy}" if tier == "compiled"
            else "generic-policy-kernel")


@pytest.mark.parametrize("chunk", CHUNKS, ids=str)
@pytest.mark.parametrize("write_policy", WRITE_POLICIES)
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("ways", WAYS)
def test_one_set_path_matches_every_kernel(ways, policy, write_policy, chunk,
                                           monkeypatch, compiled_tier):
    blocks, writes = trace(ways)
    assert_tiers_agree(monkeypatch,
                       lambda: batch_cache(ways, policy, write_policy),
                       batches(blocks, writes, chunk))


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("ways", [1, 2, 16])
def test_one_access_per_call_on_narrow_caches(ways, policy, monkeypatch,
                                              compiled_tier):
    blocks, writes = trace(ways)
    assert_tiers_agree(
        monkeypatch,
        lambda: batch_cache(ways, policy, WritePolicy.WRITE_BACK_ALLOCATE),
        batches(blocks, writes, 1))


@pytest.mark.parametrize("write_policy", WRITE_POLICIES)
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("ways", WAYS[:-1] + (
    pytest.param(WAYS[-1], marks=pytest.mark.slow),))
def test_one_set_cache_matches_scalar(ways, policy, write_policy,
                                      kernel_path):
    """Hits, counters, 3C miss kinds and residency, on both tiers."""
    hits, stats, resident = scalar_oracle(ways, policy, write_policy)
    blocks, writes = trace(ways)
    cache = batch_cache(ways, policy, write_policy, classify=True)
    got = np.concatenate([cache.run(batch)
                          for batch in batches(blocks, writes, 4096)])
    assert got.tolist() == hits
    assert stats_of(cache.stats) == stats
    assert sorted(cache.resident_blocks()) == resident


# --------------------------------------------------------------------- #
# doctored entry states
# --------------------------------------------------------------------- #

DOCTORED_WAYS = (16, 256)
CLOCK = 1000


def doctor_with(tags, stamps):
    """A doctor writing ``tags`` and ``stamps`` into way order, random
    dirty and PLRU bits, and ``CLOCK``."""
    def doctor(cache):
        cache_tags, dirty, policy = cache._arrays()
        rng = np.random.default_rng(len(tags))
        cache_tags[:, 0] = tags
        dirty[:, 0] = (np.asarray(tags) >= 0) & (rng.random(len(tags)) < .5)
        if policy.stamps is not None:
            policy.stamps[:, 0] = stamps
        if policy.bits is not None:
            policy.bits[:] = rng.integers(0, 2, policy.bits.shape)
        cache._clock = CLOCK
    return doctor


def doctored_trace(ways, held):
    """Accesses that hit ``held`` blocks and miss past the cache."""
    rng = np.random.default_rng(ways + 1)
    n = 6 * ways
    blocks = np.where(rng.random(n) < 0.5, rng.choice(held, n),
                      rng.integers(10 * ways, 12 * ways, n))
    return blocks.astype(np.int64), rng.random(n) < 0.4


def build(ways, policy):
    return lambda: batch_cache(ways, policy, WritePolicy.WRITE_BACK_ALLOCATE)


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("ways", DOCTORED_WAYS)
def test_a_block_held_twice_hits_its_lowest_way(ways, policy, monkeypatch,
                                                 compiled_tier):
    tags = np.arange(ways, dtype=np.int64)
    low, mid, high = 3, ways // 2, ways - 2
    tags[[mid, high]] = tags[low]
    tags[ways // 4] = tags[ways - 1]
    stamps = np.arange(ways)[::-1] * 3
    # One store hits way `low`, not the copies above it.
    first = np.array([tags[low]]), np.array([True])
    doctor = doctor_with(tags, stamps)
    outcome = assert_tiers_agree(monkeypatch, build(ways, policy),
                                 batches(*first, None), doctor)
    assert outcome["hits"] == [True]
    assert by_way(outcome, "dirty")[low] == 1
    if policy in ("lru", "plru"):
        assert by_way(outcome, "stamps")[low] == CLOCK + 1
        assert by_way(outcome, "stamps")[mid] == stamps[mid]
    blocks, writes = doctored_trace(ways, tags)
    for chunk in (7, None):
        assert_tiers_agree(monkeypatch, build(ways, policy),
                           batches(blocks, writes, chunk), doctor)


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("ways", DOCTORED_WAYS)
def test_invalid_ways_amid_a_full_cache_fill_first(ways, policy, monkeypatch,
                                                   compiled_tier):
    tags = np.arange(ways, dtype=np.int64) + 5 * ways
    holes = [1, ways // 2, ways - 1]
    tags[holes] = -1
    stamps = np.random.default_rng(ways).permutation(ways)
    doctor = doctor_with(tags, stamps)
    misses = np.arange(len(holes), dtype=np.int64), np.zeros(3, dtype=bool)
    outcome = assert_tiers_agree(monkeypatch, build(ways, policy),
                                 batches(*misses, None), doctor)
    assert outcome["stats"]["evictions"] == 0  # the holes took them
    assert [by_way(outcome, "tags")[w] for w in holes] == [0, 1, 2]
    blocks, writes = doctored_trace(ways, tags[tags >= 0])
    for chunk in (1, None):
        assert_tiers_agree(monkeypatch, build(ways, policy),
                           batches(blocks, writes, chunk), doctor)


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("ways", DOCTORED_WAYS)
def test_tied_stamps_evict_from_way_zero(ways, policy, monkeypatch,
                                         compiled_tier):
    tags = np.arange(ways, dtype=np.int64)
    stamps = np.arange(ways) // 4 * 7 + 10  # runs of four equal stamps
    stamps[[0, 1, 2, 3]] = 50
    stamps[[4, 6]] = 0  # the least stamp, tied: way 4 goes first
    doctor = doctor_with(tags, stamps)
    miss = np.array([10 * ways]), np.array([False])
    outcome = assert_tiers_agree(monkeypatch, build(ways, policy),
                                 batches(*miss, None), doctor)
    if policy in ("lru", "fifo"):
        assert by_way(outcome, "tags")[4] == 10 * ways
    blocks, writes = doctored_trace(ways, tags)
    for chunk in (7, None):
        assert_tiers_agree(monkeypatch, build(ways, policy),
                           batches(blocks, writes, chunk), doctor)
        assert_tiers_agree(monkeypatch, build(ways, policy),
                           batches(blocks, writes, chunk),
                           doctor_with(tags, np.zeros(ways, dtype=np.int64)))


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_stamps_past_the_clock_run_the_generic_loop(policy, monkeypatch,
                                                    compiled_tier):
    ways = 16
    tags = np.arange(ways, dtype=np.int64)
    stamps = np.arange(ways)[::-1] + CLOCK  # way 0 is past the clock
    blocks, writes = doctored_trace(ways, tags)
    for chunk in (1, None):
        assert_tiers_agree(monkeypatch, build(ways, policy),
                           batches(blocks, writes, chunk),
                           doctor_with(tags, stamps))


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_classifier_sees_the_one_set_hit_mask(policy, monkeypatch,
                                               compiled_tier):
    ways = 256
    blocks, writes = trace(ways)
    outcome = assert_tiers_agree(
        monkeypatch,
        lambda: batch_cache(ways, policy, WritePolicy.WRITE_BACK_ALLOCATE,
                            classify=True),
        batches(blocks, writes, 4096))
    stats = outcome["stats"]
    assert sum(stats["miss_kinds"].values()) == \
        stats["load_misses"] + stats["store_misses"]
