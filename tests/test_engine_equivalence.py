"""Differential tests: the batch engine against the scalar reference models.

For every index-function family and every cache organisation the engine
supports, identical traces are run through the scalar one-access-at-a-time
model and through the vectorized batch engine, and the *entire* behaviour is
compared: the per-access hit/miss sequence, the final
:class:`~repro.cache.stats.CacheStats` (all counters, including evictions,
writebacks and the 3C classification), and the final set of resident blocks.

The small configurations run in tier-1; the deep sweeps (longer traces, more
geometry combinations) are marked ``slow`` and run with ``pytest -m slow``.
"""

import functools

import numpy as np
import pytest

from repro.cache.column_assoc import ColumnAssociativeCache
from repro.cache.fully_assoc import FullyAssociativeCache
from repro.cache.replacement import REPLACEMENT_POLICIES
from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.cache.victim import VictimCache
from repro.core.index import SingleSetIndexing, make_index_function
from repro.engine import (
    AddressBatch,
    BatchColumnAssociativeCache,
    BatchSetAssociativeCache,
    BatchVictimCache,
)
from repro.trace.batching import strided_vector_arrays, to_arrays
from repro.trace.generators import (
    multi_array_sweep,
    random_accesses,
    strided_vector,
    tiled_matrix_multiply,
)

#: The paper's four index families.
FAMILIES = ["a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk"]

#: Trace builders exercised by the differential suite (name -> factory).
TRACES = {
    "strided": lambda: strided_vector(17, elements=64, sweeps=6),
    "strided-pathological": lambda: strided_vector(2048, elements=64, sweeps=6),
    "multi-array": lambda: multi_array_sweep(num_arrays=4, elements=400, sweeps=2),
    "tiled-matmul": lambda: tiled_matrix_multiply(n=20, tile=8),
    "random": lambda: random_accesses(5000, 64 * 1024, write_fraction=0.3),
}


def stats_snapshot(stats):
    """All comparable counters of a CacheStats as a plain dict."""
    return {
        "loads": stats.loads,
        "stores": stats.stores,
        "load_misses": stats.load_misses,
        "store_misses": stats.store_misses,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
        "invalidations": stats.invalidations,
        "miss_kinds": dict(stats.miss_kinds),
    }


def scalar_hit_sequence(cache, trace):
    return np.array([cache.access(a.address, a.is_write).hit for a in trace],
                    dtype=bool)


def batch_of(trace):
    return AddressBatch.from_arrays(*to_arrays(trace))


def build_pair(scheme, ways=2, size=8192, block=32,
               write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
               classify=False, replacement=None):
    """A (scalar, batch) cache pair with identical configuration."""
    num_sets = size // (block * ways)
    scalar = SetAssociativeCache(
        size, block, ways,
        index_function=make_index_function(scheme, num_sets, ways=ways,
                                           address_bits=19),
        replacement=replacement,
        write_policy=write_policy, classify_misses=classify)
    batch = BatchSetAssociativeCache(
        size, block, ways,
        index_function=make_index_function(scheme, num_sets, ways=ways,
                                           address_bits=19),
        replacement=replacement,
        write_policy=write_policy, classify_misses=classify)
    return scalar, batch


def assert_equivalent(scalar, batch_cache, trace):
    trace = list(trace)
    ref_hits = scalar_hit_sequence(scalar, trace)
    vec_hits = batch_cache.run(batch_of(trace))
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch_cache.stats)
    assert sorted(scalar.resident_blocks()) == sorted(batch_cache.resident_blocks())


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("scheme", FAMILIES)
class TestSetAssociativeEquivalence:
    def test_write_through(self, scheme, trace_name):
        scalar, batch = build_pair(scheme)
        assert_equivalent(scalar, batch, TRACES[trace_name]())

    def test_write_back(self, scheme, trace_name):
        scalar, batch = build_pair(
            scheme, write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert_equivalent(scalar, batch, TRACES[trace_name]())

    def test_with_3c_classifier(self, scheme, trace_name):
        scalar, batch = build_pair(scheme, classify=True)
        assert_equivalent(scalar, batch, TRACES[trace_name]())

    def test_write_back_with_3c_classifier(self, scheme, trace_name):
        """Store misses allocate under write-back, so the classifier's
        shadow caches see them too."""
        scalar, batch = build_pair(
            scheme, write_policy=WritePolicy.WRITE_BACK_ALLOCATE,
            classify=True)
        assert_equivalent(scalar, batch, TRACES[trace_name]())

    def test_four_way_write_back(self, scheme, trace_name):
        scalar, batch = build_pair(
            scheme, ways=4, write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert_equivalent(scalar, batch, TRACES[trace_name]())


@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_direct_mapped_equivalence(trace_name):
    scalar, batch = build_pair("a2", ways=1)
    assert_equivalent(scalar, batch, TRACES[trace_name]())


@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_four_way_skewed_equivalence(trace_name):
    scalar, batch = build_pair("a2-Hp-Sk", ways=4)
    assert_equivalent(scalar, batch, TRACES[trace_name]())


@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_fully_associative_equivalence(trace_name):
    scalar = FullyAssociativeCache(2048, 32)
    batch = BatchSetAssociativeCache(2048, 32, ways=2048 // 32,
                                     index_function=SingleSetIndexing())
    assert_equivalent(scalar, batch, TRACES[trace_name]())


@pytest.mark.parametrize("swap", [True, False])
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_column_associative_equivalence(trace_name, swap):
    trace = list(TRACES[trace_name]())
    scalar = ColumnAssociativeCache(8192, 32, address_bits=19,
                                    swap_on_rehash_hit=swap,
                                    classify_misses=True)
    batch = BatchColumnAssociativeCache(8192, 32, address_bits=19,
                                        swap_on_rehash_hit=swap,
                                        classify_misses=True)
    ref_hits = scalar_hit_sequence(scalar, trace)
    vec_hits = batch.run(batch_of(trace))
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert scalar.first_probe_hits == batch.first_probe_hits
    assert scalar.second_probe_hits == batch.second_probe_hits
    assert scalar.total_probes == batch.total_probes
    assert scalar.first_probe_hit_ratio == batch.first_probe_hit_ratio
    assert scalar.average_probes == batch.average_probes


# --------------------------------------------------------------------- #
# replacement policy x organisation grid
# --------------------------------------------------------------------- #

#: Traces for the replacement grid: one store-free, one store-heavy.
POLICY_TRACES = ("multi-array", "random")


@pytest.mark.parametrize("trace_name", POLICY_TRACES)
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
class TestReplacementEquivalence:
    """Every replacement policy is bit-exact across engines, per organisation.

    Four policies x {conventional set-assoc, skewed I-Poly, column-assoc,
    victim} — including identical deterministic random-victim sequences from
    the shared counter-based generator.
    """

    def test_set_associative(self, policy, trace_name):
        scalar, batch = build_pair("a2", replacement=policy,
                                   write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert_equivalent(scalar, batch, TRACES[trace_name]())

    def test_skewed(self, policy, trace_name):
        scalar, batch = build_pair("a2-Hp-Sk", ways=4, replacement=policy,
                                   write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert_equivalent(scalar, batch, TRACES[trace_name]())

    def test_column_associative(self, policy, trace_name):
        # The organisation has no replacement freedom (direct-mapped per
        # probe location): every policy must reproduce the identical — and
        # cross-engine bit-exact — behaviour.
        trace = list(TRACES[trace_name]())
        scalar = ColumnAssociativeCache(8192, 32, address_bits=19,
                                        replacement=policy)
        batch = BatchColumnAssociativeCache(8192, 32, address_bits=19,
                                            replacement=policy)
        ref_hits = scalar_hit_sequence(scalar, trace)
        vec_hits = batch.run(batch_of(trace))
        np.testing.assert_array_equal(ref_hits, vec_hits)
        assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
        assert scalar.first_probe_hits == batch.first_probe_hits
        assert scalar.second_probe_hits == batch.second_probe_hits

    def test_victim(self, policy, trace_name):
        trace = list(TRACES[trace_name]())
        scalar = VictimCache(4096, 32, ways=1, victim_entries=8,
                             replacement=policy)
        batch = BatchVictimCache(4096, 32, ways=1, victim_entries=8,
                                 replacement=policy)
        ref_hits = scalar_hit_sequence(scalar, trace)
        vec_hits = batch.run(batch_of(trace))
        np.testing.assert_array_equal(ref_hits, vec_hits)
        assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
        assert scalar.main_hits == batch.main_hits
        assert scalar.victim_hits == batch.victim_hits
        assert scalar.miss_ratio == batch.miss_ratio
        assert scalar.victim_hit_ratio == batch.victim_hit_ratio


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_victim_cache_with_skewed_main_and_stores(policy):
    """Victim kernel with a 2-way I-Poly-skewed main cache, store-heavy."""
    trace = list(random_accesses(4000, 24 * 1024, write_fraction=0.35,
                                 seed=17))
    index = lambda: make_index_function("a2-Hp-Sk", 64, ways=2,
                                        address_bits=19)
    scalar = VictimCache(4096, 32, ways=2, victim_entries=4,
                         index_function=index(), replacement=policy)
    batch = BatchVictimCache(4096, 32, ways=2, victim_entries=4,
                             index_function=index(), replacement=policy)
    ref_hits = scalar_hit_sequence(scalar, trace)
    vec_hits = batch.run(batch_of(trace))
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert scalar.main_hits == batch.main_hits
    assert scalar.victim_hits == batch.victim_hits


# --------------------------------------------------------------------- #
# non-LRU policies beyond the replacement grid
# --------------------------------------------------------------------- #

#: The non-LRU policies.
DECOMPOSED_POLICIES = ("fifo", "random", "plru")

#: Conventional (non-skewed) placement schemes.
NON_SKEWED_SCHEMES = ("a2", "a2-Hp")


def build_victim_pair(ways, policy, scheme="a2", entries=4):
    """A (scalar, batch) victim-cache pair with identical configuration."""
    num_sets = 4096 // (32 * ways)
    index = lambda: make_index_function(scheme, num_sets, ways=ways,
                                        address_bits=19)
    scalar = VictimCache(4096, 32, ways=ways, victim_entries=entries,
                         index_function=index(), replacement=policy)
    batch = BatchVictimCache(4096, 32, ways=ways, victim_entries=entries,
                             index_function=index(), replacement=policy)
    return scalar, batch


def assert_victim_matches_scalar(scalar, batch_cache):
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch_cache.stats)
    assert scalar.main_hits == batch_cache.main_hits
    assert scalar.victim_hits == batch_cache.victim_hits


# --------------------------------------------------------------------- #
# dispatcher introspection: every (placement, ways, policy) path
# --------------------------------------------------------------------- #

#: Placement x ways cells.  A skewed index needs at least one index bit,
#: so fully-associative caches are conventional only.
DISPATCH_CELLS = [("a2", 1), ("a2", 2), ("a2", 4), ("a2", "full"),
                  ("a2-Hp-Sk", 1), ("a2-Hp-Sk", 2), ("a2-Hp-Sk", 4)]


@pytest.mark.parametrize("classify", [False, True])
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("scheme, ways", DISPATCH_CELLS, ids=str)
def test_dispatch_strategy_covers_every_kernel_path(scheme, ways, policy,
                                                    classify, kernel_path):
    """`dispatch_strategy` names the kernel `run` executes for every cell of
    placement x ways x policy x classifier on both kernel tiers, and every
    cell matches the scalar engine — stats, 3C miss kinds and residency
    included."""
    mixed = list(random_accesses(2000, 32 * 1024, write_fraction=0.3))
    tier = "compiled" if kernel_path == "compiled" else "python"
    expected = (f"{tier}-fully-assoc-{policy}" if ways == "full"
                else f"compiled-set-assoc-{policy}" if tier == "compiled"
                else "generic-policy-kernel")
    if ways == "full":
        ways, size = 64, 2048
    else:
        size = 8192
    scalar, batch_cache = build_pair(
        scheme, ways=ways, size=size, replacement=policy, classify=classify,
        write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    assert batch_cache.dispatch_strategy(batch_of(mixed)) == expected
    assert_equivalent(scalar, batch_cache, mixed)


@pytest.mark.parametrize("ways", [1, 2, 4])
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_victim_dispatch_strategy(ways, policy, kernel_path):
    """The victim cache's dispatcher names the kernel it runs, and that
    kernel matches the scalar model."""
    mixed = list(random_accesses(2000, 32 * 1024, write_fraction=0.3))
    scalar, batch_cache = build_victim_pair(ways, policy)
    batch = batch_of(mixed)
    expected = (f"compiled-victim-{policy}" if kernel_path == "compiled"
                else "victim-generic-kernel")
    assert batch_cache.dispatch_strategy(batch) == expected
    ref_hits = scalar_hit_sequence(scalar, mixed)
    vec_hits = batch_cache.run(batch)
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert_victim_matches_scalar(scalar, batch_cache)


@pytest.mark.parametrize("trace_name", POLICY_TRACES)
@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
def test_classifying_policy_cache_matches_scalar(policy, trace_name):
    """3C classification + non-LRU policy (the shadow replays over the
    compiled kernel's hit mask, or runs inline in the generic fallback)
    stays bit-exact with the scalar model, miss kinds included."""
    scalar, batch = build_pair("a2", replacement=policy, classify=True,
                               write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    assert_equivalent(scalar, batch, TRACES[trace_name]())


@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
def test_fully_associative_policy_equivalence(policy):
    """High associativity (64 ways in one set) against the scalar
    fully-associative model."""
    trace = list(random_accesses(4000, 16 * 1024, write_fraction=0.3,
                                 seed=23))
    scalar = FullyAssociativeCache(2048, 32, replacement=policy)
    batch = BatchSetAssociativeCache(2048, 32, ways=2048 // 32,
                                     index_function=SingleSetIndexing(),
                                     replacement=policy)
    assert_equivalent(scalar, batch, trace)


@pytest.mark.parametrize("scheme", NON_SKEWED_SCHEMES)
@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
def test_decomposed_four_way_equivalence(policy, scheme):
    """Four ways on conventional placement against the scalar model,
    store-heavy (the PLRU tree walk takes two levels)."""
    trace = list(random_accesses(5000, 64 * 1024, write_fraction=0.3,
                                 seed=31))
    scalar, batch = build_pair(scheme, ways=4, replacement=policy,
                               write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    assert_equivalent(scalar, batch, trace)


@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
def test_decomposed_warm_continuity_non_skewed(policy):
    """Split-batch runs on a conventional cache stay bit-exact with one
    scalar pass (state round-trips through the NumPy tables)."""
    scalar, batch = build_pair("a2", replacement=policy,
                               write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    first = list(random_accesses(1500, 32 * 1024, write_fraction=0.3, seed=7))
    second = list(random_accesses(1500, 32 * 1024, write_fraction=0.3, seed=8))
    ref_hits = scalar_hit_sequence(scalar, first + second)
    vec_hits = np.concatenate([batch.run(batch_of(first)),
                               batch.run(batch_of(second))])
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert sorted(scalar.resident_blocks()) == sorted(batch.resident_blocks())


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_warm_continuity_with_policies(policy):
    """Split-batch runs of the policy kernel stay bit-exact with one scalar
    pass, proving the NumPy state tables round-trip between batches."""
    scalar, batch = build_pair("a2-Hp-Sk", replacement=policy,
                               write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    first = list(random_accesses(1500, 32 * 1024, write_fraction=0.3, seed=5))
    second = list(random_accesses(1500, 32 * 1024, write_fraction=0.3, seed=6))
    ref_hits = scalar_hit_sequence(scalar, first + second)
    vec_hits = np.concatenate([batch.run(batch_of(first)),
                               batch.run(batch_of(second))])
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert sorted(scalar.resident_blocks()) == sorted(batch.resident_blocks())


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_policy_tables_are_numpy_resident(policy, kernel_path):
    """Between runs each policy's state lives in one inspectable table
    holder next to the tags: stamps for all but random, PLRU bits for PLRU
    only."""
    _scalar, batch = build_pair("a2", replacement=policy)
    batch.run(batch_of(list(TRACES["random"]())))
    tags, dirty, tables = batch._state
    assert tags.shape == dirty.shape == (batch.ways, batch.num_sets)
    if policy == "random":
        assert tables.stamps is None
    else:
        assert tables.stamps.shape == (batch.ways, batch.num_sets)
        assert tables.stamps.any()
    if policy == "plru":
        assert tables.bits.shape == (batch.num_sets, 1)  # 2-way: 1 bit/set
        assert tables.bits.any()
    else:
        assert tables.bits is None
    assert (tables.draws > 0) == (policy == "random")


def test_random_policy_consumes_shared_draw_sequence(kernel_path):
    """The n-th random victim is way splitmix64(seed + n) % ways, on both
    kernel tiers."""
    from repro.cache.replacement import splitmix64

    ways = 4
    batch = BatchSetAssociativeCache(ways * 32, 32, ways,
                                     index_function=SingleSetIndexing(),
                                     replacement="random")
    batch.run(AddressBatch.from_arrays(np.arange(ways, dtype=np.uint64) * 32))
    tables = batch._state[2]
    for n in range(10):
        block = ways + n
        batch.run(AddressBatch.from_arrays(np.array([block * 32],
                                                    dtype=np.uint64)))
        victim = splitmix64(tables.seed + n) % ways
        assert batch._state[0][victim, 0] == block
    assert tables.draws == batch.stats.evictions == 10


def test_batch_cache_honours_random_policy_instance_seed():
    """A configured RandomReplacement instance must mean the same victim
    sequence on both engines — the seed travels into the vec state tables."""
    from repro.cache.replacement import RandomReplacement

    trace = list(random_accesses(4000, 64 * 1024, write_fraction=0.3, seed=9))
    scalar = SetAssociativeCache(2048, 32, 2,
                                 replacement=RandomReplacement(seed=42))
    batch = BatchSetAssociativeCache(2048, 32, 2,
                                     replacement=RandomReplacement(seed=42))
    assert_equivalent(scalar, batch, trace)

    scalar = VictimCache(1024, 32, ways=1, victim_entries=4,
                         replacement=RandomReplacement(seed=42))
    batch = BatchVictimCache(1024, 32, ways=1, victim_entries=4,
                             replacement=RandomReplacement(seed=42))
    ref_hits = scalar_hit_sequence(scalar, trace)
    vec_hits = batch.run(batch_of(trace))
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)


@pytest.mark.parametrize("ways", [3, 5])
def test_plru_equivalence_with_non_power_of_two_ways(ways):
    """Ragged PLRU trees (non-power-of-two associativity) stay bit-exact
    across engines and can evict every way."""
    trace = list(random_accesses(6000, 64 * 1024, write_fraction=0.3,
                                 seed=ways))
    size = 128 * 32 * ways
    scalar = SetAssociativeCache(size, 32, ways, replacement="plru")
    batch = BatchSetAssociativeCache(size, 32, ways, replacement="plru")
    assert_equivalent(scalar, batch, trace)


def test_batch_cache_rejects_unknown_replacement():
    with pytest.raises(ValueError):
        BatchSetAssociativeCache(8192, 32, 2, replacement="mru")
    with pytest.raises(ValueError):
        BatchVictimCache(4096, 32, replacement="mru")
    with pytest.raises(ValueError):
        BatchColumnAssociativeCache(8192, 32, replacement="mru")


def test_warm_cache_continuity():
    """A vectorized cold run followed by a warm run stays bit-exact.

    The first (load-only) batch takes the fully vectorized path, which must
    reconstruct the LRU state it leaves behind; the second (store-carrying)
    batch continues in the tight kernel from that state.
    """
    scalar, batch = build_pair("a2")
    first = list(strided_vector(512, elements=64, sweeps=3))
    second = list(random_accesses(3000, 32 * 1024, write_fraction=0.4))
    ref_hits = scalar_hit_sequence(scalar, first + second)
    vec_hits = np.concatenate([batch.run(batch_of(first)),
                               batch.run(batch_of(second))])
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert sorted(scalar.resident_blocks()) == sorted(batch.resident_blocks())


def test_strided_vector_arrays_match_generator():
    for stride in (1, 17, 128, 2048):
        addresses, writes = strided_vector_arrays(stride, elements=64, sweeps=3)
        expected = [a.address for a in strided_vector(stride, elements=64, sweeps=3)]
        assert addresses.tolist() == expected
        assert not writes.any()


def test_engine_rejects_negative_addresses():
    with pytest.raises(ValueError):
        AddressBatch.from_arrays(np.array([0, -1], dtype=np.int64))


def test_engine_rejects_out_of_range_addresses():
    with pytest.raises(ValueError):
        AddressBatch.from_arrays(np.array([1 << 63], dtype=np.uint64))
    with pytest.raises(ValueError):
        AddressBatch.from_arrays([0, 1 << 70])


def test_engine_rejects_unsupported_replacement_via_scalar_parity():
    """Both engines reject the same malformed geometries the same way."""
    with pytest.raises(ValueError):
        BatchSetAssociativeCache(8192, 48, 2)  # non-power-of-two block
    with pytest.raises(ValueError):
        BatchSetAssociativeCache(8192 + 32, 32, 2)  # not a multiple of set size
    with pytest.raises(ValueError):
        BatchSetAssociativeCache(8192, 32, 2, write_policy="bogus")


# --------------------------------------------------------------------- #
# deep sweeps — `pytest -m slow`
# --------------------------------------------------------------------- #

@pytest.mark.slow
@pytest.mark.parametrize("scheme", FAMILIES)
@pytest.mark.parametrize("ways", [1, 2, 4])
@pytest.mark.parametrize("write_policy", list(WritePolicy.ALL))
def test_deep_equivalence_grid(scheme, ways, write_policy):
    scalar, batch = build_pair(scheme, ways=ways, write_policy=write_policy,
                               classify=True)
    trace = list(random_accesses(40_000, 256 * 1024, write_fraction=0.25,
                                 seed=sum(map(ord, scheme)) + ways))
    assert_equivalent(scalar, batch, trace)


@pytest.mark.slow
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("scheme", ["a2", "a2-Hp-Sk"])
@pytest.mark.parametrize("ways", [2, 4])
def test_deep_replacement_grid(policy, scheme, ways):
    scalar, batch = build_pair(scheme, ways=ways, replacement=policy,
                               write_policy=WritePolicy.WRITE_BACK_ALLOCATE,
                               classify=True)
    trace = list(random_accesses(40_000, 256 * 1024, write_fraction=0.25,
                                 seed=sum(map(ord, policy)) + ways))
    assert_equivalent(scalar, batch, trace)


@pytest.mark.slow
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_deep_victim_equivalence(policy):
    trace = list(random_accesses(40_000, 128 * 1024, write_fraction=0.25,
                                 seed=sum(map(ord, policy))))
    scalar = VictimCache(8192, 32, ways=1, victim_entries=8,
                         replacement=policy)
    batch = BatchVictimCache(8192, 32, ways=1, victim_entries=8,
                             replacement=policy)
    ref_hits = scalar_hit_sequence(scalar, trace)
    vec_hits = batch.run(batch_of(trace))
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert scalar.main_hits == batch.main_hits
    assert scalar.victim_hits == batch.victim_hits


@pytest.mark.slow
@pytest.mark.parametrize("scheme", ["a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk"])
def test_deep_strided_sweep(scheme):
    """Every stride in a dense range agrees between the engines."""
    for stride in range(1, 257, 5):
        scalar, batch = build_pair(scheme)
        trace = list(strided_vector(stride, elements=64, sweeps=8))
        ref_hits = scalar_hit_sequence(scalar, trace)
        vec_hits = batch.run(batch_of(trace))
        assert np.array_equal(ref_hits, vec_hits), stride
        assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats), stride


# --------------------------------------------------------------------- #
# conventional grids: batch kernel == scalar model, on both tiers
# --------------------------------------------------------------------- #

#: A (num_sets, ways) grid of conventional caches — fully-associative
#: (one set) included.
GRID = [(num_sets, ways) for num_sets in (1, 16, 64, 128)
        for ways in (1, 2, 3, 4, 8)]


@functools.lru_cache(maxsize=None)
def scalar_grid(trace_name, write_policy, policy):
    """Every ``GRID`` point's scalar counters (shared by both tiers)."""
    trace = list(TRACES[trace_name]())
    snapshots = []
    for num_sets, ways in GRID:
        scalar = SetAssociativeCache(num_sets * ways * 32, 32, ways,
                                     replacement=policy,
                                     write_policy=write_policy)
        for access in trace:
            scalar.access(access.address, is_write=access.is_write)
        snapshots.append(stats_snapshot(scalar.stats))
    return snapshots


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("write_policy", [
    WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
    WritePolicy.WRITE_BACK_ALLOCATE,
])
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
class TestConventionalGridEquality:
    """Batch kernel == scalar model at every grid point, for every policy,
    under both write policies (the traces include stores), on the
    compiled kernels and on the Python tier."""

    def test_kernel_matches_scalar(self, trace_name, write_policy, policy,
                                   kernel_path):
        batch = batch_of(list(TRACES[trace_name]()))
        expected = scalar_grid(trace_name, write_policy, policy)
        for (num_sets, ways), scalar in zip(GRID, expected):
            kernel = BatchSetAssociativeCache(
                num_sets * ways * 32, 32, ways, replacement=policy,
                write_policy=write_policy)
            kernel.run(batch)
            assert stats_snapshot(kernel.stats) == scalar, (
                trace_name, write_policy, policy, num_sets, ways)
