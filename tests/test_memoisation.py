"""What the engine keeps between runs: the one-entry trace cache and the
placement descriptors, and nothing derived from a trace's addresses.

Covers the trace cache (bit-exact with its builder, one read-only entry,
the counters ``perfbench`` reads), descriptors shared per ``cache_key``,
block numbers derived afresh in one pass, and the property the deleted
block-number memo could only approximate: a writable batch mutated in
place between two runs is simulated as it now reads, by every batch cache
and the virtual-real hierarchy, on both kernel tiers.
"""

import numpy as np
import pytest

from repro.cache.column_assoc import ColumnAssociativeCache
from repro.cache.fully_assoc import FullyAssociativeCache
from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.cache.victim import VictimCache
from repro.cache.virtual_real import VirtualRealHierarchy
from repro.core.index import (
    BitSelectIndexing,
    IPolyIndexing,
    SingleSetIndexing,
    XorFoldIndexing,
    make_index_function,
)
from repro.engine import (
    AddressBatch,
    BatchColumnAssociativeCache,
    BatchSetAssociativeCache,
    BatchVictimCache,
    BatchVirtualRealHierarchy,
    memo_info,
    placement,
    way_function,
)
from repro.engine.index_vec import _WAY_FUNCTIONS
from repro.memory.paging import PageTable
from repro.trace.batching import (
    cached_workload_arrays,
    strided_vector_arrays,
    to_arrays,
    trace_cache_clear,
    trace_cache_info,
)
from repro.trace.workloads import build_trace

WB = WritePolicy.WRITE_BACK_ALLOCATE


@pytest.fixture(autouse=True)
def fresh_trace_cache():
    """Each test sees an empty trace cache (and leaves it empty)."""
    trace_cache_clear()
    yield
    trace_cache_clear()


class TestTraceCache:
    def test_workload_arrays_bit_exact_with_builder(self):
        addresses, writes = cached_workload_arrays("gcc", length=2000, seed=9)
        fresh_a, fresh_w = to_arrays(build_trace("gcc", length=2000, seed=9))
        assert addresses.tolist() == fresh_a.tolist()
        assert writes.tolist() == fresh_w.tolist()

    def test_identity_stable_across_calls(self):
        first = cached_workload_arrays("gcc", length=1500, seed=3)
        second = cached_workload_arrays("gcc", length=1500, seed=3)
        assert first[0] is second[0]
        assert first[1] is second[1]
        assert trace_cache_info() == {"entries": 1, "hits": 1, "misses": 1}

    def test_holds_one_entry(self):
        """Another trace replaces the entry: asking for the first again
        synthesises it afresh."""
        first = cached_workload_arrays("gcc", length=1500, seed=3)
        cached_workload_arrays("li", length=1500, seed=3)
        assert trace_cache_info()["entries"] == 1
        again = cached_workload_arrays("gcc", length=1500, seed=3)
        assert again[0] is not first[0]
        assert again[0].tolist() == first[0].tolist()
        assert trace_cache_info()["misses"] == 3

    def test_cached_arrays_are_read_only(self):
        addresses, writes = cached_workload_arrays("li", length=100)
        with pytest.raises(ValueError):
            addresses[0] = 1
        with pytest.raises(ValueError):
            writes[0] = True

    def test_batch_wraps_cached_arrays_without_copy(self):
        addresses, writes = cached_workload_arrays("gcc", length=1200)
        batch = AddressBatch.from_arrays(addresses, writes)
        assert batch.addresses is addresses  # uint64 in, no copy

    def test_no_derived_array_memo_remains(self):
        assert memo_info() == {}


class TestDescriptors:
    def test_block_numbers_in_one_pass(self):
        """A fresh int64 array of ``address // block_size``."""
        addresses, writes = strided_vector_arrays(5, elements=64, sweeps=2)
        batch = AddressBatch.from_arrays(addresses, writes)
        blocks = batch.block_numbers(32)
        assert blocks.dtype == np.int64 and blocks.flags.writeable
        assert not np.shares_memory(blocks, batch.addresses)
        assert blocks.tolist() == [a // 32 for a in addresses.tolist()]

    def test_way_functions_shared_across_equal_functions(self):
        """Two semantically identical index-function instances (what sweep
        tasks build independently) are probed once and share one
        descriptor, which evaluates to the function."""
        addresses, _ = strided_vector_arrays(7, elements=64, sweeps=2)
        blocks = AddressBatch.from_arrays(addresses).block_numbers(32)
        fn_a = make_index_function("a2-Hp", 128, ways=2, address_bits=19)
        fn_b = make_index_function("a2-Hp", 128, ways=2, address_bits=19)
        assert fn_a is not fn_b and fn_a.cache_key == fn_b.cache_key
        assert way_function(fn_a, 0) is way_function(fn_b, 0)
        (sets,) = placement(fn_a, 2).sets(blocks)
        assert sets.dtype == np.int64
        assert sets.tolist() == [fn_a.index(b) for b in blocks.tolist()]

    def test_way_functions_distinguish_functions_and_ways(self):
        skewed = make_index_function("a2-Hp-Sk", 128, ways=2, address_bits=19)
        plain = make_index_function("a2", 128, ways=2, address_bits=19)
        assert way_function(skewed, 0) != way_function(skewed, 1)
        assert way_function(skewed, 0) != way_function(plain, 0)
        assert placement(skewed, 2).funcs == 2
        assert placement(plain, 2).funcs == 1

    def test_unkeyed_functions_are_probed_fresh(self):
        """A subclass of a registered family declares no key: it is probed
        through its own ``index`` every time, never served another
        function's descriptor."""
        class Sub(BitSelectIndexing):
            pass

        fn = Sub(64)
        assert fn.cache_key is None
        plain = way_function(BitSelectIndexing(64), 0)
        before = len(_WAY_FUNCTIONS)
        first, second = way_function(fn, 0), way_function(fn, 0)
        assert first is not second  # probed fresh, never cached
        assert first == second == plain
        assert len(_WAY_FUNCTIONS) == before

    def test_every_builtin_index_function_declares_a_key(self):
        fns = [BitSelectIndexing(64), SingleSetIndexing(),
               XorFoldIndexing(64, skewed=True),
               XorFoldIndexing(64, skewed=False),
               IPolyIndexing(64, ways=2, skewed=True, address_bits=19)]
        keys = [fn.cache_key for fn in fns]
        assert all(key is not None for key in keys)
        assert len(set(keys)) == len(keys)

    def test_subclasses_do_not_inherit_concrete_keys(self):
        """A subclass that overrides index() must not be served the parent
        mapping's descriptor: inherited cache_key is None."""
        class Shifted(BitSelectIndexing):
            def index(self, block_number, way=0):
                return (block_number >> 1) & (self._num_sets - 1)

        assert Shifted(64).cache_key is None
        assert BitSelectIndexing(64).cache_key is not None

    def test_placement_indexing_declares_no_key(self):
        """The scalar lookup of the Python core declares no key of its own,
        yet a batch cache over it runs its base function's descriptor."""
        from repro.engine import PlacementIndexing

        plain = IPolyIndexing(64, ways=2, skewed=True, address_bits=19)
        lookup = PlacementIndexing(plain, 2)
        assert lookup.cache_key is None
        cache = BatchSetAssociativeCache(4096, 32, 2, index_function=lookup)
        assert cache._place.images.tolist() == \
            placement(plain, 2).images.tolist()

    def test_second_skewed_cache_reuses_the_descriptor(self, kernel_path):
        """A second skewed cache over the same trace probes no index
        function afresh, on both tiers: its placement is the first cache's
        way-functions."""
        addresses, writes = strided_vector_arrays(23, elements=128, sweeps=3)
        batch = AddressBatch.from_arrays(addresses, writes)

        def build():
            return BatchSetAssociativeCache(
                8192, 32, 2,
                index_function=make_index_function("a2-Hp-Sk", 128, ways=2,
                                                   address_bits=19),
                replacement="fifo")

        first = build()
        first.run(batch)
        probed = len(_WAY_FUNCTIONS)
        second = build()
        second.run(batch)
        assert len(_WAY_FUNCTIONS) == probed
        assert second.stats == first.stats


# --------------------------------------------------------------------- #
# writable batches mutated between runs
# --------------------------------------------------------------------- #

def _vr_pair():
    def table():
        return PageTable(page_size=4096, allocation="scatter", seed=5)

    scalar = VirtualRealHierarchy(
        SetAssociativeCache(1024, 32, 2), SetAssociativeCache(
            4096, 32, 2, write_policy=WB),
        translate=table().translate, page_size=4096)
    return scalar, BatchVirtualRealHierarchy(
        BatchSetAssociativeCache(1024, 32, 2),
        BatchSetAssociativeCache(4096, 32, 2, write_policy=WB), table())


#: (scalar model, batch twin) per batch cache family and hierarchy.
PAIRS = {
    "set-assoc": lambda: (
        SetAssociativeCache(2048, 32, 2, write_policy=WB),
        BatchSetAssociativeCache(2048, 32, 2, write_policy=WB)),
    "skewed": lambda: tuple(cls(
        2048, 32, 2, index_function=make_index_function(
            "a2-Hp-Sk", 32, ways=2, address_bits=19), replacement="plru")
        for cls in (SetAssociativeCache, BatchSetAssociativeCache)),
    "one-set": lambda: (
        FullyAssociativeCache(1024, 32, replacement="lru"),
        BatchSetAssociativeCache(1024, 32, 32,
                                 index_function=SingleSetIndexing(),
                                 replacement="lru")),
    "victim": lambda: tuple(cls(2048, 32, ways=1, victim_entries=4)
                            for cls in (VictimCache, BatchVictimCache)),
    "column": lambda: tuple(cls(2048, 32, address_bits=19) for cls in (
        ColumnAssociativeCache, BatchColumnAssociativeCache)),
    "virtual-real": _vr_pair,
}


def _counters(model):
    """Every counter a scalar model and its batch twin share."""
    if hasattr(model, "l1"):
        return (_counters(model.l1), _counters(model.l2),
                model.holes_created, model.l2_misses_causing_holes)
    stats = model.stats
    return (stats.loads, stats.stores, stats.load_misses, stats.store_misses,
            stats.evictions, stats.writebacks, stats.invalidations,
            *(getattr(model, name, None) for name in (
                "main_hits", "victim_hits", "first_probe_hits",
                "second_probe_hits", "total_probes")))


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_writable_batch_mutated_between_runs(pair, kernel_path):
    """A batch's writable arrays, mutated in place between two runs of one
    model, are simulated as they read at each run: nothing derived from
    the first run's addresses is served to the second."""
    scalar, twin = PAIRS[pair]()
    rng = np.random.default_rng(17)
    addresses = rng.integers(0, 1 << 15, 800).astype(np.uint64)
    writes = rng.random(800) < 0.3
    batch = AddressBatch.from_arrays(addresses, writes)
    assert batch.addresses is addresses and batch.is_write is writes
    for _ in range(2):
        twin.run(batch)
        for address, write in zip(addresses.tolist(), writes.tolist()):
            scalar.access(address, is_write=write)
        assert _counters(twin) == _counters(scalar)
        # In place, as a caller reusing its buffer would.
        addresses[:] = addresses[::-1] * np.uint64(3) + np.uint64(64)
        writes[:] = ~writes


def test_repeated_vectorized_study_is_identical(kernel_path):
    from repro.experiments.replacement_study import run_replacement_study

    first = run_replacement_study(programs=["gcc"], accesses=2000,
                                  engine="vectorized")
    second = run_replacement_study(programs=["gcc"], accesses=2000,
                                   engine="vectorized")
    assert second.miss_ratios == first.miss_ratios
    assert trace_cache_info()["entries"] == 1


def test_vectorized_study_matches_the_reference_engine():
    from repro.experiments.miss_ratio_study import run_miss_ratio_study

    ref = run_miss_ratio_study(programs=["li"], accesses=2000,
                               engine="reference")
    vec = run_miss_ratio_study(programs=["li"], accesses=2000,
                               engine="vectorized")
    assert ref.miss_ratios == vec.miss_ratios
