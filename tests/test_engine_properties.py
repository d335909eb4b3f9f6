"""Hypothesis property tests for the vectorized engine.

Random address batches, random power-of-two geometries and random polynomial
choices: the vectorized index functions must agree element-wise with the
scalar :mod:`repro.core.index` implementations, the tabulated I-Poly lookup
must agree with :func:`repro.core.gf2.gf2_mod`, and the batch cache must
agree with the scalar cache on arbitrary random traces.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.core.gf2 import gf2_mod, irreducible_polynomials
from repro.core.index import (
    BitSelectIndexing,
    IPolyIndexing,
    PrimeModuloIndexing,
    XorFoldIndexing,
    make_index_function,
)
from repro.engine import (
    AddressBatch,
    BatchSetAssociativeCache,
    TabulatedIPolyIndexing,
    ckernels,
    vectorize_index,
)

#: Block numbers cover the full 40-bit range the experiments ever touch.
blocks_arrays = st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1),
                         min_size=1, max_size=200)
index_bits = st.integers(min_value=1, max_value=12)
ways_strategy = st.integers(min_value=1, max_value=4)


def _scalar_indices(fn, blocks, way):
    return [fn.index(b, way) for b in blocks]


@settings(max_examples=60, deadline=None)
@given(blocks=blocks_arrays, m=index_bits, way=st.integers(0, 3))
def test_bit_select_elementwise(blocks, m, way):
    fn = BitSelectIndexing(1 << m)
    vec = vectorize_index(fn)
    result = vec.way_indices(np.array(blocks, dtype=np.uint64), way)
    assert result.tolist() == _scalar_indices(fn, blocks, way)


@settings(max_examples=60, deadline=None)
@given(blocks=blocks_arrays, m=index_bits, way=st.integers(0, 5),
       skewed=st.booleans())
def test_xor_fold_elementwise(blocks, m, way, skewed):
    fn = XorFoldIndexing(1 << m, skewed=skewed)
    vec = vectorize_index(fn)
    result = vec.way_indices(np.array(blocks, dtype=np.uint64), way)
    assert result.tolist() == _scalar_indices(fn, blocks, way)


@settings(max_examples=60, deadline=None)
@given(blocks=blocks_arrays, m=st.integers(2, 10))
def test_prime_modulo_elementwise(blocks, m):
    fn = PrimeModuloIndexing(1 << m)
    vec = vectorize_index(fn)
    result = vec.way_indices(np.array(blocks, dtype=np.uint64), 0)
    assert result.tolist() == _scalar_indices(fn, blocks, 0)


@st.composite
def ipoly_configs(draw):
    """A random I-Poly geometry with a random valid polynomial choice."""
    m = draw(st.integers(min_value=2, max_value=10))
    ways = draw(st.integers(min_value=1, max_value=3))
    skewed = draw(st.booleans())
    address_bits = draw(st.integers(min_value=m, max_value=24))
    candidates = list(irreducible_polynomials(m))
    if skewed and len(candidates) >= ways:
        polys = draw(st.permutations(candidates).map(lambda p: list(p)[:ways]))
    else:
        polys = [draw(st.sampled_from(candidates))]
        skewed = False
    return m, ways, skewed, address_bits, polys


@settings(max_examples=60, deadline=None)
@given(blocks=blocks_arrays, config=ipoly_configs(), way=st.integers(0, 2))
def test_ipoly_elementwise(blocks, config, way):
    m, ways, skewed, address_bits, polys = config
    fn = IPolyIndexing(1 << m, ways=ways, skewed=skewed,
                       address_bits=address_bits, polynomials=polys)
    vec = vectorize_index(fn)
    result = vec.way_indices(np.array(blocks, dtype=np.uint64), way)
    assert result.tolist() == _scalar_indices(fn, blocks, way)


@settings(max_examples=60, deadline=None)
@given(blocks=blocks_arrays, config=ipoly_configs(), way=st.integers(0, 2))
def test_tabulated_ipoly_matches_gf2_mod(blocks, config, way):
    m, ways, skewed, address_bits, polys = config
    fast = TabulatedIPolyIndexing(1 << m, ways=ways, skewed=skewed,
                                  address_bits=address_bits, polynomials=polys)
    mask = (1 << address_bits) - 1
    for block in blocks:
        expected = gf2_mod(block & mask, fast.polynomial_for_way(way))
        assert fast.index(block, way) == expected


@settings(max_examples=40, deadline=None)
@given(
    addresses=st.lists(st.integers(0, (1 << 20) - 1), min_size=1, max_size=300),
    writes=st.data(),
    m=st.integers(2, 6),
    ways=ways_strategy,
    scheme=st.sampled_from(["a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk"]),
    write_back=st.booleans(),
    replacement=st.sampled_from(["lru", "fifo", "random", "plru"]),
)
def test_batch_cache_matches_scalar_on_random_traces(
        addresses, writes, m, ways, scheme, write_back, replacement):
    num_sets = 1 << m
    block = 16
    size = num_sets * block * ways
    is_write = writes.draw(st.lists(st.booleans(),
                                    min_size=len(addresses),
                                    max_size=len(addresses)))
    policy = (WritePolicy.WRITE_BACK_ALLOCATE if write_back
              else WritePolicy.WRITE_THROUGH_NO_ALLOCATE)
    try:
        make_index_function(scheme, num_sets, ways=ways, address_bits=19)
    except ValueError:
        # Tiny degrees do not have enough distinct irreducible polynomials
        # for the requested skew — not a valid cache configuration.
        assume(False)
    scalar = SetAssociativeCache(
        size, block, ways,
        index_function=make_index_function(scheme, num_sets, ways=ways,
                                           address_bits=19),
        replacement=replacement,
        write_policy=policy)
    batch = BatchSetAssociativeCache(
        size, block, ways,
        index_function=make_index_function(scheme, num_sets, ways=ways,
                                           address_bits=19),
        replacement=replacement,
        write_policy=policy)
    ref_hits = [scalar.access(a, w).hit for a, w in zip(addresses, is_write)]
    vec_hits = batch.run(AddressBatch.from_arrays(
        np.array(addresses, dtype=np.uint64), np.array(is_write, dtype=bool)))
    assert vec_hits.tolist() == ref_hits
    assert scalar.stats.loads == batch.stats.loads
    assert scalar.stats.stores == batch.stats.stores
    assert scalar.stats.load_misses == batch.stats.load_misses
    assert scalar.stats.store_misses == batch.stats.store_misses
    assert scalar.stats.evictions == batch.stats.evictions
    assert scalar.stats.writebacks == batch.stats.writebacks
    assert sorted(scalar.resident_blocks()) == sorted(batch.resident_blocks())


@settings(max_examples=40, deadline=None)
@given(
    addresses=st.lists(st.integers(0, (1 << 20) - 1), min_size=1, max_size=300),
    writes=st.data(),
    m=st.integers(2, 6),
    ways=st.integers(1, 4),
    scheme=st.sampled_from(["a2", "a2-Hx", "a2-Hp"]),
    write_back=st.booleans(),
    replacement=st.sampled_from(["fifo", "random", "plru"]),
)
def test_conventional_policy_kernels_match_generic_kernel_on_random_traces(
        addresses, writes, m, ways, scheme, write_back, replacement):
    """The dispatched kernel (compiled when the C library builds) and the
    generic fallback kernel agree on arbitrary random traces over
    conventional placement — hits, stats, residency AND the policy state
    tables they leave behind."""
    num_sets = 1 << m
    block = 16
    size = num_sets * block * ways
    is_write = writes.draw(st.lists(st.booleans(),
                                    min_size=len(addresses),
                                    max_size=len(addresses)))
    policy = (WritePolicy.WRITE_BACK_ALLOCATE if write_back
              else WritePolicy.WRITE_THROUGH_NO_ALLOCATE)

    def build():
        return BatchSetAssociativeCache(
            size, block, ways,
            index_function=make_index_function(scheme, num_sets, ways=ways,
                                               address_bits=19),
            replacement=replacement,
            write_policy=policy)

    batch = AddressBatch.from_arrays(
        np.array(addresses, dtype=np.uint64), np.array(is_write, dtype=bool))
    decomposed = build()
    generic = build()
    dec_hits = decomposed.run(batch)
    gen_hits = generic._run_policy_kernel(
        batch.block_numbers(block), batch.is_write)
    assert dec_hits.tolist() == gen_hits.tolist()
    for field in ("loads", "stores", "load_misses", "store_misses",
                  "evictions", "writebacks"):
        assert getattr(decomposed.stats, field) == getattr(generic.stats, field)
    assert sorted(decomposed.resident_blocks()) == sorted(
        generic.resident_blocks())
    dp, gp = decomposed._vec_policy, generic._vec_policy
    if hasattr(dp, "stamps"):
        assert dp.stamps.tolist() == gp.stamps.tolist()
    if hasattr(dp, "bits"):
        assert dp.bits.tolist() == gp.bits.tolist()
    if hasattr(dp, "counter"):
        assert dp.counter == gp.counter


@st.composite
def skewed_ipoly_configs(draw):
    """A random *skewed* I-Poly geometry with random polynomial choices."""
    m = draw(st.integers(min_value=3, max_value=8))
    ways = draw(st.integers(min_value=2, max_value=3))
    candidates = list(irreducible_polynomials(m))
    assume(len(candidates) >= ways)
    polys = draw(st.permutations(candidates).map(lambda p: list(p)[:ways]))
    address_bits = draw(st.integers(min_value=m, max_value=20))
    return m, ways, address_bits, polys


@settings(max_examples=30, deadline=None)
@given(
    addresses=st.lists(st.integers(0, (1 << 20) - 1), min_size=2, max_size=300),
    writes=st.data(),
    config=skewed_ipoly_configs(),
    write_back=st.booleans(),
    replacement=st.sampled_from(["lru", "fifo", "random", "plru"]),
)
def test_skewed_three_path_agreement_on_random_polynomials(
        addresses, writes, config, write_back, replacement):
    """Random mixed load/store batches over random GF(2) polynomial index
    functions agree bit-exactly across all three paths — the scalar engine,
    the dispatched kernel (compiled when the C library builds) and the
    generic fallback kernel — with the policy state tables compared after
    every batch."""
    m, ways, address_bits, polys = config
    num_sets = 1 << m
    block = 16
    size = num_sets * block * ways
    is_write = writes.draw(st.lists(st.booleans(),
                                    min_size=len(addresses),
                                    max_size=len(addresses)))
    policy = (WritePolicy.WRITE_BACK_ALLOCATE if write_back
              else WritePolicy.WRITE_THROUGH_NO_ALLOCATE)

    def index_fn():
        return IPolyIndexing(num_sets, ways=ways, skewed=True,
                             address_bits=address_bits, polynomials=polys)

    def build_batch_cache():
        return BatchSetAssociativeCache(
            size, block, ways, index_function=index_fn(),
            replacement=replacement, write_policy=policy)

    scalar = SetAssociativeCache(size, block, ways, index_function=index_fn(),
                                 replacement=replacement, write_policy=policy)
    decomposed = build_batch_cache()
    generic = build_batch_cache()
    assert decomposed.dispatch_strategy(AddressBatch.from_arrays([0])) == (
        f"compiled-set-assoc-{replacement}" if ckernels.available()
        else "generic-policy-kernel")

    cut = len(addresses) // 2
    for lo, hi in ((0, cut), (cut, len(addresses))):
        if lo == hi:
            continue
        chunk_addresses = addresses[lo:hi]
        chunk_writes = is_write[lo:hi]
        batch = AddressBatch.from_arrays(
            np.array(chunk_addresses, dtype=np.uint64),
            np.array(chunk_writes, dtype=bool))
        ref_hits = [scalar.access(a, w).hit
                    for a, w in zip(chunk_addresses, chunk_writes)]
        dec_hits = decomposed.run(batch)
        gen_hits = generic._run_policy_kernel(
            batch.block_numbers(block), batch.is_write)
        assert dec_hits.tolist() == ref_hits
        assert gen_hits.tolist() == ref_hits
        # Policy state tables after every batch, not just at the end.
        dp, gp = decomposed._vec_policy, generic._vec_policy
        if hasattr(dp, "stamps"):
            assert dp.stamps.tolist() == gp.stamps.tolist()
        if hasattr(dp, "bits"):
            assert dp.bits.tolist() == gp.bits.tolist()
        if hasattr(dp, "counter"):
            assert dp.counter == gp.counter
    for field in ("loads", "stores", "load_misses", "store_misses",
                  "evictions", "writebacks"):
        assert getattr(decomposed.stats, field) == getattr(scalar.stats, field)
        assert getattr(generic.stats, field) == getattr(scalar.stats, field)
    assert sorted(scalar.resident_blocks()) == sorted(
        decomposed.resident_blocks())
    assert sorted(scalar.resident_blocks()) == sorted(
        generic.resident_blocks())


@settings(max_examples=25, deadline=None)
@given(
    addresses=st.lists(st.integers(0, (1 << 16) - 1), min_size=2, max_size=250),
    writes=st.data(),
    entries=st.integers(1, 6),
    ways=st.integers(1, 2),
    config=skewed_ipoly_configs(),
    replacement=st.sampled_from(["lru", "fifo", "random", "plru"]),
)
def test_victim_three_path_agreement_on_random_polynomials(
        addresses, writes, entries, ways, config, replacement):
    """The dispatched victim kernel (compiled when the C library builds)
    agrees with the generic fallback kernel and the scalar model over
    random skewed GF(2) placements, state tables compared after every
    batch."""
    from repro.cache.victim import VictimCache
    from repro.engine import BatchVictimCache

    m, fn_ways, address_bits, polys = config
    num_sets = 1 << m
    block = 16
    size = num_sets * block * ways
    is_write = writes.draw(st.lists(st.booleans(),
                                    min_size=len(addresses),
                                    max_size=len(addresses)))

    def index_fn():
        return IPolyIndexing(num_sets, ways=max(fn_ways, ways), skewed=True,
                             address_bits=address_bits, polynomials=polys)

    scalar = VictimCache(size, block, ways=ways, victim_entries=entries,
                         index_function=index_fn(), replacement=replacement)
    decomposed = BatchVictimCache(size, block, ways=ways,
                                  victim_entries=entries,
                                  index_function=index_fn(),
                                  replacement=replacement)
    generic = BatchVictimCache(size, block, ways=ways,
                               victim_entries=entries,
                               index_function=index_fn(),
                               replacement=replacement)

    cut = len(addresses) // 2
    for lo, hi in ((0, cut), (cut, len(addresses))):
        if lo == hi:
            continue
        chunk_addresses = addresses[lo:hi]
        chunk_writes = is_write[lo:hi]
        batch = AddressBatch.from_arrays(
            np.array(chunk_addresses, dtype=np.uint64),
            np.array(chunk_writes, dtype=bool))
        ref_hits = [scalar.access(a, w).hit
                    for a, w in zip(chunk_addresses, chunk_writes)]
        dec_hits = decomposed.run(batch)
        gen_hits = generic._run_generic_kernel(
            batch.block_numbers(block), batch.is_write)
        assert dec_hits.tolist() == ref_hits
        assert gen_hits.tolist() == ref_hits
        decomposed._lists()  # check both caches' state out as lists
        assert decomposed._way_tags == generic._way_tags
        assert decomposed._victim_tags == generic._victim_tags
        for dp, gp in ((decomposed._main_policy, generic._main_policy),
                       (decomposed._victim_policy, generic._victim_policy)):
            if hasattr(dp, "stamps"):
                assert dp.stamps.tolist() == gp.stamps.tolist()
            if hasattr(dp, "bits"):
                assert dp.bits.tolist() == gp.bits.tolist()
            if hasattr(dp, "counter"):
                assert dp.counter == gp.counter
    assert scalar.main_hits == decomposed.main_hits == generic.main_hits
    assert scalar.victim_hits == decomposed.victim_hits == generic.victim_hits
    assert scalar.stats.writebacks == decomposed.stats.writebacks
    assert scalar.stats.load_misses == decomposed.stats.load_misses
    assert scalar.stats.store_misses == decomposed.stats.store_misses


@settings(max_examples=25, deadline=None)
@given(
    addresses=st.lists(st.integers(0, (1 << 16) - 1), min_size=1, max_size=250),
    writes=st.data(),
    entries=st.integers(1, 8),
    ways=st.integers(1, 2),
    replacement=st.sampled_from(["lru", "fifo", "random", "plru"]),
)
def test_batch_victim_cache_matches_scalar_on_random_traces(
        addresses, writes, entries, ways, replacement):
    from repro.cache.victim import VictimCache
    from repro.engine import BatchVictimCache

    is_write = writes.draw(st.lists(st.booleans(),
                                    min_size=len(addresses),
                                    max_size=len(addresses)))
    scalar = VictimCache(1024, 16, ways=ways, victim_entries=entries,
                         replacement=replacement)
    batch = BatchVictimCache(1024, 16, ways=ways, victim_entries=entries,
                             replacement=replacement)
    ref_hits = [scalar.access(a, w).hit for a, w in zip(addresses, is_write)]
    vec_hits = batch.run(AddressBatch.from_arrays(
        np.array(addresses, dtype=np.uint64), np.array(is_write, dtype=bool)))
    assert vec_hits.tolist() == ref_hits
    assert scalar.main_hits == batch.main_hits
    assert scalar.victim_hits == batch.victim_hits
    assert scalar.stats.loads == batch.stats.loads
    assert scalar.stats.stores == batch.stats.stores
    assert scalar.stats.load_misses == batch.stats.load_misses
    assert scalar.stats.store_misses == batch.stats.store_misses
    assert scalar.stats.writebacks == batch.stats.writebacks


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.integers(-(1 << 70), (1 << 70)), min_size=1,
                       max_size=50))
def test_batch_validation_never_wraps(blocks):
    """Negative or oversized inputs either raise or round-trip exactly."""
    in_range = all(0 <= b < (1 << 63) for b in blocks)
    if in_range:
        batch = AddressBatch.from_arrays(blocks)
        assert batch.addresses.tolist() == blocks
    else:
        with pytest.raises(ValueError):
            AddressBatch.from_arrays(blocks)


@settings(max_examples=40, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 4095), min_size=1, max_size=300),
    writes=st.data(),
    set_bits=st.integers(0, 5),
    ways=st.integers(1, 6),
    write_back=st.booleans(),
)
def test_multiconfig_profile_matches_both_engines_on_random_geometries(
        addresses, writes, set_bits, ways, write_back):
    """One-pass profile == batch kernel == scalar, on random LRU geometries.

    Random traces (stores included), random power-of-two set counts and
    random associativities: the profiler's readout must reproduce the exact
    counters of both engines, under both write policies — including the
    fully-associative degenerate case (``set_bits == 0``).
    """
    from repro.engine import MultiConfigLRUProfile, ProfileCounts

    is_write = writes.draw(st.lists(st.booleans(), min_size=len(addresses),
                                    max_size=len(addresses)))
    block_size = 16
    num_sets = 1 << set_bits
    write_policy = (WritePolicy.WRITE_BACK_ALLOCATE if write_back
                    else WritePolicy.WRITE_THROUGH_NO_ALLOCATE)
    batch = AddressBatch.from_arrays(np.array(addresses, dtype=np.uint64),
                                     np.array(is_write, dtype=bool))
    profile = MultiConfigLRUProfile(batch, block_size, {num_sets: ways},
                                    write_policy=write_policy)
    expected = profile.miss_counts(num_sets, ways)

    kernel = BatchSetAssociativeCache(num_sets * ways * block_size,
                                      block_size, ways,
                                      write_policy=write_policy)
    kernel.run(batch)
    assert ProfileCounts.from_stats(kernel.stats) == expected

    scalar = SetAssociativeCache(num_sets * ways * block_size, block_size,
                                 ways, write_policy=write_policy)
    for address, w in zip(addresses, is_write):
        scalar.access(address, is_write=w)
    assert ProfileCounts.from_stats(scalar.stats) == expected


@settings(max_examples=40, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 4095), min_size=1, max_size=300),
    writes=st.data(),
    set_bits=st.integers(0, 5),
    ways=st.integers(1, 6),
    write_back=st.booleans(),
)
def test_fifo_profile_matches_both_engines_on_random_geometries(
        addresses, writes, set_bits, ways, write_back):
    """Single-pass FIFO profile == batch kernel == scalar, on random FIFO
    geometries.

    FIFO's miss-driven event replay (hit transparency) must reproduce the
    per-access kernels exactly — including Belady-anomaly traces, both
    write policies, and the fully-associative degenerate case."""
    from repro.engine import MultiConfigFIFOProfile, ProfileCounts

    is_write = writes.draw(st.lists(st.booleans(), min_size=len(addresses),
                                    max_size=len(addresses)))
    block_size = 16
    num_sets = 1 << set_bits
    write_policy = (WritePolicy.WRITE_BACK_ALLOCATE if write_back
                    else WritePolicy.WRITE_THROUGH_NO_ALLOCATE)
    batch = AddressBatch.from_arrays(np.array(addresses, dtype=np.uint64),
                                     np.array(is_write, dtype=bool))
    profile = MultiConfigFIFOProfile(batch, block_size, {num_sets: ways},
                                     write_policy=write_policy)
    expected = profile.miss_counts(num_sets, ways)

    kernel = BatchSetAssociativeCache(num_sets * ways * block_size,
                                      block_size, ways,
                                      write_policy=write_policy,
                                      replacement="fifo")
    kernel.run(batch)
    assert ProfileCounts.from_stats(kernel.stats) == expected

    scalar = SetAssociativeCache(num_sets * ways * block_size, block_size,
                                 ways, write_policy=write_policy,
                                 replacement="fifo")
    for address, w in zip(addresses, is_write):
        scalar.access(address, is_write=w)
    assert ProfileCounts.from_stats(scalar.stats) == expected


@settings(max_examples=25, deadline=None)
@given(
    addresses=st.lists(st.integers(0, (1 << 16) - 1), min_size=1,
                       max_size=400),
    writes=st.data(),
    l1_m=st.integers(3, 4),
    l2_m=st.integers(4, 6),
    write_back=st.booleans(),
    epoch_hint=st.sampled_from([None, 7, 32]),
)
def test_batch_hierarchy_matches_scalar_on_random_traces(
        addresses, writes, l1_m, l2_m, write_back, epoch_hint):
    """Random traces and geometries through the miss-stream composition:
    per-level counters, hole accounting, residency and the per-access hit
    sequences must match the scalar two-level protocol exactly — including
    runs where tiny pinned epochs force stop/rewind after stop/rewind."""
    from repro.cache.hierarchy import TwoLevelHierarchy
    from repro.engine import batch_hierarchy_like

    block = 16
    is_write = writes.draw(st.lists(st.booleans(), min_size=len(addresses),
                                    max_size=len(addresses)))
    l1_policy = (WritePolicy.WRITE_BACK_ALLOCATE if write_back
                 else WritePolicy.WRITE_THROUGH_NO_ALLOCATE)
    l1 = SetAssociativeCache(
        (1 << l1_m) * block * 2, block, 2,
        index_function=IPolyIndexing(1 << l1_m, ways=2, skewed=True,
                                     address_bits=16),
        write_policy=l1_policy)
    l2 = SetAssociativeCache((1 << l2_m) * block * 2, block, 2,
                             write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    assume(l2.size_bytes >= l1.size_bytes)
    scalar = TwoLevelHierarchy(l1, l2)
    batch = batch_hierarchy_like(scalar, epoch_hint=epoch_hint)

    ref_l1, ref_l2 = [], []
    for address, w in zip(addresses, is_write):
        outcome = scalar.access(address, is_write=w)
        ref_l1.append(outcome.l1_hit)
        ref_l2.append(outcome.l2_hit)
    result = batch.run(AddressBatch.from_arrays(
        np.array(addresses, dtype=np.uint64), np.array(is_write, dtype=bool)))

    assert result.l1_hits.tolist() == ref_l1
    assert result.l2_hits.tolist() == ref_l2
    for level_s, level_b in ((scalar.l1, batch.l1), (scalar.l2, batch.l2)):
        assert level_s.stats.loads == level_b.stats.loads
        assert level_s.stats.stores == level_b.stats.stores
        assert level_s.stats.load_misses == level_b.stats.load_misses
        assert level_s.stats.store_misses == level_b.stats.store_misses
        assert level_s.stats.evictions == level_b.stats.evictions
        assert level_s.stats.writebacks == level_b.stats.writebacks
        assert level_s.stats.invalidations == level_b.stats.invalidations
        assert sorted(level_s.resident_blocks()) == sorted(
            level_b.resident_blocks())
    assert scalar.holes_created == batch.holes_created
    assert scalar.back_invalidations == batch.back_invalidations
    assert scalar.l2_misses_causing_holes == batch.l2_misses_causing_holes
    assert batch.check_inclusion()


@settings(max_examples=25, deadline=None)
@given(
    addresses=st.lists(st.integers(0, (1 << 16) - 1), min_size=1,
                       max_size=400),
    writes=st.data(),
    seed=st.integers(0, 2**10),
    tlb_entries=st.sampled_from([None, 2, 8]),
    epoch_hint=st.sampled_from([None, 16]),
)
def test_batch_virtual_real_matches_scalar_on_random_traces(
        addresses, writes, seed, tlb_entries, epoch_hint):
    """Random virtual traces through batched translation + the virtual-real
    composition: cache counters, hole/alias accounting, page faults and TLB
    counters must match the per-access scalar protocol exactly."""
    from repro.cache.virtual_real import VirtualRealHierarchy
    from repro.engine import batch_virtual_real_like
    from repro.memory.paging import TLB, PageTable
    from repro.memory.translation import AddressTranslator

    block = 16
    page_size = 1024
    is_write = writes.draw(st.lists(st.booleans(), min_size=len(addresses),
                                    max_size=len(addresses)))

    def build_level(num_sets, l2=False):
        policy = (WritePolicy.WRITE_BACK_ALLOCATE if l2
                  else WritePolicy.WRITE_THROUGH_NO_ALLOCATE)
        index = None if l2 else IPolyIndexing(num_sets, ways=2, skewed=True,
                                              address_bits=16)
        return SetAssociativeCache(num_sets * block * 2, block, 2,
                                   index_function=index, write_policy=policy)

    table = PageTable(page_size=page_size, allocation="scatter", seed=seed)
    tlb = (TLB(entries=tlb_entries, page_size=page_size)
           if tlb_entries else None)
    translate = (AddressTranslator(table, tlb).translate if tlb
                 else table.translate)
    scalar = VirtualRealHierarchy(build_level(8), build_level(32, l2=True),
                                  translate=translate, page_size=page_size)
    twin_table = PageTable(page_size=page_size, allocation="scatter",
                           seed=seed)
    twin_tlb = (TLB(entries=tlb_entries, page_size=page_size)
                if tlb_entries else None)
    batch = batch_virtual_real_like(scalar, twin_table, tlb=twin_tlb,
                                    epoch_hint=epoch_hint)

    ref_l1, ref_l2 = [], []
    for address, w in zip(addresses, is_write):
        outcome = scalar.access(address, is_write=w)
        ref_l1.append(outcome.l1_hit)
        ref_l2.append(outcome.l2_hit)
    result = batch.run(AddressBatch.from_arrays(
        np.array(addresses, dtype=np.uint64), np.array(is_write, dtype=bool)))

    assert result.l1_hits.tolist() == ref_l1
    assert result.l2_hits.tolist() == ref_l2
    for level_s, level_b in ((scalar.l1, batch.l1), (scalar.l2, batch.l2)):
        assert level_s.stats.loads == level_b.stats.loads
        assert level_s.stats.stores == level_b.stats.stores
        assert level_s.stats.load_misses == level_b.stats.load_misses
        assert level_s.stats.store_misses == level_b.stats.store_misses
        assert level_s.stats.evictions == level_b.stats.evictions
        assert level_s.stats.writebacks == level_b.stats.writebacks
        assert sorted(level_s.resident_blocks()) == sorted(
            level_b.resident_blocks())
    assert scalar.holes_created == batch.holes_created
    assert scalar.alias_invalidations == batch.alias_invalidations
    assert scalar._phys_of_virt == batch._phys_of_virt
    assert table.page_faults == twin_table.page_faults
    if tlb is not None:
        assert (tlb.hits, tlb.misses) == (twin_tlb.hits, twin_tlb.misses)
        assert list(tlb._table.items()) == list(twin_tlb._table.items())
    assert batch.check_inclusion()
