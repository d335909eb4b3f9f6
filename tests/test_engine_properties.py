"""Hypothesis property tests for the vectorized engine.

Random address batches, random power-of-two geometries and random polynomial
choices: every family's placement descriptor, evaluated by the kernels, by
their NumPy mirror and by the scalar lookup, must agree with the scalar
:mod:`repro.core.index` implementations, and the batch cache must agree
with the scalar cache on arbitrary random traces.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.core.gf2 import irreducible_polynomials
from repro.core.index import IndexFunction, IPolyIndexing, make_index_function
from repro.engine import (
    AddressBatch,
    BatchColumnAssociativeCache,
    BatchSetAssociativeCache,
    BatchVictimCache,
    Placement,
    PlacementIndexing,
    ckernels,
    placement,
    way_function,
)
from repro.engine.index_vec import remainder_table
from repro.experiments.config import (
    INDEX_SCHEMES,
    PAPER_HASH_BITS,
    CacheGeometry,
)

ways_strategy = st.integers(min_value=1, max_value=4)


def _python_tier():
    """Run on the Python kernel tier, through the one seam the engine
    offers (``ckernels.available``)."""
    return mock.patch.object(ckernels, "available", lambda: False)


def _plain_state(cache):
    """A batch cache's state arrays and policy tables as plain values."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if hasattr(value, "__dict__"):
            return {key: plain(item) for key, item in vars(value).items()}
        return value
    return [plain(item) for item in cache._state]


#: Every registered family, by scheme label.
FAMILIES = ["a2", "a2-Hx", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk", "full"]


@st.composite
def placed_functions(draw, m=None):
    """``(fn, ways, window)``: a function of a random family (over ``1 <<
    m`` sets when ``m`` is given) for ways 1, 2 or 4, with an I-Poly window
    that is narrow (the index width), byte-aligned or neither; ``window``
    is ``address_bits_used``."""
    scheme = draw(st.sampled_from(FAMILIES if m is None else FAMILIES[:-1]))
    ways = draw(st.sampled_from([1, 2, 4]))
    if m is None:
        m = 0 if scheme == "full" else draw(st.integers(1, 12))
    address_bits = draw(st.one_of(
        st.just(m), st.sampled_from([8, 16, 24, 32, 56, 63]),
        st.integers(m, 63).filter(lambda bits: bits % 8)))
    assume(address_bits >= m)
    try:
        fn = make_index_function(scheme, 1 << m, ways=ways,
                                 address_bits=address_bits)
    except ValueError:
        # Too few irreducible polynomials of this degree for the skew.
        assume(False)
    return fn, ways, fn.address_bits_used


def _blocks_for(window, draw):
    """Random blocks plus the edges: every bit of the window set, the
    first block past the window and the largest block."""
    edges = [0, (1 << window) - 1, 1 << window, 2**63 - 1]
    return (draw(st.lists(st.integers(0, 2**63 - 1), max_size=40))
            + [edge for edge in edges if edge < 2**63])


def _kernels():
    """The kernel module the engine runs on (``kernel_path`` picks it)."""
    from repro.engine import pykernels

    return ckernels if ckernels.available() else pykernels


def _kernel_sets(kernels, place, blocks, ways, num_sets):
    """Way ``w``'s set of each block, read back from one-access runs of a
    kernel: ways before ``w`` hold another block, so the miss fills way
    ``w`` at its candidate set."""
    sets = []
    for block in blocks:
        row = []
        for way in range(ways):
            tags = np.full((ways, num_sets), -1, dtype=np.int64)
            tags[:way] = block ^ 1
            kernels.run_set_assoc(
                np.array([block], dtype=np.uint64), np.zeros(1, np.uint8),
                shift=0, place=place, write_back=True, policy="lru", tags=tags,
                dirty=np.zeros((ways, num_sets), np.uint8),
                stamps=np.zeros((ways, num_sets), np.int64), bits=None,
                seed=0, io=np.zeros(2, np.int64))
            row.append(int(np.flatnonzero(tags[way] == block)[0]))
        sets.append(row)
    return sets


#: 64 fixed blocks over the whole 63-bit range, plus the edges of the
#: paper's 19-bit hash window.
_PAPER_BLOCKS = (np.random.default_rng(41).integers(0, 2**63, 64).tolist()
                 + [0, 2**19 - 1, 2**19, 2**63 - 1])


@pytest.mark.parametrize("ways", [1, 2, 4])
@pytest.mark.parametrize("size", [8 * 1024, 16 * 1024], ids=["8KB", "16KB"])
@pytest.mark.parametrize("scheme", INDEX_SCHEMES)
def test_paper_placements_match_the_scalar_oracle(scheme, size, ways,
                                                  kernel_path):
    """Every placement the experiments build (the paper's four schemes at
    both L1 sizes, 32-byte blocks, 19 hashed bits) is evaluated by the
    kernels exactly as ``fn.index(block, way)``, on both tiers."""
    geometry = CacheGeometry(size_bytes=size, ways=ways)
    fn = make_index_function(scheme, geometry.num_sets, ways=ways,
                             address_bits=PAPER_HASH_BITS)
    place = placement(fn, ways)
    assert int(place.images.max(initial=0)) < geometry.num_sets
    expected = [[fn.index(b, way) for way in range(ways)]
                for b in _PAPER_BLOCKS]
    assert _kernel_sets(_kernels(), place, _PAPER_BLOCKS, ways,
                        geometry.num_sets) == expected


#: ``kernel_path`` only patches ``ckernels.available`` for the whole test.
_STATELESS_FIXTURE = [HealthCheck.function_scoped_fixture]


@settings(max_examples=80, deadline=None,
          suppress_health_check=_STATELESS_FIXTURE)
@given(case=placed_functions(), data=st.data())
def test_placement_descriptor_matches_the_scalar_oracle(kernel_path, case,
                                                        data):
    """Every family's descriptor, evaluated by the kernels (on both tiers),
    by their NumPy mirror and by the scalar lookup, gives ``fn.index(block,
    way)``."""
    fn, ways, window = case
    blocks = _blocks_for(window, data.draw)
    expected = [[fn.index(b, way) for way in range(ways)] for b in blocks]
    place = placement(fn, ways)
    assert place.funcs == (ways if fn.is_skewed else 1)
    mirror = place.sets(np.array(blocks, dtype=np.int64))
    assert [[mirror[way if fn.is_skewed else 0][i] for way in range(ways)]
            for i in range(len(blocks))] == expected
    lookup = PlacementIndexing(fn, ways)
    assert [[lookup.index(b, way) for way in range(ways)]
            for b in blocks] == expected
    assert _kernel_sets(_kernels(), place, blocks, ways,
                        fn.num_sets) == expected


@settings(max_examples=40, deadline=None,
          suppress_health_check=_STATELESS_FIXTURE)
@given(m=st.integers(1, 12), data=st.data())
def test_column_placement_matches_the_scalar_oracle(kernel_path, m, data):
    """The column-associative kernel's primary and secondary sets — read
    back from the frame a cold miss fills and its ``sec_of`` entry — are
    ``fn.index(block)`` of the two functions, of any families."""
    (first, _, window1), (second, _, window2) = (
        data.draw(placed_functions(m)), data.draw(placed_functions(m)))
    frames = 1 << m
    blocks = _blocks_for(max(window1, window2), data.draw)
    place = Placement([way_function(first, 0), way_function(second, 0)])
    kernels = _kernels()
    for block in blocks:
        tags = np.full(frames, -1, dtype=np.int64)
        sec_of = np.zeros(frames, dtype=np.int64)
        kernels.run_column(np.array([block], dtype=np.uint64),
                           np.zeros(1, np.uint8), shift=0, place=place,
                           swap=True, tags=tags,
                           dirty=np.zeros(frames, np.uint8), sec_of=sec_of)
        (frame,) = np.flatnonzero(tags == block)
        assert (frame, sec_of[frame]) == (first.index(block),
                                          second.index(block))


def test_remainder_table_is_the_ipoly_probe():
    fn = IPolyIndexing(128, ways=2, skewed=True, address_bits=19)
    for way in range(2):
        assert way_function(fn, way).images == remainder_table(
            fn.polynomial_for_way(way), 19)


def test_unregistered_index_function_fails_at_construction():
    """A function outside the registered families has no descriptor: a
    batch cache over it fails to build, with one ``ValueError``."""
    class Custom(IndexFunction):
        name = "custom"

        def index(self, block_number, way=0):
            return (block_number * 3) & (self._num_sets - 1)

    with pytest.raises(ValueError, match="no placement descriptor"):
        BatchSetAssociativeCache(4096, 32, 2, index_function=Custom(64))
    with pytest.raises(ValueError, match="no placement descriptor"):
        BatchVictimCache(4096, 32, ways=2, index_function=Custom(64))
    with pytest.raises(ValueError, match="no placement descriptor"):
        BatchColumnAssociativeCache(4096, 32, secondary_index=Custom(128))


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
    Python kernel agree on arbitrary random traces over conventional
    placement — hits, stats, residency AND the state arrays and policy
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
    with _python_tier():
        gen_hits = generic.run(batch)
    assert dec_hits.tolist() == gen_hits.tolist()
    for field in ("loads", "stores", "load_misses", "store_misses",
                  "evictions", "writebacks"):
        assert getattr(decomposed.stats, field) == getattr(generic.stats, field)
    assert sorted(decomposed.resident_blocks()) == sorted(
        generic.resident_blocks())
    assert _plain_state(decomposed) == _plain_state(generic)


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
    Python kernel — with the state arrays and policy tables compared after
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
        with _python_tier():
            gen_hits = generic.run(batch)
        assert dec_hits.tolist() == ref_hits
        assert gen_hits.tolist() == ref_hits
        # The state after every batch, not just at the end.
        assert _plain_state(decomposed) == _plain_state(generic)
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
    agrees with the Python kernel and the scalar model over random skewed
    GF(2) placements, state arrays and policy tables compared after every
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
        with _python_tier():
            gen_hits = generic.run(batch)
        assert dec_hits.tolist() == ref_hits
        assert gen_hits.tolist() == ref_hits
        assert _plain_state(decomposed) == _plain_state(generic)
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
def test_lru_kernel_matches_scalar_on_random_geometries(
        addresses, writes, set_bits, ways, write_back):
    """Batch kernel == scalar, on random conventional LRU geometries.

    Random traces (stores included), random power-of-two set counts and
    random associativities, under both write policies — including the
    fully-associative degenerate case (``set_bits == 0``).
    """
    is_write = writes.draw(st.lists(st.booleans(), min_size=len(addresses),
                                    max_size=len(addresses)))
    block_size = 16
    num_sets = 1 << set_bits
    write_policy = (WritePolicy.WRITE_BACK_ALLOCATE if write_back
                    else WritePolicy.WRITE_THROUGH_NO_ALLOCATE)
    batch = AddressBatch.from_arrays(np.array(addresses, dtype=np.uint64),
                                     np.array(is_write, dtype=bool))
    kernel = BatchSetAssociativeCache(num_sets * ways * block_size,
                                      block_size, ways,
                                      write_policy=write_policy)
    kernel.run(batch)

    scalar = SetAssociativeCache(num_sets * ways * block_size, block_size,
                                 ways, write_policy=write_policy)
    for address, w in zip(addresses, is_write):
        scalar.access(address, is_write=w)
    for field in ("loads", "stores", "load_misses", "store_misses",
                  "evictions", "writebacks"):
        assert getattr(kernel.stats, field) == getattr(scalar.stats, field)


def _hierarchy_tiers():
    """The hierarchy loop's tiers here: the compiled loop when the C
    library builds, and always the Python fallback (through the one seam,
    ``ckernels.available``)."""
    tiers = [_python_tier()]
    if ckernels.available():
        tiers.insert(0, contextlib.nullcontext())
    return tiers


def _level_outcome(level):
    stats = level.stats
    return (stats.loads, stats.stores, stats.load_misses, stats.store_misses,
            stats.evictions, stats.writebacks, stats.invalidations,
            stats.holes_created, sorted(level.resident_blocks()))


def _hierarchy_outcome(h, hits):
    return (hits, _level_outcome(h.l1), _level_outcome(h.l2),
            h.holes_created, h.l2_misses_causing_holes,
            h.alias_invalidations, h.check_inclusion())


def _scalar_runs(h, addresses, is_write, cut):
    hits = []
    for lo, hi in ((0, cut), (cut, len(addresses))):
        outcomes = [h.access(a, is_write=w)
                    for a, w in zip(addresses[lo:hi], is_write[lo:hi])]
        hits.append(([o.l1_hit for o in outcomes],
                     [o.l2_hit for o in outcomes]))
    return hits


def _batch_runs(h, addresses, is_write, cut):
    hits = []
    for lo, hi in ((0, cut), (cut, len(addresses))):
        result = h.run(AddressBatch.from_arrays(
            np.array(addresses[lo:hi], dtype=np.uint64),
            np.array(is_write[lo:hi], dtype=bool)))
        hits.append((result.l1_hits.tolist(), result.l2_hits.tolist()))
    return hits


hierarchy_policies = st.sampled_from(["lru", "fifo", "random", "plru"])
write_policies = st.sampled_from([WritePolicy.WRITE_BACK_ALLOCATE,
                                  WritePolicy.WRITE_THROUGH_NO_ALLOCATE])


@settings(max_examples=25, deadline=None)
@given(
    addresses=st.lists(st.integers(0, (1 << 16) - 1), min_size=1,
                       max_size=400),
    writes=st.data(),
    seed=st.integers(0, 2**10),
    policies=st.tuples(hierarchy_policies, hierarchy_policies),
    write=st.tuples(write_policies, write_policies),
    l2_skewed=st.booleans(),
    aliases=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 3)),
                     max_size=4),
    cut=st.floats(0, 1),
)
def test_batch_virtual_real_matches_scalar_on_random_traces(
        addresses, writes, seed, policies, write, l2_skewed, aliases, cut):
    """Random virtual traces in two runs through batched translation and
    the virtual-real loop on both tiers — placement of L2, policy and
    write policy per level — with random pre-mapped (possibly aliasing)
    pages: cache counters, hole/alias accounting, residency, the per-access
    hit masks and page faults must match the per-access scalar protocol
    exactly."""
    from repro.cache.virtual_real import VirtualRealHierarchy
    from repro.engine import BatchVirtualRealHierarchy
    from repro.memory.paging import PageTable

    from fuzz_harness import batch_cache_like

    block = 16
    page_size = 1024
    is_write = writes.draw(st.lists(st.booleans(), min_size=len(addresses),
                                    max_size=len(addresses)))

    def build_level(num_sets, l2=False):
        skewed = l2_skewed if l2 else True
        index = (IPolyIndexing(num_sets, ways=2, skewed=True, address_bits=16)
                 if skewed else None)
        return SetAssociativeCache(
            num_sets * block * 2, block, 2, index_function=index,
            replacement=policies[l2], write_policy=write[l2])

    def translation():
        table = PageTable(page_size=page_size, allocation="scatter",
                          seed=seed)
        for page, frame in aliases:
            table._mapping[page] = frame
        return table

    table = translation()
    scalar = VirtualRealHierarchy(build_level(8), build_level(32, l2=True),
                                  translate=table.translate,
                                  page_size=page_size)
    split = int(cut * len(addresses))
    expected = (_hierarchy_outcome(
        scalar, _scalar_runs(scalar, addresses, is_write, split)),
        table.page_faults, table._mapping)
    for tier in _hierarchy_tiers():
        with tier:
            twin_table = translation()
            batch = BatchVirtualRealHierarchy(batch_cache_like(scalar.l1),
                                              batch_cache_like(scalar.l2),
                                              twin_table)
            hits = _batch_runs(batch, addresses, is_write, split)
            assert (_hierarchy_outcome(batch, hits), twin_table.page_faults,
                    twin_table._mapping) == expected
