"""Three-path differential tests for the batch virtual-real hierarchy.

Every case runs one trace through the scalar
:class:`~repro.cache.virtual_real.VirtualRealHierarchy` — the oracle — and
through its batch twin on both tiers (the ``kernel_path`` fixture: the
compiled loop of :mod:`repro.engine.ckernels`, then its Python
transliteration), and compares both levels'
:class:`~repro.cache.stats.CacheStats`, the hole, alias and external
invalidation counters, the per-access L1/L2 hit masks, the resident blocks,
the page faults and the scalar model's virtual->physical map with the one
the twin derives from L1 residency.  Multi-run cases carry state across
runs, with point operations between them, and pickle a twin mid-stream.
"""

import pickle

import numpy as np
import pytest

from repro.cache.replacement import REPLACEMENT_POLICIES
from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.cache.virtual_real import VirtualRealHierarchy
from repro.core.index import BitSelectIndexing, IPolyIndexing
from repro.engine import (
    AddressBatch,
    BatchSetAssociativeCache,
    BatchVirtualRealHierarchy,
    ckernels,
    placement,
)
from repro.memory.paging import PageTable
from repro.trace.generators import (
    multi_array_sweep,
    random_accesses,
    strided_vector,
)
from repro.trace.record import MemoryAccess

from fuzz_harness import batch_cache_like

WB = WritePolicy.WRITE_BACK_ALLOCATE
WT = WritePolicy.WRITE_THROUGH_NO_ALLOCATE

TRACES = {
    "strided": lambda: strided_vector(17, elements=64, sweeps=6),
    "multi-array": lambda: multi_array_sweep(num_arrays=4, elements=400,
                                             sweeps=2),
    "random": lambda: random_accesses(3000, 24 * 1024, write_fraction=0.3,
                                      seed=11),
}

#: A working set a small L2 cannot hold: back-invalidations are dense.
DENSE = lambda: random_accesses(3000, 8 * 1024, write_fraction=0.3, seed=3)


def make_level(size, block=32, ways=2, skewed=False, replacement=None,
               write_policy=WB):
    index = (IPolyIndexing(size // (block * ways), ways=ways, skewed=True,
                           address_bits=16) if skewed else None)
    return SetAssociativeCache(size, block, ways, index_function=index,
                               replacement=replacement,
                               write_policy=write_policy)


def make_l1(size=512, block=32, replacement=None, write_policy=WT):
    """The paper's arrangement: a skewed I-Poly L1."""
    return make_level(size, block, skewed=True, replacement=replacement,
                      write_policy=write_policy)


def stats_tuple(stats):
    return (stats.loads, stats.stores, stats.load_misses, stats.store_misses,
            stats.evictions, stats.writebacks, stats.invalidations,
            stats.holes_created)


def outcome(h):
    """Everything both hierarchies must agree on after a run."""
    return (stats_tuple(h.l1.stats), stats_tuple(h.l2.stats),
            h.holes_created, h.l2_misses_causing_holes,
            h.alias_invalidations, h.external_invalidations,
            sorted(h.l1.resident_blocks()), sorted(h.l2.resident_blocks()),
            h.check_inclusion())


def run_scalar(h, trace):
    l1_hits, l2_hits = [], []
    for access in trace:
        result = h.access(access.address, is_write=access.is_write)
        l1_hits.append(result.l1_hit)
        l2_hits.append(result.l2_hit)
    return l1_hits, l2_hits


def run_both(scalar, batch, trace):
    """One run of ``trace`` on each side: hit masks and outcomes equal."""
    l1_hits, l2_hits = run_scalar(scalar, trace)
    result = batch.run(AddressBatch.from_trace(trace))
    assert result.l1_hits.tolist() == l1_hits
    assert result.l2_hits.tolist() == l2_hits
    assert outcome(batch) == outcome(scalar)
    table, bpp = batch.page_table._mapping, 4096 // batch.l1.block_size
    assert scalar._phys_of_virt == {
        v: table[v // bpp] * bpp + v % bpp
        for v in batch.l1.resident_blocks()}
    return result


def expected_strategy(path):
    return "compiled-hierarchy" if path == "compiled" else "hierarchy-loop"


# --------------------------------------------------------------------- #
# virtual-real hierarchy
# --------------------------------------------------------------------- #

def vr_pair(l1=None, l2=None, seed=7, allocation="scatter", aliases=()):
    """Identically-seeded scalar virtual-real hierarchy and batch twin.

    ``aliases`` maps virtual pages to frames up front in both page tables;
    mapping two pages to one frame makes them aliases.
    """
    page_size = 4096

    def page_table():
        table = PageTable(page_size=page_size, allocation=allocation,
                          seed=seed)
        for page, frame in aliases:
            table._mapping[page] = frame
        return table

    table = page_table()
    scalar = VirtualRealHierarchy(l1 or make_l1(), l2 or make_level(2048),
                                  translate=table.translate,
                                  page_size=page_size)
    batch = BatchVirtualRealHierarchy(batch_cache_like(scalar.l1),
                                      batch_cache_like(scalar.l2),
                                      page_table())
    return scalar, batch, table


def assert_translation_matches(batch, table):
    assert table.page_faults == batch.page_table.page_faults
    assert table._mapping == batch.page_table._mapping


class TestVirtualReal:
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize("allocation", ["scatter", "sequential"])
    @pytest.mark.parametrize("skewed", [True, False], ids=["ipoly", "conv"])
    def test_matches_scalar(self, trace_name, allocation, skewed,
                            kernel_path):
        scalar, batch, table = vr_pair(
            l1=make_level(512, skewed=skewed, write_policy=WT),
            allocation=allocation)
        assert batch.dispatch_strategy() == expected_strategy(kernel_path)
        run_both(scalar, batch, list(TRACES[trace_name]()))
        assert_translation_matches(batch, table)

    @pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
    def test_small_l2_creates_holes(self, policy, kernel_path):
        scalar, batch, table = vr_pair(
            l1=make_l1(replacement=policy),
            l2=make_level(1024, replacement=policy))
        run_both(scalar, batch, list(DENSE()))
        assert batch.holes_created > 0
        assert_translation_matches(batch, table)

    @pytest.mark.parametrize("l1_policy", [WT, WB], ids=["l1-wt", "l1-wb"])
    @pytest.mark.parametrize("l2_policy", [WT, WB], ids=["l2-wt", "l2-wb"])
    def test_write_policies(self, l1_policy, l2_policy, kernel_path):
        scalar, batch, table = vr_pair(
            l1=make_l1(write_policy=l1_policy),
            l2=make_level(1024, write_policy=l2_policy))
        run_both(scalar, batch, list(DENSE()))
        assert_translation_matches(batch, table)

    @pytest.mark.parametrize("level", ["l1", "l2"])
    @pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
    def test_replacement_policies(self, level, policy, kernel_path):
        scalar, batch, table = vr_pair(
            l1=make_l1(replacement=policy if level == "l1" else None),
            l2=make_level(1024, ways=4,
                          replacement=policy if level == "l2" else None))
        run_both(scalar, batch, list(DENSE()))
        assert_translation_matches(batch, table)

    @pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
    def test_skewed_l2(self, policy, kernel_path):
        scalar, batch, table = vr_pair(
            l2=make_level(1024, skewed=True, replacement=policy))
        run_both(scalar, batch, list(DENSE()))
        assert_translation_matches(batch, table)

    def test_aliasing_page_map(self, kernel_path):
        """Pages 0 and 1 share frame 0, and the sequential allocator hands
        frame 0 out again: alias invalidations, exactly as the scalar
        protocol counts them."""
        scalar, batch, table = vr_pair(
            allocation="sequential", aliases=((0, 0), (1, 0)))
        trace = list(random_accesses(2000, 16 * 1024, write_fraction=0.2,
                                     seed=17))
        run_both(scalar, batch, trace)
        assert batch.alias_invalidations > 0
        assert_translation_matches(batch, table)

    def test_store_hit_refills_l2(self, kernel_path):
        """A store that hits L1 after L2 dropped the line refills L2 with
        no back-invalidation; evicting that refill later back-invalidates
        the L1 copy."""
        scalar, batch, _table = vr_pair(l1=make_level(128),
                                        l2=make_level(256, ways=1),
                                        allocation="sequential")
        run_both(scalar, batch, [MemoryAccess(0)])
        assert batch.l2.invalidate_block(0) and scalar.l2.invalidate_block(0)
        result = run_both(scalar, batch, [MemoryAccess(0, is_write=True),
                                          MemoryAccess(256), MemoryAccess(0)])
        # 256 evicts the refilled 0 from L2 and L1, then 0 evicts 256.
        assert result.l1_hits.tolist() == [True, False, False]
        assert batch.holes_created == 2

    def test_state_carries_across_runs(self, kernel_path):
        """Warm runs with L1 invalidations, external invalidations and a
        flush between them."""
        trace = list(TRACES["multi-array"]())
        third = len(trace) // 3
        scalar, batch, table = vr_pair(l1=make_l1(write_policy=WB),
                                       l2=make_level(1024))
        run_both(scalar, batch, trace[:third])
        resident = sorted(scalar.l1.resident_blocks())
        for virt in resident[::4]:
            assert (batch.l1.invalidate_block(virt)
                    == scalar.l1.invalidate_block(virt))
        for virt in resident[1::4]:  # L2 only: breaks inclusion
            phys = scalar._phys_of_virt[virt]
            assert (batch.l2.invalidate_block(phys)
                    == scalar.l2.invalidate_block(phys))
        run_both(scalar, batch, trace[third:2 * third])
        resident = sorted(scalar.l1.resident_blocks())
        for virt in resident[:3]:
            physical = scalar._phys_of_virt[virt] * 32
            assert scalar.external_invalidate(physical)
            assert batch.external_invalidate(physical)
        assert not batch.external_invalidate(10**9 * 32)
        assert not scalar.external_invalidate(10**9 * 32)
        run_both(scalar, batch, trace[2 * third:])
        scalar.flush()
        batch.flush()
        assert batch.l1.resident_blocks() == [] and batch.check_inclusion()
        run_both(scalar, batch, trace[:third])
        assert_translation_matches(batch, table)

    def test_pickled_mid_stream(self, kernel_path):
        trace = list(DENSE())
        scalar, batch, table = vr_pair(l1=make_l1(replacement="random"),
                                       l2=make_level(1024, replacement="plru"))
        run_both(scalar, batch, trace[:1500])
        clone = pickle.loads(pickle.dumps(batch))
        run_both(scalar, clone, trace[1500:])
        assert_translation_matches(clone, table)

    def test_empty_batch(self, kernel_path):
        _scalar, batch, _table = vr_pair()
        result = batch.run(AddressBatch.from_arrays(
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool)))
        assert len(result) == 0 and result.memory_accesses == 0
        assert batch.l1.stats.accesses == 0

    def test_exposes_translation_state(self):
        _scalar, batch, _table = vr_pair()
        assert isinstance(batch.page_table, PageTable)


# --------------------------------------------------------------------- #
# the loop's line map: raw line numbers, no compaction
# --------------------------------------------------------------------- #

def far_apart(count, regions=6, region_bytes=48 * 32, seed=5):
    """Random accesses over ``regions`` small regions ``2**45`` bytes apart,
    the first at ``2**45``: every virtual line number is past ``2**40``, and
    the lines in use span most of the 64-bit range's low half."""
    rng = np.random.default_rng(seed)
    region = rng.integers(1, regions + 1, count).tolist()
    offset = rng.integers(0, region_bytes // 8, count).tolist()
    write = (rng.random(count) < 0.3).tolist()
    return [MemoryAccess((r << 45) + 8 * o, is_write=w)
            for r, o, w in zip(region, offset, write)]


def fibonacci_bucket(line, buckets):
    """The compiled map's bucket of ``line`` among ``buckets`` (a power of
    two): the top bits of ``line`` times the 64-bit golden ratio."""
    return (line * 0x9E3779B97F4A7C15) % 2**64 >> \
        (64 - (buckets.bit_length() - 1))


class TestLineMap:
    def test_lines_sharing_one_bucket(self, kernel_path):
        """A 4-frame L1 has 4 buckets; every physical line of the trace
        falls into bucket 0, so the map's finds and unlinks walk one chain.
        Each frame the lines sit in is mapped to a virtual page of its own."""
        lines = [x for x in range(2**40, 2**40 + 4000)
                 if fibonacci_bucket(x, 4) == 0][:40]
        frames = sorted({line // 128 for line in lines})
        page_of = {frame: page for page, frame in enumerate(frames)}
        rng = np.random.default_rng(9)
        trace = [MemoryAccess(4096 * page_of[lines[k] // 128]
                              + 32 * (lines[k] % 128), is_write=bool(w))
                 for k, w in zip(rng.integers(0, len(lines), 3000).tolist(),
                                 (rng.random(3000) < 0.3).tolist())]
        scalar, batch, table = vr_pair(
            l1=make_level(128, write_policy=WT), l2=make_level(512),
            aliases=tuple((page, frame) for frame, page in page_of.items()))
        run_both(scalar, batch, trace)
        assert batch.holes_created > 0
        assert_translation_matches(batch, table)

    def test_far_physical_frames_with_aliases(self, kernel_path):
        """Virtual pages mapped to frames past 2**36 (physical lines past
        2**43), two pairs of them aliases of one frame."""
        frames = ((0, 2**36), (1, 2**37 + 3), (2, 2**36), (3, 2**40 + 1),
                  (4, 2**37 + 3), (5, 2**38))
        scalar, batch, table = vr_pair(l2=make_level(1024), aliases=frames)
        trace = list(random_accesses(3000, 24 * 1024, write_fraction=0.3,
                                     seed=21))
        run_both(scalar, batch, trace)
        assert batch.alias_invalidations > 0 and batch.holes_created > 0
        assert_translation_matches(batch, table)

    @pytest.mark.parametrize("l1", ["ipoly", "conv", "direct"])
    def test_far_apart_virtual_lines(self, l1, kernel_path):
        """Virtual pages ``2**33`` pages apart, each given a frame of its
        own on first touch: L1 tags past ``2**40`` and a page map whose keys
        span most of the 64-bit range's low half."""
        level = {"ipoly": lambda: make_l1(),
                 "conv": lambda: make_level(512, write_policy=WT),
                 "direct": lambda: make_level(512, ways=1, write_policy=WT)}
        scalar, batch, table = vr_pair(l1=level[l1](), l2=make_level(1024))
        trace = far_apart(3000)
        assert min(a.address >> 5 for a in trace) >= 2**40
        run_both(scalar, batch, trace)
        assert batch.holes_created > 0
        assert_translation_matches(batch, table)

    def test_state_carries_across_many_runs(self, kernel_path):
        """Twelve consecutive runs: the line map is rebuilt from L1's tags
        at every entry."""
        scalar, batch, table = vr_pair(l2=make_level(1024))
        dense = list(DENSE())
        for k in range(12):
            run_both(scalar, batch, dense[250 * k:250 * (k + 1)])
        assert batch.holes_created > 0
        assert_translation_matches(batch, table)


# --------------------------------------------------------------------- #
# the compiled loop's argument checks
# --------------------------------------------------------------------- #

def _hierarchy_args():
    """A two-access run over two 1 x 4 caches at block shift 0, L1 empty;
    the second line is far past 2**40, where the loop keys its line map by
    raw number."""
    n, num_sets = 2, 4

    def level():
        return dict(place=placement(BitSelectIndexing(num_sets), 1),
                    write_back=True, policy="lru", tags=np.full((1, num_sets), -1, np.int64),
                    dirty=np.zeros((1, num_sets), np.uint8),
                    stamps=np.zeros((1, num_sets), np.int64), bits=None,
                    seed=0, io=np.zeros(2, np.int64))

    addresses = np.array([0, 2**41 + 1], dtype=np.uint64)
    return dict(l1_addresses=addresses, l2_addresses=addresses.copy(),
                writes=np.zeros(n, np.uint8), shift=0, l1=level(), l2=level(),
                l1_line=np.full(num_sets, -1, np.int64))


#: An address at 2**63: a negative block or line at shift 0.
_PAST_2_63 = np.uint64(2**63)

BAD_HIERARCHY_ARGUMENTS = {
    "int64 L1 addresses": ("l1_addresses",
                           lambda a: a["l1_addresses"].astype(np.int64)),
    "int64 L2 addresses": ("l2_addresses",
                           lambda a: a["l2_addresses"].astype(np.int64)),
    "strided L1 addresses": ("l1_addresses",
                             lambda a: np.zeros(4, np.uint64)[::2]),
    "strided L2 addresses": ("l2_addresses",
                             lambda a: np.zeros(4, np.uint64)[::2]),
    "short L2 addresses": ("l2_addresses",
                           lambda a: a["l2_addresses"][:1].copy()),
    "short writes": ("writes", lambda a: a["writes"][:1].copy()),
    "negative shift": ("shift", lambda a: -1),
    "shift past 63": ("shift", lambda a: 64),
    "L1 address 2**63 at shift 0": ("l1_addresses",
                                    lambda a: a["l1_addresses"] | _PAST_2_63),
    "L2 address 2**63 at shift 0": ("l2_addresses",
                                    lambda a: a["l2_addresses"] | _PAST_2_63),
    "l1_line below -1": ("l1_line", lambda a: np.full(4, -2, np.int64)),
    "short l1_line": ("l1_line", lambda a: np.full(3, -1, np.int64)),
    "read-only l1_line": ("l1_line", lambda a: _read_only(a["l1_line"])),
    "L2 placement past its sets": ("l2", lambda a: {
        **a["l2"], "place": placement(BitSelectIndexing(8), 1)}),
}


def _read_only(array):
    array = array.copy()
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("case", sorted(BAD_HIERARCHY_ARGUMENTS))
def test_malformed_hierarchy_arguments_raise(case, compiled_tier):
    args = _hierarchy_args()
    key, mutate = BAD_HIERARCHY_ARGUMENTS[case]
    args[key] = mutate(args)
    with pytest.raises(ValueError):
        ckernels.run_hierarchy(**args)


@pytest.mark.parametrize("case", ["shift past 63",
                                  "L1 address 2**63 at shift 0",
                                  "L2 address 2**63 at shift 0"])
def test_python_loop_checks_shifts_like_c(case):
    from repro.engine import pykernels

    args = _hierarchy_args()
    key, mutate = BAD_HIERARCHY_ARGUMENTS[case]
    args[key] = mutate(args)
    with pytest.raises(ValueError, match="shift"):
        pykernels.run_hierarchy(**args)


def test_l2_addresses_past_2_63_run_at_a_positive_shift(kernel_path):
    """The lines of L2 addresses past 2**63 stay non-negative at a shift
    of 1: accepted, and found again on the warm second run."""
    from repro.engine import pykernels

    kernels = ckernels if ckernels.available() else pykernels
    args = _hierarchy_args()
    doubled = args["l1_addresses"] << np.uint64(1)
    args.update(l1_addresses=doubled, l2_addresses=doubled | _PAST_2_63,
                shift=1)
    for _ in range(2):
        l1_hits, *_rest = kernels.run_hierarchy(**args)
    assert l1_hits.all()


def test_well_formed_hierarchy_arguments_run(compiled_tier):
    args = _hierarchy_args()
    l1_hits, l2_hits, l1_counts, l2_counts, events = \
        ckernels.run_hierarchy(**args)
    assert not l1_hits.any() and not l2_hits.any()
    assert l1_counts.tolist()[:3] == l2_counts.tolist()[:3] == [2, 0, 2]
    assert events.tolist() == [0, 0, 0]
    assert args["l1_line"].tolist() == [0, 2**41 + 1, -1, -1]
    # A warm second run: both lines hit, found by their raw numbers.
    l1_hits, _l2_hits, _c1, _c2, _events = ckernels.run_hierarchy(**args)
    assert l1_hits.all()


# --------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------- #

class TestValidation:
    def test_l2_must_not_be_smaller_than_l1(self):
        l1 = batch_cache_like(SetAssociativeCache(2048, 32, 2))
        l2 = batch_cache_like(SetAssociativeCache(1024, 32, 2))
        with pytest.raises(ValueError, match="at least as large"):
            BatchVirtualRealHierarchy(l1, l2, PageTable(4096))

    def test_classifying_levels_rejected(self):
        l1 = BatchSetAssociativeCache(512, 32, 2, classify_misses=True)
        l2 = batch_cache_like(make_level(2048))
        with pytest.raises(ValueError, match="classification"):
            BatchVirtualRealHierarchy(l1, l2, PageTable(4096))

    def test_vr_blocks_must_match(self):
        l1 = batch_cache_like(SetAssociativeCache(512, 32, 2))
        l2 = batch_cache_like(SetAssociativeCache(4096, 64, 2))
        with pytest.raises(ValueError, match="equal L1/L2 block sizes"):
            BatchVirtualRealHierarchy(l1, l2, PageTable(4096))

    def test_vr_page_size_must_cover_a_block(self):
        l1 = batch_cache_like(SetAssociativeCache(512, 64, 2))
        l2 = batch_cache_like(SetAssociativeCache(4096, 64, 2))
        with pytest.raises(ValueError, match="multiple of the cache block"):
            BatchVirtualRealHierarchy(l1, l2, PageTable(page_size=32))
