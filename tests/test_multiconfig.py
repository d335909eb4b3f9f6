"""Unit tests for the one-pass multi-configuration LRU profile and the plan.

The differential suites (``test_engine_equivalence.py``,
``test_engine_properties.py``) pit the profile against the batch kernels
and the scalar models over whole traces; this module covers the subsystem's
own semantics at rate 1, where the profile is exact — reuse-distance
arithmetic, the distance == ways boundary, the capped priority-stack store
handling — and the plan's routing table: which path serves each (tier,
mode, policy) cell.  ``test_shards.py`` covers the sampled rates.
"""

import numpy as np
import pytest

from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.core.index import SingleSetIndexing, make_index_function
from repro.engine import (
    PROFILE_MODES,
    AddressBatch,
    BatchSetAssociativeCache,
    MultiConfigLRUProfile,
    MultiConfigPlan,
    ProfileCounts,
    check_profile_mode,
    run_lru_grid,
)
from repro.engine import multiconfig
from repro.trace.batching import cached_workload_arrays

BLOCK = 32


def batch_of_blocks(blocks, writes=None):
    """A batch whose block numbers (at 32-byte lines) are ``blocks``."""
    addresses = np.array([b * BLOCK for b in blocks], dtype=np.uint64)
    return AddressBatch.from_arrays(addresses, writes)


def kernel_counts(batch, num_sets, ways,
                  write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                  replacement="lru"):
    cache = BatchSetAssociativeCache(num_sets * ways * BLOCK, BLOCK, ways,
                                     write_policy=write_policy,
                                     replacement=replacement)
    cache.run(batch)
    return ProfileCounts.from_stats(cache.stats)


class TestProfileCounts:
    def test_ratio_formulas_mirror_cache_stats(self):
        counts = ProfileCounts(loads=8, stores=2, load_misses=3, store_misses=1)
        assert counts.accesses == 10
        assert counts.misses == 4
        assert counts.hits == 6
        assert counts.miss_ratio == 4 / 10
        assert counts.load_miss_ratio == 3 / 8

    def test_empty_counts_have_zero_ratios(self):
        counts = ProfileCounts(loads=0, stores=0, load_misses=0, store_misses=0)
        assert counts.miss_ratio == 0.0
        assert counts.load_miss_ratio == 0.0

    def test_from_stats_round_trips_through_a_kernel_run(self):
        batch = batch_of_blocks([0, 1, 2, 0, 1, 2])
        counts = kernel_counts(batch, num_sets=1, ways=2)
        assert counts.loads == 6
        assert counts.accesses == 6


class TestFullyAssociativeLevel:
    """The one-set level prices a fully-associative LRU cache of every
    capacity up to its cap (Mattson's stack property)."""

    def test_matches_fully_associative_kernel(self):
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 60, size=3000)
        batch = batch_of_blocks(blocks.tolist())
        profile = MultiConfigLRUProfile(batch, BLOCK, {1: 100})
        for capacity in (1, 2, 7, 16, 33, 64, 100):
            cache = BatchSetAssociativeCache(
                capacity * BLOCK, BLOCK, capacity,
                index_function=SingleSetIndexing())
            cache.run(batch)
            assert (profile.miss_counts(1, capacity).load_misses
                    == cache.stats.load_misses)

    def test_duplicate_blocks_count_once(self):
        # 0 1 1 1 0: block 1 is one distinct block, not three, so the
        # final 0 sits at distance 1 and hits a two-way set.
        profile = MultiConfigLRUProfile(batch_of_blocks([0, 1, 1, 1, 0]),
                                        BLOCK, {1: 2})
        assert profile.miss_counts(1, 1).load_misses == 3
        assert profile.miss_counts(1, 2).load_misses == 2

    def test_misses_never_grow_with_the_ways(self):
        rng = np.random.default_rng(11)
        profile = MultiConfigLRUProfile(
            batch_of_blocks(rng.integers(0, 40, size=2000).tolist()),
            BLOCK, {1: 64})
        misses = [profile.miss_counts(1, ways).misses
                  for ways in range(1, 65)]
        assert (np.diff(misses) <= 0).all()

    def test_empty_trace(self):
        profile = MultiConfigLRUProfile(batch_of_blocks([]), BLOCK, {1: 8})
        assert profile.miss_counts(1, 8).accesses == 0
        assert profile.miss_counts(1, 8).miss_ratio == 0.0


class TestDistanceWaysBoundary:
    """The stack-distance boundary: distance == ways is exactly a miss."""

    def test_distance_equal_to_ways_misses(self):
        # Same set throughout (one set): the final access to 0 has stack
        # distance exactly 2.
        batch = batch_of_blocks([0, 1, 2, 0])
        profile = MultiConfigLRUProfile(batch, BLOCK, {1: 8})
        at_ways_2 = profile.miss_counts(1, 2)   # distance == ways -> miss
        at_ways_3 = profile.miss_counts(1, 3)   # distance < ways  -> hit
        assert at_ways_2.load_misses == 4
        assert at_ways_3.load_misses == 3
        # And the kernels agree on both sides of the boundary.
        assert at_ways_2 == kernel_counts(batch, 1, 2)
        assert at_ways_3 == kernel_counts(batch, 1, 3)

    def test_boundary_within_a_mapped_set(self):
        # Blocks 0, 4, 8, 12 all map to set 0 of a 4-set cache; the reuse
        # of 0 sits at distance 3: miss at 3 ways, hit at 4.
        batch = batch_of_blocks([0, 4, 8, 12, 0])
        profile = MultiConfigLRUProfile(batch, BLOCK, {4: 8})
        assert profile.miss_counts(4, 3).load_misses == 5
        assert profile.miss_counts(4, 4).load_misses == 4


class TestStoreHandling:
    """WTNA stores touch without allocating; WBA stores allocate."""

    def test_wtna_store_hit_refreshes_recency(self):
        # loads 0,1 fill a 2-way set LRU-ordered [0, 1]; a store *hit* on 0
        # must make 1 the LRU victim of the next fill.
        blocks = [0, 1, 0, 2, 0]
        writes = [False, False, True, False, False]
        batch = batch_of_blocks(blocks, writes)
        profile = MultiConfigLRUProfile(batch, BLOCK, {1: 4})
        counts = profile.miss_counts(1, 2)
        assert counts == kernel_counts(batch, 1, 2)
        # The final load of 0 hits only because the store refreshed it.
        assert counts.load_misses == 3

    def test_wtna_store_miss_does_not_allocate(self):
        blocks = [0, 1, 2, 1]
        writes = [True, False, False, False]
        batch = batch_of_blocks(blocks, writes)
        profile = MultiConfigLRUProfile(batch, BLOCK, {1: 4})
        counts = profile.miss_counts(1, 1)
        assert counts == kernel_counts(batch, 1, 1)
        assert counts.store_misses == 1

    def test_wba_store_allocates(self):
        blocks = [0, 1, 0]
        writes = [True, False, False]
        batch = batch_of_blocks(blocks, writes)
        profile = MultiConfigLRUProfile(
            batch, BLOCK, {1: 4},
            write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert profile.store_mode == "uniform"
        counts = profile.miss_counts(1, 2)
        assert counts == kernel_counts(
            batch, 1, 2, write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert counts.load_misses == 1  # the store installed block 0

    def test_store_mode_selection(self):
        loads_only = batch_of_blocks([0, 1, 2])
        with_stores = batch_of_blocks([0, 1, 2], [True, False, False])
        assert MultiConfigLRUProfile(loads_only, BLOCK, {1: 2}).store_mode == "loads"
        assert MultiConfigLRUProfile(with_stores, BLOCK, {1: 2}).store_mode == "wtna"


class TestMultiConfigLRUProfile:
    def test_validates_geometry(self):
        batch = batch_of_blocks([0, 1])
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {3: 2})   # not a power of two
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {4: 0})   # no ways
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {})       # no levels
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {4: 2}, write_policy="bogus")

    def test_readout_guards(self):
        batch = batch_of_blocks([0, 1, 2])
        profile = MultiConfigLRUProfile(batch, BLOCK, {4: 2})
        with pytest.raises(KeyError):
            profile.miss_counts(8, 2)       # level never profiled
        with pytest.raises(ValueError):
            profile.miss_counts(4, 1000)    # beyond the depth cap

    def test_one_profile_serves_every_associativity(self):
        addresses, writes = cached_workload_arrays("swim", length=6000)
        batch = AddressBatch.from_arrays(addresses, writes)
        profile = MultiConfigLRUProfile(batch, BLOCK, {64: 8})
        for ways in range(1, 9):
            assert profile.miss_counts(64, ways) == kernel_counts(batch, 64, ways)

    def test_loads_then_stores_take_the_store_mode(self):
        """A trace whose stores come after a loads-only prefix is priced
        under the store semantics throughout."""
        batch = batch_of_blocks([0, 1, 2, 3, 4], [False] * 3 + [True, False])
        profile = MultiConfigLRUProfile(batch, BLOCK, {16: 2})
        assert profile.store_mode == "wtna"
        assert profile.miss_counts(16, 2).accesses == 5
        assert profile.miss_counts(16, 2) == kernel_counts(batch, 16, 2)


def serving_paths(monkeypatch):
    """Record what serves each task of a plan: one ``"profile"`` per
    profile built and one ``"kernel"`` per kernel run."""
    served = []
    profile = multiconfig.MultiConfigLRUProfile

    def build(*args, **kwargs):
        served.append("profile")
        return profile(*args, **kwargs)

    monkeypatch.setattr(multiconfig, "MultiConfigLRUProfile", build)
    run = BatchSetAssociativeCache.run

    def counting_run(self, batch):
        served.append("kernel")
        return run(self, batch)

    monkeypatch.setattr(BatchSetAssociativeCache, "run", counting_run)
    return served


#: The routing table's grid: a 256-way fully-associative level and two
#: set-associative levels, three configurations on one trace.
ROUTING_GRID = [(1, 256), (16, 2), (64, 4)]


def expected_path(mode, replacement):
    """The plan's one rule, the same on both tiers: ``sampled`` prices an
    LRU group out of one profile, and every other task runs its kernel."""
    if replacement == "lru" and mode == "sampled":
        return ["profile"]
    return ["kernel"] * len(ROUTING_GRID)


@pytest.mark.parametrize("replacement", ["lru", "fifo", "plru"])
@pytest.mark.parametrize("mode", PROFILE_MODES)
def test_routing_table(kernel_path, mode, replacement, monkeypatch):
    """tier x mode x policy: which path serves each cell — one rule on both
    tiers — and every cell bit-exact with the per-configuration kernels
    (the sampled profile is exact at rate 1.0)."""
    addresses, writes = cached_workload_arrays("li", length=4000)
    batch = AddressBatch.from_arrays(addresses, writes)
    expected = {(num_sets, ways): kernel_counts(batch, num_sets, ways,
                                               replacement=replacement)
                for num_sets, ways in ROUTING_GRID}
    served = serving_paths(monkeypatch)
    results = run_lru_grid(batch, BLOCK, ROUTING_GRID, profile=mode,
                           replacement=replacement, sample_rate=1.0)
    assert served == expected_path(mode, replacement)
    assert results == expected


class TestMultiConfigPlan:
    def test_mode_validation(self):
        assert PROFILE_MODES == ("auto", "sampled")
        assert check_profile_mode("Sampled ") == "sampled"
        for retired in ("always", "never", "sometimes"):
            with pytest.raises(ValueError):
                check_profile_mode(retired)
            with pytest.raises(ValueError):
                MultiConfigPlan(profile=retired)

    def test_profilable_predicate(self):
        batch = batch_of_blocks([0, 1, 2])
        conventional = BatchSetAssociativeCache(8192, BLOCK, 2)
        assert MultiConfigPlan.profilable(conventional, batch) == (128, 2)
        fully = BatchSetAssociativeCache(8192, BLOCK, 256,
                                         index_function=SingleSetIndexing())
        assert MultiConfigPlan.profilable(fully, batch) == (1, 256)
        skewed = BatchSetAssociativeCache(
            8192, BLOCK, 2, index_function=make_index_function(
                "a2-Hp-Sk", num_sets=128, ways=2, address_bits=19))
        assert MultiConfigPlan.profilable(skewed, batch) is None
        for policy in ("fifo", "random", "plru"):
            other = BatchSetAssociativeCache(8192, BLOCK, 2,
                                             replacement=policy)
            assert MultiConfigPlan.profilable(other, batch) is None
        classified = BatchSetAssociativeCache(8192, BLOCK, 2,
                                              classify_misses=True)
        assert MultiConfigPlan.profilable(classified, batch) is None
        warmed = BatchSetAssociativeCache(8192, BLOCK, 2)
        warmed.run(batch)
        warmed.reset_stats()
        assert MultiConfigPlan.profilable(warmed, batch) is None

    def test_groups_share_one_pass_per_level(self, monkeypatch):
        levels = []

        class CountingLevel(multiconfig._LevelState):
            __slots__ = ()

            def __init__(self, num_sets, cap, mode):
                levels.append(num_sets)
                super().__init__(num_sets, cap, mode)

        monkeypatch.setattr(multiconfig, "_LevelState", CountingLevel)
        addresses, writes = cached_workload_arrays("gcc", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(64, w) for w in (1, 2, 3, 4, 5, 6, 7, 8)]
        run_lru_grid(batch, BLOCK, grid, profile="sampled", sample_rate=1.0)
        assert levels == [64]  # eight configurations, one level pass

    def test_mixed_plan_keeps_kernel_tasks_on_their_kernels(self):
        addresses, writes = cached_workload_arrays("gcc", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        plan = MultiConfigPlan(profile="sampled", sample_rate=1.0)
        plan.add("conv", batch, lambda: BatchSetAssociativeCache(8192, BLOCK, 2))
        plan.add("skew", batch, lambda: BatchSetAssociativeCache(
            8192, BLOCK, 2, index_function=make_index_function(
                "a2-Hp-Sk", num_sets=128, ways=2, address_bits=19)))
        results = plan.run()
        reference = BatchSetAssociativeCache(8192, BLOCK, 2)
        reference.run(batch)
        assert results["conv"] == ProfileCounts.from_stats(reference.stats)
        skewed = BatchSetAssociativeCache(
            8192, BLOCK, 2, index_function=make_index_function(
                "a2-Hp-Sk", num_sets=128, ways=2, address_bits=19))
        skewed.run(batch)
        assert results["skew"] == ProfileCounts.from_stats(skewed.stats)

    def test_custom_runner_drives_kernel_tasks(self):
        batch = batch_of_blocks([0, 1, 0, 1])
        seen = []

        def runner(cache, batch_):
            seen.append(cache)
            cache.run(batch_)

        plan = MultiConfigPlan()
        plan.add("row", batch, lambda: BatchSetAssociativeCache(
            1024, BLOCK, 2, replacement="plru"), runner=runner)
        results = plan.run()
        assert len(seen) == 1
        assert results["row"].loads == 4

    def test_shared_addresses_with_different_store_masks_do_not_alias(self):
        """Two batches over one address array but different store masks
        must not share a profile group — their WTNA store-touch behaviour
        differs."""
        addresses = np.array([b * BLOCK for b in [0, 1, 0, 2, 0]],
                             dtype=np.uint64)
        hot_store = AddressBatch.from_arrays(
            addresses, [False, False, True, False, False])
        all_loads_mask = AddressBatch.from_arrays(
            addresses, [False] * 5)
        plan = MultiConfigPlan(profile="sampled", sample_rate=1.0)
        plan.add("stores", hot_store, lambda: BatchSetAssociativeCache(
            2 * BLOCK, BLOCK, 2))
        plan.add("loads", all_loads_mask, lambda: BatchSetAssociativeCache(
            2 * BLOCK, BLOCK, 2))
        results = plan.run()
        assert results["stores"] == kernel_counts(hot_store, 1, 2)
        assert results["loads"] == kernel_counts(all_loads_mask, 1, 2)
        assert results["stores"] != results["loads"]

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    @pytest.mark.parametrize("mode", PROFILE_MODES)
    def test_empty_trace_grid(self, kernel_path, mode, replacement):
        """A 0-access batch prices to all-zero counters on every path."""
        batch = batch_of_blocks([])
        grid = [(16, 2), (64, 4)]
        zero = ProfileCounts(loads=0, stores=0, load_misses=0, store_misses=0)
        results = run_lru_grid(batch, BLOCK, grid, profile=mode,
                               replacement=replacement)
        assert results == {key: zero for key in grid}

    @pytest.mark.parametrize("mode", PROFILE_MODES)
    def test_grid_against_scalar_models(self, mode):
        addresses, writes = cached_workload_arrays("compress", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(num_sets, ways) for num_sets in (16, 64) for ways in (1, 3, 8)]
        results = run_lru_grid(batch, BLOCK, grid, profile=mode,
                               sample_rate=1.0)
        for (num_sets, ways), counts in results.items():
            scalar = SetAssociativeCache(num_sets * ways * BLOCK, BLOCK, ways)
            for address, is_write in zip(batch.addresses.tolist(),
                                         batch.is_write.tolist()):
                scalar.access(address, is_write=is_write)
            assert counts == ProfileCounts.from_stats(scalar.stats), (
                num_sets, ways)


class TestFIFOPlanRouting:
    """FIFO grids run on their kernels on both tiers, bit-exact with the
    scalar models, beside LRU tasks priced out of a profile."""

    def test_fifo_grid_against_scalar_models(self, kernel_path):
        addresses, writes = cached_workload_arrays("li", length=3000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(16, 2), (64, 1), (64, 4)]
        results = run_lru_grid(batch, BLOCK, grid, replacement="fifo")
        for (num_sets, ways), counts in results.items():
            scalar = SetAssociativeCache(num_sets * ways * BLOCK, BLOCK,
                                         ways, replacement="fifo")
            for address, is_write in zip(batch.addresses.tolist(),
                                         batch.is_write.tolist()):
                scalar.access(address, is_write=is_write)
            assert counts == ProfileCounts.from_stats(scalar.stats), (
                num_sets, ways)

    def test_beladys_anomaly_is_reproduced(self, kernel_path):
        """FIFO is not a stack algorithm: the classic anomaly trace misses
        *more* at four frames than at three."""
        batch = batch_of_blocks([1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5])
        results = run_lru_grid(batch, BLOCK, [(1, 3), (1, 4)],
                               replacement="fifo")
        assert results[(1, 3)].misses == 9
        assert results[(1, 4)].misses == 10

    def test_cyclic_trace_at_and_below_its_footprint(self, kernel_path):
        results = run_lru_grid(batch_of_blocks([0, 1, 2, 0, 1, 2]), BLOCK,
                               [(1, 2), (1, 3)], replacement="fifo")
        assert results[(1, 2)].misses == 6  # thrashes below it
        assert results[(1, 3)].misses == 3  # compulsory only
        assert results[(1, 3)].miss_ratio == 0.5

    def test_mixed_lru_and_fifo_plan(self, kernel_path, monkeypatch):
        """Under ``sampled``, the LRU tasks over one batch share one profile
        while the FIFO tasks run their kernels, both exact at rate 1."""
        addresses, writes = cached_workload_arrays("go", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        served = serving_paths(monkeypatch)
        plan = MultiConfigPlan(profile="sampled", sample_rate=1.0)
        for ways in (1, 2, 4):
            plan.add(("lru", ways), batch,
                     lambda ways=ways: BatchSetAssociativeCache(
                         64 * ways * BLOCK, BLOCK, ways))
            plan.add(("fifo", ways), batch,
                     lambda ways=ways: BatchSetAssociativeCache(
                         64 * ways * BLOCK, BLOCK, ways, replacement="fifo"))
        results = plan.run()
        assert served == ["profile"] + ["kernel"] * 3
        for ways in (1, 2, 4):
            assert results[("lru", ways)] == kernel_counts(batch, 64, ways)
            assert results[("fifo", ways)] == kernel_counts(
                batch, 64, ways, replacement="fifo")
