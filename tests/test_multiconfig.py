"""Unit tests for the one-pass multi-configuration LRU profiler.

The differential suites (``test_engine_equivalence.py``,
``test_engine_properties.py``) pit the profiler against the batch kernels
and the scalar models over whole traces; this module covers the subsystem's
own semantics — reuse-distance arithmetic, the distance == ways boundary,
the capped priority-stack store handling, profile memoisation and the
plan's partitioning policy.
"""

import numpy as np
import pytest

from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.core.index import SingleSetIndexing, make_index_function
from repro.engine import (
    AddressBatch,
    BatchSetAssociativeCache,
    MultiCapacityFIFOProfile,
    MultiConfigFIFOBuilder,
    MultiConfigFIFOProfile,
    MultiConfigLRUProfile,
    MultiConfigPlan,
    MultiConfigProfileBuilder,
    ProfileCounts,
    StackDistanceProfile,
    check_profile_mode,
    ckernels,
    profile_cache_clear,
    profile_cache_info,
    run_lru_grid,
)
from repro.engine import multiconfig, pykernels
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


class TestStackDistanceProfile:
    def test_known_distances(self):
        # 0 1 2 0: two distinct blocks (1, 2) between the accesses to 0.
        profile = StackDistanceProfile.from_blocks(
            np.array([0, 1, 2, 0], dtype=np.int64))
        assert profile.distances.tolist() == [-1, -1, -1, 2]
        assert profile.cold_accesses == 3

    def test_duplicate_blocks_count_once(self):
        # 0 1 1 1 0: block 1 is one distinct block, not three.
        profile = StackDistanceProfile.from_blocks(
            np.array([0, 1, 1, 1, 0], dtype=np.int64))
        assert profile.distances.tolist() == [-1, -1, 0, 0, 1]

    def test_miss_counts_price_every_capacity(self):
        blocks = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
        profile = StackDistanceProfile.from_blocks(blocks)
        # Cyclic over three blocks: distance 2 on every reuse.
        assert profile.miss_count(2) == 6   # thrashes below the footprint
        assert profile.miss_count(3) == 3   # compulsory only at capacity 3
        assert profile.miss_ratio(3) == 0.5

    def test_matches_fully_associative_kernel(self):
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 60, size=3000)
        batch = batch_of_blocks(blocks.tolist())
        profile = StackDistanceProfile.from_batch(batch, BLOCK)
        for capacity in (1, 2, 7, 16, 33, 64, 100):
            cache = BatchSetAssociativeCache(
                capacity * BLOCK, BLOCK, capacity,
                index_function=SingleSetIndexing())
            cache.run(batch)
            assert profile.miss_count(capacity) == cache.stats.load_misses

    def test_empty_profile(self):
        profile = StackDistanceProfile.from_blocks(np.empty(0, dtype=np.int64))
        assert profile.accesses == 0
        assert profile.miss_ratio(8) == 0.0

    def test_curve_is_monotone_nonincreasing(self):
        rng = np.random.default_rng(11)
        profile = StackDistanceProfile.from_blocks(
            rng.integers(0, 40, size=2000))
        curve = profile.miss_ratio_curve(range(1, 64))
        assert (np.diff(curve) <= 0).all()


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

    def test_levels_are_memoised_per_trace(self):
        profile_cache_clear()
        addresses, writes = cached_workload_arrays("gcc", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        MultiConfigLRUProfile(batch, BLOCK, {64: 4})
        misses_after_first = profile_cache_info()["misses"]
        MultiConfigLRUProfile(batch, BLOCK, {64: 4})
        info = profile_cache_info()
        assert info["misses"] == misses_after_first
        assert info["hits"] >= 1

    def test_writable_inputs_are_not_memoised(self):
        profile_cache_clear()
        batch = batch_of_blocks(list(range(16)) * 4)
        assert batch.addresses.flags.writeable
        MultiConfigLRUProfile(batch, BLOCK, {4: 2})
        MultiConfigLRUProfile(batch, BLOCK, {4: 2})
        assert profile_cache_info()["entries"] == 0


class TestMultiConfigPlan:
    def test_mode_validation(self):
        assert check_profile_mode("Always ") == "always"
        with pytest.raises(ValueError):
            check_profile_mode("sometimes")
        with pytest.raises(ValueError):
            MultiConfigPlan(profile="sometimes")

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
        fifo = BatchSetAssociativeCache(8192, BLOCK, 2, replacement="fifo")
        assert MultiConfigPlan.profilable(fifo, batch) is None
        assert MultiConfigPlan.profilable_fifo(fifo, batch) == (128, 2)
        conventional_not_fifo = BatchSetAssociativeCache(8192, BLOCK, 2)
        assert MultiConfigPlan.profilable_fifo(
            conventional_not_fifo, batch) is None
        random_policy = BatchSetAssociativeCache(8192, BLOCK, 2,
                                                 replacement="random")
        assert MultiConfigPlan.profilable_fifo(random_policy, batch) is None
        classified = BatchSetAssociativeCache(8192, BLOCK, 2,
                                              classify_misses=True)
        assert MultiConfigPlan.profilable(classified, batch) is None
        warmed = BatchSetAssociativeCache(8192, BLOCK, 2)
        warmed.run(batch)
        warmed.reset_stats()
        assert MultiConfigPlan.profilable(warmed, batch) is None

    def test_every_mode_is_bit_exact(self):
        addresses, writes = cached_workload_arrays("tomcatv", length=5000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(num_sets, ways) for num_sets in (32, 64, 128)
                for ways in (1, 2, 4)]
        results = {mode: run_lru_grid(batch, BLOCK, grid, profile=mode)
                   for mode in ("auto", "always", "never")}
        assert results["auto"] == results["never"]
        assert results["always"] == results["never"]

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    def test_auto_profiles_every_group_on_the_python_tier(self, replacement,
                                                         monkeypatch):
        """Without a compiler auto profiles every profilable group — a
        single configuration and a 256-way fully-associative level too:
        the Python kernels' probe is linear in the ways, and the profile
        beats them at every shape the bench times."""
        monkeypatch.setattr(ckernels, "available", lambda: False)
        kernel_runs = []
        run_set_assoc = pykernels.run_set_assoc

        def counting(*args, **kwargs):
            kernel_runs.append(1)
            return run_set_assoc(*args, **kwargs)

        monkeypatch.setattr(pykernels, "run_set_assoc", counting)
        addresses, writes = cached_workload_arrays("li", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        for grid in ([(64, 2)], [(1, 256), (64, 2), (64, 4)]):
            auto = run_lru_grid(batch, BLOCK, grid, profile="auto",
                                replacement=replacement)
            assert kernel_runs == []
            assert auto == run_lru_grid(batch, BLOCK, grid, profile="never",
                                        replacement=replacement)
            assert len(kernel_runs) == len(grid)
            kernel_runs.clear()

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    def test_auto_runs_compiled_kernels_instead_of_profiles(
            self, replacement, monkeypatch, compiled_tier):
        """The compiled per-configuration kernels outrun the exact
        profiles, so auto builds none while they are available."""
        addresses, writes = cached_workload_arrays("li", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(64, w) for w in (1, 2, 4, 8)]
        exact = run_lru_grid(batch, BLOCK, grid, profile="always",
                             replacement=replacement)

        def no_profile(*args, **kwargs):
            raise AssertionError("auto built a profile on the compiled tier")

        for name in ("MultiConfigLRUProfile", "MultiConfigFIFOProfile"):
            monkeypatch.setattr(multiconfig, name, no_profile)
        assert run_lru_grid(batch, BLOCK, grid, profile="auto",
                            replacement=replacement) == exact

    def test_groups_share_one_pass_per_level(self):
        profile_cache_clear()
        addresses, writes = cached_workload_arrays("gcc", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(64, w) for w in (1, 2, 3, 4, 5, 6, 7, 8)]
        run_lru_grid(batch, BLOCK, grid, profile="always")
        info = profile_cache_info()
        assert info["misses"] == 1  # eight configurations, one level pass

    def test_mixed_plan_keeps_kernel_tasks_on_their_kernels(self):
        addresses, writes = cached_workload_arrays("gcc", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        plan = MultiConfigPlan(profile="always")
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

    def test_custom_runner_drives_fallback_tasks(self):
        batch = batch_of_blocks([0, 1, 0, 1])
        seen = []

        def runner(cache, batch_):
            seen.append(cache)
            cache.run(batch_)

        plan = MultiConfigPlan(profile="never")
        plan.add("row", batch, lambda: BatchSetAssociativeCache(1024, BLOCK, 2),
                 runner=runner)
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
        plan = MultiConfigPlan(profile="always")
        plan.add("stores", hot_store, lambda: BatchSetAssociativeCache(
            2 * BLOCK, BLOCK, 2))
        plan.add("loads", all_loads_mask, lambda: BatchSetAssociativeCache(
            2 * BLOCK, BLOCK, 2))
        results = plan.run()
        assert results["stores"] == kernel_counts(hot_store, 1, 2)
        assert results["loads"] == kernel_counts(all_loads_mask, 1, 2)
        assert results["stores"] != results["loads"]

    def test_profile_never_runs_every_kernel(self):
        """``profile="never"`` must produce the same numbers with zero
        profile passes — every configuration on its own kernel."""
        addresses, writes = cached_workload_arrays("li", length=3000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(num_sets, ways) for num_sets in (16, 64) for ways in (1, 2, 4)]
        profile_cache_clear()
        never = run_lru_grid(batch, BLOCK, grid, profile="never")
        assert profile_cache_info()["misses"] == 0
        assert profile_cache_info()["hits"] == 0
        for (num_sets, ways), counts in never.items():
            assert counts == kernel_counts(batch, num_sets, ways)

    def test_empty_trace_grid(self):
        """A 0-access batch prices to all-zero counters in every mode."""
        batch = batch_of_blocks([])
        grid = [(16, 2), (64, 4)]
        zero = ProfileCounts(loads=0, stores=0, load_misses=0, store_misses=0)
        for mode in ("auto", "always", "never", "sampled"):
            results = run_lru_grid(batch, BLOCK, grid, profile=mode)
            assert results == {key: zero for key in grid}, mode
        fifo = run_lru_grid(batch, BLOCK, grid, profile="always",
                            replacement="fifo")
        assert fifo == {key: zero for key in grid}

    def test_grid_against_scalar_models(self):
        addresses, writes = cached_workload_arrays("compress", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(num_sets, ways) for num_sets in (16, 64) for ways in (1, 3, 8)]
        results = run_lru_grid(batch, BLOCK, grid, profile="always")
        for (num_sets, ways), counts in results.items():
            scalar = SetAssociativeCache(num_sets * ways * BLOCK, BLOCK, ways)
            for address, is_write in zip(batch.addresses.tolist(),
                                         batch.is_write.tolist()):
                scalar.access(address, is_write=is_write)
            assert counts == ProfileCounts.from_stats(scalar.stats), (
                num_sets, ways)

class TestMultiConfigFIFOProfile:
    """The single-pass FIFO grid: miss-driven event replays vs kernels."""

    def test_validates_geometry_and_policy(self):
        batch = batch_of_blocks([0, 1])
        with pytest.raises(ValueError):
            MultiConfigFIFOProfile(batch, BLOCK, {3: 2})  # not a power of two
        with pytest.raises(ValueError):
            MultiConfigFIFOProfile(batch, BLOCK, {})      # no levels
        with pytest.raises(ValueError):
            MultiConfigFIFOProfile(batch, BLOCK, {4: 2}, write_policy="bogus")

    def test_readout_guards(self):
        batch = batch_of_blocks([0, 1, 2])
        profile = MultiConfigFIFOProfile(batch, BLOCK, {4: 2})
        with pytest.raises(KeyError):
            profile.miss_counts(8, 2)     # level never declared
        with pytest.raises(ValueError):
            profile.miss_counts(4, 3)     # beyond the declared depth cap
        with pytest.raises(ValueError):
            profile.miss_counts(4, 0)

    def test_beladys_anomaly_is_reproduced(self):
        """FIFO is not a stack algorithm: the classic anomaly trace misses
        *more* at four frames than at three — the per-capacity event
        replays must reproduce it (a stack-style readout cannot)."""
        anomaly = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
        batch = batch_of_blocks(anomaly)
        profile = MultiConfigFIFOProfile(batch, BLOCK, {1: 4})
        assert profile.miss_counts(1, 3).misses == 9
        assert profile.miss_counts(1, 4).misses == 10

    def test_matches_kernels_across_grid_and_policies(self):
        addresses, writes = cached_workload_arrays("gcc", length=6000)
        batch = AddressBatch.from_arrays(addresses, writes)
        for policy in (WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                       WritePolicy.WRITE_BACK_ALLOCATE):
            profile = MultiConfigFIFOProfile(batch, BLOCK, {16: 8, 64: 8},
                                             write_policy=policy)
            for num_sets in (16, 64):
                for ways in (1, 2, 3, 4, 8):
                    assert (profile.miss_counts(num_sets, ways)
                            == kernel_counts(batch, num_sets, ways,
                                             write_policy=policy,
                                             replacement="fifo")), (
                        policy, num_sets, ways)

    def test_loads_only_stream(self):
        batch = batch_of_blocks([0, 1, 2, 0, 1, 2, 3, 0])
        profile = MultiConfigFIFOProfile(batch, BLOCK, {1: 4})
        assert profile.store_mode == "loads"
        assert profile.miss_counts(1, 3) == kernel_counts(
            batch, 1, 3, replacement="fifo")

    def test_empty_trace(self):
        profile = MultiConfigFIFOProfile(batch_of_blocks([]), BLOCK, {4: 2})
        assert profile.accesses == 0
        assert profile.miss_counts(4, 2).miss_ratio == 0.0

    def test_builder_chunked_equals_one_shot(self):
        addresses, writes = cached_workload_arrays("m88ksim", length=9000)
        batch = AddressBatch.from_arrays(addresses, writes)
        one_shot = MultiConfigFIFOProfile(batch, BLOCK, {64: 4})
        builder = MultiConfigFIFOBuilder(BLOCK, {64: 4}, has_stores=True)
        for start in range(0, 9000, 1234):
            builder.feed(AddressBatch.from_arrays(
                addresses[start:start + 1234], writes[start:start + 1234]))
        chunked = builder.finish()
        for ways in (1, 2, 4):
            assert (chunked.miss_counts(64, ways)
                    == one_shot.miss_counts(64, ways))

    def test_builder_rejects_mid_stream_store_mode_change(self):
        builder = MultiConfigFIFOBuilder(BLOCK, {16: 2}, has_stores=False)
        builder.feed(batch_of_blocks([0, 1, 2]))
        with pytest.raises(ValueError, match="store mode changed mid-stream"):
            builder.feed(batch_of_blocks([3, 4], [True, False]))


class TestMultiCapacityFIFOProfile:
    def test_validates_capacities(self):
        blocks = np.array([0, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            MultiCapacityFIFOProfile(blocks, [])
        with pytest.raises(ValueError):
            MultiCapacityFIFOProfile(blocks, [0, 4])

    def test_matches_fully_associative_fifo_kernel(self):
        rng = np.random.default_rng(17)
        blocks = rng.integers(0, 80, size=4000)
        batch = batch_of_blocks(blocks.tolist())
        capacities = [1, 2, 7, 16, 33, 64, 100]
        profile = MultiCapacityFIFOProfile(blocks, capacities)
        for capacity in capacities:
            cache = BatchSetAssociativeCache(
                capacity * BLOCK, BLOCK, capacity,
                index_function=SingleSetIndexing(), replacement="fifo")
            cache.run(batch)
            assert profile.miss_count(capacity) == cache.stats.misses
            assert profile.hit_count(capacity) == cache.stats.hits

    def test_curve_and_guards(self):
        blocks = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
        profile = MultiCapacityFIFOProfile(blocks, [2, 3])
        assert profile.miss_count(2) == 6    # thrashes below the footprint
        assert profile.miss_count(3) == 3    # compulsory only
        assert profile.miss_ratio(3) == 0.5
        assert profile.miss_ratio_curve().tolist() == [1.0, 0.5]
        with pytest.raises(KeyError):
            profile.miss_count(4)            # capacity not declared

    def test_from_batch_and_empty_stream(self):
        batch = batch_of_blocks([0, 1, 0])
        profile = MultiCapacityFIFOProfile.from_batch(batch, BLOCK, [2])
        assert profile.miss_count(2) == 2
        empty = MultiCapacityFIFOProfile(np.empty(0, dtype=np.int64), [4])
        assert empty.miss_ratio(4) == 0.0


class TestFIFOPlanRouting:
    """MultiConfigPlan must price FIFO grids off the one-pass profile,
    bit-exact with per-config kernels in every profiled mode."""

    def test_fifo_grid_every_mode_is_bit_exact(self):
        addresses, writes = cached_workload_arrays("compress", length=5000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(num_sets, ways) for num_sets in (32, 128)
                for ways in (1, 2, 4)]
        results = {mode: run_lru_grid(batch, BLOCK, grid, profile=mode,
                                      replacement="fifo")
                   for mode in ("auto", "always", "never", "sampled")}
        assert results["always"] == results["never"]
        assert results["auto"] == results["never"]
        # FIFO tasks have no sampled path: "sampled" prices them exactly.
        assert results["sampled"] == results["never"]

    def test_fifo_grid_against_scalar_models(self):
        addresses, writes = cached_workload_arrays("li", length=3000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(16, 2), (64, 1), (64, 4)]
        results = run_lru_grid(batch, BLOCK, grid, profile="always",
                               replacement="fifo")
        for (num_sets, ways), counts in results.items():
            scalar = SetAssociativeCache(num_sets * ways * BLOCK, BLOCK,
                                         ways, replacement="fifo")
            for address, is_write in zip(batch.addresses.tolist(),
                                         batch.is_write.tolist()):
                scalar.access(address, is_write=is_write)
            assert counts == ProfileCounts.from_stats(scalar.stats), (
                num_sets, ways)

    def test_mixed_lru_and_fifo_plan(self):
        """LRU and FIFO tasks over one batch group separately, each priced
        by its own profile kind, both exact."""
        addresses, writes = cached_workload_arrays("go", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        plan = MultiConfigPlan(profile="always")
        for ways in (1, 2, 4):
            plan.add(("lru", ways), batch,
                     lambda ways=ways: BatchSetAssociativeCache(
                         64 * ways * BLOCK, BLOCK, ways))
            plan.add(("fifo", ways), batch,
                     lambda ways=ways: BatchSetAssociativeCache(
                         64 * ways * BLOCK, BLOCK, ways, replacement="fifo"))
        results = plan.run()
        for ways in (1, 2, 4):
            assert results[("lru", ways)] == kernel_counts(batch, 64, ways)
            assert results[("fifo", ways)] == kernel_counts(
                batch, 64, ways, replacement="fifo")


class TestExactBuilderStoreModeGuard:
    """Regression: chunks disagreeing on has_stores must raise a clear
    error up front, not silently drift the profile's stats."""

    def test_exact_builder_rejects_mid_stream_store_mode_change(self):
        builder = MultiConfigProfileBuilder(BLOCK, {16: 2}, has_stores=False)
        builder.feed(batch_of_blocks([0, 1, 2]))
        with pytest.raises(ValueError) as err:
            builder.feed(batch_of_blocks([3, 4], [True, False]))
        message = str(err.value)
        assert "store mode changed mid-stream" in message
        assert "after 3 accesses" in message
        assert "has_stores=True" in message   # the message names the fix

    def test_declared_stores_accept_any_chunk_mix(self):
        builder = MultiConfigProfileBuilder(BLOCK, {16: 2}, has_stores=True)
        builder.feed(batch_of_blocks([0, 1, 2]))                # all loads
        builder.feed(batch_of_blocks([3, 4], [True, False]))    # mixed
        assert builder.finish().miss_counts(16, 2).accesses == 5
