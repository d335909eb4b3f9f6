"""Unit tests for the sweep plan and its readout counts.

``MultiConfigPlan`` runs every task on its own cache, on both kernel tiers;
these cases pin its routing (one kernel run per task, in the order added),
its runner hook, and that tasks over one address array with different
store masks stay apart.  Grids of conventional caches run through the plan
are checked against the scalar models, and against hand-counted LRU stack
semantics: the reuse-distance boundary, inclusion across associativities
and the store handling of both write policies.
"""

import numpy as np
import pytest

from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.core.index import make_index_function
from repro.engine import (
    AddressBatch,
    BatchSetAssociativeCache,
    MultiConfigPlan,
    ProfileCounts,
)
from repro.trace.batching import cached_workload_arrays

BLOCK = 32


def batch_of_blocks(blocks, writes=None):
    """A batch whose block numbers (at 32-byte lines) are ``blocks``."""
    addresses = np.array([b * BLOCK for b in blocks], dtype=np.uint64)
    return AddressBatch.from_arrays(addresses, writes)


def kernel_counts(batch, num_sets, ways, replacement="lru"):
    cache = BatchSetAssociativeCache(num_sets * ways * BLOCK, BLOCK, ways,
                                     replacement=replacement)
    cache.run(batch)
    return ProfileCounts.from_stats(cache.stats)


def plan_grid(batch, grid, replacement="lru",
              write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE):
    """``{(num_sets, ways): counts}`` of a conventional grid, one plan task
    per configuration."""
    plan = MultiConfigPlan()
    for num_sets, ways in grid:
        plan.add((num_sets, ways), batch,
                 lambda num_sets=num_sets, ways=ways: BatchSetAssociativeCache(
                     num_sets * ways * BLOCK, BLOCK, ways,
                     replacement=replacement, write_policy=write_policy))
    return plan.run()


def scalar_counts(batch, num_sets, ways, replacement="lru"):
    scalar = SetAssociativeCache(num_sets * ways * BLOCK, BLOCK, ways,
                                 replacement=replacement)
    for address, is_write in zip(batch.addresses.tolist(),
                                 batch.is_write.tolist()):
        scalar.access(address, is_write=is_write)
    return ProfileCounts.from_stats(scalar.stats)


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


class TestLRUStackSemantics:
    """Hand-counted LRU grids on both tiers: an access hits a ``w``-way set
    exactly when fewer than ``w`` distinct blocks of its set were touched
    since its last touch."""

    def test_distance_equal_to_ways_misses(self, kernel_path):
        # One set: the final access to 0 has stack distance exactly 2.
        counts = plan_grid(batch_of_blocks([0, 1, 2, 0]), [(1, 2), (1, 3)])
        assert counts[(1, 2)].load_misses == 4   # distance == ways: miss
        assert counts[(1, 3)].load_misses == 3   # distance < ways: hit

    def test_boundary_within_a_mapped_set(self, kernel_path):
        # Blocks 0, 4, 8, 12 all map to set 0 of a 4-set cache.
        counts = plan_grid(batch_of_blocks([0, 4, 8, 12, 0]),
                           [(4, 3), (4, 4)])
        assert counts[(4, 3)].load_misses == 5
        assert counts[(4, 4)].load_misses == 4

    def test_duplicate_blocks_count_once(self, kernel_path):
        # 0 1 1 1 0: block 1 is one distinct block, not three.
        counts = plan_grid(batch_of_blocks([0, 1, 1, 1, 0]),
                           [(1, 1), (1, 2)])
        assert counts[(1, 1)].load_misses == 3
        assert counts[(1, 2)].load_misses == 2

    def test_misses_never_grow_with_the_ways(self, kernel_path):
        rng = np.random.default_rng(11)
        batch = batch_of_blocks(rng.integers(0, 40, size=2000).tolist())
        grid = [(1, ways) for ways in range(1, 65)]
        counts = plan_grid(batch, grid)
        assert (np.diff([counts[key].misses for key in grid]) <= 0).all()

    def test_wtna_store_hit_refreshes_recency(self, kernel_path):
        # Loads 0, 1 fill a two-way set; a store *hit* on 0 makes 1 the
        # victim of the next fill, so the final load of 0 hits.
        batch = batch_of_blocks([0, 1, 0, 2, 0],
                                [False, False, True, False, False])
        assert plan_grid(batch, [(1, 2)])[(1, 2)].load_misses == 3

    def test_wtna_store_miss_does_not_allocate(self, kernel_path):
        batch = batch_of_blocks([0, 1, 2, 1], [True, False, False, False])
        counts = plan_grid(batch, [(1, 1)])[(1, 1)]
        assert counts.store_misses == 1
        assert counts.load_misses == 3

    def test_wba_store_allocates(self, kernel_path):
        batch = batch_of_blocks([0, 1, 0], [True, False, False])
        counts = plan_grid(batch, [(1, 2)],
                           write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert counts[(1, 2)].load_misses == 1   # the store installed 0


#: A 256-way fully-associative cache and two set-associative ones.
ROUTING_GRID = [(1, 256), (16, 2), (64, 4)]


@pytest.mark.parametrize("replacement", ["lru", "fifo", "plru"])
def test_every_task_runs_its_own_kernel(kernel_path, replacement,
                                        monkeypatch):
    """One kernel run per task, in the order added, on both tiers, and
    every result bit-exact with the cache run on its own."""
    addresses, writes = cached_workload_arrays("li", length=4000)
    batch = AddressBatch.from_arrays(addresses, writes)
    expected = {(num_sets, ways): kernel_counts(batch, num_sets, ways,
                                               replacement=replacement)
                for num_sets, ways in ROUTING_GRID}
    served = []
    run = BatchSetAssociativeCache.run

    def counting_run(self, batch_):
        served.append((self.num_sets, self.ways))
        return run(self, batch_)

    monkeypatch.setattr(BatchSetAssociativeCache, "run", counting_run)
    assert plan_grid(batch, ROUTING_GRID, replacement) == expected
    assert served == ROUTING_GRID


class TestMultiConfigPlan:
    def test_mixed_plan_keeps_every_task_on_its_kernel(self):
        addresses, writes = cached_workload_arrays("gcc", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        plan = MultiConfigPlan()
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
        keep their own results — their store-touch behaviour differs."""
        addresses = np.array([b * BLOCK for b in [0, 1, 0, 2, 0]],
                             dtype=np.uint64)
        hot_store = AddressBatch.from_arrays(
            addresses, [False, False, True, False, False])
        all_loads_mask = AddressBatch.from_arrays(
            addresses, [False] * 5)
        plan = MultiConfigPlan()
        plan.add("stores", hot_store, lambda: BatchSetAssociativeCache(
            2 * BLOCK, BLOCK, 2))
        plan.add("loads", all_loads_mask, lambda: BatchSetAssociativeCache(
            2 * BLOCK, BLOCK, 2))
        results = plan.run()
        assert results["stores"] == kernel_counts(hot_store, 1, 2)
        assert results["loads"] == kernel_counts(all_loads_mask, 1, 2)
        assert results["stores"] != results["loads"]

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    def test_empty_trace_grid(self, kernel_path, replacement):
        """A 0-access batch prices to all-zero counters on both tiers."""
        batch = batch_of_blocks([])
        grid = [(16, 2), (64, 4)]
        zero = ProfileCounts(loads=0, stores=0, load_misses=0, store_misses=0)
        assert plan_grid(batch, grid, replacement) == {
            key: zero for key in grid}

    def test_grid_against_scalar_models(self, kernel_path):
        addresses, writes = cached_workload_arrays("compress", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(num_sets, ways) for num_sets in (16, 64) for ways in (1, 3, 8)]
        for (num_sets, ways), counts in plan_grid(batch, grid).items():
            assert counts == scalar_counts(batch, num_sets, ways), (
                num_sets, ways)


class TestFIFOGrid:
    """FIFO grids run on their kernels on both tiers, bit-exact with the
    scalar models."""

    def test_fifo_grid_against_scalar_models(self, kernel_path):
        addresses, writes = cached_workload_arrays("li", length=3000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(16, 2), (64, 1), (64, 4)]
        for (num_sets, ways), counts in plan_grid(batch, grid,
                                                  "fifo").items():
            assert counts == scalar_counts(batch, num_sets, ways, "fifo"), (
                num_sets, ways)

    def test_beladys_anomaly_is_reproduced(self, kernel_path):
        """FIFO is not a stack algorithm: the classic anomaly trace misses
        *more* at four frames than at three."""
        batch = batch_of_blocks([1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5])
        results = plan_grid(batch, [(1, 3), (1, 4)], "fifo")
        assert results[(1, 3)].misses == 9
        assert results[(1, 4)].misses == 10

    def test_cyclic_trace_at_and_below_its_footprint(self, kernel_path):
        results = plan_grid(batch_of_blocks([0, 1, 2, 0, 1, 2]),
                            [(1, 2), (1, 3)], "fifo")
        assert results[(1, 2)].misses == 6  # thrashes below it
        assert results[(1, 3)].misses == 3  # compulsory only
        assert results[(1, 3)].miss_ratio == 0.5

    def test_mixed_lru_and_fifo_plan(self, kernel_path):
        """LRU and FIFO tasks over one batch in one plan each run their
        own kernel."""
        addresses, writes = cached_workload_arrays("go", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        plan = MultiConfigPlan()
        for ways in (1, 2, 4):
            for policy in ("lru", "fifo"):
                plan.add((policy, ways), batch,
                         lambda ways=ways, policy=policy:
                         BatchSetAssociativeCache(64 * ways * BLOCK, BLOCK,
                                                  ways, replacement=policy))
        results = plan.run()
        for ways in (1, 2, 4):
            for policy in ("lru", "fifo"):
                assert results[(policy, ways)] == kernel_counts(
                    batch, 64, ways, replacement=policy)
