"""Unit tests for SHARDS-style sampled all-associativity profiling.

:class:`~repro.engine.MultiConfigLRUProfile` below rate 1 trades exactness
for speed, so the suite pins the three properties that make it usable:
**determinism** (a profile is a pure function of (trace, rate, seed)),
**degeneracy** (rate 1.0 must be bit-identical to the exact profile, which
computes no hashes, as must levels whose mini cache hits the set floor,
and both must equal the kernels), and a **bounded error
envelope** at the production rate R = 0.01 across several seeds on a
spread-mass trace.  Hypothesis drives the degeneracy claims over random
geometries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import WritePolicy
from repro.engine import (
    AddressBatch,
    BatchSetAssociativeCache,
    MultiConfigLRUProfile,
    ProfileCounts,
    run_lru_grid,
)
from repro.engine import multiconfig
from repro.engine.multiconfig import (
    MIN_MINI_SETS,
    check_sample_options,
    hash_blocks,
    level_rate_exponent,
)

BLOCK = 32


def spread_trace(n, seed, store_fraction=0.3):
    """A mixed-working-set trace whose access mass is *spread*: a small hot
    region, two mid-size regions and a streaming component.  Spatial
    sampling is a per-block coin flip, so bounded-error claims need traces
    where no single block carries a macroscopic mass fraction."""
    rng = np.random.default_rng(seed)
    comp = rng.choice(4, size=n, p=[0.35, 0.30, 0.20, 0.15])
    blocks = np.empty(n, dtype=np.int64)
    blocks[comp == 0] = rng.integers(0, 4096, size=(comp == 0).sum())
    blocks[comp == 1] = 4096 + rng.integers(0, 32768, size=(comp == 1).sum())
    blocks[comp == 2] = 40000 + rng.integers(0, 1 << 18,
                                             size=(comp == 2).sum())
    stream = comp == 3
    blocks[stream] = (1 << 19) + np.arange(stream.sum())
    addresses = blocks.astype(np.uint64) << np.uint64(5)
    writes = rng.random(n) < store_fraction
    return AddressBatch.from_arrays(addresses, writes)


def kernel_counts(batch, num_sets, ways,
                  write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                  block=BLOCK):
    """The counters of one LRU configuration's own batch kernel."""
    cache = BatchSetAssociativeCache(num_sets * ways * block, block, ways,
                                     write_policy=write_policy)
    cache.run(batch)
    return ProfileCounts.from_stats(cache.stats)


class TestHashAndRates:
    def test_hash_is_deterministic_and_seed_sensitive(self):
        blocks = np.arange(1000, dtype=np.int64)
        assert (hash_blocks(blocks, 7) == hash_blocks(blocks, 7)).all()
        assert (hash_blocks(blocks, 7) != hash_blocks(blocks, 8)).any()
        with pytest.raises(ValueError):
            hash_blocks(blocks, -1)

    def test_rate_validation(self):
        assert check_sample_options(1) == (1.0, None, 0)
        assert check_sample_options(0.5, 8, 3) == (0.5, 8, 3)
        for bad in ((0.0,), (-0.5,), (1.5,), (2,), (0.5, 0), (0.5, -8),
                    (0.5, None, -1)):
            with pytest.raises(ValueError):
                check_sample_options(*bad)

    def test_leading_zero_filter_keeps_roughly_its_rate_of_blocks(self):
        """A level at exponent k keeps blocks whose hash has k leading zero
        bits: about 2^-k of them."""
        hashes = hash_blocks(np.arange(100_000, dtype=np.int64), 0)
        kept = int(((hashes >> np.uint64(64 - 7)) == 0).sum())
        assert 500 < kept < 1100   # ~781 expected, hash-uniformity slack

    def test_selection_is_spatial(self):
        """Whole blocks are kept or dropped — the hash of a shuffled
        stream is the shuffle of the hash."""
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 500, size=2000)
        hashes = hash_blocks(blocks, 5)
        perm = rng.permutation(2000)
        assert (hash_blocks(blocks[perm], 5) == hashes[perm]).all()

    def test_level_rate_exponent_floors_small_levels(self):
        # Plenty of headroom: 2^-6 is the largest power of two >= 0.01.
        assert level_rate_exponent(1 << 12, 0.01) == 6
        # The floor: a 64-set level may only shrink to MIN_MINI_SETS sets.
        assert level_rate_exponent(64, 0.01) == 2
        assert 64 >> 2 == MIN_MINI_SETS
        # At or below the floor the level is exact.
        assert level_rate_exponent(MIN_MINI_SETS, 0.01) == 0
        assert level_rate_exponent(1, 0.01) == 0
        # Rate 1.0 is always exact.
        assert level_rate_exponent(1 << 12, 1.0) == 0


class TestSampledMultiConfig:
    GRID = {64: 8, 1024: 8}

    def test_rate_one_is_bit_exact(self, monkeypatch):
        """Rate 1 is the exact profile: it hashes nothing and every cell
        equals the kernels'."""
        def no_hashes(*args):
            raise AssertionError("rate 1 hashed the blocks")

        monkeypatch.setattr(multiconfig, "hash_blocks", no_hashes)
        batch = spread_trace(5000, seed=31)
        for policy in (WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                       WritePolicy.WRITE_BACK_ALLOCATE):
            exact = MultiConfigLRUProfile(batch, BLOCK, self.GRID,
                                          write_policy=policy, rate=1.0)
            for num_sets in self.GRID:
                assert exact.level_rate(num_sets) == 1.0
                for ways in (1, 2, 4, 8):
                    assert (exact.miss_counts(num_sets, ways)
                            == kernel_counts(batch, num_sets, ways,
                                             policy)), (
                        policy, num_sets, ways)

    def test_floored_levels_are_bit_exact_at_any_rate(self):
        """A level at or below MIN_MINI_SETS sets never samples (k == 0),
        so its counters are exact even at R = 0.01."""
        batch = spread_trace(4000, seed=32)
        grid = {1: 8, MIN_MINI_SETS: 4}
        exact = MultiConfigLRUProfile(batch, BLOCK, grid)
        sampled = MultiConfigLRUProfile(batch, BLOCK, grid, rate=0.01)
        assert sampled.level_rate(1) == 1.0
        assert sampled.level_rate(MIN_MINI_SETS) == 1.0
        for num_sets, cap in grid.items():
            for ways in range(1, cap + 1):
                assert (sampled.miss_counts(num_sets, ways)
                        == exact.miss_counts(num_sets, ways))

    def test_deterministic_per_seed(self):
        batch = spread_trace(20_000, seed=33)
        one_shot = MultiConfigLRUProfile(batch, BLOCK, self.GRID,
                                         rate=0.05, seed=9)
        again = MultiConfigLRUProfile(batch, BLOCK, self.GRID,
                                      rate=0.05, seed=9)
        other_seed = MultiConfigLRUProfile(batch, BLOCK, self.GRID,
                                           rate=0.05, seed=10)
        differs = False
        for num_sets in self.GRID:
            assert again.level_rate(num_sets) == one_shot.level_rate(num_sets)
            for ways in (1, 3, 8):
                counts = one_shot.miss_counts(num_sets, ways)
                assert again.miss_counts(num_sets, ways) == counts
                differs |= other_seed.miss_counts(num_sets, ways) != counts
        assert differs

    def test_grid_error_bounded_at_production_rate(self):
        """The tentpole's accuracy claim at suite scale: R = 0.01, three
        seeds, dense (sets x ways) grid on a spread-mass trace — max
        miss-ratio error within the SHARDS envelope."""
        batch = spread_trace(200_000, seed=99)
        grid = {1024: 8, 2048: 8}
        exact = MultiConfigLRUProfile(batch, BLOCK, grid)
        for seed in range(3):
            sampled = MultiConfigLRUProfile(batch, BLOCK, grid,
                                            rate=0.01, seed=seed)
            for num_sets in grid:
                assert sampled.level_rate(num_sets) < 1.0
                for ways in (1, 2, 4, 8):
                    delta = abs(sampled.miss_counts(num_sets, ways).miss_ratio
                                - exact.miss_counts(num_sets, ways).miss_ratio)
                    assert delta <= 0.05, (seed, num_sets, ways, delta)

    def test_sample_size_caps_the_rate(self):
        batch = spread_trace(50_000, seed=34)
        capped = MultiConfigLRUProfile(batch, BLOCK, {1024: 4},
                                       rate=1.0, sample_size=500)
        assert capped.rate == pytest.approx(500 / 50_000)
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {1024: 4},
                                  sample_size=0)

    def test_readout_guards_match_exact_twin(self):
        batch = spread_trace(2000, seed=35)
        sampled = MultiConfigLRUProfile(batch, BLOCK, {64: 4}, rate=0.01)
        with pytest.raises(KeyError):
            sampled.miss_counts(128, 2)
        with pytest.raises(KeyError):
            sampled.level_rate(128)
        with pytest.raises(ValueError):
            sampled.miss_counts(64, 1000)
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {64: 4}, rate=0.0)
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {64: 4}, seed=-1)

    def test_plan_sampled_mode_routes_lru_grids(self):
        """run_lru_grid(profile="sampled") at rate 1.0 degenerates to the
        exact plan result; at a real rate it still prices every cell."""
        batch = spread_trace(10_000, seed=36)
        grid = [(num_sets, ways) for num_sets in (64, 256)
                for ways in (1, 2, 4)]
        exact = run_lru_grid(batch, BLOCK, grid)
        degenerate = run_lru_grid(batch, BLOCK, grid, profile="sampled",
                                  sample_rate=1.0)
        assert degenerate == exact
        sampled = run_lru_grid(batch, BLOCK, grid, profile="sampled",
                               sample_rate=0.05, profile_seed=2)
        assert set(sampled) == set(exact)
        for key in grid:
            assert sampled[key].accesses == exact[key].accesses
            assert abs(sampled[key].miss_ratio - exact[key].miss_ratio) < 0.5


@settings(max_examples=30, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 4095), min_size=1, max_size=200),
    writes=st.data(),
    set_bits=st.integers(0, 5),
    ways=st.integers(1, 4),
    seed=st.integers(0, 3),
)
def test_sampled_profile_rate_one_matches_exact_on_random_geometries(
        addresses, writes, set_bits, ways, seed):
    """Degeneracy property: at rate 1.0 the profile is exact, whatever the
    hash seed, over random traces and geometries."""
    is_write = writes.draw(st.lists(st.booleans(), min_size=len(addresses),
                                    max_size=len(addresses)))
    num_sets = 1 << set_bits
    batch = AddressBatch.from_arrays(np.array(addresses, dtype=np.uint64),
                                     np.array(is_write, dtype=bool))
    sampled = MultiConfigLRUProfile(batch, 16, {num_sets: ways},
                                    rate=1.0, seed=seed)
    assert (sampled.miss_counts(num_sets, ways)
            == kernel_counts(batch, num_sets, ways, block=16))


@settings(max_examples=30, deadline=None)
@given(
    addresses=st.lists(st.integers(0, (1 << 20) - 1), min_size=1,
                       max_size=300),
    set_bits=st.integers(4, 10),
    ways=st.integers(1, 4),
    rate_percent=st.integers(1, 100),
    seed=st.integers(0, 5),
)
def test_sampled_profile_is_sane_on_random_geometries(
        addresses, set_bits, ways, rate_percent, seed):
    """Structural property at *any* rate: counts stay within the exact
    totals, ratios stay in [0, 1], and rebuilding is bit-identical."""
    num_sets = 1 << set_bits
    rate = rate_percent / 100.0
    batch = AddressBatch.from_arrays(np.array(addresses, dtype=np.uint64))
    sampled = MultiConfigLRUProfile(batch, 16, {num_sets: ways},
                                    rate=rate, seed=seed)
    counts = sampled.miss_counts(num_sets, ways)
    assert counts.accesses == len(addresses)
    assert 0 <= counts.load_misses <= counts.loads
    assert 0.0 <= counts.miss_ratio <= 1.0
    rebuilt = MultiConfigLRUProfile(batch, 16, {num_sets: ways},
                                    rate=rate, seed=seed)
    assert rebuilt.miss_counts(num_sets, ways) == counts
