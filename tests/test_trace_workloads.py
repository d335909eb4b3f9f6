"""Tests for the synthetic Spec95-like trace workload models."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import FullyAssociativeCache, SetAssociativeCache
from repro.core import make_index_function
from repro.engine import ckernels
from repro.trace.workloads import (
    FP_PROGRAMS,
    HIGH_CONFLICT_PROGRAMS,
    INTEGER_PROGRAMS,
    LOW_CONFLICT_PROGRAMS,
    WORKLOADS,
    WorkloadSpec,
    build_trace,
    workload_arrays,
    workload_names,
)
from repro.trace import workloads
from repro.trace.batching import to_arrays
from repro.trace.generators import _SplitMix64


def miss_ratio(name, size_bytes, scheme, accesses=25_000):
    sets = size_bytes // (32 * 2)
    fn = make_index_function(scheme, num_sets=sets, ways=2, address_bits=19)
    cache = SetAssociativeCache(size_bytes, 32, 2, index_function=fn)
    for access in build_trace(name, length=accesses):
        cache.access(access.address, is_write=access.is_write)
    return cache.stats.load_miss_ratio


class TestCatalogue:
    def test_eighteen_programs(self):
        assert len(WORKLOADS) == 18
        assert len(workload_names()) == 18

    def test_partition_into_groups(self):
        assert set(HIGH_CONFLICT_PROGRAMS) == {"tomcatv", "swim", "wave5"}
        assert len(LOW_CONFLICT_PROGRAMS) == 15
        assert set(INTEGER_PROGRAMS) | set(FP_PROGRAMS) == set(WORKLOADS)
        assert not set(INTEGER_PROGRAMS) & set(FP_PROGRAMS)
        assert len(INTEGER_PROGRAMS) == 8 and len(FP_PROGRAMS) == 10

    def test_high_conflict_programs_have_conflict_components(self):
        for name in HIGH_CONFLICT_PROGRAMS:
            assert WORKLOADS[name].conflict_fraction > 0.2

    def test_low_conflict_programs_have_small_conflict_components(self):
        for name in LOW_CONFLICT_PROGRAMS:
            assert WORKLOADS[name].conflict_fraction < 0.05

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", conflict_fraction=0.8, stream_fraction=0.5)
        with pytest.raises(ValueError):
            WorkloadSpec("x", conflict_fraction=0.1, stream_fraction=0.1,
                         conflict_arrays=2)


class TestTraceGeneration:
    def test_deterministic(self):
        a = [(x.address, x.is_write) for x in build_trace("swim", length=500)]
        b = [(x.address, x.is_write) for x in build_trace("swim", length=500)]
        assert a == b

    def test_seed_changes_trace(self):
        a = [x.address for x in build_trace("gcc", length=500, seed=1)]
        b = [x.address for x in build_trace("gcc", length=500, seed=2)]
        assert a != b

    def test_length_respected(self):
        assert sum(1 for _ in build_trace("li", length=321)) == 321

    def test_unknown_program(self):
        with pytest.raises(ValueError):
            list(build_trace("doom", length=10))

    def test_contains_writes(self):
        assert any(a.is_write for a in build_trace("compress", length=2000))


class TestBehaviouralShape:
    """The properties the Table 2 reproduction depends on."""

    @pytest.mark.parametrize("name", HIGH_CONFLICT_PROGRAMS)
    def test_ipoly_removes_most_misses_of_bad_programs(self, name):
        conventional = miss_ratio(name, 8 * 1024, "a2")
        ipoly = miss_ratio(name, 8 * 1024, "a2-Hp-Sk")
        assert conventional > 0.35
        assert ipoly < conventional / 2

    @pytest.mark.parametrize("name", ["gcc", "compress", "hydro2d", "fpppp"])
    def test_indexing_insensitive_for_good_programs(self, name):
        conventional = miss_ratio(name, 8 * 1024, "a2")
        ipoly = miss_ratio(name, 8 * 1024, "a2-Hp-Sk")
        assert abs(conventional - ipoly) < 0.05

    @pytest.mark.parametrize("name", ["gcc", "li", "swim"])
    def test_doubling_the_cache_helps(self, name):
        small = miss_ratio(name, 8 * 1024, "a2")
        large = miss_ratio(name, 16 * 1024, "a2")
        assert large < small

    def test_ipoly_8k_beats_conventional_16k_for_bad_programs(self):
        """The paper's headline: I-Poly at 8 KB outperforms doubling the cache."""
        for name in HIGH_CONFLICT_PROGRAMS:
            assert miss_ratio(name, 8 * 1024, "a2-Hp-Sk") < miss_ratio(
                name, 16 * 1024, "a2")

    def test_ipoly_close_to_fully_associative(self):
        """Section 2.1: the I-Poly cache approaches full associativity."""
        for name in ["swim", "gcc"]:
            full = FullyAssociativeCache(8 * 1024, 32)
            for access in build_trace(name, length=25_000):
                full.access(access.address, is_write=access.is_write)
            ipoly = miss_ratio(name, 8 * 1024, "a2-Hp-Sk")
            assert ipoly <= full.stats.load_miss_ratio + 0.06


def assert_columns_match(name, length, block_size=32, seed=12345):
    """``workload_arrays`` and the synthesis's pcs equal
    :func:`build_trace`'s, on whichever tier is active."""
    addresses, is_write = workload_arrays(name, length, block_size, seed)
    trace = list(build_trace(name, length, block_size, seed))
    expected = to_arrays(trace)
    assert addresses.dtype == np.uint64 and is_write.dtype == np.bool_
    np.testing.assert_array_equal(addresses, expected[0])
    np.testing.assert_array_equal(is_write, expected[1])
    *_, pcs = workloads._workload_columns(name, length, block_size, seed,
                                          with_pcs=True)
    assert pcs.dtype == np.int64
    assert pcs.tolist() == [access.pc for access in trace]


#: A small draw block, so short traces already span several blocks.
SMALL_BLOCK = 64


@pytest.fixture
def numpy_tier(monkeypatch):
    """The NumPy block-draw synthesis, whatever the compiler."""
    monkeypatch.setattr(ckernels, "available", lambda: False)


class TestColumnarSynthesis:
    """``workload_arrays`` is ``to_arrays(build_trace(...))``, bit for bit,
    on the compiled synthesis and on the NumPy tier."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(workload_names()),
           seed=st.one_of(st.sampled_from([0, 1, 2 ** 64 - 1]),
                          st.integers(0, 2 ** 64 - 1)),
           length=st.integers(1, 5 * SMALL_BLOCK),
           block_size=st.sampled_from([16, 32, 64]))
    def test_matches_scalar_synthesis(self, kernel_path, name, seed, length,
                                      block_size):
        with mock.patch.object(workloads, "DRAW_BLOCK", SMALL_BLOCK):
            assert_columns_match(name, length, block_size, seed)

    @pytest.mark.parametrize("name", ["swim", "compress"])
    def test_two_blocks_at_the_default_size(self, kernel_path, name):
        assert_columns_match(name, 3 * workloads.DRAW_BLOCK // 4, seed=7)

    @staticmethod
    def hot_roles(name, seed, draws):
        """Per PRNG counter: (draw is hot-valued, counter starts an access)."""
        rng = _SplitMix64(seed or 1)
        hot_threshold = workloads._thresholds(WORKLOADS[name])[-1]
        roles, start = [], True
        for _ in range(draws):
            hot = rng.below(1_000_000) >= hot_threshold
            roles.append((hot, start))
            start = not (start and hot)
        return roles

    @pytest.mark.parametrize("carried", [True, False])
    def test_hot_run_straddling_a_block_boundary(self, numpy_tier, carried):
        """A block ends inside a run of hot draws, with its last counter a
        hot start (the carried bit set) or a write draw (not set)."""
        name, seed = "gcc", 12345
        roles = self.hot_roles(name, seed, 400)
        boundary = next(
            b for b in range(8, len(roles) - 8)
            if all(hot for hot, _ in roles[b - 3:b + 3])
            and roles[b - 1][1] == carried)
        with mock.patch.object(workloads, "DRAW_BLOCK", boundary):
            assert_columns_match(name, 2 * boundary, seed=seed)

    def test_arrays_are_fresh_and_writeable(self, kernel_path):
        first, _ = workload_arrays("swim", 100)
        second, _ = workload_arrays("swim", 100)
        assert first.flags.writeable and first is not second

    def test_validation(self, kernel_path):
        with pytest.raises(ValueError, match="unknown workload"):
            workload_arrays("doom", 10)
        with pytest.raises(ValueError, match="length"):
            workload_arrays("gcc", 0)

    @pytest.mark.slow
    def test_memory_is_bounded_by_the_output(self, kernel_path):
        """Blocked synthesis: scratch memory stays small at 1M accesses."""
        length = 1_000_000
        workload_arrays("swim", 10)  # imports out of the measurement
        tracemalloc.start()
        try:
            addresses, is_write = workload_arrays("swim", length)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(addresses) == length
        assert peak <= addresses.nbytes + is_write.nbytes + 32 * 2 ** 20


# --------------------------------------------------------------------- #
# the compiled synthesis against the NumPy tier and the oracle
# --------------------------------------------------------------------- #

#: Lengths around the NumPy tier's draw blocks, and past two of them.
LENGTHS = (1, 2, 7, workloads.DRAW_BLOCK - 1, workloads.DRAW_BLOCK + 1,
           300_001)
#: Seed 0 (which stands for 1), 1, the largest, and the CPU builder's
#: ``seed + 17`` at Table 2's seed.
SEEDS = (0, 1, 2 ** 64 - 1, 2027 + 17)
BLOCK_SIZES = (16, 32, 64)


def numpy_columns(name, length, block_size, seed):
    with mock.patch.object(ckernels, "available", lambda: False):
        return workloads._workload_columns(name, length, block_size, seed,
                                           with_pcs=True)


def assert_tiers_agree(name, length, block_size, seed):
    compiled = workloads._workload_columns(name, length, block_size, seed,
                                           with_pcs=True)
    for got, want in zip(compiled, numpy_columns(name, length, block_size,
                                                 seed)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", workload_names())
def test_compiled_synthesis_matches_the_numpy_tier(compiled_tier, name):
    """Every length, each with the next seed and block size in turn."""
    for k, length in enumerate(LENGTHS):
        assert_tiers_agree(name, length, BLOCK_SIZES[k % 3],
                           SEEDS[(k + len(name)) % 4])


@pytest.mark.parametrize("name", workload_names())
@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_synthesis_matches_the_oracle(compiled_tier, name, seed):
    for length, block_size in zip((1, 2, 7, 3_000), (16, 32, 64, 32)):
        assert_columns_match(name, length, block_size, seed)


@pytest.mark.slow
@pytest.mark.parametrize("name", workload_names())
@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_synthesis_deep(compiled_tier, name, seed):
    """The whole length x block-size matrix against the NumPy tier, and
    against the oracle at every length but the longest, which one block
    size covers."""
    for length in LENGTHS:
        for block_size in BLOCK_SIZES:
            assert_tiers_agree(name, length, block_size, seed)
            if length < LENGTHS[-1] or block_size == 32:
                assert_columns_match(name, length, block_size, seed)


# --------------------------------------------------------------------- #
# malformed arguments fail in the wrapper, before the C call
# --------------------------------------------------------------------- #

def synthesis_args(length=50):
    layout = workloads._WorkloadState(WORKLOADS["gcc"], 32, 7)
    return dict(length=length, seed=7, params=workloads._trace_params(layout),
                addresses=np.empty(length, dtype=np.uint64),
                is_write=np.empty(length, dtype=bool),
                pcs=np.empty(length, dtype=np.int64))


def test_synthesis_args_are_valid(compiled_tier):
    args = synthesis_args()
    ckernels.workload_trace(**args)
    assert args["addresses"].tolist() == [
        access.address for access in build_trace("gcc", 50, 32, 7)]


def spoil(name, value):
    def spoil_(args):
        args[name] = value
    spoil_.__name__ = f"{name}={value!r}"
    return spoil_


def spoil_column(name, make):
    def spoil_(args):
        args[name] = make(args[name])
    spoil_.__name__ = f"{name}:{make.__name__}"
    return spoil_


def spoil_param(name, value):
    def spoil_(args):
        args["params"] = dict(args["params"], **{name: value})
    spoil_.__name__ = f"{name}={value!r}"
    return spoil_


def wrong_dtype(column):
    return column.view(np.int64 if column.dtype == np.uint64
                       else np.uint8 if column.dtype == np.bool_
                       else np.uint64)


def too_short(column):
    return column[:-1]


def strided(column):
    return np.empty(2 * len(column), dtype=column.dtype)[::2]


def read_only(column):
    column.flags.writeable = False
    return column


def drop_slot(args):
    args["params"] = {key: value for key, value in args["params"].items()
                      if key != "hot_slots"}


def extra_slot(args):
    args["params"] = dict(args["params"], ppm=1_000_000)


@pytest.mark.parametrize("spoil_args", [
    *(spoil_column(column, make)
      for column in ("addresses", "is_write", "pcs")
      for make in (wrong_dtype, too_short, strided, read_only)),
    spoil("addresses", [0] * 50),
    spoil("length", 0),
    spoil("length", -3),
    spoil("length", True),
    spoil("seed", 1.5),
    spoil_param("block_size", 0),
    spoil_param("block_size", -32),
    drop_slot,
    extra_slot,
    spoil_param("hot_slots", 0),
    spoil_param("medium_blocks", 0),
    spoil_param("conflict_arrays", 0),
    spoil_param("conflict_elements", 0),
    spoil_param("stream_cut", -1),
    spoil_param("medium_cut", 1_000_001),
    spoil_param("conflict_cut", 999_999),
    spoil_param("write_cut", 1_000_001),
    spoil_param("hot_base", 2 ** 62),
    spoil_param("hot_pc", 2.5),
    spoil_param("conflict_pc_step", 2 ** 61),
], ids=lambda spoil_args: spoil_args.__name__)
def test_malformed_arguments_raise_before_the_call(kernel_path, monkeypatch,
                                                   spoil_args):
    args = synthesis_args()
    spoil_args(args)
    monkeypatch.setattr(ckernels, "_library", lambda: pytest.fail(
        "malformed arguments reached the library"))
    with pytest.raises(ValueError):
        ckernels.workload_trace(**args)
