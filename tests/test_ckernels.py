"""Three-path differential tests: scalar oracle, compiled kernels, fallback.

Every case runs one trace through the scalar model — the oracle — and
through the batch cache on both kernel paths (the ``kernel_path`` fixture:
the C kernels of :mod:`repro.engine.ckernels`, then the Python fallback),
and compares hit masks, :class:`~repro.cache.stats.CacheStats`, probe and
victim counters and the final resident blocks.  Each batch cache runs the
trace twice: in one call, and in uneven chunks on a warming cache (chunk
size invariance).  Hand-off cases move a cache between the compiled
kernels, the Python point operations and the fallback mid-stream.

The build tests run a small script in fresh interpreters with their own
cache directory, so the failure modes — no compiler, no writable
directory, a damaged library on disk, two processes building at once —
are exercised for real.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
import textwrap
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache.column_assoc import ColumnAssociativeCache
from repro.cache.replacement import REPLACEMENT_POLICIES
from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.cache.victim import VictimCache
from repro.core.index import (
    BitSelectIndexing,
    IPolyIndexing,
    SingleSetIndexing,
    make_index_function,
)
from repro.engine import (
    AddressBatch,
    BatchColumnAssociativeCache,
    BatchSetAssociativeCache,
    BatchVictimCache,
    Placement,
    ckernels,
    placement,
    way_function,
)
from repro.trace.batching import to_arrays
from repro.trace.generators import random_accesses, strided_vector

BLOCK = 32
CACHE_BYTES = 4096

#: Stores in a random working set four times the cache, then a
#: pathological stride that conflicts on conventional placement.
TRACE = (list(random_accesses(1200, 4 * CACHE_BYTES, write_fraction=0.3,
                              seed=17))
         + list(strided_vector(1024, elements=48, sweeps=3)))

#: Uneven chunk sizes for the chunked replay (the rest is one last chunk).
CHUNKS = (1, 7, 300, 555)

WRITE_POLICIES = (WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                  WritePolicy.WRITE_BACK_ALLOCATE)


def batch_of(trace):
    return AddressBatch.from_arrays(*to_arrays(trace))


def chunked(trace):
    start = 0
    for size in CHUNKS:
        yield batch_of(trace[start:start + size])
        start += size
    yield batch_of(trace[start:])


def stats_of(stats):
    return (stats.loads, stats.stores, stats.load_misses, stats.store_misses,
            stats.evictions, stats.writebacks, stats.invalidations,
            dict(stats.miss_kinds))


def scalar_hits(cache, trace):
    return np.array([cache.access(a.address, a.is_write).hit for a in trace],
                    dtype=bool)


def use_path(path, monkeypatch):
    """Switch the kernel tier for the rest of the test."""
    if path == "compiled":
        monkeypatch.undo()
    else:
        monkeypatch.setattr(ckernels, "available", lambda: False)


def test_require_ckernels_pin():
    """CI pins both sides of the gate: one leg must build the library, the
    ``CC=false`` leg must not."""
    required = os.environ.get("REPRO_REQUIRE_CKERNELS", "")
    if required == "1":
        assert ckernels.available()
    elif required == "0":
        assert not ckernels.available()
    else:
        assert ckernels.available() in (True, False)


# --------------------------------------------------------------------- #
# set-associative: placement x ways x policy x write policy x classifier
# --------------------------------------------------------------------- #

PLACEMENTS = ("conventional", "skewed", "fully-associative")


def build_set_assoc(cell, batch):
    placement, ways, policy, write_policy, classify = cell
    if placement == "fully-associative":
        size = ways * BLOCK
        index = SingleSetIndexing()
    else:
        size = CACHE_BYTES
        scheme = "a2" if placement == "conventional" else "a2-Hp-Sk"
        index = make_index_function(scheme, size // (BLOCK * ways),
                                    ways=ways, address_bits=19)
    cls = BatchSetAssociativeCache if batch else SetAssociativeCache
    return cls(size, BLOCK, ways, index_function=index, replacement=policy,
               write_policy=write_policy, classify_misses=classify)


@lru_cache(maxsize=None)
def set_assoc_oracle(cell):
    scalar = build_set_assoc(cell, batch=False)
    hits = scalar_hits(scalar, TRACE)
    return hits, stats_of(scalar.stats), sorted(scalar.resident_blocks())


def expected_set_assoc_kernel(placement, policy, path):
    if placement == "fully-associative":
        tier = "compiled" if path == "compiled" else "python"
        return f"{tier}-fully-assoc-{policy}"
    if path == "compiled":
        return f"compiled-set-assoc-{policy}"
    return "generic-policy-kernel"


@pytest.mark.parametrize("classify", [False, True], ids=["plain", "3c"])
@pytest.mark.parametrize("write_policy", WRITE_POLICIES)
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("ways", [1, 2, 4])
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_set_assoc_three_paths(placement, ways, policy, write_policy,
                               classify, kernel_path):
    cell = (placement, ways, policy, write_policy, classify)
    ref_hits, ref_stats, ref_resident = set_assoc_oracle(cell)
    for batch_runs in ([batch_of(TRACE)], list(chunked(TRACE))):
        cache = build_set_assoc(cell, batch=True)
        assert cache.dispatch_strategy(batch_runs[0]) == \
            expected_set_assoc_kernel(placement, policy, kernel_path)
        hits = np.concatenate([cache.run(b) for b in batch_runs])
        np.testing.assert_array_equal(hits, ref_hits)
        assert stats_of(cache.stats) == ref_stats
        assert sorted(cache.resident_blocks()) == ref_resident


def test_wide_fully_associative_three_paths(kernel_path):
    """64 ways in one set, every policy, against the scalar model."""
    for policy in REPLACEMENT_POLICIES:
        cell = ("fully-associative", 64, policy,
                WritePolicy.WRITE_BACK_ALLOCATE, False)
        ref_hits, ref_stats, ref_resident = set_assoc_oracle(cell)
        cache = build_set_assoc(cell, batch=True)
        np.testing.assert_array_equal(cache.run(batch_of(TRACE)), ref_hits)
        assert stats_of(cache.stats) == ref_stats
        assert sorted(cache.resident_blocks()) == ref_resident


#: (first run, run after the point operation).
ROUTES = [("compiled", "compiled"), ("compiled", "fallback"),
          ("fallback", "compiled")]


@pytest.mark.parametrize("route",
                         ROUTES + [("compiled", "fallback", "compiled")],
                         ids="-then-".join)
@pytest.mark.parametrize("operation", ["invalidate"])
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("placement, ways", [("conventional", 4),
                                             ("skewed", 2)])
def test_set_assoc_handoff(placement, ways, policy, operation, route,
                           monkeypatch, compiled_tier):
    """Runs on either kernel tier, with Python point operations between
    them, continue bit-exactly from the one set of state arrays — in both
    directions on one cache for the three-run route."""
    cell = (placement, ways, policy, WritePolicy.WRITE_BACK_ALLOCATE, False)
    scalar = build_set_assoc(cell, batch=False)
    cache = build_set_assoc(cell, batch=True)
    starts = (0, 900, 1100)[:len(route)] + (len(TRACE),)
    for run, path in enumerate(route):
        if run:
            targets = sorted(scalar.resident_blocks())[::3] + [10**9]
            for block in targets:
                assert cache.contains_block(block) == \
                    scalar.contains_block(block)
                assert cache.invalidate_block(block) == \
                    scalar.invalidate_block(block)
            assert sorted(cache.resident_blocks()) == sorted(
                scalar.resident_blocks())
        use_path(path, monkeypatch)
        part = TRACE[starts[run]:starts[run + 1]]
        np.testing.assert_array_equal(cache.run(batch_of(part)),
                                      scalar_hits(scalar, part))
    assert stats_of(cache.stats) == stats_of(scalar.stats)
    assert sorted(cache.resident_blocks()) == sorted(scalar.resident_blocks())


def test_flush_between_compiled_runs(compiled_tier):
    """A flushed cache forgets its blocks and policy state but keeps its
    clock, on the compiled tier as on the scalar model."""
    cell = ("skewed", 2, "lru", WritePolicy.WRITE_BACK_ALLOCATE, False)
    scalar = build_set_assoc(cell, batch=False)
    cache = build_set_assoc(cell, batch=True)
    for part in (TRACE[:1000], TRACE[1000:]):
        np.testing.assert_array_equal(cache.run(batch_of(part)),
                                      scalar_hits(scalar, part))
        scalar.flush()
        cache.flush()
    assert cache.resident_blocks() == scalar.resident_blocks() == []
    assert stats_of(cache.stats) == stats_of(scalar.stats)


# --------------------------------------------------------------------- #
# victim caches: main ways x policy (x placement)
# --------------------------------------------------------------------- #

def build_victim(scheme, ways, policy, batch):
    index = make_index_function(scheme, CACHE_BYTES // (BLOCK * ways),
                                ways=ways, address_bits=19)
    cls = BatchVictimCache if batch else VictimCache
    return cls(CACHE_BYTES, BLOCK, ways=ways, victim_entries=4,
               index_function=index, replacement=policy)


def victim_outcome(cache):
    if isinstance(cache, VictimCache):
        resident = (cache._main.resident_blocks()
                    + cache._victim.resident_blocks())
    else:
        resident = cache.resident_blocks()
    return (stats_of(cache.stats), cache.main_hits, cache.victim_hits,
            sorted(resident))


@lru_cache(maxsize=None)
def victim_oracle(scheme, ways, policy):
    scalar = build_victim(scheme, ways, policy, batch=False)
    return scalar_hits(scalar, TRACE), victim_outcome(scalar)


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("ways", [1, 2, 4])
@pytest.mark.parametrize("scheme", ["a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk"])
def test_victim_three_paths(scheme, ways, policy, kernel_path):
    ref_hits, ref_outcome = victim_oracle(scheme, ways, policy)
    expected = (f"compiled-victim-{policy}" if kernel_path == "compiled"
                else "victim-generic-kernel")
    for batch_runs in ([batch_of(TRACE)], list(chunked(TRACE))):
        cache = build_victim(scheme, ways, policy, batch=True)
        assert cache.dispatch_strategy(batch_runs[0]) == expected
        hits = np.concatenate([cache.run(b) for b in batch_runs])
        np.testing.assert_array_equal(hits, ref_hits)
        assert victim_outcome(cache) == ref_outcome


@pytest.mark.parametrize("route", ROUTES, ids="-then-".join)
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_victim_handoff(policy, route, monkeypatch, compiled_tier):
    """Main cache, buffer, both clocks and both policies' state survive a
    change of kernel tier, with a Python read of the state in between."""
    ref_hits, ref_outcome = victim_oracle("a2", 2, policy)
    cache = build_victim("a2", 2, policy, batch=True)
    use_path(route[0], monkeypatch)
    first = cache.run(batch_of(TRACE[:900]))
    cache.resident_blocks()
    use_path(route[1], monkeypatch)
    second = cache.run(batch_of(TRACE[900:]))
    np.testing.assert_array_equal(np.concatenate([first, second]), ref_hits)
    assert victim_outcome(cache) == ref_outcome


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_victim_flush(policy, kernel_path):
    """A flushed victim cache forgets both structures and both policies'
    state, as the scalar model does."""
    scalar = build_victim("a2", 2, policy, batch=False)
    cache = build_victim("a2", 2, policy, batch=True)
    for part in (TRACE[:900], TRACE[900:]):
        np.testing.assert_array_equal(cache.run(batch_of(part)),
                                      scalar_hits(scalar, part))
        scalar.flush()
        cache.flush()
    assert victim_outcome(cache) == victim_outcome(scalar)


# --------------------------------------------------------------------- #
# column-associative: swap x secondary index x classifier
# --------------------------------------------------------------------- #

def build_column(swap, secondary, classify, batch):
    frames = CACHE_BYTES // BLOCK
    index = BitSelectIndexing(frames) if secondary == "bit-select" else None
    cls = BatchColumnAssociativeCache if batch else ColumnAssociativeCache
    return cls(CACHE_BYTES, BLOCK, secondary_index=index,
               swap_on_rehash_hit=swap, classify_misses=classify,
               address_bits=19)


def column_outcome(cache):
    if isinstance(cache, ColumnAssociativeCache):
        resident = [f.block_number for f in cache._frames if f.valid]
    else:
        resident = cache.resident_blocks()
    return (stats_of(cache.stats), cache.first_probe_hits,
            cache.second_probe_hits, cache.total_probes, sorted(resident))


@lru_cache(maxsize=None)
def column_oracle(swap, secondary, classify):
    scalar = build_column(swap, secondary, classify, batch=False)
    return scalar_hits(scalar, TRACE), column_outcome(scalar)


@pytest.mark.parametrize("classify", [False, True], ids=["plain", "3c"])
@pytest.mark.parametrize("secondary", ["bit-select", "ipoly"])
@pytest.mark.parametrize("swap", [True, False], ids=["swap", "no-swap"])
def test_column_three_paths(swap, secondary, classify, kernel_path):
    ref_hits, ref_outcome = column_oracle(swap, secondary, classify)
    expected = ("compiled-column-associative" if kernel_path == "compiled"
                else "column-associative")
    for batch_runs in ([batch_of(TRACE)], list(chunked(TRACE))):
        cache = build_column(swap, secondary, classify, batch=True)
        assert cache.dispatch_strategy(batch_runs[0]) == expected
        hits = np.concatenate([cache.run(b) for b in batch_runs])
        np.testing.assert_array_equal(hits, ref_hits)
        assert column_outcome(cache) == ref_outcome


@pytest.mark.parametrize("route", ROUTES, ids="-then-".join)
def test_column_handoff(route, monkeypatch, compiled_tier):
    """The per-frame secondary indices survive a change of kernel tier,
    with a Python read of the state in between."""
    ref_hits, ref_outcome = column_oracle(True, "ipoly", False)
    cache = build_column(True, "ipoly", False, batch=True)
    use_path(route[0], monkeypatch)
    first = cache.run(batch_of(TRACE[:900]))
    cache.resident_blocks()
    use_path(route[1], monkeypatch)
    second = cache.run(batch_of(TRACE[900:]))
    np.testing.assert_array_equal(np.concatenate([first, second]), ref_hits)
    assert column_outcome(cache) == ref_outcome


# --------------------------------------------------------------------- #
# caches stay picklable; malformed arguments never reach C
# --------------------------------------------------------------------- #

#: (family, state when pickled); the column cache has no ``flush``.
PICKLE_CASES = [(family, moment)
                for family in ("set-assoc", "victim", "column")
                for moment in ("fresh", "mid-stream", "flushed")
                if (family, moment) != ("column", "flushed")]


@pytest.mark.parametrize("family, moment", PICKLE_CASES,
                         ids=["-".join(case) for case in PICKLE_CASES])
def test_caches_pickle_and_resume(family, moment, kernel_path):
    """Sweep workers and checkpoints pickle caches: a fresh cache, one a
    kernel has run and a flushed one carry no ctypes object and resume
    bit-exactly."""
    build = {
        "set-assoc": lambda: build_set_assoc(
            ("skewed", 2, "plru", WritePolicy.WRITE_BACK_ALLOCATE, True),
            batch=True),
        "victim": lambda: build_victim("a2", 2, "random", batch=True),
        "column": lambda: build_column(True, "ipoly", False, batch=True),
    }[family]
    cache = build()
    if moment != "fresh":
        cache.run(batch_of(TRACE[:900]))
    if moment == "flushed":
        cache.flush()
    clone = pickle.loads(pickle.dumps(cache))
    rest = batch_of(TRACE[900:])
    np.testing.assert_array_equal(clone.run(rest), cache.run(rest))
    assert stats_of(clone.stats) == stats_of(cache.stats)


def _set_assoc_args(n=8, ways=2, num_sets=4):
    """``n`` accesses to blocks ``0 .. n - 1`` at block shift 0."""
    return dict(
        addresses=np.arange(n, dtype=np.uint64),
        writes=np.zeros(n, dtype=np.uint8), shift=0,
        place=placement(BitSelectIndexing(num_sets), ways), write_back=True,
        policy="plru",
        tags=np.full((ways, num_sets), -1, dtype=np.int64),
        dirty=np.zeros((ways, num_sets), dtype=np.uint8),
        stamps=np.zeros((ways, num_sets), dtype=np.int64),
        bits=np.zeros((num_sets, 1), dtype=np.uint8), seed=1,
        io=np.zeros(2, dtype=np.int64))


def _place(images):
    """A placement over a raw image array, unchecked until a kernel call."""
    place = placement(BitSelectIndexing(4), 1)
    place.images = images
    return place


#: Address arguments every cache kernel rejects, as (key, mutation).
BAD_ADDRESS_ARGUMENTS = {
    "int64 addresses": ("addresses",
                        lambda a: a["addresses"].astype(np.int64)),
    "strided addresses": ("addresses",
                          lambda a: np.arange(16, dtype=np.uint64)[::2]),
    "short writes": ("writes", lambda a: a["writes"][:-1].copy()),
    "bool writes": ("writes", lambda a: a["writes"].astype(bool)),
    "negative shift": ("shift", lambda a: -1),
    "shift past 63": ("shift", lambda a: 64),
    "float shift": ("shift", lambda a: 5.0),
    "address 2**63 at shift 0": ("addresses", lambda a: a["addresses"]
                                 | np.uint64(2**63)),
}

BAD_ARGUMENTS = {
    **BAD_ADDRESS_ARGUMENTS,
    "images not a table": ("place", lambda a: _place(
        np.array([1, 2], dtype=np.int64))),
    "image == num_sets": ("place", lambda a: _place(
        np.array([[1, 4]], dtype=np.int64))),
    "negative image": ("place", lambda a: _place(
        np.array([[1, -1]], dtype=np.int64))),
    "images past 64 bits": ("place", lambda a: _place(
        np.zeros((1, 65), dtype=np.int64))),
    "three functions for two ways": ("place", lambda a: placement(
        make_index_function("a2-Hx-Sk", 4), 3)),
    "no placement": ("place", lambda a: None),
    "tags of the wrong shape": ("tags", lambda a: a["tags"].T.copy()),
    "read-only tags": ("tags", lambda a: _read_only(a["tags"])),
    "stamps missing": ("stamps", lambda a: None),
    "plru bits of the wrong shape": (
        "bits", lambda a: np.zeros((4, 2), dtype=np.uint8)),
    "short io": ("io", lambda a: np.zeros(1, dtype=np.int64)),
    "unknown policy": ("policy", lambda a: "mru"),
}


def _read_only(array):
    array = array.copy()
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_malformed_arguments_raise_before_the_call(case, compiled_tier):
    args = _set_assoc_args()
    key, mutate = BAD_ARGUMENTS[case]
    args[key] = mutate(args)
    with pytest.raises(ValueError):
        ckernels.run_set_assoc(**args)


def test_addresses_past_2_63_run_at_a_positive_shift(kernel_path):
    """Only shift 0 keeps an address at or past 2**63 a negative block:
    at shift 1 it is block 2**62 and up, on both tiers."""
    from repro.engine import pykernels

    kernels = ckernels if ckernels.available() else pykernels
    args = _set_assoc_args()
    args.update(addresses=(args["addresses"] << np.uint64(1))
                | np.uint64(2**63), shift=1)
    hits, counts = kernels.run_set_assoc(**args)
    assert not hits.any() and counts.tolist()[:3] == [8, 0, 8]
    assert sorted(args["tags"].reshape(-1).tolist()) == [
        2**62 + b for b in range(8)]


def test_linear_images_bound_every_xor(compiled_tier):
    """Over a non-power-of-two table each image can be in range while an
    XOR of two is not: the OR of a function's images must be."""
    args = _set_assoc_args()
    args.update(place=_place(np.array([[1, 4]], dtype=np.int64)),
                tags=np.full((2, 5), -1, dtype=np.int64),
                dirty=np.zeros((2, 5), dtype=np.uint8),
                stamps=np.zeros((2, 5), dtype=np.int64),
                bits=np.zeros((5, 1), dtype=np.uint8))
    with pytest.raises(ValueError, match="placement images"):
        ckernels.run_set_assoc(**args)


def _column_args(n=4, frames=8):
    return dict(
        addresses=np.arange(n, dtype=np.uint64),
        writes=np.zeros(n, dtype=np.uint8), shift=0,
        place=Placement([way_function(BitSelectIndexing(frames), 0),
                         way_function(IPolyIndexing(frames), 0)]),
        swap=True, tags=np.full(frames, -1, dtype=np.int64),
        dirty=np.zeros(frames, dtype=np.uint8),
        sec_of=np.zeros(frames, dtype=np.int64))


BAD_COLUMN_ARGUMENTS = {
    "sec_of past the frames": ("sec_of", lambda a: np.full(8, 8, np.int64)),
    "secondary image past the frames": ("place", lambda a: Placement(
        [way_function(BitSelectIndexing(8), 0),
         way_function(BitSelectIndexing(16), 0)])),
    "no secondary": ("place", lambda a: placement(BitSelectIndexing(8), 1)),
    **BAD_ADDRESS_ARGUMENTS,
}


@pytest.mark.parametrize("case", sorted(BAD_COLUMN_ARGUMENTS))
def test_malformed_column_arguments_raise(case, compiled_tier):
    args = _column_args()
    key, mutate = BAD_COLUMN_ARGUMENTS[case]
    args[key] = mutate(args)
    with pytest.raises(ValueError):
        ckernels.run_column(**args)


def _victim_args(n=8, num_sets=4, entries=2):
    return dict(
        addresses=np.arange(n, dtype=np.uint64),
        writes=np.zeros(n, dtype=np.uint8), shift=0,
        place=placement(BitSelectIndexing(num_sets), 1), policy="lru",
        tags=np.full((1, num_sets), -1, dtype=np.int64),
        dirty=np.zeros((1, num_sets), dtype=np.uint8),
        stamps=np.zeros((1, num_sets), dtype=np.int64), bits=None, seed=1,
        vtags=np.full(entries, -1, dtype=np.int64),
        vdirty=np.zeros(entries, dtype=np.uint8),
        vstamps=np.zeros((entries, 1), dtype=np.int64), vbits=None, vseed=1,
        io=np.zeros(4, dtype=np.int64))


@pytest.mark.parametrize("case", sorted(BAD_ADDRESS_ARGUMENTS))
def test_malformed_victim_addresses_raise(case, compiled_tier):
    args = _victim_args()
    key, mutate = BAD_ADDRESS_ARGUMENTS[case]
    args[key] = mutate(args)
    with pytest.raises(ValueError):
        ckernels.run_victim(**args)


def test_well_formed_victim_arguments_run(compiled_tier):
    hits, counts = ckernels.run_victim(**_victim_args())
    assert not hits.any() and counts.tolist()[:3] == [8, 0, 8]


@pytest.mark.parametrize("case", ["negative shift", "shift past 63",
                                  "address 2**63 at shift 0"])
def test_python_tier_checks_shifts_like_c(case):
    """The Python kernels take shifts and addresses under the rules of C,
    so neither tier ever sees a negative block."""
    from repro.engine import pykernels

    key, mutate = BAD_ADDRESS_ARGUMENTS[case]
    for run, args in ((pykernels.run_set_assoc, _set_assoc_args()),
                      (pykernels.run_column, _column_args())):
        args[key] = mutate(args)
        with pytest.raises(ValueError, match="shift"):
            run(**args)


def test_well_formed_arguments_run(compiled_tier):
    args = _set_assoc_args()
    hits, counts = ckernels.run_set_assoc(**args)
    assert hits.dtype == bool and not hits.any()
    assert counts.tolist() == [8, 0, 8, 0, 0, 0, 0, 0, 0]
    assert args["io"].tolist() == [8, 0]


# --------------------------------------------------------------------- #
# building: failures degrade to the fallback, never to a traceback
# --------------------------------------------------------------------- #

#: Runs one cache of each family and prints the kernels and results.
PROBE = textwrap.dedent("""
    import json, sys, tempfile
    if len(sys.argv) > 1:
        tempfile.tempdir = sys.argv[1]
    import numpy as np
    from repro.cache.set_assoc import WritePolicy
    from repro.core.index import make_index_function
    from repro.engine import (AddressBatch, BatchColumnAssociativeCache,
                              BatchSetAssociativeCache, BatchVictimCache)
    rng = np.random.default_rng(5)
    batch = AddressBatch.from_arrays(
        rng.integers(0, 1 << 14, 4000).astype(np.uint64),
        rng.random(4000) < 0.3)
    caches = [
        BatchSetAssociativeCache(
            2048, 32, 2, replacement="plru",
            index_function=make_index_function("a2-Hp-Sk", 32, ways=2,
                                               address_bits=19),
            write_policy=WritePolicy.WRITE_BACK_ALLOCATE),
        BatchVictimCache(2048, 32, ways=1, victim_entries=4,
                         replacement="random"),
        BatchColumnAssociativeCache(2048, 32, address_bits=19),
    ]
    out = []
    for cache in caches:
        kernel = cache.dispatch_strategy(batch)
        hits = cache.run(batch)
        out.append([kernel, int(hits.sum()), cache.stats.misses,
                    cache.stats.evictions, cache.stats.writebacks])
    print(json.dumps(out))
""")

SRC = str(Path(repro.__file__).resolve().parent.parent)


def probe_env(cache_home, **extra):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home), PYTHONPATH=SRC)
    env.pop("CC", None)
    env.update(extra)
    return env


def spawn_probe(env, *args):
    return subprocess.Popen([sys.executable, "-c", PROBE, *map(str, args)],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def run_probe(env, *args):
    out, err = spawn_probe(env, *args).communicate(timeout=300)
    return json.loads(out), err


@pytest.fixture(scope="module")
def fallback_results(tmp_path_factory):
    """The probe's results on the Python fallback, for comparison."""
    out, _ = run_probe(probe_env(tmp_path_factory.mktemp("none"),
                                 CC="false"))
    return [row[1:] for row in out]


def warning_lines(stderr):
    return [line for line in stderr.splitlines() if "RuntimeWarning" in line]


def assert_compiled(out, err, expected):
    assert [row[0] for row in out] == [
        "compiled-set-assoc-plru", "compiled-victim-random",
        "compiled-column-associative"]
    assert [row[1:] for row in out] == expected
    assert warning_lines(err) == []


def assert_fallback(out, err, expected):
    assert [row[0] for row in out] == [
        "generic-policy-kernel", "victim-generic-kernel",
        "column-associative"]
    assert [row[1:] for row in out] == expected
    assert len(warning_lines(err)) == 1 == len(err.splitlines()), err


def library_files(cache_home):
    return sorted(p.name for p in (Path(cache_home) / "repro").iterdir())


def test_missing_compiler_falls_back_with_one_warning(tmp_path,
                                                      fallback_results):
    out, err = run_probe(probe_env(tmp_path, CC="false"))
    assert_fallback(out, err, fallback_results)
    assert "compiled cache kernels unavailable" in err


def test_compile_error_falls_back(tmp_path, fallback_results):
    out, err = run_probe(probe_env(tmp_path, CC="cc -DREPRO_NO_SUCH_FLAG "
                                              "-Wl,--no-such-linker-flag"))
    assert_fallback(out, err, fallback_results)


def test_unwritable_cache_dirs_fall_back(tmp_path, fallback_results):
    """Neither the cache home nor the temp dir can hold a directory (their
    parents are regular files, which stops root too)."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out, err = run_probe(probe_env(blocker / "cache"), blocker / "tmp")
    assert_fallback(out, err, fallback_results)
    assert "no writable cache directory" in err


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX owners")
@pytest.mark.parametrize("planted", ["world-writable", "other-user"])
def test_cache_dir_another_user_controls_is_never_used(
        planted, tmp_path, fallback_results, compiled_tier):
    """A ``repro-<uid>`` temp dir someone else could write holds a library
    with a matching digest: it must be neither loaded nor built into."""
    if planted == "other-user" and os.getuid() != 0:
        pytest.skip("only root can make a directory for another user")
    home = tmp_path / "home"
    assert_compiled(*run_probe(probe_env(home)), fallback_results)
    temp = tmp_path / "tmp"
    trap = temp / f"repro-{os.getuid()}"
    trap.mkdir(parents=True)
    for built in (home / "repro").iterdir():
        (trap / built.name).write_bytes(built.read_bytes())
    if planted == "world-writable":
        trap.chmod(0o777)
    else:
        for path in (trap, *trap.iterdir()):
            os.chown(path, 65534, 65534)
    before = sorted(p.name for p in trap.iterdir())

    blocker = tmp_path / "file"
    blocker.write_text("")
    out, err = run_probe(probe_env(blocker / "cache"), temp)
    assert_fallback(out, err, fallback_results)
    assert "not private to this user" in err
    assert sorted(p.name for p in trap.iterdir()) == before


def test_unwritable_cache_home_builds_in_the_temp_dir(tmp_path,
                                                      fallback_results,
                                                      compiled_tier):
    blocker = tmp_path / "file"
    blocker.write_text("")
    temp = tmp_path / "tmp"
    temp.mkdir()
    out, err = run_probe(probe_env(blocker / "cache"), temp)
    assert_compiled(out, err, fallback_results)
    built = [p.name for p in temp.glob("repro-*/*")]
    assert len([n for n in built if n.endswith(".so")]) == 1


def test_two_processes_build_at_once(tmp_path, fallback_results,
                                     compiled_tier):
    env = probe_env(tmp_path)
    procs = [spawn_probe(env) for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert_compiled(json.loads(out), err, fallback_results)
    names = library_files(tmp_path)
    assert len(names) == 2, names  # the library and its digest, no temp
    library = tmp_path / "repro" / names[0]
    assert hashlib.sha256(library.read_bytes()).hexdigest() == \
        (tmp_path / "repro" / names[1]).read_text()


def test_truncated_library_is_never_loaded(tmp_path, fallback_results,
                                           compiled_tier):
    """A damaged library on disk is rebuilt when a compiler is there, and
    skipped — with the fallback's results — when none is."""
    assert_compiled(*run_probe(probe_env(tmp_path)), fallback_results)
    library = next((tmp_path / "repro").glob("*.so"))
    whole = library.read_bytes()
    library.write_bytes(whole[:len(whole) // 2])

    # Same compiler name, but nothing on PATH can run it.
    out, err = run_probe(probe_env(tmp_path, PATH=str(tmp_path / "empty")))
    assert_fallback(out, err, fallback_results)
    assert len(library.read_bytes()) == len(whole) // 2

    assert_compiled(*run_probe(probe_env(tmp_path)), fallback_results)
    assert library.read_bytes() == whole
