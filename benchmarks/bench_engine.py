"""E-ENG: scalar-reference versus vectorized-engine throughput.

Drives a 1M-access strided trace through the batch engine and its first
``SCALAR_PREFIX_ACCESSES`` (50k) accesses through the scalar
:class:`~repro.cache.set_assoc.SetAssociativeCache` for each of the
paper's four index-function families, reporting accesses/second for both
paths and the per-access speedup.  Besides tracking the speedup, each
benchmark asserts *bit-exact* :class:`~repro.cache.stats.CacheStats`
agreement between the scalar model and a batch run over the same prefix,
so the performance claim can never drift away from correctness.

Every single-level row runs twice — on the compiled kernels
(:mod:`repro.engine.ckernels`) and on the Python fallback — and records the
absolute accesses/s of both next to the scalar model's, so neither tier can
regress behind a slower scalar model.  Every row is bounded on the kernels
``dispatch_strategy`` picks (the compiled tier wherever a C compiler is
available):

* LRU (``compiled-set-assoc-lru``; fallback ``generic-policy-kernel``, the
  one Python set-associative kernel of :mod:`repro.engine.pykernels`) must
  stay >= 10x over scalar on every index family;
* FIFO, random and PLRU (``compiled-set-assoc-*``; fallback
  ``generic-policy-kernel``) must stay >= 10x over scalar on the
  conventional two-way organisation and on skewed I-Poly placement, all
  four policies (``compiled-fully-assoc-*``, the one-set path; same
  fallback) on a fully-associative 256-way cache, and the victim kernels
  (``compiled-victim-*``; fallback ``victim-generic-kernel``, all four
  policies) must also stay >= 10x over scalar;
* the virtual-real hierarchy, both levels built from one
  ``OrganisationSpec`` per engine as the holes study builds them
  (``compiled-hierarchy``; fallback ``hierarchy-loop``), must stay >= 10x
  over the per-access scalar protocol (bit-exact per-level CacheStats,
  hole/alias counters and page faults).

The fallback columns are recorded on every row and bounded on none.

The ``holes-study`` row times ``run_holes_study`` at the CLI's defaults
on the vectorized engine (best of ``HOLES_STUDY_RUNS``), 36 hierarchy
runs of 40k accesses whose per-run set-up the 1M-access hierarchy row
hides; it reports accesses/s and the shares of translation, kernel,
per-run set-up and the rest, unbounded, and asserts the study equal to
the reference engine's on a prefix of every program.

The ``trace-synthesis`` rows time synthesising the 18 workload traces at
8k accesses each and at the run's trace length (1M by default) with
``workload_arrays``: the compiled ``repro_workload_trace``
(``compiled-workload-trace``), the NumPy block-draw tier
(``numpy-block-draws``) and the scalar ``build_trace`` on a prefix, all
three bit-exact on it; full-length runs assert the compiled side >= 5x
the NumPy tier on the long row.

The ``ooo-core`` row times Table 2 — the 18 synthetic programs on its six
machines — on the compiled out-of-order core (``compiled-ooo-core``) and
on the Python core (``python-ooo-core``), bit-exact, and asserts the
compiled side >= 10x in instructions/s.  The ``program-build`` row times
building those programs' core input columns at the CLI's 12,000
instructions: the compiled program builder (``compiled-program-builder``)
against the generator's instruction stream (``instruction-stream``),
column for column bit-exact, and asserts the builder >= 10x.

The trace is materialised once, outside the timed regions, and every
batch run shifts its addresses to blocks and computes its set indices in
the kernel, as a sweep task's run does.

Runs under pytest-benchmark, which records nothing::

    pytest benchmarks/bench_engine.py --benchmark-only

or standalone, printing a comparison table and appending a run record to the
machine-readable ``BENCH_engine.json`` trajectory artifact (one entry per
full invocation, newest last) so performance can be tracked across PRs
without overwriting history::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke

``--smoke`` runs a short trace through every kernel-dispatch path with
bit-exactness still asserted but the speedup bounds skipped, so CI can
catch dispatch regressions on every push without flaky wall-clock
assertions; smoke runs append their record, tagged ``"smoke": true``, to
the git-ignored ``BENCH_engine.smoke.json`` instead (the CI smoke job
uploads that file as a workflow artifact), so a throwaway run leaves the
committed trajectory alone.  Each row records the kernels that served it
on both tiers, straight from ``dispatch_strategy(batch)``; every run also replays the
short trace through the configurations no timed row runs
(``COVERAGE_CASES``: wide conventional caches and the 3C classifier) on
both tiers, bit-exact against the scalar model, and fails unless the rows
and those cases together reach every name in ``DISPATCH_NAMES`` — so a run
without the compiled kernels fails.  The ``one-set-path`` rows are the
margin of the Python tier's one-set path (``python-fully-assoc-*``) over
its generic loop (``generic-policy-kernel``, reached by patching
``ckernels.set_assoc_path``) on the 256-way fully-associative cache, every
policy, bit-exact, recorded unbounded: the specialised path stays only
while these rows show its margin.  The ``trace-io`` rows time chunked
ingestion of the trace from disk, packed v2 columns (``v2-read``) against
v1 records (``v1-records``), and assert v2 >= 5x on full-length runs.
``REPRO_BENCH_ENGINE_ACCESSES`` overrides the trace length (default 1M);
``REPRO_BENCH_ENGINE_JSON`` overrides the artifact path of either kind of
run (empty disables it).
"""

import argparse
import contextlib
import json
import os
import platform
import tempfile
import time

import numpy as np
import pytest

from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.cache.victim import VictimCache
from repro.cache.virtual_real import VirtualRealHierarchy
from repro.core.index import make_index_function
from repro.engine import (
    AddressBatch,
    BatchSetAssociativeCache,
    BatchVictimCache,
    BatchVirtualRealHierarchy,
    ckernels,
    pykernels,
)
from repro.experiments.config import (
    PAPER_HASH_BITS,
    PAPER_L1_8KB,
    CacheGeometry,
    OrganisationSpec,
)
from repro.memory.paging import PageTable
from repro.trace.batching import strided_vector_arrays
from repro.trace.record import MemoryAccess
from repro.trace.stream import iter_trace_chunks, write_trace_v2
from repro.trace.trace_io import write_binary_trace

#: The four families of Figure 1 / Table 2.
SCHEMES = ["a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk"]

#: Strided workload shape: 512 elements spaced 67 elements apart sweeps a
#: footprint comparable to the 8 KB cache, so every family sees a mix of
#: hits, conflict misses and evictions rather than a degenerate all-hit loop.
ELEMENTS = 512
STRIDE = 67

#: Minimum vectorized-over-scalar throughput ratio for the LRU fast paths.
REQUIRED_SPEEDUP = 10.0

#: Minimum ratio for the FIFO/random/PLRU rows (conventional two-way,
#: skewed and fully-associative placement) and for the victim-cache rows
#: (same bar as LRU).
REQUIRED_SPEEDUP_POLICY = 10.0

#: Accesses of the one-set-path rows: the 256-way fully-associative cache
#: on the Python tier, whose generic loop (linear in the ways) is its
#: slowest shape.
ONE_SET_ACCESSES = 200_000

#: Instructions per program of the out-of-order core section, which runs
#: Table 2 — the 18 synthetic programs on its six machines — on the
#: compiled core and on the Python core.
OOO_INSTRUCTIONS = 4_000

#: Minimum compiled-over-Python-core instructions/s ratio.
REQUIRED_SPEEDUP_OOO = 10.0

#: Instructions per program of the program-build section (the CLI's
#: Table 2 length), which builds the 18 programs' core input columns.
PROGRAM_BUILD_INSTRUCTIONS = 12_000

#: Minimum compiled-builder-over-generator instructions/s ratio (measured
#: ~25x on a 2-CPU x86_64 host).
REQUIRED_SPEEDUP_PROGRAM_BUILD = 10.0

#: Accesses the scalar oracle replays: the first ones of each row's trace.
#: The batch side is timed on the whole trace and checked bit-exact against
#: the oracle on this prefix; speedups are per access.  (Replaying 1M
#: accesses through the 256-way scalar cache alone took ~250 s a row.)
SCALAR_PREFIX_ACCESSES = 50_000

#: Below this trace length the constant batch-setup overhead dominates and
#: wall-clock ratios are noise, so the speedup assertions are skipped (the
#: bit-exactness assertions always run).
MIN_ACCESSES_FOR_SPEEDUP_CHECK = 200_000

#: Trace length of ``--smoke`` runs: big enough to leave the trivial-batch
#: regime, small enough to finish in seconds on a shared runner.
SMOKE_ACCESSES = 60_000

#: Instructions per program of ``--smoke`` runs' out-of-order core section.
SMOKE_OOO_INSTRUCTIONS = 500

#: Trajectory length bound of the JSON artifact (newest runs kept).
MAX_TRAJECTORY_RUNS = 50


def _env_int(name, default):
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


BENCH_ENGINE_ACCESSES = _env_int("REPRO_BENCH_ENGINE_ACCESSES", 1_000_000)

#: The committed trajectory full runs append to, and the git-ignored file
#: ``--smoke`` runs append to instead, so a throwaway run leaves the tree
#: clean.  ``REPRO_BENCH_ENGINE_JSON`` overrides both (empty disables).
BENCH_ENGINE_JSON = "BENCH_engine.json"
SMOKE_JSON = "BENCH_engine.smoke.json"

#: Non-LRU replacement policies benchmarked per organisation kind.
POLICY_ROWS = ["fifo", "random", "plru"]

#: Every name the ``dispatch_strategy`` of ``BatchSetAssociativeCache``,
#: ``BatchVictimCache``, the batch hierarchies and ``OutOfOrderProcessor``
#: can return, on both kernel tiers.
DISPATCH_NAMES = frozenset(
    ["generic-policy-kernel", "victim-generic-kernel"]
    + [f"compiled-set-assoc-{policy}" for policy in ["lru"] + POLICY_ROWS]
    + [f"compiled-fully-assoc-{policy}" for policy in ["lru"] + POLICY_ROWS]
    + [f"python-fully-assoc-{policy}" for policy in ["lru"] + POLICY_ROWS]
    + [f"compiled-victim-{policy}" for policy in ["lru"] + POLICY_ROWS]
    + ["compiled-hierarchy", "hierarchy-loop"]
    + ["compiled-ooo-core", "python-ooo-core"])

#: Fully-associative rows: the whole 8 KB cache as one 256-way set.
FULLY_ASSOCIATIVE_WAYS = PAPER_L1_8KB.size_bytes // PAPER_L1_8KB.block_size

#: Conventional ``(ways, replacement, classify_misses)`` configurations no
#: timed row runs: four-way caches and classifying caches (whose 3C shadow
#: replays over the compiled kernel's hit mask), one of them one-set.
#: They are coverage, not throughput claims, so they are checked bit-exact
#: on the ``SMOKE_ACCESSES`` trace on both tiers and not timed.
COVERAGE_CASES = ([(4, policy, False) for policy in POLICY_ROWS]
                  + [(2, "fifo", True), (FULLY_ASSOCIATIVE_WAYS, "lru", True)])

#: The virtual-real row: a 16 KB skewed I-Poly L1 over a 1 MB conventional
#: write-back L2 — the Section 3 deployment shape — behind a scatter page
#: table.  At this L1 capacity the strided trace misses ~38% of the time,
#: so L2 traffic is busy without being degenerate.
VR_L1 = OrganisationSpec(scheme="a2-Hp-Sk",
                         geometry=CacheGeometry(16 * 1024, block_size=32,
                                                ways=2))
VR_L2 = OrganisationSpec(scheme="a2",
                         geometry=CacheGeometry(1 << 20, block_size=32,
                                                ways=2),
                         write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
VR_PAGE_SIZE = 4096
VR_SEED = 999

#: Timed runs of the holes-study row (the best is reported), and the
#: accesses per program of the prefix it checks against the reference
#: engine.
HOLES_STUDY_RUNS = 5
HOLES_STUDY_CHECK_ACCESSES = 2_000

#: Accesses per program of the trace-synthesis section's short row (the
#: miss-ratio and holes studies synthesise 8k-40k); its long row takes the
#: run's trace length.
SYNTHESIS_SHORT_ACCESSES = 8_000

#: Minimum compiled-over-NumPy-tier accesses/s ratio of the long
#: trace-synthesis row (measured ~7x on a 2-CPU x86_64 host).
REQUIRED_SPEEDUP_SYNTHESIS = 5.0


def _make_vr(engine):
    """A cold virtual-real hierarchy on ``engine`` and its page table, both
    levels built from their ``OrganisationSpec`` as the holes study builds
    them; every call is seeded identically."""
    page_table = PageTable(page_size=VR_PAGE_SIZE, allocation="scatter",
                           seed=VR_SEED)
    l1, l2 = VR_L1.build(engine), VR_L2.build(engine)
    if engine == "vectorized":
        return BatchVirtualRealHierarchy(l1, l2, page_table), page_table
    return VirtualRealHierarchy(l1, l2, translate=page_table.translate,
                                page_size=VR_PAGE_SIZE), page_table


def _build_trace(accesses):
    sweeps = max(1, accesses // ELEMENTS)
    addresses, writes = strided_vector_arrays(STRIDE, elements=ELEMENTS,
                                              sweeps=sweeps)
    return AddressBatch.from_arrays(addresses, writes)


def _make_caches(scheme, replacement=None, ways=PAPER_L1_8KB.ways,
                 classify=False):
    geometry = PAPER_L1_8KB
    num_sets = geometry.size_bytes // (geometry.block_size * ways)

    def build(cls):
        index_fn = make_index_function(scheme, num_sets=num_sets, ways=ways,
                                       address_bits=PAPER_HASH_BITS)
        return cls(geometry.size_bytes, geometry.block_size, ways,
                   index_function=index_fn, replacement=replacement,
                   classify_misses=classify)

    return build(SetAssociativeCache), build(BatchSetAssociativeCache)


def _stats_tuple(stats):
    return (stats.loads, stats.stores, stats.load_misses, stats.store_misses,
            stats.evictions, stats.writebacks, tuple(sorted(stats.miss_kinds.items())))


def _run_scalar(scalar, batch_trace):
    access = scalar.access
    for address in batch_trace.addresses.tolist():
        access(address, False)


@contextlib.contextmanager
def _patched(owner, name, value):
    """Set ``owner.name`` to ``value`` for the duration."""
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def _python_kernels():
    """Run the batch caches on their Python fallback kernels."""
    return _patched(ckernels, "available", lambda: False)


def _oracle_prefix(trace):
    """The first ``SCALAR_PREFIX_ACCESSES`` accesses of ``trace``: what the
    scalar oracle replays."""
    return trace.slice(0, SCALAR_PREFIX_ACCESSES)


def _time_tiers(build, trace, prefix, check):
    """Time ``build()``'s batch engine on ``trace`` on the compiled kernels,
    then on the Python fallback; after each, ``check(engine)`` asserts
    bit-exactness against the scalar model of a fresh ``build()`` run over
    the scalar oracle's ``prefix``.  Returns ``[(kernel, seconds), ...]``
    per tier."""
    timings = []
    for tier in (contextlib.nullcontext, _python_kernels):
        with tier():
            engine = build()
            kernel = engine.dispatch_strategy(trace)
            start = time.perf_counter()
            engine.run(trace)
            seconds = time.perf_counter() - start
            twin = build()
            twin.run(prefix)
        check(twin)
        timings.append((kernel, seconds))
    return timings


def _speedup(scalar_seconds, scalar_accesses, seconds, accesses):
    """Per-access speedup of a batch run over the scalar oracle."""
    return (scalar_seconds / scalar_accesses) / (seconds / accesses)


def _row(scheme, replacement, n, scalar_n, scalar_seconds, timings,
         miss_ratio):
    (kernel, seconds), (fallback_kernel, fallback_seconds) = timings
    return {
        "scheme": scheme,
        "replacement": replacement or "lru",
        "kernel": kernel,
        "fallback_kernel": fallback_kernel,
        "accesses": n,
        "scalar_accesses": scalar_n,
        "scalar_aps": scalar_n / scalar_seconds,
        "vector_aps": n / seconds,
        "fallback_aps": n / fallback_seconds,
        "speedup": _speedup(scalar_seconds, scalar_n, seconds, n),
        "fallback_speedup": _speedup(scalar_seconds, scalar_n,
                                     fallback_seconds, n),
        "miss_ratio": miss_ratio,
    }


def _time_scalar(scalar, trace):
    start = time.perf_counter()
    _run_scalar(scalar, trace)
    return time.perf_counter() - start


def compare_engines(scheme, accesses=BENCH_ENGINE_ACCESSES, replacement=None,
                    ways=PAPER_L1_8KB.ways, label=None):
    """Time the scalar model on the oracle prefix and both batch tiers on
    the whole trace."""
    trace = _build_trace(accesses)
    prefix = _oracle_prefix(trace)
    scalar, _ = _make_caches(scheme, replacement=replacement, ways=ways)
    scalar_seconds = _time_scalar(scalar, prefix)

    def check(batch):
        assert _stats_tuple(scalar.stats) == _stats_tuple(batch.stats), (
            f"CacheStats diverged between engines for {scheme}")

    timings = _time_tiers(
        lambda: _make_caches(scheme, replacement=replacement, ways=ways)[1],
        trace, prefix, check)
    return _row(label or scheme, replacement, len(trace), len(prefix),
                scalar_seconds, timings, scalar.stats.miss_ratio)


def compare_victim_kernel(accesses=BENCH_ENGINE_ACCESSES, replacement=None):
    """Time the scalar victim cache against both BatchVictimCache tiers."""
    trace = _build_trace(accesses)
    prefix = _oracle_prefix(trace)
    geometry = PAPER_L1_8KB
    scalar = VictimCache(geometry.size_bytes, geometry.block_size,
                         ways=1, victim_entries=8, replacement=replacement)
    scalar_seconds = _time_scalar(scalar, prefix)

    def check(batch):
        assert scalar.stats.load_misses == batch.stats.load_misses, (
            "victim-cache kernels diverged")
        assert scalar.victim_hits == batch.victim_hits
        assert scalar.main_hits == batch.main_hits

    timings = _time_tiers(
        lambda: BatchVictimCache(geometry.size_bytes, geometry.block_size,
                                 ways=1, victim_entries=8,
                                 replacement=replacement),
        trace, prefix, check)
    return _row("victim-direct+8", replacement, len(trace), len(prefix),
                scalar_seconds, timings, scalar.stats.miss_ratio)


def compare_virtual_real_engines(accesses=BENCH_ENGINE_ACCESSES):
    """Time the virtual-real hierarchy on both engines."""
    trace = _build_trace(accesses)
    prefix = _oracle_prefix(trace)
    scalar, table = _make_vr("reference")
    scalar_seconds = _time_scalar(scalar, prefix)
    tables = {}

    def build():
        batch, tables["twin"] = _make_vr("vectorized")
        return batch

    def check(batch):
        assert _stats_tuple(scalar.l1.stats) == _stats_tuple(
            batch.l1.stats), (
            "L1 CacheStats diverged between virtual-real engines")
        assert _stats_tuple(scalar.l2.stats) == _stats_tuple(
            batch.l2.stats), (
            "L2 CacheStats diverged between virtual-real engines")
        assert (scalar.holes_created, scalar.l2_misses_causing_holes,
                scalar.alias_invalidations) == (
                batch.holes_created, batch.l2_misses_causing_holes,
                batch.alias_invalidations), (
            "hole accounting diverged between virtual-real engines")
        assert table.page_faults == tables["twin"].page_faults, (
            "page-fault counts diverged between virtual-real engines")

    timings = _time_tiers(build, trace, prefix, check)
    return _row("virtual-real-16K/1M", "lru", len(trace), len(prefix),
                scalar_seconds, timings, scalar.l1.stats.miss_ratio)


@contextlib.contextmanager
def _timed(owner, name, totals, key):
    """Add the seconds spent in ``owner.name`` to ``totals[key]``."""
    function = getattr(owner, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - start

    setattr(owner, name, timed)
    try:
        yield
    finally:
        setattr(owner, name, function)


def compare_holes_study(runs=HOLES_STUDY_RUNS):
    """Time ``run_holes_study`` at the CLI's defaults on the vectorized
    engine, best of ``runs``: many short hierarchy runs, so per-run set-up
    counts, unlike in the 1M-access hierarchy rows.  One more run is split
    into trace synthesis (``cached_workload_arrays``), translation
    (``batch_page_frames``), the kernel (``run_hierarchy``), the rest of
    each hierarchy ``run`` (set-up) and everything else (cache builds).
    The study must agree exactly with the reference engine on every
    program's first ``HOLES_STUDY_CHECK_ACCESSES`` accesses."""
    from repro.engine import hierarchy_vec
    from repro.experiments import grid, holes_study
    from repro.experiments.cli import build_parser

    cli = build_parser().parse_args(["holes"])
    l2_sizes = [kb * 1024 for kb in cli.l2_kilobytes]

    def study(accesses=cli.accesses, engine="vectorized"):
        return holes_study.run_holes_study(l2_sizes=l2_sizes,
                                           accesses=accesses, seed=cli.seed,
                                           engine=engine)

    def outcome(result):
        return (result.per_program_hole_rate, result.l2_misses,
                result.simulated_hole_rate)

    reference, vectorized = (
        outcome(study(HOLES_STUDY_CHECK_ACCESSES, engine))
        for engine in ("reference", "vectorized"))
    assert reference == vectorized, (
        "holes study diverged between the reference and vectorized engines")
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        result = study()
        seconds.append(time.perf_counter() - start)
    totals = dict.fromkeys(("synthesis", "translation", "kernel", "run"),
                           0.0)
    kernels = ckernels if ckernels.available() else pykernels
    with _timed(grid, "cached_workload_arrays", totals, "synthesis"), \
            _timed(hierarchy_vec, "batch_page_frames", totals,
                   "translation"), \
            _timed(kernels, "run_hierarchy", totals, "kernel"), \
            _timed(hierarchy_vec.BatchVirtualRealHierarchy, "run", totals,
                   "run"):
        start = time.perf_counter()
        study()
        traced = time.perf_counter() - start
    setup = totals["run"] - totals["translation"] - totals["kernel"]
    accesses = result.accesses_per_program * sum(
        len(rates) for rates in result.per_program_hole_rate.values())
    return {"kernel": ("compiled-hierarchy" if kernels is ckernels
                       else "hierarchy-loop"),
            "runs": runs, "accesses": accesses, "seconds": min(seconds),
            "aps": accesses / min(seconds),
            "synthesis_share": totals["synthesis"] / traced,
            "translation_share": totals["translation"] / traced,
            "kernel_share": totals["kernel"] / traced,
            "setup_share": setup / traced,
            "other_share": 1 - (totals["synthesis"] + totals["run"]) / traced}


def check_dispatch_coverage(rows):
    """Replay the smoke-length trace through every ``COVERAGE_CASES``
    configuration on both kernel tiers, bit-exact against the scalar model;
    returns the kernels they ran.  Fails unless ``rows`` (the out-of-order
    core's among them) and those kernels reach every name in
    ``DISPATCH_NAMES``."""
    trace = _build_trace(SMOKE_ACCESSES)
    covered = []
    for ways, replacement, classify in COVERAGE_CASES:
        scalar, _ = _make_caches("a2", replacement, ways=ways,
                                 classify=classify)
        _run_scalar(scalar, trace)

        def check(batch):
            assert _stats_tuple(scalar.stats) == _stats_tuple(batch.stats), (
                f"CacheStats diverged between engines on "
                f"{batch.dispatch_strategy(trace)}")

        timings = _time_tiers(
            lambda: _make_caches("a2", replacement, ways=ways,
                                 classify=classify)[1], trace, trace, check)
        covered.extend(kernel for kernel, _ in timings)
    reached = {row[key] for row in rows for key in ("kernel",
                                                    "fallback_kernel")}
    missing = DISPATCH_NAMES - reached - set(covered)
    assert not missing, f"no bench row reaches {sorted(missing)}"
    return covered


def compare_one_set_path(replacement, accesses=ONE_SET_ACCESSES):
    """Time the 256-way fully-associative cache on the Python tier's
    one-set path and on its generic loop, bit-exact (hits, counters and
    state): the margin that keeps the specialised path."""
    trace = _build_trace(accesses)
    seconds, kernels, outcomes = {}, {}, {}
    for path in ("fully-assoc", "set-assoc"):
        with _python_kernels(), _patched(ckernels, "set_assoc_path",
                                         lambda num_sets, path=path: path):
            cache = _make_caches("a2", replacement,
                                 ways=FULLY_ASSOCIATIVE_WAYS)[1]
            kernels[path] = cache.dispatch_strategy(trace)
            start = time.perf_counter()
            hits = cache.run(trace)
            seconds[path] = time.perf_counter() - start
        tags, dirty, policy = cache._arrays()
        outcomes[path] = (hits.tolist(), _stats_tuple(cache.stats),
                          tags.tolist(), dirty.tolist(),
                          None if policy.stamps is None
                          else policy.stamps.tolist(),
                          None if policy.bits is None
                          else policy.bits.tolist(),
                          cache._clock, policy.draws)
    assert outcomes["fully-assoc"] == outcomes["set-assoc"], (
        f"{kernels['fully-assoc']} diverged from {kernels['set-assoc']}")
    return {"replacement": replacement, "ways": FULLY_ASSOCIATIVE_WAYS,
            "accesses": len(trace), "kernel": kernels["fully-assoc"],
            "generic_kernel": kernels["set-assoc"],
            "seconds": seconds["fully-assoc"],
            "generic_seconds": seconds["set-assoc"],
            "speedup": seconds["set-assoc"] / seconds["fully-assoc"]}


def compare_trace_synthesis(accesses):
    """Time synthesising the 18 workload traces, ``accesses`` each, with
    ``workload_arrays``: one compiled ``repro_workload_trace`` call per
    program and the NumPy block-draw tier, on the whole traces, and the
    scalar ``to_arrays(build_trace(...))`` on their first
    ``SCALAR_PREFIX_ACCESSES``.  Both tiers must equal the scalar columns
    on that prefix, bit for bit."""
    from repro.trace.batching import to_arrays
    from repro.trace.workloads import (
        build_trace,
        workload_arrays,
        workload_names,
    )

    names = workload_names()
    prefix = min(accesses, SCALAR_PREFIX_ACCESSES)
    timings, heads = [], []
    for label, tier in (("compiled-workload-trace", contextlib.nullcontext),
                        ("numpy-block-draws", _python_kernels)):
        seconds, head = 0.0, []
        with tier():
            for name in names:
                start = time.perf_counter()
                columns = workload_arrays(name, accesses)
                seconds += time.perf_counter() - start
                head.append([column[:prefix].copy() for column in columns])
        timings.append((label, seconds))
        heads.append(head)
    scalar_seconds = 0.0
    for name, *tiers in zip(names, *heads):
        start = time.perf_counter()
        expected = to_arrays(build_trace(name, prefix))
        scalar_seconds += time.perf_counter() - start
        for (label, _), got in zip(timings, tiers):
            assert all(np.array_equal(g, e) for g, e in zip(got, expected)), (
                f"{name}: {label} synthesis diverged from build_trace")
    n, scalar_n = len(names) * accesses, len(names) * prefix
    (kernel, seconds), (fallback_kernel, fallback_seconds) = timings
    return {"label": f"trace-synthesis/{accesses:,}", "kernel": kernel,
            "fallback_kernel": fallback_kernel, "programs": len(names),
            "accesses": n, "scalar_accesses": scalar_n,
            "scalar_aps": scalar_n / scalar_seconds, "vector_aps": n / seconds,
            "fallback_aps": n / fallback_seconds,
            "speedup": _speedup(scalar_seconds, scalar_n, seconds, n),
            "fallback_speedup": _speedup(scalar_seconds, scalar_n,
                                         fallback_seconds, n),
            "speedup_vs_fallback": fallback_seconds / seconds}


def compare_ooo_core(instructions=OOO_INSTRUCTIONS):
    """Time Table 2's per-program tasks on the compiled out-of-order core
    and on the Python core (the vectorized index engine with the Python
    kernels).  Each task builds its program fresh with ``build_program``,
    so the compiled side pays its compiled column builds and the Python
    side its one instruction list per program; every result must agree
    exactly."""
    from repro.cpu.processor import OutOfOrderProcessor, ProcessorConfig
    from repro.cpu.workloads import program_names
    from repro.experiments.config import TABLE2_CONFIGS
    from repro.experiments.table2 import _table2_program_task

    names = program_names()
    configs = tuple((label, ProcessorConfig(index_engine="vectorized",
                                            **overrides))
                    for label, overrides in TABLE2_CONFIGS.items())
    timings, results = [], []
    for tier in (contextlib.nullcontext, _python_kernels):
        with tier():
            (core,) = {OutOfOrderProcessor(config).dispatch_strategy()
                       for _, config in configs}
            start = time.perf_counter()
            runs = [_table2_program_task((name, instructions, 2027, configs))
                    for name in names]
            seconds = time.perf_counter() - start
        timings.append((core, seconds))
        results.append(runs)
    assert results[0] == results[1], "the compiled and Python cores diverged"
    total = len(names) * len(configs) * instructions
    (core, seconds), (fallback_core, fallback_seconds) = timings
    return {"kernel": core, "fallback_kernel": fallback_core,
            "programs": len(names), "machines": len(configs),
            "instructions": total, "ips": total / seconds,
            "fallback_ips": total / fallback_seconds,
            "speedup": fallback_seconds / seconds}


def compare_program_build(instructions=PROGRAM_BUILD_INSTRUCTIONS):
    """Time building the 18 Table 2 programs' columns: one compiled
    ``repro_build_program`` call each, and the generator's
    :class:`~repro.cpu.isa.Instruction` stream turned into columns.  Every
    column must agree exactly (values, dtype, shape)."""
    from repro.cpu.program import ProgramColumns
    from repro.cpu.workloads import (
        _instruction_stream,
        _program_columns,
        program_names,
    )

    names = program_names()
    builds = (("compiled-program-builder",
               lambda name: _program_columns(name, instructions, 2027)),
              ("instruction-stream",
               lambda name: ProgramColumns.build(list(_instruction_stream(
                   name, instructions, 2027)))))
    timings, columns = [], []
    for label, build in builds:
        start = time.perf_counter()
        columns.append([build(name) for name in names])
        timings.append(time.perf_counter() - start)
    for name, built, streamed in zip(names, *columns):
        for field in ("ops", "dests", "srcs", "addresses", "pcs", "taken",
                      "addr_ids"):
            got, want = getattr(built, field), getattr(streamed, field)
            assert (got.dtype == want.dtype and got.shape == want.shape
                    and (got == want).all()), (
                f"{name}: compiled program columns diverged in {field}")
    total = len(names) * instructions
    seconds, fallback_seconds = timings
    return {"kernel": builds[0][0], "fallback_kernel": builds[1][0],
            "programs": len(names), "instructions": total,
            "ips": total / seconds, "fallback_ips": total / fallback_seconds,
            "speedup": fallback_seconds / seconds}


#: Minimum v2-chunked-over-v1-record throughput ratio of the trace-I/O
#: section.  Reading packed columns straight into arrays versus parsing one
#: 32-byte struct per access is a couple of orders of magnitude apart in
#: practice, so 5x is a conservative regression tripwire, not a tight bound.
REQUIRED_SPEEDUP_TRACE_IO = 5.0

#: Accesses per streamed batch in the trace-I/O section.
TRACE_IO_CHUNK = 1 << 18


def compare_trace_io(accesses=BENCH_ENGINE_ACCESSES):
    """Time on-disk trace ingestion: v2 columns / v1 records.

    Writes the benchmark trace to a temporary directory in both formats,
    then times two full chunked passes into :class:`AddressBatch` form:
    the packed v2 columns through buffered reads (the bounded-RSS path
    ``--trace`` and the nightly streaming job use) and the v1 per-record
    binary format.  Every pass must reproduce the written arrays exactly
    before its throughput is reported.
    """
    trace = _build_trace(accesses)
    addresses, writes = trace.addresses, trace.is_write
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-trace-io-") as tmp:
        v2_path = os.path.join(tmp, "trace.ctr2")
        v1_path = os.path.join(tmp, "trace.bin")
        write_trace_v2(v2_path, addresses, writes)
        write_binary_trace(v1_path, (
            MemoryAccess(address=a, is_write=w)
            for a, w in zip(addresses.tolist(), writes.tolist())))

        for label, path in (("v2-read", v2_path), ("v1-records", v1_path)):
            start = time.perf_counter()
            got_a, got_w, count = [], [], 0
            for batch in iter_trace_chunks(path, chunk_size=TRACE_IO_CHUNK):
                got_a.append(batch.addresses)
                got_w.append(batch.is_write)
                count += len(batch)
            seconds = time.perf_counter() - start
            assert count == len(trace), f"{label}: short read"
            assert np.array_equal(np.concatenate(got_a), addresses), (
                f"{label}: addresses diverged from the written trace")
            assert np.array_equal(np.concatenate(got_w), writes), (
                f"{label}: store mask diverged from the written trace")
            rows.append({"format": label, "accesses": count,
                         "seconds": seconds, "aps": count / seconds,
                         "bytes": os.path.getsize(path)})
    v1_aps = rows[-1]["aps"]
    for row in rows:
        row["speedup_vs_v1"] = row["aps"] / v1_aps
    return {"chunk_size": TRACE_IO_CHUNK, "rows": rows}


@pytest.mark.benchmark(group="engine-trace-io")
def test_trace_io_throughput(benchmark):
    """Chunked v2 streaming beats per-record v1 parsing >= 5x, bit-exact."""
    result = benchmark.pedantic(
        lambda: compare_trace_io(BENCH_ENGINE_ACCESSES),
        rounds=1, iterations=1)
    by_format = {row["format"]: row for row in result["rows"]}
    print("\ntrace-io: " + ", ".join(
        f"{row['format']} {row['aps']:,.0f} acc/s" for row in result["rows"]))
    if BENCH_ENGINE_ACCESSES >= MIN_ACCESSES_FOR_SPEEDUP_CHECK:
        speedup = by_format["v2-read"]["speedup_vs_v1"]
        assert speedup >= REQUIRED_SPEEDUP_TRACE_IO, (
            f"v2-read: only {speedup:.1f}x over v1 records "
            f"(required {REQUIRED_SPEEDUP_TRACE_IO}x)")


def _load_trajectory(path):
    """Previously recorded runs, upgrading the legacy single-run schema."""
    if not path or not os.path.exists(path):
        return []
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return []
    if isinstance(data, dict) and isinstance(data.get("runs"), list):
        return data["runs"]
    if isinstance(data, dict) and "rows" in data:
        # Legacy schema: one flat run per file.  Keep it as the first
        # trajectory entry instead of silently discarding the baseline.
        return [{key: data[key] for key in
                 ("python", "machine", "workload", "rows",
                  "required_speedup_lru", "required_speedup_policy")
                 if key in data}]
    return []


def _artifact_path(smoke):
    """Where a run records itself: ``REPRO_BENCH_ENGINE_JSON`` when set
    (empty for nowhere), else :data:`SMOKE_JSON` for a smoke run and
    :data:`BENCH_ENGINE_JSON` for a full one."""
    return os.environ.get("REPRO_BENCH_ENGINE_JSON",
                          SMOKE_JSON if smoke else BENCH_ENGINE_JSON)


def _write_artifact(rows, accesses, path, smoke=False,
                    trace_io=None, coverage=None,
                    ooo_core=None, program_build=None, holes_study=None,
                    trace_synthesis=None, one_set_path=None):
    """Append this run to the machine-readable trajectory artifact."""
    if not path:
        return None
    runs = _load_trajectory(path)
    runs.append({
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": bool(smoke),
        "workload": {"elements": ELEMENTS, "stride": STRIDE,
                     "accesses": accesses, "cache": PAPER_L1_8KB.label,
                     "scalar_accesses": min(accesses,
                                            SCALAR_PREFIX_ACCESSES)},
        "required_speedup_lru": REQUIRED_SPEEDUP,
        "required_speedup_policy": REQUIRED_SPEEDUP_POLICY,
        "required_speedup_trace_io": REQUIRED_SPEEDUP_TRACE_IO,
        "required_speedup_ooo": REQUIRED_SPEEDUP_OOO,
        "required_speedup_program_build": REQUIRED_SPEEDUP_PROGRAM_BUILD,
        "required_speedup_synthesis": REQUIRED_SPEEDUP_SYNTHESIS,
        "rows": rows,
        "trace_io": trace_io,
        "coverage": coverage,
        "ooo_core": ooo_core,
        "program_build": program_build,
        "holes_study": holes_study,
        "trace_synthesis": trace_synthesis,
        "one_set_path": one_set_path,
    })
    artifact = {
        "benchmark": "bench_engine",
        "runs": runs[-MAX_TRAJECTORY_RUNS:],
    }
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _bench_vector(benchmark, build, trace, scalar, check):
    """Time the scalar oracle on the trace's prefix and ``build()``'s batch
    engine (3 rounds, best of) on the whole trace; ``check(twin)`` asserts
    a batch twin run over the prefix bit-exact against the oracle.
    Returns the per-access speedup and both throughputs."""
    prefix = _oracle_prefix(trace)
    scalar_seconds = _time_scalar(scalar, prefix)

    def _vector_run():
        fresh = build()
        fresh.run(trace)
        return fresh

    fresh = benchmark.pedantic(_vector_run, rounds=3, iterations=1)
    vector_seconds = benchmark.stats.stats.min
    twin = build()
    twin.run(prefix)
    check(twin)
    return (fresh,
            _speedup(scalar_seconds, len(prefix), vector_seconds, len(trace)),
            len(prefix) / scalar_seconds, len(trace) / vector_seconds)


def _bench_cache_row(benchmark, scheme, replacement, required):
    trace = _build_trace(BENCH_ENGINE_ACCESSES)
    scalar, _ = _make_caches(scheme, replacement=replacement)
    label = f"{scheme}/{replacement}" if replacement else scheme

    def check(twin):
        assert _stats_tuple(scalar.stats) == _stats_tuple(twin.stats), (
            f"CacheStats diverged between engines for {label}")

    _, speedup, scalar_aps, vector_aps = _bench_vector(
        benchmark, lambda: _make_caches(scheme, replacement=replacement)[1],
        trace, scalar, check)
    print(f"\n{label}: scalar {scalar_aps:,.0f} acc/s, vectorized "
          f"{vector_aps:,.0f} acc/s ({speedup:.1f}x)")
    if len(trace) >= MIN_ACCESSES_FOR_SPEEDUP_CHECK:
        assert speedup >= required, (
            f"{label}: batch kernel only {speedup:.1f}x over scalar "
            f"(required {required}x)")


@pytest.mark.benchmark(group="engine")
@pytest.mark.parametrize("scheme", SCHEMES)
def test_engine_throughput(benchmark, scheme):
    _bench_cache_row(benchmark, scheme, None, REQUIRED_SPEEDUP)


@pytest.mark.benchmark(group="engine-policy")
@pytest.mark.parametrize("policy", POLICY_ROWS)
def test_policy_kernel_throughput(benchmark, policy):
    """Conventional two-way policy kernels hold the LRU paths' bar."""
    _bench_cache_row(benchmark, "a2", policy, REQUIRED_SPEEDUP_POLICY)


@pytest.mark.benchmark(group="engine-skew-policy")
@pytest.mark.parametrize("policy", POLICY_ROWS)
def test_skew_policy_kernel_throughput(benchmark, policy):
    """Policy kernels hold the same bar on skewed placement."""
    _bench_cache_row(benchmark, "a2-Hp-Sk", policy, REQUIRED_SPEEDUP_POLICY)


@pytest.mark.benchmark(group="engine-victim")
@pytest.mark.parametrize("policy", [None] + POLICY_ROWS,
                         ids=["lru"] + POLICY_ROWS)
def test_victim_kernel_throughput(benchmark, policy):
    """Victim kernels hold the same bar for every policy."""
    trace = _build_trace(BENCH_ENGINE_ACCESSES)
    geometry = PAPER_L1_8KB
    scalar = VictimCache(geometry.size_bytes, geometry.block_size,
                         ways=1, victim_entries=8, replacement=policy)

    def check(twin):
        assert scalar.stats.load_misses == twin.stats.load_misses
        assert scalar.victim_hits == twin.victim_hits
        assert scalar.main_hits == twin.main_hits

    _, speedup, scalar_aps, vector_aps = _bench_vector(
        benchmark, lambda: BatchVictimCache(
            geometry.size_bytes, geometry.block_size, ways=1,
            victim_entries=8, replacement=policy), trace, scalar, check)
    label = policy or "lru"
    print(f"\nvictim/{label}: scalar {scalar_aps:,.0f} acc/s, vectorized "
          f"{vector_aps:,.0f} acc/s ({speedup:.1f}x)")
    if len(trace) >= MIN_ACCESSES_FOR_SPEEDUP_CHECK:
        assert speedup >= REQUIRED_SPEEDUP_POLICY, (
            f"victim/{label}: victim kernel only {speedup:.1f}x "
            f"over scalar (required {REQUIRED_SPEEDUP_POLICY}x)")


@pytest.mark.benchmark(group="engine-virtual-real")
def test_virtual_real_engine_throughput(benchmark):
    """The batch virtual-real hierarchy holds the LRU bar over the scalar
    one."""
    trace = _build_trace(BENCH_ENGINE_ACCESSES)
    scalar, table = _make_vr("reference")
    tables = {}

    def build():
        batch, tables["twin"] = _make_vr("vectorized")
        return batch

    def check(twin):
        assert _stats_tuple(scalar.l1.stats) == _stats_tuple(twin.l1.stats)
        assert _stats_tuple(scalar.l2.stats) == _stats_tuple(twin.l2.stats)
        assert scalar.holes_created == twin.holes_created
        assert scalar.alias_invalidations == twin.alias_invalidations
        assert table.page_faults == tables["twin"].page_faults

    fresh, speedup, scalar_aps, vector_aps = _bench_vector(
        benchmark, build, trace, scalar, check)
    print(f"\nvirtual-real: scalar {scalar_aps:,.0f} acc/s, "
          f"{fresh.dispatch_strategy()} {vector_aps:,.0f} acc/s "
          f"({speedup:.1f}x)")
    if len(trace) >= MIN_ACCESSES_FOR_SPEEDUP_CHECK:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"virtual-real: batch engine only {speedup:.1f}x over scalar "
            f"(required {REQUIRED_SPEEDUP}x)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short trace through every kernel-dispatch "
                             "path; bit-exactness asserted, speedup bounds "
                             "skipped, the run recorded in the git-ignored "
                             f"{SMOKE_JSON}")
    args = parser.parse_args(argv)
    accesses = SMOKE_ACCESSES if args.smoke else BENCH_ENGINE_ACCESSES

    print(f"strided trace: {ELEMENTS} elements, stride {STRIDE}, "
          f"{accesses:,} accesses, {PAPER_L1_8KB.label} cache"
          + (" [smoke]" if args.smoke else "") + "\n")
    header = (f"{'scheme':19s} {'repl':6s} {'kernel':25s} "
              f"{'scalar acc/s':>13s} {'vector acc/s':>13s} "
              f"{'speedup':>8s}  {'fallback kernel':22s} "
              f"{'acc/s':>11s} {'speedup':>8s} {'miss%':>7s}")
    print(header)
    print("-" * len(header))

    def show(row):
        print(f"{row['scheme']:19s} {row['replacement']:6s} "
              f"{row['kernel']:25s} {row['scalar_aps']:13,.0f} "
              f"{row['vector_aps']:13,.0f} {row['speedup']:7.1f}x  "
              f"{row['fallback_kernel']:22s} {row['fallback_aps']:11,.0f} "
              f"{row['fallback_speedup']:7.1f}x "
              f"{100 * row['miss_ratio']:6.2f}%")

    check_bounds = accesses >= MIN_ACCESSES_FOR_SPEEDUP_CHECK
    rows = []
    for scheme in SCHEMES:
        row = compare_engines(scheme, accesses=accesses)
        rows.append(row)
        show(row)
        if check_bounds:
            assert row["speedup"] >= REQUIRED_SPEEDUP, (
                f"{row['scheme']}: only {row['speedup']:.1f}x")
    # FIFO/random/PLRU on conventional two-way and skewed placement, and
    # every policy on the fully-associative cache the paper measures
    # against (its LRU row included): bounded.
    placements = (("a2", PAPER_L1_8KB.ways, None, POLICY_ROWS),
                  ("a2-Hp-Sk", PAPER_L1_8KB.ways, None, POLICY_ROWS),
                  ("a2", FULLY_ASSOCIATIVE_WAYS,
                   f"full-{FULLY_ASSOCIATIVE_WAYS}way", ["lru"] + POLICY_ROWS))
    for scheme, ways, label, policies in placements:
        for policy in policies:
            row = compare_engines(scheme, accesses=accesses,
                                  replacement=policy, ways=ways, label=label)
            rows.append(row)
            show(row)
            if check_bounds:
                assert row["speedup"] >= REQUIRED_SPEEDUP_POLICY, (
                    f"{row['scheme']}/{policy}: only {row['speedup']:.1f}x")
    # Victim caches, every policy: bounded.
    for policy in [None] + POLICY_ROWS:
        row = compare_victim_kernel(accesses=accesses, replacement=policy)
        rows.append(row)
        show(row)
        if check_bounds:
            assert row["speedup"] >= REQUIRED_SPEEDUP_POLICY, (
                f"victim/{row['replacement']}: only {row['speedup']:.1f}x")
    # The virtual-real hierarchy.
    row = compare_virtual_real_engines(accesses=accesses)
    rows.append(row)
    show(row)
    if check_bounds:
        assert row["speedup"] >= REQUIRED_SPEEDUP, (
            f"virtual-real: only {row['speedup']:.1f}x")
    # The holes study at the CLI's defaults: many short hierarchy runs.
    holes = compare_holes_study(2 if args.smoke else HOLES_STUDY_RUNS)
    print(f"\nholes-study ({holes['accesses']:,} accesses, best of "
          f"{holes['runs']}): {holes['kernel']} {holes['aps']:,.0f} acc/s "
          f"({holes['seconds']:.3f}s; synthesis "
          f"{holes['synthesis_share']:.0%}, translation "
          f"{holes['translation_share']:.0%}, kernel "
          f"{holes['kernel_share']:.0%}, set-up {holes['setup_share']:.0%}, "
          f"other {holes['other_share']:.0%}), equal to the reference "
          f"engine on a {HOLES_STUDY_CHECK_ACCESSES:,}-access prefix")
    # Trace synthesis: the 18 workload traces, short and long.
    synthesis = [compare_trace_synthesis(length)
                 for length in (SYNTHESIS_SHORT_ACCESSES, accesses)]
    print()
    for row in synthesis:
        print(f"{row['label']:26s} {row['kernel']:25s} "
              f"{row['scalar_aps']:13,.0f} {row['vector_aps']:13,.0f} "
              f"{row['speedup']:7.1f}x  {row['fallback_kernel']:22s} "
              f"{row['fallback_aps']:11,.0f} {row['fallback_speedup']:7.1f}x "
              f"(compiled {row['speedup_vs_fallback']:.1f}x the NumPy tier)")
    print(f"  ({synthesis[0]['programs']} programs each; scalar "
          f"build_trace on a {SCALAR_PREFIX_ACCESSES:,}-access prefix, "
          f"bit-exact on both tiers)")
    if check_bounds:
        long_row = synthesis[-1]
        assert long_row["speedup_vs_fallback"] >= REQUIRED_SPEEDUP_SYNTHESIS, (
            f"{long_row['label']}: compiled only "
            f"{long_row['speedup_vs_fallback']:.1f}x over the NumPy tier "
            f"(required {REQUIRED_SPEEDUP_SYNTHESIS}x)")
    # The out-of-order core: Table 2 on both cores.
    ooo = compare_ooo_core(SMOKE_OOO_INSTRUCTIONS if args.smoke
                           else OOO_INSTRUCTIONS)
    print(f"\nooo-core (Table 2: {ooo['programs']} programs x "
          f"{ooo['machines']} machines, {ooo['instructions']:,} "
          f"instructions): {ooo['kernel']} {ooo['ips']:,.0f} instr/s, "
          f"{ooo['fallback_kernel']} {ooo['fallback_ips']:,.0f} instr/s "
          f"({ooo['speedup']:.1f}x), bit-exact")
    if check_bounds:
        assert ooo["speedup"] >= REQUIRED_SPEEDUP_OOO, (
            f"ooo-core: compiled only {ooo['speedup']:.1f}x over the "
            f"Python core (required {REQUIRED_SPEEDUP_OOO}x)")
    build = compare_program_build(SMOKE_OOO_INSTRUCTIONS if args.smoke
                                  else PROGRAM_BUILD_INSTRUCTIONS)
    print(f"program-build ({build['programs']} programs, "
          f"{build['instructions']:,} instructions): {build['kernel']} "
          f"{build['ips']:,.0f} instr/s, {build['fallback_kernel']} "
          f"{build['fallback_ips']:,.0f} instr/s ({build['speedup']:.1f}x), "
          f"bit-exact")
    if check_bounds:
        assert build["speedup"] >= REQUIRED_SPEEDUP_PROGRAM_BUILD, (
            f"program-build: compiled only {build['speedup']:.1f}x over the "
            f"instruction stream (required "
            f"{REQUIRED_SPEEDUP_PROGRAM_BUILD}x)")
    if check_bounds:
        print(f"\nevery row (set-associative, victim and multi-level) "
              f">= {REQUIRED_SPEEDUP:.0f}x with bit-exact CacheStats on "
              f"both kernel tiers")
    else:
        print("\nbit-exact CacheStats on every kernel path "
              "(speedup bounds skipped below "
              f"{MIN_ACCESSES_FOR_SPEEDUP_CHECK:,} accesses)")
    coverage = check_dispatch_coverage(rows + [ooo])
    print(f"dispatch coverage ({SMOKE_ACCESSES:,} accesses, untimed): "
          f"{', '.join(coverage)} bit-exact; every dispatch name reached")

    # The Python tier's one-set path over its generic loop: unbounded.
    one_set = [compare_one_set_path(policy, SMOKE_ACCESSES if args.smoke
                                    else ONE_SET_ACCESSES)
               for policy in ["lru"] + POLICY_ROWS]
    print()
    for row in one_set:
        print(f"one-set path ({row['replacement']}, 1 set x {row['ways']} "
              f"ways, {row['accesses']:,} accesses): {row['kernel']} "
              f"{row['seconds']:.2f}s, {row['generic_kernel']} "
              f"{row['generic_seconds']:.2f}s ({row['speedup']:.1f}x), "
              f"bit-exact")

    # Trace-I/O section: on-disk ingestion throughput per format/read mode.
    trace_io = compare_trace_io(accesses=accesses)
    print(f"\ntrace-io ({trace_io['rows'][0]['accesses']:,} accesses, "
          f"chunks of {trace_io['chunk_size']:,}):")
    for row in trace_io["rows"]:
        print(f"  {row['format']:10s} {row['aps']:14,.0f} acc/s "
              f"({row['bytes'] / 1e6:6.1f} MB on disk, "
              f"{row['speedup_vs_v1']:5.1f}x vs v1 records)")
    if check_bounds:
        for row in trace_io["rows"]:
            if row["format"].startswith("v2"):
                assert row["speedup_vs_v1"] >= REQUIRED_SPEEDUP_TRACE_IO, (
                    f"{row['format']}: only {row['speedup_vs_v1']:.1f}x over "
                    f"v1 records (required {REQUIRED_SPEEDUP_TRACE_IO}x)")

    path = _write_artifact(rows, accesses, _artifact_path(args.smoke),
                           smoke=args.smoke, trace_io=trace_io,
                           coverage=coverage,
                           ooo_core=ooo, program_build=build,
                           holes_study=holes, trace_synthesis=synthesis,
                           one_set_path=one_set)
    if path:
        print(f"appended run to {path}")


if __name__ == "__main__":
    main()
