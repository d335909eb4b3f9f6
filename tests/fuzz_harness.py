"""Test support: random-program fuzzing for the out-of-order CPU path.

Every other subsystem of this reproduction is locked down by a differential
harness: the trace-level cache studies pit the batch kernels against the
scalar models on random geometries and random traces.  The IPC studies of
Tables 2 and 3 run through :mod:`repro.cpu` instead — a path that, until
this module, was only exercised by hand-written unit tests and the eighteen
synthetic Spec95 programs.

This module closes that gap with a seeded random-*program* generator and a
differential harness over it:

* :class:`FuzzParams` parameterises the generator — instruction mix,
  register pressure (how hard results chain into later operands), branch
  density and per-site predictability, program length, and the load/store
  address pattern (constant-stride streams, pointer-chase permutation
  walks, conflict-heavy same-set streams, uniform random, or a mixture);
* :func:`random_params` draws a valid :class:`FuzzParams` from a seed, so a
  single integer reproduces the whole program *and* the machine variant it
  ran on;
* :func:`build_fuzz_program` turns ``(seed, params)`` into a valid,
  replayable :class:`~repro.cpu.program.Program`;
* :func:`run_differential` simulates one program under both ``--engine``
  backends — the scalar reference placement and the engine's table lookup
  of the same placement (:class:`~repro.engine.index_vec.PlacementIndexing`)
  — and compares architectural/timing state bit-exactly: committed
  instruction counts, cycle counts, per-op histograms, branch/address
  predictor statistics, the full :class:`~repro.cache.stats.CacheStats`,
  the data-cache model's timing counters, the resident cache contents and
  the recorded functional access streams.  A third arm runs the program on
  the compiled core (``repro_ooo_run``, when the C kernels are available)
  and compares the same state against the Python core, its access stream
  taken from the instructions the kernel reports reaching the cache.  It
  then replays each recorded stream through the batch kernels
  (:func:`replay_access_stream`) and checks the hit/miss statistics
  again — the CPU path's entry into the engine equivalence story.

Every failure carries a one-line repro (:func:`repro_line`): the seed and
generator parameters that rebuild the failing program exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.cpu.dcache import DataCacheModel
from repro.cpu.isa import FP_REGS, INT_REGS, Instruction, OpClass
from repro.cpu.processor import (
    OutOfOrderProcessor,
    ProcessorConfig,
    SimulationResult,
)
from repro.cpu.program import Program
from repro.engine.batch import AddressBatch
from repro.engine.batch_cache import BatchSetAssociativeCache
from repro.trace.generators import _SplitMix64

__all__ = [
    "ADDRESS_PATTERNS",
    "CONFIG_VARIANTS",
    "FuzzParams",
    "DifferentialOutcome",
    "random_params",
    "build_fuzz_program",
    "fuzz_config",
    "run_differential",
    "repro_line",
    "ReplayOutcome",
    "batch_cache_like",
    "replay_access_stream",
]

#: Valid load/store address patterns of the generator.
ADDRESS_PATTERNS = ("stride", "pointer-chase", "conflict", "random", "mixed")

#: Machine variants a fuzz seed can land on — the Table 2 axes that change
#: which code paths the differential run exercises: conventional
#: bit-selection vs skewed I-Poly placement (only the latter has two
#: distinct index implementations to diff), the XOR stage in or out of the
#: critical path, and the stride address predictor on or off.
CONFIG_VARIANTS: Dict[str, dict] = {
    "conv": dict(index_scheme="a2"),
    "conv-pred": dict(index_scheme="a2", address_prediction=True),
    "ipoly": dict(index_scheme="a2-Hp-Sk"),
    "ipoly-CP": dict(index_scheme="a2-Hp-Sk", xor_in_critical_path=True),
    "ipoly-CP-pred": dict(index_scheme="a2-Hp-Sk", xor_in_critical_path=True,
                          address_prediction=True),
}

#: I-Poly variants get the bulk of the draw weight: they are the only
#: configurations where the two index engines run genuinely different code.
_VARIANT_DRAW = ("ipoly", "ipoly-CP", "ipoly-CP-pred", "ipoly", "ipoly-CP",
                 "ipoly-CP-pred", "conv", "conv-pred")


@dataclass(frozen=True)
class FuzzParams:
    """Generator parameters for one random program.

    All fields are plain scalars so a params object round-trips through JSON
    (for the committed corpus and for CI failure artifacts).
    """

    #: Dynamic instruction count.
    length: int = 2_000
    #: Relative probability of memory operations (per-mille, 0..1000).
    memory_permille: int = 350
    #: Relative probability of branches (per-mille; memory + branch < 1000).
    branch_permille: int = 150
    #: Fraction of non-memory computation that is floating point (per-mille).
    fp_permille: int = 300
    #: Fraction of memory operations that are stores (per-mille).
    store_permille: int = 300
    #: Register pressure: how many of the most recent results feed operands.
    #: 1 = everything chains on the last result (serial); large = wide ILP.
    dependency_window: int = 6
    #: Chance (percent) that a source comes from a recent result rather than
    #: an always-ready base register.
    recent_source_percent: int = 50
    #: Number of distinct static branch sites.
    branch_sites: int = 32
    #: Chance (per-mille) that a branch deviates from its site's bias.
    branch_flip_permille: int = 100
    #: Load/store address pattern (one of :data:`ADDRESS_PATTERNS`).
    address_pattern: str = "mixed"
    #: Bytes of address space the memory stream touches.
    footprint_bytes: int = 1 << 16
    #: Machine variant label (one of :data:`CONFIG_VARIANTS`).
    config_variant: str = "ipoly-CP-pred"

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be positive")
        if not 0 < self.memory_permille < 1000:
            raise ValueError("memory_permille must be in (0, 1000)")
        if self.branch_permille < 0 or self.memory_permille + self.branch_permille >= 1000:
            raise ValueError("memory + branch per-milles must leave room for ALU work")
        if not 0 <= self.fp_permille <= 1000:
            raise ValueError("fp_permille must be in [0, 1000]")
        if not 0 <= self.store_permille <= 1000:
            raise ValueError("store_permille must be in [0, 1000]")
        if self.dependency_window < 1:
            raise ValueError("dependency_window must be positive")
        if not 0 <= self.recent_source_percent <= 100:
            raise ValueError("recent_source_percent must be in [0, 100]")
        if self.branch_sites < 1:
            raise ValueError("branch_sites must be positive")
        if not 0 <= self.branch_flip_permille <= 500:
            raise ValueError("branch_flip_permille must be in [0, 500]")
        if self.address_pattern not in ADDRESS_PATTERNS:
            raise ValueError(
                f"unknown address_pattern {self.address_pattern!r}; "
                f"expected one of {ADDRESS_PATTERNS}")
        if self.footprint_bytes < 64:
            raise ValueError("footprint_bytes must be at least 64")
        if self.config_variant not in CONFIG_VARIANTS:
            raise ValueError(
                f"unknown config_variant {self.config_variant!r}; "
                f"expected one of {tuple(CONFIG_VARIANTS)}")


def random_params(seed: int, length: Optional[int] = None) -> FuzzParams:
    """Draw a valid :class:`FuzzParams` from ``seed`` (deterministic).

    ``length`` overrides the drawn program length — the corpus and the
    nightly loop use different budgets for the same seeds.
    """
    rng = _SplitMix64(seed * 2 + 1)
    memory = 150 + rng.below(400)                 # 150..549 per-mille
    branch = 30 + rng.below(min(250, 990 - memory))
    drawn = FuzzParams(
        length=length if length is not None else 800 + rng.below(2_200),
        memory_permille=memory,
        branch_permille=branch,
        fp_permille=rng.below(700),
        store_permille=50 + rng.below(500),
        dependency_window=1 + rng.below(10),
        recent_source_percent=10 + rng.below(80),
        branch_sites=1 << rng.below(7),           # 1..64 sites
        branch_flip_permille=rng.below(400),
        address_pattern=ADDRESS_PATTERNS[rng.below(len(ADDRESS_PATTERNS))],
        footprint_bytes=1 << (10 + rng.below(12)),  # 1 KiB .. 2 MiB
        config_variant=_VARIANT_DRAW[rng.below(len(_VARIANT_DRAW))],
    )
    return drawn


def fuzz_config(params: FuzzParams, **overrides) -> ProcessorConfig:
    """The :class:`ProcessorConfig` a fuzz program runs on (reference engine).

    ``overrides`` lets the harness flip ``index_engine`` without touching
    the variant table.
    """
    merged = dict(CONFIG_VARIANTS[params.config_variant])
    merged.update(overrides)
    return ProcessorConfig(**merged)


# --------------------------------------------------------------------------- #
# address-stream generators
# --------------------------------------------------------------------------- #

#: Conflict pattern: candidate blocks sit one bit-selection set apart for the
#: paper's 8 KB two-way L1 (128 sets x 32 B lines), so conventional placement
#: folds the whole stream into a handful of sets while I-Poly spreads it.
_CONFLICT_SET_STRIDE = 128 * 32


def _address_stream(rng: _SplitMix64, params: FuzzParams) -> Iterator[int]:
    """Infinite stream of (block-aligned-ish) effective addresses."""
    footprint = params.footprint_bytes
    pattern = params.address_pattern

    # Stride streams: up to four interleaved constant-stride walkers.
    stride_count = 1 + rng.below(4)
    stride_bases = [rng.below(footprint) & ~7 for _ in range(stride_count)]
    stride_steps = [8 * (1 + rng.below(64)) * (1 if rng.below(2) else -1)
                    for _ in range(stride_count)]
    stride_pos = list(stride_bases)

    # Pointer-chase: a fixed pseudo-random permutation over cache-line-sized
    # cells; each access follows the previous one through the permutation,
    # like walking a linked list that was scattered through the heap.
    chase_cells = max(8, min(4096, footprint // 32))
    chase_next = list(range(chase_cells))
    for i in range(chase_cells - 1, 0, -1):      # Fisher-Yates off the seed
        j = rng.below(i + 1)
        chase_next[i], chase_next[j] = chase_next[j], chase_next[i]
    chase_at = rng.below(chase_cells)

    # Conflict-heavy: rotate over more same-set blocks than the L1 has ways.
    conflict_blocks = 3 + rng.below(6)
    conflict_base = rng.below(1 << 14) & ~7
    conflict_at = 0

    def stride_addr() -> int:
        nonlocal stride_pos
        lane = rng.below(stride_count)
        addr = stride_pos[lane]
        nxt = addr + stride_steps[lane]
        if nxt < 0 or nxt >= footprint * 4:
            nxt = stride_bases[lane]
        stride_pos[lane] = nxt
        return addr

    def chase_addr() -> int:
        nonlocal chase_at
        chase_at = chase_next[chase_at]
        return chase_at * 32 + (rng.below(4) * 8)

    def conflict_addr() -> int:
        nonlocal conflict_at
        conflict_at = (conflict_at + 1) % conflict_blocks
        return conflict_base + conflict_at * _CONFLICT_SET_STRIDE

    def random_addr() -> int:
        return rng.below(footprint) & ~7

    makers = {"stride": stride_addr, "pointer-chase": chase_addr,
              "conflict": conflict_addr, "random": random_addr}
    while True:
        if pattern == "mixed":
            draw = rng.below(4)
            yield (stride_addr, chase_addr, conflict_addr, random_addr)[draw]()
        else:
            yield makers[pattern]()


# --------------------------------------------------------------------------- #
# program generation
# --------------------------------------------------------------------------- #

def _fuzz_stream(seed: int, params: FuzzParams) -> Iterator[Instruction]:
    rng = _SplitMix64(seed * 6364136223846793005 + 1442695040888963407)
    addresses = _address_stream(_SplitMix64(seed + 97), params)

    # Registers 0-3 / 32-35 are stable base registers (never destinations),
    # as in the Spec95-like workload generator; everything above rotates.
    base_int = [0, 1, 2, 3]
    base_fp = [INT_REGS, INT_REGS + 1, INT_REGS + 2, INT_REGS + 3]
    recent_int: List[int] = list(base_int)
    recent_fp: List[int] = list(base_fp)
    int_cursor = len(base_int)
    fp_cursor = INT_REGS + len(base_fp)

    site_bias = [(rng.next() & 1) == 0 for _ in range(params.branch_sites)]

    def pick_src(pool: List[int], base_pool: List[int]) -> int:
        if rng.below(100) < params.recent_source_percent:
            window = pool[-params.dependency_window:]
            return window[rng.below(len(window))]
        return base_pool[rng.below(len(base_pool))]

    def next_int_dest() -> int:
        nonlocal int_cursor
        dest = int_cursor
        int_cursor += 1
        if int_cursor >= INT_REGS:
            int_cursor = len(base_int)
        return dest

    def next_fp_dest() -> int:
        nonlocal fp_cursor
        dest = fp_cursor
        fp_cursor += 1
        if fp_cursor >= INT_REGS + FP_REGS:
            fp_cursor = INT_REGS + len(base_fp)
        return dest

    branch_cut = params.memory_permille + params.branch_permille
    pc = 0x0040_0000
    for _ in range(params.length):
        draw = rng.below(1000)
        pc += 4
        if draw < params.memory_permille:
            address = next(addresses)
            if rng.below(1000) < params.store_permille:
                use_fp = params.fp_permille > 0 and rng.below(2) == 0
                data = pick_src(recent_fp if use_fp else recent_int,
                                base_fp if use_fp else base_int)
                yield Instruction(pc=pc, op=OpClass.STORE,
                                  srcs=(pick_src(recent_int, base_int), data),
                                  address=address)
            else:
                use_fp = params.fp_permille > 0 and rng.below(2) == 0
                dest = next_fp_dest() if use_fp else next_int_dest()
                yield Instruction(pc=pc, op=OpClass.LOAD, dest=dest,
                                  srcs=(pick_src(recent_int, base_int),),
                                  address=address)
                (recent_fp if use_fp else recent_int).append(dest)
        elif draw < branch_cut:
            site = rng.below(params.branch_sites)
            taken = site_bias[site]
            if rng.below(1000) < params.branch_flip_permille:
                taken = not taken
            yield Instruction(pc=0x0041_0000 + site * 4, op=OpClass.BRANCH,
                              srcs=(pick_src(recent_int, base_int),),
                              taken=taken)
        elif rng.below(1000) < params.fp_permille:
            roll = rng.below(1000)
            if roll < 20:
                op = OpClass.FP_DIV
            elif roll < 30:
                op = OpClass.FP_SQRT
            elif roll < 500:
                op = OpClass.FP_MUL
            else:
                op = OpClass.FP_ADD
            dest = next_fp_dest()
            yield Instruction(pc=pc, op=op, dest=dest,
                              srcs=(pick_src(recent_fp, base_fp),
                                    pick_src(recent_fp, base_fp)))
            recent_fp.append(dest)
        else:
            roll = rng.below(1000)
            if roll < 30:
                op = OpClass.INT_MUL
            elif roll < 35:
                op = OpClass.INT_DIV
            else:
                op = OpClass.INT_ALU
            dest = next_int_dest()
            yield Instruction(pc=pc, op=op, dest=dest,
                              srcs=(pick_src(recent_int, base_int),
                                    pick_src(recent_int, base_int)))
            recent_int.append(dest)
        if len(recent_int) > 4 * params.dependency_window:
            del recent_int[: 2 * params.dependency_window]
        if len(recent_fp) > 4 * params.dependency_window:
            del recent_fp[: 2 * params.dependency_window]


def build_fuzz_program(seed: int,
                       params: Optional[FuzzParams] = None) -> Tuple[Program, FuzzParams]:
    """Build the random program for ``seed`` (drawing params when not given).

    Returns ``(program, params)``; the program replays identically on every
    call to :meth:`~repro.cpu.program.Program.instructions`.
    """
    if params is None:
        params = random_params(seed)
    program = Program(f"fuzz-{seed}",
                      lambda: _fuzz_stream(seed, params),
                      length_hint=params.length)
    return program, params


def repro_line(seed: int, params: FuzzParams) -> str:
    """One-line reproduction recipe for a fuzz failure."""
    return (f"repro: seed={seed} "
            f"params=FuzzParams(**{asdict(params)!r}) "
            f"via fuzz_harness.run_differential(*build_fuzz_program"
            f"({seed}, params))")


# --------------------------------------------------------------------------- #
# differential harness
# --------------------------------------------------------------------------- #

#: SimulationResult fields compared between the two engines.  Ratios are the
#: same exact rational arithmetic on both sides, so equality is exact.
_RESULT_FIELDS = (
    "instructions", "cycles", "loads", "stores", "branches",
    "forwarded_loads", "op_counts", "load_miss_ratio", "store_miss_ratio",
    "branch_misprediction_ratio", "address_prediction_coverage",
    "address_prediction_accuracy",
)


@dataclass
class DifferentialOutcome:
    """Everything one differential fuzz run observed."""

    seed: int
    params: FuzzParams
    reference: SimulationResult
    vectorized: SimulationResult
    #: The compiled core's result (``None`` without the C kernels).
    compiled: Optional[SimulationResult] = None
    #: Batch-replay kernel names, keyed by engine label.
    replay_strategies: Dict[str, str] = field(default_factory=dict)
    #: Human-readable descriptions of every disagreement (empty = bit-exact).
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when both engines and the batch replay agreed everywhere."""
        return not self.mismatches

    def assert_ok(self) -> None:
        """Raise :class:`AssertionError` with a one-line repro on mismatch."""
        if not self.ok:
            detail = "; ".join(self.mismatches)
            raise AssertionError(
                f"engine divergence on fuzz program ({detail}); "
                + repro_line(self.seed, self.params))


def _run_one(program: Program, config: ProcessorConfig,
             max_instructions: Optional[int]):
    """Simulate ``program`` on ``config`` with a stream-recording dcache."""
    dcache = DataCacheModel(config.build_cache(), config.cache_timing(),
                            record_stream=True)
    processor = OutOfOrderProcessor(config, cache_model=dcache)
    result = processor.run(program, max_instructions=max_instructions)
    return processor, result


def run_differential(program: Program,
                     params: FuzzParams,
                     seed: int = 0,
                     max_instructions: Optional[int] = None,
                     check_replay: bool = True,
                     config: Optional[ProcessorConfig] = None
                     ) -> DifferentialOutcome:
    """Run ``program`` under both index engines and on the compiled core,
    and diff everything.

    The comparison covers the committed architectural/timing state (counts,
    cycles, per-op histograms, predictor statistics), the full functional
    cache statistics, the data-cache timing counters, the final resident
    cache contents and the recorded access streams.  With ``check_replay``
    (the default) each engine's recorded stream is additionally replayed
    through the batch kernels and the hit/miss statistics compared again.
    ``config`` replaces the machine of ``params.config_variant`` (for
    hand-written cases; its ``index_engine`` is ignored).
    """
    base = fuzz_config(params) if config is None else config
    ref_proc, ref = _run_one(program, replace(base, index_engine="reference"),
                             max_instructions)
    vec_proc, vec = _run_one(program, replace(base, index_engine="vectorized"),
                             max_instructions)

    outcome = DifferentialOutcome(seed=seed, params=params,
                                  reference=ref, vectorized=vec)
    note = outcome.mismatches.append

    _compare_results(note, ("reference", ref), ("vectorized", vec))

    ref_stats = ref_proc.dcache.cache.stats
    vec_stats = vec_proc.dcache.cache.stats
    if ref_stats != vec_stats:
        note(f"cache stats: reference={ref_stats!r} vectorized={vec_stats!r}")

    for counter in ("load_accesses", "store_accesses", "merged_misses",
                    "mshr_stall_cycles"):
        left = getattr(ref_proc.dcache, counter)
        right = getattr(vec_proc.dcache, counter)
        if left != right:
            note(f"dcache.{counter}: reference={left} vectorized={right}")

    ref_resident = sorted(ref_proc.dcache.cache.resident_blocks())
    vec_resident = sorted(vec_proc.dcache.cache.resident_blocks())
    if ref_resident != vec_resident:
        note("resident cache contents differ between engines")

    ref_stream = ref_proc.dcache.recorded_stream()
    vec_stream = vec_proc.dcache.recorded_stream()
    if ref_stream != vec_stream:
        note("recorded dcache access streams differ between engines")

    _compare_compiled(outcome, program, base, max_instructions, vec_proc,
                      vec_stream)

    if check_replay:
        for label, proc, stream in (("reference", ref_proc, ref_stream),
                                    ("vectorized", vec_proc, vec_stream)):
            replay = replay_access_stream(stream[0], stream[1],
                                          proc.dcache.cache)
            outcome.replay_strategies[label] = replay.strategy
            if not replay.matches(proc.dcache.cache.stats):
                note(f"batch replay ({label}, kernel {replay.strategy}): "
                     f"batch={replay.stats!r} "
                     f"scalar={proc.dcache.cache.stats!r}")
    return outcome


def _compare_results(note, left_arm, right_arm) -> None:
    """Note every :data:`_RESULT_FIELDS` difference, ``op_counts`` key
    order included."""
    (left_label, left), (right_label, right) = left_arm, right_arm
    for name in _RESULT_FIELDS:
        a, b = getattr(left, name), getattr(right, name)
        if a != b:
            note(f"result.{name}: {left_label}={a!r} {right_label}={b!r}")
    if list(left.op_counts) != list(right.op_counts):
        note(f"result.op_counts order: {left_label}={list(left.op_counts)} "
             f"{right_label}={list(right.op_counts)}")


def _compare_compiled(outcome: DifferentialOutcome, program: Program,
                      base: ProcessorConfig, max_instructions: Optional[int],
                      python: OutOfOrderProcessor, python_stream) -> None:
    """The compiled-core arm: the vectorized-engine machine on a fresh
    processor, against the Python core's run of the same machine."""
    processor = OutOfOrderProcessor(replace(base, index_engine="vectorized"))
    result = processor.run(program, max_instructions=max_instructions)
    run = processor.last_compiled_run
    if run is None:  # no C compiler: the Python core ran it again
        return
    outcome.compiled = result
    note = outcome.mismatches.append
    _compare_results(note, ("python", outcome.vectorized),
                     ("compiled", result))
    if run.cache.stats != python.dcache.cache.stats:
        note(f"cache stats: python={python.dcache.cache.stats!r} "
             f"compiled={run.cache.stats!r}")
    for counter, value in run.dcache_counters.items():
        if getattr(python.dcache, counter) != value:
            note(f"dcache.{counter}: python="
                 f"{getattr(python.dcache, counter)} compiled={value}")
    if (sorted(run.cache.resident_blocks())
            != sorted(python.dcache.cache.resident_blocks())):
        note("resident cache contents differ between the cores")
    if run.stream() != tuple(python_stream):
        note("functional access streams differ between the cores")


# --------------------------------------------------------------------------- #
# batch replay of a recorded access stream
# --------------------------------------------------------------------------- #
#
# The out-of-order processor drives its L1 data cache one access at a time,
# so the CPU path can never consume an AddressBatch directly.  What it can
# do is record the functional access stream its DataCacheModel produced
# (``record_stream=True``) and replay it here: the stream becomes an
# AddressBatch, the scalar cache's configuration is mirrored into a
# BatchSetAssociativeCache, and the kernel ``dispatch_strategy`` selects must
# reproduce the scalar cache's hit/miss statistics bit-exactly, on a
# processor-shaped stream (issue-order loads with merged secondary misses,
# commit-order write-through stores interleaved).

@dataclass(frozen=True)
class ReplayOutcome:
    """Result of replaying one recorded stream through a batch kernel."""

    #: Statistics accumulated by the batch cache over the replay.
    stats: CacheStats
    #: Kernel name reported by ``dispatch_strategy`` for the replayed batch.
    strategy: str
    #: Number of accesses replayed.
    accesses: int
    #: Per-access hit mask returned by the kernel.
    hits: np.ndarray

    def matches(self, stats: CacheStats) -> bool:
        """True when the batch statistics equal ``stats`` exactly."""
        return self.stats == stats


def batch_cache_like(cache: SetAssociativeCache) -> BatchSetAssociativeCache:
    """Build a cold batch cache mirroring a scalar cache's configuration.

    Geometry, placement function, write policy and replacement policy are
    carried over verbatim (the index function object is shared — batch
    caches only read it; a configured random policy's draw seed is
    preserved), so replaying the scalar cache's access stream from cold must
    reproduce its statistics exactly.
    """
    return BatchSetAssociativeCache(
        size_bytes=cache.size_bytes,
        block_size=cache.block_size,
        ways=cache.ways,
        index_function=cache.index_function,
        replacement=cache.replacement,
        write_policy=cache.write_policy,
        name=f"{cache.name}-replay",
    )


def replay_access_stream(
    addresses: Union[np.ndarray, Sequence[int]],
    is_write: Union[np.ndarray, Sequence[bool]],
    cache: SetAssociativeCache,
) -> ReplayOutcome:
    """Replay a recorded ``(address, is_store)`` stream through the batch engine.

    ``cache`` is the scalar cache whose configuration the batch kernel must
    mirror — typically the L1 of a finished processor simulation, in which
    case ``ReplayOutcome.matches(cache.stats)`` asserts the batch kernel and
    the scalar model agree bit-exactly on the whole stream.

    The replayed batch cache starts cold, so the stream must be the
    *complete* access history of ``cache`` since its own cold start.
    """
    batch = AddressBatch.from_arrays(addresses, is_write)
    mirror = batch_cache_like(cache)
    strategy = mirror.dispatch_strategy(batch)
    hits = mirror.run(batch)
    return ReplayOutcome(stats=mirror.stats, strategy=strategy,
                         accesses=len(batch), hits=hits)
