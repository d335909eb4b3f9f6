"""Out-of-order superscalar processor model (the paper's Section 4 machine).

The model is a trace-driven timing simulator: it walks the committed dynamic
instruction stream in program order and computes, for every instruction, the
cycles at which it is fetched, dispatched, issued, completed and committed,
subject to the machine's resource limits:

* 4-wide fetch, dispatch and commit;
* a 32-entry reorder buffer;
* two physical register files (integer and floating point) of 64 registers,
  allocated at dispatch and released at commit;
* the Table 1 functional units with their latencies and repeat rates;
* a 2K-entry bimodal branch predictor — a misprediction stalls fetch until
  the branch resolves;
* a lockup-free, 2-cycle-hit, write-through/no-write-allocate L1 data cache
  with 8 MSHRs and a 20-cycle miss penalty to an infinite L2 over a 64-bit
  bus (modelled by :class:`~repro.cpu.dcache.DataCacheModel`);
* store-buffer forwarding for loads that depend on buffered stores; memory
  dependences are otherwise speculated perfectly (ARB-style), matching the
  paper's machine;
* optionally, the 1K-entry tagless stride address predictor, which lets a
  confidently-and-correctly predicted load start its cache access in parallel
  with its address computation — removing both the XOR-in-critical-path
  penalty and one cycle of effective hit time.

Dependences between instructions are honoured through register ready times
(renaming removes all false dependences, so only true RAW dependences carry
timing).  The approach — a single in-order pass with resource state carried
in "next free" structures — reproduces the first-order behaviour of an
out-of-order core at a small fraction of the cost of an event-driven model,
which is what makes the Table 2 sweep (18 programs x 6 configurations)
practical in pure Python.

The same recurrence also runs compiled, as ``repro_ooo_run`` of
:mod:`repro.engine.ckernels`: one C call per (program, machine) over the
program's :class:`~repro.cpu.program.ProgramColumns`, with the functional L1
a :class:`~repro.engine.batch_cache.BatchSetAssociativeCache` whose set
indices come from the engine's vectorized placement functions.
:meth:`OutOfOrderProcessor.run` takes that route (``dispatch_strategy``
``"compiled-ooo-core"``) on a fresh processor with the vectorized index
engine, its own data-cache model and a C compiler; everything else runs the
Python core (``"python-ooo-core"``), which stays the oracle.  Results are
identical either way; the Python state (``dcache``, the predictors, ...)
catches up with a compiled run by replaying it when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..cache.set_assoc import SetAssociativeCache, WritePolicy
from ..core.index import make_index_function
from .address_predictor import StrideAddressPredictor
from .branch_predictor import BimodalBranchPredictor
from .dcache import DataCacheModel, DataCacheTiming
from .functional_units import FunctionalUnitPool
from .isa import FP_REGS, INT_REGS, Instruction, OpClass, is_fp_register
from .lsq import StoreForwardingBuffer
from .program import OP_CODES, Program, ProgramColumns
from .resources import ThroughputLimiter, WindowResource

if TYPE_CHECKING:
    import numpy as np

    from ..engine.batch_cache import BatchSetAssociativeCache

__all__ = ["ProcessorConfig", "SimulationResult", "CompiledRun",
           "OutOfOrderProcessor"]


@dataclass(frozen=True)
class ProcessorConfig:
    """Configuration of the modelled machine (defaults follow the paper)."""

    fetch_width: int = 4
    commit_width: int = 4
    rob_entries: int = 32
    int_physical_registers: int = 64
    fp_physical_registers: int = 64
    branch_predictor_entries: int = 2048
    decode_latency: int = 1
    misprediction_redirect_penalty: int = 1

    # L1 data cache geometry and placement scheme.
    cache_size_bytes: int = 8 * 1024
    cache_block_size: int = 32
    cache_ways: int = 2
    index_scheme: str = "a2"
    index_address_bits: int = 19
    #: "reference" evaluates the placement function with scalar GF(2)
    #: division; "vectorized" runs the compiled core (see the module
    #: docstring) or, without it, evaluates the placement through the
    #: engine's per-byte XOR tables (same IPC and miss ratios either way).
    index_engine: str = "reference"

    # Cache timing.
    cache_hit_time: int = 2
    cache_miss_penalty: int = 20
    xor_in_critical_path: bool = False
    xor_penalty: int = 1
    cache_ports: int = 2
    mshr_entries: int = 8
    bus_cycles_per_line: int = 4

    # Memory address prediction.
    address_prediction: bool = False
    address_predictor_entries: int = 1024

    def __post_init__(self) -> None:
        if self.fetch_width < 1 or self.commit_width < 1:
            raise ValueError("pipeline widths must be positive")
        if self.rob_entries < 1:
            raise ValueError("rob_entries must be positive")
        if self.int_physical_registers < 32 or self.fp_physical_registers < 32:
            raise ValueError("physical register files must cover the architectural state")
        if self.decode_latency < 0 or self.misprediction_redirect_penalty < 0:
            raise ValueError("latencies must be non-negative")
        if self.index_engine not in ("reference", "vectorized"):
            raise ValueError(
                f"unknown index_engine {self.index_engine!r}; "
                "expected 'reference' or 'vectorized'"
            )
        # Cache geometry: surface impossible configurations at construction
        # instead of deep inside build_cache() mid-experiment (the same
        # uniform validation the cache classes themselves apply).
        if self.cache_block_size < 1 or self.cache_block_size & (self.cache_block_size - 1):
            raise ValueError("cache_block_size must be a positive power of two")
        if self.cache_ways < 1:
            raise ValueError("cache_ways must be at least 1")
        if self.cache_size_bytes < self.cache_block_size * self.cache_ways:
            raise ValueError("cache must hold at least one set")
        if self.cache_size_bytes % (self.cache_block_size * self.cache_ways):
            raise ValueError(
                "cache_size_bytes must be a multiple of cache_block_size * "
                f"cache_ways ({self.cache_block_size * self.cache_ways}), "
                f"got {self.cache_size_bytes}"
            )
        num_sets = self.cache_size_bytes // (self.cache_block_size * self.cache_ways)
        if num_sets & (num_sets - 1):
            raise ValueError(f"number of sets must be a power of two, got {num_sets}")
        # The placement scheme: resolving it rejects an unknown name (and
        # a geometry the scheme cannot index) here, not mid-experiment.
        self.index_function()
        # Predictor tables are direct-mapped on power-of-two masks; their
        # classes validate too, but only when the predictor is built —
        # with address_prediction=False a bad entry count would otherwise
        # lurk until someone flips prediction on.
        for label, entries in (("branch_predictor_entries",
                                self.branch_predictor_entries),
                               ("address_predictor_entries",
                                self.address_predictor_entries)):
            if entries < 1 or entries & (entries - 1):
                raise ValueError(f"{label} must be a positive power of two")
        # Cache timing: DataCacheTiming applies its own uniform validation;
        # constructing it here surfaces degenerate port/MSHR/latency values
        # at config construction time.
        self.cache_timing()

    def cache_timing(self) -> DataCacheTiming:
        """The :class:`DataCacheTiming` implied by this configuration."""
        return DataCacheTiming(
            hit_time=self.cache_hit_time,
            miss_penalty=self.cache_miss_penalty,
            xor_in_critical_path=self.xor_in_critical_path,
            xor_penalty=self.xor_penalty,
            ports=self.cache_ports,
            mshr_entries=self.mshr_entries,
            bus_cycles_per_line=self.bus_cycles_per_line,
        )

    def index_function(self):
        """The scalar placement function of the L1 data cache."""
        return _index_function(self.index_scheme, self.cache_size_bytes
                               // (self.cache_block_size * self.cache_ways),
                               self.cache_ways, self.index_address_bits)

    def build_cache(self) -> SetAssociativeCache:
        """Construct the L1 data cache described by this configuration."""
        index_fn = self.index_function()
        if self.index_engine == "vectorized":
            # Local import: the cpu layer stays importable without pulling
            # the batch engine in unless the fast index path is requested.
            from ..engine.index_vec import PlacementIndexing
            index_fn = PlacementIndexing(index_fn, self.cache_ways)
        return SetAssociativeCache(
            size_bytes=self.cache_size_bytes,
            block_size=self.cache_block_size,
            ways=self.cache_ways,
            index_function=index_fn,
            write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
        )


@lru_cache(maxsize=64)
def _index_function(scheme: str, num_sets: int, ways: int, address_bits: int):
    # Index functions are immutable, so equal configurations share one.
    return make_index_function(scheme, num_sets=num_sets, ways=ways,
                               address_bits=address_bits)


@dataclass
class SimulationResult:
    """Aggregate outcome of simulating one program on one configuration."""

    program: str
    config: ProcessorConfig
    instructions: int
    cycles: int
    load_miss_ratio: float
    store_miss_ratio: float
    branch_misprediction_ratio: float
    address_prediction_coverage: float
    address_prediction_accuracy: float
    loads: int
    stores: int
    branches: int
    forwarded_loads: int
    op_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def load_miss_ratio_percent(self) -> float:
        """Load miss ratio expressed in percent (as in the paper's tables)."""
        return 100.0 * self.load_miss_ratio


@dataclass(frozen=True)
class CompiledRun:
    """What a compiled-core run leaves besides its :class:`SimulationResult`:
    the counters the Python core keeps on its ``dcache`` and the functional
    L1, for the test suite's differential harness
    (``tests/fuzz_harness.py``)."""

    #: The L1 after the run (its ``stats`` and ``resident_blocks()``).
    cache: BatchSetAssociativeCache
    #: ``load_accesses``, ``store_accesses``, ``merged_misses`` and
    #: ``mshr_stall_cycles``, as :class:`DataCacheModel` counts them.
    dcache_counters: Dict[str, int]
    #: Per simulated instruction: did it reach the cache.
    accessed: np.ndarray
    columns: ProgramColumns

    def stream(self) -> Tuple[List[int], List[bool]]:
        """The functional ``(addresses, is_store)`` access stream, as a
        recording :class:`DataCacheModel` lists it."""
        accessed = self.accessed
        return (self.columns.addresses[accessed].tolist(),
                (self.columns.ops[accessed]
                 == OP_CODES[OpClass.STORE]).tolist())


#: Counters the compiled core returns that the Python core keeps on its
#: data-cache model.
_DCACHE_COUNTERS = ("load_accesses", "store_accesses", "merged_misses",
                    "mshr_stall_cycles")


@lru_cache(maxsize=1)
def _unit_table():
    """The functional units as ``repro_ooo_run`` takes them: per op code,
    latency, repeat interval and which units serve it (read-only)."""
    import numpy as np

    pool = FunctionalUnitPool()
    table = np.array([[pool.timing(op).latency, pool.timing(op).repeat]
                      + [int(unit.serves(op)) for unit in pool.units]
                      for op in OpClass.ALL], dtype=np.int64)
    table.flags.writeable = False
    return table


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class OutOfOrderProcessor:
    """Timing model of the 4-way out-of-order core.

    The Python core's state (``dcache``, ``branch_predictor``,
    ``address_predictor``, ``fu_pool``, ``store_buffer`` and the pipeline
    windows) is built on first use; after a compiled run it is rebuilt by
    replaying that run on the Python core, so it always reads as if the
    run had gone through the Python core.
    """

    #: Attributes of the Python core's state (see :meth:`_sync`).
    _STATE = frozenset({"dcache", "branch_predictor", "address_predictor",
                        "fu_pool", "store_buffer", "_fetch", "_commit",
                        "_rob", "_int_regs", "_fp_regs", "_fetch_floor"})

    def __init__(self, config: Optional[ProcessorConfig] = None,
                 cache_model: Optional[DataCacheModel] = None) -> None:
        self.config = config or ProcessorConfig()
        self._cache_model = cache_model
        self._built = False
        self._ran = False
        # The compiled run the Python state has not replayed yet.
        self._unreplayed: Optional[Tuple[Program, Optional[int]]] = None
        #: The :class:`CompiledRun` of the run, when it was compiled.
        self.last_compiled_run: Optional[CompiledRun] = None

    def __getattr__(self, name: str):
        # Only reached while the Python state is not built yet.
        if name not in OutOfOrderProcessor._STATE:
            raise AttributeError(name)
        self._sync()
        return self.__dict__[name]

    def _sync(self) -> None:
        """Build the Python core's state, then replay the compiled run."""
        if not self._built:
            self._built = True
            cfg = self.config
            cache_model = self._cache_model
            if cache_model is None:
                cache_model = DataCacheModel(cfg.build_cache(),
                                             cfg.cache_timing())
            self.dcache = cache_model
            self.branch_predictor = BimodalBranchPredictor(
                cfg.branch_predictor_entries)
            self.address_predictor = (
                StrideAddressPredictor(cfg.address_predictor_entries)
                if cfg.address_prediction else None
            )
            self.fu_pool = FunctionalUnitPool()
            self.store_buffer = StoreForwardingBuffer()

            self._fetch = ThroughputLimiter(cfg.fetch_width, "fetch")
            self._commit = ThroughputLimiter(cfg.commit_width, "commit")
            self._rob = WindowResource(cfg.rob_entries, "rob")
            self._int_regs = WindowResource(cfg.int_physical_registers, "int-prf")
            self._fp_regs = WindowResource(cfg.fp_physical_registers, "fp-prf")
            # Cycle before which fetch may not proceed (raised by mispredictions).
            self._fetch_floor = 0
        pending, self._unreplayed = self._unreplayed, None
        if pending is not None:
            self._run_python(*pending)

    # ------------------------------------------------------------------ #

    def dispatch_strategy(self) -> str:
        """The core :meth:`run` takes: ``"compiled-ooo-core"`` (only on a
        processor whose state has not been read yet, built without a
        ``cache_model``, on the vectorized index engine, with the compiled
        kernels available) or ``"python-ooo-core"``."""
        if (self._built or self._cache_model is not None
                or self.config.index_engine != "vectorized"):
            return "python-ooo-core"
        # Local import: the cpu layer stays importable without the engine.
        from ..engine import ckernels
        return ("compiled-ooo-core" if ckernels.available()
                else "python-ooo-core")

    def run(self, program: Program,
            max_instructions: Optional[int] = None) -> SimulationResult:
        """Simulate ``program`` and return aggregate statistics.

        The simulation is fully deterministic: the model draws no randomness
        of its own (every stochastic choice lives in the program generator),
        so running the same program on a freshly built processor always
        produces identical results — the property the differential fuzz
        harness of the test suite (``tests/fuzz_harness.py``) depends on
        and audits.
        :meth:`dispatch_strategy` names the core that runs it.  A processor
        runs one program (its pipeline state would leak into a second run),
        so a second call raises ``RuntimeError``.
        """
        if max_instructions is not None and max_instructions < 0:
            raise ValueError("max_instructions must be non-negative")
        if self._ran:
            raise RuntimeError("this OutOfOrderProcessor has already run a "
                               "program; build a new one for the next run")
        self._ran = True
        if self.dispatch_strategy() == "compiled-ooo-core":
            columns = program.columns(max_instructions)
            if columns is not None:
                return self._run_compiled(program, columns, max_instructions)
        self._sync()
        return self._run_python(program, max_instructions)

    def _run_compiled(self, program: Program, columns: ProgramColumns,
                      max_instructions: Optional[int]) -> SimulationResult:
        """One ``repro_ooo_run`` call; ratios formed as the Python core
        forms them."""
        from ..engine import BatchSetAssociativeCache, ckernels

        cfg = self.config
        units = _unit_table()
        cache = BatchSetAssociativeCache(
            cfg.cache_size_bytes, cfg.cache_block_size, cfg.cache_ways,
            index_function=cfg.index_function(),
            write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE)
        blocks = columns.blocks(cfg.cache_block_size)
        state = cache._kernel_state()
        params = dict(
            fetch_width=cfg.fetch_width, commit_width=cfg.commit_width,
            rob_entries=cfg.rob_entries,
            int_physical_registers=cfg.int_physical_registers,
            fp_physical_registers=cfg.fp_physical_registers,
            decode_latency=cfg.decode_latency,
            redirect_penalty=cfg.misprediction_redirect_penalty,
            branch_entries=cfg.branch_predictor_entries,
            hit_time=cfg.cache_hit_time, miss_penalty=cfg.cache_miss_penalty,
            xor_penalty=cfg.xor_penalty if cfg.xor_in_critical_path else 0,
            ports=cfg.cache_ports, mshr_entries=cfg.mshr_entries,
            bus_cycles=cfg.bus_cycles_per_line,
            address_prediction=int(cfg.address_prediction),
            address_entries=cfg.address_predictor_entries,
            confidence_threshold=StrideAddressPredictor.CONFIDENCE_THRESHOLD,
            forward_latency=StoreForwardingBuffer.FORWARD_LATENCY,
            num_regs=INT_REGS + FP_REGS, first_fp_reg=INT_REGS,
            num_address_ids=columns.num_address_ids,
            num_units=units.shape[1] - 2,
            op_load=OP_CODES[OpClass.LOAD], op_store=OP_CODES[OpClass.STORE],
            op_branch=OP_CODES[OpClass.BRANCH])
        accessed, counts, l1_counts = ckernels.run_ooo(
            columns.ops, columns.dests, columns.srcs, columns.addr_ids,
            columns.addresses, blocks, columns.pcs, columns.taken,
            params=params, units=units, level=state)
        cache._kernel_done(state["io"], l1_counts)
        self._unreplayed = (program, max_instructions)
        self.last_compiled_run = CompiledRun(
            cache, {name: counts[name] for name in _DCACHE_COUNTERS},
            accessed, columns)

        stats = cache.stats
        op_counts = columns.op_counts()
        predicting = cfg.address_prediction
        return SimulationResult(
            program=program.name,
            config=cfg,
            instructions=len(columns),
            cycles=counts["cycles"],
            load_miss_ratio=stats.load_miss_ratio,
            store_miss_ratio=_ratio(stats.store_misses, stats.stores),
            branch_misprediction_ratio=_ratio(counts["mispredictions"],
                                              counts["branches"]),
            address_prediction_coverage=(
                _ratio(counts["address_confident"], counts["address_lookups"])
                if predicting else 0.0),
            address_prediction_accuracy=(
                _ratio(counts["address_correct"], counts["address_confident"])
                if predicting else 0.0),
            loads=op_counts.get(OpClass.LOAD, 0),
            stores=op_counts.get(OpClass.STORE, 0),
            branches=op_counts.get(OpClass.BRANCH, 0),
            forwarded_loads=counts["forwarded_loads"],
            op_counts=op_counts,
        )

    def _run_python(self, program: Program,
                    max_instructions: Optional[int]) -> SimulationResult:
        """The Python core: one loop iteration per dynamic instruction."""
        cfg = self.config
        stream = program.instructions()
        if max_instructions is not None:
            stream = islice(stream, max_instructions)
        # The loop below runs once per dynamic instruction, so everything it
        # touches is bound to a local first.
        decode_latency = cfg.decode_latency
        redirect_penalty = cfg.misprediction_redirect_penalty
        fetch = self._fetch.record
        commit = self._commit.record
        rob_earliest, rob_acquire = self._rob.earliest_acquire, self._rob.acquire
        regfile_of = [self._fp_regs if is_fp_register(reg) else self._int_regs
                      for reg in range(INT_REGS + FP_REGS)]
        fu_issue = self.fu_pool.issue
        branch_update = self.branch_predictor.update
        dcache_store = self.dcache.store
        record_store = self.store_buffer.record_store
        execute_load = self._execute_load
        LOAD, STORE, BRANCH = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH
        fetch_floor = self._fetch_floor
        reg_ready = [0] * (INT_REGS + FP_REGS)
        prev_commit = 0
        forwarded = 0
        op_counts: Dict[str, int] = {}

        for seq, inst in enumerate(stream):
            op = inst.op
            op_counts[op] = op_counts.get(op, 0) + 1

            fetch_cycle = fetch(fetch_floor)
            dispatch_cycle = rob_earliest(fetch_cycle + decode_latency)
            dest = inst.dest
            if dest is not None:
                regfile = regfile_of[dest]
                dispatch_cycle = regfile.earliest_acquire(dispatch_cycle)

            operands_ready = dispatch_cycle
            for src in inst.srcs:
                if reg_ready[src] > operands_ready:
                    operands_ready = reg_ready[src]

            # Execute; ``complete`` is also when the result is ready.
            if op == LOAD:
                complete, was_forwarded = execute_load(inst, seq, operands_ready)
                forwarded += was_forwarded
            elif op == BRANCH:
                _, complete = fu_issue(op, operands_ready)
                if not branch_update(inst.pc, inst.taken):
                    # Fetch may not proceed past a mispredicted branch until
                    # it resolves.
                    resume = complete + redirect_penalty
                    if resume > fetch_floor:
                        fetch_floor = resume
            else:
                _, complete = fu_issue(op, operands_ready)

            commit_cycle = complete + 1
            if commit_cycle < prev_commit:
                commit_cycle = prev_commit
            commit_cycle = prev_commit = commit(commit_cycle)

            rob_acquire(dispatch_cycle, commit_cycle)
            if dest is not None:
                regfile.acquire(dispatch_cycle, commit_cycle)
                reg_ready[dest] = complete

            if op == STORE:
                # The store drains to the write-through cache after commit.
                dcache_store(inst.address, commit_cycle)
                record_store(seq, inst.address, complete, commit_cycle)

        self._fetch_floor = fetch_floor
        cache_stats = self.dcache.cache.stats
        return SimulationResult(
            program=program.name,
            config=cfg,
            instructions=sum(op_counts.values()),
            cycles=prev_commit,
            load_miss_ratio=cache_stats.load_miss_ratio,
            store_miss_ratio=(cache_stats.store_misses / cache_stats.stores
                              if cache_stats.stores else 0.0),
            branch_misprediction_ratio=self.branch_predictor.misprediction_ratio,
            address_prediction_coverage=(self.address_predictor.coverage
                                         if self.address_predictor else 0.0),
            address_prediction_accuracy=(self.address_predictor.accuracy
                                         if self.address_predictor else 0.0),
            loads=op_counts.get(OpClass.LOAD, 0),
            stores=op_counts.get(OpClass.STORE, 0),
            branches=op_counts.get(OpClass.BRANCH, 0),
            forwarded_loads=forwarded,
            op_counts=op_counts,
        )

    # ------------------------------------------------------------------ #

    def _execute_load(self, inst: Instruction, seq: int, operands_ready: int):
        """Return ``(ready_cycle, forwarded)`` for the load numbered ``seq``."""
        addr_start, addr_done = self.fu_pool.issue(OpClass.LOAD, operands_ready)

        predicted_ok = False
        if self.address_predictor is not None:
            prediction = self.address_predictor.predict(inst.pc)
            correct = self.address_predictor.update(inst.pc, inst.address)
            predicted_ok = prediction.usable and correct

        forwarded_ready = self.store_buffer.forward(seq, inst.address, addr_done)
        if forwarded_ready is not None:
            return forwarded_ready, True

        if predicted_ok:
            # The speculative access was launched with the predicted line in
            # parallel with the address computation; the verification against
            # the real address happens when the add completes, so the data is
            # usable no earlier than that.
            timing = self.dcache.load(inst.address, addr_start,
                                      predicted_index_available=True)
            ready = max(timing.ready_cycle, addr_done)
        else:
            timing = self.dcache.load(inst.address, addr_done,
                                      predicted_index_available=False)
            ready = timing.ready_cycle
        return ready, False
