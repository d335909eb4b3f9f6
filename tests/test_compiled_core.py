"""The compiled out-of-order core against the Python core.

Every case runs through :func:`fuzz_harness.run_differential`, whose
third arm runs the program on a fresh vectorized-engine processor — the
compiled core (``repro_ooo_run``) when the C kernels are available — and
compares every result field, ``op_counts`` key order, the ``CacheStats``,
the data-cache counters, the resident blocks and the functional access
stream with the Python core's.  The ``kernel_path`` fixture runs each case
on both tiers: on the fallback tier the arm runs the Python core again and
is not compared.
"""

import dataclasses

import numpy as np
import pytest

from repro.cpu.dcache import DataCacheModel
from repro.cpu.isa import Instruction, OpClass
from repro.cpu.processor import OutOfOrderProcessor, ProcessorConfig
from repro.cpu.program import Program
from repro.engine import ckernels

from fuzz_harness import FuzzParams, build_fuzz_program, run_differential

VECTORIZED = ProcessorConfig(index_engine="vectorized")


def differential(program, config=VECTORIZED, max_instructions=None):
    outcome = run_differential(program, FuzzParams(), max_instructions=
                               max_instructions, config=config)
    outcome.assert_ok()
    return outcome


def check_tier(outcome, kernel_path):
    """The compiled arm ran exactly where the C kernels are in use."""
    assert (outcome.compiled is not None) == (kernel_path == "compiled")


def load(pc, dest, address, srcs=(0,)):
    return Instruction(pc=pc, op=OpClass.LOAD, dest=dest, srcs=srcs,
                       address=address)


def store(pc, address, srcs=(0, 1)):
    return Instruction(pc=pc, op=OpClass.STORE, srcs=srcs, address=address)


def test_empty_program(kernel_path):
    outcome = differential(Program.from_list("empty", []))
    check_tier(outcome, kernel_path)
    assert outcome.vectorized.instructions == 0
    assert outcome.vectorized.op_counts == {}


@pytest.mark.parametrize("limit", [0, 1, 137])
def test_max_instructions(kernel_path, limit):
    program, params = build_fuzz_program(4)
    outcome = differential(program, max_instructions=limit)
    check_tier(outcome, kernel_path)
    assert outcome.vectorized.instructions == limit


def test_store_to_load_forwarding(kernel_path):
    instructions = []
    for i in range(50):
        address = 64 * (i % 7)
        instructions += [store(8 * i, address), load(8 * i + 4, 4 + i % 20,
                                                     address)]
    outcome = differential(Program.from_list("forward", instructions))
    check_tier(outcome, kernel_path)
    assert outcome.vectorized.forwarded_loads > 0


def test_mshr_full_stalls(kernel_path):
    """Independent loads to distinct lines overrun two MSHRs."""
    instructions = [load(4 * i, 4 + i % 20, 4096 * i) for i in range(200)]
    config = dataclasses.replace(VECTORIZED, mshr_entries=2)
    program = Program.from_list("mshr", instructions)
    outcome = differential(program, config=config)
    check_tier(outcome, kernel_path)
    processor = OutOfOrderProcessor(config)
    processor.run(program)
    assert processor.dcache.mshr_stall_cycles > 0


def test_merged_miss_waits_for_a_hit_time(kernel_path):
    """A secondary miss issued just before its line's fill completes is
    ready no earlier than a hit would be."""
    instructions = [load(0, 4, 0x2000),
                    Instruction(pc=4, op=OpClass.INT_MUL, dest=5, srcs=(0,)),
                    load(8, 6, 0x2008, srcs=(5,))]
    config = dataclasses.replace(VECTORIZED, cache_hit_time=8,
                                 cache_miss_penalty=4)
    program = Program.from_list("merge", instructions)
    check_tier(differential(program, config=config), kernel_path)
    processor = python_core(config)
    result = processor.run(program)
    assert processor.dcache.merged_misses == 1
    # The second load issues at cycle 11 and waits out a full hit time,
    # past its line's fill at cycle 14.
    assert result.cycles == 11 + 8 + 1


@pytest.mark.parametrize("prediction", [False, True])
def test_xor_in_critical_path(kernel_path, prediction):
    """Strided loads, the stride broken every 50th: with prediction most
    of them skip the XOR cycle, and a few confident predictions miss."""
    instructions = [load(0x400, 4 + i % 20, 0x10000 + 8 * i + 4096 * (i // 50))
                    for i in range(300)]
    config = dataclasses.replace(VECTORIZED, index_scheme="a2-Hp-Sk",
                                 xor_in_critical_path=True,
                                 address_prediction=prediction)
    outcome = differential(Program.from_list("xor", instructions),
                           config=config)
    check_tier(outcome, kernel_path)
    result = outcome.vectorized
    assert (result.address_prediction_coverage > 0.5) == prediction
    assert (0 < result.address_prediction_accuracy < 1) == prediction


@pytest.mark.parametrize("scheme", ["a2", "a2-Hp-Sk"])
@pytest.mark.parametrize("ways", [1, 2, 4])
def test_l1_organisations(kernel_path, scheme, ways):
    program, _ = build_fuzz_program(11)
    config = dataclasses.replace(VECTORIZED, index_scheme=scheme,
                                 cache_ways=ways)
    check_tier(differential(program, config=config), kernel_path)


@pytest.mark.parametrize("overrides", [
    # The register files bind before the reorder buffer.
    dict(rob_entries=128, int_physical_registers=32,
         fp_physical_registers=32),
    # A merged miss can complete before a hit would.
    dict(cache_hit_time=8, cache_miss_penalty=4),
    dict(cache_ports=1, fetch_width=8, commit_width=2, decode_latency=0,
         bus_cycles_per_line=16, misprediction_redirect_penalty=5),
], ids=["register-bound", "slow-hit", "narrow"])
def test_machine_variants(kernel_path, overrides):
    for seed in (12, 13, 14):
        program, _ = build_fuzz_program(seed)
        config = dataclasses.replace(VECTORIZED, **overrides)
        check_tier(differential(program, config=config), kernel_path)


def python_core(config):
    """A processor that always runs the Python core."""
    return OutOfOrderProcessor(config, DataCacheModel(config.build_cache(),
                                                      config.cache_timing()))


def test_second_run_on_one_processor(kernel_path):
    """A processor runs one program: its pipeline state would leak into a
    second run, so that run raises, on either core, before simulating."""
    first, _ = build_fuzz_program(6)
    second, _ = build_fuzz_program(7)
    processor, oracle = OutOfOrderProcessor(VECTORIZED), python_core(VECTORIZED)
    assert processor.dispatch_strategy() == (
        "compiled-ooo-core" if kernel_path == "compiled" else "python-ooo-core")
    assert processor.run(first) == oracle.run(first)
    for core in (processor, oracle):
        with pytest.raises(RuntimeError, match="already run a program"):
            core.run(second)
    assert processor.dcache.cache.stats == oracle.dcache.cache.stats
    assert (processor.last_compiled_run is not None) == (
        kernel_path == "compiled")


def test_state_read_after_a_compiled_run(kernel_path):
    program, _ = build_fuzz_program(8)
    config = dataclasses.replace(VECTORIZED, address_prediction=True)
    processor, oracle = OutOfOrderProcessor(config), python_core(config)
    processor.run(program)
    oracle.run(program)
    run = processor.last_compiled_run
    assert (run is not None) == (kernel_path == "compiled")
    if run is not None:
        assert run.cache.stats == processor.dcache.cache.stats
        for counter, value in run.dcache_counters.items():
            assert getattr(processor.dcache, counter) == value
    for name in ("load_accesses", "store_accesses", "merged_misses",
                 "mshr_stall_cycles"):
        assert getattr(processor.dcache, name) == getattr(oracle.dcache, name)
    assert processor.dcache.cache.stats == oracle.dcache.cache.stats
    assert (processor.branch_predictor.mispredictions
            == oracle.branch_predictor.mispredictions)
    assert (processor.address_predictor.correct_predictions
            == oracle.address_predictor.correct_predictions)
    assert processor.store_buffer.forwards == oracle.store_buffer.forwards


def test_routes():
    program = Program.from_list("one", [load(0, 4, 0)])
    assert OutOfOrderProcessor().dispatch_strategy() == "python-ooo-core"
    assert python_core(VECTORIZED).dispatch_strategy() == "python-ooo-core"
    read = OutOfOrderProcessor(VECTORIZED)
    read.fu_pool  # building the Python state commits the processor to it
    assert read.dispatch_strategy() == "python-ooo-core"
    read.run(program)
    assert read.last_compiled_run is None


@pytest.mark.parametrize("odd", [
    Instruction(pc=0, op=OpClass.BRANCH, srcs=(0,), taken=2),
    load(0, 4, 2**63),
], ids=["non-bool-outcome", "address-past-int64"])
def test_unfit_program_runs_on_the_python_core(kernel_path, odd):
    """An instruction the columns cannot hold takes the Python core."""
    program = Program.from_list("odd", [load(0, 5, 64), odd])
    assert program.columns() is None
    processor = OutOfOrderProcessor(VECTORIZED)
    result = processor.run(program)
    assert processor.last_compiled_run is None
    assert result == python_core(VECTORIZED).run(program)


def test_columns_are_built_once_per_listed_program():
    listed = Program.from_list("listed", [load(0, 4, 64), store(4, 64)])
    assert listed.columns() is listed.columns()
    assert listed.columns(1).ops.tolist() == [7]
    streamed, _ = build_fuzz_program(3)
    assert streamed.columns() is not streamed.columns()


# --------------------------------------------------------------------- #
# malformed arguments fail in the wrapper, before the C call
# --------------------------------------------------------------------- #

def kernel_args():
    """Valid ``ckernels.run_ooo`` arguments for a three-instruction
    program on the default machine."""
    from repro.cpu.processor import _unit_table
    from repro.engine import BatchSetAssociativeCache

    columns = Program.from_list("args", [
        load(0, 4, 64), store(4, 64),
        Instruction(pc=8, op=OpClass.BRANCH, srcs=(4,), taken=True),
    ]).columns()
    cache = BatchSetAssociativeCache(8192, 32, 2)
    blocks = columns.blocks(32)
    units = _unit_table()
    params = {name: least for name, least in ckernels.OOO_PARAMS.items()}
    params.update(num_regs=64, first_fp_reg=32, num_units=units.shape[1] - 2,
                  num_address_ids=columns.num_address_ids, op_load=7,
                  op_store=8, op_branch=9)
    return dict(ops=columns.ops, dests=columns.dests, srcs=columns.srcs,
                addr_ids=columns.addr_ids, addresses=columns.addresses,
                blocks=blocks, pcs=columns.pcs, taken=columns.taken,
                params=params, units=units,
                level=cache._kernel_state())


def test_kernel_args_are_valid(compiled_tier):
    accessed, counters, _ = ckernels.run_ooo(**kernel_args())
    assert accessed.tolist() == [True, True, False]
    assert counters["load_accesses"] == counters["store_accesses"] == 1


def bad(name, value):
    def spoil(args):
        args[name] = value
    spoil.__name__ = name
    return spoil


def bad_param(name, value):
    def spoil(args):
        args["params"] = dict(args["params"], **{name: value})
    spoil.__name__ = name
    return spoil


def bad_level(args):
    args["level"] = dict(args["level"], tags=np.zeros((2, 3)))


def bad_place(args):
    from repro.core.index import BitSelectIndexing
    from repro.engine import placement

    # The cache has 128 sets; this placement reaches 255.
    args["level"] = dict(args["level"],
                         place=placement(BitSelectIndexing(256), 1))


def bad_units(args):
    units = args["units"].copy()
    units[3, 2:] = 0  # an op no unit serves
    args["units"] = units


@pytest.mark.parametrize("spoil", [
    bad("ops", np.array([0, 1, 2], dtype=np.int32)),
    bad("ops", np.array([0, 1, 10])),
    bad("dests", np.array([4, -2, -1])),
    bad("dests", np.array([4, -1])),
    bad("srcs", np.array([[0], [64], [4]])),
    bad("srcs", np.zeros(3, dtype=np.int64)),
    bad("addr_ids", np.array([0, 5, 0])),
    bad("addresses", np.array([64, -64, 0])),
    bad("blocks", np.array([2, -1, 0])),
    bad("pcs", np.array([0, -4, 8])),
    bad("taken", np.zeros(3, dtype=bool)),
    bad("params", [1, 2, 3]),
    bad_param("rob_entries", 0),
    bad_param("fetch_width", 2.5),
    bad_param("address_prediction", 2),
    bad_param("first_fp_reg", 65),
    bad_param("op_load", 10),
    bad_param("num_units", 3),
    bad_units,
    bad("units", np.ones(12, dtype=np.int64)),
    bad_level,
    bad_place,
], ids=lambda spoil: spoil.__name__)
def test_malformed_arguments_raise_before_the_call(kernel_path, monkeypatch,
                                                   spoil):
    args = kernel_args()
    spoil(args)
    monkeypatch.setattr(ckernels, "_library", lambda: pytest.fail(
        "malformed arguments reached the library"))
    with pytest.raises(ValueError):
        ckernels.run_ooo(**args)
