"""The compiled program builder against the instruction generator.

``repro_build_program`` (:func:`repro.engine.ckernels.build_program_columns`)
replays :func:`repro.cpu.workloads._instruction_stream` draw for draw and
writes the columns of the out-of-order core directly.  Each differential
case compares every :class:`~repro.cpu.program.ProgramColumns` field —
values, dtype and shape — and the address-id count with the columns built
from the generator's :class:`~repro.cpu.isa.Instruction` objects.
"""

import numpy as np
import pytest

from repro.cpu import workloads
from repro.cpu.processor import OutOfOrderProcessor, ProcessorConfig
from repro.cpu.program import ProgramColumns
from repro.cpu.workloads import (
    INSTRUCTION_MIXES,
    _generator_params,
    _instruction_stream,
    _program_columns,
    build_program,
    program_names,
)
from repro.engine import ckernels
from repro.experiments.config import TABLE2_CONFIGS
from repro.experiments.table2 import _table2_program_task
from repro.trace.workloads import _workload_columns

from fuzz_harness import build_fuzz_program

FIELDS = ("ops", "dests", "srcs", "addresses", "pcs", "taken", "addr_ids")


def oracle(name, length, seed):
    return ProgramColumns.build(list(_instruction_stream(name, length, seed)))


def assert_same_columns(columns, expected):
    for field in FIELDS:
        got, want = getattr(columns, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        assert got.shape == want.shape, field
        assert np.array_equal(got, want), field
    assert columns.num_address_ids == expected.num_address_ids


def cases(seeds, lengths):
    return [(name, seed, length) for name in program_names()
            for seed in seeds for length in lengths]


# All 18 programs at short and medium lengths for two seeds, and the CLI's
# Table 2 length for one; the full seed x length matrix runs as slow.
TIER1 = cases((0, 2027), (1, 2, 1000)) + cases((2027,), (12_000,))
FULL = [case for case in cases((0, 1, 2027, 12345), (1, 2, 7, 1000, 12_000))
        if case not in TIER1]


@pytest.mark.parametrize("name,seed,length", TIER1)
def test_compiled_builder_matches_the_generator(compiled_tier, name, seed,
                                                length):
    assert_same_columns(_program_columns(name, length, seed),
                        oracle(name, length, seed))


@pytest.mark.slow
@pytest.mark.parametrize("name,seed,length", FULL)
def test_compiled_builder_matches_the_generator_deep(compiled_tier, name,
                                                     seed, length):
    assert_same_columns(_program_columns(name, length, seed),
                        oracle(name, length, seed))


@pytest.mark.parametrize("name", ["gcc", "swim"])
def test_one_source_programs_have_one_source_column(compiled_tier, name):
    """``srcs`` is as wide as the widest instruction's sources: 1 when the
    program is one load or branch."""
    widths = set()
    for seed in range(40):
        columns = _program_columns(name, 1, seed)
        expected = oracle(name, 1, seed)
        assert_same_columns(columns, expected)
        widths.add(columns.srcs.shape[1])
    assert widths == {1, 2}


@pytest.mark.parametrize("name,length", [("tomcatv", 1), ("gcc", 2),
                                         ("fpppp", 1000)])
def test_program_columns_on_either_tier(kernel_path, name, length):
    """``build_program(...).columns()`` equals the generator's columns on
    the compiled tier and on the Python tier (which drains the generator)."""
    columns = build_program(name, length=length, seed=5).columns()
    assert_same_columns(columns, oracle(name, length, 5))


def test_built_programs_share_one_columns_object(kernel_path):
    program = build_program("swim", length=300, seed=3)
    whole = program.columns()
    assert program.columns() is whole
    head = program.columns(120)
    assert len(head) == 120
    for field in FIELDS:
        assert np.array_equal(getattr(head, field),
                              getattr(whole, field)[:120])
    assert program.columns(300) is whole
    # Streams without a columns source drain afresh on every call.
    streamed, _ = build_fuzz_program(3)
    assert streamed.columns() is not streamed.columns()


# --------------------------------------------------------------------- #
# malformed arguments fail in the wrapper, before the C call
# --------------------------------------------------------------------- #

def builder_args(name="gcc", length=50):
    addresses, writes, pcs = _workload_columns(name, length, 32, 17,
                                               with_pcs=True)
    return dict(length=length, seed=0,
                params=_generator_params(INSTRUCTION_MIXES[name]),
                addresses=addresses.view(np.int64),
                writes=writes.view(np.uint8), pcs=pcs)


def test_builder_args_are_valid(compiled_tier):
    ops, *_ = ckernels.build_program_columns(**builder_args())
    assert len(ops) == 50


def spoil_trace(args):
    for key in ("addresses", "writes", "pcs"):
        args[key] = args[key][:-1]


def spoil_param(name, value):
    def spoil(args):
        args["params"] = dict(args["params"], **{name: value})
    spoil.__name__ = f"{name}={value}"
    return spoil


def spoil(name, value):
    def spoil_(args):
        args[name] = value
    spoil_.__name__ = f"{name}={value!r}"
    return spoil_


def drop_param(args):
    args["params"] = {key: value for key, value in args["params"].items()
                      if key != "window"}


@pytest.mark.parametrize("spoil_args", [
    spoil_trace,
    spoil("length", 0),
    spoil("length", -3),
    spoil("writes", np.zeros(50, dtype=bool)),
    spoil("pcs", np.full(50, -4, dtype=np.int64)),
    spoil("addresses", np.zeros(50, dtype=np.uint64)),
    drop_param,
    spoil_param("window", 0),
    spoil_param("mem_cut", 1_000_001),
    spoil_param("flip_cut", -1),
    spoil_param("src_chance", 101),
    spoil_param("fp_memory", 2),
    spoil_param("base_regs", 32),
    spoil_param("pool_drop", 25),
    spoil_param("branch_sites", 0),
    spoil_param("ppm", 2.5),
    spoil_param("pc_step", 2**57),
    spoil_param("pc_step", np.int64(2**61)),
], ids=lambda spoil_args: spoil_args.__name__)
def test_malformed_arguments_raise_before_the_call(kernel_path, monkeypatch,
                                                   spoil_args):
    args = builder_args()
    spoil_args(args)
    monkeypatch.setattr(ckernels, "_library", lambda: pytest.fail(
        "malformed arguments reached the library"))
    with pytest.raises(ValueError):
        ckernels.build_program_columns(**args)


# --------------------------------------------------------------------- #
# Table 2 tasks
# --------------------------------------------------------------------- #

@pytest.fixture
def streams(monkeypatch):
    """Counts the generator streams started."""
    started = []
    real = workloads._instruction_stream

    def counting(*args):
        started.append(args)
        return real(*args)

    monkeypatch.setattr(workloads, "_instruction_stream", counting)
    return started


def table2_task(engine="vectorized", instructions=1500):
    configs = tuple((label, ProcessorConfig(index_engine=engine, **overrides))
                    for label, overrides in TABLE2_CONFIGS.items())
    return ("wave5", instructions, 2027, configs)


def test_compiled_table2_task_creates_no_instructions(compiled_tier, streams):
    results = _table2_program_task(table2_task())
    assert streams == []
    assert len(results) == len(TABLE2_CONFIGS)
    assert all(result.instructions == 1500 for result in results.values())


def test_reading_processor_state_replays_the_stream(compiled_tier, streams):
    program = build_program("wave5", length=1500, seed=2027)
    processor = OutOfOrderProcessor(ProcessorConfig(index_engine="vectorized"))
    processor.run(program)
    assert streams == []
    assert processor.dcache.cache.stats.loads > 0
    assert streams == [("wave5", 1500, 2027)]


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_python_core_tasks_generate_their_stream_once(monkeypatch, streams,
                                                      engine):
    """Where the Python core runs a task's machines (no compiled kernels,
    or the reference engine), the task generates its instruction stream
    once, not once per machine."""
    monkeypatch.setattr(ckernels, "available", lambda: False)
    _table2_program_task(table2_task(engine))
    assert streams == [("wave5", 1500, 2027)]


def test_task_results_agree_across_cores(kernel_path):
    compiled = _table2_program_task(table2_task("vectorized"))
    reference = _table2_program_task(table2_task("reference"))
    for label in TABLE2_CONFIGS:
        fields = dict(vars(compiled[label]), config=None)
        assert fields == dict(vars(reference[label]), config=None)
