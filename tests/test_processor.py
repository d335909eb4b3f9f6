"""Tests for the out-of-order processor model and its workload generator."""

import copy

import pytest

from repro.cpu.isa import Instruction, OpClass
from repro.cpu.processor import OutOfOrderProcessor, ProcessorConfig
from repro.cpu.program import Program
from repro.cpu.workloads import INSTRUCTION_MIXES, build_program, program_names


def alu(pc, dest, srcs=()):
    return Instruction(pc=pc, op=OpClass.INT_ALU, dest=dest, srcs=tuple(srcs))


def mixed_stream(count):
    """Independent instructions spread over several functional units.

    The Table 1 machine has a single simple-integer ALU, so a purely integer
    stream can never exceed one instruction per cycle; a realistic ILP test
    must mix unit classes the way real code does.
    """
    instructions = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            instructions.append(alu(pc=4 * i, dest=4 + (i % 14)))
        elif kind == 1:
            instructions.append(Instruction(pc=4 * i, op=OpClass.FP_ADD,
                                            dest=36 + (i % 14)))
        elif kind == 2:
            instructions.append(Instruction(pc=4 * i, op=OpClass.FP_MUL,
                                            dest=50 + (i % 10)))
        else:
            instructions.append(Instruction(pc=4 * i, op=OpClass.LOAD,
                                            dest=18 + (i % 10), address=0))
    return instructions


def run_program(instructions, **config_kwargs):
    processor = OutOfOrderProcessor(ProcessorConfig(**config_kwargs))
    program = Program.from_list("test", instructions)
    return processor.run(program)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = ProcessorConfig()
        assert cfg.fetch_width == 4
        assert cfg.rob_entries == 32
        assert cfg.int_physical_registers == 64
        assert cfg.fp_physical_registers == 64
        assert cfg.branch_predictor_entries == 2048
        assert cfg.cache_hit_time == 2
        assert cfg.cache_miss_penalty == 20
        assert cfg.mshr_entries == 8

    def test_build_cache_uses_scheme(self):
        cfg = ProcessorConfig(index_scheme="a2-Hp-Sk")
        assert cfg.build_cache().index_function.name == "a2-Hp-Sk"

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessorConfig(fetch_width=0)
        with pytest.raises(ValueError):
            ProcessorConfig(int_physical_registers=16)

    @pytest.mark.parametrize("overrides", [
        dict(cache_block_size=0),
        dict(cache_block_size=24),              # not a power of two
        dict(cache_ways=0),
        dict(cache_size_bytes=48),              # smaller than block * ways
        dict(cache_size_bytes=8 * 1024 + 32),   # not divisible by block * ways
        dict(cache_size_bytes=6 * 1024),        # num_sets not a power of two
        dict(branch_predictor_entries=0),
        dict(branch_predictor_entries=1000),    # not a power of two
        dict(address_predictor_entries=0),
        dict(address_predictor_entries=3),
        dict(cache_hit_time=0),                 # surfaced from DataCacheTiming
        dict(mshr_entries=0),
        dict(index_scheme="bogus"),             # resolved at construction
        dict(index_scheme="a2-Hp-Sk", index_address_bits=3),
    ])
    def test_geometry_and_timing_validation(self, overrides):
        with pytest.raises(ValueError):
            ProcessorConfig(**overrides)

    def test_negative_max_instructions_rejected(self):
        processor = OutOfOrderProcessor(ProcessorConfig())
        program = Program.from_list("tiny", [alu(pc=0, dest=4)])
        with pytest.raises(ValueError):
            processor.run(program, max_instructions=-1)

    def test_negative_length_hint_rejected(self):
        with pytest.raises(ValueError):
            Program("bad", lambda: [], length_hint=-1)


class TestBasicPipeline:
    def test_independent_instructions_reach_high_ipc(self):
        instructions = mixed_stream(400)
        result = run_program(instructions)
        assert result.instructions == 400
        assert result.ipc > 2.0        # 4-wide core, no dependences

    def test_single_alu_caps_integer_throughput(self):
        """Table 1 has one simple-integer unit, so pure ALU code peaks at 1 IPC."""
        instructions = [alu(pc=4 * i, dest=(i % 28) + 4) for i in range(400)]
        result = run_program(instructions)
        assert 0.9 < result.ipc <= 1.05

    def test_dependence_chain_limits_ipc_to_one(self):
        instructions = [alu(pc=4 * i, dest=1, srcs=(1,)) for i in range(400)]
        result = run_program(instructions)
        assert result.ipc <= 1.05

    def test_long_latency_chain_is_slower(self):
        divs = [Instruction(pc=4 * i, op=OpClass.INT_DIV, dest=1, srcs=(1,))
                for i in range(40)]
        result = run_program(divs)
        assert result.ipc < 0.05       # 67-cycle serial divides

    def test_ipc_zero_for_empty_program(self):
        result = run_program([])
        assert result.instructions == 0
        assert result.ipc == 0.0


class TestMemoryBehaviour:
    def test_load_misses_lower_ipc(self):
        # Loads striding by one block: every access a new line (all miss).
        missing = [Instruction(pc=8 * i, op=OpClass.LOAD, dest=4 + (i % 28),
                               address=i * 32) for i in range(300)]
        # Loads repeatedly hitting one line.
        hitting = [Instruction(pc=8 * i, op=OpClass.LOAD, dest=4 + (i % 28),
                               address=0) for i in range(300)]
        slow = run_program(missing)
        fast = run_program(hitting)
        assert slow.load_miss_ratio > 0.9
        assert fast.load_miss_ratio < 0.1
        assert fast.ipc > slow.ipc

    def test_store_then_load_forwards(self):
        instructions = []
        for i in range(50):
            instructions.append(Instruction(pc=8 * i, op=OpClass.STORE,
                                            srcs=(1,), address=0x1000))
            instructions.append(Instruction(pc=8 * i + 4, op=OpClass.LOAD,
                                            dest=5, srcs=(), address=0x1000))
        result = run_program(instructions)
        assert result.forwarded_loads > 0

    def test_forwarded_loads_never_reach_the_recorded_stream(self):
        """A recording dcache sees stores at commit but not forwarded loads —
        the invariant the fuzz harness's batch replay rests on."""
        from repro.cpu.dcache import DataCacheModel

        instructions = []
        for i in range(20):
            instructions.append(Instruction(pc=8 * i, op=OpClass.STORE,
                                            srcs=(1,), address=0x1000))
            instructions.append(Instruction(pc=8 * i + 4, op=OpClass.LOAD,
                                            dest=5, srcs=(), address=0x1000))
        config = ProcessorConfig()
        dcache = DataCacheModel(config.build_cache(), config.cache_timing(),
                                record_stream=True)
        processor = OutOfOrderProcessor(config, cache_model=dcache)
        result = processor.run(Program.from_list("forwarding", instructions))
        addresses, is_store = dcache.recorded_stream()
        assert len(addresses) == len(is_store)
        recorded_loads = is_store.count(False)
        assert recorded_loads == result.loads - result.forwarded_loads
        assert is_store.count(True) == result.stores

    def test_xor_in_critical_path_slows_loads(self):
        loads = [Instruction(pc=8 * i, op=OpClass.LOAD, dest=4 + (i % 20),
                             srcs=(4 + ((i - 1) % 20),) if i else (),
                             address=(i % 8) * 32) for i in range(400)]
        base = run_program(loads)
        slowed = run_program(loads, xor_in_critical_path=True)
        assert slowed.ipc < base.ipc

    def test_address_prediction_recovers_xor_penalty(self):
        # Strided loads are perfectly predictable.
        loads = []
        for i in range(400):
            loads.append(Instruction(pc=0x100, op=OpClass.LOAD,
                                     dest=4 + (i % 20),
                                     srcs=(4 + ((i - 1) % 20),) if i else (),
                                     address=i * 8))
        slowed = run_program(loads, xor_in_critical_path=True)
        predicted = run_program(loads, xor_in_critical_path=True,
                                address_prediction=True)
        assert predicted.ipc > slowed.ipc
        assert predicted.address_prediction_coverage > 0.5
        assert predicted.address_prediction_accuracy > 0.9


class TestBranches:
    def test_mispredictions_reduce_ipc(self):
        predictable = []
        unpredictable = []
        for i in range(600):
            filler = alu(pc=0x800 + 4 * i, dest=4 + (i % 20))
            predictable.append(filler)
            unpredictable.append(filler)
            predictable.append(Instruction(pc=0x400, op=OpClass.BRANCH,
                                           srcs=(1,), taken=True))
            unpredictable.append(Instruction(pc=0x404, op=OpClass.BRANCH,
                                             srcs=(1,), taken=bool(i % 2)))
        good = run_program(predictable)
        bad = run_program(unpredictable)
        assert good.branch_misprediction_ratio < 0.05
        assert bad.branch_misprediction_ratio > 0.3
        assert good.ipc > bad.ipc

    def test_branch_counts(self):
        instructions = [Instruction(pc=4, op=OpClass.BRANCH, srcs=(), taken=True)
                        for _ in range(10)]
        result = run_program(instructions)
        assert result.branches == 10


class TestStructuralLimits:
    def test_small_rob_reduces_ipc_under_misses(self):
        loads = [Instruction(pc=8 * i, op=OpClass.LOAD, dest=4 + (i % 28),
                             address=i * 4096) for i in range(300)]
        big = run_program(loads, rob_entries=64)
        small = run_program(loads, rob_entries=4)
        assert small.ipc < big.ipc

    def test_narrow_fetch_limits_ipc(self):
        instructions = mixed_stream(400)
        wide = run_program(instructions, fetch_width=4, commit_width=4)
        narrow = run_program(instructions, fetch_width=1, commit_width=1)
        assert narrow.ipc <= 1.05
        assert wide.ipc > narrow.ipc


class TestSyntheticPrograms:
    def test_catalogue_matches_workloads(self):
        assert set(program_names()) == set(INSTRUCTION_MIXES)
        assert len(program_names()) == 18

    def test_program_is_replayable_and_deterministic(self):
        program = build_program("gcc", length=500)
        first = [(i.pc, i.op, i.address) for i in program.instructions()]
        second = [(i.pc, i.op, i.address) for i in program.instructions()]
        assert first == second
        assert len(first) == 500

    def test_replayed_program_is_never_written(self):
        """One materialised program replayed on fresh processors gives the
        same result each time and leaves every instruction untouched."""
        # A store/load pair to one address makes the seq-dependent store
        # forwarding path run too (the synthetic programs rarely forward).
        forwarding = [Instruction(pc=0x9000, op=OpClass.STORE, srcs=(1,),
                                  address=0x1000),
                      Instruction(pc=0x9004, op=OpClass.LOAD, dest=5,
                                  address=0x1000)]
        program = Program.from_list(
            "gcc", [*build_program("gcc", length=2000).instructions(),
                    *forwarding])
        before = [copy.copy(inst) for inst in program.instructions()]
        config = ProcessorConfig(address_prediction=True)
        first = OutOfOrderProcessor(config).run(program)
        second = OutOfOrderProcessor(config).run(program)
        assert first == second
        assert first.forwarded_loads == 1
        assert list(program.instructions()) == before

    def test_instructions_have_no_attribute_dict(self):
        inst = alu(pc=0, dest=1)
        with pytest.raises(AttributeError):
            inst.note = "extra"

    def test_mix_contains_expected_classes(self):
        program = build_program("swim", length=2000)
        ops = {i.op for i in program.instructions()}
        assert OpClass.LOAD in ops
        assert OpClass.STORE in ops
        assert OpClass.BRANCH in ops
        assert OpClass.FP_ADD in ops or OpClass.FP_MUL in ops

    def test_integer_programs_have_no_fp(self):
        program = build_program("gcc", length=2000)
        assert not any(i.op in (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV,
                                OpClass.FP_SQRT)
                       for i in program.instructions())

    def test_unknown_program_rejected(self):
        with pytest.raises(ValueError):
            build_program("quake", length=100)

    def test_end_to_end_ipoly_helps_swim(self):
        """Integration: the paper's core result on one bad program."""
        conventional = OutOfOrderProcessor(ProcessorConfig()).run(
            build_program("swim", length=6000))
        ipoly = OutOfOrderProcessor(
            ProcessorConfig(index_scheme="a2-Hp-Sk")).run(
            build_program("swim", length=6000))
        assert ipoly.load_miss_ratio < conventional.load_miss_ratio / 2
        assert ipoly.ipc > conventional.ipc * 1.1
