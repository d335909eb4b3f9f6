"""Cross-module integration tests: whole pipelines wired end to end."""

import pytest

from repro.cache import (
    SetAssociativeCache,
    VirtualRealHierarchy,
    WritePolicy,
)
from repro.core import IPolyIndexing, derive_xor_matrix, make_index_function
from repro.cpu import (
    Instruction,
    OpClass,
    OutOfOrderProcessor,
    ProcessorConfig,
    Program,
)
from repro.memory import PageTable
from repro.models import HoleModel
from repro.trace import (
    build_trace,
    materialise,
    read_binary_trace,
    tiled_matrix_multiply,
    write_binary_trace,
)


class TestTraceToCachePipeline:
    def test_persisted_trace_replays_identically(self, tmp_path):
        """Generating, persisting, re-reading and replaying a workload trace
        gives exactly the same cache statistics as the in-memory trace."""
        trace = materialise(build_trace("tomcatv", length=5_000))
        path = tmp_path / "tomcatv.bin"
        write_binary_trace(path, trace)

        def run(accesses):
            cache = SetAssociativeCache(8 * 1024, 32, 2)
            for access in accesses:
                cache.access(access.address, is_write=access.is_write)
            return (cache.stats.loads, cache.stats.load_misses,
                    cache.stats.stores, cache.stats.store_misses)

        assert run(trace) == run(read_binary_trace(path))

    def test_kernel_trace_through_full_hierarchy(self):
        """A blocked-matmul trace through a virtual-real I-Poly L1 /
        conventional L2 pair keeps Inclusion and produces sensible
        statistics."""
        l1 = SetAssociativeCache(
            8 * 1024, 32, 2,
            index_function=IPolyIndexing(128, ways=2, skewed=True, address_bits=19))
        l2 = SetAssociativeCache(64 * 1024, 32, 4,
                                 write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        hierarchy = VirtualRealHierarchy(l1, l2,
                                         translate=PageTable(4096).translate)
        for access in tiled_matrix_multiply(n=24, tile=8):
            hierarchy.access(access.address, is_write=access.is_write)
        assert hierarchy.check_inclusion()
        assert l1.stats.accesses > 0
        assert l1.stats.miss_ratio < 0.2      # blocked kernel + I-Poly = few misses
        assert l2.stats.misses <= l1.stats.misses


class TestVirtualRealWithTranslationStack:
    def test_translator_backed_hierarchy(self):
        """The full stack: page table + virtual-real hierarchy + hole model."""
        page_table = PageTable(page_size=4096, allocation="scatter", seed=11)
        l1 = SetAssociativeCache(
            8 * 1024, 32, 2,
            index_function=make_index_function("a2-Hp-Sk", 128, ways=2,
                                               address_bits=19))
        l2 = SetAssociativeCache(128 * 1024, 32, 2,
                                 write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        hierarchy = VirtualRealHierarchy(l1, l2, translate=page_table.translate)

        for access in build_trace("wave5", length=15_000):
            hierarchy.access(access.address, is_write=access.is_write)

        model = HoleModel(8 * 1024, 128 * 1024, 32)
        assert hierarchy.check_inclusion()
        assert hierarchy.hole_rate_per_l2_miss <= model.hole_probability + 0.05


class TestTraceDrivenProcessor:
    def test_program_built_from_a_raw_trace(self):
        """A processor program can be synthesised directly from an address
        trace (every access becomes a load/store with simple dependences)."""
        accesses = materialise(build_trace("swim", length=3_000))

        def to_instructions():
            for i, access in enumerate(accesses):
                if access.is_write:
                    yield Instruction(pc=access.pc or 4 * i, op=OpClass.STORE,
                                      srcs=(1,), address=access.address)
                else:
                    yield Instruction(pc=access.pc or 4 * i, op=OpClass.LOAD,
                                      dest=4 + (i % 28), srcs=(1,),
                                      address=access.address)

        program = Program("swim-trace", to_instructions, length_hint=len(accesses))
        conventional = OutOfOrderProcessor(ProcessorConfig()).run(program)
        ipoly = OutOfOrderProcessor(
            ProcessorConfig(index_scheme="a2-Hp-Sk")).run(program)
        assert conventional.instructions == len(accesses)
        assert ipoly.load_miss_ratio < conventional.load_miss_ratio
        assert ipoly.ipc > conventional.ipc

    def test_processor_cache_matches_standalone_cache(self):
        """The processor's functional cache behaviour equals a standalone cache
        fed the same load stream (stores excluded: commit order differs)."""
        accesses = [a for a in materialise(build_trace("gcc", length=4_000))
                    if not a.is_write]
        instructions = [Instruction(pc=8 * i, op=OpClass.LOAD, dest=4 + (i % 28),
                                    address=a.address)
                        for i, a in enumerate(accesses)]
        cfg = ProcessorConfig()
        processor = OutOfOrderProcessor(cfg)
        result = processor.run(Program.from_list("gcc-loads", instructions))

        standalone = cfg.build_cache()
        for access in accesses:
            standalone.access(access.address)
        assert result.load_miss_ratio == pytest.approx(
            standalone.stats.load_miss_ratio, abs=1e-9)


class TestHardwareViewConsistency:
    def test_processor_index_function_has_bounded_fan_in(self):
        """The index function the Table 2 I-Poly machine actually uses is
        implementable with small XOR trees, as Section 3 claims."""
        cfg = ProcessorConfig(index_scheme="a2-Hp-Sk")
        cache = cfg.build_cache()
        for way in range(cfg.cache_ways):
            cost = derive_xor_matrix(cache.index_function, way=way).cost()
            # Way 0 uses the canonical trinomial (fan-in 5, the paper's
            # figure); the second skewing polynomial is denser but still a
            # single small XOR tree per bit.
            assert cost.max_fan_in <= 7
            assert cost.index_bits == 7
            assert cost.tree_depth_gates <= 3
