"""Unit tests for the virtual-real two-level hierarchy (Wang et al. style)."""

import pytest

from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.cache.virtual_real import VirtualRealHierarchy
from repro.core.index import IPolyIndexing
from repro.memory.paging import PageTable


def build(l1_size=512, l2_size=2048, block=32, page_size=4096,
          allocation="scatter"):
    page_table = PageTable(page_size=page_size, allocation=allocation, seed=7)
    l1 = SetAssociativeCache(
        l1_size, block, 2,
        index_function=IPolyIndexing(l1_size // (block * 2), ways=2,
                                     skewed=True, address_bits=16))
    l2 = SetAssociativeCache(l2_size, block, 2,
                             write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    return VirtualRealHierarchy(l1, l2, translate=page_table.translate), page_table


class TestBasicFlow:
    def test_miss_then_hit(self):
        hierarchy, _ = build()
        first = hierarchy.access(0x1000)
        assert not first.l1_hit
        second = hierarchy.access(0x1000)
        assert second.l1_hit

    def test_l1_indexed_by_virtual_l2_by_physical(self):
        hierarchy, page_table = build()
        virtual = 0x4000
        hierarchy.access(virtual)
        physical = page_table.translate(virtual)
        assert hierarchy.l1.contains_block(virtual // 32)
        assert hierarchy.l2.contains_block(physical // 32)

    def test_memory_access_flag(self):
        hierarchy, _ = build()
        assert hierarchy.access(0x9000).memory_access
        assert not hierarchy.access(0x9000).memory_access

    def test_miss_fills_both_levels(self):
        hierarchy, page_table = build()
        result = hierarchy.access(0x100)
        assert not result.l1_hit and not result.l2_hit
        assert hierarchy.l1.contains(0x100)
        assert hierarchy.l2.contains(page_table.translate(0x100))

    def test_l1_hit_does_not_touch_l2_loads(self):
        hierarchy, _ = build()
        hierarchy.access(0x100)
        l2_accesses_before = hierarchy.l2.stats.accesses
        result = hierarchy.access(0x100)
        assert result.l1_hit
        assert hierarchy.l2.stats.accesses == l2_accesses_before

    def test_write_through_propagates_stores_to_l2(self):
        hierarchy, _ = build()
        hierarchy.access(0x100)
        hierarchy.access(0x100, is_write=True)
        assert hierarchy.l2.stats.stores == 1

    def test_l2_hit_after_l1_eviction(self):
        hierarchy, _ = build(l1_size=128, l2_size=4096)  # tiny L1
        hierarchy.access(0)
        for i in range(1, 8):
            hierarchy.access(i * 512)        # push block 0 out of L1
        result = hierarchy.access(0)
        assert not result.l1_hit
        assert result.l2_hit


class TestAliases:
    def test_at_most_one_alias_resident(self):
        """Two virtual pages mapped to the same frame may not both live in L1."""
        page_table = PageTable(page_size=4096, allocation="sequential")
        # Force aliasing: map virtual pages 0 and 1 to the same frame.
        page_table._mapping[0] = 0
        page_table._mapping[1] = 0
        l1 = SetAssociativeCache(512, 32, 2)
        l2 = SetAssociativeCache(2048, 32, 2,
                                 write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        hierarchy = VirtualRealHierarchy(l1, l2, translate=page_table.translate)

        hierarchy.access(0x0000)            # alias A
        result = hierarchy.access(0x1000)   # alias B -> same physical line
        assert result.alias_invalidation
        assert not hierarchy.l1.contains_block(0)          # alias A gone
        assert hierarchy.alias_invalidations == 1

    def test_interleaved_aliases_increase_l1_traffic_not_l2(self):
        page_table = PageTable(page_size=4096, allocation="sequential")
        page_table._mapping[0] = 0
        page_table._mapping[1] = 0
        l1 = SetAssociativeCache(512, 32, 2)
        l2 = SetAssociativeCache(2048, 32, 2,
                                 write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        hierarchy = VirtualRealHierarchy(l1, l2, translate=page_table.translate)
        for _ in range(5):
            hierarchy.access(0x0000)
            hierarchy.access(0x1000)
        # L2 keeps the single physical copy throughout: one miss only.
        assert hierarchy.l2.stats.misses == 1
        assert hierarchy.alias_invalidations >= 9


class TestInclusionAndHoles:
    def test_inclusion_invariant_holds_under_stress(self):
        hierarchy, _ = build(l1_size=512, l2_size=2048)
        for i in range(500):
            hierarchy.access((i * 37 % 211) * 32)
            if i % 50 == 0:
                assert hierarchy.check_inclusion()
        assert hierarchy.check_inclusion()

    def test_back_invalidation_creates_holes(self):
        # Identity translation: four lines that collide in one L2 set (1 KB
        # 2-way = 16 sets) but fit comfortably in the 16-line skewed L1, so
        # every L2 eviction removes a line that is still live in L1.
        l1 = SetAssociativeCache(
            512, 32, 2,
            index_function=IPolyIndexing(8, ways=2, skewed=True,
                                         address_bits=16))
        l2 = SetAssociativeCache(1024, 32, 2,
                                 write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        hierarchy = VirtualRealHierarchy(l1, l2, translate=lambda a: a)
        blocks = [0, 16, 32, 48]
        for _ in range(6):
            for b in blocks:
                hierarchy.access(b * 32)
        assert hierarchy.l2_misses_causing_holes > 0
        assert hierarchy.holes_created > 0
        assert l1.stats.holes_created == hierarchy.holes_created
        assert hierarchy.check_inclusion()

    def test_hole_rate_definition(self):
        hierarchy, _ = build(l1_size=512, l2_size=1024)
        for i in range(256):
            hierarchy.access(i * 32)
        rate = hierarchy.hole_rate_per_l2_miss
        assert 0.0 <= rate <= 1.0
        assert rate == (hierarchy.l2_misses_causing_holes
                        / hierarchy.l2.stats.misses)

    def test_dirty_l1_victim_back_invalidated_by_l2_eviction(self):
        """A write-back L1 line killed by an L2 eviction vanishes silently:
        back-invalidation discards the dirty data without a writeback (the
        line's L2 copy is itself on the way out)."""
        l1 = SetAssociativeCache(
            1024, 32, 2,
            index_function=IPolyIndexing(16, ways=2, skewed=True,
                                         address_bits=16),
            write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        l2 = SetAssociativeCache(2048, 32, 2,
                                 write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        hierarchy = VirtualRealHierarchy(l1, l2, translate=lambda a: a)
        hierarchy.access(0, is_write=True)      # block 0 dirty in L1
        hierarchy.access(1024)                  # same L2 set (32 sets, 2-way)
        assert hierarchy.l1.contains_block(0)   # still live and dirty in L1
        writebacks_before = l1.stats.writebacks
        hierarchy.access(2048)                  # L2 evicts block 0
        assert not hierarchy.l1.contains_block(0)
        assert hierarchy.holes_created >= 1
        assert l1.stats.writebacks == writebacks_before
        assert hierarchy.check_inclusion()

    def test_inclusion_maintained(self):
        hierarchy, _ = build(l1_size=512, l2_size=1024)
        for i in range(300):
            hierarchy.access((i * 53 % 197) * 32)
        assert hierarchy.check_inclusion()

    def test_holes_counted_when_l2_evicts_live_l1_lines(self):
        hierarchy, _ = build(l1_size=512, l2_size=1024)
        for _ in range(4):
            for i in range(64):
                hierarchy.access(i * 32)
        assert hierarchy.l2.stats.misses > 0
        assert 0.0 <= hierarchy.hole_rate_per_l2_miss <= 1.0
        assert hierarchy.check_inclusion()

    def test_hole_rate_small_for_large_l2(self):
        """With a large L2:L1 ratio the hole rate should be tiny (Section 3.3)."""
        hierarchy, _ = build(l1_size=512, l2_size=16 * 1024)
        for i in range(2000):
            hierarchy.access((i * 97) % 4096 * 32)
        assert hierarchy.hole_rate_per_l2_miss <= 0.1

    def test_external_invalidation(self):
        hierarchy, page_table = build()
        virtual = 0x2000
        hierarchy.access(virtual)
        physical = page_table.translate(virtual)
        assert hierarchy.external_invalidate(physical)
        assert not hierarchy.l1.contains_block(virtual // 32)
        assert not hierarchy.l2.contains_block(physical // 32)

    def test_flush_clears_maps(self):
        hierarchy, _ = build()
        hierarchy.access(0x3000)
        hierarchy.flush()
        assert hierarchy.l1.resident_blocks() == []
        assert hierarchy.l2.resident_blocks() == []
        assert hierarchy.check_inclusion()


class TestPhysicalEventEdges:
    def test_external_invalidate_of_block_resident_in_both_levels(self):
        """A coherence invalidation must remove the line from both levels and
        unmap the pointer state, so the next access misses all the way."""
        hierarchy, page_table = build()
        virtual = 0x5000
        hierarchy.access(virtual)
        physical = page_table.translate(virtual)
        assert hierarchy.l1.contains_block(virtual // 32)
        assert hierarchy.l2.contains_block(physical // 32)
        assert hierarchy.external_invalidate(physical)
        assert hierarchy.external_invalidations == 1
        assert hierarchy.check_inclusion()
        again = hierarchy.access(virtual)
        assert again.memory_access

    def test_external_invalidate_without_l1_copy(self):
        hierarchy, page_table = build(l1_size=128)
        hierarchy.access(0x0)
        physical = page_table.translate(0x0)
        # Push the line out of L1 but not out of the much larger L2.
        for i in range(1, 9):
            hierarchy.access(i * 0x1000)
        if hierarchy.l1.contains_block(0):
            pytest.skip("line survived the tiny L1")
        assert not hierarchy.external_invalidate(physical)
        assert hierarchy.external_invalidations == 0

    def test_check_inclusion_after_midstream_flush(self):
        hierarchy, _ = build(l1_size=512, l2_size=1024)
        for i in range(64):
            hierarchy.access(i * 32)
        hierarchy.flush()
        assert hierarchy.check_inclusion()
        for i in range(64, 128):
            hierarchy.access(i * 32)
        assert hierarchy.check_inclusion()


class TestValidation:
    def test_page_size_must_be_power_of_two(self):
        l1 = SetAssociativeCache(512, 32, 2)
        l2 = SetAssociativeCache(2048, 32, 2)
        with pytest.raises(ValueError, match="power of two"):
            VirtualRealHierarchy(l1, l2, translate=lambda a: a, page_size=3000)

    def test_page_size_must_cover_a_block(self):
        l1 = SetAssociativeCache(512, 32, 2)
        l2 = SetAssociativeCache(2048, 32, 2)
        with pytest.raises(ValueError, match="multiple of the cache block"):
            VirtualRealHierarchy(l1, l2, translate=lambda a: a, page_size=16)

    def test_valid_page_size_is_exposed(self):
        l1 = SetAssociativeCache(512, 32, 2)
        l2 = SetAssociativeCache(2048, 32, 2)
        hierarchy = VirtualRealHierarchy(l1, l2, translate=lambda a: a,
                                         page_size=4096)
        assert hierarchy.page_size == 4096
        assert build()[0].page_size is None

    def test_block_sizes_must_match(self):
        l1 = SetAssociativeCache(512, 32, 2)
        l2 = SetAssociativeCache(2048, 64, 2)
        with pytest.raises(ValueError):
            VirtualRealHierarchy(l1, l2, translate=lambda a: a)

    def test_l2_not_smaller_than_l1(self):
        l1 = SetAssociativeCache(2048, 32, 2)
        l2 = SetAssociativeCache(512, 32, 2)
        with pytest.raises(ValueError):
            VirtualRealHierarchy(l1, l2, translate=lambda a: a)
