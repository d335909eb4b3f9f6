"""Unit tests for the memory substrate: addresses, paging, translation, main memory."""

import hashlib

import pytest

from repro.memory.address import (
    AddressLayout,
    block_base,
    block_number,
    block_offset,
    is_power_of_two,
    log2_exact,
    page_number,
    page_offset,
)
from repro.memory.main_memory import Bus, MainMemory
from repro.memory.paging import PageTable


class TestAddressHelpers:
    def test_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(48)

    def test_log2_exact(self):
        assert log2_exact(32) == 5
        with pytest.raises(ValueError):
            log2_exact(33)

    def test_block_arithmetic(self):
        assert block_number(100, 32) == 3
        assert block_offset(100, 32) == 4
        assert block_base(100, 32) == 96

    def test_page_arithmetic(self):
        assert page_number(8192, 4096) == 2
        assert page_offset(8193, 4096) == 1

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            block_number(-1, 32)


class TestAddressLayout:
    def test_paper_8kb_cache_exceeds_4k_page(self):
        """The Section 3.1 motivation: an 8 KB 2-way cache (128 sets, 32 B
        blocks) needs index bits beyond a 4 KB page offset once hashing wants
        more than 7 bits; conventional indexing itself just fits."""
        layout = AddressLayout(block_size=32, num_sets=128, page_size=4096)
        assert layout.offset_bits == 5
        assert layout.index_bits == 7
        assert layout.untranslated_index_bits == 7
        assert not layout.index_exceeds_page
        assert layout.usable_hash_bits() == 7

    def test_larger_cache_exceeds_page(self):
        layout = AddressLayout(block_size=32, num_sets=1024, page_size=4096)
        assert layout.index_exceeds_page

    def test_large_pages_expose_more_bits(self):
        layout = AddressLayout(block_size=32, num_sets=128, page_size=256 * 1024)
        assert layout.usable_hash_bits() == 13   # the paper's option-2 example


class TestPageTable:
    def test_translation_preserves_offset(self):
        table = PageTable(page_size=4096)
        physical = table.translate(0x1234)
        assert physical % 4096 == 0x234

    def test_same_page_same_frame(self):
        table = PageTable()
        a = table.translate(0x1000)
        b = table.translate(0x1FFF)
        assert a // 4096 == b // 4096

    def test_scatter_allocation_not_identity(self):
        table = PageTable(allocation="scatter")
        frames = [table.frame_of(vpn) for vpn in range(32)]
        assert frames != sorted(frames) or frames != list(range(32))
        assert len(set(frames)) == 32            # no double allocation

    def test_sequential_allocation(self):
        table = PageTable(allocation="sequential")
        assert [table.frame_of(v) for v in (5, 9, 2)] == [0, 1, 2]

    def test_page_faults_counted(self):
        table = PageTable()
        table.translate(0)
        table.translate(10)          # same page
        table.translate(5000)        # new page
        assert table.page_faults == 2

    def test_invalid_allocation(self):
        with pytest.raises(ValueError):
            PageTable(allocation="hugepages")

    def test_scatter_frame_sequence_is_pinned(self):
        """5,000 scatter faults hand out the frames they did when every
        fault rebuilt its used-frame set from the mapping, and consume the
        same 5,012 draws (twelve drew a used frame)."""
        table = PageTable(allocation="scatter", seed=2024)
        frames = [table.frame_of(vpn) for vpn in range(5000)]
        assert frames[:4] == [978133, 127698, 763263, 768089]
        assert hashlib.sha256(repr(frames).encode()).hexdigest() == (
            "37e4286cc205b4f2b9ecc8a1d30119030118422b43255ed1c267fd992575a04d")
        assert table._state == 10816278169389454092

    def test_frames_doctored_into_the_mapping_are_never_handed_out(self):
        """Frames written into ``_mapping`` by hand, before the first fault
        and between faults, are skipped like any allocated frame."""
        upcoming = PageTable(allocation="scatter", seed=7)
        draws = [upcoming._next_scatter() & 0xFFFFF for _ in range(200)]
        table = PageTable(allocation="scatter", seed=7)
        table._mapping[10**6] = draws[0]
        frames = [table.frame_of(vpn) for vpn in range(50)]
        table._mapping[10**6 + 1] = draws[60]
        table._mapping[10**6 + 2] = draws[70]
        table._mapping[10**6] = frames[0]  # an overwrite, not an addition
        frames += [table.frame_of(vpn) for vpn in range(50, 150)]
        assert frames[:50] == draws[1:51]
        assert frames[50:] == [frame for frame in draws[51:]
                               if frame not in (draws[60], draws[70])][:100]
        assert len(set(frames)) == len(frames) == 150
        assert table.mapped_pages == 153 == table.page_faults + 3


class TestMainMemoryAndBus:
    def test_fixed_latency(self):
        memory = MainMemory(access_latency=20)
        request = memory.request(block_number=1, now=100)
        assert request.ready_at == 120
        assert request.latency == 20

    def test_bus_serialises_transfers(self):
        bus = Bus(cycles_per_transaction=4)
        first_done = bus.reserve(0)
        second_done = bus.reserve(0)
        assert first_done == 4
        assert second_done == 8
        assert bus.transactions == 2

    def test_bus_utilisation(self):
        bus = Bus(4)
        bus.reserve(0)
        assert bus.utilisation(8) == pytest.approx(0.5)
        assert bus.utilisation(0) == 0.0

    def test_memory_with_bus_contention(self):
        memory = MainMemory(access_latency=20, bus=Bus(4))
        r1 = memory.request(1, now=0)
        r2 = memory.request(2, now=0)
        assert r2.ready_at >= r1.ready_at
        assert memory.average_latency >= 20

    def test_validation(self):
        with pytest.raises(ValueError):
            MainMemory(access_latency=0)
        with pytest.raises(ValueError):
            Bus(0)
