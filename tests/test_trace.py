"""Unit tests for trace records, generators and trace I/O."""

import pytest

from repro.trace.generators import (
    multi_array_sweep,
    random_accesses,
    strided_vector,
    tiled_matrix_multiply,
)
from repro.trace.record import MemoryAccess, materialise, replay, trace_length
from repro.trace.trace_io import (
    read_binary_trace,
    read_text_trace,
    write_binary_trace,
    write_text_trace,
)


class TestMemoryAccess:
    def test_defaults(self):
        access = MemoryAccess(address=0x100)
        assert not access.is_write
        assert access.size == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryAccess(address=-1)
        with pytest.raises(ValueError):
            MemoryAccess(address=0, size=0)
        with pytest.raises(ValueError):
            MemoryAccess(address=0, pc=-4)

    def test_helpers(self):
        trace = [MemoryAccess(i * 8) for i in range(10)]
        assert trace_length(iter(trace)) == 10
        assert materialise(iter(trace)) == trace


class TestStridedVector:
    def test_length(self):
        trace = list(strided_vector(stride=3, elements=64, sweeps=4))
        assert len(trace) == 256

    def test_addresses_follow_stride(self):
        trace = list(strided_vector(stride=5, elements=4, element_size=8, sweeps=1))
        assert [a.address for a in trace] == [0, 40, 80, 120]

    def test_repeats_identically_each_sweep(self):
        trace = list(strided_vector(stride=2, elements=8, sweeps=2))
        assert [a.address for a in trace[:8]] == [a.address for a in trace[8:]]

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            list(strided_vector(stride=0))


class TestMultiArraySweep:
    def test_lock_step_interleaving(self):
        trace = list(multi_array_sweep(num_arrays=3, elements=2, sweeps=1,
                                       array_spacing=1 << 16))
        addresses = [a.address for a in trace]
        assert addresses[0] % (1 << 16) == addresses[3] % (1 << 16) - 8

    def test_write_last_array(self):
        trace = list(multi_array_sweep(num_arrays=2, elements=4, sweeps=1,
                                       write_last=True))
        writes = [a for a in trace if a.is_write]
        assert len(writes) == 4
        assert all(a.address >= 64 * 1024 for a in writes)


class TestTiledMatrixMultiply:
    def test_touches_all_three_matrices(self):
        n, e = 8, 8
        trace = list(tiled_matrix_multiply(n=n, tile=4, element_size=e))
        bases = {a.address // (n * n * e) for a in trace}
        assert bases == {0, 1, 2}

    def test_has_stores_to_c(self):
        trace = list(tiled_matrix_multiply(n=4, tile=2))
        assert any(a.is_write for a in trace)

    def test_tile_larger_than_n_is_clamped(self):
        assert trace_length(tiled_matrix_multiply(n=4, tile=64)) > 0


class TestRandomAccesses:
    def test_deterministic_and_bounded(self):
        a = list(random_accesses(200, footprint_bytes=4096, seed=5))
        b = list(random_accesses(200, footprint_bytes=4096, seed=5))
        assert [x.address for x in a] == [x.address for x in b]
        assert all(x.address < 4096 for x in a)

    def test_write_fraction_respected_roughly(self):
        trace = list(random_accesses(2000, footprint_bytes=1 << 16,
                                     write_fraction=0.5, seed=11))
        writes = sum(1 for a in trace if a.is_write)
        assert 0.4 < writes / len(trace) < 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            list(random_accesses(10, footprint_bytes=4, element_size=8))
        with pytest.raises(ValueError):
            list(random_accesses(10, footprint_bytes=64, write_fraction=1.5))


class TestTraceIO:
    def test_text_round_trip(self, tmp_path):
        trace = [MemoryAccess(8 * i, is_write=(i % 3 == 0), pc=0x400 + i, size=4)
                 for i in range(25)]
        path = tmp_path / "trace.txt"
        assert write_text_trace(path, trace) == 25
        assert list(read_text_trace(path)) == trace

    def test_binary_round_trip(self, tmp_path):
        trace = [MemoryAccess(1 << 40, is_write=True, pc=2 ** 33, size=16)]
        path = tmp_path / "trace.bin"
        assert write_binary_trace(path, trace) == 1
        assert list(read_binary_trace(path)) == trace

    def test_text_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("R 0x10 0x0\n")          # missing size field
        with pytest.raises(ValueError):
            list(read_text_trace(path))

    def test_binary_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(ValueError):
            list(read_binary_trace(path))

    def test_mixed_round_trip_both_formats(self, tmp_path):
        """A varied trace survives both formats bit-exactly."""
        trace = [MemoryAccess((1 << 48) + 64 * i, is_write=(i % 2 == 0),
                              pc=(1 << 34) + 4 * i, size=1 + (i % 8))
                 for i in range(50)]
        text, binary = tmp_path / "t.txt", tmp_path / "t.bin"
        assert write_text_trace(text, trace) == 50
        assert write_binary_trace(binary, trace) == 50
        assert list(read_text_trace(text)) == trace
        assert list(read_binary_trace(binary)) == trace

    def test_replay_drives_a_cache(self, tmp_path):
        from repro.cache import SetAssociativeCache
        cache = SetAssociativeCache(1024, 32, 2)
        replay(iter([MemoryAccess(0), MemoryAccess(0)]), cache)
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1


class TestTraceCorruption:
    """The readers reject corrupt inputs with located errors instead of
    surfacing struct noise or yielding garbage accesses."""

    def test_text_non_hex_address_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("R 0x10 0x400 4\nW 0xZZ 0x404 8\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2: non-hex"):
            list(read_text_trace(path))

    def test_text_non_integer_size_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\nR 0x10 0x400 four\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2: non-integer size"):
            list(read_text_trace(path))

    @pytest.mark.parametrize("size", ["0", "-4"])
    def test_text_rejects_non_positive_size(self, tmp_path, size):
        path = tmp_path / "bad.txt"
        path.write_text(f"R 0x10 0x400 {size}\n")
        with pytest.raises(ValueError, match=r"bad\.txt:1: size must be"):
            list(read_text_trace(path))

    def test_text_rejects_negative_address(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("R -0x10 0x400 4\n")
        with pytest.raises(ValueError, match=r"bad\.txt:1: negative"):
            list(read_text_trace(path))

    def test_binary_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"CACT")  # a prefix of the real magic
        with pytest.raises(ValueError, match="truncated header"):
            list(read_binary_trace(path))

    def test_binary_rejects_truncated_record_with_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        trace = [MemoryAccess(0x1000, is_write=False, pc=0x400, size=4)]
        write_binary_trace(path, trace)
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])  # chop the final record mid-way
        with pytest.raises(ValueError) as excinfo:
            list(read_binary_trace(path))
        message = str(excinfo.value)
        assert "truncated record 0" in message
        assert "byte offset 8" in message

    def test_binary_rejects_zero_size_record(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        record = struct.pack("<QQIB3x", 0x1000, 0x400, 0, 0)
        path.write_bytes(b"CACTR1\0\0" + record)
        with pytest.raises(ValueError, match="size must be positive"):
            list(read_binary_trace(path))

    def test_binary_rejects_corrupt_write_flag(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        record = struct.pack("<QQIB3x", 0x1000, 0x400, 4, 0x7F)
        path.write_bytes(b"CACTR1\0\0" + record)
        with pytest.raises(ValueError, match="corrupt write flag 0x7f"):
            list(read_binary_trace(path))

    def test_binary_rejects_nonzero_padding(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        record = bytearray(struct.pack("<QQIB3x", 0x1000, 0x400, 4, 1))
        record[-1] = 0xAB  # bit-rot in the padding bytes
        path.write_bytes(b"CACTR1\0\0" + bytes(record))
        with pytest.raises(ValueError, match="corrupt padding"):
            list(read_binary_trace(path))

    def test_binary_error_localises_later_records(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        good = struct.pack("<QQIB3x", 0x1000, 0x400, 4, 0)
        bad = struct.pack("<QQIB3x", 0x2000, 0x404, 0, 0)
        path.write_bytes(b"CACTR1\0\0" + good + bad)
        with pytest.raises(ValueError, match="record 1 at byte offset 32"):
            list(read_binary_trace(path))

    def test_binary_writer_rejects_oversized_fields(self, tmp_path):
        path = tmp_path / "big.bin"
        trace = [MemoryAccess(0x10, is_write=False, pc=0x400, size=1 << 40)]
        with pytest.raises(ValueError, match="record 0 does not fit"):
            write_binary_trace(path, trace)


class _RawAccess:
    """A duck-typed record that skips MemoryAccess construction checks."""

    def __init__(self, address, pc=0, size=8, is_write=False):
        self.address = address
        self.pc = pc
        self.size = size
        self.is_write = is_write


class TestWriterValidation:
    """The writers enforce what the readers enforce, so a writer can never
    produce a trace file its own reader refuses — even when handed
    duck-typed records that bypassed MemoryAccess validation."""

    WRITERS = [write_text_trace, write_binary_trace]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_negative_address_rejected(self, tmp_path, writer):
        path = tmp_path / "bad.trace"
        with pytest.raises(ValueError, match="record 0: negative "
                                             "address/pc"):
            writer(path, [_RawAccess(address=-1)])

    @pytest.mark.parametrize("writer", WRITERS)
    def test_negative_pc_rejected(self, tmp_path, writer):
        path = tmp_path / "bad.trace"
        with pytest.raises(ValueError, match="record 0: negative "
                                             "address/pc"):
            writer(path, [_RawAccess(address=0x10, pc=-4)])

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("size", [0, -8])
    def test_non_positive_size_rejected(self, tmp_path, writer, size):
        path = tmp_path / "bad.trace"
        with pytest.raises(ValueError, match="record 0: size must be "
                                             "positive"):
            writer(path, [_RawAccess(address=0x10, size=size)])

    @pytest.mark.parametrize("writer", WRITERS)
    def test_error_names_the_offending_record(self, tmp_path, writer):
        path = tmp_path / "bad.trace"
        trace = [MemoryAccess(0x10), MemoryAccess(0x20),
                 _RawAccess(address=0x30, size=0)]
        with pytest.raises(ValueError, match="record 2: size must be "
                                             "positive"):
            writer(path, trace)
