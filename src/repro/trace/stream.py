"""Streaming trace ingestion: the v2 columnar format, compression, ``.din``.

The v1 formats in :mod:`repro.trace.trace_io` are record-oriented; turning a
multi-hundred-million-access trace into engine input through them costs one
Python object per access.  This module adds the scale path:

* **v2 packed binary format** — a counted 16-byte header
  (``b"CACTR2\\0\\0"`` + little-endian ``u64`` record count) followed by
  four contiguous little-endian column arrays::

      offset 16          addresses  u64 x count
      offset 16 + 8n     pcs        u64 x count
      offset 16 + 16n    sizes      u32 x count
      offset 16 + 20n    is_write   u8  x count   (0 or 1)

  An uncompressed v2 file maps straight into NumPy arrays with
  ``np.memmap`` — no parsing, no copies.

* **compressed wrappers** — readers transparently decompress gzip, bzip2
  and xz traces (any format inside) via the standard library, plus zstd
  when the optional ``zstandard`` module is installed.  Writers compress by
  suffix (``.gz``/``.bz2``/``.xz``/``.zst``).  Compressed v2 files cannot
  be mmap-ed; they stream through independent per-column cursors instead,
  so chunked iteration stays memory-bounded.

* **Dinero ``.din`` import** — the de-facto interchange format of classic
  cache studies (``label address`` per line; 0 = read, 1 = write,
  2 = instruction fetch).  Records parse with ``path:line`` precision and
  convert to v2 via :func:`import_din_trace`.

* **chunked iteration** — :func:`iter_trace_chunks` feeds any supported
  trace file (format auto-detected by magic, never by suffix) to the batch
  kernels as a stream of bounded :class:`~repro.engine.batch.AddressBatch`
  chunks.  The batch caches carry warm state across ``run()`` calls, so
  chunked replay is bit-exact with materialising the whole trace at
  once — that equivalence
  (and the error-precision parity of every corruption case) is asserted by
  ``tests/test_trace_stream.py``.
"""

from __future__ import annotations

import bz2
import gzip
import io
import lzma
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from .record import MemoryAccess
from .trace_io import _BINARY_MAGIC, TraceReader, _parse_binary, _parse_text

__all__ = [
    "TRACE_V2_MAGIC",
    "TRACE_V2_HEADER_SIZE",
    "TRACE_V2_RECORD_BYTES",
    "TraceFormat",
    "TraceColumns",
    "TraceV2Writer",
    "detect_trace_format",
    "write_trace_v2",
    "read_trace_v2",
    "read_din_trace",
    "import_din_trace",
    "convert_trace",
    "read_trace_records",
    "iter_trace_chunks",
    "trace_record_count",
]

TRACE_V2_MAGIC = b"CACTR2\0\0"
_HEADER = struct.Struct("<8sQ")  # magic, record count
TRACE_V2_HEADER_SIZE = _HEADER.size  # 16
#: Bytes per record across all four columns (8 + 8 + 4 + 1).
TRACE_V2_RECORD_BYTES = 21

#: Column layout: (name, little-endian dtype, bytes per record).
_COLUMNS = (
    ("addresses", "<u8", 8),
    ("pcs", "<u8", 8),
    ("sizes", "<u4", 4),
    ("is_write", "u1", 1),
)

_U64_MAX = (1 << 64) - 1
_U32_MAX = (1 << 32) - 1

#: Default chunk size (records) of the streaming readers: ~21 MiB of column
#: data per chunk across all four columns.
DEFAULT_CHUNK_SIZE = 1 << 20


# --------------------------------------------------------------------- #
# compression layer
# --------------------------------------------------------------------- #

_COMPRESSION_MAGICS = (
    (b"\x1f\x8b", "gzip"),
    (b"BZh", "bz2"),
    (b"\xfd7zXZ\x00", "xz"),
    (b"\x28\xb5\x2f\xfd", "zstd"),
)

_WRITE_SUFFIXES = {".gz": "gzip", ".bz2": "bz2", ".xz": "xz", ".zst": "zstd"}


def _zstd_module():
    """The ``zstandard`` module, or a located error when it is absent.

    zstd support is gated, not assumed: the module is optional and the
    toolchain must work without it (gzip/bz2/xz come from the standard
    library and always work).
    """
    try:
        import zstandard
    except ImportError:
        raise ValueError(
            "this trace is zstd-compressed but the optional 'zstandard' "
            "module is not installed; recompress with gzip/bz2/xz or "
            "install zstandard") from None
    return zstandard


def _compression_of(path: Path) -> Optional[str]:
    """Compression wrapper of ``path`` detected by magic bytes (or None)."""
    with path.open("rb") as handle:
        head = handle.read(6)
    for magic, name in _COMPRESSION_MAGICS:
        if head.startswith(magic):
            return name
    return None


def _open_stream(path: Path, compression: Optional[str]) -> IO[bytes]:
    """Open ``path`` as a (decompressed) binary stream positioned at 0."""
    if compression is None:
        return path.open("rb")
    if compression == "gzip":
        return gzip.open(path, "rb")
    if compression == "bz2":
        return bz2.open(path, "rb")
    if compression == "xz":
        return lzma.open(path, "rb")
    if compression == "zstd":
        zstandard = _zstd_module()
        handle = path.open("rb")
        return zstandard.ZstdDecompressor().stream_reader(handle,
                                                          closefd=True)
    raise ValueError(f"unknown compression {compression!r}")  # pragma: no cover


def _open_write_stream(path: Path) -> IO[bytes]:
    """Open ``path`` for binary writing, compressing by suffix."""
    compression = _WRITE_SUFFIXES.get(path.suffix)
    if compression is None:
        return path.open("wb")
    if compression == "gzip":
        return gzip.open(path, "wb")
    if compression == "bz2":
        return bz2.open(path, "wb")
    if compression == "xz":
        return lzma.open(path, "wb")
    zstandard = _zstd_module()
    handle = path.open("wb")
    return zstandard.ZstdCompressor().stream_writer(handle, closefd=True)


def _seek_forward(handle: IO[bytes], offset: int) -> None:
    """Position a fresh stream at ``offset``, by seek or by read-discard."""
    try:
        handle.seek(offset)
        return
    except (OSError, AttributeError, io.UnsupportedOperation):
        pass
    remaining = offset
    while remaining:
        chunk = handle.read(min(remaining, 1 << 20))
        if not chunk:
            raise ValueError(f"truncated trace: could not reach byte offset "
                             f"{offset} ({remaining} bytes short)")
        remaining -= len(chunk)


def _read_exact(handle: IO[bytes], nbytes: int, label: str,
                what: str) -> bytes:
    """Read exactly ``nbytes`` or raise a located truncation error."""
    raw = handle.read(nbytes)
    if len(raw) != nbytes:
        raise ValueError(f"{label}: truncated v2 trace: {what} "
                         f"({len(raw)} of {nbytes} bytes)")
    return raw


# --------------------------------------------------------------------- #
# format detection
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class TraceFormat:
    """Detected container of a trace file."""

    #: ``"v2"``, ``"v1-binary"``, ``"text"`` or ``"din"``.
    kind: str
    #: ``"gzip"``/``"bz2"``/``"xz"``/``"zstd"`` or None (uncompressed).
    compression: Optional[str]


def detect_trace_format(path: Union[str, Path]) -> TraceFormat:
    """Sniff a trace file's format from its (decompressed) content.

    Detection is by magic bytes and first-line shape — never by file
    suffix, so renamed files keep working.  A bytes prefix of a binary
    magic dispatches to the matching binary parser so truncated headers
    keep their established error messages.
    """
    path = Path(path)
    compression = _compression_of(path)
    with _open_stream(path, compression) as handle:
        head = handle.read(8)
        if head == TRACE_V2_MAGIC:
            return TraceFormat("v2", compression)
        if head == _BINARY_MAGIC:
            return TraceFormat("v1-binary", compression)
        if len(head) < 8:
            # A short file that prefixes a binary magic is a truncated
            # binary header; route it to the parser that says so.
            if TRACE_V2_MAGIC.startswith(head) and not \
                    _BINARY_MAGIC.startswith(head):
                return TraceFormat("v2", compression)
            if _BINARY_MAGIC.startswith(head):
                return TraceFormat("v1-binary", compression)
        if hasattr(handle, "readline"):
            first_line = head + handle.readline(256)
        else:  # pragma: no cover - zstd stream readers lack readline
            first_line = head + handle.read(256)
    for line in first_line.split(b"\n"):
        try:
            text = line.decode("ascii").strip()
        except UnicodeDecodeError:
            break
        if not text:
            continue
        if text.startswith("#"):
            return TraceFormat("text", compression)
        token = text.split()[0]
        if token in ("R", "W"):
            return TraceFormat("text", compression)
        if token in ("0", "1", "2"):
            return TraceFormat("din", compression)
        break
    raise ValueError(f"{path}: unrecognised trace format (not v1/v2 binary, "
                     "text or .din)")


# --------------------------------------------------------------------- #
# v2 writing
# --------------------------------------------------------------------- #

def _normalise_columns(addresses, is_write, pcs, sizes,
                       label: str, base_index: int
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
    """Validate and canonicalise one chunk of column data.

    Enforces exactly what the readers enforce: addresses/pcs are
    non-negative ``u64``, sizes positive ``u32``, write flags 0/1.  Errors
    name the first offending record (``base_index`` offsets chunked
    appends so the index is trace-global).
    """
    addresses = np.asarray(addresses)
    n = addresses.shape[0] if addresses.ndim == 1 else -1
    if addresses.ndim != 1:
        raise ValueError(f"{label}: addresses must be one-dimensional")

    def _checked_unsigned(column, name, limit, dtype):
        array = np.asarray(column)
        if array.shape != (n,):
            raise ValueError(f"{label}: {name} shape {array.shape} does not "
                             f"match addresses shape {(n,)}")
        if n == 0:
            return np.empty(0, dtype=dtype)
        if array.dtype.kind == "f":
            raise ValueError(f"{label}: {name} must be integers, got a "
                             "floating-point array")
        if array.dtype.kind == "O":
            for position, value in enumerate(array):
                if not isinstance(value, (int, np.integer)) or value < 0 \
                        or value > limit:
                    raise ValueError(
                        f"{label}: record {base_index + position}: {name} "
                        f"value {value!r} outside [0, {limit:#x}]")
            return array.astype(dtype)
        if array.dtype.kind == "i":
            bad = np.where(array < 0)[0]
            if bad.size:
                raise ValueError(
                    f"{label}: record {base_index + int(bad[0])}: negative "
                    f"{name} value {int(array[bad[0]])}")
        elif array.dtype.kind != "u":
            raise ValueError(f"{label}: {name} must be integers, got dtype "
                             f"{array.dtype}")
        if int(array.max()) > limit:
            bad = int(np.argmax(array > limit))
            raise ValueError(
                f"{label}: record {base_index + bad}: {name} value "
                f"{int(array[bad])} exceeds {limit:#x}")
        return array.astype(dtype, copy=False)

    addr = _checked_unsigned(addresses, "address", _U64_MAX, "<u8")
    pcs_arr = (np.zeros(n, dtype="<u8") if pcs is None
               else _checked_unsigned(pcs, "pc", _U64_MAX, "<u8"))
    if sizes is None:
        sizes_arr = np.full(n, 8, dtype="<u4")
    else:
        sizes_arr = _checked_unsigned(sizes, "size", _U32_MAX, "<u4")
        if n and int(sizes_arr.min()) == 0:
            bad = int(np.argmin(sizes_arr))
            raise ValueError(f"{label}: record {base_index + bad}: size "
                             "must be positive, got 0")
    if is_write is None:
        flags = np.zeros(n, dtype="u1")
    else:
        flag_input = np.asarray(is_write)
        if flag_input.shape != (n,):
            raise ValueError(f"{label}: is_write shape {flag_input.shape} "
                             f"does not match addresses shape {(n,)}")
        if flag_input.dtype == bool:
            flags = flag_input.astype("u1")
        else:
            flags = flag_input.astype("u1", copy=True)
            bad = np.where((flag_input != 0) & (flag_input != 1))[0]
            if bad.size:
                raise ValueError(
                    f"{label}: record {base_index + int(bad[0])}: write "
                    f"flag must be 0/1/bool")
    return addr, pcs_arr, sizes_arr, flags


def write_trace_v2(path: Union[str, Path], addresses, is_write=None,
                   pcs=None, sizes=None) -> int:
    """Write one in-memory column set as a v2 trace; returns the count.

    ``pcs`` defaults to zeros and ``sizes`` to 8 (the
    :class:`~repro.trace.record.MemoryAccess` defaults).  A ``.gz``,
    ``.bz2``, ``.xz`` or ``.zst`` suffix compresses the output.  For
    chunked / larger-than-memory writing use :class:`TraceV2Writer`.
    """
    path = Path(path)
    addr, pcs_arr, sizes_arr, flags = _normalise_columns(
        addresses, is_write, pcs, sizes, str(path), 0)
    count = addr.shape[0]
    with _open_write_stream(path) as handle:
        handle.write(_HEADER.pack(TRACE_V2_MAGIC, count))
        for array in (addr, pcs_arr, sizes_arr, flags):
            handle.write(array.tobytes())
    return count


class TraceV2Writer:
    """Chunked, memory-bounded v2 writer (context manager).

    The v2 layout is columnar, so appending records cannot simply extend
    the file: each column is spooled to its own temporary file next to the
    destination and the columns are concatenated (behind the counted
    header) on :meth:`close`.  Peak memory is one chunk, independent of the
    final trace length — this is what the nightly 50M-access generation
    uses.  On an exception the temporaries and any partial destination are
    removed.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._count = 0
        self._closed = False
        self._spools = []
        for position, (name, _, _) in enumerate(_COLUMNS):
            spool_path = self._path.with_name(
                self._path.name + f".{name}.tmp")
            self._spools.append((spool_path, spool_path.open("wb")))

    @property
    def count(self) -> int:
        """Records appended so far."""
        return self._count

    def append(self, addresses, is_write=None, pcs=None, sizes=None) -> int:
        """Append one chunk of columns; returns the new total count."""
        if self._closed:
            raise ValueError("writer is closed")
        columns = _normalise_columns(addresses, is_write, pcs, sizes,
                                     str(self._path), self._count)
        for (_, handle), array in zip(self._spools, columns):
            handle.write(array.tobytes())
        self._count += columns[0].shape[0]
        return self._count

    def append_records(self, records: Iterable[MemoryAccess],
                       chunk_size: int = 65536) -> int:
        """Append an iterable of records in bounded chunks."""
        addresses, pcs, sizes, flags = [], [], [], []

        def flush() -> None:
            if addresses:
                self.append(np.array(addresses, dtype=object),
                            is_write=np.array(flags, dtype=bool),
                            pcs=np.array(pcs, dtype=object),
                            sizes=np.array(sizes, dtype=object))
                addresses.clear(), pcs.clear(), sizes.clear(), flags.clear()

        for access in records:
            addresses.append(access.address)
            pcs.append(access.pc)
            sizes.append(access.size)
            flags.append(bool(access.is_write))
            if len(addresses) >= chunk_size:
                flush()
        flush()
        return self._count

    def _discard(self) -> None:
        for spool_path, handle in self._spools:
            if not handle.closed:
                handle.close()
            spool_path.unlink(missing_ok=True)

    def abort(self) -> None:
        """Drop the spools and any partial destination without writing."""
        self._closed = True
        self._discard()
        self._path.unlink(missing_ok=True)

    def close(self) -> int:
        """Assemble the final file (header + columns); returns the count."""
        if self._closed:
            return self._count
        self._closed = True
        try:
            for _, handle in self._spools:
                handle.close()
            with _open_write_stream(self._path) as out:
                out.write(_HEADER.pack(TRACE_V2_MAGIC, self._count))
                for spool_path, _ in self._spools:
                    with spool_path.open("rb") as spool:
                        while True:
                            block = spool.read(1 << 20)
                            if not block:
                                break
                            out.write(block)
        finally:
            self._discard()
        return self._count

    def __enter__(self) -> "TraceV2Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


# --------------------------------------------------------------------- #
# v2 reading
# --------------------------------------------------------------------- #

def _read_v2_count(handle: IO[bytes], label: str) -> int:
    raw = handle.read(TRACE_V2_HEADER_SIZE)
    if len(raw) != TRACE_V2_HEADER_SIZE:
        raise ValueError(f"{label}: truncated v2 header ({len(raw)} of "
                         f"{TRACE_V2_HEADER_SIZE} bytes)")
    magic, count = _HEADER.unpack(raw)
    if magic != TRACE_V2_MAGIC:
        raise ValueError(f"{label} is not a repro v2 trace (bad magic)")
    return count


def _v2_column_offset(count: int, column: str) -> int:
    offset = TRACE_V2_HEADER_SIZE
    for name, _, width in _COLUMNS:
        if name == column:
            return offset
        offset += width * count
    raise KeyError(column)  # pragma: no cover


def _check_v2_size(path: Path, count: int, label: str) -> None:
    """Exact-size check for uncompressed v2 files (mmap-safety too)."""
    expected = TRACE_V2_HEADER_SIZE + TRACE_V2_RECORD_BYTES * count
    actual = path.stat().st_size
    if actual < expected:
        raise ValueError(f"{label}: truncated v2 trace: expected {expected} "
                         f"bytes for {count} records, got {actual}")
    if actual > expected:
        raise ValueError(f"{label}: trailing data after {count} records "
                         f"({actual - expected} extra bytes)")


def _check_flags(flags: np.ndarray, base_index: int, label: str) -> None:
    bad = np.where(flags > 1)[0]
    if bad.size:
        index = int(bad[0])
        raise ValueError(f"{label}: record {base_index + index}: corrupt "
                         f"write flag {int(flags[index]):#04x} "
                         "(expected 0 or 1)")


def _check_sizes(sizes: np.ndarray, base_index: int, label: str) -> None:
    bad = np.where(sizes == 0)[0]
    if bad.size:
        index = int(bad[0])
        raise ValueError(f"{label}: record {base_index + index}: size must "
                         "be positive, got 0")


@dataclass(frozen=True)
class TraceColumns:
    """The four column arrays of a v2 trace (possibly memory-mapped)."""

    addresses: np.ndarray  # uint64
    pcs: np.ndarray        # uint64
    sizes: np.ndarray      # uint32
    is_write: np.ndarray   # bool

    @property
    def count(self) -> int:
        """Number of records."""
        return int(self.addresses.shape[0])

    def records(self) -> Iterator[MemoryAccess]:
        """Reconstruct the record stream (exact v1 round-trip)."""
        for address, pc, size, write in zip(
                self.addresses.tolist(), self.pcs.tolist(),
                self.sizes.tolist(), self.is_write.tolist()):
            yield MemoryAccess(address=address, is_write=bool(write),
                               pc=pc, size=size)


def read_trace_v2(path: Union[str, Path],
                  use_mmap: bool = True) -> TraceColumns:
    """Load a whole v2 trace as validated column arrays.

    Uncompressed files memory-map by default (``use_mmap=False`` forces a
    buffered read); compressed files always decompress into memory.  The
    write-flag and size columns are validated with record precision.
    """
    path = Path(path)
    label = str(path)
    compression = _compression_of(path)
    if compression is None and use_mmap:
        with path.open("rb") as handle:
            count = _read_v2_count(handle, label)
        _check_v2_size(path, count, label)
        columns = {}
        for name, dtype, _ in _COLUMNS:
            columns[name] = np.memmap(
                path, dtype=dtype, mode="r",
                offset=_v2_column_offset(count, name), shape=(count,))
    else:
        with _open_stream(path, compression) as handle:
            count = _read_v2_count(handle, label)
            if compression is None:
                _check_v2_size(path, count, label)
            columns = {}
            for name, dtype, width in _COLUMNS:
                raw = _read_exact(handle, width * count, label,
                                  f"{name} column")
                columns[name] = np.frombuffer(raw, dtype=dtype)
            if handle.read(1):
                raise ValueError(f"{label}: trailing data after {count} "
                                 "records")
    _check_sizes(columns["sizes"], 0, label)
    _check_flags(columns["is_write"], 0, label)
    return TraceColumns(addresses=columns["addresses"].astype(np.uint64,
                                                              copy=False),
                        pcs=columns["pcs"].astype(np.uint64, copy=False),
                        sizes=columns["sizes"].astype(np.uint32, copy=False),
                        is_write=columns["is_write"].astype(bool))


@contextmanager
def _v2_cursors(path: Path, compression: Optional[str], label: str,
                columns: Tuple[str, ...]):
    """Open one positioned stream per requested column (plus the count).

    Compressed files cannot seek cheaply, so each column gets its own
    decompression cursor — 2x (or 4x) the decompression work, but memory
    stays bounded by the chunk size instead of a whole column.
    """
    handles = []
    try:
        with _open_stream(path, compression) as head:
            count = _read_v2_count(head, label)
        if compression is None:
            _check_v2_size(path, count, label)
        for name in columns:
            handle = _open_stream(path, compression)
            handles.append(handle)
            _seek_forward(handle, _v2_column_offset(count, name))
        yield count, handles
    finally:
        for handle in handles:
            handle.close()


def _iter_v2_chunk_columns(path: Path, compression: Optional[str],
                           label: str, chunk_size: int,
                           columns: Tuple[str, ...]):
    """Yield ``(start, {name: array})`` chunks of the requested columns."""
    widths = {name: (dtype, width) for name, dtype, width in _COLUMNS}
    with _v2_cursors(path, compression, label, columns) as (count, handles):
        start = 0
        while start < count:
            n = min(chunk_size, count - start)
            chunk = {}
            for name, handle in zip(columns, handles):
                dtype, width = widths[name]
                raw = _read_exact(
                    handle, width * n, label,
                    f"{name} column records {start}..{start + n}")
                chunk[name] = np.frombuffer(raw, dtype=dtype)
            if "sizes" in chunk:
                _check_sizes(chunk["sizes"], start, label)
            if "is_write" in chunk:
                _check_flags(chunk["is_write"], start, label)
            yield start, chunk
            start += n
        # The last requested column ends the file; anything after it is
        # corruption (uncompressed files were size-checked up front).
        if handles and handles[-1].read(1):
            raise ValueError(f"{label}: trailing data after {count} records")


def _iter_v2_records(path: Path, compression: Optional[str], label: str,
                     chunk_size: int = 65536) -> Iterator[MemoryAccess]:
    """Record-level v2 iteration (for the scalar engine and converters)."""
    names = tuple(name for name, _, _ in _COLUMNS)
    for _, chunk in _iter_v2_chunk_columns(path, compression, label,
                                           chunk_size, names):
        for address, pc, size, write in zip(
                chunk["addresses"].tolist(), chunk["pcs"].tolist(),
                chunk["sizes"].tolist(), chunk["is_write"].tolist()):
            yield MemoryAccess(address=address, is_write=bool(write),
                               pc=pc, size=size)


# --------------------------------------------------------------------- #
# Dinero .din import
# --------------------------------------------------------------------- #

#: Access size assumed for ``.din`` records — the classic traces are
#: 32-bit-word streams and the format carries no size field.
DIN_ACCESS_SIZE = 4


def _parse_din(handle: IO[str], label: str) -> Iterator[MemoryAccess]:
    """Parse Dinero ``.din`` records (``label address``, both per line).

    Labels: 0 = data read, 1 = data write, 2 = instruction fetch (kept as
    a load with ``pc == address``).  Extra fields on a line are ignored,
    as Dinero does.  Errors carry ``label:line`` precision.
    """
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(
                f"{label}:{line_number}: malformed .din record {line!r} "
                "(expected 'label address')")
        if parts[0] not in ("0", "1", "2"):
            raise ValueError(
                f"{label}:{line_number}: bad .din access label "
                f"{parts[0]!r} (expected 0, 1 or 2)")
        try:
            address = int(parts[1], 16)
        except ValueError:
            raise ValueError(f"{label}:{line_number}: non-hex address "
                             f"field in {line!r}") from None
        if address < 0:
            raise ValueError(f"{label}:{line_number}: negative address "
                             f"in {line!r}")
        kind = int(parts[0])
        yield MemoryAccess(address=address, is_write=kind == 1,
                           pc=address if kind == 2 else 0,
                           size=DIN_ACCESS_SIZE)


def read_din_trace(path: Union[str, Path]) -> TraceReader:
    """Lazily read a ``.din`` trace (iterator + context manager)."""
    path = Path(path)
    handle = path.open("r", encoding="ascii")
    return TraceReader(handle, _parse_din(handle, str(path)))


def import_din_trace(src: Union[str, Path], dst: Union[str, Path]) -> int:
    """Convert a ``.din`` trace to v2; returns the record count."""
    return convert_trace(src, dst)


# --------------------------------------------------------------------- #
# unified readers
# --------------------------------------------------------------------- #

def trace_record_count(path: Union[str, Path]) -> Optional[int]:
    """Record count from a v2 counted header, or None for v1/text/din."""
    path = Path(path)
    fmt = detect_trace_format(path)
    if fmt.kind != "v2":
        return None
    with _open_stream(path, fmt.compression) as handle:
        return _read_v2_count(handle, str(path))


def read_trace_records(path: Union[str, Path]) -> Iterator[MemoryAccess]:
    """Iterate any supported trace file as :class:`MemoryAccess` records.

    Format and compression are auto-detected.  v1/text/din inputs return a
    :class:`~repro.trace.trace_io.TraceReader` (deterministic close); v2
    inputs stream in bounded column chunks.
    """
    path = Path(path)
    label = str(path)
    fmt = detect_trace_format(path)
    if fmt.kind == "v2":
        return _iter_v2_records(path, fmt.compression, label)
    handle = _open_stream(path, fmt.compression)
    if fmt.kind == "v1-binary":
        return TraceReader(handle, _parse_binary(handle, label))
    text = io.TextIOWrapper(handle, encoding="ascii")
    parser = _parse_text if fmt.kind == "text" else _parse_din
    return TraceReader(text, parser(text, label))


def _iter_record_chunks(records: Iterator[MemoryAccess], chunk_size: int):
    """Accumulate a record stream into ``AddressBatch`` chunks.

    A parse error propagates as soon as it is hit — after every complete
    earlier chunk has been yielded — with its original record/line
    precision intact (the mid-stream guarantee the corruption tests pin).
    """
    from ..engine.batch import AddressBatch

    addresses: list = []
    writes: list = []
    try:
        for access in records:
            addresses.append(access.address)
            writes.append(access.is_write)
            if len(addresses) >= chunk_size:
                yield AddressBatch.from_arrays(
                    np.array(addresses, dtype=np.uint64),
                    np.array(writes, dtype=bool))
                addresses, writes = [], []
        if addresses:
            yield AddressBatch.from_arrays(
                np.array(addresses, dtype=np.uint64),
                np.array(writes, dtype=bool))
    finally:
        close = getattr(records, "close", None)
        if close is not None:
            close()


def iter_trace_chunks(path: Union[str, Path],
                      chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Stream any trace file as bounded :class:`AddressBatch` chunks.

    The engine-facing entry point of the streaming layer: every yielded
    batch holds at most ``chunk_size`` accesses, so peak memory is bounded
    by the chunk (plus cache state) regardless of trace length.  Feeding
    the chunks to ``BatchSetAssociativeCache.run_chunks`` is bit-exact with
    one ``run()`` over the whole trace.

    v2 columns are read through buffered per-column cursors (compressed or
    not); v1/text/din inputs go through their validating record parsers,
    preserving each format's error precision mid-stream.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    path = Path(path)
    label = str(path)
    fmt = detect_trace_format(path)
    if fmt.kind == "v2":
        from ..engine.batch import AddressBatch

        def v2_batches():
            columns = ("addresses", "is_write")
            for start, chunk in _iter_v2_chunk_columns(
                    path, fmt.compression, label, chunk_size, columns):
                yield AddressBatch.from_arrays(
                    chunk["addresses"], chunk["is_write"].astype(bool))
        return v2_batches()
    return _iter_record_chunks(read_trace_records(path), chunk_size)


def convert_trace(src: Union[str, Path], dst: Union[str, Path],
                  chunk_size: int = 65536) -> int:
    """Convert any supported trace to v2, memory-bounded; returns count."""
    with TraceV2Writer(dst) as writer:
        writer.append_records(read_trace_records(src), chunk_size=chunk_size)
        return writer.count
