"""Compiled kernel tier: ``ckernels.c`` built with the system C compiler.

The batch caches of :mod:`repro.engine.batch_cache` and the batch
hierarchy of :mod:`repro.engine.hierarchy_vec` run their per-access loops
here when a C compiler is available, and run the same four kernels in
Python, from :mod:`repro.engine.pykernels` (the one-set path included),
when it is not (:func:`available` is the one switch, and the one seam
tests patch to reach the Python tier).

Build and load happen lazily, on the first kernel call, never at import:

* the source is compiled with ``${CC:-cc} -O2 -shared -fPIC`` (no
  ``-march=native``, so a cached library stays portable);
* the library is cached under ``$XDG_CACHE_HOME/repro`` (default
  ``~/.cache/repro``), or a per-user temp directory when that is not
  writable, named by the SHA-256 of the source, the compiler, the flags and
  the platform — a stale build is never picked up;
* a cache directory (mode ``0700``), the library and its digest are used
  only while this user owns them and nobody else can write them: the name
  is predictable, so another user's ``/tmp/repro-<uid>`` could plant code;
* it is compiled to a temporary name and ``os.replace``-d into place, next to
  a digest of its bytes that is checked before a cached copy is loaded, so a
  half-written or damaged file never loads and concurrent sweep workers can
  build at the same time;
* a missing compiler, a compile error or no writable directory emits one
  ``RuntimeWarning`` per process and the Python kernels run instead — same
  results, slower.

The wrappers :func:`run_set_assoc` (one-set caches on their own O(1)
path, :func:`set_assoc_path`), :func:`run_victim`, :func:`run_column`,
:func:`run_hierarchy`, :func:`run_ooo` (the out-of-order core of
:mod:`repro.cpu.processor`, which has no Python twin here: the Python core
itself is its fallback), :func:`build_program_columns` (the program
generator of :mod:`repro.cpu.workloads`, whose fallback is likewise that
module's ``_instruction_stream``), :func:`workload_trace` (the workload
synthesis of :mod:`repro.trace.workloads`, whose fallback is its NumPy
block-draw path) and :func:`first_touch` (the page order of
:func:`repro.engine.translate_vec.batch_page_frames`, whose fallback is
``np.unique``) check every array (dtype, C-contiguity,
shape, writability, indices in range), every block shift (in ``[0, 63]``,
and no address at or past ``2**63`` under shift 0, so the blocks the
kernels shift the addresses to are never negative),
every placement (:class:`~repro.engine.index_vec.Placement`: each image
within the cache's sets) and every parameter before the call,
raising ``ValueError`` — nothing malformed reaches C.  They return hit
masks, counters or columns and mutate the state arrays they are given in
place; no ``ctypes`` object outlives a call, so the caches that own the
arrays stay picklable.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "POLICY_CODES",
    "available",
    "set_assoc_path",
    "run_set_assoc",
    "run_victim",
    "run_column",
    "run_hierarchy",
    "OOO_PARAMS",
    "OOO_COUNTERS",
    "run_ooo",
    "PROGRAM_PARAMS",
    "build_program_columns",
    "WORKLOAD_PARAMS",
    "workload_trace",
    "first_touch",
]

_SOURCE = Path(__file__).with_name("ckernels.c")
_FLAGS = ("-O2", "-shared", "-fPIC")

#: Replacement-policy codes of the C kernels.
POLICY_CODES = {"lru": 0, "fifo": 1, "random": 2, "plru": 3}

#: Length of every kernel's ``counts``: loads, stores, load misses, store
#: misses, evictions, writebacks, then up to three family counters.
NUM_COUNTS = 9

#: Length of the hierarchy kernel's ``events``: holes (one L2 miss causes
#: at most one), back-invalidations, alias invalidations.
NUM_EVENTS = 3

#: Slots of :func:`run_ooo`'s ``params`` (ckernels.c's ``P_*``), each with
#: the least value the core accepts.
OOO_PARAMS = {
    "fetch_width": 1, "commit_width": 1, "rob_entries": 1,
    "int_physical_registers": 1, "fp_physical_registers": 1,
    "decode_latency": 0, "redirect_penalty": 0, "branch_entries": 1,
    "hit_time": 1, "miss_penalty": 0, "xor_penalty": 0, "ports": 1,
    "mshr_entries": 1, "bus_cycles": 1, "address_prediction": 0,
    "address_entries": 1, "confidence_threshold": 1, "forward_latency": 0,
    "num_regs": 1, "first_fp_reg": 0, "num_address_ids": 0, "num_units": 1,
    "op_load": 0, "op_store": 0, "op_branch": 0,
}

#: Counters :func:`run_ooo` returns (ckernels.c's ``C_*``).
OOO_COUNTERS = ("cycles", "forwarded_loads", "load_accesses",
                "store_accesses", "merged_misses", "mshr_stall_cycles",
                "branches", "mispredictions", "address_lookups",
                "address_confident", "address_correct")

#: Slots of :func:`build_program_columns`'s ``params`` (ckernels.c's
#: ``G_*``), each with the least value the builder accepts.  Draws are
#: taken below ``ppm`` or ``percent``: a ``*_cut`` bounds a ``ppm`` draw,
#: a ``*_chance`` a ``percent`` draw.
PROGRAM_PARAMS = {
    "ppm": 1, "percent": 1, "mem_cut": 0, "branch_cut": 0, "flip_cut": 0,
    "fp_cut": 0, "fp_div_cut": 0, "fp_sqrt_cut": 0, "fp_mul_cut": 0,
    "int_mul_cut": 0, "int_div_cut": 0, "fp_memory": 0,
    "store_fp_chance": 0, "load_fp_chance": 0, "memory_src_chance": 0,
    "branch_src_chance": 0, "src_chance": 0, "window": 1, "pool_limit": 1,
    "pool_drop": 1, "int_regs": 2, "fp_regs": 2, "base_regs": 1,
    "branch_sites": 1, "pc_start": 0, "pc_step": 0, "branch_pc": 0,
    "op_load": 0, "op_store": 0, "op_branch": 0, "op_fp_div": 0,
    "op_fp_sqrt": 0, "op_fp_mul": 0, "op_fp_add": 0, "op_int_mul": 0,
    "op_int_div": 0, "op_int_alu": 0,
}

#: The workload synthesis draws below this bound (ckernels.c's
#: ``WORKLOAD_PPM``).
WORKLOAD_PPM = 1_000_000

#: Slots of :func:`workload_trace`'s ``params`` (ckernels.c's ``W_*``),
#: each with the least value the synthesis accepts: the cuts of the
#: component draw and of the hot component's store draw, then the layout
#: of ``trace.workloads._WorkloadState``.
WORKLOAD_PARAMS = {
    "conflict_cut": 0, "stream_cut": 0, "medium_cut": 0, "write_cut": 0,
    "block_size": 1, "hot_base": 0, "hot_slots": 1, "stream_base": 0,
    "medium_base": 0, "medium_blocks": 1, "conflict_base": 0,
    "conflict_spacing": 0, "conflict_elements": 1, "conflict_arrays": 1,
    "hot_pc": 0, "stream_pc": 0, "medium_pc": 0, "conflict_pc": 0,
    "conflict_pc_step": 0,
}

#: The loaded library, once the first kernel call has tried to build it.
_LIBRARY: Optional[ctypes.CDLL] = None
_TRIED = False


class _BuildError(Exception):
    """The compiler is missing or rejected the source."""


def available() -> bool:
    """Whether the compiled kernels can run (builds them on first call)."""
    global _LIBRARY, _TRIED
    if not _TRIED:
        _TRIED = True
        try:
            _LIBRARY = _load()
        except (OSError, _BuildError) as exc:
            # Attributed to the module rather than a source line, so the
            # warning prints as one line.
            warnings.warn_explicit(
                f"compiled cache kernels unavailable ({exc}); running the "
                f"Python kernels instead", RuntimeWarning, __name__, 0)
    return _LIBRARY is not None


def _cache_dirs() -> Tuple[Path, Path]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    if hasattr(os, "getuid"):
        user = os.getuid()
    else:
        import getpass
        user = getpass.getuser()
    return (Path(base) / "repro",
            Path(tempfile.gettempdir()) / f"repro-{user}")


def _library_name(compiler: Sequence[str]) -> str:
    digest = hashlib.sha256()
    for part in (_SOURCE.read_bytes(), " ".join(compiler).encode(),
                 " ".join(_FLAGS).encode(),
                 f"{sys.platform}-{platform.machine()}".encode()):
        digest.update(part)
        digest.update(b"\0")
    return f"ckernels-{digest.hexdigest()[:32]}.so"


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_private(path: Path) -> None:
    """Raise ``PermissionError`` unless ``path`` belongs to this user and
    neither its group nor others can write it."""
    if not hasattr(os, "getuid"):  # no POSIX owners (Windows)
        return
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{path} is not private to this user")


def _load_cached(path: Path) -> Optional[ctypes.CDLL]:
    """The cached library at ``path`` if its bytes match its digest file
    and both files are private to this user."""
    digest = path.with_name(path.name + ".sha256")
    try:
        _check_private(path)
        _check_private(digest)
        expected = digest.read_text().strip()
        if _file_digest(path) != expected:
            return None
        return _bind(ctypes.CDLL(str(path)))
    except (OSError, AttributeError):
        return None


def _build(compiler: Sequence[str], path: Path) -> None:
    """Compile to a temporary name, then move library and digest in place."""
    import subprocess  # only a build needs it; keeps the import light

    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [*compiler, *_FLAGS, "-o", tmp, str(_SOURCE)],
                capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as exc:
            raise _BuildError(f"cannot run {compiler[0]!r}: {exc}") from None
        if proc.returncode != 0:
            detail = (proc.stderr.strip().splitlines() or [""])[0]
            raise _BuildError(f"{compiler[0]!r} exited {proc.returncode}"
                              + (f": {detail}" if detail else ""))
        digest_tmp = tmp + ".sha256"
        Path(digest_tmp).write_text(_file_digest(Path(tmp)))
        # Modes independent of the umask, so the files pass _check_private.
        os.chmod(tmp, 0o700)
        os.chmod(digest_tmp, 0o600)
        os.replace(tmp, path)
        os.replace(digest_tmp, path.with_name(path.name + ".sha256"))
    finally:
        for leftover in (tmp, tmp + ".sha256"):
            if os.path.exists(leftover):
                os.unlink(leftover)


def _load() -> ctypes.CDLL:
    """Load the cached library, building it first when needed."""
    # Split like the shell expands an unquoted ${CC:-cc}.
    compiler = os.environ.get("CC", "").split() or ["cc"]
    name = _library_name(compiler)
    unusable = []
    for directory in _cache_dirs():
        path = directory / name
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            _check_private(directory)
            library = _load_cached(path)
            if library is not None:
                return library
            _build(compiler, path)
        except OSError as exc:  # not writable, or not private
            unusable.append(f"{directory}: {exc.strerror or exc}")
            continue
        return _bind(ctypes.CDLL(str(path)))
    raise _BuildError("no writable cache directory private to this user ("
                      + "; ".join(unusable) + ")")


class _Placement(ctypes.Structure):
    """``placement_t`` of ckernels.c: an :class:`index_vec.Placement`."""

    _fields_ = [("funcs", ctypes.c_int64), ("bits", ctypes.c_int64),
                ("images", ctypes.c_void_p)]


class _Level(ctypes.Structure):
    """``level_t`` of ckernels.c: one set-associative cache's arrays."""

    _fields_ = [("place", _Placement), ("ways", ctypes.c_int64),
                ("num_sets", ctypes.c_int64), ("write_back", ctypes.c_int64),
                ("kind", ctypes.c_int64), ("tags", ctypes.c_void_p),
                ("dirty", ctypes.c_void_p), ("stamps", ctypes.c_void_p),
                ("bits", ctypes.c_void_p), ("seed", ctypes.c_uint64),
                ("io", ctypes.c_void_p), ("counts", ctypes.c_void_p)]


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    i64, u64, ptr = ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p
    signatures = {
        "repro_sa_run": [i64, ptr, i64, ptr, ptr, ptr],
        "repro_fa_run": [i64, ptr, i64, ptr, ptr, ptr],
        "repro_victim_run": [i64, ptr, i64, ptr, ptr, i64, i64, i64, ptr,
                             ptr, ptr, ptr, u64, i64, ptr, ptr, ptr, ptr,
                             u64, ptr, ptr, ptr],
        "repro_column_run": [i64, ptr, i64, ptr, ptr, i64, ptr, ptr, ptr,
                             ptr, ptr],
        "repro_hier_run": [i64, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr,
                           ptr],
        "repro_ooo_run": [i64, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr,
                          ptr, ptr, ptr, ptr, ptr],
        "repro_build_program": [i64, u64, ptr, i64, ptr, ptr, ptr, ptr, ptr,
                                ptr, ptr, ptr, ptr],
        "repro_workload_trace": [i64, u64, ptr, ptr, ptr, ptr],
        "repro_first_touch": [i64, ptr, ptr, ptr],
    }
    for symbol, argtypes in signatures.items():
        function = getattr(library, symbol)
        function.argtypes = argtypes
        function.restype = i64
    return library


# --------------------------------------------------------------------- #
# argument checks: nothing malformed reaches C
# --------------------------------------------------------------------- #

def _pointer(name: str, array, dtype, shape: Tuple[int, ...],
             writable: bool = True) -> int:
    if not isinstance(array, np.ndarray) or array.dtype != dtype:
        raise ValueError(f"{name} must be a {np.dtype(dtype).name} array")
    if not array.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    if writable and not array.flags.writeable:
        raise ValueError(f"{name} must be writable")
    return array.ctypes.data


def _index_pointer(name: str, array, n: int, limit: int,
                   writable: bool = False, low: int = 0) -> int:
    """Like :func:`_pointer` for ``n`` int64 indices in ``[low, limit)``
    (``low=-1`` admits the "none" marker of the hierarchy's maps)."""
    address = _pointer(name, array, np.int64, (n,), writable=writable)
    if n and (int(array.min()) < low or int(array.max()) >= limit):
        raise ValueError(f"{name} holds an index outside [{low}, {limit})")
    return address


def _checked_placement(label: str, place, funcs: Sequence[int],
                       num_sets: int) -> _Placement:
    """A checked :class:`_Placement` over ``place``'s arrays, which must
    outlive the call: ``funcs`` lists the function counts allowed, and no
    function's images reach a set at or above ``num_sets`` (a set is an XOR
    of images, so their OR bounds it; the kernels' XOR tables hold 32-bit
    sets)."""
    images = getattr(place, "images", None)
    (count, bits) = _shape(images, 2)
    if count not in funcs:
        raise ValueError(f"{label}placement has {count} functions, expected "
                         f"one of {sorted(set(funcs))}")
    images_ptr = _pointer(f"{label}placement images", images, np.int64,
                          (count, bits), writable=False)
    if bits > 64:
        raise ValueError(f"{label}placement images cover {bits} address "
                         "bits; blocks have 64")
    limit = min(num_sets, 2**32)
    for row in images:
        if bits and (int(row.min()) < 0
                     or int(np.bitwise_or.reduce(row)) >= limit):
            raise ValueError(f"{label}placement images reach a set outside "
                             f"[0, {limit})")
    return _Placement(count, bits, images_ptr)


def _policy_pointers(prefix: str, policy: str, ways: int, num_sets: int,
                     stamps, bits) -> Tuple[Optional[int], Optional[int]]:
    if policy not in POLICY_CODES:
        raise ValueError(f"unknown replacement policy {policy!r}")
    stamp_ptr = bit_ptr = None
    if policy != "random":
        stamp_ptr = _pointer(f"{prefix}stamps", stamps, np.int64,
                             (ways, num_sets))
    if policy == "plru":
        bit_ptr = _pointer(f"{prefix}PLRU bits", bits, np.uint8,
                           (num_sets, max(ways - 1, 1)))
    return stamp_ptr, bit_ptr


def _library() -> ctypes.CDLL:
    if not available():
        raise RuntimeError("compiled cache kernels are not available")
    return _LIBRARY


def _shape(array, ndim: int) -> Tuple[int, ...]:
    """``array``'s shape, or zeros when it is not an ``ndim``-d array."""
    if isinstance(array, np.ndarray) and array.ndim == ndim:
        return array.shape
    return (0,) * ndim


def check_blocks(name: str, blocks: np.ndarray) -> None:
    """Reject negative int64 page or block numbers."""
    if blocks.size and int(blocks.min()) < 0:
        raise ValueError(f"{name} must be non-negative")


def check_shift(name: str, addresses: np.ndarray, shift) -> int:
    """``shift`` as an int, after rejecting a block shift outside ``[0,
    63]`` and an address at or past ``2**63`` under shift 0: the kernels
    shift uint64 addresses to int64 blocks, and a negative block would
    match invalid frames (tag -1)."""
    if (not isinstance(shift, (int, np.integer)) or isinstance(shift, bool)
            or not 0 <= shift <= 63):
        raise ValueError(f"{name} shift must be an integer in [0, 63]")
    if shift == 0 and addresses.size and int(addresses.max()) >= 2**63:
        raise ValueError(f"{name} addresses must be below 2**63 at shift 0")
    return int(shift)


def _inputs(addresses, writes, shift) -> Tuple[int, int, int, int]:
    (n,) = _shape(addresses, 1)
    address_ptr = _pointer("addresses", addresses, np.uint64, (n,),
                           writable=False)
    return (n, address_ptr, check_shift("block", addresses, shift),
            _pointer("writes", writes, np.uint8, (n,), writable=False))


def _call(function, n: int, *args):
    """Call a kernel with fresh ``hits``/``counts`` outputs appended."""
    hits = np.empty(n, dtype=np.uint8)
    counts = np.zeros(NUM_COUNTS, dtype=np.int64)
    if function(*args, hits.ctypes.data, counts.ctypes.data) != 0:
        raise MemoryError("compiled cache kernel could not allocate scratch")
    return hits.view(bool), counts


# --------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------- #

def _checked_level(label: str, *, place, write_back: bool, policy: str,
                   tags: np.ndarray, dirty: np.ndarray,
                   stamps: Optional[np.ndarray], bits: Optional[np.ndarray],
                   seed: int, io: np.ndarray):
    """A checked :class:`_Level` over one cache's arrays.

    Returns ``(level, counts)``: ``counts`` receives the level's counters.
    """
    ways, num_sets = _shape(tags, 2)
    if ways < 1 or num_sets < 1:
        raise ValueError(f"{label}tags must be a non-empty ways x num_sets "
                         "table")
    tag_ptr = _pointer(f"{label}tags", tags, np.int64, (ways, num_sets))
    dirty_ptr = _pointer(f"{label}dirty", dirty, np.uint8, (ways, num_sets))
    stamp_ptr, bit_ptr = _policy_pointers(label, policy, ways, num_sets,
                                          stamps, bits)
    io_ptr = _pointer(f"{label}io", io, np.int64, (2,))
    placement = _checked_placement(label, place, (1, ways), num_sets)
    counts = np.zeros(NUM_COUNTS, dtype=np.int64)
    level = _Level(placement, ways, num_sets, int(write_back),
                   POLICY_CODES[policy], tag_ptr, dirty_ptr, stamp_ptr,
                   bit_ptr, seed & (2**64 - 1), io_ptr, counts.ctypes.data)
    return level, counts


def set_assoc_path(num_sets: int) -> str:
    """The kernel path of a set-associative cache of ``num_sets`` sets:
    ``"fully-assoc"`` (``repro_fa_run``, O(1) per access) for one set,
    else ``"set-assoc"`` (``repro_sa_run``).  :func:`run_set_assoc` and
    its Python twin in :mod:`repro.engine.pykernels` take it, and the
    batch cache's ``dispatch_strategy`` names it."""
    return "fully-assoc" if num_sets == 1 else "set-assoc"


def run_set_assoc(addresses: np.ndarray, writes: np.ndarray, *, shift: int,
                  place, write_back: bool, policy: str, tags: np.ndarray,
                  dirty: np.ndarray, stamps: Optional[np.ndarray],
                  bits: Optional[np.ndarray], seed: int, io: np.ndarray):
    """Run one batch through a set-associative cache's state.

    Access ``i`` is block ``addresses[i] >> shift`` (uint64 byte
    addresses, ``shift`` the log2 of the block size), a store where
    ``writes[i]`` (uint8).  ``place`` is the cache's
    :class:`~repro.engine.index_vec.Placement` (one function, or one per
    way); ``tags``/``dirty``/``stamps`` are
    ``ways x num_sets`` (``stamps`` unused by ``random``), ``bits`` the
    ``num_sets x tree`` PLRU table (PLRU only), ``io`` holds ``[clock,
    random draws]`` and is updated.  The cache's :func:`set_assoc_path`
    picks the kernel; both give the same results and state.  Returns
    ``(hits, counts)``.
    """
    library = _library()
    n, address_ptr, shift, write_ptr = _inputs(addresses, writes, shift)
    level, counts = _checked_level(
        "", place=place, write_back=write_back, policy=policy, tags=tags,
        dirty=dirty, stamps=stamps, bits=bits, seed=seed, io=io)
    kernel = (library.repro_fa_run
              if set_assoc_path(level.num_sets) == "fully-assoc"
              else library.repro_sa_run)
    hits = np.empty(n, dtype=np.uint8)
    if kernel(n, address_ptr, shift, write_ptr, ctypes.byref(level),
              hits.ctypes.data) != 0:
        raise MemoryError("compiled cache kernel could not allocate scratch")
    return hits.view(bool), counts


def run_victim(addresses: np.ndarray, writes: np.ndarray, *, shift: int,
               place, policy: str, tags: np.ndarray, dirty: np.ndarray,
               stamps: Optional[np.ndarray], bits: Optional[np.ndarray],
               seed: int, vtags: np.ndarray, vdirty: np.ndarray,
               vstamps: Optional[np.ndarray], vbits: Optional[np.ndarray],
               vseed: int, io: np.ndarray):
    """Run one batch through a victim cache's main cache and buffer.

    Accesses, main-cache placement and tables as in
    :func:`run_set_assoc`; the buffer's ``vtags``/
    ``vdirty`` hold one entry each, ``vstamps`` is ``entries x 1`` and
    ``vbits`` ``1 x tree``.  ``io`` holds ``[main clock, buffer clock, main
    draws, buffer draws]``; the family counters are main and buffer hits.
    """
    library = _library()
    n, address_ptr, shift, write_ptr = _inputs(addresses, writes, shift)
    ways, num_sets = _shape(tags, 2)
    (entries,) = _shape(vtags, 1)
    if ways < 1 or num_sets < 1 or entries < 1:
        raise ValueError("victim cache tables must be non-empty")
    tag_ptr = _pointer("tags", tags, np.int64, (ways, num_sets))
    dirty_ptr = _pointer("dirty", dirty, np.uint8, (ways, num_sets))
    stamp_ptr, bit_ptr = _policy_pointers("", policy, ways, num_sets,
                                          stamps, bits)
    vtag_ptr = _pointer("buffer tags", vtags, np.int64, (entries,))
    vdirty_ptr = _pointer("buffer dirty", vdirty, np.uint8, (entries,))
    vstamp_ptr, vbit_ptr = _policy_pointers("buffer ", policy, entries, 1,
                                            vstamps, vbits)
    io_ptr = _pointer("io", io, np.int64, (4,))
    placement = _checked_placement("", place, (1, ways), num_sets)
    return _call(
        library.repro_victim_run, n, n, address_ptr, shift, write_ptr,
        ctypes.byref(placement), ways,
        num_sets, POLICY_CODES[policy], tag_ptr, dirty_ptr, stamp_ptr,
        bit_ptr, seed & (2**64 - 1), entries, vtag_ptr, vdirty_ptr,
        vstamp_ptr, vbit_ptr, vseed & (2**64 - 1), io_ptr)


def run_column(addresses: np.ndarray, writes: np.ndarray, *, shift: int,
               place, swap: bool, tags: np.ndarray, dirty: np.ndarray,
               sec_of: np.ndarray):
    """Run one batch through a column-associative cache's frames.

    Accesses as in :func:`run_set_assoc`; ``place`` holds two functions
    over the frames, the primary index then the secondary; ``sec_of[f]`` is
    the secondary index of the block in frame ``f``.  The family counters
    are first-probe hits, second-probe hits and probes.
    """
    library = _library()
    n, address_ptr, shift, write_ptr = _inputs(addresses, writes, shift)
    (frames,) = _shape(tags, 1)
    if frames < 1:
        raise ValueError("tags must be a non-empty frame table")
    tag_ptr = _pointer("tags", tags, np.int64, (frames,))
    dirty_ptr = _pointer("dirty", dirty, np.uint8, (frames,))
    sec_ptr = _index_pointer("sec_of", sec_of, frames, frames, writable=True)
    placement = _checked_placement("", place, (2,), frames)
    return _call(
        library.repro_column_run, n, n, address_ptr, shift, write_ptr,
        ctypes.byref(placement), int(swap), tag_ptr, dirty_ptr, sec_ptr)


def run_hierarchy(l1_addresses: np.ndarray, l2_addresses: np.ndarray,
                  writes: np.ndarray, *, shift: int, l1: dict, l2: dict,
                  l1_line: np.ndarray):
    """Run one batch through the virtual-real hierarchy: an L1 over an
    inclusive L2 with back-invalidation, both with block shift ``shift``.

    ``l1``/``l2`` hold each level's :func:`run_set_assoc` placement and
    state.  Access ``i`` is block ``l1_addresses[i] >> shift`` in L1 and
    ``l2_addresses[i] >> shift`` in L2, which is also its line.
    ``l1_line`` holds the line in each L1 frame (``-1`` for none) and is
    kept current.  The loop finds a line's L1 frame through a hash over
    ``l1_line`` and an evicted L2 block's line from its tag, so lines need
    no compaction.  Returns ``(l1_hits, l2_hits, l1_counts, l2_counts,
    events)`` with the :data:`NUM_EVENTS` hierarchy counters.
    """
    library = _library()
    n, l1_address_ptr, shift, write_ptr = _inputs(l1_addresses, writes,
                                                  shift)
    l2_address_ptr = _pointer("L2 addresses", l2_addresses, np.uint64, (n,),
                              writable=False)
    check_shift("L2 block", l2_addresses, shift)
    l1_level, l1_counts = _checked_level("L1 ", **l1)
    l2_level, l2_counts = _checked_level("L2 ", **l2)
    l1_line_ptr = _index_pointer("l1_line", l1_line,
                                 l1_level.ways * l1_level.num_sets,
                                 2**63 - 1, writable=True, low=-1)
    l1_hits = np.empty(n, dtype=np.uint8)
    l2_hits = np.empty(n, dtype=np.uint8)
    events = np.zeros(NUM_EVENTS, dtype=np.int64)
    if library.repro_hier_run(
            n, l1_address_ptr, l2_address_ptr, write_ptr, shift,
            ctypes.byref(l1_level), ctypes.byref(l2_level), l1_line_ptr,
            l1_hits.ctypes.data, l2_hits.ctypes.data,
            events.ctypes.data) != 0:
        raise MemoryError("compiled cache kernel could not allocate scratch")
    return (l1_hits.view(bool), l2_hits.view(bool), l1_counts, l2_counts,
            events)


def _ooo_params(params: dict, nops: int) -> np.ndarray:
    """:data:`OOO_PARAMS` as the kernel's array, each value checked."""
    if not isinstance(params, dict) or set(params) != set(OOO_PARAMS):
        raise ValueError(f"params must name exactly {sorted(OOO_PARAMS)}")
    for name, least in OOO_PARAMS.items():
        if not isinstance(params[name], (int, np.integer)):
            raise ValueError(f"{name} must be an integer")
        if params[name] < least:
            raise ValueError(f"{name} must be at least {least}")
    if params["address_prediction"] not in (0, 1):
        raise ValueError("address_prediction must be 0 or 1")
    if params["confidence_threshold"] > 3:
        raise ValueError("confidence_threshold must be a 2-bit counter value")
    if params["first_fp_reg"] > params["num_regs"]:
        raise ValueError("first_fp_reg must not exceed num_regs")
    for name in ("op_load", "op_store", "op_branch"):
        if params[name] >= nops:
            raise ValueError(f"{name} is not an op code of the unit table")
    return np.array([int(params[name]) for name in OOO_PARAMS],
                    dtype=np.int64)


def run_ooo(ops: np.ndarray, dests: np.ndarray, srcs: np.ndarray,
            addr_ids: np.ndarray, addresses: np.ndarray, blocks: np.ndarray,
            pcs: np.ndarray, taken: np.ndarray, *, params: dict,
            units: np.ndarray, level: dict):
    """Run one program through a fresh out-of-order core.

    Per instruction: op code ``ops`` (a row of ``units``), destination
    register ``dests`` (-1 for none), source registers ``srcs`` (``n x
    k``, padded with -1), dense address id ``addr_ids`` (which stores a
    load may forward from), address, cache block, ``pcs`` and branch
    outcome ``taken`` (uint8).  ``units`` is ``ops x (2 + num_units)``:
    latency, repeat interval, then which units serve the op.  ``params``
    names every :data:`OOO_PARAMS` slot; ``level`` is the L1's
    :func:`run_set_assoc` state over ``blocks`` and is updated.

    Returns ``(accessed, counters, l1_counts)``: which instructions reached
    the cache, :data:`OOO_COUNTERS` by name and the L1's counts.
    """
    (n,) = _shape(ops, 1)
    nops, width = _shape(units, 2)
    unit_ptr = _pointer("units", units, np.int64, (nops, width),
                        writable=False)
    param_array = _ooo_params(params, nops)
    if nops < 1 or width - 2 != params["num_units"]:
        raise ValueError("units must be ops x (2 + num_units)")
    serves = units[:, 2:]
    if (units[:, :2] < 1).any() or ((serves != 0) & (serves != 1)).any() \
            or not serves.any(axis=1).all():
        raise ValueError("every op needs a latency, a repeat interval and a "
                         "serving unit")
    regs = params["num_regs"]
    (_, nsrc) = _shape(srcs, 2)
    src_ptr = _pointer("srcs", srcs, np.int64, (n, nsrc), writable=False)
    if n and nsrc and (srcs.min() < -1 or srcs.max() >= regs):
        raise ValueError("srcs holds a register outside [-1, num_regs)")
    op_ptr = _index_pointer("ops", ops, n, nops)
    dest_ptr = _index_pointer("dests", dests, n, regs, low=-1)
    id_ptr = _index_pointer("addr_ids", addr_ids, n,
                            params["num_address_ids"])
    address_ptr = _index_pointer("addresses", addresses, n, 2**63 - 1)
    block_ptr = _index_pointer("blocks", blocks, n, 2**63 - 1)
    pc_ptr = _index_pointer("pcs", pcs, n, 2**63 - 1)
    taken_ptr = _pointer("taken", taken, np.uint8, (n,), writable=False)
    l1, l1_counts = _checked_level("L1 ", **level)
    library = _library()
    accessed = np.empty(n, dtype=np.uint8)
    counters = np.zeros(len(OOO_COUNTERS), dtype=np.int64)
    if library.repro_ooo_run(
            n, op_ptr, dest_ptr, src_ptr, nsrc, id_ptr, address_ptr,
            block_ptr, pc_ptr, taken_ptr, param_array.ctypes.data, unit_ptr,
            ctypes.byref(l1), accessed.ctypes.data,
            counters.ctypes.data) != 0:
        raise MemoryError("compiled out-of-order core could not allocate "
                          "scratch")
    return (accessed.view(bool), dict(zip(OOO_COUNTERS, counters.tolist())),
            l1_counts)


def _slot_values(params: dict, slots: dict) -> dict:
    """``params`` as Python ints, after checking that it names exactly the
    ``slots`` and that each value is an integer in ``[least, 2**62)``."""
    if not isinstance(params, dict) or set(params) != set(slots):
        raise ValueError(f"params must name exactly {sorted(slots)}")
    values = {}
    for name, least in slots.items():
        value = params[name]
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer")
        if not least <= value < 2**62:
            raise ValueError(f"{name} must be in [{least}, 2**62)")
        values[name] = int(value)
    return values


def _program_params(params: dict) -> np.ndarray:
    """:data:`PROGRAM_PARAMS` as the builder's array, each value checked:
    every cut within ``ppm`` and every chance within ``percent``, the cuts
    of one draw in order, the register classes larger than their base
    registers, and a trimmed pool never empty."""
    params = _slot_values(params, PROGRAM_PARAMS)
    for name, value in params.items():
        if name.endswith("_cut") and value > params["ppm"]:
            raise ValueError(f"{name} must not exceed ppm")
        if name.endswith("_chance") and value > params["percent"]:
            raise ValueError(f"{name} must not exceed percent")
    for low, high in (("mem_cut", "branch_cut"), ("fp_div_cut", "fp_sqrt_cut"),
                      ("fp_sqrt_cut", "fp_mul_cut"),
                      ("int_mul_cut", "int_div_cut")):
        if params[low] > params[high]:
            raise ValueError(f"{low} must not exceed {high}")
    if params["fp_memory"] > 1:
        raise ValueError("fp_memory must be 0 or 1")
    for name in ("int_regs", "fp_regs"):
        if params[name] <= params["base_regs"]:
            raise ValueError(f"{name} must exceed base_regs")
    if params["pool_drop"] > params["pool_limit"]:
        raise ValueError("pool_drop must not exceed pool_limit")
    return np.array(list(params.values()), dtype=np.int64)


def build_program_columns(length: int, seed: int, *, params: dict,
                          addresses: np.ndarray, writes: np.ndarray,
                          pcs: np.ndarray):
    """Generate one synthetic program as the out-of-order core's columns.

    ``length`` instructions from the generator seeded with ``seed``;
    ``params`` names every :data:`PROGRAM_PARAMS` slot.  Memory
    instructions take the trace's accesses in order: int64 ``addresses``,
    uint8 store flags ``writes`` and int64 ``pcs`` (0 for "the running
    pc"); the trace must hold at least ``length`` accesses, the most a
    program of that length can take.

    Returns ``(ops, dests, srcs, addresses, pcs, taken)`` as fresh int64
    arrays (``taken`` uint8), ``srcs`` ``length x k`` padded with -1, where
    ``k`` is 2 unless no instruction has a second source.
    """
    if not isinstance(length, (int, np.integer)) or length < 1:
        raise ValueError("length must be a positive integer")
    param_array = _program_params(params)
    # Python ints: NumPy scalars would wrap before the comparison.
    params = dict(zip(PROGRAM_PARAMS, param_array.tolist()))
    if max(params["pc_start"] + int(length) * params["pc_step"],
           params["branch_pc"] + params["branch_sites"] * params["pc_step"]
           ) >= 2**63:
        raise ValueError("the program's pcs would pass 2**63")
    (trace_len,) = _shape(addresses, 1)
    if trace_len < length:
        raise ValueError(f"the trace holds {trace_len} accesses; a program "
                         f"of {length} instructions may take {length}")
    address_ptr = _index_pointer("trace addresses", addresses, trace_len,
                                 2**63 - 1)
    pc_ptr = _index_pointer("trace pcs", pcs, trace_len, 2**63 - 1)
    write_ptr = _pointer("trace writes", writes, np.uint8, (trace_len,),
                         writable=False)
    library = _library()
    n = int(length)
    columns = [np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64),
               np.empty((n, 2), dtype=np.int64), np.empty(n, dtype=np.int64),
               np.empty(n, dtype=np.int64), np.empty(n, dtype=np.uint8)]
    status = library.repro_build_program(
        n, (seed or 1) & (2**64 - 1), param_array.ctypes.data, trace_len,
        address_ptr, write_ptr, pc_ptr,
        *(column.ctypes.data for column in columns))
    if status == -1:
        raise MemoryError("compiled program builder could not allocate "
                          "scratch")
    if status != 0:
        raise ValueError("the program needs more accesses than the trace "
                         "holds")
    srcs = columns[2]
    if (srcs[:, 1] < 0).all():
        columns[2] = np.ascontiguousarray(srcs[:, :1])
    return tuple(columns)


def _workload_params(params: dict) -> np.ndarray:
    """:data:`WORKLOAD_PARAMS` as the synthesis's array, each value
    checked: the component cuts in order, every cut within
    :data:`WORKLOAD_PPM`, and the conflict component's pcs below
    ``2**63``."""
    values = _slot_values(params, WORKLOAD_PARAMS)
    if not (values["conflict_cut"] <= values["stream_cut"]
            <= values["medium_cut"] <= WORKLOAD_PPM):
        raise ValueError("the component cuts must rise and stay within "
                         f"{WORKLOAD_PPM}")
    if values["write_cut"] > WORKLOAD_PPM:
        raise ValueError(f"write_cut must not exceed {WORKLOAD_PPM}")
    if (values["conflict_pc"] + values["conflict_pc_step"]
            * values["conflict_arrays"]) >= 2**63:
        raise ValueError("the conflict component's pcs would pass 2**63")
    return np.array(list(values.values()), dtype=np.int64)


def workload_trace(length: int, seed: int, *, params: dict,
                   addresses: np.ndarray, is_write: np.ndarray,
                   pcs: Optional[np.ndarray] = None) -> None:
    """Synthesise one workload trace into its columns.

    ``length`` accesses from the generator seeded with ``seed`` (0 stands
    for 1, as in ``_SplitMix64(seed or 1)``); ``params`` names every
    :data:`WORKLOAD_PARAMS` slot.  Fills uint64 ``addresses``, bool
    ``is_write`` and, unless it is ``None``, int64 ``pcs``: each a
    writable C-contiguous array of ``length`` entries.
    """
    if (not isinstance(length, (int, np.integer)) or isinstance(length, bool)
            or length < 1):
        raise ValueError("length must be a positive integer")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    param_array = _workload_params(params)
    n = int(length)
    address_ptr = _pointer("addresses", addresses, np.uint64, (n,))
    write_ptr = _pointer("is_write", is_write, np.bool_, (n,))
    pc_ptr = None if pcs is None else _pointer("pcs", pcs, np.int64, (n,))
    _library().repro_workload_trace(n, (int(seed) or 1) & (2**64 - 1),
                                    param_array.ctypes.data, address_ptr,
                                    write_ptr, pc_ptr)


def first_touch(pages: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct non-negative int64 ``pages`` in first-touch order and
    each access's index among them: ``(distinct, ordinals)``, fresh int64
    arrays with ``distinct[ordinals] == pages``."""
    (n,) = _shape(pages, 1)
    page_ptr = _pointer("pages", pages, np.int64, (n,), writable=False)
    check_blocks("pages", pages)
    library = _library()
    distinct = np.empty(n, dtype=np.int64)
    ordinals = np.empty(n, dtype=np.int64)
    count = library.repro_first_touch(n, page_ptr, distinct.ctypes.data,
                                      ordinals.ctypes.data)
    if count < 0:
        raise MemoryError("compiled first-touch pass could not allocate "
                          "scratch")
    return distinct[:count].copy(), ordinals
