"""Materialising traces into NumPy arrays for the batch engine.

The generators in :mod:`repro.trace.generators` yield
:class:`~repro.trace.record.MemoryAccess` objects lazily; the batch engine
wants plain address / store-mask arrays.  :func:`to_arrays` converts any
trace, and the ``*_arrays`` builders synthesise the workloads directly as
arrays — no per-access object is ever created, which matters when a sweep
needs millions of references per configuration.
:func:`~repro.trace.workloads.workload_arrays` (re-exported here) builds the
synthetic programs, :func:`strided_vector_arrays` Figure 1's vectors.

Array builders are bit-exact with their generator counterparts (asserted in
``tests/test_engine_equivalence.py`` and ``tests/test_trace_workloads.py``).

Sweep-wide trace memoisation
----------------------------

A sweep replays the same few traces against many configurations: the
replacement study drives one program trace through every (organisation,
policy) pair, the miss-ratio study through seven organisations, Figure 1
through four schemes per stride.  Re-materialising the trace per task is the
single largest fixed cost of small tasks, so :func:`cached_workload_arrays`
and :func:`cached_strided_arrays` keep a process-global, size-bounded cache
keyed by the trace's defining parameters (workload name / stride shape,
length, seed).  Every worker process of a fan-out sweep holds its own cache,
so a worker materialises a given trace once per sweep instead of once per
task.  Cached arrays are returned read-only and with stable identity — which
is what lets :mod:`repro.engine.memo` additionally share the *derived*
block-number arrays across tasks.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from ..core.memo_util import BoundedMemo
from .record import MemoryAccess
from .workloads import workload_arrays

__all__ = [
    "to_arrays",
    "strided_vector_arrays",
    "workload_arrays",
    "cached_workload_arrays",
    "cached_strided_arrays",
    "trace_cache_info",
    "trace_cache_clear",
    "set_trace_cache_limit",
]


def to_arrays(trace: Iterable[MemoryAccess]) -> Tuple[np.ndarray, np.ndarray]:
    """Materialise a trace into ``(addresses, is_write)`` NumPy arrays.

    ``addresses`` is ``uint64``, ``is_write`` is ``bool``; both have one
    entry per access, in trace order.
    """
    addresses = []
    writes = []
    for access in trace:
        addresses.append(access.address)
        writes.append(access.is_write)
    if not addresses:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=bool)
    return (np.array(addresses, dtype=np.uint64),
            np.array(writes, dtype=bool))


def strided_vector_arrays(
    stride: int,
    elements: int = 64,
    element_size: int = 8,
    sweeps: int = 4,
    base: int = 0,
    is_write: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Array-native :func:`~repro.trace.generators.strided_vector`.

    Returns the same address sequence as the generator (Figure 1's repeated
    strided sweeps) without constructing any :class:`MemoryAccess` objects.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if elements < 1 or sweeps < 1:
        raise ValueError("elements and sweeps must be positive")
    if base < 0:
        raise ValueError("base must be non-negative")
    step = stride * element_size
    top = base + (elements - 1) * step
    if top >= 1 << 64:
        # The scalar generator keeps arbitrary-precision ints, so a uint64
        # wraparound here would silently diverge from it instead of failing.
        raise ValueError(
            f"address overflow: base {base:#x} plus the last element offset "
            f"{(elements - 1) * step:#x} reaches {top:#x}, past the uint64 "
            "address space")
    offsets = np.arange(elements, dtype=np.uint64)
    if elements > 1:
        offsets = offsets * np.uint64(step)
    one_sweep = np.uint64(base) + offsets
    addresses = np.tile(one_sweep, sweeps)
    writes = np.full(addresses.shape[0], bool(is_write), dtype=bool)
    return addresses, writes


# --------------------------------------------------------------------- #
# process-global trace cache
# --------------------------------------------------------------------- #

_TraceArrays = Tuple[np.ndarray, np.ndarray]

#: The process-global trace cache.  40 entries comfortably hold a full
#: workload suite (18 programs) plus strided traces; the byte bound keeps a
#: large-``accesses`` study from pinning gigabytes of dead trace arrays in
#: every worker process for its lifetime (traces bigger than half the
#: budget are returned uncached — at that size simulation, not
#: materialisation, dominates the task anyway).  Lock-guarded inside
#: :class:`BoundedMemo` because the threads of one process share it.
_TRACE_CACHE = BoundedMemo(
    40, 256 * 1024 * 1024,
    nbytes_of=lambda entry: entry[0].nbytes + entry[1].nbytes)


def _trace_cache_get(key: tuple,
                     build: Callable[[], _TraceArrays]) -> _TraceArrays:
    def build_frozen() -> _TraceArrays:
        addresses, writes = build()
        # Shared arrays must be immutable: a task scribbling on its "own"
        # trace would silently corrupt every later task's input (and the
        # engine-side memo only trusts read-only arrays).
        addresses.flags.writeable = False
        writes.flags.writeable = False
        return addresses, writes

    return _TRACE_CACHE.get(key, build_frozen)


def cached_workload_arrays(name: str, length: int = 100_000,
                           block_size: int = 32,
                           seed: int = 12345) -> _TraceArrays:
    """Materialised ``(addresses, is_write)`` of one synthetic workload.

    :func:`workload_arrays` behind the trace cache: the first call per
    process synthesises and caches, later calls return the identical
    (read-only) arrays.
    """
    key = ("workload", str(name), int(length), int(block_size), int(seed))
    return _trace_cache_get(
        key, lambda: workload_arrays(name, length=length,
                                     block_size=block_size, seed=seed))


def cached_strided_arrays(stride: int, elements: int = 64,
                          element_size: int = 8, sweeps: int = 4,
                          base: int = 0,
                          is_write: bool = False) -> _TraceArrays:
    """Cached counterpart of :func:`strided_vector_arrays` (same semantics)."""
    key = ("strided", int(stride), int(elements), int(element_size),
           int(sweeps), int(base), bool(is_write))
    return _trace_cache_get(
        key, lambda: strided_vector_arrays(stride, elements=elements,
                                           element_size=element_size,
                                           sweeps=sweeps, base=base,
                                           is_write=is_write))


def trace_cache_info() -> Dict[str, int]:
    """Entry count, hit/miss counters and bounds of the trace cache."""
    return _TRACE_CACHE.info()


def trace_cache_clear() -> None:
    """Drop every cached trace and zero the hit/miss counters."""
    _TRACE_CACHE.clear()


def set_trace_cache_limit(limit: int) -> int:
    """Change the cache bound (evicting immediately); returns the old bound."""
    return _TRACE_CACHE.set_limit(limit)
